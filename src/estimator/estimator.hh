/**
 * @file
 * Unified estimator interface and registry.
 *
 * Every resource estimate in the repo — factoring on the transversal
 * architecture, chemistry, the Gidney–Ekerå lattice-surgery baseline,
 * hybrid qLDPC storage, factory design, idle-storage cadence — is
 * servable from one request shape: a string kind plus a named
 * parameter map.  Results come back as a scalar metric map plus a
 * feasibility flag, serializable to JSON, so sweeps, benches, tests
 * and (eventually) a service front-end all speak the same type.
 *
 * Concrete estimators are registered under a string key; external
 * code may register new kinds (or override built-ins) without
 * touching the harness.  The original free-function entry points
 * (estimateFactoring, estimateChemistry, gidneyEkera,
 * applyQldpcStorage, ...) remain the numeric core; the estimators
 * here are thin, stateless adapters over them.
 *
 * Estimator::estimate() is const and must be thread-safe: the
 * parallel SweepRunner (src/estimator/sweep.hh) shares a single
 * instance across its workers.
 */

#ifndef TRAQ_ESTIMATOR_ESTIMATOR_HH
#define TRAQ_ESTIMATOR_ESTIMATOR_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/assert.hh"
#include "src/common/json.hh"
#include "src/estimator/baselines.hh"
#include "src/estimator/chemistry.hh"
#include "src/estimator/qldpc.hh"
#include "src/estimator/shor.hh"

namespace traq::est {

/** Named scalar parameters / metrics. */
using ParamMap = std::map<std::string, double>;

/**
 * One estimate request: which estimator kind, and named parameter
 * overrides applied on top of the estimator's base specification.
 * Integer-valued spec fields (window sizes, distances, counts) are
 * rounded from the double value and must be finite and fit the
 * field.  Unknown parameter names throw FatalError listing the
 * known ones (common/param_reader.hh) — a sweep over a misspelled
 * axis must not silently no-op.
 */
struct EstimateRequest
{
    std::string kind;
    ParamMap params;
};

/** Uniform estimate output: echoed parameters + scalar metrics. */
struct EstimateResult
{
    std::string kind;
    ParamMap params;      //!< the request parameters, as applied
    ParamMap metrics;     //!< named scalar outputs
    bool feasible = true; //!< all budgets/constraints satisfied

    /** Metric by name; throws FatalError if absent. */
    double metric(const std::string &name) const;

    /** True if the metric exists. */
    bool hasMetric(const std::string &name) const;
};

/**
 * Canonical serialization of a request — kind plus sorted
 * exact-round-trip parameter encodings.  Two requests share a key
 * exactly when they are equivalent; the SweepRunner memoization is
 * keyed on this.
 */
std::string canonicalKey(const EstimateRequest &req);

/** Serialize one result as a JSON object. */
std::string toJson(const EstimateResult &res);

/**
 * Serialize one request as a JSON object:
 * {"kind":"factoring","params":{"rsep":96,...}}.  Non-finite
 * parameter values encode as the quoted tags "nan"/"inf"/"-inf"
 * (see jsonNumber), which requestFromJson accepts back, so
 * request -> JSON -> parse -> canonicalKey is a fixed point.
 */
std::string toJson(const EstimateRequest &req);

/**
 * Parse a request from its JSON object form — the inverse of
 * toJson(EstimateRequest).  "params" may be omitted; any other
 * unknown member, a missing/empty "kind", or a parameter value that
 * is neither a number nor a non-finite tag throws FatalError.
 */
EstimateRequest requestFromJson(const json::Value &v);

/** Parse a request from JSON text (convenience over json::parse). */
EstimateRequest requestFromJson(std::string_view text);

/**
 * Parse a result from its JSON object form — the inverse of
 * toJson(EstimateResult).  "feasible" defaults to true and "params"
 * / "metrics" to empty when omitted; unknown members throw.
 */
EstimateResult resultFromJson(const json::Value &v);

/** Parse a result from JSON text. */
EstimateResult resultFromJson(std::string_view text);

/**
 * A FatalError that comes from resolving process state (an
 * environment variable such as TRAQ_DECODER) rather than from the
 * request.  It carries the resolver's message unchanged.  The service
 * answers it like any rejection but never persists it: the same
 * request is valid once the environment is fixed.
 */
class EnvironmentError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/** Abstract resource estimator. */
class Estimator
{
  public:
    virtual ~Estimator() = default;

    /** Stable registry key, e.g. "factoring". */
    virtual const char *kind() const = 0;

    /**
     * Run one estimate.  Must be thread-safe (SweepRunner workers
     * share the instance).  Throws FatalError on unknown parameter
     * names or invalid configurations.
     */
    virtual EstimateResult estimate(const EstimateRequest &req)
        const = 0;

    /**
     * Validate request parameters without running the estimate, and
     * return the key the service caches the result under: throws
     * FatalError with exactly the message estimate() would produce
     * for an unknown parameter name, an unappliable value, or an
     * inconsistent specification.  Built-ins run the read function
     * estimate() runs; the key is canonicalKey(req) plus any process
     * state the result depends on, as resolved now (the Monte-Carlo
     * kinds' decoder and word backend); a value the environment
     * cannot resolve throws EnvironmentError.  The default accepts
     * everything and returns canonicalKey(req) — kinds whose
     * parameter space is not statically checkable defer to
     * estimate(), and the service validation layer then reports
     * those failures as execution errors instead of validation
     * errors.  Must be thread-safe and cheap (no evaluation).
     */
    virtual std::string checkParams(const EstimateRequest &req) const
    {
        return canonicalKey(req);
    }
};

/** Factory signature used by the estimator registry. */
using EstimatorFactory =
    std::function<std::unique_ptr<Estimator>()>;

/**
 * Register (or replace) the factory for an estimator kind.
 * Built-ins ("factoring", "chemistry", "gidney-ekera",
 * "qldpc-storage", "factory-design", "idle-storage", and the
 * simulation-backed "mc-logical-error" / "mc-alpha" of
 * src/estimator/simulation.hh) are pre-registered.  Unlike decoders
 * and noise sources, estimator kinds stay open: the service tests
 * register a blocking estimator to hold JobService workers
 * (Scheduler.BoundedReadyQueueBlocksSubmitWithoutDeadlock).
 */
void registerEstimator(const std::string &kind,
                       EstimatorFactory factory);

/** Instantiate an estimator; throws FatalError on unknown kinds. */
std::unique_ptr<Estimator> makeEstimator(const std::string &kind);

/** Sorted list of registered kinds. */
std::vector<std::string> registeredEstimators();

// Constructors with non-default base specifications.  Request
// parameters are applied on top of the given base.

/** Factoring estimator over a custom base spec. */
std::unique_ptr<Estimator>
makeFactoringEstimator(const FactoringSpec &base);

/** Chemistry estimator over a custom base spec. */
std::unique_ptr<Estimator>
makeChemistryEstimator(const ChemistrySpec &base);

/** Gidney–Ekerå baseline estimator over a custom base spec. */
std::unique_ptr<Estimator>
makeGidneyEkeraEstimator(const GidneyEkeraSpec &base);

/**
 * Hybrid qLDPC-storage estimator.  Factoring parameters select the
 * underlying computation; storage parameters (compressionFactor,
 * eligibleFraction, accessMovePatches) the dense encoding.  The
 * underlying factoring solve is memoized per distinct factoring
 * parameter set, so sweeping storage parameters pays for one
 * reference solve.
 */
std::unique_ptr<Estimator>
makeQldpcStorageEstimator(const FactoringSpec &factoringBase,
                          const QldpcStorageSpec &storageBase);

} // namespace traq::est

#endif // TRAQ_ESTIMATOR_ESTIMATOR_HH
