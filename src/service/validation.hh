/**
 * @file
 * Validation / admission layer of the service tier.
 *
 * Sits between the wire (raw request lines) and JobService: it
 * turns text into checked work, so by the time a job reaches the
 * ready queue the only failures left are evaluation-time ones.
 * Three steps, each with its own structured error class (job.hh
 * errc):
 *
 *   1. parseRequestLine — JSON text -> EstimateRequest(s).  A line
 *      that is not JSON is errc::json; JSON of the wrong shape for
 *      an EstimateRequest is errc::shape.  Neither ever reaches
 *      JobService, matching the pre-split traq_serve behavior where
 *      malformed lines were answered directly and never counted in
 *      queue statistics.
 *   2. kind resolution — the EstimatorPool instantiates (and caches)
 *      the estimator for the request kind; an unknown kind is
 *      errc::kind with makeEstimator's exact FatalError message.
 *   3. per-kind parameter checks — Estimator::checkParams runs the
 *      kind's read function on a scratch spec, so an unknown
 *      parameter name or unappliable value is rejected at admission
 *      (errc::param) with byte-identical diagnostics to what
 *      estimate() would have thrown from a worker.  The same call
 *      returns the request's cache key: canonicalKey, plus the
 *      resolved process state a Monte-Carlo result depends on.
 *
 * Steps 2 and 3 produce a Validated ticket: either a request plus
 * its cache key, or a structured JobError (keyed by canonicalKey).
 * Both outcomes are admitted to JobService — deterministic
 * validation failures are cached and persisted exactly like
 * evaluation failures were in the monolithic JobQueue, so stats
 * counters and golden output bytes are unchanged.  The exception is
 * a failure to resolve the environment a kind reads (errc::env, from
 * est::EnvironmentError): it is cached but never persisted.
 */

#ifndef TRAQ_SERVICE_VALIDATION_HH
#define TRAQ_SERVICE_VALIDATION_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/estimator/estimator.hh"
#include "src/service/job.hh"

namespace traq::service {

/**
 * Shared per-kind estimator instances.  estimate() is const and
 * thread-safe by contract, so one instance per kind is shared by the
 * validator (checkParams) and every JobService worker; sharing keeps
 * per-instance memo caches (e.g. qldpc-storage's reference solve)
 * warm across jobs.  Thread-safe.
 */
class EstimatorPool
{
  public:
    /**
     * The estimator for @p kind, instantiating on first use.
     * Throws FatalError ("no estimator registered for kind ...")
     * for unknown kinds — the caller owns classifying that.
     */
    std::shared_ptr<const est::Estimator>
    get(const std::string &kind);

  private:
    std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const est::Estimator>>
        instances_;
};

/** One parsed request line: an error, a single job, or a batch. */
struct ParsedLine
{
    bool batch = false;
    std::vector<est::EstimateRequest> requests;
    JobError error; //!< non-empty: nothing may be submitted
};

/**
 * Parse one wire line (a request object or an array of them) into
 * requests.  Never throws: malformed input comes back as a
 * structured JobError (errc::json / errc::shape) whose message is
 * the exact FatalError text, so drivers emit the same bytes the
 * pre-split traq_serve did.  A batch parses atomically: one bad
 * element fails the whole line.
 */
ParsedLine parseRequestLine(std::string_view text);

/** Admission ticket: a validated request or a structured error. */
struct Validated
{
    est::EstimateRequest request;
    std::string key; //!< cache key; empty when caching is off
    JobError error;  //!< non-empty: failed validation

    bool ok() const { return error.empty(); }
};

/**
 * Request validator: kind resolution + per-kind parameter checks +
 * cache-key computation.  Stateless apart from the shared pool;
 * thread-safe.
 */
class Validator
{
  public:
    /**
     * @param pool        shared estimator instances (also used by
     *                    the JobService workers).
     * @param computeKey  fill Validated::key for cacheable
     *                    admission; off when the result cache is
     *                    off.
     */
    Validator(std::shared_ptr<EstimatorPool> pool, bool computeKey)
        : pool_(std::move(pool)), computeKey_(computeKey)
    {}

    /**
     * Validate one request.  Never throws FatalError: an unknown
     * kind (errc::kind) or rejected parameter (errc::param) comes
     * back as a Validated carrying the structured error — with the
     * exact message estimate() would have produced — because
     * deterministic validation failures are admitted, cached, and
     * persisted like any other outcome.  An environment the kind
     * cannot resolve comes back as errc::env, which JobService
     * does not persist.  Kinds whose checkParams is
     * the accept-everything default defer bad parameters to
     * evaluation (errc::estimate, assigned by JobService).
     */
    Validated validate(est::EstimateRequest req) const;

  private:
    std::shared_ptr<EstimatorPool> pool_;
    bool computeKey_ = true;
};

} // namespace traq::service

#endif // TRAQ_SERVICE_VALIDATION_HH
