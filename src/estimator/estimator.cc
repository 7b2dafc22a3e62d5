#include "src/estimator/estimator.hh"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <utility>

#include "src/arch/qec_cycle.hh"
#include "src/arch/se_schedule.hh"
#include "src/common/assert.hh"
#include "src/common/param_reader.hh"
#include "src/common/serialize.hh"
#include "src/estimator/simulation.hh"
#include "src/gadgets/factory.hh"

namespace traq::est {
namespace {

/**
 * "atom.*" and "errorModel.*" overrides, shared by every kind whose
 * spec carries a platform and an error model.
 */
void
readPlatform(ParamReader &r, platform::AtomArrayParams &atom,
             model::ErrorModelParams &em)
{
    r.real("atom.siteSpacing", atom.siteSpacing);
    r.real("atom.acceleration", atom.acceleration);
    r.real("atom.gateTime", atom.gateTime);
    r.real("atom.measureTime", atom.measureTime);
    r.real("atom.decodeTime", atom.decodeTime);
    r.real("atom.coherenceTime", atom.coherenceTime);
    r.real("atom.pPhys", atom.pPhys);
    // The paper splits the reaction time evenly between measurement
    // and decoding (Sec. II.2); Fig. 14(c) sweeps it as one knob.
    // Read after its two halves, it wins over them.
    double reaction = 0.0;
    if (r.real("atom.reactionTime", reaction))
        atom.measureTime = atom.decodeTime = reaction / 2.0;
    r.real("errorModel.prefactorC", em.prefactorC);
    r.real("errorModel.pPhys", em.pPhys);
    r.real("errorModel.pThres", em.pThres);
    r.real("errorModel.alpha", em.alpha);
}

void
readFactoring(ParamReader &r, FactoringSpec &spec)
{
    r.integer("nBits", spec.nBits);
    r.integer("wExp", spec.wExp);
    r.integer("wMul", spec.wMul);
    r.integer("rsep", spec.rsep);
    r.integer("rpad", spec.rpad);
    r.integer("distance", spec.distance);
    r.integer("factories", spec.factories);
    r.real("cczErrorBudget", spec.cczErrorBudget);
    r.real("logicalErrorBudget", spec.logicalErrorBudget);
    r.real("runwayErrorBudget", spec.runwayErrorBudget);
    r.real("idlePeriod", spec.idlePeriod);
    readPlatform(r, spec.atom, spec.errorModel);
}

/**
 * A closed-form kind: a base spec, the kind's one read function and
 * an evaluation of the read spec.  checkParams and estimate both read
 * through it, so validation and evaluation cannot disagree about a
 * parameter.
 */
template <class Spec>
class SpecEstimator final : public Estimator
{
  public:
    using Read = void (*)(ParamReader &, Spec &);
    /** Sets the metrics (and feasibility) of a result whose kind
     *  and params are filled in. */
    using Evaluate =
        std::function<void(const Spec &, EstimateResult &)>;

    SpecEstimator(const char *kind, const Spec &base, Read read,
                  Evaluate evaluate)
        : kind_(kind), base_(base), read_(read),
          evaluate_(std::move(evaluate))
    {}

    const char *kind() const override { return kind_; }

    std::string checkParams(const EstimateRequest &req) const override
    {
        (void)readParams(req.params, kind_, base_, read_);
        return canonicalKey(req);
    }

    EstimateResult estimate(const EstimateRequest &req) const override
    {
        EstimateResult res;
        res.kind = kind_;
        res.params = req.params;
        evaluate_(readParams(req.params, kind_, base_, read_), res);
        return res;
    }

  private:
    const char *kind_;
    Spec base_;
    Read read_;
    Evaluate evaluate_;
};

void
evaluateFactoring(const FactoringSpec &spec, EstimateResult &res)
{
    const FactoringReport rep = estimateFactoring(spec);
    res.feasible = rep.feasible;
    res.metrics = {
        {"exponentBits", rep.exponentBits},
        {"lookupAdditions", rep.lookupAdditions},
        {"cczTotal", rep.cczTotal},
        {"distance", static_cast<double>(rep.distance)},
        {"rpad", static_cast<double>(rep.rpad)},
        {"factories", static_cast<double>(rep.factories)},
        {"idlePeriodUsed", rep.idlePeriodUsed},
        {"timePerLookup", rep.timePerLookup},
        {"timePerAddition", rep.timePerAddition},
        {"totalSeconds", rep.totalSeconds},
        {"days", rep.days},
        {"storageQubits", rep.storageQubits},
        {"adderQubits", rep.adderQubits},
        {"lookupQubits", rep.lookupQubits},
        {"factoryQubits", rep.factoryQubits},
        {"routingQubits", rep.routingQubits},
        {"physicalQubits", rep.physicalQubits},
        {"algorithmLogicalError", rep.algorithmLogicalError},
        {"idleError", rep.idleError},
        {"runwayError", rep.runwayError},
        {"cczError", rep.cczError},
        {"spacetimeVolume", rep.spacetimeVolume},
        // Derived timing the Fig. 14(a,b) sweep reports.
        {"qecRound", arch::qecCycle(rep.distance, spec.atom).total},
    };
}

void
readChemistry(ParamReader &r, ChemistrySpec &spec)
{
    r.integer("spinOrbitals", spec.spinOrbitals);
    r.real("lambdaHam", spec.lambdaHam);
    r.real("energyError", spec.energyError);
    r.integer("thcRank", spec.thcRank);
    r.integer("rotationBits", spec.rotationBits);
    r.integer("distance", spec.distance);
    readPlatform(r, spec.atom, spec.errorModel);
}

void
evaluateChemistry(const ChemistrySpec &spec, EstimateResult &res)
{
    const ChemistryReport rep = estimateChemistry(spec);
    res.metrics = {
        {"iterations", rep.iterations},
        {"lookupAddressBits",
         static_cast<double>(rep.lookupAddressBits)},
        {"cczPerIteration", rep.cczPerIteration},
        {"cczTotal", rep.cczTotal},
        {"timePerIteration", rep.timePerIteration},
        {"totalSeconds", rep.totalSeconds},
        {"days", rep.days},
        {"physicalQubits", rep.physicalQubits},
        {"distance", static_cast<double>(rep.distance)},
        {"spacetimeVolume", rep.spacetimeVolume},
        {"latticeSurgerySeconds", rep.latticeSurgerySeconds},
        {"speedup", rep.speedup},
    };
}

void
readGidneyEkera(ParamReader &r, GidneyEkeraSpec &spec)
{
    r.integer("nBits", spec.nBits);
    r.integer("wExp", spec.wExp);
    r.integer("wMul", spec.wMul);
    r.integer("rsep", spec.rsep);
    r.integer("rpad", spec.rpad);
    r.integer("distance", spec.distance, 3);
    r.real("tCycle", spec.tCycle);
    r.real("tReaction", spec.tReaction);
}

void
evaluateGidneyEkera(const GidneyEkeraSpec &spec, EstimateResult &res)
{
    const BaselinePoint p = gidneyEkera(spec);
    res.metrics = {
        {"physicalQubits", p.physicalQubits},
        {"totalSeconds", p.seconds},
        {"spacetimeVolume", p.spacetimeVolume},
    };
}

/** Hybrid qLDPC storage over a reference factoring solve. */
struct QldpcSpec
{
    FactoringSpec factoring;
    QldpcStorageSpec storage;
};

/** The storage-encoding parameters; every other name configures the
 *  reference factoring solve. */
constexpr std::pair<std::string_view, double QldpcStorageSpec::*>
    kStorageParams[] = {
        {"compressionFactor", &QldpcStorageSpec::compressionFactor},
        {"eligibleFraction", &QldpcStorageSpec::eligibleFraction},
        {"accessMovePatches", &QldpcStorageSpec::accessMovePatches},
};

void
readQldpc(ParamReader &r, QldpcSpec &spec)
{
    for (const auto &[name, field] : kStorageParams)
        r.real(name, spec.storage.*field);
    readFactoring(r, spec.factoring);
}

/**
 * Memoized reference solves, keyed on the factoring parameters
 * alone: sweeping storage parameters reuses the (expensive)
 * factoring estimate.  Thread-safe.
 */
class FactoringMemo
{
  public:
    const FactoringReport &solve(const ParamMap &params,
                                 const FactoringSpec &spec)
    {
        std::string key;
        for (const auto &[name, v] : params) {
            if (std::any_of(std::begin(kStorageParams),
                            std::end(kStorageParams),
                            [&](const auto &p) {
                                return p.first == name;
                            }))
                continue;
            key += '|';
            key += name;
            key += '=';
            key += fmtRoundTrip(v);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = cache_.find(key);
            if (it != cache_.end())
                return it->second;
        }
        // Solve outside the lock so distinct parameter sets run in
        // parallel; a racing duplicate solve is deterministic, and
        // the losing insert is discarded.  std::map references stay
        // valid across later insertions.
        FactoringReport report = estimateFactoring(spec);
        std::lock_guard<std::mutex> lock(mutex_);
        return cache_.emplace(key, std::move(report)).first->second;
    }

  private:
    std::mutex mutex_;
    std::map<std::string, FactoringReport> cache_;
};

void
readFactory(ParamReader &r, gadgets::FactorySpec &spec)
{
    r.real("targetCczError", spec.targetCczError);
    r.real("seRoundsPerGate", spec.seRoundsPerGate);
    r.integer("forcedDistance", spec.forcedDistance);
    readPlatform(r, spec.atom, spec.errorModel);
}

void
evaluateFactory(const gadgets::FactorySpec &spec, EstimateResult &res)
{
    const gadgets::FactoryReport rep = gadgets::designFactory(spec);
    res.metrics = {
        {"distance", static_cast<double>(rep.distance)},
        {"tInputError", rep.tInputError},
        {"cczError", rep.cczError},
        {"qubits", rep.qubits},
        {"cczTime", rep.cczTime},
        {"volume", rep.qubits * rep.cczTime},
        {"throughput", rep.throughput},
        {"retryOverhead", rep.retryOverhead},
        {"cultivationRows", static_cast<double>(rep.cultivationRows)},
        {"cultivationFits", rep.cultivationFits ? 1.0 : 0.0},
    };
}

/** Idle-storage cadence at one distance. */
struct IdleSpec
{
    int d = 27;
    double sePeriod = 0.0; // <= 0: report only the optimum
    platform::AtomArrayParams atom =
        platform::AtomArrayParams::paperDefaults();
    model::ErrorModelParams em = model::ErrorModelParams::paperDefaults();
};

void
readIdle(ParamReader &r, IdleSpec &spec)
{
    r.integer("distance", spec.d);
    r.real("sePeriod", spec.sePeriod);
    readPlatform(r, spec.atom, spec.em);
}

void
evaluateIdle(const IdleSpec &spec, EstimateResult &res)
{
    res.metrics = {
        {"optimalPeriod",
         arch::optimalIdlePeriod(spec.d, spec.atom, spec.em)},
        {"approxPeriod",
         arch::optimalIdlePeriodApprox(spec.d, spec.atom, spec.em)},
    };
    if (spec.sePeriod > 0.0)
        res.metrics["rate"] = arch::idleLogicalErrorRate(
            spec.sePeriod, spec.d, spec.atom, spec.em);
}

std::mutex &
registryMutex()
{
    static std::mutex m;
    return m;
}

std::map<std::string, EstimatorFactory> &
registry()
{
    // Built-ins are seeded on first access so makeEstimator works
    // without any static-initialization-order coupling.
    static std::map<std::string, EstimatorFactory> r = {
        {"factoring",
         [] { return makeFactoringEstimator(FactoringSpec{}); }},
        {"chemistry",
         [] { return makeChemistryEstimator(ChemistrySpec{}); }},
        {"gidney-ekera",
         [] { return makeGidneyEkeraEstimator(GidneyEkeraSpec{}); }},
        {"qldpc-storage",
         [] {
             return makeQldpcStorageEstimator(FactoringSpec{},
                                              QldpcStorageSpec{});
         }},
        {"factory-design",
         [] {
             return std::make_unique<
                 SpecEstimator<gadgets::FactorySpec>>(
                 "factory-design", gadgets::FactorySpec{},
                 readFactory, evaluateFactory);
         }},
        {"idle-storage",
         [] {
             return std::make_unique<SpecEstimator<IdleSpec>>(
                 "idle-storage", IdleSpec{}, readIdle, evaluateIdle);
         }},
        // Simulation-backed kinds (src/estimator/simulation.hh):
        // Monte-Carlo logical error rates and the Fig. 6(a) alpha
        // extraction, served through the same request shape.
        {"mc-logical-error",
         [] { return makeMcLogicalErrorEstimator(); }},
        {"mc-alpha", [] { return makeMcAlphaEstimator(); }},
    };
    return r;
}

} // namespace

double
EstimateResult::metric(const std::string &name) const
{
    auto it = metrics.find(name);
    if (it == metrics.end())
        TRAQ_FATAL("estimate result has no metric '" + name + "'");
    return it->second;
}

bool
EstimateResult::hasMetric(const std::string &name) const
{
    return metrics.count(name) != 0;
}

std::string
canonicalKey(const EstimateRequest &req)
{
    std::string key = req.kind;
    for (const auto &[name, v] : req.params) {
        key += '|';
        key += name;
        key += '=';
        key += fmtRoundTrip(v);
    }
    return key;
}

namespace {

std::string
paramMapToJson(const ParamMap &m)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, v] : m) {
        if (!first)
            out += ",";
        first = false;
        out += jsonQuote(name);
        out += ":";
        out += jsonNumber(v);
    }
    out += "}";
    return out;
}

ParamMap
paramMapFromJson(const json::Value &v, const char *what)
{
    ParamMap m;
    for (const auto &[name, val] : v.asObject()) {
        TRAQ_REQUIRE(val.isNumber() || val.isString(),
                     std::string(what) + " '" + name +
                         "' must be a number or a non-finite tag");
        m[name] = val.asNumberOrTag();
    }
    return m;
}

} // namespace

std::string
toJson(const EstimateResult &res)
{
    std::string out = "{\"kind\":";
    out += jsonQuote(res.kind);
    out += ",\"feasible\":";
    out += res.feasible ? "true" : "false";
    out += ",\"params\":";
    out += paramMapToJson(res.params);
    out += ",\"metrics\":";
    out += paramMapToJson(res.metrics);
    out += "}";
    return out;
}

std::string
toJson(const EstimateRequest &req)
{
    std::string out = "{\"kind\":";
    out += jsonQuote(req.kind);
    out += ",\"params\":";
    out += paramMapToJson(req.params);
    out += "}";
    return out;
}

EstimateRequest
requestFromJson(const json::Value &v)
{
    EstimateRequest req;
    for (const auto &[key, val] : v.asObject()) {
        if (key == "kind")
            req.kind = val.asString();
        else if (key == "params")
            req.params = paramMapFromJson(val, "request parameter");
        else
            TRAQ_FATAL("unknown EstimateRequest member '" + key +
                       "'");
    }
    TRAQ_REQUIRE(!req.kind.empty(),
                 "EstimateRequest JSON needs a non-empty \"kind\"");
    return req;
}

EstimateRequest
requestFromJson(std::string_view text)
{
    return requestFromJson(json::parse(text));
}

EstimateResult
resultFromJson(const json::Value &v)
{
    EstimateResult res;
    for (const auto &[key, val] : v.asObject()) {
        if (key == "kind")
            res.kind = val.asString();
        else if (key == "feasible")
            res.feasible = val.asBool();
        else if (key == "params")
            res.params = paramMapFromJson(val, "result parameter");
        else if (key == "metrics")
            res.metrics = paramMapFromJson(val, "result metric");
        else
            TRAQ_FATAL("unknown EstimateResult member '" + key +
                       "'");
    }
    TRAQ_REQUIRE(!res.kind.empty(),
                 "EstimateResult JSON needs a non-empty \"kind\"");
    return res;
}

EstimateResult
resultFromJson(std::string_view text)
{
    return resultFromJson(json::parse(text));
}

void
registerEstimator(const std::string &kind, EstimatorFactory factory)
{
    TRAQ_REQUIRE(factory != nullptr, "null estimator factory");
    TRAQ_REQUIRE(!kind.empty(), "empty estimator kind");
    std::lock_guard<std::mutex> lock(registryMutex());
    registry()[kind] = std::move(factory);
}

std::unique_ptr<Estimator>
makeEstimator(const std::string &kind)
{
    EstimatorFactory factory;
    {
        std::lock_guard<std::mutex> lock(registryMutex());
        auto it = registry().find(kind);
        TRAQ_REQUIRE(it != registry().end(),
                     "no estimator registered for kind '" + kind +
                         "'");
        factory = it->second;
    }
    return factory();
}

std::vector<std::string>
registeredEstimators()
{
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<std::string> kinds;
    kinds.reserve(registry().size());
    for (const auto &[kind, factory] : registry())
        kinds.push_back(kind);
    return kinds;
}

std::unique_ptr<Estimator>
makeFactoringEstimator(const FactoringSpec &base)
{
    return std::make_unique<SpecEstimator<FactoringSpec>>(
        "factoring", base, readFactoring, evaluateFactoring);
}

std::unique_ptr<Estimator>
makeChemistryEstimator(const ChemistrySpec &base)
{
    return std::make_unique<SpecEstimator<ChemistrySpec>>(
        "chemistry", base, readChemistry, evaluateChemistry);
}

std::unique_ptr<Estimator>
makeGidneyEkeraEstimator(const GidneyEkeraSpec &base)
{
    return std::make_unique<SpecEstimator<GidneyEkeraSpec>>(
        "gidney-ekera", base, readGidneyEkera, evaluateGidneyEkera);
}

std::unique_ptr<Estimator>
makeQldpcStorageEstimator(const FactoringSpec &factoringBase,
                          const QldpcStorageSpec &storageBase)
{
    auto memo = std::make_shared<FactoringMemo>();
    return std::make_unique<SpecEstimator<QldpcSpec>>(
        "qldpc-storage", QldpcSpec{factoringBase, storageBase},
        readQldpc, [memo](const QldpcSpec &spec, EstimateResult &res) {
            const FactoringReport &base =
                memo->solve(res.params, spec.factoring);
            const QldpcStorageReport rep =
                applyQldpcStorage(base, spec.factoring, spec.storage);
            res.feasible = base.feasible;
            res.metrics = {
                {"surfaceStorageQubits", rep.surfaceStorageQubits},
                {"denseStorageQubits", rep.denseStorageQubits},
                {"residualSurfaceQubits", rep.residualSurfaceQubits},
                {"physicalQubits", rep.physicalQubits},
                {"footprintReduction", rep.footprintReduction},
                {"accessCycleTime", rep.accessCycleTime},
                {"computeCycleTime", rep.computeCycleTime},
                {"spacetimeVolume", rep.spacetimeVolume},
                {"totalSeconds", base.totalSeconds},
                {"basePhysicalQubits", base.physicalQubits},
            };
        });
}

} // namespace traq::est
