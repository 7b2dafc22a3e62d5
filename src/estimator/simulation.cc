#include "src/estimator/simulation.hh"

#include <cmath>
#include <vector>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/common/param_reader.hh"
#include "src/decoder/monte_carlo.hh"
#include "src/estimator/sweep.hh"
#include "src/model/fit.hh"

namespace traq::est {
namespace {

/**
 * The part of a Monte-Carlo result's cache key that is process state
 * rather than a parameter: the decoder kind (TRAQ_DECODER overrides
 * the requested one) and the word backend, which fixes the RNG
 * stream layout.
 */
std::string
resolvedEngineKey(decoder::DecoderKind kind, WordBackend backend)
{
    std::string key = ";decoder=";
    key += decoder::decoderKindName(decoder::resolveDecoderKind(kind));
    key += ";wordBackend=";
    key += wordBackendName(resolveWordBackend(backend));
    return key;
}

/** resolve(), with a FatalError from it rethrown as the
 *  EnvironmentError it is: everything it resolves comes from the
 *  environment, since the request was read before. */
template <class Resolve>
std::string
fromEnvironment(Resolve &&resolve)
{
    try {
        return resolve();
    } catch (const FatalError &e) {
        throw EnvironmentError(e.what());
    }
}

class McLogicalErrorEstimator : public Estimator
{
  public:
    explicit McLogicalErrorEstimator(const McSimSpec &base)
        : base_(base)
    {}

    const char *kind() const override { return "mc-logical-error"; }

    /** The key adds the resolved engine state and the predecode
     *  switch, which the predecodedPairs metric reports. */
    std::string checkParams(const EstimateRequest &req) const override
    {
        const McSimSpec spec = specFor(req.params);
        return canonicalKey(req) + fromEnvironment([&] {
                   return resolvedEngineKey(spec.mc.decoder,
                                            spec.mc.wordBackend) +
                          (decoder::resolvePredecode(spec.mc.predecode)
                               ? ";predecode=1"
                               : ";predecode=0");
               });
    }

    EstimateResult estimate(const EstimateRequest &req) const override
    {
        const McSimSpec spec = specFor(req.params);
        const auto noise = codes::NoiseParams::uniform(spec.pPhys);
        const bool isCnot = spec.cnotLayers > 0;
        codes::Experiment exp;
        int seRounds = 0;
        double x = 0.0;
        if (isCnot) {
            codes::TransversalCnotSpec cnot;
            cnot.distance = spec.distance;
            cnot.cnotLayers = spec.cnotLayers;
            cnot.cnotsPerBatch = spec.cnotsPerBatch;
            cnot.seRoundsPerBatch = spec.seRoundsPerBatch;
            cnot.noise = noise;
            exp = codes::buildTransversalCnot(cnot);
            const int blocks =
                (spec.cnotLayers + spec.cnotsPerBatch - 1) /
                spec.cnotsPerBatch;
            seRounds = blocks * spec.seRoundsPerBatch;
            x = static_cast<double>(spec.cnotsPerBatch) /
                spec.seRoundsPerBatch;
        } else {
            const int rounds =
                spec.rounds > 0 ? spec.rounds : spec.distance;
            codes::SurfaceCode sc(spec.distance);
            exp = codes::buildMemory(sc, 'Z', rounds, noise);
            seRounds = rounds;
        }

        const decoder::McResult res =
            decoder::runMonteCarlo(exp, spec.mc);

        EstimateResult out;
        out.kind = kind();
        out.params = req.params;
        out.metrics = {
            {"pLogical", res.anyObservable.mean},
            {"pLogicalLo", res.anyObservable.lo},
            {"pLogicalHi", res.anyObservable.hi},
            {"hits", static_cast<double>(res.anyObservable.hits)},
            {"shots", static_cast<double>(res.shots)},
            {"seRounds", static_cast<double>(seRounds)},
            {"pPerRound",
             seRounds ? res.anyObservable.mean / seRounds : 0.0},
            {"avgDefects", res.avgDefects},
            {"wordLanes", static_cast<double>(res.wordLanes)},
            {"predecodedPairs",
             static_cast<double>(res.predecodedPairs)},
        };
        if (isCnot) {
            out.metrics["x"] = x;
            out.metrics["pPerCnot"] =
                res.anyObservable.mean / spec.cnotLayers;
        }
        if (!spec.mc.noiseSpec.empty()) {
            out.metrics["heraldedShots"] =
                static_cast<double>(res.heraldedShots);
            out.metrics["heraldRate"] =
                res.shots ? static_cast<double>(res.heraldedShots) /
                                res.shots
                          : 0.0;
        }
        return out;
    }

  private:
    /** Spec application + validity checks, shared with checkParams.
     *  Builds the noise stack too, so unknown source and parameter
     *  names fail here rather than in a worker. */
    McSimSpec specFor(const ParamMap &params) const
    {
        const McSimSpec spec = readParams(
            params, kind(), base_, [](ParamReader &r, McSimSpec &s) {
                r.integer("distance", s.distance);
                r.real("p", s.pPhys);
                r.integer("rounds", s.rounds, 0);
                r.integer("cnotLayers", s.cnotLayers, 0);
                r.integer("cnotsPerBatch", s.cnotsPerBatch);
                r.integer("seRoundsPerBatch", s.seRoundsPerBatch);
                r.count("shots", s.mc.shots);
                r.integer("seed", s.mc.seed);
                r.count("mcThreads", s.mc.threads);
                r.integer("predecode", s.mc.predecode);
                r.integer("globalMemo", s.mc.globalMemo);
                r.integer("compileCache", s.mc.compileCache);
                r.flag("erasureAware", s.mc.erasureAware);
                r.prefixed("noise.", "noise.<source>.<param>",
                           [&](const std::string &key, double v) {
                               s.mc.noiseSpec.setFlat(key, v);
                           });
            });
        TRAQ_REQUIRE(spec.distance >= 3 && spec.distance % 2 == 1,
                     "mc-logical-error needs an odd distance >= 3");
        TRAQ_REQUIRE(spec.mc.shots > 0,
                     "mc-logical-error needs shots > 0");
        (void)noise::NoiseModel::fromSpec(spec.mc.noiseSpec);
        return spec;
    }

    McSimSpec base_;
};

class McAlphaEstimator : public Estimator
{
  public:
    explicit McAlphaEstimator(const McAlphaSpec &base) : base_(base)
    {}

    const char *kind() const override { return "mc-alpha"; }

    EstimateResult estimate(const EstimateRequest &req) const override
    {
        const McAlphaSpec spec = specFor(req.params);
        const int cnotDMax = std::max(spec.cnotDMax, spec.dMin);

        std::vector<double> distances;
        for (int d = spec.dMin; d <= spec.dMax; d += 2)
            distances.push_back(d);
        std::vector<double> cnotDistances;
        for (int d = spec.dMin; d <= cnotDMax; d += 2)
            cnotDistances.push_back(d);
        std::vector<double> xs;
        // x beyond the total layer count would mislabel the density.
        for (int xi = 1; xi <= spec.xMax && xi <= spec.cnotLayers;
             xi *= 2)
            xs.push_back(xi);

        McSimSpec mcBase;
        mcBase.pPhys = spec.pPhys;
        mcBase.mc.shots = spec.shots;
        mcBase.mc.seed = spec.seed;
        mcBase.mc.threads = spec.mcThreads;
        mcBase.mc.decoder = spec.decoder;
        const std::shared_ptr<const Estimator> mc =
            makeMcLogicalErrorEstimator(mcBase);

        SweepOptions sweepOpts;
        sweepOpts.threads = spec.sweepThreads;

        // Memory anchors: the x -> 0 limit of Eq. (4) pins Lambda.
        SweepRunner memory(mc,
                           EstimateRequest{"mc-logical-error", {}},
                           sweepOpts);
        memory.addAxis("distance", distances);

        // CNOT grid over (distance, x) at fixed total CX layers.
        SweepRunner cnot(
            mc,
            EstimateRequest{
                "mc-logical-error",
                {{"cnotLayers",
                  static_cast<double>(spec.cnotLayers)}}},
            sweepOpts);
        cnot.addAxis("distance", cnotDistances);
        cnot.addAxis("cnotsPerBatch", xs);

        // The grids are independent until the fit, so run their
        // concatenated job lists on one worker pool instead of two
        // barriered sweeps; Lambda is read back from the memory
        // slice afterwards.
        std::vector<EstimateRequest> jobs;
        jobs.reserve(memory.numJobs() + cnot.numJobs());
        for (std::size_t j = 0; j < memory.numJobs(); ++j)
            jobs.push_back(memory.request(j));
        for (std::size_t j = 0; j < cnot.numJobs(); ++j)
            jobs.push_back(cnot.request(j));
        const SweepResult all = runRequests(*mc, jobs, sweepOpts);
        const std::size_t numMem = memory.numJobs();
        const auto memBegin = all.results.begin();
        const std::vector<EstimateResult>
            memResults(memBegin, memBegin + numMem),
            gridResults(memBegin + numMem, all.results.end());

        double lambda = spec.fixLambda;
        if (lambda <= 0.0) {
            // Eq. (2): consecutive odd distances suppress per-round
            // error by Lambda; chain the pairwise estimates via the
            // geometric mean (endpoints ratio ^ 1/pairs).
            const double first =
                memResults.front().metric("pPerRound");
            const double last =
                memResults.back().metric("pPerRound");
            const auto pairs = static_cast<double>(
                distances.size() - 1);
            TRAQ_REQUIRE(pairs >= 1.0,
                         "mc-alpha needs >= 2 distances to "
                         "estimate Lambda");
            lambda = std::pow(
                model::lambdaFromMemoryPair(first, last),
                1.0 / pairs);
        }

        std::vector<model::CnotDataPoint> data;
        std::uint64_t totalShots = 0;
        for (const EstimateResult &r : memResults)
            totalShots += static_cast<std::uint64_t>(
                r.metric("shots"));
        for (const EstimateResult &r : gridResults) {
            totalShots += static_cast<std::uint64_t>(
                r.metric("shots"));
            if (r.metric("hits") == 0.0)
                continue; // log-fit cannot use zero-failure points
            model::CnotDataPoint pt;
            pt.d = static_cast<int>(r.params.at("distance"));
            pt.x = r.metric("x");
            pt.pL = r.metric("pPerCnot");
            data.push_back(pt);
        }
        TRAQ_REQUIRE(data.size() >= 3,
                     "mc-alpha: too few grid points with observed "
                     "failures; raise shots or p");

        model::CnotFitOptions fitOpts;
        fitOpts.fixLambda = lambda;
        const model::CnotFit fit =
            model::fitCnotAnsatz(data, fitOpts);

        EstimateResult out;
        out.kind = kind();
        out.params = req.params;
        out.feasible = fit.alpha > 0.0 && fit.prefactorC > 0.0;
        out.metrics = {
            {"alpha", fit.alpha},
            {"prefactorC", fit.prefactorC},
            {"lambda", fit.lambda},
            {"rmsLogResidual", fit.rmsLogResidual},
            {"dataPoints", static_cast<double>(data.size())},
            {"totalShots", static_cast<double>(totalShots)},
        };
        return out;
    }

    /** Every grid point runs under the same resolved engine state,
     *  which the key adds. */
    std::string checkParams(const EstimateRequest &req) const override
    {
        const McAlphaSpec spec = specFor(req.params);
        return canonicalKey(req) + fromEnvironment([&] {
                   return resolvedEngineKey(spec.decoder,
                                            WordBackend::Auto);
               });
    }

  private:
    /** Spec application + validity checks, shared with checkParams. */
    McAlphaSpec specFor(const ParamMap &params) const
    {
        const McAlphaSpec spec = readParams(
            params, kind(), base_, [](ParamReader &r, McAlphaSpec &s) {
                r.real("p", s.pPhys);
                r.count("shots", s.shots);
                r.integer("seed", s.seed);
                r.integer("dMin", s.dMin);
                r.integer("dMax", s.dMax);
                r.integer("cnotDMax", s.cnotDMax);
                r.integer("cnotLayers", s.cnotLayers);
                r.integer("xMax", s.xMax);
                r.real("fixLambda", s.fixLambda);
                // 0 = auto (TRAQ_THREADS / hardware).
                r.integer("sweepThreads", s.sweepThreads);
                r.count("mcThreads", s.mcThreads);
            });
        TRAQ_REQUIRE(spec.dMin >= 3 && spec.dMin % 2 == 1 &&
                         spec.dMax >= spec.dMin,
                     "mc-alpha needs odd distances with "
                     "3 <= dMin <= dMax");
        TRAQ_REQUIRE(spec.cnotLayers > 0 && spec.xMax >= 1,
                     "mc-alpha needs cnotLayers > 0 and xMax >= 1");
        return spec;
    }

    McAlphaSpec base_;
};

} // namespace

std::unique_ptr<Estimator>
makeMcLogicalErrorEstimator(const McSimSpec &base)
{
    return std::make_unique<McLogicalErrorEstimator>(base);
}

std::unique_ptr<Estimator>
makeMcAlphaEstimator(const McAlphaSpec &base)
{
    return std::make_unique<McAlphaEstimator>(base);
}

} // namespace traq::est
