/**
 * @file
 * Simulation cross-check of the logical error model (supports
 * Fig. 6(a)): run our own circuit-level Monte Carlo on surface-code
 * memory and transversal-CNOT circuits, decode with exact matching
 * (union-find fallback), and compare against the Eq. (2)/(4) shapes.
 *
 * Absolute rates differ from the paper's MLE-decoder calibration (a
 * matching decoder has a lower threshold), which is exactly the
 * "decoding factor" sensitivity the paper explores via alpha; what
 * must reproduce is the structure: error suppression with d, and
 * elevation of the per-round error with CNOT density at fixed d.
 *
 * Also benchmarks the frame-sampler word backends (portable 64-bit
 * vs 8-lane wide512 bit-planes, common/word.hh), the Monte-Carlo
 * engine as it ships (one 1-thread MonteCarloEngine::run per memory
 * fixture with default options: shots/s plus the
 * "decode-memo-hit-rate[...]" / "cross-batch-memo-hit-rate[...]"
 * lines), the backward-sweep DEM builder against the forward
 * reference builder on the d=7 benchmark circuits
 * ("dem-build-speedup[...]"), the compiled-artifact cache over a
 * SweepRunner seed grid ("compile-cache-speedup[...]"), and the
 * sharded engine's thread scaling; the final
 * "parallel-efficiency@4" line is consumed by
 * scripts/perf_smoke.sh.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/common/table.hh"
#include "src/common/word.hh"
#include "src/decoder/compile_cache.hh"
#include "src/decoder/global_memo.hh"
#include "src/decoder/monte_carlo.hh"
#include "src/estimator/estimator.hh"
#include "src/estimator/sweep.hh"
#include "src/noise/noise.hh"
#include "src/sim/dem.hh"
#include "src/sim/frame.hh"

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Raw sampler throughput for one backend: sampleInto +
 * extractSyndromeBlock (no decoding), the exact per-batch work the
 * Monte-Carlo engine performs before handing shots to the decoder.
 */
double
samplerShotsPerSec(const traq::codes::Experiment &e, unsigned lanes,
                   std::uint64_t shots)
{
    using namespace traq;
    sim::FrameSimulator fs(1234, lanes);
    sim::FrameBatch batch;
    sim::SyndromeBlock block;
    std::vector<std::uint64_t> live(lanes, ~0ULL);
    // Warm allocations outside the timed window.
    fs.sampleInto(e.circuit, batch);
    sim::extractSyndromeBlock(batch, live, block);
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t done = 0;
    while (done < shots) {
        fs.sampleInto(e.circuit, batch);
        sim::extractSyndromeBlock(batch, live, block);
        done += batch.shots();
    }
    return static_cast<double>(done) / secondsSince(t0);
}

} // namespace

int
main()
{
    using namespace traq;
    const double p = 0.003;
    decoder::McOptions opts;
    opts.shots = 20000;
    opts.seed = 20250521;

    std::printf("=== Memory: logical error per round vs distance "
                "(p = %.1e) ===\n\n", p);
    Table t({"d", "rounds", "pL(circuit)", "pL/round",
             "suppression vs d-2"});
    double prev = 0.0;
    for (int d : {3, 5}) {
        codes::SurfaceCode sc(d);
        auto e = codes::buildMemory(sc, 'Z', d,
                                    codes::NoiseParams::uniform(p));
        auto res = decoder::runMonteCarlo(e, opts);
        double perRound = res.perObservable[0].mean / d;
        t.addRow({std::to_string(d), std::to_string(d),
                  fmtE(res.perObservable[0].mean, 2),
                  fmtE(perRound, 2),
                  prev > 0 ? fmtF(prev / perRound, 1) + "x" : "-"});
        prev = perRound;
    }
    t.print();

    std::printf("\n=== Transversal CNOTs: per-round error vs CNOT "
                "density (d=3, p = %.1e) ===\n\n", p);
    Table c({"CNOTs per SE round (x)", "SE blocks",
             "pL(circuit)", "pL per SE round"});
    for (int perBatch : {1, 2, 4}) {
        codes::TransversalCnotSpec spec;
        spec.distance = 3;
        spec.cnotLayers = 8;
        spec.cnotsPerBatch = perBatch;
        spec.seRoundsPerBatch = 1;
        spec.noise = codes::NoiseParams::uniform(p);
        auto e = codes::buildTransversalCnot(spec);
        auto res = decoder::runMonteCarlo(e, opts);
        int seBlocks = 8 / perBatch;
        c.addRow({std::to_string(perBatch),
                  std::to_string(seBlocks),
                  fmtE(res.anyObservable.mean, 2),
                  fmtE(res.anyObservable.mean / seBlocks, 2)});
    }
    c.print();
    std::printf("\n(Eq. (4): per-round error scales like "
                "(1 + alpha x); total error still drops with x "
                "below threshold)\n");

    std::printf("\n=== Sampler word backends: d=5 memory, "
                "sample+extract (no decode) ===\n\n");
    {
        codes::SurfaceCode sc5(5);
        auto e5 = codes::buildMemory(
            sc5, 'Z', 5, codes::NoiseParams::uniform(1e-3));
        const std::uint64_t shots = 1 << 21;
        Table b({"backend", "lanes", "shots/s", "speedup"});
        const double scalarRate = samplerShotsPerSec(e5, 1, shots);
        b.addRow({wordBackendName(WordBackend::Scalar64), "1",
                  fmtE(scalarRate, 2), "1.00x"});
        const double wide512Rate =
            samplerShotsPerSec(e5, kWide512WordLanes, shots);
        b.addRow({wordBackendName(WordBackend::Wide512),
                  std::to_string(kWide512WordLanes),
                  fmtE(wide512Rate, 2),
                  fmtF(wide512Rate / scalarRate, 2) + "x"});
        b.print();
        std::printf("\nwide512-vs-scalar64 sampler speedup: %.2fx "
                    "(target >= 2x)\n", wide512Rate / scalarRate);
    }

    std::printf("\n=== Engine: sample + extract + decode, 1 thread, "
                "default options (p = 1e-3) ===\n\n");
    {
        Table h({"config", "lanes", "shots", "shots/s"});
        for (int d : {3, 5}) {
            codes::SurfaceCode sc(d);
            auto e = codes::buildMemory(
                sc, 'Z', d, codes::NoiseParams::uniform(1e-3));
            decoder::McOptions mc;
            mc.shots = d == 3 ? 1 << 17 : 1 << 16;
            mc.threads = 1;
            // Graph construction stays outside the timed window.
            decoder::MonteCarloEngine engine(e, mc);
            // Start from an empty global tier so the hit rates measure
            // this run, not whatever main() decoded earlier.
            decoder::GlobalDecodeMemo::instance().clear();
            const auto t0 = std::chrono::steady_clock::now();
            const auto res = engine.run(mc);
            const double rate =
                static_cast<double>(res.shots) / secondsSince(t0);
            const std::string cfg = "memory d=" + std::to_string(d);
            h.addRow({cfg, std::to_string(res.wordLanes),
                      std::to_string(res.shots), fmtE(rate, 2)});
            // "cross-batch-memo-hit-rate" counts the shots served
            // without a decoder call once the process-global tier
            // joins in, so it is >= the per-batch rate.
            const double shots = static_cast<double>(res.shots);
            const double memoRate = res.memoHits / shots;
            std::printf("decode-memo-hit-rate[%s]: %.3f\n", cfg.c_str(),
                        memoRate);
            std::printf("cross-batch-memo-hit-rate[%s]: %.3f (per-batch "
                        "%.3f + process-global tier)\n",
                        cfg.c_str(),
                        (res.memoHits + res.crossBatchHits) / shots,
                        memoRate);
        }
        std::printf("\n");
        h.print();
    }

    std::printf("\n=== DEM build: backward sweep vs forward reference, "
                "d=7 benchmark circuits ===\n\n");
    {
        // Both builders run on the same circuit in this process, so
        // the ratio is a same-run comparison, not a stored number.
        // Each side is the median of three builds.
        auto medianMs = [](auto &&build) {
            double ms[3];
            for (double &m : ms) {
                const auto t0 = std::chrono::steady_clock::now();
                build();
                m = secondsSince(t0) * 1e3;
            }
            std::sort(std::begin(ms), std::end(ms));
            return ms[1];
        };
        const auto uniform = codes::NoiseParams::uniform(1e-3);
        codes::SurfaceCode sc7(7);
        codes::TransversalCnotSpec cnot;
        cnot.distance = 7;
        cnot.cnotLayers = 8;
        cnot.cnotsPerBatch = 2;
        cnot.noise = uniform;
        noise::NoiseSpec loss;
        loss.setFlat("noise.atom-loss.p", 0.002);
        const std::pair<const char *, sim::Circuit> fixtures[] = {
            {"memory d=7",
             codes::buildMemory(sc7, 'Z', 7, uniform).circuit},
            {"cnot-loss d=7",
             noise::NoiseModel::fromSpec(loss).compile(
                 codes::buildTransversalCnot(cnot).circuit)},
        };
        for (const auto &[name, circuit] : fixtures) {
            sim::DetectorErrorModel ref, fast;
            const double refMs = medianMs(
                [&] { ref = sim::buildDemReference(circuit); });
            const double fastMs =
                medianMs([&] { fast = sim::buildDem(circuit); });
            TRAQ_REQUIRE(fast == ref,
                         "buildDem differs from buildDemReference");
            std::printf("dem-build-speedup[%s]: %.2fx (reference "
                        "%.1f ms vs backward %.2f ms)\n",
                        name, refMs / fastMs, refMs, fastMs);
        }
    }

    std::printf("\n=== Compile cache: SweepRunner seed grid over a "
                "shared d=5 memory circuit (caching tier 2) "
                "===\n\n");
    {
        // Every job shares one circuit and differs only in the RNG
        // seed — the "more statistics" grid a sweep user actually
        // runs.  With the compiled-artifact cache off each job pays
        // Circuit -> DEM -> DecodeGraph compilation again; with it
        // on, the grid compiles once.  The global syndrome memo is
        // pinned off on both sides so only tier 2 differs, and the
        // cache is cleared before each pass so neither inherits the
        // other's artifacts.
        est::EstimateRequest base;
        base.kind = "mc-logical-error";
        base.params = {{"distance", 5},
                       {"shots", 256},
                       {"globalMemo", 0}};
        std::vector<double> seeds;
        for (int i = 0; i < 24; ++i)
            seeds.push_back(4000.0 + i);
        auto sweepSeconds = [&](double compileCache) {
            decoder::clearCompileCache();
            est::EstimateRequest req = base;
            req.params["compileCache"] = compileCache;
            est::SweepOptions so;
            so.threads = 1;
            est::SweepRunner runner(req, so);
            runner.addAxis("seed", seeds);
            const auto t0 = std::chrono::steady_clock::now();
            const auto res = runner.run();
            const double sec = secondsSince(t0);
            TRAQ_REQUIRE(res.results.size() == seeds.size(),
                         "compile-cache sweep lost jobs");
            return sec;
        };
        sweepSeconds(1.0);  // warm one-time registry/alloc costs
        const double off = sweepSeconds(0.0);
        const double on = sweepSeconds(1.0);
        std::printf("compile-cache-speedup[mc-sweep d=5]: %.2fx "
                    "(cache-off %.3f s vs cache-on %.3f s over %zu "
                    "seed jobs; target >= 1.2x)\n",
                    off / on, off, on, seeds.size());
    }

    std::printf("\n=== Engine scaling: d=5 memory, sharded "
                "multithreaded decode ===\n\n");
    Table s({"threads", "shots/s", "speedup", "pL", "failures"});
    codes::SurfaceCode sc5(5);
    auto e5 = codes::buildMemory(sc5, 'Z', 5,
                                 codes::NoiseParams::uniform(p));
    decoder::McOptions scal = opts;
    scal.shots = 40000;
    // Graph construction happens once, outside the timed window, so
    // the table measures sampling+decoding throughput only.
    decoder::MonteCarloEngine engine(e5, scal);
    double baseRate = 0.0;
    double rate4 = 0.0;
    for (unsigned threads : {1u, 2u, 4u}) {
        scal.threads = threads;
        // Every row replays the same seed on the same engine: start
        // each from an empty process-global memo, or the later rows
        // would read the syndromes the earlier ones cached and
        // parallel-efficiency@4 would measure cache warmth.
        decoder::GlobalDecodeMemo::instance().clear();
        auto t0 = std::chrono::steady_clock::now();
        auto res = engine.run(scal);
        double rate = static_cast<double>(res.shots) /
                      secondsSince(t0);
        if (threads == 1)
            baseRate = rate;
        if (threads == 4)
            rate4 = rate;
        s.addRow({std::to_string(threads), fmtE(rate, 2),
                  fmtF(rate / baseRate, 2) + "x",
                  fmtE(res.perObservable[0].mean, 2),
                  std::to_string(res.perObservable[0].hits)});
    }
    s.print();
    std::printf("\n(failure counts are bit-identical across thread "
                "counts: shard i always samples RNG stream "
                "(seed, i))\n");
    // Machine-readable: scripts/perf_smoke.sh gates on this.
    std::printf("parallel-efficiency@4: %.3f\n",
                baseRate > 0 ? rate4 / (4.0 * baseRate) : 0.0);
    return 0;
}
