/**
 * @file
 * Decoder throughput/latency bench, supporting the paper's
 * decoding-complexity discussion (Sec. III.4): correlated decoding
 * enlarges the decoding problem, and the real-time budget of Table I
 * allows roughly 500 us of decode per QEC round, so per-round decode
 * latency is the figure of merit — especially for the windowed
 * streaming decoder, whose whole point is bounded per-round work.
 *
 * Every registered DecoderKind is timed on the same pre-sampled
 * syndromes (memory and two-patch transversal-CNOT circuits at
 * p = 1e-3, d = 3, 5, 7), and each kind gets machine-readable
 *
 *     decode-latency[<kind>]: <us> us/round <PASS|WARN> (budget 500)
 *     decode-latency[<kind>@d7]: ...
 *
 * lines on the joint CNOT fixtures (d=5 unsuffixed, d=7 with the
 * "@d7" suffix), which scripts/perf_smoke.sh archives into the CI
 * perf-history artifact.  A third set,
 *
 *     decode-latency[<kind>@loss-d7]: ...
 *
 * times heralded decodes: the lossy d=7 transversal-CNOT circuit of
 * perfbench's mc-cnot-loss workload (atom loss 0.002, erasure-aware),
 * every shot packed with its fired heralds so each heralded shot
 * decodes under its herald-zeroed weights, as in the Monte-Carlo
 * engine.  Most of those shots are above the MWPM cap, so bare mwpm
 * (which refuses them) gets no line there.
 * Each kind is timed four ways on the same accepted shots: the
 * per-shot decodeSpan() loop, one decodeBatchSorted() call with the memo
 * off over the packed CSR syndromes (MWPM reach cache on — the
 * default — and off, so the "no cache" column isolates the
 * Dijkstra-sharing win), and the same call with the predecode
 * pair-peeler enabled (the "<kind>+batch+predecode" budget lines).
 * WARN rather than FAIL: CI machine classes vary, and the tripwire
 * for gross regressions is the wall-clock baseline in
 * bench/perf_baseline.txt.
 */

#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/common/table.hh"
#include "src/common/word.hh"
#include "src/decoder/compile_cache.hh"
#include "src/decoder/decoder.hh"
#include "src/noise/noise.hh"
#include "src/sim/dem.hh"
#include "src/sim/frame.hh"

namespace {

using namespace traq;

constexpr double kBudgetUsPerRound = 500.0;  // Table I decode slot

struct Fixture
{
    std::string label;
    codes::Experiment exp;
    decoder::DecodeGraph graph;
    int rounds = 1;
    std::vector<std::vector<std::uint32_t>> syndromes;

    Fixture(std::string name, codes::Experiment e,
            std::size_t shots)
        : label(std::move(name)), exp(std::move(e)),
          graph(decoder::DecodeGraph::build(exp))
    {
        rounds = graph.numRounds();
        sim::FrameSimulator fs(7);
        sim::FrameBatch batch;
        sim::SyndromeBlock block;
        const std::uint64_t live = ~0ULL;
        while (syndromes.size() < shots) {
            fs.sampleInto(exp.circuit, batch);
            sim::extractSyndromeBlock(batch, {&live, 1}, block);
            for (std::uint64_t s = 0; s < block.shots(); ++s) {
                const auto syn = block.syndrome(s);
                syndromes.emplace_back(syn.begin(), syn.end());
            }
        }
        syndromes.resize(shots);
    }

    static codes::Experiment
    makeMemory(int d)
    {
        codes::SurfaceCode sc(d);
        return codes::buildMemory(
            sc, 'Z', d, codes::NoiseParams::uniform(1e-3));
    }

    static codes::Experiment
    makeCnot(int d)
    {
        codes::TransversalCnotSpec spec;
        spec.distance = d;
        spec.cnotLayers = 4;
        spec.noise = codes::NoiseParams::uniform(1e-3);
        return codes::buildTransversalCnot(spec);
    }
};

/**
 * CSR view over a subset of a fixture's pre-sampled syndromes, and
 * over their fired heralds when graph is set.
 */
struct BatchStorage
{
    std::vector<std::uint32_t> offsets{0};
    std::vector<std::uint32_t> defects;
    std::vector<std::uint32_t> heraldOffsets{0};
    std::vector<std::uint32_t> heraldIds;
    /** Graph the herald ids index; null for a clean batch. */
    const decoder::DecodeGraph *graph = nullptr;
    std::size_t shots = 0;

    void
    add(std::span<const std::uint32_t> syn,
        std::span<const std::uint32_t> heralds = {})
    {
        defects.insert(defects.end(), syn.begin(), syn.end());
        offsets.push_back(
            static_cast<std::uint32_t>(defects.size()));
        heraldIds.insert(heraldIds.end(), heralds.begin(),
                         heralds.end());
        heraldOffsets.push_back(
            static_cast<std::uint32_t>(heraldIds.size()));
        ++shots;
    }

    decoder::SyndromeBatch
    view() const
    {
        decoder::SyndromeBatch b;
        b.offsets = offsets;
        b.defects = defects;
        if (graph) {
            b.heraldOffsets = heraldOffsets;
            b.heraldIds = heraldIds;
            b.graph = graph;
        }
        return b;
    }
};

/**
 * perfbench's mc-cnot-loss circuit: 8 CX layers, 2 per SE block,
 * p = 1e-3, atom loss 0.002, compiled through compileDecodeSetup.
 * Every sampled shot is packed with its fired heralds.
 */
struct LossFixture
{
    std::shared_ptr<const decoder::CompiledDecodeSetup> setup;
    BatchStorage batch;
    int rounds = 1;

    LossFixture(int d, std::size_t shots)
    {
        codes::TransversalCnotSpec spec;
        spec.distance = d;
        spec.cnotLayers = 8;
        spec.cnotsPerBatch = 2;
        spec.noise = codes::NoiseParams::uniform(1e-3);
        noise::NoiseSpec ns;
        ns.setFlat("noise.atom-loss.p", 0.002);
        setup = decoder::compileDecodeSetup(
            codes::buildTransversalCnot(spec), ns, /*useCache=*/false);
        rounds = setup->graph.numRounds();
        batch.graph = &setup->graph;
        sim::FrameSimulator fs(7);
        sim::FrameBatch frames;
        sim::SyndromeBlock block;
        const std::uint64_t live = ~0ULL;
        while (batch.shots < shots) {
            fs.sampleInto(*setup->compiled, frames);
            sim::extractSyndromeBlock(frames, {&live, 1}, block);
            for (std::uint64_t s = 0;
                 s < block.shots() && batch.shots < shots; ++s)
                batch.add(block.syndrome(s), block.heralds(s));
        }
    }
};

/**
 * Mean decode time per shot, in microseconds.  Kinds that refuse a
 * syndrome (bare MWPM above its defect cap) have it skipped and
 * counted; the mean is over decoded shots.  When `batch` is given,
 * the accepted shots are also packed into it so the batch timing
 * below decodes exactly the same work.
 */
double
usPerShot(decoder::Decoder &dec, const Fixture &f,
          std::size_t *skipped, BatchStorage *batch = nullptr)
{
    // One warmup pass so lazily-sized scratch does not bill the
    // timed pass (and so refusals are discovered outside it).
    std::vector<const std::vector<std::uint32_t> *> accepted;
    for (const auto &syn : f.syndromes) {
        try {
            dec.decodeSpan(syn);
            accepted.push_back(&syn);
            if (batch)
                batch->add(syn);
        } catch (const FatalError &) {
        }
    }
    *skipped = f.syndromes.size() - accepted.size();
    if (accepted.empty())
        return 0.0;
    // Warmup decodes would otherwise double the fallback counts
    // reported next to the timings.
    dec.reset();
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto *syn : accepted)
        dec.decodeSpan(*syn);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return 1e6 * secs / static_cast<double>(accepted.size());
}

/**
 * Mean decodeBatchSorted time per shot with the memo off, in
 * microseconds: one call over the packed CSR syndromes — the shape
 * MonteCarloEngine feeds decoders — decoding every shot in ascending
 * defect-count order, so the delta vs usPerShot is the per-shot
 * vector copy plus the sort's warm-arena effect (plus the predecode
 * win when enabled).
 */
double
usPerShotBatch(decoder::Decoder &dec, const BatchStorage &batch,
               std::vector<std::uint32_t> &out)
{
    if (batch.shots == 0)
        return 0.0;
    out.resize(batch.shots);
    const decoder::SyndromeBatch view = batch.view();
    decoder::BatchDecodeScratch scratch;
    decoder::decodeBatchSorted(dec, view, out, scratch, false);  // warm
    dec.reset();
    const auto t0 = std::chrono::steady_clock::now();
    decoder::decodeBatchSorted(dec, view, out, scratch, false);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return 1e6 * secs / static_cast<double>(batch.shots);
}

} // namespace

int
main()
{
    using namespace traq;
    std::printf("=== Decoder throughput: all registered kinds, "
                "p = 1e-3 ===\n\n");
    // Dispatch level the sampler kernels run at while pre-sampling
    // the fixtures (decoders themselves are scalar code).
    std::printf("cpu-dispatch: %s\n\n",
                cpuDispatchName(resolveCpuDispatch(CpuDispatch::Auto)));

    std::vector<Fixture> fixtures;
    fixtures.emplace_back("memory d=3", Fixture::makeMemory(3), 512);
    fixtures.emplace_back("memory d=5", Fixture::makeMemory(5), 512);
    fixtures.emplace_back("memory d=7", Fixture::makeMemory(7), 128);
    fixtures.emplace_back("cnot d=3", Fixture::makeCnot(3), 512);
    fixtures.emplace_back("cnot d=5", Fixture::makeCnot(5), 256);
    fixtures.emplace_back("cnot d=7", Fixture::makeCnot(7), 64);
    // Budget-line fixtures and the suffix of their line names.
    const std::pair<const Fixture *, const char *> budgetFixtures[] = {
        {&fixtures[4], ""}, {&fixtures[5], "@d7"}};

    Table t({"circuit", "decoder", "us/shot", "batch us/shot",
             "no cache", "+predecode", "peeled", "us/round",
             "fallbacks", "skipped"});
    std::vector<std::pair<std::string, double>> budgetLines[2];
    std::vector<std::uint32_t> out;
    for (const Fixture &f : fixtures) {
        for (decoder::DecoderKind kind :
             decoder::registeredDecoderKinds()) {
            auto dec = decoder::makeDecoder(kind, f.graph);
            std::size_t skipped = 0;
            BatchStorage batch;
            const double us = usPerShot(*dec, f, &skipped, &batch);
            const double usRound = us / f.rounds;
            // Same accepted shots, batched: first through plain
            // decodeBatchSorted (memo off), then with the predecode
            // peeler in front of the matcher.
            dec->reset();
            const double usBatch = usPerShotBatch(*dec, batch, out);
            // Reach cache forced off: the delta vs "batch us/shot"
            // (cache on by default) is the Dijkstra-sharing win.
            decoder::DecoderConfig noCacheCfg;
            noCacheCfg.reachCache = 0;
            auto decNoCache =
                decoder::makeDecoder(kind, f.graph, noCacheCfg);
            const double usNoCache =
                usPerShotBatch(*decNoCache, batch, out);
            decoder::DecoderConfig preCfg;
            preCfg.predecode = 1;
            auto decPre =
                decoder::makeDecoder(kind, f.graph, preCfg);
            const double usPre = usPerShotBatch(*decPre, batch, out);
            t.addRow({f.label, decoder::decoderKindName(kind),
                      fmtF(us, 1), fmtF(usBatch, 1),
                      fmtF(usNoCache, 1), fmtF(usPre, 1),
                      std::to_string(decPre->predecodedPairs()),
                      fmtF(usRound, 2),
                      std::to_string(dec->fallbacks()),
                      std::to_string(skipped)});
            for (int b = 0; b < 2; ++b) {
                if (&f != budgetFixtures[b].first)
                    continue;
                const std::string name =
                    decoder::decoderKindName(kind);
                const char *suffix = budgetFixtures[b].second;
                budgetLines[b].emplace_back(name + suffix, usRound);
                budgetLines[b].emplace_back(
                    name + "+batch+predecode" + suffix,
                    usPre / f.rounds);
            }
        }
    }
    t.print();

    // Heralded decodes, memo off.  Bare mwpm refuses the above-cap
    // shots, which are most of this fixture.
    const LossFixture loss(7, 512);
    std::vector<std::pair<std::string, double>> lossLines;
    for (decoder::DecoderKind kind :
         decoder::registeredDecoderKinds()) {
        if (kind == decoder::DecoderKind::Mwpm)
            continue;
        auto dec = decoder::makeDecoder(kind, loss.setup->graph);
        const double us = usPerShotBatch(*dec, loss.batch, out);
        lossLines.emplace_back(
            std::string(decoder::decoderKindName(kind)) + "@loss-d7",
            us / loss.rounds);
    }

    auto printBudgetLines =
        [](const std::vector<std::pair<std::string, double>> &lines) {
            for (const auto &[name, usRound] : lines) {
                std::printf(
                    "decode-latency[%s]: %.2f us/round %s "
                    "(budget %g)\n",
                    name.c_str(), usRound,
                    usRound <= kBudgetUsPerRound ? "PASS" : "WARN",
                    kBudgetUsPerRound);
            }
        };
    for (int b = 0; b < 2; ++b) {
        const Fixture &f = *budgetFixtures[b].first;
        std::printf("\n(per-round latency on %s over %d rounds, vs "
                    "the ~%g us Table I decode budget)\n",
                    f.label.c_str(), f.rounds, kBudgetUsPerRound);
        printBudgetLines(budgetLines[b]);
    }
    std::printf("\n(per-round latency on %zu lossy cnot d=7 shots over "
                "%d rounds, heralded shots decoded under their "
                "herald-zeroed weights, vs the ~%g us Table I decode "
                "budget)\n",
                loss.batch.shots, loss.rounds, kBudgetUsPerRound);
    printBudgetLines(lossLines);
    return 0;
}
