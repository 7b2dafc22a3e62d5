/**
 * @file
 * Batch-decode and predecode identity tests.
 *
 * The two hot-path additions must be invisible to results:
 *
 *  - decodeBatchSorted (memo off) over a CSR SyndromeBatch must
 *    equal per-shot decodeSpan() for every registered decoder kind
 *    on simulator-sampled syndromes (bit identity, not statistics).
 *  - The predecode fast path (peeling isolated adjacent defect
 *    pairs) must produce corrections identical to predecode-off for
 *    every kind, on randomized syndromes and through the full
 *    Monte-Carlo engine at 1 and N threads, while actually peeling
 *    (predecodedPairs > 0) so the test exercises the path.
 *
 * A decoder built directly from a config must be the decoder
 * makeDecoder() builds from it, peeling each pair once.  Plus unit
 * tests of the Predecoder's peel conditions on a hand-built chain
 * graph and the TRAQ_PREDECODE loudness contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/common/word.hh"
#include "src/decoder/compile_cache.hh"
#include "src/decoder/correlated.hh"
#include "src/decoder/fallback.hh"
#include "src/decoder/monte_carlo.hh"
#include "src/decoder/mwpm.hh"
#include "src/decoder/predecode.hh"
#include "src/decoder/union_find.hh"
#include "src/decoder/windowed.hh"
#include "src/sim/dem.hh"
#include "src/sim/frame.hh"

namespace traq::decoder {
namespace {

using codes::CircuitMeta;
using sim::DetectorErrorModel;
using sim::ErrorMechanism;

/** 1D chain DEM: boundary edge on each end, pair edges between
 *  neighbors (same shape as test_decoder_interface). */
DetectorErrorModel
chainDem(int n, double p)
{
    DetectorErrorModel dem;
    dem.numDetectors = n;
    dem.numObservables = 1;
    ErrorMechanism left;
    left.probability = p;
    left.detectors = {0};
    left.observables = 1;
    dem.errors.push_back(left);
    for (int i = 0; i + 1 < n; ++i) {
        ErrorMechanism e;
        e.probability = p;
        e.detectors = {static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(i + 1)};
        dem.errors.push_back(e);
    }
    ErrorMechanism right;
    right.probability = p;
    right.detectors = {static_cast<std::uint32_t>(n - 1)};
    dem.errors.push_back(right);
    return dem;
}

CircuitMeta
chainMeta(int n)
{
    CircuitMeta meta;
    meta.detectorIsX.assign(n, 0);
    meta.observableIsX.assign(1, 0);
    return meta;
}

/** Sample `batches` simulator batches of a circuit and append each
 *  shot's syndrome and fired herald channels to CSR accumulators. */
struct SampledSyndromes
{
    std::vector<std::uint32_t> offsets{0};
    std::vector<std::uint32_t> defects;
    std::vector<std::uint32_t> heraldOffsets{0};
    std::vector<std::uint32_t> heraldIds;

    std::uint64_t shots() const { return offsets.size() - 1; }
    SyndromeBatch view() const
    {
        SyndromeBatch b;
        b.offsets = offsets;
        b.defects = defects;
        return b;
    }
    std::vector<std::uint32_t> syndrome(std::uint64_t s) const
    {
        return {defects.begin() + offsets[s],
                defects.begin() + offsets[s + 1]};
    }
    std::vector<std::uint32_t> heralds(std::uint64_t s) const
    {
        return {heraldIds.begin() + heraldOffsets[s],
                heraldIds.begin() + heraldOffsets[s + 1]};
    }
};

SampledSyndromes
sampleSyndromes(const sim::Circuit &circuit, unsigned lanes,
                int batches, std::uint64_t seed)
{
    sim::FrameSimulator fsim(seed, lanes);
    sim::FrameBatch batch;
    sim::SyndromeBlock block;
    const std::vector<std::uint64_t> live(lanes, ~0ULL);
    SampledSyndromes out;
    for (int b = 0; b < batches; ++b) {
        fsim.sampleInto(circuit, batch);
        sim::extractSyndromeBlock(batch, live, block);
        for (std::uint64_t s = 0; s < block.shots(); ++s) {
            const auto syn = block.syndrome(s);
            out.defects.insert(out.defects.end(), syn.begin(),
                               syn.end());
            out.offsets.push_back(
                static_cast<std::uint32_t>(out.defects.size()));
            const auto her = block.heralds(s);
            out.heraldIds.insert(out.heraldIds.end(), her.begin(),
                                 her.end());
            out.heraldOffsets.push_back(
                static_cast<std::uint32_t>(out.heraldIds.size()));
        }
    }
    return out;
}

TEST(BatchDecode, MatchesPerShotForAllRegisteredKinds)
{
    // decodeBatchSorted with the memo off decodes every shot, in
    // ascending defect-count order, and must be bit-identical to
    // per-shot decodeSpan() for every registered decoder on real
    // sampled syndromes.  The batch decoder is a separate warm
    // instance, so arena-scratch reuse across shots is exactly what
    // this exercises.
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.02));
    const auto graph =
        DecodeGraph::fromDem(sim::buildDem(e.circuit), e.meta);
    const auto syn =
        sampleSyndromes(e.circuit, kWide512WordLanes, 4, 0xba7c);
    ASSERT_GT(syn.shots(), 0u);

    for (DecoderKind kind : registeredDecoderKinds()) {
        auto batchDec = makeDecoder(kind, graph);
        auto shotDec = makeDecoder(kind, graph);
        std::vector<std::uint32_t> got(syn.shots());
        BatchDecodeScratch scratch;
        decodeBatchSorted(*batchDec, syn.view(), got, scratch, false);
        for (std::uint64_t s = 0; s < syn.shots(); ++s)
            ASSERT_EQ(got[s], shotDec->decodeSpan(syn.syndrome(s)))
                << decoderKindName(kind) << " shot " << s;
    }
}

TEST(Predecode, OnOffCorrectionsIdenticalForAllKinds)
{
    // The peeler's conservative conditions are supposed to make the
    // fast path invisible: for every registered kind, predecode on
    // and off must emit the same correction on every sampled shot —
    // and the on-decoder must actually peel something, or the test
    // proves nothing.
    codes::SurfaceCode sc(3);
    auto mem = codes::buildMemory(sc, 'Z', 3,
                                  codes::NoiseParams::uniform(0.01));
    codes::TransversalCnotSpec spec;
    spec.distance = 3;
    spec.cnotLayers = 2;
    spec.cnotsPerBatch = 1;
    spec.seRoundsPerBatch = 1;
    spec.noise = codes::NoiseParams::uniform(0.01);
    auto cnot = codes::buildTransversalCnot(spec);

    for (const auto *exp : {&mem, &cnot}) {
        const auto graph = DecodeGraph::fromDem(
            sim::buildDem(exp->circuit), exp->meta);
        const auto syn =
            sampleSyndromes(exp->circuit, kWide512WordLanes, 6, 0x9e31);
        for (DecoderKind kind : registeredDecoderKinds()) {
            DecoderConfig off;
            off.predecode = 0;
            DecoderConfig on;
            on.predecode = 1;
            auto decOff = makeDecoder(kind, graph, off);
            auto decOn = makeDecoder(kind, graph, on);
            // These kinds report their correction's edges, peeled
            // pairs included: the edges' observables must XOR to the
            // returned mask, and their endpoints must cancel to the
            // syndrome (boundary exits aside).
            const bool reportsEdges = kind == DecoderKind::UnionFind ||
                                      kind == DecoderKind::Mwpm ||
                                      kind == DecoderKind::Fallback ||
                                      kind == DecoderKind::Correlated;
            std::vector<std::uint32_t> used;
            for (std::uint64_t s = 0; s < syn.shots(); ++s) {
                const auto shot = syn.syndrome(s);
                // The bare MWPM kind throws above its defect cap
                // (by design); only the capped kinds see everything.
                if (kind == DecoderKind::Mwpm && shot.size() > 16)
                    continue;
                ASSERT_EQ(decOn->decodeSpan(shot),
                          decOff->decodeSpan(shot))
                    << decoderKindName(kind) << " shot " << s;
                if (!reportsEdges)
                    continue;
                for (Decoder *dec : {decOff.get(), decOn.get()}) {
                    used.clear();
                    const std::uint32_t mask =
                        dec->decodeWithContext(shot, {}, &used);
                    std::uint32_t fromEdges = 0;
                    std::vector<std::uint8_t> parity(graph.numNodes());
                    for (std::uint32_t d : shot)
                        parity[d] ^= 1;
                    for (std::uint32_t ei : used) {
                        const GraphEdge &e = graph.edges()[ei];
                        fromEdges ^= e.observables;
                        if (e.u != kBoundary)
                            parity[e.u] ^= 1;
                        parity[e.v] ^= 1;
                    }
                    const char *mode =
                        dec == decOn.get() ? " predecode on" : "";
                    ASSERT_EQ(fromEdges, mask)
                        << decoderKindName(kind) << " shot " << s << mode;
                    ASSERT_EQ(std::count(parity.begin(), parity.end(), 1),
                              0)
                        << decoderKindName(kind) << " shot " << s << mode;
                }
            }
            EXPECT_GT(decOn->predecodedPairs(), 0u)
                << decoderKindName(kind);
            EXPECT_EQ(decOff->predecodedPairs(), 0u);
            decOn->reset();
            EXPECT_EQ(decOn->predecodedPairs(), 0u);
        }
    }
}

/** The kind's class built directly from (graph, config). */
std::unique_ptr<Decoder>
buildDirectly(DecoderKind kind, const DecodeGraph &g,
              const DecoderConfig &cfg)
{
    switch (kind) {
    case DecoderKind::UnionFind:
        return std::make_unique<UnionFindDecoder>(g, cfg);
    case DecoderKind::Mwpm:
        return std::make_unique<MwpmDecoder>(g, cfg);
    case DecoderKind::Fallback:
        return std::make_unique<FallbackDecoder>(g, cfg);
    case DecoderKind::Correlated:
        return std::make_unique<CorrelatedDecoder>(g, cfg);
    case DecoderKind::Windowed:
        return std::make_unique<WindowedDecoder>(g, cfg);
    }
    return nullptr;
}

TEST(DecoderFactory, DirectConstructionMatchesMakeDecoder)
{
    // One construction path: for every kind and every predecode x
    // reachCache setting, a decoder built directly from a config and
    // makeDecoder(kind, graph, config) agree on masks, used-edge
    // lists, fallbacks() and predecodedPairs() over sampled d=3
    // memory and lossy transversal-CNOT shots, each heralded shot
    // decoded under its herald context as the engine does.  With
    // predecode on, every kind — composites included — counts each
    // pair a standalone peeler takes off a clean shot exactly once.
    codes::SurfaceCode sc(3);
    const auto mem = codes::buildMemory(
        sc, 'Z', 3, codes::NoiseParams::uniform(0.01));
    codes::TransversalCnotSpec spec;
    spec.distance = 3;
    spec.cnotLayers = 2;
    spec.cnotsPerBatch = 1;
    spec.seRoundsPerBatch = 1;
    spec.noise = codes::NoiseParams::uniform(0.005);
    noise::NoiseSpec loss;
    loss.setFlat("noise.atom-loss.p", 0.0005);
    const auto memSetup = compileDecodeSetup(mem, {}, false);
    const auto cnotSetup = compileDecodeSetup(
        codes::buildTransversalCnot(spec), loss, false);
    ASSERT_TRUE(cnotSetup->compiled.has_value());

    for (const auto &[circuit, setup] :
         {std::pair{&mem.circuit, memSetup.get()},
          std::pair{&*cnotSetup->compiled, cnotSetup.get()}}) {
        const DecodeGraph &g = setup->graph;
        const auto shots =
            sampleSyndromes(*circuit, kWide512WordLanes, 2, 0xd1ec7);
        std::vector<double> weights;
        for (const GraphEdge &e : g.edges())
            weights.push_back(e.weight);

        // Pairs a standalone peeler takes off each clean shot
        // (peeling is skipped under a herald override).
        Predecoder peeler(g, DecoderConfig{}.predecodeRadius);
        std::vector<std::uint64_t> peels;
        std::vector<std::uint32_t> residue;
        std::size_t heralded = 0;
        for (std::uint64_t s = 0; s < shots.shots(); ++s) {
            const std::uint64_t before = peeler.pairsPeeled();
            if (shots.heralds(s).empty())
                peeler.peel(shots.syndrome(s), {}, residue, nullptr);
            else
                ++heralded;
            peels.push_back(peeler.pairsPeeled() - before);
        }
        ASSERT_GT(peeler.pairsPeeled(), 0u);
        ASSERT_EQ(heralded > 0, g.numHeraldChannels() > 0);

        for (DecoderKind kind : registeredDecoderKinds()) {
            for (int predecode : {0, 1}) {
                for (int reachCache : {0, 1}) {
                    SCOPED_TRACE(std::string(decoderKindName(kind)) +
                                 " predecode " +
                                 std::to_string(predecode) +
                                 " reachCache " +
                                 std::to_string(reachCache));
                    const DecoderConfig cfg{.predecode = predecode,
                                            .reachCache = reachCache};
                    const auto direct = buildDirectly(kind, g, cfg);
                    const auto made = makeDecoder(kind, g, cfg);
                    const bool reportsEdges =
                        kind != DecoderKind::Windowed;
                    std::vector<std::uint32_t> usedD, usedM;
                    std::uint64_t wantPeels = 0;
                    for (std::uint64_t s = 0; s < shots.shots(); ++s) {
                        const auto syn = shots.syndrome(s);
                        const auto heralds = shots.heralds(s);
                        // The bare MWPM kind throws above its cap.
                        if (kind == DecoderKind::Mwpm &&
                            syn.size() > cfg.mwpmMaxDefects)
                            continue;
                        DecodeContext ctx;
                        for (std::uint32_t c : heralds)
                            for (std::uint32_t ei : g.channelEdges(c))
                                weights[ei] = 0.0;
                        if (!heralds.empty())
                            ctx.weights = weights;
                        usedD.clear();
                        usedM.clear();
                        ASSERT_EQ(direct->decodeWithContext(
                                      syn, ctx,
                                      reportsEdges ? &usedD : nullptr),
                                  made->decodeWithContext(
                                      syn, ctx,
                                      reportsEdges ? &usedM : nullptr))
                            << "shot " << s;
                        ASSERT_EQ(usedD, usedM) << "shot " << s;
                        for (std::uint32_t c : heralds)
                            for (std::uint32_t ei : g.channelEdges(c))
                                weights[ei] = g.edges()[ei].weight;
                        wantPeels += peels[s];
                    }
                    EXPECT_EQ(direct->fallbacks(), made->fallbacks());
                    EXPECT_EQ(direct->predecodedPairs(),
                              made->predecodedPairs());
                    EXPECT_EQ(direct->predecodedPairs(),
                              predecode ? wantPeels : 0u);
                }
            }
        }
    }

    // A default config follows TRAQ_PREDECODE in a directly built
    // decoder too, composites peeling once at the outermost stage.
    const DecodeGraph &g = memSetup->graph;
    Predecoder peeler(g, DecoderConfig{}.predecodeRadius);
    std::vector<std::uint32_t> pair, residue;
    for (const GraphEdge &e : g.edges()) {
        if (e.u == kBoundary)
            continue;
        pair = {static_cast<std::uint32_t>(std::min(e.u, e.v)),
                static_cast<std::uint32_t>(std::max(e.u, e.v))};
        peeler.peel(pair, {}, residue, nullptr);
        if (peeler.pairsPeeled() == 1)
            break;
    }
    ASSERT_EQ(peeler.pairsPeeled(), 1u);
    for (const char *env : {"1", "0"}) {
        ASSERT_EQ(setenv("TRAQ_PREDECODE", env, 1), 0);
        UnionFindDecoder uf(g);
        FallbackDecoder fallback(g);
        uf.decodeSpan(pair);
        fallback.decodeSpan(pair);
        const std::uint64_t want = env[0] == '1' ? 1 : 0;
        EXPECT_EQ(uf.predecodedPairs(), want) << env;
        EXPECT_EQ(fallback.predecodedPairs(), want) << env;
    }
    ASSERT_EQ(unsetenv("TRAQ_PREDECODE"), 0);
}

TEST(Predecode, EngineResultsIdenticalAndThreadInvariant)
{
    // Through the full engine: predecode is purely a throughput
    // knob, so every tallied quantity must match the off-run, at any
    // thread count, and the batch path must report its peels.
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.01));
    McOptions opts;
    opts.shots = 4000;
    opts.seed = 777;
    opts.shardShots = 512;
    opts.predecode = 0;
    opts.threads = 1;
    const auto off = runMonteCarlo(e, opts);
    EXPECT_EQ(off.predecodedPairs, 0u);

    opts.predecode = 1;
    for (unsigned threads : {1u, 4u}) {
        opts.threads = threads;
        const auto on = runMonteCarlo(e, opts);
        EXPECT_EQ(on.anyObservable.hits, off.anyObservable.hits);
        EXPECT_EQ(on.shots, off.shots);
        ASSERT_EQ(on.perObservable.size(),
                  off.perObservable.size());
        for (std::size_t k = 0; k < off.perObservable.size(); ++k)
            EXPECT_EQ(on.perObservable[k].hits,
                      off.perObservable[k].hits);
        EXPECT_DOUBLE_EQ(on.avgDefects, off.avgDefects);
        EXPECT_EQ(on.mwpmFallbacks, off.mwpmFallbacks);
        EXPECT_GT(on.predecodedPairs, 0u);
    }
}

TEST(Predecode, PeelerHonorsIsolationAndBoundaryGuards)
{
    const int n = 9;
    auto dem = chainDem(n, 0.01);
    const auto g = DecodeGraph::fromDem(dem, chainMeta(n));
    Predecoder pre(g, /*radius=*/2);
    std::vector<std::uint32_t> residue;
    std::vector<std::uint32_t> used;

    // Isolated interior pair: peeled, no residue, interior edges
    // carry no observable.
    std::vector<std::uint32_t> pair{3, 4};
    EXPECT_EQ(pre.peel(pair, {}, residue, &used), 0u);
    EXPECT_TRUE(residue.empty());
    EXPECT_EQ(pre.pairsPeeled(), 1u);
    ASSERT_EQ(used.size(), 1u);
    const GraphEdge &e = g.edges()[used[0]];
    EXPECT_TRUE((e.u == 3 && e.v == 4) || (e.u == 4 && e.v == 3));

    // A lone defect is never peeled.
    std::vector<std::uint32_t> lone{5};
    EXPECT_EQ(pre.peel(lone, {}, residue, nullptr), 0u);
    EXPECT_EQ(residue, lone);

    // Non-adjacent defects are left for the matcher.
    std::vector<std::uint32_t> apart{1, 7};
    pre.peel(apart, {}, residue, nullptr);
    EXPECT_EQ(residue, apart);

    // A third defect adjacent to the pair blocks it (no lone
    // partner / crowded ball).
    std::vector<std::uint32_t> triple{3, 4, 5};
    pre.peel(triple, {}, residue, nullptr);
    EXPECT_EQ(residue, triple);

    // ... and so does one at exactly radius 2 from an endpoint.
    std::vector<std::uint32_t> nearby{3, 4, 6};
    pre.peel(nearby, {}, residue, nullptr);
    EXPECT_EQ(residue, nearby);

    // Isolation is judged against the ORIGINAL defect set: two
    // adjacent pairs too close together both stay.
    std::vector<std::uint32_t> pairs{1, 2, 4, 5};
    pre.peel(pairs, {}, residue, nullptr);
    EXPECT_EQ(residue, pairs);

    // Far-apart pairs peel independently in one call.
    pre.reset();
    std::vector<std::uint32_t> two{0, 1, 7, 8};
    pre.peel(two, {}, residue, nullptr);
    EXPECT_TRUE(residue.empty());
    EXPECT_EQ(pre.pairsPeeled(), 2u);

    // Weight overrides are incompatible with peeling by contract.
    const std::vector<double> w(g.edges().size(), 1.0);
    DecodeContext ctx;
    ctx.weights = w;
    EXPECT_THROW(pre.peel(pair, ctx, residue, nullptr), FatalError);

    EXPECT_THROW(Predecoder(g, 0), FatalError);
}

TEST(Predecode, EnvResolutionParsesKnownValuesAndFailsLoudly)
{
    // Explicit values ignore the environment.
    ASSERT_EQ(setenv("TRAQ_PREDECODE", "1", 1), 0);
    EXPECT_FALSE(resolvePredecode(0));
    ASSERT_EQ(setenv("TRAQ_PREDECODE", "0", 1), 0);
    EXPECT_TRUE(resolvePredecode(1));

    // Auto (< 0) reads TRAQ_PREDECODE.
    for (const char *onWord : {"1", "on", "true"}) {
        ASSERT_EQ(setenv("TRAQ_PREDECODE", onWord, 1), 0);
        EXPECT_TRUE(resolvePredecode(-1)) << onWord;
    }
    for (const char *offWord : {"0", "off", "false", ""}) {
        ASSERT_EQ(setenv("TRAQ_PREDECODE", offWord, 1), 0);
        EXPECT_FALSE(resolvePredecode(-1)) << offWord;
    }
    ASSERT_EQ(setenv("TRAQ_PREDECODE", "yes", 1), 0);
    EXPECT_THROW(resolvePredecode(-1), FatalError);
    ASSERT_EQ(unsetenv("TRAQ_PREDECODE"), 0);
    EXPECT_FALSE(resolvePredecode(-1));
}

} // namespace
} // namespace traq::decoder
