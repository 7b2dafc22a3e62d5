/**
 * @file
 * Tests for the two new decode-graph clients.
 *
 * The headline regression lock: with the `correlated` decoder,
 * transversal-CNOT logical error is again monotonically suppressed
 * with distance at p = 1e-3 — d=5 beats d=3 — while the plain joint
 * matcher shows no suppression (the exact gap recorded in ROADMAP
 * that pinned `mc-alpha` to a single CNOT distance).  And the
 * `windowed` decoder reproduces whole-history decoding bit for bit
 * on memory circuits at its default window/commit depths.
 *
 * All Monte-Carlo runs pin the scalar64 word backend so the sampled
 * streams (and therefore the asserted hit counts) do not depend on
 * the default backend or on TRAQ_WORD_BACKEND.
 */

#include <gtest/gtest.h>

#include <span>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/decoder/correlated.hh"
#include "src/decoder/decoder.hh"
#include "src/decoder/fallback.hh"
#include "src/decoder/monte_carlo.hh"
#include "src/decoder/windowed.hh"
#include "src/estimator/simulation.hh"
#include "src/sim/frame.hh"

namespace traq::decoder {
namespace {

McResult
runCnot(int distance, DecoderKind kind, std::uint64_t shots)
{
    codes::TransversalCnotSpec spec;
    spec.distance = distance;
    spec.cnotLayers = 4;
    spec.noise = codes::NoiseParams::uniform(1e-3);
    auto e = codes::buildTransversalCnot(spec);
    McOptions o;
    o.shots = shots;
    o.seed = 20260728;
    o.decoder = kind;
    o.wordBackend = WordBackend::Scalar64;
    return runMonteCarlo(e, o);
}

TEST(CorrelatedDecoder, RestoresCrossDistanceSuppressionAtP1em3)
{
    const std::uint64_t shots = 30000;
    const McResult fb3 = runCnot(3, DecoderKind::Fallback, shots);
    const McResult fb5 = runCnot(5, DecoderKind::Fallback, shots);
    const McResult co3 = runCnot(3, DecoderKind::Correlated, shots);
    const McResult co5 = runCnot(5, DecoderKind::Correlated, shots);

    // Enough statistics to make the comparison meaningful.
    ASSERT_GT(co3.anyObservable.hits, 100u);
    ASSERT_GT(co5.anyObservable.hits, 100u);

    // The documented gap: plain joint matching shows no distance
    // suppression on transversal-CNOT circuits at p = 1e-3.
    EXPECT_GT(fb5.anyObservable.mean,
              0.8 * fb3.anyObservable.mean);

    // Correlation reweighting restores monotone suppression with
    // margin: d=5 beats d=3 by at least 15%.
    EXPECT_LT(co5.anyObservable.mean,
              0.85 * co3.anyObservable.mean);

    // And it beats the plain matcher outright at both distances.
    EXPECT_LT(co3.anyObservable.mean, fb3.anyObservable.mean);
    EXPECT_LT(co5.anyObservable.mean, fb5.anyObservable.mean);
}

TEST(CorrelatedDecoder, McAlphaFitsAcrossBothDistances)
{
    // The full (d, x) grid — memory anchors d in {3,5} and CNOT
    // points d in {3,5} x x in {1,2,4} — fits Eq. (4) end to end
    // with the correlated decoder (high p keeps shots cheap).
    est::McAlphaSpec spec;
    spec.pPhys = 6e-3;
    spec.shots = 1500;
    spec.cnotDMax = 5;
    spec.decoder = DecoderKind::Correlated;
    auto r = est::makeMcAlphaEstimator(spec)->estimate(
        {"mc-alpha", {}});
    EXPECT_EQ(r.metric("dataPoints"), 6.0);
    EXPECT_GT(r.metric("alpha"), 0.03);
    EXPECT_LT(r.metric("alpha"), 0.6);
    EXPECT_GT(r.metric("lambda"), 1.0);
    EXPECT_GT(r.metric("prefactorC"), 0.0);
}

TEST(CorrelatedDecoder, FallsBackToPlainDecodeWithoutHints)
{
    // A hand-built chain DEM has single-part mechanisms only, so
    // the correlated decoder must agree with the plain composite.
    sim::DetectorErrorModel dem;
    dem.numDetectors = 5;
    dem.numObservables = 1;
    for (int i = 0; i + 1 < 5; ++i) {
        sim::ErrorMechanism m;
        m.probability = 0.01;
        m.detectors = {static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(i + 1)};
        dem.errors.push_back(m);
    }
    sim::ErrorMechanism left;
    left.probability = 0.01;
    left.detectors = {0};
    left.observables = 1;
    dem.errors.push_back(left);
    sim::ErrorMechanism right;
    right.probability = 0.01;
    right.detectors = {4};
    dem.errors.push_back(right);
    codes::CircuitMeta meta;
    meta.detectorIsX.assign(5, 0);
    meta.observableIsX.assign(1, 0);
    DecodeGraph g = DecodeGraph::fromDem(dem, meta);
    ASSERT_EQ(g.numPartnerLinks(), 0u);

    CorrelatedDecoder corr(g, {});
    FallbackDecoder plain(g);
    for (const auto &syn :
         std::vector<std::vector<std::uint32_t>>{
             {}, {0}, {2, 3}, {0, 4}, {1, 2, 3, 4}}) {
        EXPECT_EQ(corr.decodeSpan(syn), plain.decodeSpan(syn));
    }
    EXPECT_EQ(corr.reweightedPasses(), 0u);
}

/** Sample per-shot syndromes and compare two decoders bit for bit. */
int
countMismatches(const codes::Experiment &e, const DecodeGraph &g,
                Decoder &a, Decoder &b, int shots,
                std::uint64_t seed)
{
    sim::FrameSimulator fs(seed);
    sim::FrameBatch batch;
    sim::SyndromeBlock block;
    const std::uint64_t live = ~0ULL;
    int mismatches = 0, done = 0;
    while (done < shots) {
        fs.sampleInto(e.circuit, batch);
        sim::extractSyndromeBlock(batch, {&live, 1}, block);
        for (int s = 0; s < 64 && done < shots; ++s, ++done)
            mismatches += a.decodeSpan(block.syndrome(s)) !=
                          b.decodeSpan(block.syndrome(s));
    }
    return mismatches;
}

TEST(WindowedDecoder, BitIdenticalToWholeHistoryOnMemoryD3)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 12,
                                codes::NoiseParams::uniform(3e-3));
    DecodeGraph g = DecodeGraph::build(e);
    DecoderConfig cfg;  // default windowRounds=6, commitRounds=2
    auto whole = makeDecoder(DecoderKind::Fallback, g, cfg);
    auto win = makeDecoder(DecoderKind::Windowed, g, cfg);
    EXPECT_EQ(countMismatches(e, g, *whole, *win, 4096, 99), 0);
    // The stream genuinely ran in windows, not one shot.
    auto &w = dynamic_cast<WindowedDecoder &>(*win);
    EXPECT_GT(w.windowsDecoded(), 4096u);
}

TEST(WindowedDecoder, BitIdenticalToWholeHistoryOnMemoryD5)
{
    codes::SurfaceCode sc(5);
    auto e = codes::buildMemory(sc, 'Z', 10,
                                codes::NoiseParams::uniform(1e-3));
    DecodeGraph g = DecodeGraph::build(e);
    auto whole = makeDecoder(DecoderKind::Fallback, g, {});
    auto win = makeDecoder(DecoderKind::Windowed, g, {});
    EXPECT_EQ(countMismatches(e, g, *whole, *win, 1024, 99), 0);
}

TEST(WindowedDecoder, DegenerateWindowIsWholeHistory)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(5e-3));
    DecodeGraph g = DecodeGraph::build(e);
    DecoderConfig cfg;
    cfg.windowRounds = 64;  // covers the whole circuit
    auto whole = makeDecoder(DecoderKind::Fallback, g, cfg);
    auto win = makeDecoder(DecoderKind::Windowed, g, cfg);
    EXPECT_EQ(countMismatches(e, g, *whole, *win, 512, 5), 0);
}

TEST(WindowedDecoder, RunsThroughMonteCarloEngine)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 12,
                                codes::NoiseParams::uniform(3e-3));
    McOptions o;
    o.shots = 2048;
    o.seed = 7;
    o.wordBackend = WordBackend::Scalar64;
    o.decoder = DecoderKind::Windowed;
    auto winRes = runMonteCarlo(e, o);
    EXPECT_STREQ(winRes.decoder, "windowed");
    o.decoder = DecoderKind::Fallback;
    auto refRes = runMonteCarlo(e, o);
    // Same samples, bit-identical streaming decode: identical hits.
    EXPECT_EQ(winRes.anyObservable.hits,
              refRes.anyObservable.hits);
}

TEST(WindowedDecoder, RejectsBadWindowConfig)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(1e-3));
    DecodeGraph g = DecodeGraph::build(e);
    DecoderConfig cfg;
    cfg.commitRounds = 9;  // > windowRounds
    EXPECT_THROW(makeDecoder(DecoderKind::Windowed, g, cfg),
                 FatalError);
    cfg = {};
    cfg.windowRounds = 0;
    EXPECT_THROW(makeDecoder(DecoderKind::Windowed, g, cfg),
                 FatalError);
}

TEST(WindowedDecoder, RejectsUsedEdgeRequests)
{
    // Windows commit edges as they go and keep no list of them, so a
    // request for the correction's edges fails loudly instead of
    // coming back empty.
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(1e-3));
    DecodeGraph g = DecodeGraph::build(e);
    auto win = makeDecoder(DecoderKind::Windowed, g);
    std::vector<std::uint32_t> used;
    for (const auto &syn : std::vector<std::vector<std::uint32_t>>{
             {}, {0}}) {
        EXPECT_THROW(win->decodeWithContext(syn, {}, &used),
                     FatalError);
        EXPECT_NO_THROW(win->decodeWithContext(syn, {}));
    }
    EXPECT_TRUE(used.empty());
}

} // namespace
} // namespace traq::decoder
