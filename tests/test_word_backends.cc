/**
 * @file
 * Width-backend agreement tests for the wide bit-plane sampling
 * stack: the scalar64 (1-lane) and wide512 (kWide512WordLanes)
 * backends must agree exactly on deterministic circuits,
 * statistically on noisy ones, and each backend must stay
 * bit-identical across thread counts.  FrameSimulator accepts any
 * lane count, so the raw-sampler tests also run off-backend widths
 * (4 lanes, 3 lanes) through the generic kernel path.  Also covers
 * extractSyndromeBlock against the extractSyndromeBlockScalar
 * reference for non-64 widths and partial live masks,
 * TRAQ_WORD_BACKEND resolution (including the loud-failure contract
 * on unknown and retired values), and the noise-fusion path.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/common/word.hh"
#include "src/decoder/monte_carlo.hh"
#include "src/sim/frame.hh"

namespace traq::sim {
namespace {

/** All-lane popcount of one observable plane. */
std::uint64_t
planeCount(const FrameBatch &b, std::size_t k)
{
    std::uint64_t n = 0;
    for (std::uint64_t w : b.observable(k))
        n += static_cast<std::uint64_t>(std::popcount(w));
    return n;
}

TEST(WordBackends, DeterministicCircuitAgreesExactly)
{
    // p = 1 noise and forced propagation: every shot of every lane
    // must flip identically on both backends.
    Circuit c;
    c.xError(1.0, {0});
    c.cx(0, 1);
    c.m(0);
    c.m(1);
    c.detector({2});
    c.detector({1});
    c.observable(0, {1, 2});
    for (unsigned lanes : {1u, 4u, kWide512WordLanes, 3u}) {
        FrameSimulator sim(7, lanes);
        FrameBatch b = sim.sample(c);
        ASSERT_EQ(b.lanes, lanes);
        ASSERT_EQ(b.numDetectors(), 2u);
        for (std::uint64_t w : b.detector(0))
            EXPECT_EQ(w, ~0ULL);
        for (std::uint64_t w : b.detector(1))
            EXPECT_EQ(w, ~0ULL);
        // X on both qubits: the XOR observable never flips.
        EXPECT_EQ(planeCount(b, 0), 0u);
    }
}

TEST(WordBackends, ObservableFlipCountsAgreeStatistically)
{
    // Same seed, both backends: the statistical path must produce
    // matching observable-flip counts within tight Monte-Carlo
    // tolerance (the backends consume randomness in different
    // orders, so equality is distributional, not bitwise).
    Circuit c;
    c.xError(0.3, {0});
    c.m(0);
    c.observable(0, {1});
    const std::uint64_t minShots = 1 << 17;
    std::vector<double> rates;
    for (unsigned lanes : {1u, 4u, kWide512WordLanes}) {
        FrameSimulator sim(99, lanes);
        std::uint64_t shots = 0;
        auto counts = sim.countObservableFlips(c, minShots, &shots);
        ASSERT_EQ(counts.size(), 1u);
        EXPECT_GE(shots, minShots);
        rates.push_back(static_cast<double>(counts[0]) / shots);
    }
    EXPECT_NEAR(rates[0], 0.3, 0.01);
    EXPECT_NEAR(rates[1], rates[0], 0.01);
    EXPECT_NEAR(rates[2], rates[0], 0.01);
}

TEST(WordBackends, EngineBackendsAgreeStatistically)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.02));
    decoder::McOptions opts;
    opts.shots = 20000;
    opts.seed = 77;
    opts.decoder = decoder::DecoderKind::UnionFind;

    opts.wordBackend = WordBackend::Scalar64;
    auto scalar = decoder::runMonteCarlo(e, opts);
    opts.wordBackend = WordBackend::Wide512;
    auto wide512 = decoder::runMonteCarlo(e, opts);

    EXPECT_EQ(scalar.wordLanes, 1u);
    EXPECT_EQ(wide512.wordLanes, kWide512WordLanes);
    EXPECT_EQ(scalar.shots, wide512.shots);
    // ~5 sigma of a binomial proportion at these settings.
    const double sigma =
        std::sqrt(scalar.anyObservable.mean *
                  (1 - scalar.anyObservable.mean) / scalar.shots);
    EXPECT_NEAR(wide512.anyObservable.mean,
                scalar.anyObservable.mean, 5.0 * sigma + 1e-12);
    EXPECT_NEAR(wide512.avgDefects, scalar.avgDefects,
                0.05 * scalar.avgDefects);
}

TEST(WordBackends, WideBackendsThreadCountInvariant)
{
    // The per-backend determinism guarantee: for each backend, any
    // thread count reproduces the 1-thread tallies exactly.
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.01));
    decoder::McOptions opts;
    opts.shots = 4000;
    opts.seed = 4242;
    opts.shardShots = 512; // force many shards

    for (auto [backend, lanes] :
         {std::pair{WordBackend::Scalar64, 1u},
          std::pair{WordBackend::Wide512, kWide512WordLanes}}) {
        opts.wordBackend = backend;
        decoder::McResult ref;
        bool first = true;
        for (unsigned threads : {1u, 2u, 4u}) {
            opts.threads = threads;
            auto res = decoder::runMonteCarlo(e, opts);
            EXPECT_EQ(res.wordLanes, lanes);
            if (first) {
                ref = res;
                first = false;
                EXPECT_GT(ref.anyObservable.hits, 0u);
                continue;
            }
            EXPECT_EQ(res.anyObservable.hits,
                      ref.anyObservable.hits);
            EXPECT_EQ(res.shots, ref.shots);
            EXPECT_EQ(res.sampledShots, ref.sampledShots);
            ASSERT_EQ(res.perObservable.size(),
                      ref.perObservable.size());
            for (std::size_t k = 0; k < ref.perObservable.size();
                 ++k)
                EXPECT_EQ(res.perObservable[k].hits,
                          ref.perObservable[k].hits);
            EXPECT_DOUBLE_EQ(res.avgDefects, ref.avgDefects);
        }
    }
}

TEST(WordBackends, EnvResolutionParsesKnownNamesAndFailsLoudly)
{
    // Explicit backends pass through untouched regardless of env.
    ASSERT_EQ(setenv("TRAQ_WORD_BACKEND", "512", 1), 0);
    EXPECT_EQ(resolveWordBackend(WordBackend::Scalar64),
              WordBackend::Scalar64);
    ASSERT_EQ(setenv("TRAQ_WORD_BACKEND", "64", 1), 0);
    EXPECT_EQ(resolveWordBackend(WordBackend::Wide512),
              WordBackend::Wide512);

    // Auto resolves every documented spelling.
    const std::pair<const char *, WordBackend> spellings[] = {
        {"64", WordBackend::Scalar64},
        {"scalar", WordBackend::Scalar64},
        {"scalar64", WordBackend::Scalar64},
        {"512", WordBackend::Wide512},
        {"wide512", WordBackend::Wide512},
    };
    for (const auto &[name, want] : spellings) {
        ASSERT_EQ(setenv("TRAQ_WORD_BACKEND", name, 1), 0);
        EXPECT_EQ(resolveWordBackend(WordBackend::Auto), want)
            << name;
    }

    // Unset / empty default to Wide512.
    ASSERT_EQ(setenv("TRAQ_WORD_BACKEND", "", 1), 0);
    EXPECT_EQ(resolveWordBackend(WordBackend::Auto),
              WordBackend::Wide512);
    ASSERT_EQ(unsetenv("TRAQ_WORD_BACKEND"), 0);
    EXPECT_EQ(resolveWordBackend(WordBackend::Auto),
              WordBackend::Wide512);
    EXPECT_EQ(wordBackendLanes(WordBackend::Auto), kWide512WordLanes);

    // A typo, or a spelling of the retired 256-bit backend, must
    // throw naming the remaining spellings — not silently fall back
    // to the default.
    for (const char *bad : {"wide-512", "256", "wide", "wide256"}) {
        ASSERT_EQ(setenv("TRAQ_WORD_BACKEND", bad, 1), 0);
        try {
            resolveWordBackend(WordBackend::Auto);
            ADD_FAILURE() << bad << " did not throw";
        } catch (const FatalError &err) {
            const std::string msg = err.what();
            EXPECT_NE(msg.find("64/scalar/scalar64"), std::string::npos)
                << msg;
            EXPECT_NE(msg.find("512/wide512"), std::string::npos)
                << msg;
        }
    }
    ASSERT_EQ(unsetenv("TRAQ_WORD_BACKEND"), 0);

    EXPECT_STREQ(wordBackendName(WordBackend::Scalar64), "scalar64");
    EXPECT_STREQ(wordBackendName(WordBackend::Wide512), "wide512");
}

/** Shot s's defects as a vector (for readable expectations). */
std::vector<std::uint32_t>
defectsOf(const SyndromeBlock &blk, std::uint64_t s)
{
    const auto syn = blk.syndrome(s);
    return {syn.begin(), syn.end()};
}

/**
 * Extract with the production kernel and with the scalar reference
 * oracle, require the two blocks to agree field for field, and
 * return the production block.
 */
SyndromeBlock
extractChecked(const FrameBatch &b, std::span<const std::uint64_t> live)
{
    SyndromeBlock blk, ref;
    extractSyndromeBlock(b, live, blk);
    extractSyndromeBlockScalar(b, live, ref);
    EXPECT_EQ(blk.lanes, ref.lanes);
    EXPECT_EQ(blk.offsets, ref.offsets);
    EXPECT_EQ(blk.defects, ref.defects);
    EXPECT_EQ(blk.observables, ref.observables);
    EXPECT_EQ(blk.heraldOffsets, ref.heraldOffsets);
    EXPECT_EQ(blk.heraldIds, ref.heraldIds);
    return blk;
}

TEST(WordBackends, ExtractSyndromesRoundTripsNon64Widths)
{
    // Hand-built batch over 2 lanes (128 shots), 3 detectors.
    FrameBatch b;
    b.lanes = 2;
    b.detectors = {
        // d0: shots 0, 64 (bit 0 of each lane)
        1ULL, 1ULL,
        // d1: shots 3 and 127
        8ULL, 1ULL << 63,
        // d2: all shots of lane 1 only
        0ULL, ~0ULL,
    };
    ASSERT_EQ(b.numDetectors(), 3u);

    const std::vector<std::uint64_t> full{~0ULL, ~0ULL};
    const SyndromeBlock out = extractChecked(b, full);
    ASSERT_EQ(out.offsets.size(), b.shots() + 1);
    EXPECT_EQ(defectsOf(out, 0), (std::vector<std::uint32_t>{0}));
    EXPECT_EQ(defectsOf(out, 3), (std::vector<std::uint32_t>{1}));
    EXPECT_EQ(defectsOf(out, 64), (std::vector<std::uint32_t>{0, 2}));
    EXPECT_EQ(defectsOf(out, 127),
              (std::vector<std::uint32_t>{1, 2}));
    EXPECT_TRUE(out.syndrome(1).empty());
    EXPECT_EQ(out.defects.size(), 2u + 2u + 64u);

    // Partial live mask: only shots 0..2 of lane 0 and 64..66 of
    // lane 1 are live; everything else must be dropped.
    const std::vector<std::uint64_t> partial{7ULL, 7ULL};
    const SyndromeBlock masked = extractChecked(b, partial);
    EXPECT_EQ(defectsOf(masked, 0), (std::vector<std::uint32_t>{0}));
    EXPECT_TRUE(masked.syndrome(3).empty());  // shot 3 masked out
    EXPECT_EQ(defectsOf(masked, 64),
              (std::vector<std::uint32_t>{0, 2}));
    EXPECT_EQ(defectsOf(masked, 65), (std::vector<std::uint32_t>{2}));
    EXPECT_TRUE(masked.syndrome(127).empty());
    EXPECT_EQ(masked.defects.size(), 1u + 1u + 3u);
}

TEST(WordBackends, ExtractSyndromeBlockMatchesPerShotExtraction)
{
    // Same hand-built 2-lane batch as above, plus observable planes;
    // the CSR block must match the scalar reference and scatter the
    // observable masks correctly.
    FrameBatch b;
    b.lanes = 2;
    b.detectors = {
        1ULL,        1ULL,        // d0: shots 0, 64
        8ULL,        1ULL << 63,  // d1: shots 3, 127
        0ULL,        ~0ULL,       // d2: all of lane 1
    };
    b.observables = {
        2ULL,        0ULL,        // obs0 flips shot 1
        1ULL << 63,  ~0ULL,       // obs1 flips shot 63 + lane 1
    };

    const std::vector<std::uint64_t> full{~0ULL, ~0ULL};
    SyndromeBlock blk = extractChecked(b, full);
    ASSERT_EQ(blk.lanes, 2u);
    ASSERT_EQ(blk.offsets.size(), b.shots() + 1);
    ASSERT_EQ(blk.observables.size(), b.shots());
    EXPECT_EQ(defectsOf(blk, 64), (std::vector<std::uint32_t>{0, 2}));
    EXPECT_EQ(blk.observables[0], 0u);
    EXPECT_EQ(blk.observables[1], 1u);  // obs0
    EXPECT_EQ(blk.observables[63], 2u); // obs1
    EXPECT_EQ(blk.observables[64], 2u); // obs1 (lane 1)
    EXPECT_EQ(blk.observables[127], 2u);

    // Partial live mask: dead shots come out empty with zero masks.
    const std::vector<std::uint64_t> partial{7ULL, 7ULL};
    blk = extractChecked(b, partial);
    EXPECT_TRUE(blk.syndrome(3).empty());
    EXPECT_EQ(defectsOf(blk, 65), (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(blk.observables[63], 0u); // masked out
    EXPECT_EQ(blk.observables[64], 2u); // still live

    // Simulator-sampled batch: the block and the reference must agree
    // on real noisy data across every backend width.
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.05));
    for (unsigned lanes : {1u, 4u, kWide512WordLanes}) {
        FrameSimulator sim(31337, lanes);
        FrameBatch nb = sim.sample(e.circuit);
        const std::vector<std::uint64_t> live(lanes, ~0ULL);
        const SyndromeBlock nblk = extractChecked(nb, live);
        EXPECT_GT(nblk.defects.size(), 0u) << "lanes " << lanes;
    }
}

TEST(WordBackends, FusedNoiseMatchesCombinedProbability)
{
    // Two certain X errors back-to-back cancel (XOR), on every
    // backend — exercises the fusion path end to end.
    Circuit cancel;
    cancel.xError(1.0, {0});
    cancel.xError(1.0, {0});
    cancel.m(0);
    cancel.detector({1});
    for (unsigned lanes : {1u, 4u, kWide512WordLanes}) {
        FrameSimulator sim(5, lanes);
        FrameBatch b = sim.sample(cancel);
        for (std::uint64_t w : b.detector(0))
            EXPECT_EQ(w, 0u);
    }

    // Two p = 0.5 flips fuse to an effective 0.5 flip rate.
    Circuit half;
    half.xError(0.5, {0});
    half.xError(0.5, {0});
    half.m(0);
    half.observable(0, {1});
    FrameSimulator sim(11, kWide512WordLanes);
    std::uint64_t shots = 0;
    auto counts = sim.countObservableFlips(half, 1 << 16, &shots);
    const double rate = static_cast<double>(counts[0]) / shots;
    EXPECT_NEAR(rate, 0.5, 0.02);
}

} // namespace
} // namespace traq::sim
