/**
 * @file
 * Tests for the polymorphic Decoder interface / factory and the
 * sharded multithreaded MonteCarloEngine: decoder parity on
 * hand-built syndromes, the batch decode order, bit-identical
 * results for any thread count, stream-split RNG determinism, tally
 * merging, and exact tail-shot accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <set>
#include <utility>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/common/rng.hh"
#include "src/common/stats.hh"
#include "src/decoder/decoder.hh"
#include "src/decoder/fallback.hh"
#include "src/decoder/monte_carlo.hh"
#include "src/sim/dem.hh"

namespace traq::decoder {
namespace {

using codes::CircuitMeta;
using sim::DetectorErrorModel;
using sim::ErrorMechanism;

/** A hand-written syndrome (decodeSpan takes no braced list). */
using Syndrome = std::vector<std::uint32_t>;

/** 1D repetition-code-like chain of n detectors (see test_decoder). */
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

TEST(DecoderFactory, MakesAllBuiltinKinds)
{
    auto dem = chainDem(5, 0.01);
    DecodeGraph g = DecodeGraph::fromDem(dem, chainMeta(5));
    for (auto kind : {DecoderKind::UnionFind, DecoderKind::Mwpm,
                      DecoderKind::Fallback, DecoderKind::Correlated,
                      DecoderKind::Windowed}) {
        auto dec = makeDecoder(kind, g);
        ASSERT_NE(dec, nullptr);
        EXPECT_STREQ(dec->name(), decoderKindName(kind));
        EXPECT_EQ(dec->decodeSpan({}), 0u);
        EXPECT_EQ(dec->fallbacks(), 0u);
    }
}

TEST(DecoderFactory, TableDrivenKindNameRoundTrip)
{
    // Every registered kind round-trips kind -> name -> kind and
    // instantiates a decoder that reports the same name.
    auto dem = chainDem(5, 0.01);
    DecodeGraph g = DecodeGraph::fromDem(dem, chainMeta(5));
    const auto kinds = registeredDecoderKinds();
    EXPECT_EQ(kinds.size(), 5u);
    for (DecoderKind kind : kinds) {
        const char *name = decoderKindName(kind);
        ASSERT_NE(name, nullptr);
        EXPECT_EQ(decoderKindFromName(name), kind);
        auto dec = makeDecoder(kind, g);
        ASSERT_NE(dec, nullptr);
        EXPECT_STREQ(dec->name(), name);
    }
}

TEST(DecoderFactory, UnknownKindsFailLoudly)
{
    auto dem = chainDem(3, 0.01);
    DecodeGraph g = DecodeGraph::fromDem(dem, chainMeta(3));
    const auto bogus = static_cast<DecoderKind>(1000);
    // No silent "unknown" string and no silent default decoder.
    EXPECT_THROW(decoderKindName(bogus), FatalError);
    EXPECT_THROW(makeDecoder(bogus, g), FatalError);
    EXPECT_THROW(decoderKindFromName("no-such-decoder"),
                 FatalError);
    EXPECT_THROW(decoderKindFromName(""), FatalError);
}

TEST(DecoderFactory, EnvironmentOverrideSelectsKind)
{
    ASSERT_EQ(setenv("TRAQ_DECODER", "union-find", 1), 0);
    EXPECT_EQ(resolveDecoderKind(DecoderKind::Fallback),
              DecoderKind::UnionFind);
    ASSERT_EQ(setenv("TRAQ_DECODER", "", 1), 0);
    EXPECT_EQ(resolveDecoderKind(DecoderKind::Fallback),
              DecoderKind::Fallback);
    ASSERT_EQ(setenv("TRAQ_DECODER", "bogus", 1), 0);
    EXPECT_THROW(resolveDecoderKind(DecoderKind::Fallback),
                 FatalError);
    ASSERT_EQ(unsetenv("TRAQ_DECODER"), 0);
    EXPECT_EQ(resolveDecoderKind(DecoderKind::Correlated),
              DecoderKind::Correlated);
}

TEST(MonteCarloEngine, EnvironmentOverridesDecoderKind)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.01));
    McOptions opts;
    opts.shots = 256;
    ASSERT_EQ(setenv("TRAQ_DECODER", "union-find", 1), 0);
    auto res = runMonteCarlo(e, opts);
    ASSERT_EQ(unsetenv("TRAQ_DECODER"), 0);
    EXPECT_STREQ(res.decoder, "union-find");
    auto plain = runMonteCarlo(e, opts);
    EXPECT_STREQ(plain.decoder, "mwpm+uf-fallback");
}

TEST(BatchDecode, CustomDecoderSeesHeraldZeroedWeights)
{
    // A decoder that implements decodeWithContext() and name() only
    // is reached by both decodeSpan() and the batch path — a
    // heralded row with the graph's weights, its herald's edges
    // zeroed.
    struct Fixed final : Decoder
    {
        std::vector<double> seenWeights;

        std::uint32_t
        decodeWithContext(std::span<const std::uint32_t>,
                          const DecodeContext &ctx,
                          std::vector<std::uint32_t> *) override
        {
            seenWeights.assign(ctx.weights.begin(), ctx.weights.end());
            return 42;
        }
        const char *name() const override { return "fixed"; }
    };
    // Herald channel 0 can explain the middle pair edge.
    auto dem = chainDem(3, 0.01);
    dem.numHeraldChannels = 1;
    dem.errors[2].channels = {0};
    DecodeGraph g = DecodeGraph::fromDem(dem, chainMeta(3));
    ASSERT_EQ(g.channelEdges(0).size(), 1u);
    const std::uint32_t erased = g.channelEdges(0)[0];

    Fixed fixed;
    EXPECT_EQ(fixed.decodeSpan(Syndrome{0}), 42u);
    EXPECT_TRUE(fixed.seenWeights.empty());

    const std::uint32_t offsets[] = {0, 1}, defects[] = {1};
    const std::uint32_t heraldOffsets[] = {0, 1}, heraldIds[] = {0};
    SyndromeBatch batch;
    batch.offsets = offsets;
    batch.defects = defects;
    batch.heraldOffsets = heraldOffsets;
    batch.heraldIds = heraldIds;
    batch.graph = &g;
    std::uint32_t out = 0;
    BatchDecodeScratch scratch;
    decodeBatchSorted(fixed, batch, {&out, 1}, scratch, /*memo=*/true);
    EXPECT_EQ(out, 42u);
    ASSERT_EQ(fixed.seenWeights.size(), g.edges().size());
    for (std::uint32_t ei = 0; ei < g.edges().size(); ++ei)
        EXPECT_EQ(fixed.seenWeights[ei],
                  ei == erased ? 0.0 : g.edges()[ei].weight)
            << "edge " << ei;
}

TEST(DecodeBatchSorted, DecodeOrderIsStableByDefectCount)
{
    // decodeBatchSorted promises one decode sequence: shots stably
    // sorted by defect count, then (memo on) one row per distinct
    // (defects, heralds) in first-occurrence order.  A recording
    // decoder checks that sequence call by call against the plain
    // std::stable_sort + dedup construction, on seeded batches full
    // of repeats, with heralds, memo on and off, through one scratch
    // that is reused across batch sizes and an epoch wrap.
    constexpr int kDetectors = 24;
    constexpr std::uint32_t kChannels = 4;
    auto dem = chainDem(kDetectors, 0.01);
    dem.numHeraldChannels = kChannels;
    for (std::uint32_t c = 0; c < kChannels; ++c)
        dem.errors[3 + 5 * c].channels = {c};
    const DecodeGraph g =
        DecodeGraph::fromDem(dem, chainMeta(kDetectors));

    // A decode is (defects, edges whose weight the context zeroed);
    // each channel zeroes its own edge, so that set names the
    // heralds.
    using Call = std::pair<std::vector<std::uint32_t>,
                           std::vector<std::uint32_t>>;
    struct Recorder final : Decoder
    {
        std::vector<Call> log;

        /** A content hash of the call, to check the scatter. */
        static std::uint32_t answer(const Call &call)
        {
            std::uint32_t h = 2166136261u;
            for (std::uint32_t x : call.first)
                h = (h ^ x) * 16777619u;
            for (std::uint32_t x : call.second)
                h = (h ^ (x + 1000)) * 16777619u;
            return h;
        }

        std::uint32_t
        decodeWithContext(std::span<const std::uint32_t> syndrome,
                          const DecodeContext &ctx,
                          std::vector<std::uint32_t> *) override
        {
            Call call{{syndrome.begin(), syndrome.end()}, {}};
            for (std::size_t ei = 0; ei < ctx.weights.size(); ++ei)
                if (ctx.weights[ei] == 0.0)
                    call.second.push_back(
                        static_cast<std::uint32_t>(ei));
            log.push_back(call);
            return answer(call);
        }
        const char *name() const override { return "recorder"; }
    };
    auto zeroedBy = [&](std::span<const std::uint32_t> heralds) {
        std::vector<std::uint32_t> edges;
        for (std::uint32_t c : heralds)
            for (std::uint32_t ei : g.channelEdges(c))
                edges.push_back(ei);
        std::sort(edges.begin(), edges.end());
        return edges;
    };

    Rng rng(20250521);
    auto randomSet = [&](std::uint32_t count, std::uint32_t universe) {
        std::vector<std::uint32_t> v;
        while (v.size() < count) {
            const auto x = static_cast<std::uint32_t>(rng.below(universe));
            if (std::find(v.begin(), v.end(), x) == v.end())
                v.push_back(x);
        }
        std::sort(v.begin(), v.end());
        return v;
    };
    // A pool of (defects, heralds) keys, in pairs sharing defects
    // and differing in heralds, drawn with repetition into each
    // batch.
    std::vector<Call> pool;
    for (int k = 0; k < 60; ++k) {
        auto defects = randomSet(
            static_cast<std::uint32_t>(rng.below(9)), kDetectors);
        pool.emplace_back(defects, std::vector<std::uint32_t>{});
        pool.emplace_back(
            defects,
            randomSet(1 + static_cast<std::uint32_t>(rng.below(2)),
                      kChannels));
    }

    BatchDecodeScratch scratch;
    int round = 0;
    for (std::uint64_t n : {512u, 4096u, 512u, 4096u}) {
        std::vector<std::uint32_t> offsets{0}, defects;
        std::vector<std::uint32_t> heraldOffsets{0}, heraldIds;
        for (std::uint64_t s = 0; s < n; ++s) {
            const auto &key = pool[rng.below(pool.size())];
            defects.insert(defects.end(), key.first.begin(),
                           key.first.end());
            heraldIds.insert(heraldIds.end(), key.second.begin(),
                             key.second.end());
            offsets.push_back(static_cast<std::uint32_t>(defects.size()));
            heraldOffsets.push_back(
                static_cast<std::uint32_t>(heraldIds.size()));
        }
        SyndromeBatch batch;
        batch.offsets = offsets;
        batch.defects = defects;
        batch.heraldOffsets = heraldOffsets;
        batch.heraldIds = heraldIds;
        batch.graph = &g;

        std::vector<std::uint32_t> perm(n);
        std::iota(perm.begin(), perm.end(), 0u);
        std::stable_sort(perm.begin(), perm.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                             return batch.syndrome(a).size() <
                                    batch.syndrome(b).size();
                         });
        for (bool memo : {true, false}) {
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " memo=" << memo
                         << " round=" << round);
            std::vector<Call> want;
            std::set<Call> seen;
            for (std::uint32_t s : perm) {
                const auto syn = batch.syndrome(s);
                Call call{{syn.begin(), syn.end()},
                          zeroedBy(batch.heralds(s))};
                if (!memo || seen.insert(call).second)
                    want.push_back(std::move(call));
            }
            // The last round starts at the top of the epoch range,
            // so its memo pass takes the wrap path (stamps cleared,
            // epoch 1) on a table full of earlier rounds' stamps.
            if (round == 3 && memo)
                scratch.memoEpoch = ~std::uint32_t{0};
            Recorder rec;
            std::vector<std::uint32_t> out(n);
            const BatchDecodeStats st =
                decodeBatchSorted(rec, batch, out, scratch, memo);
            EXPECT_EQ(rec.log, want);
            EXPECT_EQ(st.memoHits, n - want.size());
            if (memo) {
                EXPECT_LT(want.size(), n / 2);
            }
            for (std::uint64_t s = 0; s < n; ++s) {
                const auto syn = batch.syndrome(s);
                ASSERT_EQ(out[s],
                          Recorder::answer({{syn.begin(), syn.end()},
                                            zeroedBy(batch.heralds(s))}))
                    << "shot " << s;
            }
        }
        ++round;
    }
}

TEST(DecoderParity, AgreeOnHandBuiltSyndromes)
{
    // On single defects and adjacent pairs of a uniform chain the
    // minimum-weight explanation is unique, so union-find, exact
    // MWPM, and the fallback composite must all agree.
    const int n = 9;
    auto dem = chainDem(n, 0.01);
    DecodeGraph g = DecodeGraph::fromDem(dem, chainMeta(n));
    auto uf = makeDecoder(DecoderKind::UnionFind, g);
    auto mwpm = makeDecoder(DecoderKind::Mwpm, g);
    auto fb = makeDecoder(DecoderKind::Fallback, g);

    std::vector<std::vector<std::uint32_t>> syndromes;
    for (const auto &mech : dem.errors)
        syndromes.push_back(mech.detectors);
    syndromes.push_back({3, 4});
    syndromes.push_back({0, 8});

    for (const auto &syn : syndromes) {
        const std::uint32_t expected = mwpm->decodeSpan(syn);
        EXPECT_EQ(uf->decodeSpan(syn), expected)
            << "uf vs mwpm, |syn|=" << syn.size();
        EXPECT_EQ(fb->decodeSpan(syn), expected)
            << "fallback vs mwpm, |syn|=" << syn.size();
    }
    EXPECT_EQ(fb->fallbacks(), 0u);
}

TEST(FallbackDecoder, RoutesOversizedToUnionFindAndCounts)
{
    auto dem = chainDem(15, 0.01);
    DecodeGraph g = DecodeGraph::fromDem(dem, chainMeta(15));
    FallbackDecoder fb(g, {.mwpmMaxDefects = 2});
    EXPECT_EQ(fb.decodeSpan(Syndrome{4, 5}), 0u);
    EXPECT_EQ(fb.fallbacks(), 0u);
    fb.decodeSpan(Syndrome{0, 4, 5, 9});
    EXPECT_EQ(fb.fallbacks(), 1u);
    fb.reset();
    EXPECT_EQ(fb.fallbacks(), 0u);
}

TEST(Rng, StreamZeroMatchesPlainSeed)
{
    Rng a(12345);
    Rng b(12345, 0);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsAreDistinctAndDeterministic)
{
    Rng s1(777, 1), s2(777, 2), s1again(777, 1);
    bool anyDiff = false;
    for (int i = 0; i < 16; ++i) {
        std::uint64_t x = s1.next();
        anyDiff |= (x != s2.next());
        EXPECT_EQ(x, s1again.next());
    }
    EXPECT_TRUE(anyDiff);
}

TEST(Tally, MergeAddsCounts)
{
    Tally a, b;
    a.ensureBins(2);
    b.ensureBins(2);
    a.shots = 100;
    a.anyHits = 5;
    a.weight = 40;
    a.aux = 1;
    a.binHits = {3, 2};
    b.shots = 50;
    b.anyHits = 1;
    b.weight = 10;
    b.aux = 0;
    b.binHits = {1, 0};
    a.merge(b);
    EXPECT_EQ(a.shots, 150u);
    EXPECT_EQ(a.anyHits, 6u);
    EXPECT_EQ(a.weight, 50u);
    EXPECT_EQ(a.aux, 1u);
    EXPECT_EQ(a.binHits[0], 4u);
    EXPECT_EQ(a.binHits[1], 2u);
    EXPECT_EQ(a.binProportion(0).hits, 4u);
    EXPECT_EQ(a.anyProportion().shots, 150u);
}

TEST(MonteCarloEngine, ThreadCountDoesNotChangeResults)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.01));
    McOptions opts;
    opts.shots = 4000;
    opts.seed = 424242;
    opts.shardShots = 256; // force many shards
    opts.mwpmMaxDefects = 8;

    McResult ref;
    bool first = true;
    for (unsigned threads : {1u, 2u, 4u}) {
        opts.threads = threads;
        auto res = runMonteCarlo(e, opts);
        EXPECT_EQ(res.threadsUsed, threads);
        // Shards are whole sampler batches: shardShots rounded up to
        // 64 * lanes of whichever backend ran.
        const std::uint64_t batch = 64ULL * res.wordLanes;
        const std::uint64_t shardUnit =
            (opts.shardShots + batch - 1) / batch * batch;
        EXPECT_EQ(res.shards,
                  (opts.shots + shardUnit - 1) / shardUnit);
        if (first) {
            ref = res;
            first = false;
            EXPECT_GT(ref.anyObservable.hits, 0u);
            continue;
        }
        EXPECT_EQ(res.shots, ref.shots);
        EXPECT_EQ(res.sampledShots, ref.sampledShots);
        EXPECT_EQ(res.anyObservable.hits, ref.anyObservable.hits);
        ASSERT_EQ(res.perObservable.size(),
                  ref.perObservable.size());
        for (std::size_t k = 0; k < ref.perObservable.size(); ++k)
            EXPECT_EQ(res.perObservable[k].hits,
                      ref.perObservable[k].hits);
        EXPECT_EQ(res.mwpmFallbacks, ref.mwpmFallbacks);
        EXPECT_DOUBLE_EQ(res.avgDefects, ref.avgDefects);
    }
}

TEST(MonteCarloEngine, TailShotsAccountedExactly)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.005));
    McOptions opts;
    opts.shots = 100; // not a multiple of 64
    opts.threads = 1;
    opts.wordBackend = WordBackend::Scalar64;
    auto res = runMonteCarlo(e, opts);
    EXPECT_EQ(res.shots, 100u);
    EXPECT_EQ(res.wordLanes, 1u);
    EXPECT_EQ(res.sampledShots, 128u); // two 64-shot batches
    EXPECT_EQ(res.anyObservable.shots, 100u);
}

TEST(MonteCarloEngine, TailShotsRoundToWideBatches)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.005));
    McOptions opts;
    opts.shots = 100;
    opts.threads = 1;
    opts.wordBackend = WordBackend::Wide512;
    auto res = runMonteCarlo(e, opts);
    const std::uint64_t batch = 64ULL * kWide512WordLanes;
    EXPECT_EQ(res.shots, 100u);
    EXPECT_EQ(res.wordLanes, kWide512WordLanes);
    EXPECT_EQ(res.sampledShots, (100 + batch - 1) / batch * batch);
    EXPECT_EQ(res.anyObservable.shots, 100u);
}

TEST(MonteCarloEngine, UnionFindKindUsesNoFallback)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.02));
    McOptions opts;
    opts.shots = 512;
    opts.decoder = DecoderKind::UnionFind;
    auto res = runMonteCarlo(e, opts);
    EXPECT_EQ(res.mwpmFallbacks, 0u);
}

} // namespace
} // namespace traq::decoder
