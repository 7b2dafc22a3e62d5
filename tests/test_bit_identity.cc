/**
 * @file
 * Transpose extraction, decode memoization and MWPM reach-cache
 * invariants.
 *
 * The standing contract of every throughput knob in this codebase is
 * bit-identity: the transpose extractor, the per-batch decode memo
 * and the Dijkstra reach cache may only change *when* work happens,
 * never what comes out.  These tests lock that in — CSR blocks
 * against the scalar reference extractor, decodeBatchSorted against
 * per-shot decoding for every kind on clean and heralded batches,
 * and engine results across memo / cache / thread-count settings —
 * plus the loud-failure contract of the TRAQ_DECODE_MEMO /
 * TRAQ_REACH_CACHE environment variables.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/decoder/compile_cache.hh"
#include "src/decoder/decoder.hh"
#include "src/decoder/monte_carlo.hh"
#include "src/noise/noise.hh"
#include "src/sim/frame.hh"

namespace {

using namespace traq;

/** Save/restore one environment variable around a test. */
class EnvGuard
{
  public:
    explicit EnvGuard(const char *name) : name_(name)
    {
        if (const char *v = std::getenv(name))
            saved_ = v;
        else
            wasSet_ = false;
    }
    ~EnvGuard()
    {
        if (wasSet_)
            setenv(name_, saved_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::string saved_;
    bool wasSet_ = true;
};

/** Memory experiment with atom-loss noise (herald-emitting). */
sim::Circuit
heraldedMemoryCircuit(int d, double p, double lossP)
{
    codes::SurfaceCode sc(d);
    auto e =
        codes::buildMemory(sc, 'Z', d, codes::NoiseParams::uniform(p));
    noise::NoiseSpec spec;
    spec.setFlat("noise.atom-loss.p", lossP);
    return noise::NoiseModel::fromSpec(spec).compile(e.circuit);
}

void
expectBlocksEqual(const sim::SyndromeBlock &a,
                  const sim::SyndromeBlock &b, const std::string &what)
{
    EXPECT_EQ(a.offsets, b.offsets) << what;
    EXPECT_EQ(a.defects, b.defects) << what;
    EXPECT_EQ(a.observables, b.observables) << what;
    EXPECT_EQ(a.heraldOffsets, b.heraldOffsets) << what;
    EXPECT_EQ(a.heraldIds, b.heraldIds) << what;
}

TEST(TransposeExtraction, MatchesScalarReference)
{
    const sim::Circuit circuit =
        heraldedMemoryCircuit(3, 0.01, 0.02);
    for (unsigned lanes : {1u, 3u, 8u}) {
        sim::FrameSimulator fs(7, lanes);
        sim::FrameBatch batch;
        fs.sampleInto(circuit, batch);
        // Full mask, then a ragged partial mask (dead tail shots,
        // holes in the middle).
        std::vector<std::uint64_t> full(lanes, ~0ULL);
        std::vector<std::uint64_t> partial(lanes);
        for (unsigned l = 0; l < lanes; ++l)
            partial[l] = 0x5a5a00ff0f0f33ccULL >> l;
        for (const auto &mask : {full, partial}) {
            sim::SyndromeBlock ref, got;
            sim::extractSyndromeBlockScalar(batch, mask, ref);
            sim::extractSyndromeBlock(batch, mask, got);
            expectBlocksEqual(got, ref,
                              "lanes=" + std::to_string(lanes));
        }
    }
}

TEST(TransposeExtraction, HandlesZeroPlanesAndHandMadeBits)
{
    // Hand-built batch: 2 lanes, 70 detector planes (tests the
    // all-zero tile fast path and the 64-crossing plane ids), 2
    // observables, 3 herald channels.
    sim::FrameBatch batch;
    batch.lanes = 2;
    batch.detectors.assign(70 * 2, 0);
    batch.observables.assign(2 * 2, 0);
    batch.heralds.assign(3 * 2, 0);
    auto set = [&](std::vector<std::uint64_t> &planes,
                   std::size_t plane, std::uint64_t shot) {
        planes[plane * 2 + shot / 64] |= 1ULL << (shot % 64);
    };
    set(batch.detectors, 0, 0);
    set(batch.detectors, 0, 63);
    set(batch.detectors, 1, 64);
    set(batch.detectors, 65, 127);
    set(batch.detectors, 69, 1);
    set(batch.detectors, 69, 127);
    set(batch.observables, 1, 1);
    set(batch.observables, 0, 127);
    set(batch.heralds, 2, 0);
    set(batch.heralds, 0, 90);

    const std::vector<std::uint64_t> mask = {~0ULL,
                                             ~(1ULL << 63)};
    sim::SyndromeBlock ref;
    sim::extractSyndromeBlockScalar(batch, mask, ref);
    // Spot-check the reference itself before locking others to it.
    EXPECT_EQ(ref.syndrome(0).size(), 1u);
    EXPECT_EQ(ref.syndrome(0)[0], 0u);
    EXPECT_EQ(ref.syndrome(1).size(), 1u);
    EXPECT_EQ(ref.syndrome(1)[0], 69u);
    ASSERT_EQ(ref.syndrome(127).size(), 0u);  // masked out
    EXPECT_EQ(ref.heralds(90).size(), 1u);
    EXPECT_EQ(ref.heralds(90)[0], 0u);
    EXPECT_EQ(ref.observables[1], 2u);

    sim::SyndromeBlock got;
    sim::extractSyndromeBlock(batch, mask, got);
    expectBlocksEqual(got, ref, "hand-made batch");
}

TEST(DecodeMemoEnv, TriStateAndLoudness)
{
    EnvGuard guard("TRAQ_DECODE_MEMO");
    unsetenv("TRAQ_DECODE_MEMO");
    EXPECT_TRUE(decoder::resolveDecodeMemo(-1));  // default ON
    EXPECT_FALSE(decoder::resolveDecodeMemo(0));
    EXPECT_TRUE(decoder::resolveDecodeMemo(1));

    ASSERT_EQ(setenv("TRAQ_DECODE_MEMO", "off", 1), 0);
    EXPECT_FALSE(decoder::resolveDecodeMemo(-1));
    EXPECT_TRUE(decoder::resolveDecodeMemo(1));  // forced wins
    ASSERT_EQ(setenv("TRAQ_DECODE_MEMO", "1", 1), 0);
    EXPECT_TRUE(decoder::resolveDecodeMemo(-1));
    ASSERT_EQ(setenv("TRAQ_DECODE_MEMO", "", 1), 0);
    EXPECT_TRUE(decoder::resolveDecodeMemo(-1));  // empty = default
    ASSERT_EQ(setenv("TRAQ_DECODE_MEMO", "maybe", 1), 0);
    EXPECT_THROW(decoder::resolveDecodeMemo(-1), FatalError);
}

TEST(ReachCacheEnv, TriStateAndLoudness)
{
    EnvGuard guard("TRAQ_REACH_CACHE");
    unsetenv("TRAQ_REACH_CACHE");
    EXPECT_TRUE(decoder::resolveReachCache(-1));  // default ON
    EXPECT_FALSE(decoder::resolveReachCache(0));
    EXPECT_TRUE(decoder::resolveReachCache(1));

    ASSERT_EQ(setenv("TRAQ_REACH_CACHE", "false", 1), 0);
    EXPECT_FALSE(decoder::resolveReachCache(-1));
    ASSERT_EQ(setenv("TRAQ_REACH_CACHE", "on", 1), 0);
    EXPECT_TRUE(decoder::resolveReachCache(-1));
    ASSERT_EQ(setenv("TRAQ_REACH_CACHE", "2", 1), 0);
    EXPECT_THROW(decoder::resolveReachCache(-1), FatalError);
}

/** d=3 memory syndromes packed into CSR, capped at `maxDefects` so
 *  even the bare MWPM kind accepts every row.  With `lossP` > 0 the
 *  circuit carries atom loss, and each shot's fired herald channels
 *  are packed alongside. */
struct SampledBatch
{
    std::vector<std::uint32_t> offsets{0};
    std::vector<std::uint32_t> defects;
    std::vector<std::uint32_t> heraldOffsets{0};
    std::vector<std::uint32_t> heraldIds;

    explicit SampledBatch(std::size_t maxDefects, double lossP = 0.0)
    {
        codes::SurfaceCode sc(3);
        exp = std::make_unique<codes::Experiment>(codes::buildMemory(
            sc, 'Z', 3, codes::NoiseParams::uniform(0.004)));
        noise::NoiseSpec spec;
        if (lossP > 0.0)
            spec.setFlat("noise.atom-loss.p", lossP);
        setup = decoder::compileDecodeSetup(*exp, spec, false);
        const sim::Circuit &circuit =
            setup->compiled ? *setup->compiled : exp->circuit;
        sim::FrameSimulator fs(21, 8);
        sim::FrameBatch batch;
        sim::SyndromeBlock block;
        const std::vector<std::uint64_t> live(8, ~0ULL);
        for (int rep = 0; rep < 2; ++rep) {
            fs.sampleInto(circuit, batch);
            sim::extractSyndromeBlock(batch, live, block);
            for (std::uint64_t s = 0; s < block.shots(); ++s) {
                const auto syn = block.syndrome(s);
                if (syn.size() > maxDefects)
                    continue;
                defects.insert(defects.end(), syn.begin(),
                               syn.end());
                offsets.push_back(static_cast<std::uint32_t>(
                    defects.size()));
                const auto her = block.heralds(s);
                heraldIds.insert(heraldIds.end(), her.begin(),
                                 her.end());
                heraldOffsets.push_back(static_cast<std::uint32_t>(
                    heraldIds.size()));
            }
        }
    }

    const decoder::DecodeGraph &graph() const { return setup->graph; }

    /** Batch view; heralded when the fixture carries atom loss. */
    decoder::SyndromeBatch view() const
    {
        decoder::SyndromeBatch b;
        b.offsets = offsets;
        b.defects = defects;
        if (!heraldIds.empty()) {
            b.heraldOffsets = heraldOffsets;
            b.heraldIds = heraldIds;
            b.graph = &setup->graph;
        }
        return b;
    }
    std::uint64_t shots() const { return offsets.size() - 1; }

    std::unique_ptr<codes::Experiment> exp;
    std::shared_ptr<const decoder::CompiledDecodeSetup> setup;
};

TEST(DecodeBatchSorted, MemoOnOffBitIdenticalForAllKinds)
{
    // A clean d=3 memory batch and the same circuit with atom loss,
    // whose heralded shots must decode under herald-zeroed weights.
    for (double lossP : {0.0, 0.01}) {
        const SampledBatch fixture(12, lossP);
        const auto view = fixture.view();
        const decoder::DecodeGraph &g = fixture.graph();
        const std::uint64_t n = fixture.shots();
        ASSERT_GT(n, 128u);
        std::uint64_t heralded = 0;
        for (std::uint64_t s = 0; s < n; ++s)
            heralded += !view.heralds(s).empty();
        if (lossP > 0.0)
            ASSERT_GT(heralded, 0u);

        for (decoder::DecoderKind kind :
             decoder::registeredDecoderKinds()) {
            decoder::DecoderConfig cfg;
            cfg.predecode = 1;  // exercise peel-counter replay too
            auto decPlain = decoder::makeDecoder(kind, g, cfg);
            auto decOff = decoder::makeDecoder(kind, g, cfg);
            auto decOn = decoder::makeDecoder(kind, g, cfg);
            const std::string name =
                std::string(decoder::decoderKindName(kind)) +
                " loss " + std::to_string(lossP);

            // Reference: straight per-shot decoding in shot order;
            // a heralded shot zeroes the weight of every edge its
            // fired channels can explain.
            std::vector<double> weights;
            for (const auto &e : g.edges())
                weights.push_back(e.weight);
            std::vector<std::uint32_t> ref(n);
            for (std::uint64_t s = 0; s < n; ++s) {
                const auto heralds = view.heralds(s);
                decoder::DecodeContext ctx;
                for (std::uint32_t c : heralds)
                    for (std::uint32_t ei : g.channelEdges(c))
                        weights[ei] = 0.0;
                if (!heralds.empty())
                    ctx.weights = weights;
                ref[s] = decPlain->decodeWithContext(view.syndrome(s),
                                                     ctx);
                for (std::uint32_t c : heralds)
                    for (std::uint32_t ei : g.channelEdges(c))
                        weights[ei] = g.edges()[ei].weight;
            }

            decoder::BatchDecodeScratch scratch;
            std::vector<std::uint32_t> outOff(n), outOn(n);
            const auto stOff = decoder::decodeBatchSorted(
                *decOff, view, outOff, scratch, false);
            const auto stOn = decoder::decodeBatchSorted(
                *decOn, view, outOn, scratch, true);

            EXPECT_EQ(outOff, ref) << name;
            EXPECT_EQ(outOn, ref) << name;
            EXPECT_EQ(stOff.memoHits, 0u) << name;
            EXPECT_GT(stOn.memoHits, 0u) << name;
            // Counter-delta replay: decoder counters + replayed
            // deltas agree with the non-memo decode exactly, and the
            // non-memo decode with the per-shot reference.
            EXPECT_EQ(decOff->fallbacks(), decPlain->fallbacks())
                << name;
            EXPECT_EQ(decOn->fallbacks() + stOn.replayedFallbacks,
                      decOff->fallbacks())
                << name;
            EXPECT_EQ(decOn->predecodedPairs() + stOn.replayedPeels,
                      decOff->predecodedPairs())
                << name;
        }
    }
}

TEST(ReachCache, OnOffBitIdenticalForAllKinds)
{
    const SampledBatch fixture(12);
    const auto view = fixture.view();
    const std::uint64_t n = fixture.shots();

    for (decoder::DecoderKind kind :
         decoder::registeredDecoderKinds()) {
        decoder::DecoderConfig on, off;
        on.reachCache = 1;
        off.reachCache = 0;
        auto decOn = decoder::makeDecoder(kind, fixture.graph(), on);
        auto decOff =
            decoder::makeDecoder(kind, fixture.graph(), off);
        for (std::uint64_t s = 0; s < n; ++s)
            EXPECT_EQ(decOn->decodeSpan(view.syndrome(s)),
                      decOff->decodeSpan(view.syndrome(s)))
                << decoder::decoderKindName(kind) << " shot " << s;
    }
}

/** Engine results that must be invariant under throughput knobs. */
struct EngineSignature
{
    std::uint64_t anyHits, fallbacks, peels, heralded;
    std::vector<std::uint64_t> perObs;

    explicit EngineSignature(const decoder::McResult &r)
        : anyHits(r.anyObservable.hits), fallbacks(r.mwpmFallbacks),
          peels(r.predecodedPairs), heralded(r.heraldedShots)
    {
        for (const auto &p : r.perObservable)
            perObs.push_back(p.hits);
    }
    bool operator==(const EngineSignature &) const = default;
};

TEST(Engine, MemoThreadAndDispatchInvarianceBatchPath)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.003));
    decoder::McOptions opts;
    opts.shots = 6000;
    opts.seed = 77;
    opts.predecode = 1;

    opts.decodeMemo = 1;
    opts.threads = 1;
    decoder::MonteCarloEngine engine(e, opts);
    const auto base = engine.run(opts);
    const EngineSignature want(base);
    EXPECT_GT(base.memoHits, 0u);

    for (int memo : {0, 1}) {
        for (unsigned threads : {1u, 2u, 4u}) {
            auto o = opts;
            o.decodeMemo = memo;
            o.threads = threads;
            const auto res = engine.run(o);
            EXPECT_EQ(EngineSignature(res), want)
                << "memo=" << memo << " threads=" << threads;
            if (!memo)
                EXPECT_EQ(res.memoHits, 0u);
        }
    }

    // Reach cache off: same answers again.
    auto o = opts;
    o.reachCache = 0;
    EXPECT_EQ(EngineSignature(engine.run(o)), want);
}

TEST(Engine, MemoInvarianceErasurePath)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.002));
    decoder::McOptions opts;
    opts.shots = 4096;
    opts.seed = 31;
    opts.noiseSpec.setFlat("noise.atom-loss.p", 0.01);
    ASSERT_TRUE(opts.erasureAware);

    opts.decodeMemo = 1;
    opts.threads = 1;
    decoder::MonteCarloEngine engine(e, opts);
    const auto base = engine.run(opts);
    const EngineSignature want(base);
    EXPECT_GT(base.heraldedShots, 0u);
    EXPECT_GT(base.memoHits, 0u);

    for (int memo : {0, 1}) {
        for (unsigned threads : {1u, 2u}) {
            auto o = opts;
            o.decodeMemo = memo;
            o.threads = threads;
            const auto res = engine.run(o);
            EXPECT_EQ(EngineSignature(res), want)
                << "memo=" << memo << " threads=" << threads;
        }
    }
}

} // namespace
