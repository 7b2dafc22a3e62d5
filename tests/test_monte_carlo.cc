/**
 * @file
 * Integration tests: end-to-end Monte-Carlo logical-error estimation
 * on memory and transversal-CNOT experiments.  These validate the
 * paper-relevant qualitative behaviours: error suppression with
 * distance below threshold, failure above threshold scaling, and
 * error-rate elevation with CNOT density (the decoding factor).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "src/codes/experiments.hh"
#include "src/common/word.hh"
#include "src/decoder/monte_carlo.hh"

namespace traq::decoder {
namespace {

using codes::NoiseParams;
using codes::SurfaceCode;

TEST(MonteCarlo, NoiselessNeverFails)
{
    SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3, NoiseParams::none());
    McOptions opts;
    opts.shots = 256;
    auto res = runMonteCarlo(e, opts);
    EXPECT_EQ(res.anyObservable.hits, 0u);
    EXPECT_EQ(res.avgDefects, 0.0);
}

TEST(MonteCarlo, HighNoiseFailsOften)
{
    SurfaceCode sc(3);
    auto e =
        codes::buildMemory(sc, 'Z', 3, NoiseParams::uniform(0.08));
    McOptions opts;
    opts.shots = 2048;
    opts.decoder = DecoderKind::UnionFind;
    auto res = runMonteCarlo(e, opts);
    // Far above threshold: logical failure should approach 50%.
    EXPECT_GT(res.perObservable[0].mean, 0.2);
}

TEST(MonteCarlo, DistanceSuppressionBelowThreshold)
{
    // At p = 0.2% (well below the ~0.7-1% circuit threshold), d = 5
    // must beat d = 3 with the matching decoder.
    const double p = 0.002;
    McOptions opts;
    opts.shots = 6000;
    opts.seed = 1234;
    opts.decoder = DecoderKind::Fallback;

    SurfaceCode sc3(3);
    auto e3 = codes::buildMemory(sc3, 'Z', 3,
                                 NoiseParams::uniform(p));
    auto r3 = runMonteCarlo(e3, opts);

    SurfaceCode sc5(5);
    auto e5 = codes::buildMemory(sc5, 'Z', 5,
                                 NoiseParams::uniform(p));
    auto r5 = runMonteCarlo(e5, opts);

    EXPECT_GT(r3.perObservable[0].mean, 0.0);
    EXPECT_LT(r5.perObservable[0].mean, r3.perObservable[0].mean)
        << "d=3: " << r3.perObservable[0].mean
        << " d=5: " << r5.perObservable[0].mean;
}

TEST(MonteCarlo, XBasisMemoryAlsoDecodes)
{
    SurfaceCode sc(3);
    auto e =
        codes::buildMemory(sc, 'X', 3, NoiseParams::uniform(0.003));
    McOptions opts;
    opts.shots = 4000;
    auto res = runMonteCarlo(e, opts);
    // Should be suppressed well below raw physical accumulation.
    EXPECT_LT(res.perObservable[0].mean, 0.05);
}

TEST(MonteCarlo, TransversalCnotDecodes)
{
    codes::TransversalCnotSpec spec;
    spec.distance = 3;
    spec.cnotLayers = 4;
    spec.cnotsPerBatch = 1;
    spec.seRoundsPerBatch = 1;
    spec.noise = NoiseParams::uniform(0.002);
    auto e = codes::buildTransversalCnot(spec);
    McOptions opts;
    opts.shots = 4000;
    auto res = runMonteCarlo(e, opts);
    ASSERT_EQ(res.perObservable.size(), 2u);
    // Both logical qubits decode with suppressed error.
    EXPECT_LT(res.perObservable[0].mean, 0.1);
    EXPECT_LT(res.perObservable[1].mean, 0.1);
    EXPECT_GT(res.avgDefects, 0.0);
}

TEST(MonteCarlo, CnotPackingTradeoffMatchesEq4)
{
    // The heart of Eq. (4): with the total CNOT count fixed, packing
    // more transversal CNOTs per SE round (larger x) lowers the total
    // error below threshold (fewer SE rounds' worth of noise), but
    // the *per-SE-round* error rate is elevated by the (1 + alpha x)
    // factor.  Both effects must be visible.
    McOptions opts;
    opts.shots = 6000;
    opts.seed = 99;
    const double p = 0.004;

    auto run = [&](int cnotsPerBatch) {
        codes::TransversalCnotSpec spec;
        spec.distance = 3;
        spec.cnotLayers = 8;
        spec.cnotsPerBatch = cnotsPerBatch;
        spec.seRoundsPerBatch = 1;
        spec.noise = NoiseParams::uniform(p);
        auto e = codes::buildTransversalCnot(spec);
        auto r = runMonteCarlo(e, opts);
        return r.anyObservable.mean;
    };

    double sparse = run(1);   // 8 SE blocks, x = 1
    double dense = run(4);    // 2 SE blocks, x = 4
    // Total error: dense packing wins below threshold (Fig. 6(b):
    // optimal SE rounds per CNOT <= 1).
    EXPECT_LT(dense, sparse)
        << "dense=" << dense << " sparse=" << sparse;
    // Per-SE-round error: dense is elevated (alpha > 0 in Eq. (4)).
    EXPECT_GT(dense / 2.0, sparse / 8.0)
        << "dense=" << dense << " sparse=" << sparse;
}

TEST(MonteCarlo, MwpmFallbackCounted)
{
    SurfaceCode sc(3);
    auto e =
        codes::buildMemory(sc, 'Z', 3, NoiseParams::uniform(0.05));
    McOptions opts;
    opts.shots = 1024;
    opts.decoder = DecoderKind::Fallback;
    opts.mwpmMaxDefects = 2;   // force frequent fallback
    auto res = runMonteCarlo(e, opts);
    EXPECT_GT(res.mwpmFallbacks, 0u);
}

/** FNV-1a (64-bit) over a stream of 64-bit words, byte by byte. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void add(std::uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

/** Digest of every deterministic McResult count. */
std::uint64_t
countsDigest(const McResult &r)
{
    Fnv1a h;
    h.add(r.shots);
    h.add(r.anyObservable.hits);
    for (const auto &p : r.perObservable)
        h.add(p.hits);
    h.add(r.mwpmFallbacks);
    h.add(r.predecodedPairs);
    h.add(r.heraldedShots);
    h.add(r.memoHits);
    h.add(std::bit_cast<std::uint64_t>(r.avgDefects));
    return h.h;
}

/**
 * Bit-identity lock for the engine's decode path on atom-loss runs:
 * d=3/5 memory and a d=3 transversal CNOT, decoded erasure-aware and
 * erasure-blind, memo on and off, at 1 and 4 threads.  The expected
 * digests were computed with the engine that decoded heralded shots
 * one by one outside decodeBatchSorted; any change to a correction
 * or a count moves them.  The one-lane sampler keeps the stream
 * independent of the word backend a build or TRAQ_WORD_BACKEND picks.
 */
TEST(MonteCarlo, LossRunCountsPinned)
{
    codes::TransversalCnotSpec cnot;
    cnot.distance = 3;
    cnot.cnotLayers = 2;
    cnot.noise = NoiseParams::uniform(2e-3);
    SurfaceCode sc3(3), sc5(5);
    const struct
    {
        const char *name;
        codes::Experiment exp;
        std::uint64_t shots;
        double lossP;
        // Digests indexed [erasureAware][decodeMemo], computed with
        // the per-shot erasure path.
        std::uint64_t pins[2][2];
    } cases[] = {
        {"memory d=3",
         codes::buildMemory(sc3, 'Z', 3, NoiseParams::uniform(2e-3)),
         8192, 5e-3,
         {{0xef42709e2769887aULL, 0x3da954c624573f50ULL},
          {0x0c717f2824f7d450ULL, 0x35751d45efcc9d19ULL}}},
        {"memory d=5",
         codes::buildMemory(sc5, 'Z', 5, NoiseParams::uniform(5e-4)),
         4096, 2e-3,
         {{0x1d44f06ade80414fULL, 0xa220fcdd8e33ff7eULL},
          {0x10bacf5058f5755bULL, 0x66de0b641a708518ULL}}},
        {"cnot d=3", codes::buildTransversalCnot(cnot), 8192, 5e-3,
         {{0x2113e19dcbe59720ULL, 0x201913c302f99da1ULL},
          {0x7a3dc5bce6f70adeULL, 0x893c95a6cd97c20cULL}}},
    };
    for (const auto &c : cases) {
        McOptions opts;
        opts.shots = c.shots;
        opts.seed = 0x1055;
        opts.decoder = DecoderKind::Fallback;
        opts.predecode = 1;
        opts.wordBackend = WordBackend::Scalar64;
        opts.shardShots = 256;
        opts.noiseSpec.setFlat("noise.atom-loss.p", c.lossP);
        MonteCarloEngine engine(c.exp, opts);
        for (int aware : {1, 0}) {
            for (int memo : {1, 0}) {
                for (unsigned threads : {1u, 4u}) {
                    auto o = opts;
                    o.erasureAware = aware != 0;
                    o.decodeMemo = memo;
                    o.threads = threads;
                    const McResult r = engine.run(o);
                    EXPECT_GT(r.heraldedShots, 0u) << c.name;
                    EXPECT_EQ(r.memoHits > 0, memo != 0) << c.name;
                    EXPECT_EQ(countsDigest(r), c.pins[aware][memo])
                        << c.name << " erasureAware=" << aware
                        << " memo=" << memo << " threads=" << threads
                        << " digest 0x" << std::hex
                        << countsDigest(r);
                }
            }
        }
    }
}

} // namespace
} // namespace traq::decoder
