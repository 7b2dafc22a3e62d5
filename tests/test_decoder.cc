/**
 * @file
 * Tests for decoding-graph construction, the union-find decoder, and
 * the exact MWPM decoder on hand-built graphs and small experiments:
 * optimality against a brute-force oracle on real d=3 graphs and the
 * d=5 lossy CNOT graph (where the matcher cuts most far-apart pairs),
 * a digest that pins the corrections of the lossy transversal-CNOT
 * workload bit for bit, and one that pins union-find on clusters
 * large enough to deduplicate their frontiers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <string>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/common/rng.hh"
#include "src/decoder/compile_cache.hh"
#include "src/decoder/correlated.hh"
#include "src/decoder/decode_graph.hh"
#include "src/decoder/fallback.hh"
#include "src/decoder/mwpm.hh"
#include "src/decoder/union_find.hh"
#include "src/decoder/windowed.hh"
#include "src/noise/noise.hh"
#include "src/sim/dem.hh"
#include "src/sim/frame.hh"

namespace traq::decoder {
namespace {

using codes::CircuitMeta;
using sim::DetectorErrorModel;
using sim::ErrorMechanism;

/** A hand-written syndrome (decodeSpan takes no braced list). */
using Syndrome = std::vector<std::uint32_t>;

/** Hand-built DEM: a 1D repetition-code-like chain of n detectors. */
DetectorErrorModel
chainDem(int n, double p)
{
    DetectorErrorModel dem;
    dem.numDetectors = n;
    dem.numObservables = 1;
    // Boundary edge at node 0 carries the observable.
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

/** d=3 Z-memory graph at p = 1e-3. */
DecodeGraph
memoryGraph()
{
    codes::SurfaceCode sc(3);
    return DecodeGraph::build(codes::buildMemory(
        sc, 'Z', 3, codes::NoiseParams::uniform(1e-3)));
}

/** The lossy transversal-CNOT circuit family of the Monte-Carlo
 *  benchmark: 8 CX layers, 2 per SE block, p = 1e-3, atom loss. */
std::shared_ptr<const CompiledDecodeSetup>
cnotLossSetup(int d)
{
    codes::TransversalCnotSpec spec;
    spec.distance = d;
    spec.cnotLayers = 8;
    spec.cnotsPerBatch = 2;
    spec.noise = codes::NoiseParams::uniform(1e-3);
    noise::NoiseSpec ns;
    ns.setFlat("noise.atom-loss.p", 0.002);
    return compileDecodeSetup(codes::buildTransversalCnot(spec), ns,
                              /*useCache=*/false);
}

/** The matcher's metric: weight (context override wins) clamped to
 *  >= 0, plus the per-edge tie-break epsilon. */
double
matchMetric(const DecodeGraph &g, std::uint32_t ei,
            const DecodeContext &ctx)
{
    const double w =
        ctx.weights.empty() ? g.edges()[ei].weight : ctx.weights[ei];
    return (w < 0.0 ? 0.0 : w) + tieBreakEpsilon(ei);
}

/** Minimum-weight pairing found by the brute-force oracle. */
struct OracleMatch
{
    bool feasible = false;
    double cost = 0.0;
    std::uint32_t obs = 0;
};

/**
 * Reference matcher sharing nothing with MwpmDecoder but the metric:
 * a textbook Dijkstra from every defect (all pairs plus the boundary
 * exit, round horizon honored), then exhaustive enumeration of every
 * pairing of the defects with each other and the boundary.
 */
OracleMatch
bruteForceMatching(const DecodeGraph &g,
                   const std::vector<std::uint32_t> &syn,
                   const DecodeContext &ctx)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    struct Path
    {
        double dist = inf;
        std::uint32_t obs = 0;
    };
    const std::size_t m = syn.size();
    std::vector<std::vector<Path>> pair(m, std::vector<Path>(m));
    std::vector<Path> exit(m);
    for (std::size_t i = 0; i < m; ++i) {
        std::vector<double> dist(g.numNodes(), inf);
        std::vector<std::uint32_t> obs(g.numNodes(), 0);
        using Item = std::pair<double, std::uint32_t>;
        std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
        dist[syn[i]] = 0.0;
        pq.emplace(0.0, syn[i]);
        while (!pq.empty()) {
            const auto [d, u] = pq.top();
            pq.pop();
            if (d > dist[u])
                continue;
            for (std::uint32_t ei : g.incident(u)) {
                const GraphEdge &e = g.edges()[ei];
                if (ctx.maxRound >= 0 && e.round > ctx.maxRound)
                    continue;
                const double nd = d + matchMetric(g, ei, ctx);
                if (e.u == kBoundary) {
                    if (nd < exit[i].dist)
                        exit[i] = {nd, obs[u] ^ e.observables};
                    continue;
                }
                const auto v = static_cast<std::uint32_t>(
                    static_cast<std::uint32_t>(e.u) == u ? e.v : e.u);
                if (nd < dist[v]) {
                    dist[v] = nd;
                    obs[v] = obs[u] ^ e.observables;
                    pq.emplace(nd, v);
                }
            }
        }
        for (std::size_t j = 0; j < m; ++j)
            pair[i][j] = {dist[syn[j]], obs[syn[j]]};
    }

    OracleMatch best;
    best.cost = inf;
    auto enumerate = [&](auto &self, std::uint32_t mask, double cost,
                         std::uint32_t obs) -> void {
        if (mask == 0) {
            if (cost < best.cost)
                best = {true, cost, obs};
            return;
        }
        const int i = __builtin_ctz(mask);
        const std::uint32_t rest = mask & (mask - 1);
        if (exit[i].dist < inf)
            self(self, rest, cost + exit[i].dist, obs ^ exit[i].obs);
        for (std::uint32_t sub = rest; sub; sub &= sub - 1) {
            const int j = __builtin_ctz(sub);
            if (pair[i][j].dist < inf)
                self(self, rest ^ (1u << j), cost + pair[i][j].dist,
                     obs ^ pair[i][j].obs);
        }
    };
    enumerate(enumerate, (1u << m) - 1, 0.0, 0);
    return best;
}

/**
 * 200 seeded defect sets of 2-10 defects per condition — default
 * weights, herald-zeroed context weights (plus a few negative ones
 * to exercise the clamp), and a round horizon with defects drawn
 * from the visible rounds — decoded by MWPM with the reach cache on
 * and off; the correction must be the oracle's and the cost summed
 * over the used edges must equal the oracle's optimum.
 */
void
expectOptimalOnGraph(const DecodeGraph &g, std::uint64_t seed)
{
    Rng rng(seed);
    MwpmDecoder cached(
        g, {.mwpmMaxDefects = 22, .predecode = 0, .reachCache = 1});
    MwpmDecoder uncached(
        g, {.mwpmMaxDefects = 22, .predecode = 0, .reachCache = 0});
    std::vector<double> weights;
    std::vector<std::uint32_t> used;
    for (int condition = 0; condition < 3; ++condition) {
        for (int trial = 0; trial < 200; ++trial) {
            DecodeContext ctx;
            std::vector<std::uint32_t> eligible;
            if (condition == 2)
                ctx.maxRound = static_cast<std::int32_t>(
                    rng.below(static_cast<std::uint64_t>(
                        g.numRounds())));
            for (std::uint32_t n = 0; n < g.numNodes(); ++n)
                if (ctx.maxRound < 0 ||
                    g.detectorRound(n) <= ctx.maxRound)
                    eligible.push_back(n);
            if (eligible.size() < 2)
                continue;
            if (condition == 1) {
                // Graphs without herald channels get random edges
                // zeroed instead.
                weights.clear();
                for (const GraphEdge &e : g.edges())
                    weights.push_back(e.weight);
                const std::uint64_t zeroings = 1 + rng.below(3);
                for (std::uint64_t k = 0; k < zeroings; ++k) {
                    if (g.numHeraldChannels() > 0) {
                        const auto c = static_cast<std::uint32_t>(
                            rng.below(g.numHeraldChannels()));
                        for (std::uint32_t ei : g.channelEdges(c))
                            weights[ei] = 0.0;
                    } else {
                        weights[rng.below(weights.size())] = 0.0;
                    }
                }
                for (int k = 0; k < 2; ++k)
                    weights[rng.below(weights.size())] = -1.0;
                ctx.weights = weights;
            }
            const std::size_t k = std::min<std::size_t>(
                2 + rng.below(9), eligible.size());
            for (std::size_t a = 0; a < k; ++a)
                std::swap(eligible[a],
                          eligible[a + rng.below(eligible.size() - a)]);
            std::vector<std::uint32_t> syn(eligible.begin(),
                                           eligible.begin() + k);
            std::sort(syn.begin(), syn.end());

            const OracleMatch want = bruteForceMatching(g, syn, ctx);
            for (MwpmDecoder *dec : {&cached, &uncached}) {
                used.clear();
                if (!want.feasible) {
                    EXPECT_THROW(dec->decodeWithContext(syn, ctx, &used),
                                 FatalError);
                    continue;
                }
                const std::uint32_t got =
                    dec->decodeWithContext(syn, ctx, &used);
                double cost = 0.0;
                for (std::uint32_t ei : used)
                    cost += matchMetric(g, ei, ctx);
                EXPECT_EQ(got, want.obs)
                    << "condition " << condition << " trial " << trial;
                EXPECT_NEAR(cost, want.cost, 1e-9)
                    << "condition " << condition << " trial " << trial;
            }
        }
    }
}

/** FNV-1a (64-bit) over a stream of 32-bit words, byte by byte. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void add(std::uint32_t x)
    {
        for (int b = 0; b < 4; ++b) {
            h ^= (x >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
};

TEST(Graph, ChainStructure)
{
    auto dem = chainDem(4, 0.01);
    DecodeGraph g = DecodeGraph::fromDem(dem, chainMeta(4));
    EXPECT_EQ(g.numNodes(), 4u);
    EXPECT_EQ(g.edges().size(), 5u);
    EXPECT_EQ(g.numUnsplittable(), 0u);
    EXPECT_EQ(g.numUndetectableLogical(), 0u);
    // Node 0 must touch 2 edges (boundary + chain).
    EXPECT_EQ(g.incident(0).size(), 2u);
    EXPECT_EQ(g.incident(1).size(), 2u);
}

TEST(Graph, MergesParallelMechanisms)
{
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 0;
    ErrorMechanism a;
    a.probability = 0.1;
    a.detectors = {0, 1};
    dem.errors.push_back(a);
    dem.errors.push_back(a);
    CircuitMeta meta;
    meta.detectorIsX.assign(2, 0);
    DecodeGraph g = DecodeGraph::fromDem(dem, meta);
    ASSERT_EQ(g.edges().size(), 1u);
    EXPECT_NEAR(g.edges()[0].probability, 0.1 * 0.9 + 0.9 * 0.1,
                1e-12);
}

TEST(Graph, SplitsByBasis)
{
    // A Y-like mechanism touching one X-basis and one Z-basis
    // detector becomes two boundary edges, one per basis subgraph.
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    ErrorMechanism y;
    y.probability = 0.05;
    y.detectors = {0, 1};
    y.observables = 1;
    dem.errors.push_back(y);
    CircuitMeta meta;
    meta.detectorIsX = {0, 1};   // detector 0 Z-basis, detector 1 X
    meta.observableIsX = {0};    // Z observable
    DecodeGraph g = DecodeGraph::fromDem(dem, meta);
    ASSERT_EQ(g.edges().size(), 2u);
    // The Z-basis part (detector 0) carries the observable.
    for (const auto &e : g.edges()) {
        if (e.v == 0)
            EXPECT_EQ(e.observables, 1u);
        else
            EXPECT_EQ(e.observables, 0u);
    }
}

TEST(Graph, CountsUndetectableLogical)
{
    DetectorErrorModel dem;
    dem.numDetectors = 1;
    dem.numObservables = 1;
    ErrorMechanism bad;
    bad.probability = 0.01;
    bad.detectors = {};
    bad.observables = 1;
    dem.errors.push_back(bad);
    CircuitMeta meta;
    meta.detectorIsX = {0};
    meta.observableIsX = {0};
    DecodeGraph g = DecodeGraph::fromDem(dem, meta);
    EXPECT_EQ(g.numUndetectableLogical(), 1u);
}

class ChainDecoders
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ChainDecoders, SingleErrorsCorrected)
{
    auto [n, which] = GetParam();
    auto dem = chainDem(n, 0.01);
    DecodeGraph g = DecodeGraph::fromDem(dem, chainMeta(n));
    UnionFindDecoder uf(g);
    MwpmDecoder mwpm(g);
    // Every single mechanism's syndrome must decode back to its own
    // observable effect.
    for (const auto &mech : dem.errors) {
        std::uint32_t predicted =
            which == 0 ? uf.decodeSpan(mech.detectors)
                       : mwpm.decodeSpan(mech.detectors);
        EXPECT_EQ(predicted, mech.observables);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ChainDecoders,
    ::testing::Combine(::testing::Values(3, 5, 9, 15),
                       ::testing::Values(0, 1)));

TEST(UnionFind, EmptySyndromeIsTrivial)
{
    auto dem = chainDem(5, 0.01);
    DecodeGraph g = DecodeGraph::fromDem(dem, chainMeta(5));
    UnionFindDecoder uf(g);
    EXPECT_EQ(uf.decodeSpan({}), 0u);
}

TEST(UnionFind, PairPreferredOverDoubleBoundary)
{
    // Two adjacent defects in the middle of a long chain should be
    // matched together (no logical flip), not via two boundary exits.
    auto dem = chainDem(9, 0.01);
    DecodeGraph g = DecodeGraph::fromDem(dem, chainMeta(9));
    UnionFindDecoder uf(g);
    EXPECT_EQ(uf.decodeSpan(Syndrome{4, 5}), 0u);
}

TEST(UnionFind, EdgeDefectExitsBoundary)
{
    auto dem = chainDem(9, 0.01);
    DecodeGraph g = DecodeGraph::fromDem(dem, chainMeta(9));
    UnionFindDecoder uf(g);
    // Defect at node 0: nearest explanation is the left boundary
    // edge, which flips the observable.
    EXPECT_EQ(uf.decodeSpan(Syndrome{0}), 1u);
    // Defect at the right end: right boundary, no observable.
    EXPECT_EQ(uf.decodeSpan(Syndrome{8}), 0u);
}

TEST(Mwpm, MatchesBruteForceOnSmallGraphs)
{
    // Triangle-ish graph with distinct weights; enumerate all defect
    // subsets of size <= 4 and compare MWPM to exhaustive search over
    // edge subsets.
    DetectorErrorModel dem;
    dem.numDetectors = 4;
    dem.numObservables = 1;
    auto addE = [&](std::vector<std::uint32_t> d, double p,
                    std::uint32_t obs) {
        ErrorMechanism e;
        e.detectors = std::move(d);
        e.probability = p;
        e.observables = obs;
        dem.errors.push_back(e);
    };
    addE({0}, 0.03, 1);
    addE({0, 1}, 0.01, 0);
    addE({1, 2}, 0.02, 0);
    addE({2, 3}, 0.01, 1);
    addE({3}, 0.015, 0);
    addE({0, 2}, 0.004, 1);
    CircuitMeta meta;
    meta.detectorIsX.assign(4, 0);
    meta.observableIsX.assign(1, 0);
    DecodeGraph g = DecodeGraph::fromDem(dem, meta);
    MwpmDecoder mwpm(g);

    // Brute force: over all subsets of mechanisms, find min weight
    // subset reproducing the syndrome; compare observable parity.
    auto bruteForce = [&](const std::vector<std::uint32_t> &syn) {
        double bestW = 1e300;
        std::uint32_t bestObs = 0;
        const std::size_t m = dem.errors.size();
        for (std::size_t mask = 0; mask < (1u << m); ++mask) {
            std::vector<int> par(4, 0);
            double w = 0;
            std::uint32_t obs = 0;
            for (std::size_t i = 0; i < m; ++i) {
                if (!(mask & (1u << i)))
                    continue;
                const auto &e = dem.errors[i];
                for (auto d : e.detectors)
                    par[d] ^= 1;
                obs ^= e.observables;
                w += std::log((1 - e.probability) / e.probability);
            }
            std::vector<int> want(4, 0);
            for (auto d : syn)
                want[d] = 1;
            if (par == want && w < bestW) {
                bestW = w;
                bestObs = obs;
            }
        }
        return bestObs;
    };

    std::vector<std::vector<std::uint32_t>> syndromes = {
        {}, {0}, {1}, {3}, {0, 1}, {1, 2}, {0, 3}, {1, 3},
        {0, 1, 2, 3}, {0, 2}, {2, 3}, {0, 1, 3},
    };
    for (const auto &syn : syndromes) {
        if (syn.empty()) {
            EXPECT_EQ(mwpm.decodeSpan(syn), 0u);
            continue;
        }
        EXPECT_EQ(mwpm.decodeSpan(syn), bruteForce(syn))
            << "syndrome size " << syn.size();
    }

    // Real graphs against the all-pairs + enumeration oracle.
    expectOptimalOnGraph(memoryGraph(), 0x6d656d);
    expectOptimalOnGraph(cnotLossSetup(3)->graph, 0x636e6f74);
    expectOptimalOnGraph(cnotLossSetup(5)->graph, 0x636e6f7435);
}

TEST(Mwpm, UnmatchableDefectThrowsNamingIt)
{
    // Detectors 0-1 form a chain with boundary exits; 2-3-5 are
    // mutually reachable but cut off from the boundary; detector 4
    // has no mechanism at all.
    DetectorErrorModel dem;
    dem.numDetectors = 6;
    dem.numObservables = 1;
    auto addE = [&](std::vector<std::uint32_t> d, std::uint32_t obs) {
        ErrorMechanism e;
        e.detectors = std::move(d);
        e.probability = 0.01;
        e.observables = obs;
        dem.errors.push_back(e);
    };
    addE({0}, 1);
    addE({0, 1}, 0);
    addE({1}, 0);
    addE({2, 3}, 0);
    addE({3, 5}, 0);
    CircuitMeta meta;
    meta.detectorIsX.assign(6, 0);
    meta.observableIsX.assign(1, 0);
    DecodeGraph g = DecodeGraph::fromDem(dem, meta);

    for (int cache : {0, 1}) {
        MwpmDecoder mwpm(g, {.mwpmMaxDefects = 18,
                             .predecode = 0,
                             .reachCache = cache});
        auto failure = [&](std::vector<std::uint32_t> syn) {
            try {
                mwpm.decodeSpan(syn);
            } catch (const FatalError &e) {
                return std::string(e.what());
            }
            return std::string("no error");
        };
        EXPECT_NE(failure({4}).find("defect 4 reaches neither"),
                  std::string::npos);
        EXPECT_NE(failure({0, 4}).find("defect 4"), std::string::npos);
        EXPECT_NE(failure({0, 2}).find("defect 2 reaches neither"),
                  std::string::npos);
        EXPECT_NE(failure({2, 3, 5}).find("defect 2 is one of 3"),
                  std::string::npos);
        // Even groups and boundary-connected defects still match.
        EXPECT_EQ(mwpm.decodeSpan(Syndrome{2, 3}), 0u);
        EXPECT_EQ(mwpm.decodeSpan(Syndrome{0, 3, 5}), 1u);
        // Union-find leaves such defects unmatched without failing.
        UnionFindDecoder uf(g);
        EXPECT_NO_THROW(uf.decodeSpan(Syndrome{4}));
    }
}

/**
 * Bit-identity lock for the matcher rewrite: seeded lossy
 * transversal-CNOT shots (2,048 at d=3 and d=5, 512 at d=7, where
 * the matcher's graph is largest and union-find takes most shots),
 * decoded per shot the way the erasure-aware engine does (fired
 * heralds zero their edges in a context override), by the Fallback,
 * Correlated and Windowed kinds with the reach cache on and off.
 * Each shot's prediction, fallback delta and used-edge list (where
 * the kind reports one) are folded into one FNV-1a digest.  The
 * expected digests were computed with the 2^m subset-sweep matcher
 * that preceded the reachable-state DP and the bounded search (the
 * correlated ones re-pinned since, and the d=7 row added later; see
 * below); any change to a correction, an edge list or a counter
 * moves them.
 */
TEST(Mwpm, CnotLossCorrectionDigestPinned)
{
    struct Pin
    {
        int d;
        std::size_t shots;
        std::uint64_t fallback, correlated, windowed, unionFind;
    };
    // The fallback and windowed columns were computed with the
    // subset-sweep matcher, before the rewrite.  The correlated
    // column was re-pinned when that decoder began reporting its
    // first pass's edges when no partner is boosted (its masks did
    // not change; only the folded edge lists did).  The d=7 row was
    // computed with the bounded search that ran until every later
    // defect was settled, before pairs past the boundary bound were
    // cut.  The unionFind column decodes every shot, below the cap
    // too, with union-find alone; it was computed with one frontier
    // vector per node, before the frontiers moved into one pool.
    constexpr Pin kPins[] = {
        {3, 2048, 0xb708c85aa81650e5ULL, 0xdb55acdc160bda5dULL,
         0x2307dfc87f4de1b5ULL, 0x35513f554875ce82ULL},
        {5, 2048, 0xf8a9c8467050691aULL, 0xc47367760fca4652ULL,
         0x95baf7efcc8ca887ULL, 0xe83c2412cd3375b7ULL},
        {7, 512, 0xb7dcb93cba3090ecULL, 0xaafd4ee3da1945f9ULL,
         0x1403c83051eaa2c3ULL, 0xeccd9120936bbb88ULL},
    };
    for (const Pin &pin : kPins) {
        const auto setup = cnotLossSetup(pin.d);
        const DecodeGraph &g = setup->graph;
        ASSERT_TRUE(setup->compiled.has_value());
        ASSERT_GT(g.numHeraldChannels(), 0u);

        // One-lane (scalar64) sampler: the stream the noise goldens
        // rely on across word backends and dispatch levels.
        sim::FrameSimulator fs(0x5eed0000u + pin.d, 1);
        sim::FrameBatch batch;
        sim::SyndromeBlock block;
        const std::uint64_t live = ~0ULL;
        std::vector<std::vector<std::uint32_t>> syns, heralds;
        while (syns.size() < pin.shots) {
            fs.sampleInto(*setup->compiled, batch);
            sim::extractSyndromeBlock(batch, {&live, 1}, block);
            for (std::uint64_t s = 0; s < block.shots(); ++s) {
                const auto syn = block.syndrome(s);
                const auto her = block.heralds(s);
                syns.emplace_back(syn.begin(), syn.end());
                heralds.emplace_back(her.begin(), her.end());
            }
        }

        for (int cache : {1, 0}) {
            DecoderConfig cfg;
            cfg.predecode = 0;
            cfg.reachCache = cache;
            FallbackDecoder fallback(g, cfg);
            CorrelatedDecoder correlated(g, cfg);
            // These circuits have 6 rounds, which the default 6-round
            // window covers whole; a 3-round window makes every shot
            // decode under round horizons.
            cfg.windowRounds = 3;
            cfg.commitRounds = 1;
            WindowedDecoder windowed(g, cfg);
            // Peeling would put peeled edges first in the folded
            // lists, so the pin holds only with predecode off.
            UnionFindDecoder unionFind(g, {.predecode = 0});
            Fnv1a hf, hc, hw, hu;
            std::vector<double> weights;
            for (const GraphEdge &e : g.edges())
                weights.push_back(e.weight);
            std::vector<std::uint32_t> used;
            for (std::size_t s = 0; s < syns.size(); ++s) {
                // Zero every edge a fired herald can explain, as
                // MonteCarloEngine::runShard does.
                DecodeContext ctx;
                for (std::uint32_t c : heralds[s])
                    for (std::uint32_t ei : g.channelEdges(c))
                        weights[ei] = 0.0;
                if (!heralds[s].empty())
                    ctx.weights = weights;

                auto fold = [&](Fnv1a &h, Decoder &dec, auto decodeFn) {
                    const std::uint64_t fb0 = dec.fallbacks();
                    used.clear();
                    h.add(decodeFn());
                    h.add(static_cast<std::uint32_t>(dec.fallbacks() -
                                                     fb0));
                    h.add(static_cast<std::uint32_t>(used.size()));
                    for (std::uint32_t ei : used)
                        h.add(ei);
                };
                fold(hf, fallback, [&] {
                    return fallback.decodeWithContext(syns[s], ctx,
                                                      &used);
                });
                fold(hc, correlated, [&] {
                    return correlated.decodeWithContext(syns[s], ctx,
                                                        &used);
                });
                fold(hw, windowed, [&] {
                    return windowed.decodeWithContext(syns[s], ctx);
                });
                fold(hu, unionFind, [&] {
                    return unionFind.decodeWithContext(syns[s], ctx,
                                                       &used);
                });

                for (std::uint32_t c : heralds[s])
                    for (std::uint32_t ei : g.channelEdges(c))
                        weights[ei] = g.edges()[ei].weight;
            }
            EXPECT_EQ(hf.h, pin.fallback)
                << "fallback d=" << pin.d << " cache " << cache;
            EXPECT_EQ(hc.h, pin.correlated)
                << "correlated d=" << pin.d << " cache " << cache;
            EXPECT_EQ(hw.h, pin.windowed)
                << "windowed d=" << pin.d << " cache " << cache;
            EXPECT_EQ(hu.h, pin.unionFind)
                << "union-find d=" << pin.d << " cache " << cache;
        }
    }
}

TEST(UnionFind, LargeClusterDigestPinned)
{
    // d=11 Z-memory at p = 0.03 grows clusters whose frontier passes
    // 2,048 entries, so decodeWithContext takes its sort + unique
    // branch: a temporary counter saw it run 29 times over these 128
    // shots (on frontiers of up to 2,780 entries), and nowhere else
    // in the suite.  Masks and used-edge lists are folded.  The
    // constant was computed with one frontier vector per node,
    // before the frontiers moved into one pool.
    codes::SurfaceCode sc(11);
    const auto e = codes::buildMemory(sc, 'Z', 11,
                                      codes::NoiseParams::uniform(0.03));
    const DecodeGraph g = DecodeGraph::build(e);
    // Pinned with predecode off: peeled edges would lead the lists.
    UnionFindDecoder uf(g, {.predecode = 0});

    // One-lane (scalar64) sampler, as in the lossy-CNOT digest.
    sim::FrameSimulator fs(0x5eed0b11u, 1);
    sim::FrameBatch batch;
    sim::SyndromeBlock block;
    const std::uint64_t live = ~0ULL;
    Fnv1a h;
    std::vector<std::uint32_t> used;
    std::size_t shots = 0;
    while (shots < 128) {
        fs.sampleInto(e.circuit, batch);
        sim::extractSyndromeBlock(batch, {&live, 1}, block);
        for (std::uint64_t s = 0; s < block.shots(); ++s, ++shots) {
            used.clear();
            h.add(uf.decodeWithContext(block.syndrome(s), DecodeContext{},
                                       &used));
            h.add(static_cast<std::uint32_t>(used.size()));
            for (std::uint32_t ei : used)
                h.add(ei);
        }
    }
    EXPECT_EQ(h.h, 0x6dd4d36fc96e894cULL);
}

TEST(Mwpm, CapEnforced)
{
    auto dem = chainDem(30, 0.01);
    DecodeGraph g = DecodeGraph::fromDem(dem, chainMeta(30));
    MwpmDecoder mwpm(g, {.mwpmMaxDefects = 4});
    std::vector<std::uint32_t> syn{0, 3, 7, 11, 15};
    EXPECT_FALSE(mwpm.canDecode(syn));
    EXPECT_THROW(mwpm.decodeSpan(syn), traq::FatalError);
    EXPECT_THROW(MwpmDecoder(g, {.mwpmMaxDefects = 30}),
                 traq::FatalError);
}

TEST(DecoderOnRealCircuit, GraphIsCleanForMemory)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(1e-3));
    auto dem = sim::buildDem(e.circuit);
    DecodeGraph g = DecodeGraph::fromDem(dem, e.meta);
    EXPECT_EQ(g.numUnsplittable(), 0u);
    EXPECT_EQ(g.numUndetectableLogical(), 0u);
    EXPECT_GT(g.edges().size(), 50u);
}

TEST(DecoderOnRealCircuit, TransversalCnotHasHyperedgesButNoBlindSpots)
{
    // Transversal CNOTs genuinely create >2-detector mechanisms per
    // basis (an X error that propagates across patches fires Z
    // detectors in both) — that is the correlated-decoding structure
    // of Refs [17,18].  The graph builder decomposes them into pairs
    // linked as partners; what must never happen is an invisible
    // logical error.
    codes::TransversalCnotSpec spec;
    spec.distance = 3;
    spec.cnotLayers = 3;
    spec.noise = codes::NoiseParams::uniform(1e-3);
    auto e = codes::buildTransversalCnot(spec);
    auto dem = sim::buildDem(e.circuit);
    DecodeGraph g = DecodeGraph::fromDem(dem, e.meta);
    EXPECT_GT(g.numUnsplittable(), 0u);
    EXPECT_EQ(g.numUndetectableLogical(), 0u);
    // The decomposed halves remember each other.
    EXPECT_GT(g.numPartnerLinks(), 0u);
}

} // namespace
} // namespace traq::decoder
