/**
 * @file
 * Tests for the shared DecodeGraph layer: metadata defaults for
 * hand-built DEMs, round/patch bookkeeping from real circuits,
 * partner correlation hints with conditional posteriors, and the
 * DecodeContext plumbing (weight overrides, round horizons,
 * used-edge reporting) the composite decoders build on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/decoder/decode_graph.hh"
#include "src/decoder/mwpm.hh"
#include "src/sim/dem.hh"

namespace traq::decoder {
namespace {

using codes::CircuitMeta;
using sim::DetectorErrorModel;
using sim::ErrorMechanism;

/** A hand-written syndrome (decodeSpan takes no braced list). */
using Syndrome = std::vector<std::uint32_t>;

ErrorMechanism
mech(double p, std::vector<std::uint32_t> dets,
     std::uint32_t obs = 0)
{
    ErrorMechanism m;
    m.probability = p;
    m.detectors = std::move(dets);
    m.observables = obs;
    return m;
}

TEST(DecodeGraph, HandBuiltMetaDefaultsToOnePatchOneRound)
{
    DetectorErrorModel dem;
    dem.numDetectors = 3;
    dem.numObservables = 1;
    dem.errors = {mech(0.01, {0}, 1), mech(0.01, {0, 1}),
                  mech(0.01, {1, 2}), mech(0.01, {2})};
    CircuitMeta meta;
    meta.detectorIsX.assign(3, 0);
    meta.observableIsX.assign(1, 0);
    // No patch/round/observable-patch metadata at all.
    DecodeGraph g = DecodeGraph::fromDem(dem, meta);
    EXPECT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.edges().size(), 4u);
    EXPECT_EQ(g.numRounds(), 1);
    for (std::uint32_t d = 0; d < 3; ++d) {
        EXPECT_EQ(g.detectorRound(d), 0);
        EXPECT_EQ(g.detectorPatch(d), 0);
    }
    for (const auto &e : g.edges()) {
        EXPECT_EQ(e.round, 0);
        EXPECT_NEAR(e.weight, std::log(0.99 / 0.01), 1e-12);
    }
    // Single-part mechanisms carry no correlation hints.
    EXPECT_EQ(g.numPartnerLinks(), 0u);
}

TEST(DecodeGraph, YLikeMechanismLinksItsBasisHalvesAsPartners)
{
    // One Y-type mechanism (two X-basis + two Z-basis detectors)
    // plus an independent Z-basis-only mechanism on the same edge.
    DetectorErrorModel dem;
    dem.numDetectors = 4;
    dem.numObservables = 0;
    const double pY = 0.001, pZ = 0.003;
    dem.errors = {mech(pY, {0, 1, 2, 3}), mech(pZ, {2, 3})};
    CircuitMeta meta;
    meta.detectorIsX = {1, 1, 0, 0};
    DecodeGraph g = DecodeGraph::fromDem(dem, meta);
    ASSERT_EQ(g.edges().size(), 2u);

    // Locate the X-half (0,1) and the shared Z edge (2,3).
    const auto &e0 = g.edges()[0];
    const std::uint32_t xEdge = (e0.u == 0 || e0.v == 0) ? 0 : 1;
    const std::uint32_t zEdge = 1 - xEdge;
    EXPECT_NEAR(g.edges()[xEdge].probability, pY, 1e-15);
    EXPECT_NEAR(g.edges()[zEdge].probability,
                pY + pZ - 2 * pY * pZ, 1e-15);

    // Partners are mutual; the conditional is the shared mechanism
    // mass over the source edge's probability.
    ASSERT_EQ(g.partners(xEdge).size(), 1u);
    ASSERT_EQ(g.partners(zEdge).size(), 1u);
    EXPECT_EQ(g.partners(xEdge)[0], zEdge);
    EXPECT_EQ(g.partners(zEdge)[0], xEdge);
    EXPECT_NEAR(g.partnerCond(xEdge)[0], 1.0, 1e-12);
    EXPECT_NEAR(g.partnerCond(zEdge)[0],
                pY / (pY + pZ - 2 * pY * pZ), 1e-12);
}

TEST(DecodeGraph, MemoryCircuitRoundsMatchBuilderMetadata)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 4,
                                codes::NoiseParams::uniform(1e-3));
    // 4 SE rounds plus the closing data-measurement round.
    ASSERT_EQ(e.meta.detectorRound.size(),
              e.circuit.numDetectors());
    DecodeGraph g = DecodeGraph::build(e);
    EXPECT_EQ(g.numRounds(), 5);
    // Detector rounds are non-decreasing in emission order.
    for (std::size_t d = 1; d < e.meta.detectorRound.size(); ++d)
        EXPECT_LE(e.meta.detectorRound[d - 1],
                  e.meta.detectorRound[d]);
    // Every edge's round is the max over its real endpoints.
    for (const auto &edge : g.edges()) {
        std::int32_t want = 0;
        if (edge.u != kBoundary)
            want = std::max(want, g.detectorRound(edge.u));
        if (edge.v != kBoundary)
            want = std::max(want, g.detectorRound(edge.v));
        EXPECT_EQ(edge.round, want);
    }
}

TEST(DecodeGraph, TransversalCnotCarriesPatchesAndCrossHints)
{
    codes::TransversalCnotSpec spec;
    spec.distance = 3;
    spec.cnotLayers = 2;
    spec.noise = codes::NoiseParams::uniform(1e-3);
    auto e = codes::buildTransversalCnot(spec);
    DecodeGraph g = DecodeGraph::build(e);
    // Both patches appear in the metadata.
    bool sawPatch0 = false, sawPatch1 = false;
    for (std::uint32_t d = 0; d < g.numNodes(); ++d) {
        sawPatch0 |= g.detectorPatch(d) == 0;
        sawPatch1 |= g.detectorPatch(d) == 1;
    }
    EXPECT_TRUE(sawPatch0);
    EXPECT_TRUE(sawPatch1);
    // Observables live on their own patches.
    EXPECT_EQ(g.observablePatch(0), 0);
    EXPECT_EQ(g.observablePatch(1), 1);
    EXPECT_GT(g.numPartnerLinks(), 0u);
    EXPECT_EQ(g.numUndetectableLogical(), 0u);
    // Conditionals are probabilities.
    for (std::uint32_t ei = 0;
         ei < static_cast<std::uint32_t>(g.edges().size()); ++ei) {
        const auto cond = g.partnerCond(ei);
        for (double c : cond) {
            EXPECT_GT(c, 0.0);
            EXPECT_LE(c, 1.0);
        }
    }
}

TEST(DecodeGraph, ContextWeightOverrideRedirectsMatching)
{
    // Chain 0-1-2 with boundary exits at both ends; only the left
    // boundary edge flips the observable.  Base weights prefer the
    // through-path for syndrome {0, 2}; a context override that
    // makes the boundary edges nearly free flips the decision.
    DetectorErrorModel dem;
    dem.numDetectors = 3;
    dem.numObservables = 1;
    dem.errors = {mech(0.01, {0}, 1), mech(0.05, {0, 1}),
                  mech(0.05, {1, 2}), mech(0.01, {2})};
    CircuitMeta meta;
    meta.detectorIsX.assign(3, 0);
    meta.observableIsX.assign(1, 0);
    DecodeGraph g = DecodeGraph::fromDem(dem, meta);
    MwpmDecoder dec(g);

    EXPECT_EQ(dec.decodeSpan(Syndrome{0, 2}), 0u);  // through-path

    std::vector<double> w;
    std::vector<std::uint32_t> boundaryEdges;
    for (const auto &edge : g.edges()) {
        w.push_back(edge.weight);
        if (edge.u == kBoundary)
            boundaryEdges.push_back(
                static_cast<std::uint32_t>(w.size() - 1));
    }
    ASSERT_EQ(boundaryEdges.size(), 2u);
    for (std::uint32_t ei : boundaryEdges)
        w[ei] = 0.0;
    DecodeContext ctx;
    ctx.weights = w;
    std::vector<std::uint32_t> used;
    const std::vector<std::uint32_t> syn{0, 2};
    EXPECT_EQ(dec.decodeWithContext(syn, ctx, &used), 1u);
    // Both boundary exits appear in the used-edge report.
    for (std::uint32_t ei : boundaryEdges)
        EXPECT_NE(std::find(used.begin(), used.end(), ei),
                  used.end());
}

TEST(DecodeGraph, ContextRoundHorizonHidesFutureEdges)
{
    // Two detectors in different rounds.  Detector 0's own boundary
    // edge is expensive, so the cheapest lone-defect explanation
    // routes through the round-1 joining edge and out the far
    // boundary (no observable flip).  A horizon at round 0 hides
    // that route and forces the direct, observable-flipping exit.
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    dem.errors = {mech(1e-4, {0}, 1), mech(0.2, {0, 1}),
                  mech(0.01, {1})};
    CircuitMeta meta;
    meta.detectorIsX.assign(2, 0);
    meta.observableIsX.assign(1, 0);
    meta.detectorRound = {0, 1};
    meta.detectorPatch = {0, 0};
    meta.observablePatch = {0};
    meta.numRounds = 2;
    DecodeGraph g = DecodeGraph::fromDem(dem, meta);
    EXPECT_EQ(g.numRounds(), 2);
    MwpmDecoder dec(g);

    EXPECT_EQ(dec.decodeSpan(Syndrome{0}), 0u);  // round-1 edge, far exit

    DecodeContext ctx;
    ctx.maxRound = 0;
    const std::vector<std::uint32_t> lone{0};
    EXPECT_EQ(dec.decodeWithContext(lone, ctx), 1u);
}

TEST(DecodeGraph, MetadataSizeMismatchFailsLoudly)
{
    DetectorErrorModel dem;
    dem.numDetectors = 2;
    dem.errors = {mech(0.01, {0, 1})};
    CircuitMeta meta;
    meta.detectorIsX.assign(2, 0);
    meta.detectorRound = {0};  // wrong size
    EXPECT_THROW(DecodeGraph::fromDem(dem, meta), FatalError);
    meta.detectorRound.clear();
    meta.detectorPatch = {0, 0, 0};  // wrong size
    EXPECT_THROW(DecodeGraph::fromDem(dem, meta), FatalError);
}

} // namespace
} // namespace traq::decoder
