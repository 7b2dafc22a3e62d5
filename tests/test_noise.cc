/**
 * @file
 * Tests for the composable noise subsystem (src/noise): spec
 * round-trips and loud-failure contracts, per-source statistical
 * rates at ~1e6 shots, herald-channel provenance through the DEM and
 * decode graph, herald determinism across thread counts and word
 * backends, the noise-off bit-identity regression lock, and the
 * headline acceptance criterion — erasure-aware decoding strictly
 * beating erasure-blind at a fixed atom-loss rate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/common/word.hh"
#include "src/decoder/decode_graph.hh"
#include "src/decoder/monte_carlo.hh"
#include "src/noise/noise.hh"
#include "src/platform/movement.hh"
#include "src/sim/dem.hh"
#include "src/sim/frame.hh"

namespace traq::noise {
namespace {

using codes::NoiseParams;
using decoder::McOptions;
using codes::SurfaceCode;

NoiseSpec oneSource(const std::string &name,
                    std::map<std::string, double> params)
{
    NoiseSpec spec;
    spec.sources.push_back({name, std::move(params)});
    return spec;
}

/** Per-plane event counts over >= minShots sampled shots. */
struct PlaneCounts
{
    std::uint64_t shots = 0;
    std::vector<std::uint64_t> detector;
    std::vector<std::uint64_t> herald;
};

PlaneCounts
tallyPlanes(const sim::Circuit &c, std::uint64_t minShots,
            std::uint64_t seed = 0x401e)
{
    sim::FrameSimulator sim(seed, kWide512WordLanes);
    sim::FrameBatch b;
    PlaneCounts out;
    while (out.shots < minShots) {
        sim.sampleInto(c, b);
        out.shots += sim.shotsPerBatch();
        out.detector.resize(b.numDetectors(), 0);
        out.herald.resize(b.numHeraldChannels(), 0);
        for (std::size_t k = 0; k < b.numDetectors(); ++k)
            for (std::uint64_t w : b.detector(k))
                out.detector[k] +=
                    static_cast<std::uint64_t>(std::popcount(w));
        for (std::size_t k = 0; k < b.numHeraldChannels(); ++k)
            for (std::uint64_t w : b.herald(k))
                out.herald[k] +=
                    static_cast<std::uint64_t>(std::popcount(w));
    }
    return out;
}

/** Observed rate within 5 sigma of the expected binomial rate. */
void expectRate(std::uint64_t hits, std::uint64_t shots, double p)
{
    const double mean =
        static_cast<double>(hits) / static_cast<double>(shots);
    const double sd = std::sqrt(
        std::max(p * (1.0 - p), 1e-12) / static_cast<double>(shots));
    EXPECT_NEAR(mean, p, 5.0 * sd + 1e-9);
}

// ---------------------------------------------------------------
// Spec plumbing.

TEST(NoiseSpec, FlatKeysRoundTrip)
{
    NoiseSpec spec;
    spec.setFlat("noise.atom-loss.p", 0.005);
    spec.setFlat("noise.atom-loss.heraldEff", 0.8);
    spec.setFlat("noise.biased-measurement.p", 0.002);
    ASSERT_EQ(spec.sources.size(), 2u);
    EXPECT_EQ(spec.sources[0].name, "atom-loss");
    EXPECT_EQ(spec.sources[0].params.at("heraldEff"), 0.8);

    // flat() -> setFlat() reconstructs an equivalent spec.
    NoiseSpec again;
    for (const auto &[k, v] : spec.flat())
        again.setFlat(k, v);
    EXPECT_EQ(again.canonical(), spec.canonical());
    EXPECT_EQ(again.flat(), spec.flat());

    EXPECT_TRUE(NoiseSpec{}.empty());
    EXPECT_FALSE(spec.empty());
    EXPECT_NE(spec.canonical(), NoiseSpec{}.canonical());
}

TEST(NoiseSpec, MalformedFlatKeysThrow)
{
    NoiseSpec spec;
    EXPECT_THROW(spec.setFlat("shots", 1.0), FatalError);
    EXPECT_THROW(spec.setFlat("noise.atom-loss", 1.0), FatalError);
    EXPECT_THROW(spec.setFlat("noise..p", 1.0), FatalError);
}

TEST(NoiseRegistry, ListsBuiltinsAndFailsLoudly)
{
    auto names = registeredNoiseSources();
    for (const char *s :
         {"atom-loss", "leakage", "idle-dephasing",
          "correlated-pauli", "biased-measurement"})
        EXPECT_NE(std::find(names.begin(), names.end(), s),
                  names.end())
            << s;

    EXPECT_THROW(makeNoiseSource({"no-such-source", {}}),
                 FatalError);
    // Unknown parameter on a known source: must not silently no-op.
    EXPECT_THROW(
        makeNoiseSource({"atom-loss", {{"bogus", 0.1}}}),
        FatalError);
    EXPECT_THROW(NoiseModel::fromSpec(oneSource(
                     "leakage", {{"heraldEf", 0.5}})),
                 FatalError);
}

TEST(NoiseModel, CompilePreservesCircuitStructure)
{
    SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                NoiseParams::uniform(0.001));
    auto model = NoiseModel::fromSpec(
        oneSource("atom-loss", {{"p", 0.01}}));
    sim::Circuit compiled = model.compile(e.circuit);

    // Only noise instructions are inserted: detector / observable
    // structure is untouched, herald channels appear.
    auto dem0 = sim::buildDem(e.circuit);
    auto dem1 = sim::buildDem(compiled);
    EXPECT_EQ(dem1.numDetectors, dem0.numDetectors);
    EXPECT_EQ(dem1.numObservables, dem0.numObservables);
    EXPECT_EQ(dem0.numHeraldChannels, 0u);
    EXPECT_GT(compiled.numHeraldChannels(), 0u);
    EXPECT_EQ(dem1.numHeraldChannels,
              compiled.numHeraldChannels());

    // An empty model is the identity.
    EXPECT_TRUE(NoiseModel::fromSpec(NoiseSpec{}).empty());
}

// ---------------------------------------------------------------
// Per-source statistical rates (~1e6 shots, 5 sigma bounds).

TEST(NoiseSources, AtomLossHeraldAndFlipRates)
{
    const double p = 0.01;
    sim::Circuit c;
    c.cx(0, 1);
    c.m(0);
    c.m(1);
    c.detector({2});
    c.detector({1});
    auto compiled =
        NoiseModel::fromSpec(
            oneSource("atom-loss", {{"p", p}, {"heraldEff", 1.0}}))
            .compile(c);
    ASSERT_EQ(compiled.numHeraldChannels(), 2u);

    auto t = tallyPlanes(compiled, 1000000);
    // One herald channel per CX target, each firing at p.
    expectRate(t.herald[0], t.shots, p);
    expectRate(t.herald[1], t.shots, p);
    // A fired erasure applies I/X/Y/Z at 1/4 each; X and Y flip the
    // Z-basis measurement of that qubit -> flip rate p/2.
    expectRate(t.detector[0], t.shots, p / 2.0);
    expectRate(t.detector[1], t.shots, p / 2.0);
}

TEST(NoiseSources, AtomLossUnheraldedResidue)
{
    // heraldEff = 0: pure depolarizing residue 3p/4, of which X and
    // Y (2/3) flip a Z-basis measurement -> p/2 flips, no heralds.
    const double p = 0.02;
    sim::Circuit c;
    c.cx(0, 1);
    c.m(0);
    c.detector({1});
    auto compiled =
        NoiseModel::fromSpec(
            oneSource("atom-loss", {{"p", p}, {"heraldEff", 0.0}}))
            .compile(c);
    EXPECT_EQ(compiled.numHeraldChannels(), 0u);
    auto t = tallyPlanes(compiled, 1000000);
    expectRate(t.detector[0], t.shots, p / 2.0);
}

TEST(NoiseSources, LeakageHeraldRateScalesWithEfficiency)
{
    const double p = 0.004, eta = 0.5;
    sim::Circuit c;
    c.h(0);
    c.m(0);
    c.detector({1});
    auto compiled =
        NoiseModel::fromSpec(oneSource(
                                 "leakage",
                                 {{"p", p}, {"heraldEff", eta}}))
            .compile(c);
    ASSERT_EQ(compiled.numHeraldChannels(), 1u);
    auto t = tallyPlanes(compiled, 1000000);
    expectRate(t.herald[0], t.shots, p * eta);
}

TEST(NoiseSources, IdleDephasingMatchesMovementDuration)
{
    // Before each measurement every *other* qubit dephases with
    // p = (1 - exp(-t / T2)) / 2, t from the pipelined
    // measure-while-move schedule the source consults.
    const double t2 = 0.5, moveSites = 2.0;
    platform::MoveSchedule sched(
        platform::AtomArrayParams::paperDefaults());
    sched.addPipelinedMeasureMove(moveSites);
    const double expected =
        0.5 * (1.0 - std::exp(-sched.totalTime() / t2));
    ASSERT_GT(expected, 0.0);

    sim::Circuit c;
    c.m(1);      // qubit 0 idles -> Z error on it
    c.mx(0);     // Z flips the X-basis readout
    c.detector({1});
    auto compiled =
        NoiseModel::fromSpec(oneSource("idle-dephasing",
                                       {{"t2", t2},
                                        {"moveSites", moveSites}}))
            .compile(c);
    auto t = tallyPlanes(compiled, 1000000);
    expectRate(t.detector[0], t.shots, expected);
}

TEST(NoiseSources, CorrelatedPauliFlipsBothSidesTogether)
{
    const double p = 0.03;
    sim::Circuit c;
    c.cx(0, 1);
    c.m(0);
    c.m(1);
    c.detector({2});    // m(0)
    c.detector({1});    // m(1)
    c.detector({1, 2}); // parity: XX/YY/ZZ never fire it
    auto compiled =
        NoiseModel::fromSpec(
            oneSource("correlated-pauli", {{"p", p}}))
            .compile(c);
    auto t = tallyPlanes(compiled, 1000000);
    // XX or YY (2p/3) flips each single measurement; both flip
    // together, so the parity detector stays silent.
    expectRate(t.detector[0], t.shots, 2.0 * p / 3.0);
    expectRate(t.detector[1], t.shots, 2.0 * p / 3.0);
    EXPECT_EQ(t.detector[2], 0u);
}

TEST(NoiseSources, BiasedMeasurementRespectsBias)
{
    const double p = 0.01;
    sim::Circuit cz;
    cz.m(0);
    cz.detector({1});
    sim::Circuit cx;
    cx.mx(0);
    cx.detector({1});

    // bias = +1: Z-basis readout flips at 2p, X-basis readout is
    // error-free (zero-probability channels are not emitted).
    auto spec = oneSource("biased-measurement",
                          {{"p", p}, {"bias", 1.0}});
    auto model = NoiseModel::fromSpec(spec);
    auto tz = tallyPlanes(model.compile(cz), 1000000);
    expectRate(tz.detector[0], tz.shots, 2.0 * p);
    auto tx = tallyPlanes(model.compile(cx), 200000);
    EXPECT_EQ(tx.detector[0], 0u);

    // bias = 0: both bases flip at p.
    auto flat = NoiseModel::fromSpec(
        oneSource("biased-measurement", {{"p", p}}));
    auto tz0 = tallyPlanes(flat.compile(cz), 1000000);
    expectRate(tz0.detector[0], tz0.shots, p);
    auto tx0 = tallyPlanes(flat.compile(cx), 1000000);
    expectRate(tx0.detector[0], tx0.shots, p);
}

// ---------------------------------------------------------------
// Provenance: herald channels through DEM and decode graph.

TEST(NoiseProvenance, ChannelEdgeMapsAreConsistent)
{
    SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                NoiseParams::uniform(0.001));
    auto compiled =
        NoiseModel::fromSpec(
            oneSource("atom-loss", {{"p", 0.01}}))
            .compile(e.circuit);
    auto dem = sim::buildDem(compiled);
    ASSERT_GT(dem.numHeraldChannels, 0u);

    // Every erasure component carries its channel into the DEM.
    bool anyTagged = false;
    for (const auto &m : dem.errors) {
        EXPECT_TRUE(std::is_sorted(m.channels.begin(),
                                   m.channels.end()));
        for (std::uint32_t ch : m.channels) {
            EXPECT_LT(ch, dem.numHeraldChannels);
            anyTagged = true;
        }
    }
    EXPECT_TRUE(anyTagged);

    auto g = decoder::DecodeGraph::fromDem(dem, e.meta);
    ASSERT_EQ(g.numHeraldChannels(), dem.numHeraldChannels);

    // edgeChannels and channelEdges are exact transposes.
    std::uint64_t fwd = 0, rev = 0;
    for (std::uint32_t ei = 0; ei < g.edges().size(); ++ei)
        for (std::uint32_t ch : g.edgeChannels(ei)) {
            ++fwd;
            auto back = g.channelEdges(ch);
            EXPECT_NE(std::find(back.begin(), back.end(), ei),
                      back.end());
        }
    for (std::uint32_t ch = 0; ch < g.numHeraldChannels(); ++ch)
        for (std::uint32_t ei : g.channelEdges(ch)) {
            ++rev;
            auto fc = g.edgeChannels(ei);
            EXPECT_NE(std::find(fc.begin(), fc.end(), ch),
                      fc.end());
        }
    EXPECT_EQ(fwd, rev);
    EXPECT_GT(fwd, 0u);
}

// ---------------------------------------------------------------
// Engine integration.

TEST(NoiseMc, HeraldsDeterministicAcrossThreadsAndBackends)
{
    SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                NoiseParams::uniform(0.003));
    for (WordBackend wb : {WordBackend::Scalar64, WordBackend::Wide512}) {
        McOptions opts;
        opts.shots = 4096;
        opts.seed = 0xd00d;
        opts.wordBackend = wb;
        opts.noiseSpec.setFlat("noise.atom-loss.p", 0.01);
        decoder::McResult ref{};
        for (unsigned threads : {1u, 2u, 4u}) {
            opts.threads = threads;
            auto res = decoder::runMonteCarlo(e, opts);
            EXPECT_GT(res.heraldedShots, 0u);
            if (threads == 1u) {
                ref = res;
                continue;
            }
            EXPECT_EQ(res.heraldedShots, ref.heraldedShots);
            EXPECT_EQ(res.anyObservable.hits,
                      ref.anyObservable.hits);
            EXPECT_EQ(res.avgDefects, ref.avgDefects);
        }
    }
}

TEST(NoiseMc, NoiseOffSamplingIsBitIdentical)
{
    // The herald machinery must be invisible without herald-emitting
    // noise: an empty-model compile is the identity, the sampler
    // allocates no herald planes, and the Monte-Carlo result is
    // byte-for-byte what the pre-noise sampler produced (golden
    // values locked per backend at this seed).
    SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                NoiseParams::uniform(0.003));

    sim::FrameSimulator s1(42, 2), s2(42, 2);
    auto b1 = s1.sample(e.circuit);
    auto b2 = s2.sample(
        NoiseModel::fromSpec(NoiseSpec{}).compile(e.circuit));
    EXPECT_EQ(b1.numHeraldChannels(), 0u);
    EXPECT_EQ(b1.detectors, b2.detectors);
    EXPECT_EQ(b1.observables, b2.observables);

    McOptions opts;
    opts.shots = 4096;
    opts.seed = 0x901d;
    opts.threads = 2;
    opts.wordBackend = WordBackend::Scalar64;
    auto res = decoder::runMonteCarlo(e, opts);
    EXPECT_EQ(res.heraldedShots, 0u);

    // erasureAware is a no-op without heralds.
    opts.erasureAware = false;
    auto blind = decoder::runMonteCarlo(e, opts);
    EXPECT_EQ(blind.anyObservable.hits, res.anyObservable.hits);
    EXPECT_EQ(blind.avgDefects, res.avgDefects);
}

TEST(NoiseMc, ErasureAwareBeatsErasureBlind)
{
    // The acceptance criterion: at a fixed atom-loss rate on d = 5
    // memory, herald-driven edge reweighting must strictly lower the
    // logical error rate versus ignoring the flags — with
    // non-overlapping Wilson intervals, so a regression that weakens
    // the reweighting (not just breaks it) still trips this.
    SurfaceCode sc(5);
    auto e = codes::buildMemory(sc, 'Z', 5,
                                NoiseParams::uniform(0.001));
    McOptions opts;
    opts.shots = 10000;
    opts.seed = 0xe7a5;
    opts.threads = 2;
    opts.wordBackend = WordBackend::Scalar64;
    opts.noiseSpec.setFlat("noise.atom-loss.p", 0.02);

    opts.erasureAware = true;
    auto aware = decoder::runMonteCarlo(e, opts);
    opts.erasureAware = false;
    auto blind = decoder::runMonteCarlo(e, opts);

    EXPECT_GT(aware.heraldedShots, 0u);
    EXPECT_EQ(aware.heraldedShots, blind.heraldedShots);
    EXPECT_LT(aware.anyObservable.hits, blind.anyObservable.hits);
    EXPECT_LT(aware.anyObservable.hi, blind.anyObservable.lo);
}

} // namespace
} // namespace traq::noise
