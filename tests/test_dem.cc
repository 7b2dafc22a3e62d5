/**
 * @file
 * Tests for detector-error-model extraction: hand-checkable circuits
 * (repetition code), component probabilities, merging, agreement
 * with Monte-Carlo detector statistics, and byte equality of the
 * backward sweep (buildDem) with the forward oracle
 * (buildDemReference).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <utility>

#include "src/codes/experiments.hh"
#include "src/common/rng.hh"
#include "src/noise/noise.hh"
#include "src/sim/circuit.hh"
#include "src/sim/dem.hh"
#include "src/sim/frame.hh"

namespace traq::sim {
namespace {

/** Three-qubit repetition code, one round: hand-checkable DEM. */
Circuit
repetitionCircuit(double p)
{
    // Data: 0, 1, 2; ancillas 3 (checks 0,1) and 4 (checks 1,2).
    Circuit c;
    c.append(Gate::R, {0, 1, 2, 3, 4});
    c.xError(p, {0, 1, 2});
    c.append(Gate::CX, {0, 3, 1, 4});
    c.append(Gate::CX, {1, 3, 2, 4});
    c.append(Gate::MR, {3, 4});
    c.detector({2});           // ancilla 3
    c.detector({1});           // ancilla 4
    c.m(0);
    c.m(1);
    c.m(2);
    c.observable(0, {3});      // data 0
    return c;
}

TEST(Dem, RepetitionCodeStructure)
{
    DetectorErrorModel dem = buildDem(repetitionCircuit(0.01));
    EXPECT_EQ(dem.numDetectors, 2u);
    EXPECT_EQ(dem.numObservables, 1u);
    // Three mechanisms: X0 -> {D0, obs}, X1 -> {D0, D1}, X2 -> {D1}.
    ASSERT_EQ(dem.errors.size(), 3u);
    std::map<std::vector<std::uint32_t>,
             std::pair<double, std::uint32_t>> found;
    for (const auto &e : dem.errors)
        found[e.detectors] = {e.probability, e.observables};
    const std::vector<std::uint32_t> d0{0};
    const std::vector<std::uint32_t> d01{0, 1};
    const std::vector<std::uint32_t> d1{1};
    ASSERT_TRUE(found.count(d0));
    ASSERT_TRUE(found.count(d01));
    ASSERT_TRUE(found.count(d1));
    EXPECT_NEAR(found[d0].first, 0.01, 1e-12);
    EXPECT_EQ(found[d0].second, 1u);      // flips the observable
    EXPECT_EQ(found[d01].second, 0u);
    EXPECT_EQ(found[d1].second, 0u);
}

TEST(Dem, MergesIdenticalSymptoms)
{
    // Two X_ERROR instructions on the same qubit before measurement
    // merge into one mechanism with XOR-combined probability.
    Circuit c;
    c.xError(0.1, {0});
    c.xError(0.2, {0});
    c.m(0);
    c.detector({1});
    DetectorErrorModel dem = buildDem(c);
    ASSERT_EQ(dem.errors.size(), 1u);
    EXPECT_NEAR(dem.errors[0].probability, 0.1 * 0.8 + 0.2 * 0.9,
                1e-12);
}

// Local reference for XOR probability combination.
double
pXorRef(double a, double b)
{
    return a * (1 - b) + b * (1 - a);
}

TEST(Dem, Depolarize1SplitsComponents)
{
    // X and Y components flip a Z measurement; Z component is
    // invisible and dropped.
    Circuit c;
    c.depolarize1(0.3, {0});
    c.m(0);
    c.detector({1});
    DetectorErrorModel dem = buildDem(c);
    ASSERT_EQ(dem.errors.size(), 1u);
    EXPECT_NEAR(dem.errors[0].probability, pXorRef(0.1, 0.1), 1e-12);
}

TEST(Dem, KeepInvisibleFlagCountsNoiseVolume)
{
    Circuit c;
    c.zError(0.25, {0});
    c.m(0);
    c.detector({1});
    DetectorErrorModel demDrop = buildDem(c, true);
    EXPECT_TRUE(demDrop.errors.empty());
    DetectorErrorModel demKeep = buildDem(c, false);
    ASSERT_EQ(demKeep.errors.size(), 1u);
    EXPECT_TRUE(demKeep.errors[0].detectors.empty());
}

TEST(Dem, ErrorAfterGatePropagates)
{
    // Noise between two CX gates: the X error on qubit 0 spreads to
    // qubit 1 through the second CX only.
    Circuit c;
    c.append(Gate::R, {0, 1});
    c.cx(0, 1);
    c.xError(1.0, {0});
    c.cx(0, 1);
    c.m(0);
    c.m(1);
    c.detector({2});
    c.detector({1});
    DetectorErrorModel dem = buildDem(c);
    ASSERT_EQ(dem.errors.size(), 1u);
    EXPECT_EQ(dem.errors[0].detectors.size(), 2u);
}

TEST(Dem, TotalErrorWeightSums)
{
    Circuit c;
    c.xError(0.1, {0, 1});
    c.m(0);
    c.m(1);
    c.detector({2});
    c.detector({1});
    DetectorErrorModel dem = buildDem(c);
    EXPECT_NEAR(dem.totalErrorWeight(), 0.2, 1e-12);
}

/**
 * Property: detector flip rates predicted by the DEM (to first order)
 * match frame-simulator Monte Carlo on the repetition circuit.
 */
TEST(Dem, MatchesMonteCarloRates)
{
    const double p = 0.02;
    Circuit c = repetitionCircuit(p);
    DetectorErrorModel dem = buildDem(c);

    // Exact per-detector flip probability from the DEM (independent
    // mechanisms, XOR semantics).
    std::vector<double> predicted(dem.numDetectors, 0.0);
    for (const auto &e : dem.errors)
        for (std::uint32_t d : e.detectors)
            predicted[d] = predicted[d] * (1 - e.probability) +
                           e.probability * (1 - predicted[d]);

    FrameSimulator sim(2718);
    std::vector<std::uint64_t> flips(dem.numDetectors, 0);
    std::uint64_t shots = 0;
    for (int i = 0; i < 3000; ++i) {
        FrameBatch b = sim.sample(c);
        for (std::size_t d = 0; d < flips.size(); ++d)
            flips[d] += __builtin_popcountll(b.detectors[d]);
        shots += 64;
    }
    for (std::size_t d = 0; d < flips.size(); ++d) {
        double observed = static_cast<double>(flips[d]) / shots;
        EXPECT_NEAR(observed, predicted[d], 0.004) << "detector " << d;
    }
}

/** Same mechanism order, and memcmp-equal probabilities, detectors,
 *  observables and channels. */
::testing::AssertionResult
sameBytes(const DetectorErrorModel &a, const DetectorErrorModel &b)
{
    auto same = [](const auto &x, const auto &y) {
        return x.size() == y.size() &&
               (x.empty() ||
                std::memcmp(x.data(), y.data(),
                            x.size() * sizeof(x[0])) == 0);
    };
    if (a.numDetectors != b.numDetectors ||
        a.numObservables != b.numObservables ||
        a.numHeraldChannels != b.numHeraldChannels)
        return ::testing::AssertionFailure() << "counts differ";
    if (a.errors.size() != b.errors.size())
        return ::testing::AssertionFailure()
               << a.errors.size() << " vs " << b.errors.size()
               << " mechanisms";
    for (std::size_t i = 0; i < a.errors.size(); ++i) {
        const ErrorMechanism &x = a.errors[i];
        const ErrorMechanism &y = b.errors[i];
        if (std::memcmp(&x.probability, &y.probability,
                        sizeof(double)) != 0 ||
            !same(x.detectors, y.detectors) ||
            x.observables != y.observables ||
            !same(x.channels, y.channels))
            return ::testing::AssertionFailure()
                   << "mechanism " << i << " differs";
    }
    return ::testing::AssertionSuccess();
}

/** The edge cases the random circuits hit, counted. */
struct Coverage
{
    std::map<Gate, int> gates;
    /** A qubit twice in one M/MR/R, or in two pairs of one
     *  CX/CZ/SWAP. */
    std::map<Gate, int> repeatedQubit;
    int doubledLookback = 0; //!< DETECTOR listing a lookback twice
    int multiErasure = 0;    //!< circuits with >= 2 HERALDED_ERASE
};

/** Every gate buildDem accepts. */
constexpr Gate kAllGates[] = {
    Gate::I,           Gate::X,
    Gate::Y,           Gate::Z,
    Gate::H,           Gate::S,
    Gate::S_DAG,       Gate::SQRT_X,
    Gate::SQRT_X_DAG,  Gate::CX,
    Gate::CZ,          Gate::SWAP,
    Gate::R,           Gate::RX,
    Gate::M,           Gate::MX,
    Gate::MR,          Gate::X_ERROR,
    Gate::Y_ERROR,     Gate::Z_ERROR,
    Gate::DEPOLARIZE1, Gate::DEPOLARIZE2,
    Gate::HERALDED_ERASE, Gate::CORRELATED_PAULI2,
    Gate::TICK,        Gate::DETECTOR,
    Gate::OBSERVABLE_INCLUDE,
};

bool
hasRepeat(std::vector<std::uint32_t> v)
{
    std::sort(v.begin(), v.end());
    return std::adjacent_find(v.begin(), v.end()) != v.end();
}

/** A random circuit over 2-6 qubits drawing on every gate, closed by
 *  a measurement of every qubit with detectors on it. */
Circuit
randomCircuit(Rng &rng, Coverage &cov)
{
    const auto nq = static_cast<std::uint32_t>(2 + rng.next() % 5);
    auto pick = [&rng](std::uint64_t n) {
        return static_cast<std::uint32_t>(rng.next() % n);
    };
    auto lookback = [&](const Circuit &c) {
        return 1 + pick(c.numMeasurements());
    };
    Circuit c;
    int erasures = 0;
    const int length = 8 + static_cast<int>(pick(40));
    for (int n = 0; n < length; ++n) {
        const Gate g = kAllGates[pick(std::size(kAllGates))];
        const GateInfo &info = gateInfo(g);
        std::vector<std::uint32_t> t;
        double arg = 0.0;
        if (g == Gate::DETECTOR || g == Gate::OBSERVABLE_INCLUDE) {
            if (c.numMeasurements() == 0)
                continue;
            for (std::uint32_t k = 1 + pick(3); k > 0; --k)
                t.push_back(lookback(c));
            if (pick(3) == 0)
                t.push_back(t[0]);
            if (g == Gate::DETECTOR && hasRepeat(t))
                ++cov.doubledLookback;
            if (g == Gate::OBSERVABLE_INCLUDE)
                arg = pick(3);
        } else if (info.twoQubit) {
            for (std::uint32_t k = 1 + pick(3); k > 0; --k) {
                const std::uint32_t a = pick(nq);
                t.push_back(a);
                t.push_back((a + 1 + pick(nq - 1)) % nq);
            }
            if (info.unitary && hasRepeat(t))
                ++cov.repeatedQubit[g];
        } else if (g != Gate::TICK) {
            for (std::uint32_t k = 1 + pick(4); k > 0; --k)
                t.push_back(pick(nq));
            if (g == Gate::M || g == Gate::MR || g == Gate::R) {
                if (pick(3) == 0)
                    t.push_back(t[0]);
                if (hasRepeat(t))
                    ++cov.repeatedQubit[g];
            }
        }
        if (info.noise) {
            // Zero and one too: a zero component is never recorded.
            const std::uint32_t r = pick(8);
            arg = r == 0 ? 0.0 : r == 1 ? 1.0 : 0.3 * rng.uniform();
        }
        erasures += g == Gate::HERALDED_ERASE;
        ++cov.gates[g];
        c.append(g, std::move(t), arg);
    }
    cov.multiErasure += erasures >= 2;
    for (std::uint32_t q = 0; q < nq; ++q)
        c.m(q);
    for (std::uint32_t q = 0; q < nq; ++q)
        c.detector({1 + q, lookback(c)});
    c.observable(pick(2), {1, lookback(c)});
    return c;
}

TEST(Dem, BackwardSweepMatchesReference)
{
    // Experiment circuits at d = 3: bare, under each noise source
    // alone and under all five stacked, both discard settings.
    std::vector<std::pair<std::string, noise::NoiseSpec>> stacks;
    stacks.emplace_back("bare", noise::NoiseSpec{});
    const std::pair<const char *, double> sources[] = {
        {"noise.atom-loss.p", 0.01},
        {"noise.leakage.p", 0.01},
        {"noise.idle-dephasing.t2", 0.05},
        {"noise.correlated-pauli.p", 0.01},
        {"noise.biased-measurement.p", 0.01},
    };
    noise::NoiseSpec all;
    for (const auto &[key, value] : sources) {
        noise::NoiseSpec one;
        one.setFlat(key, value);
        stacks.emplace_back(key, one);
        all.setFlat(key, value);
    }
    stacks.emplace_back("all five", all);

    const auto uniform = codes::NoiseParams::uniform(1e-3);
    codes::SurfaceCode sc3(3);
    codes::TransversalCnotSpec straight;
    straight.alternateDirection = false;
    straight.cnotsPerBatch = 1;
    codes::TransversalCnotSpec layered;
    layered.cnotLayers = 4;
    layered.seRoundsPerBatch = 2;
    const std::pair<std::string, codes::Experiment> d3[] = {
        {"memory Z", codes::buildMemory(sc3, 'Z', 3, uniform)},
        {"memory X", codes::buildMemory(sc3, 'X', 3, uniform)},
        {"cnot default", codes::buildTransversalCnot({})},
        {"cnot straight", codes::buildTransversalCnot(straight)},
        {"cnot layered", codes::buildTransversalCnot(layered)},
    };
    for (const auto &[name, exp] : d3) {
        for (const auto &[stack, spec] : stacks) {
            const Circuit circuit =
                spec.empty()
                    ? exp.circuit
                    : noise::NoiseModel::fromSpec(spec).compile(
                          exp.circuit);
            for (bool discard : {true, false})
                EXPECT_TRUE(sameBytes(buildDem(circuit, discard),
                                      buildDemReference(circuit,
                                                        discard)))
                    << name << " / " << stack
                    << " / discardInvisible=" << discard;
        }
    }

    // The benchmark circuits at d = 5 and 7: Z memory, and the
    // 8-layer CNOT under atom loss.
    noise::NoiseSpec loss;
    loss.setFlat("noise.atom-loss.p", 0.002);
    for (int d : {5, 7}) {
        codes::SurfaceCode sc(d);
        const Circuit memory =
            codes::buildMemory(sc, 'Z', d, uniform).circuit;
        EXPECT_TRUE(
            sameBytes(buildDem(memory), buildDemReference(memory)))
            << "memory d=" << d;
        codes::TransversalCnotSpec spec;
        spec.distance = d;
        spec.cnotLayers = 8;
        spec.cnotsPerBatch = 2;
        spec.noise = uniform;
        const Circuit cnot = noise::NoiseModel::fromSpec(loss).compile(
            codes::buildTransversalCnot(spec).circuit);
        EXPECT_TRUE(sameBytes(buildDem(cnot), buildDemReference(cnot)))
            << "cnot-loss d=" << d;
    }

    // Seeded random circuits over every gate.
    Rng rng(20261017);
    Coverage cov;
    for (int i = 0; i < 1000; ++i) {
        const Circuit c = randomCircuit(rng, cov);
        for (bool discard : {true, false})
            ASSERT_TRUE(sameBytes(buildDem(c, discard),
                                  buildDemReference(c, discard)))
                << "random circuit " << i
                << ", discardInvisible=" << discard << ":\n"
                << c.str();
    }
    for (Gate g : kAllGates)
        EXPECT_GT(cov.gates[g], 0) << gateName(g);
    for (Gate g : {Gate::M, Gate::MR, Gate::R, Gate::CX, Gate::CZ,
                   Gate::SWAP})
        EXPECT_GT(cov.repeatedQubit[g], 0) << gateName(g);
    EXPECT_GT(cov.doubledLookback, 0);
    EXPECT_GT(cov.multiErasure, 0);
}

} // namespace
} // namespace traq::sim
