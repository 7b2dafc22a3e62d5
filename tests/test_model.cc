/**
 * @file
 * Tests for the logical error model (Eqs. (2)-(6)), the Nelder-Mead
 * fitter, and the cultivation cost model.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/assert.hh"
#include "src/model/cultivation.hh"
#include "src/model/error_model.hh"
#include "src/model/fit.hh"

namespace traq::model {
namespace {

TEST(ErrorModel, MemoryEq2Values)
{
    ErrorModelParams p;   // C=0.1, Lambda=10
    // d=3: 0.1 * 0.1^2 = 1e-3; d=5: 1e-4.
    EXPECT_NEAR(memoryErrorPerRound(3, p), 1e-3, 1e-12);
    EXPECT_NEAR(memoryErrorPerRound(5, p), 1e-4, 1e-13);
    EXPECT_NEAR(memoryErrorPerRound(27, p), 0.1 * 1e-14, 1e-20);
}

TEST(ErrorModel, Eq4RecoversMemoryLimit)
{
    // As x -> 0, per-CNOT error must approach the accumulated
    // memory error of 1/x rounds x 2 qubits.
    ErrorModelParams p;
    for (int d : {3, 11, 27}) {
        double x = 1e-6;
        double perCnot = cnotLogicalError(d, x, p);
        double memoryAccum = 2.0 * memoryErrorPerRound(d, p) / x;
        EXPECT_NEAR(perCnot / memoryAccum, 1.0, 1e-3) << "d=" << d;
    }
}

TEST(ErrorModel, Eq5EffectiveThresholds)
{
    ErrorModelParams p;   // alpha = 1/6
    EXPECT_NEAR(effectiveThreshold(1.0, p), 0.01 / (1 + 1.0 / 6.0),
                1e-12);
    EXPECT_NEAR(100 * effectiveThreshold(1.0, p), 0.857, 1e-2);
    ErrorModelParams ph;
    ph.alpha = 0.5;
    EXPECT_NEAR(100 * effectiveThreshold(1.0, ph), 0.667, 1e-2);
}

TEST(ErrorModel, CnotErrorPackingTradeoff)
{
    ErrorModelParams p;
    // At small d the 1/x amortization dominates: per-CNOT error
    // falls as CNOTs pack densely.
    double prev = cnotLogicalError(3, 0.25, p);
    for (double x : {0.5, 1.0, 2.0, 4.0}) {
        double cur = cnotLogicalError(3, x, p);
        EXPECT_LT(cur, prev);
        prev = cur;
    }
    // At large d the (1 + alpha x)^((d+1)/2) elevation wins: packing
    // more CNOTs per round *raises* the per-CNOT error — which is
    // why Eq. (6) (volume, with its 4/x SE overhead) rather than the
    // raw error sets the optimal cadence.
    EXPECT_GT(cnotLogicalError(27, 4.0, p),
              cnotLogicalError(27, 1.0, p));
    EXPECT_GT(cnotLogicalError(27, 1.0, p),
              cnotLogicalError(27, 0.25, p));
}

TEST(ErrorModel, RequiredDistanceInvertsModel)
{
    ErrorModelParams p;
    // Boundary targets like 1e-6 sit within 1 ulp of the model
    // value at Lambda = 10; compare with matching relative slack.
    const double slack = 1.0 + 1e-9;
    for (double target : {1e-6, 1e-9, 1e-12, 1e-15}) {
        int d = requiredDistanceMemory(target, p);
        EXPECT_LE(memoryErrorPerRound(d, p), target * slack);
        if (d > 3)
            EXPECT_GT(memoryErrorPerRound(d - 2, p),
                      target * slack);
        int dc = requiredDistanceCnot(target, 1.0, p);
        EXPECT_LE(cnotLogicalError(dc, 1.0, p), target * slack);
        if (dc > 3)
            EXPECT_GT(cnotLogicalError(dc - 2, 1.0, p),
                      target * slack);
    }
}

TEST(ErrorModel, FactoringDistanceIs27)
{
    // The paper's operating point: per-CCZ Clifford budget at
    // x = 1 leads to d = 27 (Table II).
    ErrorModelParams p;
    int d = requiredDistanceCnot(1.33e-13, 1.0, p);
    EXPECT_EQ(d, 27);
}

TEST(ErrorModel, AboveThresholdThrows)
{
    ErrorModelParams p;
    p.pPhys = 0.02;   // Lambda = 0.5 < 1
    EXPECT_THROW(requiredDistanceMemory(1e-9, p), traq::FatalError);
}

TEST(ErrorModel, Eq6OptimumAtLeastOneCnotPerRound)
{
    ErrorModelParams p;
    double xOpt = optimalCnotsPerRound(1e-12, p);
    EXPECT_GE(xOpt, 1.0) << "paper: optimal SE rounds <= 1";
    // Larger alpha pushes the optimum to smaller x.
    ErrorModelParams ph;
    ph.alpha = 1.0;
    EXPECT_LE(optimalCnotsPerRound(1e-12, ph), xOpt * 2.0);
}

TEST(ErrorModel, VolumeIncreasesWithAlpha)
{
    ErrorModelParams lo, hi;
    hi.alpha = 0.5;
    EXPECT_LE(volumePerCnot(1.0, 1e-12, lo),
              volumePerCnot(1.0, 1e-12, hi));
}

TEST(NelderMead, MinimizesQuadratic)
{
    auto fn = [](const std::vector<double> &v) {
        double dx = v[0] - 3.0, dy = v[1] + 2.0;
        return dx * dx + 2 * dy * dy + 5.0;
    };
    auto res = nelderMead(fn, {0.0, 0.0});
    EXPECT_TRUE(res.converged);
    EXPECT_NEAR(res.x[0], 3.0, 1e-4);
    EXPECT_NEAR(res.x[1], -2.0, 1e-4);
    EXPECT_NEAR(res.value, 5.0, 1e-6);
}

TEST(NelderMead, MinimizesRosenbrock)
{
    auto fn = [](const std::vector<double> &v) {
        double a = 1.0 - v[0];
        double b = v[1] - v[0] * v[0];
        return a * a + 100.0 * b * b;
    };
    NelderMeadOptions opts;
    opts.maxIterations = 20000;
    auto res = nelderMead(fn, {-1.0, 1.0}, opts);
    EXPECT_NEAR(res.x[0], 1.0, 1e-2);
    EXPECT_NEAR(res.x[1], 1.0, 2e-2);
}

TEST(Fit, RecoversAlphaFromReferenceData)
{
    auto data = referenceRef17Data();
    CnotFit fit = fitCnotAnsatz(data, CnotFitOptions{.fixLambda = 20.0});
    // Reference data was generated at alpha = 1/6 with bounded
    // jitter: the fit must land close (paper reports alpha ~ 1/6).
    EXPECT_NEAR(fit.alpha, 1.0 / 6.0, 0.05);
    EXPECT_NEAR(fit.prefactorC, 0.1, 0.03);
    EXPECT_LT(fit.rmsLogResidual, 0.2);
}

TEST(Fit, FreeLambdaFitAlsoCloses)
{
    auto data = referenceRef17Data();
    CnotFit fit = fitCnotAnsatz(data);
    EXPECT_NEAR(fit.lambda, 20.0, 6.0);
    EXPECT_NEAR(fit.alpha, 1.0 / 6.0, 0.08);
}

TEST(Fit, RejectsTinyDatasets)
{
    std::vector<CnotDataPoint> two(2);
    EXPECT_THROW(fitCnotAnsatz(two), traq::FatalError);
}

TEST(Cultivation, AnchorPoint)
{
    CultivationModel c;
    EXPECT_NEAR(c.volumeQubitRounds(7.7e-7), 1.5e4, 1.0);
}

TEST(Cultivation, InverseConsistency)
{
    CultivationModel c;
    for (double eps : {1e-5, 7.7e-7, 1e-8}) {
        double v = c.volumeQubitRounds(eps);
        EXPECT_NEAR(c.errorForVolume(v) / eps, 1.0, 1e-9);
    }
}

TEST(Cultivation, MonotoneInError)
{
    CultivationModel c;
    EXPECT_GT(c.volumeQubitRounds(1e-8),
              c.volumeQubitRounds(1e-6));
    EXPECT_GT(c.volumeQubitRounds(1e-6),
              c.volumeQubitRounds(1e-4));
}

TEST(Cultivation, PhysicalErrorScaling)
{
    CultivationModel c;
    // Lower physical error rate cheapens post-selection.
    EXPECT_LT(c.volumeAtPhysicalError(7.7e-7, 5e-4),
              c.volumeAtPhysicalError(7.7e-7, 1e-3));
    EXPECT_GT(c.volumeAtPhysicalError(7.7e-7, 2e-3),
              c.volumeAtPhysicalError(7.7e-7, 1e-3));
}

TEST(Cultivation, RejectsBadInputs)
{
    CultivationModel c;
    EXPECT_THROW(c.volumeQubitRounds(0.0), traq::FatalError);
    EXPECT_THROW(c.volumeQubitRounds(1.5), traq::FatalError);
    EXPECT_THROW(c.errorForVolume(-1.0), traq::FatalError);
}

} // namespace
} // namespace traq::model
