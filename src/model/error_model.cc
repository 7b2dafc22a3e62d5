#include "src/model/error_model.hh"

#include <cmath>
#include <limits>

#include "src/common/assert.hh"
#include "src/common/math.hh"

namespace traq::model {

double
memoryErrorPerRound(int d, const ErrorModelParams &p)
{
    TRAQ_REQUIRE(d >= 3, "distance must be >= 3");
    double base = 1.0 / p.lambda();
    return p.prefactorC * std::pow(base, (d + 1) / 2.0);
}

double
cnotLogicalError(int d, double x, const ErrorModelParams &p)
{
    TRAQ_REQUIRE(d >= 3, "distance must be >= 3");
    TRAQ_REQUIRE(x > 0.0, "CNOTs per SE round must be positive");
    double base = (1.0 + p.alpha * x) / p.lambda();
    return 2.0 * p.prefactorC / x * std::pow(base, (d + 1) / 2.0);
}

double
effectiveThreshold(double x, const ErrorModelParams &p)
{
    return p.pThres / (1.0 + p.alpha * x);
}

namespace {

/** Smallest odd d >= 3 from the generic exponential-suppression law
 *  pref * base^((d+1)/2) <= target, base < 1. */
int
solveDistance(double pref, double base, double target)
{
    TRAQ_REQUIRE(base < 1.0,
                 "above threshold: no distance reaches the target");
    TRAQ_REQUIRE(target > 0.0 && pref > 0.0,
                 "target and prefactor must be positive");
    if (pref <= target)
        return 3;
    double halves = std::log(target / pref) / std::log(base);
    int d = traq::ceilOdd(2.0 * halves - 1.0);
    // Guard against floating-point edge cases; the relative slack
    // keeps the solver an exact inverse of the forward formula.
    const double slack = 1.0 + 1e-9;
    while (pref * std::pow(base, (d + 1) / 2.0) > target * slack)
        d += 2;
    while (d > 3 &&
           pref * std::pow(base, (d - 1) / 2.0) <= target * slack)
        d -= 2;
    return d;
}

} // namespace

int
requiredDistanceMemory(double targetPerRound,
                       const ErrorModelParams &p)
{
    return solveDistance(p.prefactorC, 1.0 / p.lambda(),
                         targetPerRound);
}

int
requiredDistanceCnot(double targetPerCnot, double x,
                     const ErrorModelParams &p)
{
    return solveDistance(2.0 * p.prefactorC / x,
                         (1.0 + p.alpha * x) / p.lambda(),
                         targetPerCnot);
}

double
volumePerCnot(double x, double targetPerCnot,
              const ErrorModelParams &p)
{
    int d = requiredDistanceCnot(targetPerCnot, x, p);
    return static_cast<double>(d) * d * (4.0 / x + 1.0);
}

double
optimalCnotsPerRound(double targetPerCnot, const ErrorModelParams &p)
{
    double bestX = 0.25;
    double bestV = std::numeric_limits<double>::infinity();
    // Log-grid over x in [1/8, 8]; the threshold constraint
    // (1 + alpha x) < Lambda bounds the search from above.
    for (double x = 0.125; x <= 8.0; x *= std::pow(2.0, 0.25)) {
        if ((1.0 + p.alpha * x) / p.lambda() >= 1.0)
            break;
        double v = volumePerCnot(x, targetPerCnot, p);
        if (v < bestV) {
            bestV = v;
            bestX = x;
        }
    }
    return bestX;
}

} // namespace traq::model
