/**
 * @file
 * Small numeric helpers shared across the analytic models.
 *
 * Probabilities in the resource models are combined under the usual
 * independent-error approximations; this header centralizes those
 * operations so the conventions (e.g. XOR-combination of independent
 * flip probabilities) live in exactly one place.
 */

#ifndef TRAQ_COMMON_MATH_HH
#define TRAQ_COMMON_MATH_HH

#include <cstdint>
#include <vector>

namespace traq {

/**
 * Probability that an odd number of two independent events occur
 * (XOR-combination of error probabilities): a(1-b) + b(1-a).
 */
double pXor(double a, double b);

/** Probability that at least one of two independent events occurs. */
double pOr(double a, double b);

/** 1 - (1-p)^n, computed stably for tiny p via expm1/log1p. */
double pAtLeastOnceOf(double p, double n);

/** Round up to the nearest odd integer >= 3 (surface-code distances). */
int ceilOdd(double x);

/** Integer ceil division for non-negative values. */
std::int64_t ceilDiv(std::int64_t a, std::int64_t b);

/** x rounded up to a multiple of m (m > 0). */
std::int64_t roundUp(std::int64_t x, std::int64_t m);

/** log2 of a positive double. */
double log2d(double x);

/** Binomial coefficient as double (n up to ~1000, k small). */
double binomialCoeff(int n, int k);

/**
 * Probability of an odd number of successes among n independent
 * Bernoulli(p) trials: (1 - (1-2p)^n) / 2.  This is the exact
 * accumulation law for XOR-type logical failures.
 */
double pOddOf(double p, double n);

/** Linear interpolation of y(x) on a sorted table (clamped ends). */
double interp(const std::vector<double> &xs,
              const std::vector<double> &ys, double x);

} // namespace traq

#endif // TRAQ_COMMON_MATH_HH
