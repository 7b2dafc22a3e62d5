#include "src/common/math.hh"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hh"

namespace traq {

double
pXor(double a, double b)
{
    return a * (1.0 - b) + b * (1.0 - a);
}

double
pOr(double a, double b)
{
    return 1.0 - (1.0 - a) * (1.0 - b);
}

double
pAtLeastOnceOf(double p, double n)
{
    if (p <= 0.0 || n <= 0.0)
        return 0.0;
    if (p >= 1.0)
        return 1.0;
    return -std::expm1(n * std::log1p(-p));
}

int
ceilOdd(double x)
{
    int v = static_cast<int>(std::ceil(x));
    if (v < 3)
        v = 3;
    if (v % 2 == 0)
        ++v;
    return v;
}

std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    TRAQ_ASSERT(b > 0, "ceilDiv divisor must be positive");
    TRAQ_ASSERT(a >= 0, "ceilDiv numerator must be non-negative");
    return (a + b - 1) / b;
}

std::int64_t
roundUp(std::int64_t x, std::int64_t m)
{
    return ceilDiv(x, m) * m;
}

double
log2d(double x)
{
    TRAQ_ASSERT(x > 0.0, "log2d of non-positive value");
    return std::log2(x);
}

double
binomialCoeff(int n, int k)
{
    if (k < 0 || k > n)
        return 0.0;
    k = std::min(k, n - k);
    double r = 1.0;
    for (int i = 1; i <= k; ++i)
        r = r * (n - k + i) / i;
    return r;
}

double
pOddOf(double p, double n)
{
    if (p <= 0.0 || n <= 0.0)
        return 0.0;
    double q = 1.0 - 2.0 * std::clamp(p, 0.0, 1.0);
    // (1 - q^n) / 2, with q^n via exp for fractional n.
    double qn = (q <= 0.0) ? ((q == 0.0) ? 0.0 : std::pow(q, n))
                           : std::exp(n * std::log(q));
    return 0.5 * (1.0 - qn);
}

double
interp(const std::vector<double> &xs, const std::vector<double> &ys,
       double x)
{
    TRAQ_ASSERT(xs.size() == ys.size() && !xs.empty(),
                "interp needs equal-size non-empty tables");
    if (x <= xs.front())
        return ys.front();
    if (x >= xs.back())
        return ys.back();
    auto it = std::upper_bound(xs.begin(), xs.end(), x);
    std::size_t hi = static_cast<std::size_t>(it - xs.begin());
    std::size_t lo = hi - 1;
    double t = (x - xs[lo]) / (xs[hi] - xs[lo]);
    return ys[lo] + t * (ys[hi] - ys[lo]);
}

} // namespace traq
