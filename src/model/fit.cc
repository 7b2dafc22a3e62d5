#include "src/model/fit.hh"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hh"

namespace traq::model {

MinimizeResult
nelderMead(const std::function<double(const std::vector<double> &)> &fn,
           std::vector<double> x0, const NelderMeadOptions &opts)
{
    const std::size_t n = x0.size();
    TRAQ_REQUIRE(n >= 1, "nelderMead needs at least one dimension");

    // Initial simplex: x0 plus per-axis displaced vertices.
    std::vector<std::vector<double>> pts(n + 1, x0);
    for (std::size_t i = 0; i < n; ++i) {
        double step = opts.initialStep *
                      (std::fabs(x0[i]) > 1e-12 ? std::fabs(x0[i])
                                                : 1.0);
        pts[i + 1][i] += step;
    }
    std::vector<double> vals(n + 1);
    for (std::size_t i = 0; i <= n; ++i)
        vals[i] = fn(pts[i]);

    MinimizeResult res;
    int iter = 0;
    for (; iter < opts.maxIterations; ++iter) {
        // Order: best first.
        std::vector<std::size_t> order(n + 1);
        for (std::size_t i = 0; i <= n; ++i)
            order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return vals[a] < vals[b];
                  });
        std::size_t best = order[0], worst = order[n];
        std::size_t second = order[n - 1];

        if (std::fabs(vals[worst] - vals[best]) <
            opts.tolerance * (std::fabs(vals[best]) + 1e-30)) {
            res.converged = true;
            break;
        }

        // Centroid of all but the worst.
        std::vector<double> centroid(n, 0.0);
        for (std::size_t i = 0; i <= n; ++i) {
            if (i == worst)
                continue;
            for (std::size_t k = 0; k < n; ++k)
                centroid[k] += pts[i][k];
        }
        for (double &c : centroid)
            c /= static_cast<double>(n);

        auto blend = [&](double t) {
            std::vector<double> p(n);
            for (std::size_t k = 0; k < n; ++k)
                p[k] = centroid[k] + t * (pts[worst][k] - centroid[k]);
            return p;
        };

        std::vector<double> refl = blend(-1.0);
        double fRefl = fn(refl);
        if (fRefl < vals[best]) {
            std::vector<double> expd = blend(-2.0);
            double fExp = fn(expd);
            if (fExp < fRefl) {
                pts[worst] = expd;
                vals[worst] = fExp;
            } else {
                pts[worst] = refl;
                vals[worst] = fRefl;
            }
        } else if (fRefl < vals[second]) {
            pts[worst] = refl;
            vals[worst] = fRefl;
        } else {
            std::vector<double> contr = blend(0.5);
            double fContr = fn(contr);
            if (fContr < vals[worst]) {
                pts[worst] = contr;
                vals[worst] = fContr;
            } else {
                // Shrink toward the best vertex.
                for (std::size_t i = 0; i <= n; ++i) {
                    if (i == best)
                        continue;
                    for (std::size_t k = 0; k < n; ++k)
                        pts[i][k] = pts[best][k] +
                                    0.5 * (pts[i][k] - pts[best][k]);
                    vals[i] = fn(pts[i]);
                }
            }
        }
    }

    std::size_t bestIdx = 0;
    for (std::size_t i = 1; i <= n; ++i)
        if (vals[i] < vals[bestIdx])
            bestIdx = i;
    res.x = pts[bestIdx];
    res.value = vals[bestIdx];
    res.iterations = iter;
    return res;
}

std::vector<CnotDataPoint>
referenceRef17Data()
{
    // Reconstructed from the reported fit: alpha = 1/6,
    // Lambda_MLE = 20, C = 0.1 at p_phys = 0.1% (see header), with
    // fixed +-10% multiplicative scatter standing in for the
    // statistical error bars of the original dataset.
    ErrorModelParams ref;
    ref.alpha = 1.0 / 6.0;
    ref.prefactorC = 0.1;
    ref.pPhys = 1e-3;
    ref.pThres = 0.02;   // Lambda_MLE = 20
    static const double jitter[] = {1.08, 0.93, 1.05, 0.91, 1.10,
                                    0.95, 1.02, 0.97, 1.06, 0.94,
                                    1.01, 0.99, 1.07, 0.92, 1.04};
    std::vector<CnotDataPoint> data;
    int j = 0;
    for (int d : {3, 5, 7}) {
        for (double x : {0.25, 0.5, 1.0, 2.0, 4.0}) {
            CnotDataPoint pt;
            pt.d = d;
            pt.x = x;
            pt.pL = cnotLogicalError(d, x, ref) *
                    jitter[j % 15];
            ++j;
            data.push_back(pt);
        }
    }
    return data;
}

CnotFit
fitCnotAnsatz(const std::vector<CnotDataPoint> &data,
              const CnotFitOptions &opts)
{
    TRAQ_REQUIRE(data.size() >= 3, "need at least 3 data points");
    const double fixLambda = opts.fixLambda;

    auto loss = [&](const std::vector<double> &v) {
        double alpha = v[0];
        double c = v[1];
        double lambda = fixLambda > 0 ? fixLambda : v[2];
        if (alpha <= 0 || alpha > 10 || c <= 0 || lambda <= 1.0)
            return 1e12;
        double sum = 0.0;
        for (const auto &pt : data) {
            double base = (1.0 + alpha * pt.x) / lambda;
            // With lambda free, sub-threshold suppression (base < 1)
            // regularizes the three-parameter fit.  At fixed lambda
            // the prediction stays log-defined for any base > 0, and
            // near-threshold Monte-Carlo anchors (small measured
            // Lambda) legitimately push dense-x points past 1, so
            // only the free fit keeps the hard wall.
            if (base <= 0.0 ||
                (fixLambda <= 0 && base >= 1.0))
                return 1e12;
            double pred = 2.0 * c / pt.x *
                          std::pow(base, (pt.d + 1) / 2.0);
            double r = std::log(pred) - std::log(pt.pL);
            sum += r * r;
        }
        return sum / static_cast<double>(data.size());
    };

    std::vector<double> x0 =
        fixLambda > 0 ? std::vector<double>{0.3, 0.05}
                      : std::vector<double>{0.3, 0.05, 12.0};
    auto wrapped = [&](const std::vector<double> &v) {
        std::vector<double> full = v;
        if (fixLambda > 0)
            full = {v[0], v[1]};
        return loss(full);
    };
    MinimizeResult r = nelderMead(wrapped, x0, opts.nelderMead);

    CnotFit fit;
    fit.alpha = r.x[0];
    fit.prefactorC = r.x[1];
    fit.lambda = fixLambda > 0 ? fixLambda : r.x[2];
    fit.rmsLogResidual = std::sqrt(r.value);
    return fit;
}

double
lambdaFromMemoryPair(double pPerRoundD, double pPerRoundDPlus2)
{
    TRAQ_REQUIRE(pPerRoundD > 0.0 && pPerRoundDPlus2 > 0.0,
                 "memory anchors need nonzero failure rates");
    const double lambda = pPerRoundD / pPerRoundDPlus2;
    TRAQ_REQUIRE(lambda > 1.0,
                 "memory anchors show no error suppression "
                 "(above threshold?)");
    return lambda;
}

} // namespace traq::model
