/**
 * @file
 * Fig. 6 reproduction.
 *  (a) the Eq. (4) ansatz against the reference transversal-CNOT
 *      dataset, with the (alpha, C) fit at fixed Lambda — the paper
 *      reports alpha ~ 1/6;
 *  (a') the same extraction from fully in-repo Monte Carlo: the
 *      "mc-alpha" estimator simulates memory anchors and a
 *      transversal-CNOT (d, x) grid with the wide-bit-plane frame
 *      sampler and fits the same ansatz — no embedded data;
 *  (a'') the full (d, x) grid with the two-pass correlated decoder:
 *      correlation reweighting across transversal-CNOT hyperedges
 *      restores monotone cross-distance suppression, so the fit can
 *      use both d = 3 and d = 5 CNOT circuits (plain matching is
 *      pinned to a single CNOT distance);
 *  (b) space-time volume per logical CNOT vs SE rounds per CNOT
 *      (Eq. (6)); the optimum sits at <= 1 SE round per CNOT.
 */

#include <cstdio>

#include "src/common/table.hh"
#include "src/estimator/simulation.hh"
#include "src/model/error_model.hh"
#include "src/model/fit.hh"

int
main()
{
    using namespace traq;
    using namespace traq::model;

    std::printf("=== Fig. 6(a): Eq. (4) fit to transversal-CNOT "
                "data ===\n\n");
    auto data = referenceRef17Data();
    CnotFit fit =
        fitCnotAnsatz(data, CnotFitOptions{.fixLambda = 20.0});
    std::printf("fit at fixed Lambda_MLE = 20: alpha = %.3f "
                "(paper: 1/6 = 0.167), C = %.3f, rms log-residual = "
                "%.3f\n\n",
                fit.alpha, fit.prefactorC, fit.rmsLogResidual);

    Table t({"d", "x (CNOT/round)", "data pL", "model pL"});
    ErrorModelParams fitted;
    fitted.alpha = fit.alpha;
    fitted.prefactorC = fit.prefactorC;
    fitted.pThres = 20.0 * fitted.pPhys;
    for (const auto &pt : data) {
        t.addRow({std::to_string(pt.d), fmtF(pt.x, 2),
                  fmtE(pt.pL, 2),
                  fmtE(cnotLogicalError(pt.d, pt.x, fitted), 2)});
    }
    t.print();

    std::printf("\n=== Fig. 6(a'): alpha from in-repo Monte Carlo "
                "(mc-alpha estimator) ===\n\n");
    {
        est::EstimateRequest req{
            "mc-alpha",
            {{"p", 4e-3}, {"shots", 8000}, {"seed", 2025}}};
        est::EstimateResult mc =
            est::makeEstimator("mc-alpha")->estimate(req);
        std::printf("simulated fit: alpha = %.3f (paper: 1/6 = "
                    "0.167), Lambda(matching, p=4e-3) = %.2f, "
                    "C = %.3f, rms log-residual = %.3f\n",
                    mc.metric("alpha"), mc.metric("lambda"),
                    mc.metric("prefactorC"),
                    mc.metric("rmsLogResidual"));
        std::printf("(%.0f grid points, %.0f shots; memory anchors "
                    "pin Lambda, the x-grid bends out alpha)\n",
                    mc.metric("dataPoints"),
                    mc.metric("totalShots"));
    }

    std::printf("\n=== Fig. 6(a''): full (d, x) grid with the "
                "correlated decoder ===\n\n");
    {
        est::McAlphaSpec spec;
        spec.pPhys = 4e-3;
        spec.shots = 6000;
        spec.cnotDMax = 5;  // cross-distance CNOT data in the fit
        spec.decoder = decoder::DecoderKind::Correlated;
        est::EstimateRequest req{"mc-alpha", {}};
        est::EstimateResult mc =
            est::makeMcAlphaEstimator(spec)->estimate(req);
        std::printf("correlated-decoder fit over d in {3, 5}: "
                    "alpha = %.3f (paper: 1/6 = 0.167), "
                    "Lambda = %.2f, C = %.3f, rms log-residual = "
                    "%.3f\n",
                    mc.metric("alpha"), mc.metric("lambda"),
                    mc.metric("prefactorC"),
                    mc.metric("rmsLogResidual"));
        std::printf("(%.0f grid points, %.0f shots; two-pass "
                    "partner reweighting restores d=5 < d=3 "
                    "per-CNOT suppression, unlocking the cross-d "
                    "grid)\n",
                    mc.metric("dataPoints"),
                    mc.metric("totalShots"));
    }

    std::printf("\n=== Fig. 6(b): space-time volume per CNOT "
                "(Eq. (6), p_targ = 1e-12) ===\n\n");
    Table v({"SE rounds per CNOT", "x", "required d",
             "volume [d^2(4/x+1)]", "alpha=1/2 volume"});
    ErrorModelParams p;             // paper defaults, alpha = 1/6
    ErrorModelParams pHalf;
    pHalf.alpha = 0.5;
    const double ptarg = 1e-12;
    for (double rounds : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
        double x = 1.0 / rounds;
        int d = requiredDistanceCnot(ptarg, x, p);
        v.addRow({fmtF(rounds, 2), fmtF(x, 2), std::to_string(d),
                  fmtF(volumePerCnot(x, ptarg, p), 0),
                  fmtF(volumePerCnot(x, ptarg, pHalf), 0)});
    }
    v.print();
    std::printf("\noptimal CNOTs per SE round (alpha=1/6): %.2f "
                "(paper: optimum at >= 1 CNOT per round)\n",
                optimalCnotsPerRound(ptarg, p));
    std::printf("effective threshold at x=1: %.2f%% (paper: "
                "0.86%%); alpha=1/2: %.2f%% (paper: 0.67%%)\n",
                100 * effectiveThreshold(1.0, p),
                100 * effectiveThreshold(1.0, pHalf));
    return 0;
}
