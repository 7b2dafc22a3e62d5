/**
 * @file
 * Model fitting: a generic Nelder–Mead simplex minimizer and the
 * fit of the Eq. (4) ansatz to transversal-CNOT logical error data
 * (Fig. 6(a) of the paper).
 *
 * Substitution note (see DESIGN.md): the authors fit against the raw
 * depth-32 random-Clifford MLE-decoder data of their Ref. [17], which
 * is not available offline.  We embed a reference dataset
 * reconstructed from the *reported* fit (alpha ~ 1/6, Lambda_MLE ~ 20,
 * C ~ 0.1) with deterministic scatter, which exercises the same
 * fitting path.  A fully in-repo alternative now exists: the
 * "mc-alpha" estimator (src/estimator/simulation.hh) generates
 * CnotDataPoints from our own circuit-level Monte Carlo via
 * SweepRunner grids and feeds them to fitCnotAnsatz, so alpha can be
 * extracted end-to-end without any embedded data (the absolute
 * calibration then reflects our matching decoder rather than the
 * paper's MLE decoder).
 */

#ifndef TRAQ_MODEL_FIT_HH
#define TRAQ_MODEL_FIT_HH

#include <functional>
#include <vector>

#include "src/model/error_model.hh"

namespace traq::model {

/** Options for the Nelder–Mead minimizer. */
struct NelderMeadOptions
{
    int maxIterations = 2000;
    double tolerance = 1e-10;   //!< simplex spread convergence
    double initialStep = 0.25;  //!< relative initial simplex size
};

/** Result of a minimization. */
struct MinimizeResult
{
    std::vector<double> x;
    double value = 0.0;
    int iterations = 0;
    bool converged = false;
};

/** Derivative-free minimization of fn over R^n. */
MinimizeResult
nelderMead(const std::function<double(const std::vector<double> &)> &fn,
           std::vector<double> x0,
           const NelderMeadOptions &opts = {});

/** One (d, x, pL) sample of per-CNOT logical error. */
struct CnotDataPoint
{
    int d = 3;
    double x = 1.0;   //!< CNOTs per SE round
    double pL = 0.0;  //!< logical error per CNOT per qubit pair
};

/**
 * Reference dataset reconstructed from the reported Ref. [17] fit
 * (see file comment): distances 3..7, x in {1/4 .. 4}, p_phys = 0.1%.
 */
std::vector<CnotDataPoint> referenceRef17Data();

/** Fitted Eq. (4) parameters. */
struct CnotFit
{
    double alpha = 0.0;
    double prefactorC = 0.0;
    double lambda = 0.0;
    double rmsLogResidual = 0.0;
};

/** Options for fitCnotAnsatz. */
struct CnotFitOptions
{
    /** If > 0, hold Lambda fixed and fit only (alpha, C). */
    double fixLambda = -1.0;
    /** Simplex minimizer settings. */
    NelderMeadOptions nelderMead{};
};

/**
 * Least-squares fit of log p_L to the Eq. (4) ansatz over the data
 * — the Fig. 6(a) extraction.  Works on any CnotDataPoint source:
 * the embedded reference dataset or in-repo Monte-Carlo sweeps (see
 * the "mc-alpha" estimator).
 */
CnotFit fitCnotAnsatz(const std::vector<CnotDataPoint> &data,
                      const CnotFitOptions &opts = {});

/**
 * Lambda estimate from two memory anchors (Eq. (2)): per-round
 * logical error at distances d and d + 2 gives
 * Lambda = pPerRound(d) / pPerRound(d + 2).  Throws unless both
 * rates are positive and suppressing.
 */
double lambdaFromMemoryPair(double pPerRoundD,
                            double pPerRoundDPlus2);

} // namespace traq::model

#endif // TRAQ_MODEL_FIT_HH
