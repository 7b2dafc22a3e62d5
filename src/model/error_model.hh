/**
 * @file
 * The paper's logical error model for transversal architectures
 * (Sec. III.4, Eqs. (2)-(6)).
 *
 * The central object is the decoding factor `alpha`, which captures
 * how much each transversal CNOT inflates the effective noise a
 * syndrome-extraction round must handle:
 *
 *   p_L,memory(d)    = C * (1/Lambda)^((d+1)/2)                 (Eq. 2)
 *   p_L,CNOT(d, x)   = (2C/x) * ((1+alpha x)/Lambda)^((d+1)/2)  (Eq. 4)
 *   p_thres,eff(x)   = p_thres / (1 + alpha x)                  (Eq. 5)
 *   V_CNOT(x)  ~ d(x)^2 * (4/x + 1)                             (Eq. 6)
 *
 * with Lambda = p_thres / p_phys and x the number of transversal
 * CNOTs per SE round.  Defaults follow the paper: C = 0.1,
 * p_phys = 1e-3, p_thres = 1%, alpha = 1/6.
 */

#ifndef TRAQ_MODEL_ERROR_MODEL_HH
#define TRAQ_MODEL_ERROR_MODEL_HH

namespace traq::model {

/** Parameters of the logical error model. */
struct ErrorModelParams
{
    double prefactorC = 0.1;   //!< C in Eqs. (2)/(4)
    double pPhys = 1e-3;       //!< physical error rate
    double pThres = 0.01;      //!< memory threshold
    double alpha = 1.0 / 6.0;  //!< decoding factor (Sec. III.4)

    /** Lambda = p_thres / p_phys (error suppression per d += 2). */
    double lambda() const { return pThres / pPhys; }

    /** Effective Lambda with x CNOTs per SE round. */
    double lambdaEff(double x) const
    {
        return lambda() / (1.0 + alpha * x);
    }

    static ErrorModelParams paperDefaults() { return {}; }
};

/** Eq. (2): logical error per qubit per SE round (memory). */
double memoryErrorPerRound(int d, const ErrorModelParams &p);

/**
 * Eq. (4): logical error per transversal CNOT (two qubits) when x
 * CNOTs are performed per SE round.  As x -> 0 this reproduces the
 * accumulated memory error over 1/x rounds.
 */
double cnotLogicalError(int d, double x, const ErrorModelParams &p);

/** Eq. (5): effective threshold under x CNOTs per SE round. */
double effectiveThreshold(double x, const ErrorModelParams &p);

/**
 * Smallest odd distance d >= 3 with memoryErrorPerRound <= target.
 * Throws if the system is above threshold.
 */
int requiredDistanceMemory(double targetPerRound,
                           const ErrorModelParams &p);

/** Smallest odd distance with cnotLogicalError(d, x) <= target. */
int requiredDistanceCnot(double targetPerCnot, double x,
                         const ErrorModelParams &p);

/**
 * Eq. (6): relative space-time volume per logical CNOT at x CNOTs
 * per SE round, with the distance chosen for the target error.
 * Units: d^2 * (4/x + 1) (qubit-gate counts, arbitrary scale).
 */
double volumePerCnot(double x, double targetPerCnot,
                     const ErrorModelParams &p);

/**
 * argmin over x (scanned on a log grid) of volumePerCnot — the
 * paper's "optimal number of CNOTs per SE round" (Fig. 6(b)); the
 * optimum is typically >= 1.
 */
double optimalCnotsPerRound(double targetPerCnot,
                            const ErrorModelParams &p);

} // namespace traq::model

#endif // TRAQ_MODEL_ERROR_MODEL_HH
