/**
 * @file
 * Simulation-backed estimators: the bridge from the Monte-Carlo
 * engine (decoder/monte_carlo.hh) into the unified Estimator
 * registry, so circuit-level simulation runs as declarative
 * SweepRunner grids next to the closed-form resource estimators.
 *
 * Two kinds are registered:
 *
 *  - "mc-logical-error": one Monte-Carlo run.  Builds a surface-code
 *    memory experiment (cnotLayers == 0) or a two-patch transversal
 *    CNOT experiment, samples it with the wide-bit-plane frame
 *    sampler, decodes with exact matching (union-find fallback), and
 *    reports logical failure proportions with Wilson intervals.
 *
 *  - "mc-alpha": the Fig. 6(a) alpha extraction as one estimate.
 *    Runs two SweepRunner grids of "mc-logical-error" jobs — memory
 *    anchors over distance (the x -> 0 limit that pins Lambda via
 *    Eq. (2)) and transversal-CNOT points over (distance, x) — then
 *    fits the Eq. (4) ansatz with model::fitCnotAnsatz.  This
 *    replaces the embedded Ref. [17] reference dataset with fully
 *    in-repo Monte-Carlo data; the fitted alpha reflects *our*
 *    matching decoder, the same decoding-factor sensitivity the
 *    paper explores.
 *
 * Both estimators are deterministic: a fixed request yields
 * bit-identical results for any thread count (the engine's sharded
 * RNG-stream discipline) — which is what makes them usable in
 * memoized sweeps and regression tests.
 */

#ifndef TRAQ_ESTIMATOR_SIMULATION_HH
#define TRAQ_ESTIMATOR_SIMULATION_HH

#include <cstdint>
#include <memory>

#include "src/decoder/decoder.hh"
#include "src/decoder/monte_carlo.hh"
#include "src/estimator/estimator.hh"

namespace traq::est {

/** Base specification of one "mc-logical-error" run. */
struct McSimSpec
{
    int distance = 3;
    double pPhys = 3e-3;      //!< uniform circuit noise rate
    int rounds = 0;           //!< memory SE rounds; 0 -> distance
    int cnotLayers = 0;       //!< 0 -> memory experiment
    int cnotsPerBatch = 1;    //!< CX layers per SE block
    int seRoundsPerBatch = 1; //!< SE rounds per SE block
    /**
     * Engine options: 4096 shots, seed 0xa1fa and one engine thread
     * per estimate (an outer SweepRunner already parallelizes over
     * grid jobs), everything else at the McOptions defaults.
     * Request parameters "shots", "seed", "mcThreads", "predecode",
     * "globalMemo", "compileCache", "erasureAware" and
     * "noise.<source>.<param>" override fields here.
     */
    decoder::McOptions mc{.shots = 4096, .seed = 0xa1fa, .threads = 1};
};

/**
 * Base specification of one "mc-alpha" extraction.
 *
 * Lambda comes from the memory anchors over dMin..dMax (Eq. (2)),
 * alpha from the transversal-CNOT grid over dMin..cnotDMax and the
 * x grid.  With the default plain matcher, cross-distance CNOT data
 * is left opt-in via cnotDMax (joint-patch matching alone does not
 * reproduce the paper's MLE cross-d suppression); with
 * decoder = DecoderKind::Correlated the suppression is restored and
 * the full (d, x) Fig. 6 grid fits in one request — see
 * bench_fig6_error_model.
 */
struct McAlphaSpec
{
    double pPhys = 3e-3;
    std::uint64_t shots = 20000; //!< shots per grid point
    std::uint64_t seed = 0xa1fa;
    int dMin = 3;        //!< smallest distance (odd)
    int dMax = 5;        //!< largest memory-anchor distance (odd)
    int cnotDMax = 3;    //!< largest CNOT-grid distance (odd)
    int cnotLayers = 8;  //!< total CX layers per CNOT circuit
    /** x grid: 1, 2, 4, ... <= min(xMax, cnotLayers).  The default
     *  stops at 4: at x == cnotLayers the circuit is a single SE
     *  block whose warmup/readout boundary noise is no longer
     *  amortized, which visibly bends the per-CNOT error away from
     *  the Eq. (4) ansatz. */
    int xMax = 4;
    /** If > 0, hold Lambda fixed in the fit; otherwise Lambda is
     *  estimated from the memory anchors (Eq. (2)). */
    double fixLambda = 0.0;
    unsigned sweepThreads = 0; //!< inner grid workers (0 = auto)
    unsigned mcThreads = 1;    //!< engine threads per grid point
    /** Decoder kind for every grid point (memory and CNOT). */
    decoder::DecoderKind decoder = decoder::DecoderKind::Fallback;
};

/** "mc-logical-error" estimator over a custom base spec. */
std::unique_ptr<Estimator>
makeMcLogicalErrorEstimator(const McSimSpec &base = {});

/** "mc-alpha" estimator over a custom base spec. */
std::unique_ptr<Estimator>
makeMcAlphaEstimator(const McAlphaSpec &base = {});

} // namespace traq::est

#endif // TRAQ_ESTIMATOR_SIMULATION_HH
