/**
 * @file
 * Logical QEC-cycle timing for the transversal architecture
 * (Sec. IV.2): syndrome-extraction CX layers built from short local
 * moves, with ancilla measurement pipelined against the block moves of
 * the next transversal gate.
 *
 * With Table I parameters this reproduces the paper's quoted numbers:
 * "the gates in a QEC cycle taking around 400 us" and "moving a code
 * patch across the distance of a logical qubit takes around 500 us,
 * which is equal to the measurement time".
 */

#ifndef TRAQ_ARCH_QEC_CYCLE_HH
#define TRAQ_ARCH_QEC_CYCLE_HH

#include "src/platform/params.hh"

namespace traq::arch {

/** Timing breakdown of one logical QEC cycle. */
struct QecCycleTiming
{
    double seGatePhase = 0.0;     //!< 4 CX layers incl. ancilla moves
    double measurePhase = 0.0;    //!< max(measure, pipelined move)
    double total = 0.0;
    double patchMove = 0.0;       //!< transversal block move time
};

/**
 * Timing of one SE round plus a transversal logical gate, with the
 * ancilla measurement pipelined against the inter-patch block move
 * of the transversal gate.
 *
 * @param d code distance.
 * @param moveSites distance (in grid sites) of the transversal-gate
 *        block move; defaults to d (one patch width).
 */
QecCycleTiming
qecCycle(int d, const platform::AtomArrayParams &p,
         double moveSites = -1.0);

} // namespace traq::arch

#endif // TRAQ_ARCH_QEC_CYCLE_HH
