#include "src/arch/qec_cycle.hh"

#include <algorithm>

#include "src/common/assert.hh"

namespace traq::arch {

QecCycleTiming
qecCycle(int d, const platform::AtomArrayParams &p, double moveSites)
{
    TRAQ_REQUIRE(d >= 3, "distance must be >= 3");
    if (moveSites < 0.0)
        moveSites = d;
    QecCycleTiming t;
    // Four CX layers; each layer moves the ancilla block to the next
    // plaquette corner (~1 site) and applies a gate.
    t.seGatePhase =
        4.0 * (platform::moveTimeSites(1.0, p) + p.gateTime);
    t.patchMove = platform::moveTimeSites(moveSites, p);
    // Ancilla measurement is pipelined against the transversal-gate
    // block move of the data qubits (Sec. IV.2).
    t.measurePhase = std::max(p.measureTime, t.patchMove);
    t.total = t.seGatePhase + t.measurePhase;
    return t;
}

} // namespace traq::arch
