/**
 * @file
 * Detector error model (DEM) extraction.
 *
 * Decomposes every noise channel in a circuit into independent Pauli
 * error components (X_ERROR -> {X}, DEPOLARIZE1 -> {X,Y,Z} at p/3,
 * DEPOLARIZE2 -> 15 two-qubit components at p/15), finds which
 * detectors each component flips and which logical observables it
 * toggles, and merges components with identical symptoms by
 * XOR-probability combination.
 *
 * buildDem finds the symptoms in one backward sweep over the circuit
 * (the method of Stim's error analyzer, Gidney 2021,
 * arXiv:2103.02202).  It keeps each qubit's X- and Z-flip
 * sensitivity: the detector XOR-set and observable mask that a flip
 * of that qubit at the current point would toggle.  Each instruction
 * updates them by the transpose of its frame rule (CX(a,b):
 * sX[a] ^= sX[b], sZ[b] ^= sZ[a]; MR: sX = the measurement's
 * symptoms; R/RX: both cleared), walking its targets in reverse, and
 * a noise component's symptoms are the XOR of its qubits'
 * sensitivities at its site.  The sweep interns each component's
 * symptoms to a mechanism id as it finds them; probabilities are
 * then XOR-combined over those ids in forward order (instruction,
 * then target, then component), so every probability rounds exactly
 * as in a forward build.  Cost: O(instructions x sensitivity size +
 * components x symptom size).
 *
 * buildDemReference is the forward builder: it pushes every
 * component through the rest of the circuit, at O(components x
 * instructions) cost.  It is kept as the oracle that tests and
 * bench_sim_montecarlo compare buildDem against; nothing else calls
 * it.
 *
 * The output is the exact analogue of Stim's DEM and is what the
 * decoding-graph builder consumes.  Correlated decoding of transversal
 * gates (the paper's Refs [17,18]) falls out naturally: a CX between
 * two code patches propagates frames across patches, so the DEM
 * contains cross-patch error mechanisms and the decoder sees one joint
 * problem.
 */

#ifndef TRAQ_SIM_DEM_HH
#define TRAQ_SIM_DEM_HH

#include <cstdint>
#include <vector>

#include "src/sim/circuit.hh"

namespace traq::sim {

/** One independent error mechanism and its symptoms. */
struct ErrorMechanism
{
    double probability = 0.0;
    std::vector<std::uint32_t> detectors;  //!< sorted detector ids
    std::uint32_t observables = 0;         //!< bitmask (<= 32 logicals)
    /**
     * Herald channels that can produce this mechanism (sorted,
     * usually empty): the error components of a HERALDED_ERASE
     * instruction carry the erasure's channel id, and merging keeps
     * the union.  This is the mechanism provenance the decode graph
     * turns into per-shot erasure reweighting.
     */
    std::vector<std::uint32_t> channels;

    bool operator==(const ErrorMechanism &) const = default;
};

/** The full error model of one circuit. */
struct DetectorErrorModel
{
    std::uint32_t numDetectors = 0;
    std::uint32_t numObservables = 0;
    /** Herald channels of the source circuit (see Circuit). */
    std::uint32_t numHeraldChannels = 0;
    /** Sorted by detectors (lexicographically), then observables. */
    std::vector<ErrorMechanism> errors;

    /** Sum of error probabilities (expected symptom count scale). */
    double totalErrorWeight() const;

    bool operator==(const DetectorErrorModel &) const = default;
};

/**
 * Extract the detector error model of a noisy circuit.
 *
 * @param circuit the annotated noisy circuit.
 * @param discardInvisible drop mechanisms that flip no detector and no
 *        observable (true for decoding; false to audit noise volume).
 */
DetectorErrorModel buildDem(const Circuit &circuit,
                            bool discardInvisible = true);

/**
 * The forward builder: same contract and byte-identical output as
 * buildDem, at O(components x instructions) cost.  A test and bench
 * oracle only.
 */
DetectorErrorModel buildDemReference(const Circuit &circuit,
                                     bool discardInvisible = true);

} // namespace traq::sim

#endif // TRAQ_SIM_DEM_HH
