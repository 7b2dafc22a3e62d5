/**
 * @file
 * Bit-sliced Pauli-frame Monte-Carlo sampler with wide bit-plane
 * batches.
 *
 * Simulates lanes * 64 shots of a noisy stabilizer circuit
 * simultaneously by tracking, for every qubit, the X/Z difference
 * ("frame") between each noisy shot and the noiseless reference
 * execution.  Because detectors and observables are parity checks on
 * measurements, their *flips* are exactly what a decoder consumes, so
 * no reference sample is needed.
 *
 * This is the same architectural idea as Stim's frame simulator.  The
 * word width is a runtime property (see common/word.hh): one lane is
 * the classic portable 64-shot batch; kWide512WordLanes lanes
 * (512-bit planes, the default backend) amortize instruction
 * dispatch and the sparse Bernoulli sampler's one-draw-per-plane
 * floor over 8x the shots, which is what makes large-shot-count
 * logical-error-rate estimation fast.  Back-to-back single-qubit noise channels of the same kind on
 * the same targets are fused into a single Bernoulli plane draw.
 *
 * The hot bodies (per-gate lane loops, transpose extraction) live in
 * frame_kernels.cc.
 */

#ifndef TRAQ_SIM_FRAME_HH
#define TRAQ_SIM_FRAME_HH

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/rng.hh"
#include "src/common/word.hh"
#include "src/sim/circuit.hh"

namespace traq::sim {

/**
 * Result of one (lanes * 64)-shot batch.
 *
 * Planes are stored lane-major per entry: detector d occupies words
 * [d * lanes, (d + 1) * lanes), and bit s of lane l is shot
 * l * 64 + s.  With lanes == 1 this is the historical flat layout
 * (detectors[d] is detector d's 64-shot word).
 */
struct FrameBatch
{
    unsigned lanes = 1;
    /** Detector planes: bit = detection event in that shot. */
    std::vector<std::uint64_t> detectors;
    /** Observable planes: bit = logical flip of that observable. */
    std::vector<std::uint64_t> observables;
    /**
     * Heralded-erasure planes, one per HERALDED_ERASE target in
     * instruction order (Circuit::numHeraldChannels): bit = that
     * shot's erasure fired and was flagged.  Empty when the circuit
     * carries no heralded channels, so noise-model-free sampling is
     * bit-identical to the pre-herald sampler.
     */
    std::vector<std::uint64_t> heralds;

    std::uint64_t shots() const { return 64ULL * lanes; }
    std::size_t numDetectors() const
    { return lanes ? detectors.size() / lanes : 0; }
    std::size_t numObservables() const
    { return lanes ? observables.size() / lanes : 0; }
    std::size_t numHeraldChannels() const
    { return lanes ? heralds.size() / lanes : 0; }

    /** The lane words of one detector / observable / herald plane. */
    std::span<const std::uint64_t> detector(std::size_t d) const
    { return {detectors.data() + d * lanes, lanes}; }
    std::span<const std::uint64_t> observable(std::size_t k) const
    { return {observables.data() + k * lanes, lanes}; }
    std::span<const std::uint64_t> herald(std::size_t c) const
    { return {heralds.data() + c * lanes, lanes}; }
};

/**
 * SoA view of one batch's decode inputs: per-shot syndromes in CSR
 * layout plus per-shot actual observable-flip masks.
 *
 * Shot s's flipped detectors are defects[offsets[s] .. offsets[s+1])
 * in ascending order; observables[s] is the shot's logical flip
 * mask (bit k = observable k).  All three arrays are flat and reused
 * across batches, so a warm extraction performs no heap allocation —
 * this is what decoder::decodeBatchSorted consumes (as a
 * decoder::SyndromeBatch view).
 */
struct SyndromeBlock
{
    /** Lanes of the source batch (shots() == 64 * lanes). */
    unsigned lanes = 1;
    /** CSR row starts; size shots() + 1 after extraction. */
    std::vector<std::uint32_t> offsets;
    /** Flipped detector ids, shot-major, ascending within a shot. */
    std::vector<std::uint32_t> defects;
    /** Per-shot actual observable flip masks. */
    std::vector<std::uint32_t> observables;
    /** CSR row starts of the herald lists; size shots() + 1 (all
     *  zero rows when the batch carries no herald planes). */
    std::vector<std::uint32_t> heraldOffsets;
    /** Fired herald channel ids, shot-major, ascending per shot. */
    std::vector<std::uint32_t> heraldIds;

    std::uint64_t shots() const { return 64ULL * lanes; }

    /** Shot s's syndrome (flipped detector ids, ascending). */
    std::span<const std::uint32_t> syndrome(std::uint64_t s) const
    {
        return {defects.data() + offsets[s],
                offsets[s + 1] - offsets[s]};
    }

    /** Shot s's fired herald channels (ascending). */
    std::span<const std::uint32_t> heralds(std::uint64_t s) const
    {
        return {heraldIds.data() + heraldOffsets[s],
                heraldOffsets[s + 1] - heraldOffsets[s]};
    }

  private:
    friend void extractSyndromeBlock(const FrameBatch &,
                                     std::span<const std::uint64_t>,
                                     SyndromeBlock &);
    friend void extractSyndromeBlockScalar(
        const FrameBatch &, std::span<const std::uint64_t>,
        SyndromeBlock &);
    std::vector<std::uint32_t> cursor_;  //!< fill-pass scratch
    /** Shot-major transposed bit rows (transpose extraction). */
    std::vector<std::uint64_t> rowBits_;
};

/**
 * Extract a whole batch into a SyndromeBlock (frame_kernels.cc):
 * detector and herald planes are turned shot-major by a blocked
 * 64x64 bit-matrix transpose and each shot's row words stream
 * straight into the CSR lists.  Masked-out shots (liveMask bit
 * clear) get empty syndromes and zero masks.  Bit-identical to
 * extractSyndromeBlockScalar — locked by tests — with flat reused
 * storage: the decode hot path's allocation-free SoA hand-off.
 */
void extractSyndromeBlock(const FrameBatch &batch,
                          std::span<const std::uint64_t> liveMask,
                          SyndromeBlock &out);

/**
 * The scalar extraction: a counting pass and a fill pass walking
 * only the *set* bits of the planes with countr_zero.  Kept as the
 * single reference oracle the transpose extraction is locked
 * against (and as the better choice for very sparse planes hit
 * once; the engine always goes through extractSyndromeBlock).
 */
void extractSyndromeBlockScalar(const FrameBatch &batch,
                                std::span<const std::uint64_t> liveMask,
                                SyndromeBlock &out);

/**
 * The frame simulator's mutable sampling state, grouped so the hot
 * loops in frame_kernels.cc can run over it as free functions.
 */
struct FrameSimState
{
    explicit FrameSimState(std::uint64_t seed) : rng(seed) {}

    Rng rng;
    std::vector<std::uint64_t> xf;    //!< X frame planes per qubit
    std::vector<std::uint64_t> zf;    //!< Z frame planes per qubit
    std::vector<std::uint64_t> mrec;  //!< measurement flip planes
    std::vector<std::uint64_t> plane; //!< Bernoulli plane scratch
    std::uint64_t numRec = 0;         //!< measurements recorded
};

/** Bit-sliced frame simulator over a configurable word width. */
class FrameSimulator
{
  public:
    /**
     * @param seed  RNG seed (reassignable via rng()).
     * @param lanes 64-bit lanes per sampling plane; each batch
     *              simulates lanes * 64 shots.  1 is the portable
     *              64-shot path; kWide512WordLanes the wide512
     *              backend.
     *              Any positive count works (tests use odd widths).
     * Third parameter inert: perfbench/mc_workload.cc (ROADMAP item 1).
     */
    explicit FrameSimulator(std::uint64_t seed = 0x66726d65ULL,
                            unsigned lanes = 1,
                            CpuDispatch = CpuDispatch::Auto);

    unsigned lanes() const { return lanes_; }
    /** Shots per sample()/sampleInto() call (64 * lanes). */
    std::uint64_t shotsPerBatch() const { return 64ULL * lanes_; }

    /** Run one batch of the circuit. */
    FrameBatch sample(const Circuit &circuit);

    /**
     * Run one batch into an existing FrameBatch, reusing its
     * allocations.  The hot path for long runs: after the first call
     * the per-batch cost is pure simulation, no heap traffic.
     */
    void sampleInto(const Circuit &circuit, FrameBatch &out);

    /**
     * Run at least minShots shots (rounded up to whole batches) and
     * count, for each observable, shots where the decoder-free logical
     * value flipped.  Convenience for noise-only sanity tests.
     */
    std::vector<std::uint64_t>
    countObservableFlips(const Circuit &circuit,
                         std::uint64_t minShots,
                         std::uint64_t *shotsOut);

    Rng &rng() { return st_.rng; }

  private:
    FrameSimState st_;
    unsigned lanes_ = 1;
};

} // namespace traq::sim

#endif // TRAQ_SIM_FRAME_HH
