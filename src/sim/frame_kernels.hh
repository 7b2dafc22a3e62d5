/**
 * @file
 * Runtime-dispatched frame-sampler kernels.
 *
 * The hot bodies of the frame simulator — the per-gate lane loops of
 * sampleInto and the bit-matrix-transpose syndrome extraction — are
 * compiled three times into one binary, once per CpuDispatch level
 * (baseline / AVX2 / AVX-512; see CMakeLists per-TU arch flags), and
 * selected at run time via cpuid or the TRAQ_CPU_DISPATCH override.
 * Every level runs the *same* plain 64-bit source, so all levels are
 * bit-identical by construction; the ISA only changes how the
 * compiler schedules the lane loops (one 512-bit op per 8-lane plane
 * at the avx512 level instead of eight scalar ops).
 *
 * Callers resolve a level once (per run, or at FrameSimulator
 * construction) and hold the returned table: dispatch costs one
 * indirect call per *batch*, not per instruction.
 */

#ifndef TRAQ_SIM_FRAME_KERNELS_HH
#define TRAQ_SIM_FRAME_KERNELS_HH

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/word.hh"
#include "src/sim/frame.hh"

namespace traq::sim::kernels {

/** One dispatch level's compiled kernel entry points. */
struct FrameKernels
{
    /** One whole batch of the circuit (the sampleInto hot body). */
    void (*sampleInto)(FrameSimState &st, const Circuit &circuit,
                       unsigned lanes, FrameBatch &out);
    /** Blocked bit-matrix-transpose CSR extraction; bit-identical
     *  to extractSyndromeBlockScalar (locked by tests). */
    void (*extractBlock)(const FrameBatch &batch,
                         std::span<const std::uint64_t> liveMask,
                         SyndromeBlock &out);
};

/** The three compiled copies (always present, even when the build
 *  could not enable the matching ISA — then they are baseline code
 *  and resolveCpuDispatch refuses to select them). */
const FrameKernels &baselineKernels();
const FrameKernels &avx2Kernels();
const FrameKernels &avx512Kernels();

/**
 * Kernel table for a dispatch level.  Auto resolves via
 * resolveCpuDispatch (TRAQ_CPU_DISPATCH env var, else the best
 * cpuid-supported level) and inherits its loud-failure contract.
 */
const FrameKernels &frameKernels(CpuDispatch level);

/** Keyhole into SyndromeBlock's private scratch for the per-level
 *  kernel namespaces (they cannot all be friends by name). */
struct BlockScratchAccess
{
    static std::vector<std::uint32_t> &cursor(SyndromeBlock &b)
    {
        return b.cursor_;
    }
    /** Shot-major transposed bit rows (transpose extraction). */
    static std::vector<std::uint64_t> &rowBits(SyndromeBlock &b)
    {
        return b.rowBits_;
    }
};

} // namespace traq::sim::kernels

#endif // TRAQ_SIM_FRAME_KERNELS_HH
