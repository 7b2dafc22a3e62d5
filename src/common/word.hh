/**
 * @file
 * Wide bit-plane word configuration for the frame sampler.
 *
 * The bit-sliced simulator historically processed exactly 64 shots
 * per pass (one machine word).  This header generalizes the word to
 * a configurable number of 64-bit lanes: a "plane" of lanes * 64
 * Bernoulli trials is drawn in one call, frames are lanes words per
 * qubit, and one pass over the circuit simulates lanes * 64 shots.
 * Wider planes amortize both the per-instruction dispatch cost and
 * the at-least-one-RNG-draw-per-plane floor of the sparse Bernoulli
 * sampler (see Rng::bernoulliPlane), which is where the throughput
 * win over the 64-bit path comes from.
 *
 * Two backends are exposed:
 *  - Scalar64: the portable one-lane path (64 shots per batch), the
 *    reference stream that pinned tests and service goldens use;
 *  - Wide512:  kWide512WordLanes lanes (512-bit planes), the default.
 *
 * Selection is per run: engines take a WordBackend option whose Auto
 * value defers to the TRAQ_WORD_BACKEND environment variable ("64" /
 * "scalar" / "scalar64" vs "512" / "wide512"), defaulting to
 * Wide512.  An unrecognized TRAQ_WORD_BACKEND value throws
 * FatalError listing the known names — a typo'd backend must not
 * silently fall back to the default (same loudness contract as
 * TRAQ_DECODER).  Each backend is individually deterministic — for
 * a fixed backend, any thread count reproduces the single-thread
 * tallies bit-identically — but the two backends consume randomness
 * in different orders, so they agree statistically, not bit-for-bit
 * (and exactly on deterministic circuits).
 *
 * Orthogonal to the backend (how many lanes a plane has) is the
 * *dispatch level* (what vector ISA executes the lane loops).  The
 * frame-sampler kernels are compiled three times — baseline, AVX2,
 * AVX-512 — into one binary, and CpuDispatch picks the level at run
 * time via cpuid.  The lane loops are plain 64-bit XOR/AND/shift
 * code, so every dispatch level produces bit-identical planes on any
 * x86-64 machine; the ISA only changes how the compiler schedules
 * them.  An unrecognized TRAQ_CPU_DISPATCH value, or an explicitly
 * requested level the build or CPU cannot run, throws FatalError —
 * same loudness contract as TRAQ_WORD_BACKEND.
 */

#ifndef TRAQ_COMMON_WORD_HH
#define TRAQ_COMMON_WORD_HH

namespace traq {

/** Lanes (64-bit words) per sampling plane of the wide512 backend. */
inline constexpr unsigned kWide512WordLanes = 8;

/** Bit-plane backend selector for sampling engines. */
enum class WordBackend
{
    Auto,     //!< TRAQ_WORD_BACKEND env var, else Wide512
    Scalar64, //!< portable one-lane path: 64 shots per batch
    Wide512,  //!< kWide512WordLanes lanes per batch
};

/**
 * Resolve Auto against the TRAQ_WORD_BACKEND environment variable
 * ("64"/"scalar"/"scalar64" -> Scalar64, "512"/"wide512" -> Wide512,
 * unset or empty -> Wide512).  Any other value throws FatalError
 * listing the known names.  Scalar64 and Wide512 pass through
 * unchanged.
 */
WordBackend resolveWordBackend(WordBackend requested);

/** Lanes per plane for a resolved backend (Auto is resolved first). */
unsigned wordBackendLanes(WordBackend backend);

/** Short human-readable backend name ("scalar64" / "wide512"). */
const char *wordBackendName(WordBackend backend);

/**
 * Runtime CPU dispatch level for the multi-versioned sampler /
 * extraction kernels.  Orthogonal to WordBackend: the backend fixes
 * the plane width (shots per batch and RNG consumption order, hence
 * the sampled bits), the dispatch level only fixes which compiled
 * copy of the bit-identical lane loops executes.
 */
enum class CpuDispatch
{
    Auto,     //!< TRAQ_CPU_DISPATCH env var, else best supported
    Baseline, //!< portable x86-64 codegen
    Avx2,     //!< 256-bit vector codegen
    Avx512,   //!< 512-bit vector codegen
};

/**
 * True when this build carries a `level` copy of the kernels AND the
 * running CPU can execute it.  Baseline is always supported; Auto is
 * reported supported (it resolves to a supported level).
 */
bool cpuDispatchSupported(CpuDispatch level);

/**
 * Resolve Auto against the TRAQ_CPU_DISPATCH environment variable
 * ("baseline", "avx2", "avx512"/"avx512f"; unset, empty or "auto"
 * -> the highest cpuDispatchSupported level).  An unknown value
 * throws FatalError listing the known names, and a level that is
 * known but not supported (by this build or this CPU) — whether
 * requested explicitly or via the environment — throws FatalError
 * rather than silently degrading.  Baseline/Avx2/Avx512 arguments
 * pass through the same support check.
 */
CpuDispatch resolveCpuDispatch(CpuDispatch requested);

/** Short stable level name ("auto"/"baseline"/"avx2"/"avx512"). */
const char *cpuDispatchName(CpuDispatch level);

} // namespace traq

#endif // TRAQ_COMMON_WORD_HH
