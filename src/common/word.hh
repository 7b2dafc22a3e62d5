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

/** Inert: perfbench/mc_workload.cc still names it (ROADMAP item 1). */
enum class CpuDispatch
{
    Auto,
};

/** Inert: perfbench/mc_workload.cc still names it (ROADMAP item 1). */
inline CpuDispatch resolveCpuDispatch(CpuDispatch requested)
{
    return requested;
}

} // namespace traq

#endif // TRAQ_COMMON_WORD_HH
