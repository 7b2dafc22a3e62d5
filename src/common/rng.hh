/**
 * @file
 * Fast deterministic random number generation for Monte-Carlo sampling.
 *
 * Implements xoshiro256** (Blackman & Vigna), which is both much faster
 * than std::mt19937_64 and has a tiny state, making per-thread /
 * per-shot-batch generators cheap.  Determinism matters: all simulator
 * experiments in the test suite seed explicitly so results reproduce.
 */

#ifndef TRAQ_COMMON_RNG_HH
#define TRAQ_COMMON_RNG_HH

#include <cstddef>
#include <cstdint>

namespace traq {

/**
 * xoshiro256** pseudo-random generator.
 *
 * Satisfies the std uniform_random_bit_generator concept so it can be
 * used with <random> distributions when convenient, but also provides
 * branch-light helpers used in the hot sampling loops.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed, expanded via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /**
     * Stream-split constructor: derive an independent generator for
     * (seed, stream).  Stream k seeds its xoshiro state from the
     * k-th disjoint 4-word window of the splitmix64 sequence anchored
     * at seed, so streams never share splitmix outputs and stream 0
     * is bit-identical to Rng(seed).  This is what makes sharded
     * Monte-Carlo sampling deterministic for any thread count: shard
     * i always draws from Rng(seed, i) no matter which worker runs it.
     */
    Rng(std::uint64_t seed, std::uint64_t stream);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit value. */
    std::uint64_t next();

    result_type operator()() { return next(); }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound). bound must be > 0. */
    std::uint64_t below(std::uint64_t bound);

    /** Bernoulli trial with probability p (clamped to [0,1]). */
    bool bernoulli(double p);

    /**
     * 64 independent Bernoulli(p) trials packed into a word
     * (bit i = trial i).  One-word convenience over bernoulliPlane.
     */
    std::uint64_t bernoulliWord(double p);

    /**
     * Fill words[0..numWords) with 64 * numWords independent
     * Bernoulli(p) trials (bit i of word w = trial 64 w + i) — the
     * workhorse of the bit-sliced frame sampler's noise injection.
     *
     * Exact at the edges (p <= 0 -> all zeros, p >= 1 -> all ones;
     * NaN is treated as 0).  Sparse probabilities (p <= 0.25, the
     * regime of physical error rates) are sampled by geometric gap
     * skipping — one uniform draw per *success* plus one per plane,
     * instead of one per trial — which both removes the per-bit
     * 2^-53 quantization floor of threshold comparison (probabilities
     * below ~1e-16 are honored in expectation instead of being
     * rounded up) and makes the draw cost per shot shrink with the
     * plane width.  Dense probabilities (p >= 0.75) sample the
     * complement; the mid range falls back to per-bit thresholds.
     */
    void bernoulliPlane(double p, std::uint64_t *words,
                        std::size_t numWords);

  private:
    std::uint64_t s_[4];
    /** The sparse probability bernoulliPlane() last sampled and its
     *  1 / log1p(-q): the sampler asks for the same q once per target
     *  of a noise instruction, so the log is taken once per q. */
    double lastQ_ = 0.0;
    double lastInvLogQ_ = 0.0;
};

} // namespace traq

#endif // TRAQ_COMMON_RNG_HH
