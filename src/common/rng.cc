#include "src/common/rng.hh"

#include <cmath>

namespace traq {
namespace {

inline std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
    : Rng(seed, 0)
{}

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64 advances its state by a fixed gamma per draw, so
    // starting stream k at seed + 4k*gamma hands it the k-th disjoint
    // 4-word window of the same splitmix sequence; stream 0 matches
    // the plain Rng(seed) construction exactly.
    std::uint64_t sm = seed + stream * (4 * 0x9e3779b97f4a7c15ULL);
    for (auto &word : s_)
        word = splitmix64(sm);
    // Avoid the all-zero state (cannot occur from splitmix64 in
    // practice, but cheap to guarantee).
    if (!(s_[0] | s_[1] | s_[2] | s_[3]))
        s_[0] = 1;
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0,1).
    return (next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
        std::uint64_t threshold = (~bound + 1) % bound;
        while (lo < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            lo = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

std::uint64_t
Rng::bernoulliWord(double p)
{
    std::uint64_t w;
    bernoulliPlane(p, &w, 1);
    return w;
}

void
Rng::bernoulliPlane(double p, std::uint64_t *words,
                    std::size_t numWords)
{
    // !(p > 0) also routes NaN to the all-zeros branch.
    if (!(p > 0.0)) {
        for (std::size_t w = 0; w < numWords; ++w)
            words[w] = 0;
        return;
    }
    if (p >= 1.0) {
        for (std::size_t w = 0; w < numWords; ++w)
            words[w] = ~0ULL;
        return;
    }

    // Geometric gap sampling: the number of failures before the next
    // success is floor(log(u) / log(1 - p)) for u uniform on (0, 1).
    // Walking successes instead of trials costs one log per set bit
    // plus one per plane, so at physical error rates the plane cost
    // is dominated by the single terminating draw — and halves again
    // every time the plane width doubles.
    auto sparseFill = [&](double q, bool setOnes) {
        if (q != lastQ_) {
            lastQ_ = q;
            lastInvLogQ_ = 1.0 / std::log1p(-q);
        }
        const double invLogQ = lastInvLogQ_;
        const double total =
            static_cast<double>(numWords) * 64.0;
        double pos = 0.0;
        for (;;) {
            double u = uniform();
            while (u == 0.0) // 2^-53 tail; redraw keeps u in (0, 1)
                u = uniform();
            pos += std::floor(std::log(u) * invLogQ);
            if (pos >= total)
                break;
            const auto bit = static_cast<std::uint64_t>(pos);
            if (setOnes)
                words[bit >> 6] |= 1ULL << (bit & 63);
            else
                words[bit >> 6] &= ~(1ULL << (bit & 63));
            pos += 1.0;
        }
    };

    if (p <= 0.25) {
        for (std::size_t w = 0; w < numWords; ++w)
            words[w] = 0;
        sparseFill(p, /*setOnes=*/true);
    } else if (p >= 0.75) {
        // Dense: start from all-ones and clear the (sparse) zeros.
        for (std::size_t w = 0; w < numWords; ++w)
            words[w] = ~0ULL;
        sparseFill(1.0 - p, /*setOnes=*/false);
    } else {
        for (std::size_t w = 0; w < numWords; ++w) {
            std::uint64_t bits = 0;
            for (int i = 0; i < 64; ++i)
                bits |= static_cast<std::uint64_t>(uniform() < p)
                        << i;
            words[w] = bits;
        }
    }
}

} // namespace traq
