/**
 * @file
 * MWPM -> union-find fallback composite decoder.
 *
 * Exact matching is the accuracy reference but is exponential in the
 * defect count, so it only handles small syndromes; union-find handles
 * anything.  This composite owns the routing policy that used to be
 * inlined in runMonteCarlo: decode exactly when the syndrome is within
 * the MWPM cap, otherwise fall back to union-find and count it.  The
 * fallback count feeds McResult::mwpmFallbacks, which the paper-level
 * sweeps use to check the exact decoder actually covered the
 * below-threshold regime being measured.
 *
 * decodeWithContext() forwards the DecodeContext and the used-edge
 * list to whichever stage handles the syndrome, so the correlated
 * and windowed decoders can use the composite as their inner engine.
 * When predecode is enabled the composite peels (its inner stages
 * never do), and both the routing decision and the fallback count
 * key off the *original* syndrome size — peeling changes the work,
 * never the route.
 */

#ifndef TRAQ_DECODER_FALLBACK_HH
#define TRAQ_DECODER_FALLBACK_HH

#include <cstdint>
#include <span>
#include <vector>

#include "src/decoder/decode_graph.hh"
#include "src/decoder/decoder.hh"
#include "src/decoder/mwpm.hh"
#include "src/decoder/union_find.hh"

namespace traq::decoder {

/** Exact-MWPM-first decoder with union-find fallback. */
class FallbackDecoder final : public Decoder
{
  public:
    explicit FallbackDecoder(const DecodeGraph &graph,
                             const DecoderConfig &config = {});

    std::uint32_t
    decodeWithContext(std::span<const std::uint32_t> syndrome,
                      const DecodeContext &ctx,
                      std::vector<std::uint32_t> *usedEdges =
                          nullptr) override;

    void reset() override
    {
        Decoder::reset();
        fallbacks_ = 0;
        mwpm_.invalidateReachCache();
    }
    const char *name() const override { return "mwpm+uf-fallback"; }
    std::uint64_t fallbacks() const override { return fallbacks_; }

  private:
    MwpmDecoder mwpm_;
    UnionFindDecoder uf_;
    std::uint64_t fallbacks_ = 0;
};

} // namespace traq::decoder

#endif // TRAQ_DECODER_FALLBACK_HH
