/**
 * @file
 * Sliding-window streaming decoder.
 *
 * Real-time decoding (the ~500 us per-QEC-round budget of Table I)
 * cannot wait for a shot's full detection record; it must decode a
 * bounded window of recent rounds and commit corrections behind a
 * lag.  This decoder models that pipeline on the shared DecodeGraph:
 *
 *  - rounds up to `base + windowRounds` are visible; the inner
 *    matcher decodes the pending defects against that horizon
 *    (DecodeContext::maxRound — no graph rebuilds);
 *  - correction edges lying entirely at rounds < base + commitRounds
 *    are committed: their observable masks accumulate and their
 *    endpoints' defect parity is toggled, which re-injects an
 *    artificial defect when a matched path crosses the commit
 *    boundary;
 *  - uncommitted match edges are discarded and their defects stay
 *    pending for the next window, whose horizon advances by
 *    commitRounds.  The final window (horizon past the last round)
 *    commits everything.
 *
 * Because committed regions stay part of the visible graph, any
 * leftover parity can still reach old edges, and with a reasonable
 * lookahead (windowRounds - commitRounds >= the error correlation
 * length) the stream reproduces the whole-history decode bit for
 * bit on memory circuits — the acceptance criterion the tests lock
 * in.
 *
 * With predecode on, isolated adjacent pairs are peeled up front
 * (they are single-mechanism events no window boundary can split
 * differently) and only the residue streams through the windows.
 */

#ifndef TRAQ_DECODER_WINDOWED_HH
#define TRAQ_DECODER_WINDOWED_HH

#include <cstdint>
#include <span>
#include <vector>

#include "src/decoder/decode_graph.hh"
#include "src/decoder/decoder.hh"
#include "src/decoder/fallback.hh"

namespace traq::decoder {

/** Streaming sliding-window decoder over the shared decode graph. */
class WindowedDecoder final : public Decoder
{
  public:
    explicit WindowedDecoder(const DecodeGraph &graph,
                             const DecoderConfig &config = {});

    /**
     * Context-aware decode: per-edge weight overrides (the
     * erasure-aware path) apply to every window's inner decode; the
     * streaming round horizon stays this decoder's own (a caller
     * maxRound is rejected — the window schedule owns it).  A
     * non-null usedEdges is rejected too: the committed corrections
     * are not reported as edges.
     */
    std::uint32_t
    decodeWithContext(std::span<const std::uint32_t> syndrome,
                      const DecodeContext &ctx,
                      std::vector<std::uint32_t> *usedEdges =
                          nullptr) override;

    void reset() override
    {
        Decoder::reset();
        inner_.reset();
        windowsDecoded_ = 0;
    }
    const char *name() const override { return "windowed"; }
    std::uint64_t fallbacks() const override
    {
        return inner_.fallbacks();
    }

    /** Window decode steps run since reset() (all shots). */
    std::uint64_t windowsDecoded() const { return windowsDecoded_; }

  private:
    const DecodeGraph &graph_;
    FallbackDecoder inner_;
    int window_;
    int commit_;

    std::vector<std::uint8_t> parity_;    //!< pending defect parity
    std::vector<std::uint32_t> pending_;  //!< candidate defect nodes
    std::vector<std::uint32_t> sub_;      //!< per-window sub-syndrome
    std::vector<std::uint32_t> used_;     //!< per-window match edges
    std::uint64_t windowsDecoded_ = 0;
};

} // namespace traq::decoder

#endif // TRAQ_DECODER_WINDOWED_HH
