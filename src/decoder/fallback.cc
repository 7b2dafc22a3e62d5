#include "src/decoder/fallback.hh"

namespace traq::decoder {

FallbackDecoder::FallbackDecoder(const DecodeGraph &graph,
                                 const DecoderConfig &config)
    : Decoder(graph, config), mwpm_(graph, innerStageConfig(config)),
      uf_(graph, innerStageConfig(config))
{}

std::uint32_t
FallbackDecoder::decodeWithContext(
    std::span<const std::uint32_t> syndrome, const DecodeContext &ctx,
    std::vector<std::uint32_t> *usedEdges)
{
    // Route on the original syndrome size so predecode on/off pick
    // the same engine (and count fallbacks identically); only then
    // peel and hand the residue down.
    const bool exact = mwpm_.canDecode(syndrome);
    const std::uint32_t preCorrection =
        peelPairs(syndrome, ctx, usedEdges);
    if (exact)
        return preCorrection ^
               mwpm_.decodeWithContext(syndrome, ctx, usedEdges);
    ++fallbacks_;
    return preCorrection ^
           uf_.decodeWithContext(syndrome, ctx, usedEdges);
}

} // namespace traq::decoder
