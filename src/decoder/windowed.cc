#include "src/decoder/windowed.hh"

#include <algorithm>

#include "src/common/assert.hh"

namespace traq::decoder {

WindowedDecoder::WindowedDecoder(const DecodeGraph &graph,
                                 const DecoderConfig &config)
    // Windowed passes decode under a round horizon, which bypasses
    // the reach cache; only the short-circuit full-history decode
    // (syndromes confined to the first window) benefits from it.
    : Decoder(graph, config), graph_(graph),
      inner_(graph, innerStageConfig(config)),
      window_(config.windowRounds), commit_(config.commitRounds)
{
    TRAQ_REQUIRE(window_ >= 1, "windowRounds must be >= 1");
    TRAQ_REQUIRE(commit_ >= 1 && commit_ <= window_,
                 "need 1 <= commitRounds <= windowRounds");
    parity_.assign(graph_.numNodes(), 0);
}

std::uint32_t
WindowedDecoder::decodeWithContext(
    std::span<const std::uint32_t> syndrome, const DecodeContext &ctx,
    std::vector<std::uint32_t> *usedEdges)
{
    TRAQ_REQUIRE(ctx.maxRound < 0,
                 "windowed decoder owns the round horizon");
    TRAQ_REQUIRE(usedEdges == nullptr,
                 "windowed decoder cannot report its committed edges");

    // Peel isolated adjacent pairs before streaming: each is a
    // single-mechanism event whose two defects no window boundary
    // could split into different commits anyway.  Skipped under a
    // weight override (matching the other decoders' peelers).
    std::span<const std::uint32_t> syn = syndrome;
    const std::uint32_t preCorrection = peelPairs(syn, ctx, nullptr);
    if (syn.empty())
        return preCorrection;

    const int rounds = graph_.numRounds();
    if (window_ >= rounds) {
        // The window already covers the whole history.
        ++windowsDecoded_;
        return preCorrection ^ inner_.decodeWithContext(syn, ctx);
    }

    // parity_ is all-zero between calls (every window run ends with
    // all pending defects consumed), so only touched nodes need
    // clearing — no O(numNodes) sweep per shot.
    for (std::uint32_t d : syn)
        parity_[d] ^= 1;
    // Candidate pending nodes; parity_ is the source of truth,
    // entries may be stale or duplicated.
    pending_.assign(syn.begin(), syn.end());

    std::uint32_t correction = preCorrection;
    for (int base = 0;; base += commit_) {
        const int horizon = base + window_ - 1;
        const bool last = horizon >= rounds - 1;
        const int commitEnd = base + commit_;

        // Sub-syndrome: pending defects inside the horizon.
        std::vector<std::uint32_t> &sub = sub_;
        sub.clear();
        for (std::uint32_t d : pending_)
            if (parity_[d] && graph_.detectorRound(d) <= horizon)
                sub.push_back(d);
        std::sort(sub.begin(), sub.end());
        sub.erase(std::unique(sub.begin(), sub.end()), sub.end());

        if (!sub.empty()) {
            ++windowsDecoded_;
            DecodeContext wctx = ctx;
            wctx.maxRound = horizon;
            used_.clear();
            const std::uint32_t corr =
                inner_.decodeWithContext(sub, wctx, &used_);
            if (last) {
                // Final window: everything commits.
                correction ^= corr;
                for (std::uint32_t d : sub)
                    parity_[d] = 0;
            } else {
                // Commit match edges behind the commit boundary;
                // toggling endpoint parity re-injects an artificial
                // defect when a path crosses the boundary.
                for (std::uint32_t ei : used_) {
                    const GraphEdge &e = graph_.edges()[ei];
                    if (e.round >= commitEnd)
                        continue;
                    correction ^= e.observables;
                    if (e.u != kBoundary) {
                        parity_[e.u] ^= 1;
                        pending_.push_back(
                            static_cast<std::uint32_t>(e.u));
                    }
                    parity_[e.v] ^= 1;
                    pending_.push_back(
                        static_cast<std::uint32_t>(e.v));
                }
            }
        }
        if (last)
            break;
    }
    return correction;
}

} // namespace traq::decoder
