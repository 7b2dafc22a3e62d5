#include "src/decoder/correlated.hh"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hh"

namespace traq::decoder {

CorrelatedDecoder::CorrelatedDecoder(const DecodeGraph &graph,
                                     const DecoderConfig &config)
    // The inner composite never peels (this decoder owns the peeler)
    // but does get the reach cache: the first matching pass runs
    // under the default context, where cached searches apply; the
    // reweighted second pass bypasses the cache automatically.
    : Decoder(graph, config), graph_(graph),
      inner_(graph, innerStageConfig(config))
{
    TRAQ_REQUIRE(config.correlationBoost > 0.0 &&
                     config.correlationBoost <= 0.5,
                 "correlationBoost must be in (0, 0.5]");
    boostCap_ = config.correlationBoost;
    weights_.reserve(graph_.edges().size());
    for (const auto &e : graph_.edges())
        weights_.push_back(e.weight);
}

std::uint32_t
CorrelatedDecoder::decodeWithContext(
    std::span<const std::uint32_t> syndrome, const DecodeContext &ctx,
    std::vector<std::uint32_t> *usedEdges)
{
    if (syndrome.empty())
        return 0;

    // External overrides (herald-zeroed weights) replace the graph
    // weights as the base of both passes.  The scratch copy is
    // reassigned every overridden call, so no restore pass is needed
    // on that path.
    const bool hasOverride = !ctx.weights.empty();
    std::vector<double> *wp = &weights_;
    if (hasOverride) {
        TRAQ_REQUIRE(ctx.weights.size() == graph_.edges().size(),
                     "weight override must cover all edges");
        ovWeights_.assign(ctx.weights.begin(), ctx.weights.end());
        wp = &ovWeights_;
    }

    // Predecode peels only the *first* (evidence) pass: the peeled
    // edges seed used_ so partner reweighting sees the same evidence
    // the first pass would have produced by matching those pairs
    // itself, and the residue keeps the first matching cheap.  The
    // second pass — whose reweighted edges could legally reroute a
    // peeled pair — always decodes the full syndrome, so its result
    // is identical to predecode-off by construction.
    used_.clear();
    std::span<const std::uint32_t> syn = syndrome;
    const std::uint32_t preCorrection = peelPairs(syn, ctx, &used_);

    if (graph_.numPartnerLinks() == 0) {
        // No correlation hints (e.g. hand-built DEMs): one pass.
        if (usedEdges)
            usedEdges->insert(usedEdges->end(), used_.begin(),
                              used_.end());
        return preCorrection ^
               inner_.decodeWithContext(syn, ctx, usedEdges);
    }

    const std::uint32_t first =
        preCorrection ^ inner_.decodeWithContext(syn, ctx, &used_);
    // The first pass is the answer unless a partner gets boosted.
    // Report its edges before they are deduplicated: an edge shared
    // by two paths appears twice, so the list cancels to the
    // syndrome like the mask does.
    const std::size_t reported = usedEdges ? usedEdges->size() : 0;
    if (usedEdges)
        usedEdges->insert(usedEdges->end(), used_.begin(), used_.end());
    // Two matched paths can share an edge; each distinct edge is one
    // piece of evidence, not one per traversal.
    std::sort(used_.begin(), used_.end());
    used_.erase(std::unique(used_.begin(), used_.end()),
                used_.end());

    // Reweight the partners of every edge the first pass used with
    // the posterior that their shared mechanism fired.  Posteriors
    // from several used edges accumulate; a partner's weight only
    // ever decreases (evidence can make an edge more likely, never
    // less), and never below the configured cap's weight.
    touched_.clear();
    bool boosted = false;
    for (std::uint32_t ei : used_) {
        const auto qs = graph_.partners(ei);
        const auto cond = graph_.partnerCond(ei);
        for (std::size_t k = 0; k < qs.size(); ++k) {
            const std::uint32_t q = qs[k];
            const GraphEdge &eq = graph_.edges()[q];
            const double base =
                hasOverride ? ctx.weights[q] : eq.weight;
            const double cur = (*wp)[q];
            // Combine the existing belief with the new evidence as
            // independent alternatives: p' = p + c - p * c, capped
            // at the configured posterior ceiling.  An untouched
            // override weight converts back to a probability via
            // the log-odds it encodes (clamped to the >= 0 domain
            // the matcher uses).
            const double pPrior =
                cur != base
                    ? 1.0 / (1.0 + std::exp(cur))
                    : (hasOverride
                           ? 1.0 / (1.0 +
                                    std::exp(std::max(base, 0.0)))
                           : eq.probability);
            const double p2 = std::min(
                boostCap_, pPrior + cond[k] - pPrior * cond[k]);
            const double w2 =
                std::log((1.0 - p2) / std::max(p2, 1e-12));
            if (w2 < cur) {
                // Record the first effective touch only, so the
                // restoration below rewinds exactly once.
                if (!hasOverride && cur == base)
                    touched_.push_back(q);
                (*wp)[q] = w2;
                boosted = true;
            }
        }
    }
    if (!boosted)
        return first;  // no evidence worth a second pass

    ++secondPasses_;
    if (usedEdges)
        usedEdges->resize(reported);
    DecodeContext second = ctx;
    second.weights = *wp;
    const std::uint32_t correction =
        inner_.decodeWithContext(syndrome, second, usedEdges);
    for (std::uint32_t q : touched_)
        weights_[q] = graph_.edges()[q].weight;
    return correction;
}

} // namespace traq::decoder
