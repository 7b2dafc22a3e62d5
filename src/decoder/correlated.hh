/**
 * @file
 * Two-pass correlated matching decoder.
 *
 * A plain matcher decodes the decomposed graph as if its edges were
 * independent, but the DecodeGraph knows better: edges decomposed
 * from one physical mechanism (a Y data error's X/Z halves, or the
 * per-patch halves of an error propagated through a transversal
 * CNOT) carry partner hints.  This decoder runs matching twice:
 *
 *  1. a first pass over the syndrome with the base weights, keeping
 *     the list of graph edges its correction traverses;
 *  2. every partner of a used edge is reweighted with the posterior
 *     probability DecoderConfig::correlationBoost (the mechanism
 *     evidently fired, so its other half is nearly free);
 *  3. a second pass over the same syndrome with the reweighted graph
 *     produces the final correction.
 *
 * This is the matching-with-correlation-reweighting idea of
 * Fowler's correlated MWPM, applied across the transversal-CNOT
 * hyperedges of Refs [17,18]: it is what restores monotone
 * cross-distance suppression on transversal-CNOT circuits (the
 * d=5-worse-than-d=3 inversion of the plain joint matcher) and what
 * the paper's alpha ~ 1/6 per-CNOT error model presumes.
 *
 * Both passes route through the MWPM->union-find fallback composite,
 * so oversized syndromes degrade gracefully and are counted.
 */

#ifndef TRAQ_DECODER_CORRELATED_HH
#define TRAQ_DECODER_CORRELATED_HH

#include <cstdint>
#include <span>
#include <vector>

#include "src/decoder/decode_graph.hh"
#include "src/decoder/decoder.hh"
#include "src/decoder/fallback.hh"

namespace traq::decoder {

/** Two-pass correlated matcher over the shared decode graph. */
class CorrelatedDecoder final : public Decoder
{
  public:
    explicit CorrelatedDecoder(const DecodeGraph &graph,
                               const DecoderConfig &config = {});

    /**
     * Context-aware decode: the round horizon (if any) applies to
     * both passes.  External weight overrides (the erasure-aware
     * path) become the base weights of both passes: partner
     * reweighting then lowers edges below their *overridden* weight,
     * so herald-zeroed edges stay free and correlation evidence
     * still stacks on the rest.  With predecode on, peeled edges
     * join the first pass's evidence, so partner reweighting sees
     * the same mechanisms either way (peeling is skipped under an
     * override, matching the other decoders).
     *
     * usedEdges receives the edges of the pass whose correction is
     * returned.
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
        secondPasses_ = 0;
    }
    const char *name() const override { return "correlated"; }
    std::uint64_t fallbacks() const override
    {
        return inner_.fallbacks();
    }

    /** Second passes actually run (some partner edge reweighted). */
    std::uint64_t reweightedPasses() const { return secondPasses_; }

  private:
    const DecodeGraph &graph_;
    FallbackDecoder inner_;
    double boostCap_;               //!< posterior probability ceiling
    std::vector<double> weights_;   //!< base weights, patched per shot
    std::vector<double> ovWeights_; //!< override-base scratch
    std::vector<std::uint32_t> used_;
    std::vector<std::uint32_t> touched_;
    std::uint64_t secondPasses_ = 0;
};

} // namespace traq::decoder

#endif // TRAQ_DECODER_CORRELATED_HH
