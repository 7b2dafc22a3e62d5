/**
 * @file
 * Weighted union-find decoder (Delfosse–Nickerson style).
 *
 * Odd-parity clusters grow their boundary edges in unit weight
 * increments until they merge with another defect cluster or touch the
 * virtual boundary; the correction is then extracted by peeling a
 * spanning forest of the grown region.  This is the "fast but less
 * accurate than matching/MLE" end of the decoder spectrum the paper
 * sweeps via the decoding factor alpha (Sec. III.4, Fig. 13(a)).
 *
 * Like the exact matcher, it is a client of the shared DecodeGraph:
 * decodeWithContext() accepts a DecodeContext with reweighted edges
 * (the correlated decoder's second pass falls back here above the
 * MWPM cap) and/or a round horizon (windowed streaming decode), and
 * can report the correction's edges.
 *
 * Per-node and per-edge state is an epoch-stamped arena: a mark is
 * valid only if its stamp matches the current decode's epoch, so a
 * decode touches O(syndrome neighborhood) memory instead of
 * re-clearing O(nodes + edges) arrays — the property that makes batch
 * decoding (decodeBatchSorted over a whole sampler block) scale with
 * defect count, not graph size.
 *
 * The lists are reused members.  A cluster's frontier (the edges it
 * may still grow) is a {start, size} slice of one pool that is
 * cleared, capacity kept, at the start of each decode: a cluster
 * visit reads its frontier from the pool and writes the new one as a
 * fresh slice at the pool's end.  The work lists of the growth rounds
 * and of the peel are members too, so a warm decode allocates
 * nothing.
 */

#ifndef TRAQ_DECODER_UNION_FIND_HH
#define TRAQ_DECODER_UNION_FIND_HH

#include <cstdint>
#include <span>
#include <vector>

#include "src/decoder/decode_graph.hh"
#include "src/decoder/decoder.hh"

namespace traq::decoder {

/**
 * Union-find decoder over the shared decode graph.  Decodes reuse the
 * instance's buffers (see the file comment): once they have grown to
 * the largest decode seen, a decode makes no heap allocation.
 */
class UnionFindDecoder final : public Decoder
{
  public:
    /**
     * @param graph decode graph.
     * @param config reads predecode / predecodeRadius only (see
     *        Decoder).
     */
    explicit UnionFindDecoder(const DecodeGraph &graph,
                              const DecoderConfig &config = {});

    /**
     * Decode under a context.  Non-default weights are quantized
     * edge by edge as growth reads them, so a reweighted decode
     * costs only the edges it touches: the composites route every
     * syndrome above the MWPM cap here, which on lossy circuits is
     * most heralded shots at d=7.  If usedEdges is non-null the
     * correction's flipped edges are appended to it.
     */
    std::uint32_t
    decodeWithContext(std::span<const std::uint32_t> syndrome,
                      const DecodeContext &ctx,
                      std::vector<std::uint32_t> *usedEdges =
                          nullptr) override;

    const char *name() const override { return "union-find"; }

  private:
    const DecodeGraph &graph_;
    std::vector<std::uint32_t> edgeWeightQ_;  //!< quantized weights

    // Epoch-stamped arena (see file comment).  Node state is
    // initialized on first touch per decode; edge growth likewise.
    std::uint32_t epoch_ = 0;
    std::vector<std::uint32_t> nodeStamp_;
    std::vector<std::int32_t> parent_;
    std::vector<std::int32_t> rankArr_;
    std::vector<std::uint8_t> parity_;     //!< defect parity per root
    std::vector<std::uint8_t> touchesBoundary_;
    std::vector<std::uint8_t> defect_;
    /** A root's frontier: entries [start, start + size) of pool_. */
    struct Slice
    {
        std::uint32_t start = 0;
        std::uint32_t size = 0;
    };
    std::vector<Slice> frontier_;
    std::vector<std::uint32_t> pool_;  //!< this decode's frontiers
    std::vector<std::uint32_t> growthStamp_;
    std::vector<std::uint32_t> growth_;    //!< per-edge grown amount
    // Growth-stage work lists, cleared where they are used.
    std::vector<std::int32_t> active_, nextActive_;
    std::vector<std::uint32_t> solid_, keep_, pending_;
    // Peel-stage arena (boundary super-node is index numNodes).
    std::vector<std::uint32_t> adjStamp_;
    std::vector<std::vector<std::uint32_t>> peelAdj_;
    std::vector<std::uint32_t> visitedStamp_;
    std::vector<std::int32_t> parentEdge_;
    std::vector<std::int32_t> peelRoots_, peelOrder_;

    void bumpEpoch();
    /** Initialize node i's arena slots once per epoch. */
    void touchNode(std::int32_t i);
    std::uint32_t growthOf(std::uint32_t ei) const
    {
        return growthStamp_[ei] == epoch_ ? growth_[ei] : 0;
    }
    void growEdge(std::uint32_t ei)
    {
        if (growthStamp_[ei] != epoch_) {
            growthStamp_[ei] = epoch_;
            growth_[ei] = 0;
        }
        ++growth_[ei];
    }

    std::int32_t find(std::int32_t a);
    void unite(std::int32_t a, std::int32_t b);

    static std::uint32_t quantize(double w);

    /** Peel the grown region (solid_) into a correction. */
    std::uint32_t peel(std::vector<std::uint32_t> *usedEdges);
};

} // namespace traq::decoder

#endif // TRAQ_DECODER_UNION_FIND_HH
