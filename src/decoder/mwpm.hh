/**
 * @file
 * Exact minimum-weight perfect matching decoder for small defect sets.
 *
 * Pairwise defect distances are computed with Dijkstra over the
 * shared DecodeGraph (the virtual boundary acts as an always-available
 * partner), and the optimal pairing is found by a memoised dynamic
 * program over defect subsets.  The DP only ever pairs the lowest
 * remaining defect, so from the full set it reaches Fib(m+2) subsets
 * (2,584 at m = 16) rather than all 2^m; it walks them top-down and
 * keeps each subset's cost and choice in a small epoch-stamped
 * open-addressing table.  Exact up to the constructor's cap (at most
 * 22 defects), which covers the below-threshold sampling regime used
 * to extract the paper's decoding factor alpha.  Fallback above the
 * cap is FallbackDecoder's job (it routes oversized syndromes to
 * union-find).
 *
 * Its decodeWithContext() is what the composite decoders build on:
 * a DecodeContext can reweight edges (correlated two-pass decoding,
 * herald-zeroed erasure decoding) or hide future rounds (windowed
 * streaming decoding), and the matched correction can be reported
 * as the list of graph edges it traverses — the edge posteriors the
 * correlated decoder feeds back across partner hyperedges.
 *
 * Searches run over a flat per-node arc array built once from the
 * graph, with a reused binary heap.  Rows are filled from the last
 * defect to the first, so the row of defect i knows the boundary
 * exit b_j of every later defect j.  A pair whose distance exceeds
 * b_i + b_j (plus a rounding margin) is never matched, since sending
 * both defects to the boundary is never worse; such pairs are cut
 * from the rows before the DP, which then skips them (the bound
 * sparse blossom uses too, Higgott & Gidney, arXiv:2303.15933).  A
 * search the reach cache does not snapshot stops once no unsettled
 * node can improve the boundary exit and either every later defect
 * is settled or the heap top passes the largest pair bound any of
 * them can use.  Dijkstra's distance/predecessor arrays are
 * epoch-stamped and every table is a reused member, so a decode
 * allocates nothing warm and clears only what it reaches — the
 * per-worker arena scratch the batch decode path leans on.
 */

#ifndef TRAQ_DECODER_MWPM_HH
#define TRAQ_DECODER_MWPM_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/decoder/decode_graph.hh"
#include "src/decoder/decoder.hh"

namespace traq::decoder {

/** Exact MWPM decoder over the shared decode graph. */
class MwpmDecoder final : public Decoder
{
  public:
    /**
     * @param graph decode graph.
     * @param config reads mwpmMaxDefects (at most 22; the cap
     *        applies to the syndrome as handed in, so predecode
     *        on/off route identically), predecode / predecodeRadius
     *        (see Decoder) and reachCache, resolved here: share
     *        Dijkstra searches across decodes whose source defect
     *        recurs (the SsspSlot cache below), bit-identical on/off.
     */
    explicit MwpmDecoder(const DecodeGraph &graph,
                         const DecoderConfig &config = {});

    /** True if this syndrome is within the exact-decoding cap. */
    bool canDecode(std::span<const std::uint32_t> syndrome) const
    {
        return syndrome.size() <= maxDefects_;
    }

    /**
     * Decode one syndrome under a context (reweighted edges and/or a
     * round horizon).  Throws FatalError above the cap, and when no
     * matching exists (a defect, or an odd group of defects, with no
     * path to the boundary); use FallbackDecoder when syndromes may
     * exceed the cap.  If usedEdges is non-null the edges traversed
     * by the matched correction are appended to it (unsorted,
     * duplicates possible when two paths share an edge).
     * @return predicted logical-observable flip mask.
     */
    std::uint32_t
    decodeWithContext(std::span<const std::uint32_t> syndrome,
                      const DecodeContext &ctx,
                      std::vector<std::uint32_t> *usedEdges =
                          nullptr) override;

    void reset() override
    {
        Decoder::reset();
        invalidateReachCache();
    }

    /** Drop every cached single-source search (epoch bump). */
    void invalidateReachCache();
    const char *name() const override { return "mwpm"; }

  private:
    const DecodeGraph &graph_;
    std::size_t maxDefects_;

    /** One traversal of a graph edge out of a node. */
    struct Arc
    {
        std::int32_t to;      //!< neighbour node, or kBoundary
        std::uint32_t edge;   //!< graph edge index
        double weight;        //!< clamped graph weight + epsilon
        double eps;           //!< tieBreakEpsilon(edge)
    };
    /** Node n's arcs are arcs_[arcStart_[n] .. arcStart_[n+1]), in
     *  graph.incident(n) order. */
    std::vector<std::uint32_t> arcStart_;
    std::vector<Arc> arcs_;

    // Epoch-stamped Dijkstra scratch: dist_/fromEdge_ entries are
    // valid only when distStamp_ matches the current search's epoch;
    // targetStamp_ marks the nodes a bounded search must settle.
    std::uint32_t epoch_ = 0;
    std::vector<std::uint32_t> distStamp_;
    std::vector<std::uint32_t> targetStamp_;
    std::vector<double> dist_;
    std::vector<std::int32_t> fromEdge_;
    /** Min-heap of (distance, node), driven by std::push_heap /
     *  std::pop_heap exactly as std::priority_queue would. */
    std::vector<std::pair<double, std::uint32_t>> heap_;

    struct Reach
    {
        double dist = 0.0;
        std::uint32_t obs = 0;
        /** Graph edges of the shortest path (empty if unreachable). */
        std::vector<std::uint32_t> edges;
    };

    // Reused per-decode tables (rows keep their capacity warm).
    // pair_[i][j] is filled for j > i only: the DP always pairs the
    // lowest defect of a subset, so no other entry is ever read.  A
    // cut pair reads as kInf, like an unreachable one.
    std::vector<std::vector<Reach>> pair_;
    std::vector<Reach> toBoundary_;

    /** One memoised DP subset: its min cost and what its lowest
     *  defect does (-2 boundary, j >= 0 pair with defect j). */
    struct MemoEntry
    {
        std::uint32_t stamp = 0;
        std::uint32_t mask = 0;
        double cost = 0.0;
        std::int32_t choice = -1;
    };
    /** Open-addressing table (power-of-two size, linear probing)
     *  whose entries are live when stamp == memoEpoch_. */
    std::vector<MemoEntry> memo_;
    std::uint32_t memoEpoch_ = 0;
    int memoShift_ = 32;

    /**
     * Reach cache: a snapshot of one full single-source Dijkstra
     * (distance + predecessor edge per node, plus the best boundary
     * exit).  Defect positions recur heavily across the shots of a
     * batch — especially once the engine sorts shots by defect count
     * — so the search from a recurring source is answered by reading
     * the snapshot instead of re-running the priority queue.  Valid
     * only for the default context (no weight overrides, no round
     * horizon): context decodes bypass the cache entirely, which is
     * what keeps correlated/windowed passes exact.  Slots are
     * epoch-stamped; invalidateReachCache() bumps the epoch instead
     * of clearing per-node state.
     */
    struct SsspSlot
    {
        std::vector<double> dist;          //!< kInf where unreached
        std::vector<std::int32_t> fromEdge;
        double boundaryDist = 0.0;
        std::int32_t boundaryNode = -1;
        std::int32_t boundaryEdge = -1;
    };
    bool reachCache_ = false;
    std::uint32_t cacheEpoch_ = 1;
    std::vector<std::uint32_t> cacheStampOf_; //!< per node
    std::vector<std::uint32_t> cacheSlotOf_;  //!< valid when stamped
    std::vector<SsspSlot> slots_;

    // Best boundary exit found by the latest searchFrom().
    double searchBoundaryDist_ = 0.0;
    std::int32_t searchBoundaryNode_ = -1;
    std::int32_t searchBoundaryEdge_ = -1;

    /**
     * Dijkstra from a defect into the epoch-stamped scratch and the
     * searchBoundary*_ members, honoring the context's weights and
     * round horizon.  With bounded set, the search stops once the
     * heap top cannot improve the boundary exit b and either every
     * node of targets is settled or the top passes the pair bound of
     * b + laterExit, where laterExit is the largest boundary exit of
     * any target.  The boundary exit and every settled target's
     * distance and path are then final; a target left unsettled
     * still carries the current targetStamp_, and its pair is one
     * the caller cuts.
     */
    void searchFrom(std::uint32_t source, const DecodeContext &ctx,
                    bool bounded,
                    std::span<const std::uint32_t> targets,
                    double laterExit);

    /** Cached-path search: snapshot a full search on first use of a
     *  source, then answer from the slot. */
    const SsspSlot &ensureSlot(std::uint32_t source,
                               const DecodeContext &ctx);

    /** Turn a distance/predecessor store (scratch or slot) searched
     *  from syn[i] into pair_[i][i+1..] and toBoundary_[i], cutting
     *  the pairs past the boundary bound.  Needs toBoundary_[j] for
     *  every j > i. */
    template <class DistFn, class EdgeFn>
    void fillReaches(std::span<const std::uint32_t> syn, std::size_t i,
                     bool wantEdges, DistFn distOf, EdgeFn fromEdgeOf,
                     double boundaryDist, std::int32_t boundaryNode,
                     std::int32_t boundaryEdge);

    /** Size the memo for m defects and start a fresh epoch. */
    void resetMemo(std::size_t m);

    /** The memo slot holding mask, or the empty slot it belongs in. */
    MemoEntry &memoSlot(std::uint32_t mask);

    /** Min matching cost of the defects in mask (memoised). */
    double solve(std::uint32_t mask);

    /** Throw the FatalError for an unmatchable syndrome. */
    [[noreturn]] void
    throwUnmatchable(std::span<const std::uint32_t> syn) const;
};

} // namespace traq::decoder

#endif // TRAQ_DECODER_MWPM_HH
