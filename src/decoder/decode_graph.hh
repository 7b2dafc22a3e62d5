/**
 * @file
 * Shared detector-graph layer for all decoders.
 *
 * Surface-code DEMs under depolarizing noise contain hyperedges (a Y
 * data error flips two X-type and two Z-type detectors; an error
 * propagated through a transversal CNOT flips detectors in *both*
 * patches).  As is standard for matching-type decoders, each
 * mechanism is decomposed by basis into parts with <= 2 detectors
 * each — but unlike an ad-hoc per-decoder build, the resulting edges
 * remember each other: every edge carries the list of *partner*
 * edges that came from the same physical mechanism, with the
 * posterior probability that the partner's half fired given this
 * edge is used (shared mechanism mass over edge mass).  Those
 * correlation hints are what the two-pass correlated decoder
 * consumes to restore the cross-patch correlations a plain matcher
 * throws away (Refs [17,18]; the paper's alpha ~ 1/6 per-CNOT
 * scaling assumes a correlation-aware decoder).
 *
 * Detector metadata (basis, patch, SE round) rides along from
 * codes::CircuitMeta, so clients can slice the graph by time — the
 * windowed streaming decoder decodes against a growing round
 * horizon without rebuilding anything.
 *
 * All decoders (mwpm, union_find, fallback, correlated, windowed)
 * are clients of this one graph; per-decode variation (reweighted
 * edges, round limits) is expressed through DecodeContext rather
 * than by building new graphs.
 */

#ifndef TRAQ_DECODER_DECODE_GRAPH_HH
#define TRAQ_DECODER_DECODE_GRAPH_HH

#include <cstdint>
#include <span>
#include <vector>

#include "src/codes/experiments.hh"
#include "src/sim/dem.hh"

namespace traq::decoder {

/** Sentinel node id for the virtual boundary. */
constexpr std::int32_t kBoundary = -1;

/** One decoding-graph edge (u == kBoundary for boundary edges). */
struct GraphEdge
{
    std::int32_t u = kBoundary;
    std::int32_t v = kBoundary;
    double probability = 0.0;
    double weight = 0.0;            //!< ln((1-p)/p), clipped
    std::uint32_t observables = 0;  //!< logical masks flipped
    /**
     * Largest SE round among the edge's real endpoints (0 when the
     * source metadata carries no rounds).  The windowed decoder
     * excludes edges beyond its horizon by this field.
     */
    std::int32_t round = 0;
};

/**
 * Deterministic per-edge tie-break epsilon.
 *
 * Structured decode graphs (uniform noise, symmetric layouts)
 * produce exactly tied minimum-weight matchings whose observable
 * parities can differ, and which tied solution a DP lands on depends
 * on recursion order — so removing defects (the predecode fast path)
 * could legally change the answer.  Adding a distinct tiny epsilon
 * per edge makes every edge-set total generically unique: the
 * optimal matching becomes a function of the syndrome alone, and
 * peeling a pair of it leaves the residue's optimum unchanged.  The
 * scale (~1e-9) is far below any real weight difference but far
 * above double rounding at path magnitudes, so only exact ties are
 * affected.  splitmix64 on the edge index keeps it deterministic
 * and uncorrelated with edge order.
 */
inline double
tieBreakEpsilon(std::uint32_t edgeIndex)
{
    std::uint64_t z = edgeIndex + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    // [1, 2) * 1e-9: strictly positive and distinct per edge.
    return (1.0 + static_cast<double>(z >> 11) * 0x1.0p-53) * 1e-9;
}

/**
 * Per-decode parameters threaded through the decoder clients.
 * Decoders fall back to the graph's own weights / full horizon when
 * the fields are left at their defaults.
 */
struct DecodeContext
{
    /**
     * Per-edge weight overrides (same indexing as edges()); empty
     * means "use GraphEdge::weight".  Entries are clamped to >= 0 at
     * the point of use so posterior-boosted (near-certain) edges
     * cannot produce negative path costs.
     */
    std::span<const double> weights{};
    /** If >= 0, edges with round > maxRound are invisible. */
    std::int32_t maxRound = -1;
};

/** Matching/union-find decode graph shared by every decoder. */
class DecodeGraph
{
  public:
    /**
     * Build from a DEM plus detector-basis/patch/round metadata.
     * Metadata vectors beyond detectorIsX may be empty (hand-built
     * DEMs): patches and rounds then default to 0.
     * @param dem the detector error model.
     * @param meta detector/observable metadata from the circuit
     *        builder.
     */
    static DecodeGraph fromDem(const sim::DetectorErrorModel &dem,
                               const codes::CircuitMeta &meta);

    /** Convenience: buildDem + fromDem for one experiment. */
    static DecodeGraph build(const codes::Experiment &exp);

    std::size_t numNodes() const { return numNodes_; }
    const std::vector<GraphEdge> &edges() const { return edges_; }

    /** Edge indices incident to node n (boundary edges included). */
    const std::vector<std::uint32_t> &
    incident(std::size_t n) const
    {
        return adj_[n];
    }

    /**
     * Correlated sibling edges of edge ei: edges produced by
     * decomposing the same error mechanism(s).  When one of them is
     * part of a correction, the physical mechanism likely fired, so
     * its partners become near-certain — the reweighting signal of
     * the correlated decoder.
     */
    std::span<const std::uint32_t> partners(std::uint32_t ei) const
    {
        return {partnerList_.data() + partnerStart_[ei],
                partnerStart_[ei + 1] - partnerStart_[ei]};
    }

    /**
     * Posterior probability that partner k of edge ei also fired,
     * given a correction used ei: the probability mass of the shared
     * mechanisms divided by ei's total probability.  Indexed in step
     * with partners(ei).
     */
    std::span<const double> partnerCond(std::uint32_t ei) const
    {
        return {partnerCondP_.data() + partnerStart_[ei],
                partnerStart_[ei + 1] - partnerStart_[ei]};
    }

    /** Total partner links (2x the number of correlated pairs). */
    std::size_t numPartnerLinks() const { return partnerList_.size(); }

    /** Herald channels of the source DEM (0 = no erasure noise). */
    std::uint32_t numHeraldChannels() const
    {
        return numHeraldChannels_;
    }

    /**
     * Herald channels whose erasure components contributed to edge
     * ei (mechanism provenance, sorted; usually empty).
     */
    std::span<const std::uint32_t> edgeChannels(std::uint32_t ei) const
    {
        return {channelList_.data() + channelStart_[ei],
                channelStart_[ei + 1] - channelStart_[ei]};
    }

    /**
     * Edges a fired herald channel c can explain (sorted edge
     * indices).  The erasure-aware decode path zeroes these edges'
     * weights in a per-shot DecodeContext override: an erased qubit's
     * Paulis are uniformly random, so traversing its edges carries no
     * evidence cost.
     */
    std::span<const std::uint32_t> channelEdges(std::uint32_t c) const
    {
        return {channelEdgeList_.data() + channelEdgeStart_[c],
                channelEdgeStart_[c + 1] - channelEdgeStart_[c]};
    }

    /** SE round of a detector (0 when metadata had no rounds). */
    std::int32_t detectorRound(std::uint32_t d) const
    {
        return detectorRound_.empty()
                   ? 0
                   : detectorRound_[d];
    }

    /** Patch of a detector (0 when metadata had no patches). */
    std::int32_t detectorPatch(std::uint32_t d) const
    {
        return detectorPatch_.empty()
                   ? 0
                   : detectorPatch_[d];
    }

    /** Patch of a logical observable (0 when metadata had none). */
    std::int32_t observablePatch(std::uint32_t k) const
    {
        return observablePatch_.empty()
                   ? 0
                   : observablePatch_[k];
    }

    /** One past the largest detector round in the graph. */
    int numRounds() const { return numRounds_; }

    /** Same-basis mechanism parts needing > 2 detectors (the
     *  cross-patch hyperedges transversal CNOTs create). */
    std::size_t numUnsplittable() const { return numUnsplittable_; }

    /**
     * Mechanisms flipping an observable with no same-basis detector
     * (invisible logical errors; should be 0 for d >= 3 circuits).
     */
    std::size_t numUndetectableLogical() const
    {
        return numUndetectableLogical_;
    }

    /**
     * 64-bit digest of everything a decoder's output can depend on:
     * edges (endpoints, probabilities, weights, observables, rounds),
     * partner posteriors, herald-channel provenance, and detector
     * metadata.  Two graphs with equal hashes decode every syndrome
     * identically for every decoder kind (modulo the negligible
     * collision probability, which the process-global memo resolves
     * by also comparing syndrome content).  Computed once in
     * fromDem(); 0 for a default-constructed graph.
     */
    std::uint64_t contentHash() const { return contentHash_; }

  private:
    std::uint64_t computeContentHash() const;

    std::size_t numNodes_ = 0;
    std::vector<GraphEdge> edges_;
    std::vector<std::vector<std::uint32_t>> adj_;
    /** CSR partner lists: edge ei's partners live in
     *  partnerList_[partnerStart_[ei] .. partnerStart_[ei+1]). */
    std::vector<std::size_t> partnerStart_;
    std::vector<std::uint32_t> partnerList_;
    std::vector<double> partnerCondP_;
    /** CSR herald-channel provenance per edge, and its transpose
     *  (edges per channel) for the per-shot erasure reweighting. */
    std::uint32_t numHeraldChannels_ = 0;
    std::vector<std::size_t> channelStart_;
    std::vector<std::uint32_t> channelList_;
    std::vector<std::size_t> channelEdgeStart_;
    std::vector<std::uint32_t> channelEdgeList_;
    std::vector<std::int32_t> detectorPatch_;
    std::vector<std::int32_t> detectorRound_;
    std::vector<std::int32_t> observablePatch_;
    int numRounds_ = 1;
    std::size_t numUnsplittable_ = 0;
    std::size_t numUndetectableLogical_ = 0;
    std::uint64_t contentHash_ = 0;
};

} // namespace traq::decoder

#endif // TRAQ_DECODER_DECODE_GRAPH_HH
