#include "src/decoder/mwpm.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <string>

#include "src/common/assert.hh"

namespace traq::decoder {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Reach-cache size guards: one slot snapshots O(numNodes) doubles, so
// very large graphs (or adversarially many distinct sources) fall
// back to the uncached search instead of ballooning memory.  Both
// paths are bit-identical, so the guard is purely a resource cap.
constexpr std::size_t kReachCacheMaxNodes = 16384;
constexpr std::size_t kReachCacheMaxSlots = 4096;

/** Heap order of the search: a min-heap on (distance, node), the
 *  same comparator std::priority_queue<..., std::greater<>> uses. */
constexpr std::greater<> kHeapOrder{};

/**
 * The boundary bound: defects i and j with boundary exits b_i, b_j
 * are never matched to each other when their distance d_ij exceeds
 * pairBound(b_i + b_j) = x + δ(x), with δ(x) = 1e-6·(1 + x):
 *  - take a subset S whose lowest defect is i, and such a partner j;
 *  - solve() evaluates the boundary candidate fl(solve(S∖i) + b_i)
 *    first and takes a partner only on a strict <;
 *  - sending j to the boundary is one matching of S∖i, so
 *    solve(S∖i) <= solve(S∖{i,j}) + b_j, up to the rounding of
 *    adding the same (at most 22) terms in another order: ~5e-15
 *    relative, under 1e-9 for any cost below 1e5, far under δ;
 *  - so the pair candidate fl(solve(S∖{i,j}) + d_ij) exceeds the
 *    boundary candidate and cannot win the strict <.
 * Cutting such a pair leaves every DP cost and choice as it was.  An
 * infinite exit makes the bound infinite, so a cut always joins two
 * defects that both reach the boundary.  The bound and each of its
 * rounded steps are monotone in x, so a search may stop at the
 * largest bound any later defect can use.
 */
double
pairBound(double x)
{
    return x + 1e-6 * (1.0 + x);
}

} // namespace

MwpmDecoder::MwpmDecoder(const DecodeGraph &graph,
                         const DecoderConfig &config)
    : Decoder(graph, config), graph_(graph),
      maxDefects_(config.mwpmMaxDefects),
      reachCache_(resolveReachCache(config.reachCache))
{
    TRAQ_REQUIRE(maxDefects_ <= 22,
                 "bitmask matching is limited to 22 defects");
    const std::size_t n = graph_.numNodes();
    distStamp_.assign(n, 0);
    targetStamp_.assign(n, 0);
    dist_.assign(n, kInf);
    fromEdge_.assign(n, -1);
    if (reachCache_) {
        cacheStampOf_.assign(n, 0);
        cacheSlotOf_.assign(n, 0);
    }

    // Flat arcs in incident() order, weights pre-clamped to >= 0 so a
    // posterior-boosted (near-certain) edge cannot go negative, plus
    // the tie-break epsilon that makes the optimal matching
    // generically unique (see tieBreakEpsilon) — the predecode
    // identity relies on it.  Context overrides recombine the clamp
    // with the stored epsilon, giving the same doubles.
    arcStart_.reserve(n + 1);
    arcStart_.push_back(0);
    for (std::size_t u = 0; u < n; ++u) {
        for (std::uint32_t ei : graph_.incident(u)) {
            const GraphEdge &e = graph_.edges()[ei];
            std::int32_t to = kBoundary;
            if (e.u != kBoundary)
                to = static_cast<std::size_t>(e.u) == u ? e.v : e.u;
            const double eps = tieBreakEpsilon(ei);
            arcs_.push_back(
                {to, ei, (e.weight < 0.0 ? 0.0 : e.weight) + eps, eps});
        }
        arcStart_.push_back(static_cast<std::uint32_t>(arcs_.size()));
    }
}

void
MwpmDecoder::invalidateReachCache()
{
    if (!reachCache_)
        return;
    slots_.clear();
    if (++cacheEpoch_ == 0) {
        std::fill(cacheStampOf_.begin(), cacheStampOf_.end(), 0);
        cacheEpoch_ = 1;
    }
}

void
MwpmDecoder::searchFrom(std::uint32_t source, const DecodeContext &ctx,
                        bool bounded,
                        std::span<const std::uint32_t> targets,
                        double laterExit)
{
    // One stamp epoch per search: dist_/fromEdge_ are valid only for
    // nodes the search actually reached, so the reset is O(1), not
    // O(nodes).
    if (++epoch_ == 0) {
        std::fill(distStamp_.begin(), distStamp_.end(), 0);
        std::fill(targetStamp_.begin(), targetStamp_.end(), 0);
        epoch_ = 1;
    }
    std::size_t pending = 0;
    if (bounded) {
        for (std::uint32_t t : targets) {
            if (targetStamp_[t] != epoch_) {
                targetStamp_[t] = epoch_;
                ++pending;
            }
        }
    }
    const std::span<const double> weights = ctx.weights;
    const bool horizon = ctx.maxRound >= 0;
    const auto &edges = graph_.edges();
    double bestBoundary = kInf;
    std::int32_t boundaryEdgeNode = -1;  // node from which we exit
    std::int32_t boundaryEdge = -1;

    heap_.clear();
    distStamp_[source] = epoch_;
    dist_[source] = 0.0;
    fromEdge_[source] = -1;
    heap_.emplace_back(0.0, source);

    while (!heap_.empty()) {
        // Every later pop is at least the heap top, and weights are
        // >= 0: once the top cannot beat the boundary exit (strict
        // <), that exit is final.  A target still unsettled then
        // has distance >= top, so once the top also passes the
        // largest pair bound any later defect can use, the caller
        // would cut every such target anyway.
        const double top = heap_.front().first;
        if (bounded && top >= bestBoundary &&
            (pending == 0 || top > pairBound(bestBoundary + laterExit)))
            break;
        std::pop_heap(heap_.begin(), heap_.end(), kHeapOrder);
        const auto [d, u] = heap_.back();
        heap_.pop_back();
        if (d > dist_[u])
            continue;
        const Arc *a = arcs_.data() + arcStart_[u];
        const Arc *const end = arcs_.data() + arcStart_[u + 1];
        for (; a != end; ++a) {
            if (horizon && edges[a->edge].round > ctx.maxRound)
                continue;
            double w = a->weight;
            if (!weights.empty()) {
                const double o = weights[a->edge];
                w = (o < 0.0 ? 0.0 : o) + a->eps;
            }
            const double nd = d + w;
            if (a->to == kBoundary) {
                if (nd < bestBoundary) {
                    bestBoundary = nd;
                    boundaryEdgeNode = static_cast<std::int32_t>(u);
                    boundaryEdge = static_cast<std::int32_t>(a->edge);
                }
                continue;
            }
            const auto v = static_cast<std::uint32_t>(a->to);
            if (nd < (distStamp_[v] == epoch_ ? dist_[v] : kInf)) {
                distStamp_[v] = epoch_;
                dist_[v] = nd;
                fromEdge_[v] = static_cast<std::int32_t>(a->edge);
                heap_.emplace_back(nd, v);
                std::push_heap(heap_.begin(), heap_.end(), kHeapOrder);
            }
        }
        if (bounded && targetStamp_[u] == epoch_) {
            targetStamp_[u] = 0;
            --pending;
        }
    }
    searchBoundaryDist_ = bestBoundary;
    searchBoundaryNode_ = boundaryEdgeNode;
    searchBoundaryEdge_ = boundaryEdge;
}

template <class DistFn, class EdgeFn>
void
MwpmDecoder::fillReaches(std::span<const std::uint32_t> syn,
                         std::size_t i, bool wantEdges, DistFn distOf,
                         EdgeFn fromEdgeOf, double boundaryDist,
                         std::int32_t boundaryNode,
                         std::int32_t boundaryEdge)
{
    const std::uint32_t source = syn[i];
    auto fillPath = [&](std::uint32_t node, Reach *r) {
        r->obs = 0;
        r->edges.clear();
        std::uint32_t cur = node;
        while (cur != source) {
            std::int32_t ei = fromEdgeOf(cur);
            TRAQ_ASSERT(ei >= 0, "broken Dijkstra predecessor chain");
            const GraphEdge &e = graph_.edges()[ei];
            r->obs ^= e.observables;
            if (wantEdges)
                r->edges.push_back(static_cast<std::uint32_t>(ei));
            cur = (static_cast<std::uint32_t>(e.u) == cur)
                      ? static_cast<std::uint32_t>(e.v)
                      : static_cast<std::uint32_t>(e.u);
        }
    };

    // Later rows are filled, so every b_j is known: cut the pairs
    // past the boundary bound (see pairBound) before the DP.
    std::vector<Reach> &row = pair_[i];
    if (row.size() < syn.size())
        row.resize(syn.size());
    for (std::size_t j = i + 1; j < syn.size(); ++j) {
        Reach &r = row[j];
        r.dist = distOf(syn[j]);
        if (r.dist > pairBound(boundaryDist + toBoundary_[j].dist))
            r.dist = kInf;
        r.obs = 0;
        r.edges.clear();
        if (r.dist < kInf)
            fillPath(syn[j], &r);
    }
    Reach *boundary = &toBoundary_[i];
    boundary->dist = boundaryDist;
    boundary->obs = 0;
    boundary->edges.clear();
    if (boundaryNode >= 0) {
        fillPath(static_cast<std::uint32_t>(boundaryNode), boundary);
        boundary->obs ^= graph_.edges()[boundaryEdge].observables;
        boundary->edges.push_back(
            static_cast<std::uint32_t>(boundaryEdge));
    }
}

const MwpmDecoder::SsspSlot &
MwpmDecoder::ensureSlot(std::uint32_t source, const DecodeContext &ctx)
{
    if (cacheStampOf_[source] == cacheEpoch_)
        return slots_[cacheSlotOf_[source]];
    // First occurrence of this source in the current epoch: run the
    // full search into the epoch-stamped scratch, then snapshot it.
    // The snapshot IS the scratch state, so the cached and uncached
    // paths read identical distances and predecessor edges.
    searchFrom(source, ctx, /*bounded=*/false, {}, kInf);
    cacheStampOf_[source] = cacheEpoch_;
    cacheSlotOf_[source] = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    SsspSlot &slot = slots_.back();
    const std::size_t n = graph_.numNodes();
    slot.dist.assign(n, kInf);
    slot.fromEdge.assign(n, -1);
    for (std::size_t node = 0; node < n; ++node) {
        if (distStamp_[node] == epoch_) {
            slot.dist[node] = dist_[node];
            slot.fromEdge[node] = fromEdge_[node];
        }
    }
    slot.boundaryDist = searchBoundaryDist_;
    slot.boundaryNode = searchBoundaryNode_;
    slot.boundaryEdge = searchBoundaryEdge_;
    return slot;
}

void
MwpmDecoder::resetMemo(std::size_t m)
{
    // At most Fib(m+2) subsets are reachable from the full set by
    // "pair the lowest defect" steps (the empty set included); twice
    // that, rounded up to a power of two, keeps the load <= 1/2.
    std::size_t fibPrev = 1, fib = 1;  // Fib(1), Fib(2)
    for (std::size_t k = 2; k < m + 2; ++k) {
        const std::size_t next = fibPrev + fib;
        fibPrev = fib;
        fib = next;
    }
    const std::size_t cap = std::bit_ceil(2 * fib);
    if (memo_.size() < cap) {
        memo_.assign(cap, MemoEntry{});
        memoShift_ = 32 - std::countr_zero(cap);
    }
    if (++memoEpoch_ == 0) {
        for (MemoEntry &e : memo_)
            e.stamp = 0;
        memoEpoch_ = 1;
    }
}

MwpmDecoder::MemoEntry &
MwpmDecoder::memoSlot(std::uint32_t mask)
{
    const std::size_t wrap = memo_.size() - 1;
    std::size_t at = (mask * 0x9e3779b1u) >> memoShift_;
    while (memo_[at].stamp == memoEpoch_ && memo_[at].mask != mask)
        at = (at + 1) & wrap;
    return memo_[at];
}

double
MwpmDecoder::solve(std::uint32_t mask)
{
    if (mask == 0)
        return 0.0;
    MemoEntry &slot = memoSlot(mask);
    if (slot.stamp == memoEpoch_)
        return slot.cost;
    // Claim the slot before recursing: sub-masks never revisit this
    // mask, and the table is not resized mid-decode, so the reference
    // stays valid.
    slot.stamp = memoEpoch_;
    slot.mask = mask;

    // The lowest defect i either exits via the boundary or pairs
    // with a later defect j — boundary first, then partners
    // ascending, strict <, so ties resolve as in a bottom-up sweep.
    // A cut or unreachable partner (kInf) can never win, so its
    // sub-mask is not solved.
    const int i = std::countr_zero(mask);
    const std::uint32_t rest = mask & (mask - 1);
    double best = solve(rest) + toBoundary_[i].dist;
    std::int32_t choice = best < kInf ? -2 : -1;
    const std::vector<Reach> &row = pair_[i];
    for (std::uint32_t sub = rest; sub; sub &= sub - 1) {
        const int j = std::countr_zero(sub);
        if (row[j].dist == kInf)
            continue;
        const double c = solve(rest ^ (1u << j)) + row[j].dist;
        if (c < best) {
            best = c;
            choice = j;
        }
    }
    slot.cost = best;
    slot.choice = choice;
    return best;
}

void
MwpmDecoder::throwUnmatchable(std::span<const std::uint32_t> syn) const
{
    // A matching fails only when some group of mutually reachable
    // defects has odd size and no boundary exit.  Group the defects
    // by finite pair distance and name the lowest member of the
    // first such group.
    const std::size_t m = syn.size();
    std::vector<std::size_t> group(m);
    for (std::size_t i = 0; i < m; ++i) {
        group[i] = i;
        for (std::size_t k = 0; k < i; ++k)
            if (pair_[k][i].dist < kInf)
                group[i] = std::min(group[i], group[k]);
    }
    for (std::size_t g = 0; g < m; ++g) {
        std::size_t size = 0;
        bool exits = false;
        for (std::size_t i = 0; i < m; ++i) {
            if (group[i] == g) {
                ++size;
                exits = exits || toBoundary_[i].dist < kInf;
            }
        }
        if (size % 2 == 1 && !exits) {
            const std::string who =
                "defect " + std::to_string(syn[g]);
            if (size == 1)
                TRAQ_FATAL("MWPM: " + who +
                           " reaches neither the boundary nor another "
                           "defect");
            TRAQ_FATAL("MWPM: " + who + " is one of " +
                       std::to_string(size) +
                       " mutually reachable defects (an odd number) "
                       "with no path to the boundary");
        }
    }
    TRAQ_FATAL("MWPM: no finite-weight matching for defect " +
               std::to_string(syn[0]));
}

std::uint32_t
MwpmDecoder::decodeWithContext(std::span<const std::uint32_t> syndrome,
                               const DecodeContext &ctx,
                               std::vector<std::uint32_t> *usedEdges)
{
    TRAQ_REQUIRE(ctx.weights.empty() ||
                     ctx.weights.size() == graph_.edges().size(),
                 "context weight override size mismatch");
    if (syndrome.empty())
        return 0;
    // The cap is checked against the original syndrome, not the
    // post-peel residue, so predecode cannot change what this
    // decoder accepts (or how FallbackDecoder routes).
    TRAQ_REQUIRE(syndrome.size() <= maxDefects_,
                 "syndrome exceeds exact matching cap");

    std::span<const std::uint32_t> syn = syndrome;
    const std::uint32_t preCorrection = peelPairs(syn, ctx, usedEdges);
    const std::size_t m = syn.size();
    if (m == 0)
        return preCorrection;

    // Distances from each defect to the later ones and to the
    // boundary, last defect first, so that row i knows every later
    // b_j and can cut its pairs past the boundary bound.  The reach
    // cache only answers default-context searches: weight overrides
    // (correlated second pass, heralded shots) and round horizons
    // (windowed) change the metric, so those decodes always run the
    // bounded uncached search.  Both paths cut the same pairs, so
    // the DP reads the same rows from either.
    const bool cacheable = reachCache_ && ctx.weights.empty() &&
                           ctx.maxRound < 0 &&
                           graph_.numNodes() <= kReachCacheMaxNodes;
    const bool wantEdges = usedEdges != nullptr;
    pair_.resize(std::max(pair_.size(), m));
    toBoundary_.resize(std::max(toBoundary_.size(), m));
    double laterExit = 0.0;  // max b_j over the rows filled so far
    for (std::size_t i = m; i-- > 0;) {
        if (cacheable && (cacheStampOf_[syn[i]] == cacheEpoch_ ||
                          slots_.size() < kReachCacheMaxSlots)) {
            const SsspSlot &slot = ensureSlot(syn[i], ctx);
            fillReaches(
                syn, i, wantEdges,
                [&](std::uint32_t node) { return slot.dist[node]; },
                [&](std::uint32_t node) {
                    return slot.fromEdge[node];
                },
                slot.boundaryDist, slot.boundaryNode,
                slot.boundaryEdge);
        } else {
            searchFrom(syn[i], ctx, /*bounded=*/true,
                       syn.subspan(i + 1), laterExit);
            // A target the search left unsettled still carries the
            // current targetStamp_; it reads as unreachable, and the
            // cut would drop it anyway.
            fillReaches(
                syn, i, wantEdges,
                [&](std::uint32_t node) {
                    return distStamp_[node] == epoch_ &&
                                   targetStamp_[node] != epoch_
                               ? dist_[node]
                               : kInf;
                },
                [&](std::uint32_t node) { return fromEdge_[node]; },
                searchBoundaryDist_, searchBoundaryNode_,
                searchBoundaryEdge_);
        }
        laterExit = std::max(laterExit, toBoundary_[i].dist);
    }

    // Min-cost pairing of all defects (each with another defect or
    // with the boundary), memoised over the reachable subsets.
    resetMemo(m);
    const std::uint32_t full =
        static_cast<std::uint32_t>((std::uint64_t{1} << m) - 1);
    if (!(solve(full) < kInf))
        throwUnmatchable(syn);

    // Reconstruct and accumulate observable masks / used edges.
    std::uint32_t correction = preCorrection;
    std::uint32_t mask = full;
    while (mask) {
        const int i = std::countr_zero(mask);
        const MemoEntry &e = memoSlot(mask);
        TRAQ_ASSERT(e.stamp == memoEpoch_ && e.choice != -1,
                    "matching reconstruction failed");
        mask &= mask - 1;
        const Reach *r = &toBoundary_[i];
        if (e.choice >= 0) {
            r = &pair_[i][e.choice];
            mask ^= 1u << e.choice;
        }
        correction ^= r->obs;
        if (usedEdges)
            usedEdges->insert(usedEdges->end(), r->edges.begin(),
                              r->edges.end());
    }
    return correction;
}

} // namespace traq::decoder
