#include "src/decoder/union_find.hh"

#include <algorithm>
#include <cmath>

#include "src/common/assert.hh"

namespace traq::decoder {

std::uint32_t
UnionFindDecoder::quantize(double w)
{
    // Quantize edge weights to small integers (>= 1) so growth can
    // proceed in unit steps.  Typical weights at p ~ 1e-3 are ~7, so
    // rounding keeps relative ordering to ~15%.
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::lround(std::max(1.0, w))));
}

UnionFindDecoder::UnionFindDecoder(const DecodeGraph &graph,
                                   const DecoderConfig &config)
    : Decoder(graph, config), graph_(graph)
{
    edgeWeightQ_.reserve(graph_.edges().size());
    for (const auto &e : graph_.edges())
        edgeWeightQ_.push_back(quantize(e.weight));

    const std::size_t n = graph_.numNodes();
    nodeStamp_.assign(n, 0);
    parent_.assign(n, 0);
    rankArr_.assign(n, 0);
    parity_.assign(n, 0);
    touchesBoundary_.assign(n, 0);
    defect_.assign(n, 0);
    frontier_.resize(n);
    growthStamp_.assign(graph_.edges().size(), 0);
    growth_.assign(graph_.edges().size(), 0);
    adjStamp_.assign(n + 1, 0);
    peelAdj_.resize(n + 1);
    visitedStamp_.assign(n + 1, 0);
    parentEdge_.assign(n + 1, -1);
}

void
UnionFindDecoder::bumpEpoch()
{
    if (++epoch_ == 0) {
        // Stamp wrap: invalidate everything once per 2^32 decodes.
        std::fill(nodeStamp_.begin(), nodeStamp_.end(), 0);
        std::fill(growthStamp_.begin(), growthStamp_.end(), 0);
        std::fill(adjStamp_.begin(), adjStamp_.end(), 0);
        std::fill(visitedStamp_.begin(), visitedStamp_.end(), 0);
        epoch_ = 1;
    }
}

void
UnionFindDecoder::touchNode(std::int32_t i)
{
    if (nodeStamp_[i] != epoch_) {
        nodeStamp_[i] = epoch_;
        parent_[i] = i;
        rankArr_[i] = 0;
        parity_[i] = 0;
        touchesBoundary_[i] = 0;
        defect_[i] = 0;
        frontier_[i] = {};
    }
}

std::int32_t
UnionFindDecoder::find(std::int32_t a)
{
    while (parent_[a] != a) {
        parent_[a] = parent_[parent_[a]];
        a = parent_[a];
    }
    return a;
}

void
UnionFindDecoder::unite(std::int32_t a, std::int32_t b)
{
    a = find(a);
    b = find(b);
    if (a == b)
        return;
    if (rankArr_[a] < rankArr_[b])
        std::swap(a, b);
    parent_[b] = a;
    parity_[a] ^= parity_[b];
    touchesBoundary_[a] |= touchesBoundary_[b];
    if (rankArr_[a] == rankArr_[b])
        ++rankArr_[a];
}

std::uint32_t
UnionFindDecoder::decodeWithContext(
    std::span<const std::uint32_t> syndrome, const DecodeContext &ctx,
    std::vector<std::uint32_t> *usedEdges)
{
    // Effective quantized weight of an edge: a context override is
    // quantized where growth reads it, so a decode costs only the
    // edges it touches.
    TRAQ_REQUIRE(ctx.weights.empty() ||
                     ctx.weights.size() == graph_.edges().size(),
                 "context weight override size mismatch");
    const std::span<const double> ctxWeights = ctx.weights;
    auto weightQ = [&](std::uint32_t ei) {
        return ctxWeights.empty() ? edgeWeightQ_[ei]
                                  : quantize(ctxWeights[ei]);
    };
    const std::int32_t maxRound = ctx.maxRound;
    auto hidden = [&](const GraphEdge &e) {
        return maxRound >= 0 && e.round > maxRound;
    };

    std::span<const std::uint32_t> syn = syndrome;
    const std::uint32_t preCorrection = peelPairs(syn, ctx, usedEdges);

    bumpEpoch();
    for (std::uint32_t d : syn) {
        touchNode(static_cast<std::int32_t>(d));
        parity_[d] ^= 1;
        defect_[d] ^= 1;
    }

    // Frontier edge lists, indexed by cluster root (lazily cleaned),
    // as slices of pool_.
    pool_.clear();
    active_.clear();
    for (std::uint32_t d : syn) {
        if (parity_[d]) {
            const auto &inc = graph_.incident(d);
            frontier_[d] = {static_cast<std::uint32_t>(pool_.size()),
                            static_cast<std::uint32_t>(inc.size())};
            pool_.insert(pool_.end(), inc.begin(), inc.end());
            active_.push_back(static_cast<std::int32_t>(d));
        }
    }

    solid_.clear();
    std::size_t guard = 0;
    while (!active_.empty()) {
        TRAQ_ASSERT(++guard < 100000,
                    "union-find growth failed to terminate");
        nextActive_.clear();
        for (std::int32_t rootRaw : active_) {
            std::int32_t root = find(rootRaw);
            if (root != rootRaw)
                continue;  // absorbed earlier this pass
            if (!parity_[root] || touchesBoundary_[root])
                continue;

            // Take the root's frontier.  Nothing writes the pool until
            // the deposit below (merged frontiers are copied out of it
            // into pending_), so local stays readable.
            const Slice local = frontier_[root];
            frontier_[root] = {};
            keep_.clear();
            pending_.clear();
            std::size_t idx = 0;
            for (; idx < local.size; ++idx) {
                std::uint32_t ei = pool_[local.start + idx];
                const GraphEdge &e = graph_.edges()[ei];
                if (hidden(e))
                    continue;  // beyond the round horizon
                const std::uint32_t wq = weightQ(ei);
                if (growthOf(ei) >= wq)
                    continue;  // already solid
                if (e.u == kBoundary) {
                    if (find(e.v) != root)
                        continue;  // stale
                    growEdge(ei);
                    if (growth_[ei] < wq) {
                        keep_.push_back(ei);
                        continue;
                    }
                    solid_.push_back(ei);
                    touchesBoundary_[root] = 1;
                    ++idx;
                    break;  // cluster neutralized
                }
                touchNode(e.u);
                touchNode(e.v);
                std::int32_t ru = find(e.u);
                std::int32_t rv = find(e.v);
                if (ru == rv)
                    continue;  // internal edge
                if (ru != root && rv != root)
                    continue;  // stale inherited edge
                growEdge(ei);
                if (growth_[ei] < wq) {
                    keep_.push_back(ei);
                    continue;
                }
                solid_.push_back(ei);
                // Merge with the far cluster.
                std::int32_t farNode = (ru == root) ? e.v : e.u;
                std::int32_t farRoot = (ru == root) ? rv : ru;
                unite(root, farRoot);
                std::int32_t merged = find(root);
                const Slice far = frontier_[farRoot];
                pending_.insert(pending_.end(),
                                pool_.begin() + far.start,
                                pool_.begin() + far.start + far.size);
                frontier_[farRoot] = {};
                const auto &inc =
                    graph_.incident(static_cast<std::size_t>(farNode));
                pending_.insert(pending_.end(), inc.begin(), inc.end());
                root = merged;
                if (!parity_[root] || touchesBoundary_[root]) {
                    ++idx;
                    break;  // neutralized by merge
                }
            }
            // Deposit kept, pending, and any unprocessed tail as the
            // (possibly new) root's frontier: a fresh slice at the
            // pool's end.  The target is always empty — the visited
            // root's frontier was taken above, and every root merged
            // since had its frontier moved into pending_ — so the
            // slice replaces it rather than appending.
            std::int32_t m = find(root);
            TRAQ_ASSERT(frontier_[m].size == 0,
                        "union-find deposit target not empty");
            const std::size_t start = pool_.size();
            const std::size_t tail = local.size - idx;
            // Grow first, then copy: the tail is read from the pool
            // itself, which insert() may not take as its source, and
            // once grown the pool does not move.
            pool_.resize(start + keep_.size() + pending_.size() + tail);
            auto out = std::copy(keep_.begin(), keep_.end(),
                                 pool_.begin() + start);
            out = std::copy(pending_.begin(), pending_.end(), out);
            std::copy(pool_.begin() + local.start + idx,
                      pool_.begin() + local.start + local.size, out);
            if (pool_.size() - start > 2048) {
                const auto first = pool_.begin() + start;
                std::sort(first, pool_.end());
                pool_.erase(std::unique(first, pool_.end()),
                            pool_.end());
            }
            frontier_[m] = {static_cast<std::uint32_t>(start),
                            static_cast<std::uint32_t>(pool_.size() -
                                                       start)};
            // An odd cluster with an empty frontier can never grow
            // again (every incident edge is beyond the context's
            // round horizon); drop it rather than spin — the
            // defect stays unmatched.  (MWPM instead throws a
            // FatalError naming such a defect.)
            if (parity_[m] && !touchesBoundary_[m] &&
                frontier_[m].size != 0)
                nextActive_.push_back(m);
        }
        // Deduplicate the active list by current root.
        for (auto &r : nextActive_)
            r = find(r);
        std::sort(nextActive_.begin(), nextActive_.end());
        nextActive_.erase(
            std::unique(nextActive_.begin(), nextActive_.end()),
            nextActive_.end());
        active_.swap(nextActive_);
    }

    return preCorrection ^ peel(usedEdges);
}

std::uint32_t
UnionFindDecoder::peel(std::vector<std::uint32_t> *usedEdges)
{
    // Build adjacency over solid edges; the boundary is a super-node
    // with id n so excess defects can drain into it.  Adjacency and
    // visit marks are epoch-stamped (same epoch as the growth stage)
    // so only the solid region is ever cleared.
    const auto n = static_cast<std::int32_t>(graph_.numNodes());
    auto touchPeel = [&](std::int32_t node) {
        if (adjStamp_[node] != epoch_) {
            adjStamp_[node] = epoch_;
            peelAdj_[node].clear();
        }
    };
    for (std::uint32_t ei : solid_) {
        const GraphEdge &e = graph_.edges()[ei];
        std::int32_t u = (e.u == kBoundary) ? n : e.u;
        touchPeel(u);
        touchPeel(e.v);
        peelAdj_[u].push_back(ei);
        peelAdj_[e.v].push_back(ei);
    }

    std::uint32_t correction = 0;
    auto visited = [&](std::int32_t node) {
        return visitedStamp_[node] == epoch_;
    };

    // Root trees at the boundary first.
    peelRoots_.clear();
    peelRoots_.push_back(n);
    for (std::uint32_t ei : solid_) {
        const GraphEdge &e = graph_.edges()[ei];
        if (e.u != kBoundary)
            peelRoots_.push_back(e.u);
        peelRoots_.push_back(e.v);
    }

    for (std::int32_t rootNode : peelRoots_) {
        if (visited(rootNode) || adjStamp_[rootNode] != epoch_)
            continue;
        visitedStamp_[rootNode] = epoch_;
        auto &order = peelOrder_;
        order.assign(1, rootNode);
        std::size_t head = 0;
        while (head < order.size()) {
            std::int32_t u = order[head++];
            for (std::uint32_t ei : peelAdj_[u]) {
                const GraphEdge &e = graph_.edges()[ei];
                std::int32_t a = (e.u == kBoundary) ? n : e.u;
                std::int32_t b = e.v;
                std::int32_t w = (a == u) ? b : a;
                if (visited(w))
                    continue;
                visitedStamp_[w] = epoch_;
                parentEdge_[w] = static_cast<std::int32_t>(ei);
                order.push_back(w);
            }
        }
        // Peel leaves-first (reverse BFS order); defects migrate
        // toward the root, flipping tree edges as they go.
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            std::int32_t u = *it;
            if (u == rootNode || u == n)
                continue;
            if (defect_[u]) {
                const GraphEdge &e = graph_.edges()[parentEdge_[u]];
                correction ^= e.observables;
                if (usedEdges)
                    usedEdges->push_back(static_cast<std::uint32_t>(
                        parentEdge_[u]));
                std::int32_t a = (e.u == kBoundary) ? n : e.u;
                std::int32_t b = e.v;
                std::int32_t other = (a == u) ? b : a;
                defect_[u] = 0;
                if (other != n)
                    defect_[other] ^= 1;
            }
        }
    }
    return correction;
}

} // namespace traq::decoder
