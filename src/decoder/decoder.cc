#include "src/decoder/decoder.hh"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "src/common/assert.hh"
#include "src/decoder/correlated.hh"
#include "src/decoder/global_memo.hh"
#include "src/decoder/fallback.hh"
#include "src/decoder/mwpm.hh"
#include "src/decoder/union_find.hh"
#include "src/decoder/windowed.hh"

namespace traq::decoder {
namespace {

/** Kind/name table in enum order: the single source for the name
 *  helpers and registeredDecoderKinds(). */
constexpr struct
{
    DecoderKind kind;
    const char *name;
} kKindNames[] = {
    {DecoderKind::UnionFind, "union-find"},
    {DecoderKind::Mwpm, "mwpm"},
    {DecoderKind::Fallback, "mwpm+uf-fallback"},
    {DecoderKind::Correlated, "correlated"},
    {DecoderKind::Windowed, "windowed"},
};

} // namespace

const char *
decoderKindName(DecoderKind kind)
{
    for (const auto &entry : kKindNames)
        if (entry.kind == kind)
            return entry.name;
    TRAQ_FATAL("decoderKindName: unknown DecoderKind value " +
               std::to_string(static_cast<int>(kind)));
}

DecoderKind
decoderKindFromName(std::string_view name)
{
    std::string known;
    for (const auto &entry : kKindNames) {
        if (name == entry.name)
            return entry.kind;
        known += known.empty() ? "" : ", ";
        known += entry.name;
    }
    TRAQ_FATAL("unknown decoder kind '" + std::string(name) +
               "' (known: " + known + ")");
}

std::vector<DecoderKind>
registeredDecoderKinds()
{
    std::vector<DecoderKind> kinds;
    for (const auto &entry : kKindNames)
        kinds.push_back(entry.kind);
    return kinds;
}

namespace {

/**
 * The one tri-state parser behind every resolveX(): a non-negative
 * request wins (0 off, positive on); otherwise the environment
 * variable decides, and unset or empty falls back to the feature's
 * default.  Unknown spellings are fatal, listing the known ones.
 */
bool
resolveTriState(int requested, const char *envName, bool fallback)
{
    if (requested >= 0)
        return requested != 0;
    if (const char *env = std::getenv(envName)) {
        const std::string_view v(env);
        if (v == "0" || v == "off" || v == "false")
            return false;
        if (v == "1" || v == "on" || v == "true")
            return true;
        if (!v.empty())
            TRAQ_FATAL("unknown " + std::string(envName) +
                       " value '" + std::string(v) +
                       "' (known: 0/off/false, 1/on/true)");
    }
    return fallback;
}

} // namespace

bool
resolvePredecode(int requested)
{
    return resolveTriState(requested, "TRAQ_PREDECODE", false);
}

bool
resolveDecodeMemo(int requested)
{
    return resolveTriState(requested, "TRAQ_DECODE_MEMO", true);
}

bool
resolveReachCache(int requested)
{
    return resolveTriState(requested, "TRAQ_REACH_CACHE", true);
}

bool
resolveGlobalMemo(int requested)
{
    return resolveTriState(requested, "TRAQ_GLOBAL_MEMO", true);
}

bool
resolveCompileCache(int requested)
{
    return resolveTriState(requested, "TRAQ_COMPILE_CACHE", true);
}

DecoderKind
resolveDecoderKind(DecoderKind requested)
{
    if (const char *env = std::getenv("TRAQ_DECODER")) {
        if (env[0] != '\0')
            return decoderKindFromName(env);
    }
    return requested;
}

std::unique_ptr<Decoder>
makeDecoder(DecoderKind kind, const DecodeGraph &graph,
            const DecoderConfig &config)
{
    switch (kind) {
    case DecoderKind::UnionFind:
        return std::make_unique<UnionFindDecoder>(graph, config);
    case DecoderKind::Mwpm:
        return std::make_unique<MwpmDecoder>(graph, config);
    case DecoderKind::Fallback:
        return std::make_unique<FallbackDecoder>(graph, config);
    case DecoderKind::Correlated:
        return std::make_unique<CorrelatedDecoder>(graph, config);
    case DecoderKind::Windowed:
        return std::make_unique<WindowedDecoder>(graph, config);
    }
    TRAQ_FATAL("makeDecoder: unknown DecoderKind value " +
               std::to_string(static_cast<int>(kind)));
}

namespace {

/** FNV-style content hash of a shot's defects, with its fired
 *  herald channels mixed in when there are any (memo key; collisions
 *  are resolved by a full compare, never trusted). */
inline std::uint64_t
hashSyndrome(std::span<const std::uint32_t> syn,
             std::span<const std::uint32_t> heralds)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ syn.size();
    for (std::uint32_t x : syn)
        h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    if (!heralds.empty()) {
        h ^= 0xc2b2ae3d27d4eb4fULL + heralds.size();
        for (std::uint32_t c : heralds)
            h ^= c + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
}

/**
 * Decode one heralded row under the graph's weights with every edge
 * its fired channels can explain zeroed.  The previous heralded
 * row's zeros are undone first rather than after the decode, so a
 * decode that throws cannot leave stale zeros behind.
 */
std::uint32_t
decodeHeralded(Decoder &dec, const DecodeGraph &graph,
               std::span<const std::uint32_t> syn,
               std::span<const std::uint32_t> heralds,
               BatchDecodeScratch &scratch)
{
    auto &weights = scratch.heraldWeights;
    auto &touched = scratch.heraldTouched;
    const auto &edges = graph.edges();
    if (weights.size() != edges.size() ||
        scratch.heraldGraph != graph.contentHash()) {
        weights.clear();
        for (const GraphEdge &e : edges)
            weights.push_back(e.weight);
        touched.clear();
        scratch.heraldGraph = graph.contentHash();
    }
    for (std::uint32_t ei : touched)
        weights[ei] = edges[ei].weight;
    touched.clear();
    for (std::uint32_t c : heralds)
        for (std::uint32_t ei : graph.channelEdges(c))
            if (weights[ei] != 0.0) {
                touched.push_back(ei);
                weights[ei] = 0.0;
            }
    DecodeContext ctx;
    ctx.weights = weights;
    return dec.decodeWithContext(syn, ctx);
}

/** One mixing step of the setup-key digests. */
inline std::uint64_t
mixKey(std::uint64_t h, std::uint64_t x)
{
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdULL;
    return h ^ (h >> 33);
}

} // namespace

DecodeSetupKey
decodeSetupKey(const DecodeGraph &graph, DecoderKind kind,
               const DecoderConfig &config)
{
    // Tri-states are resolved here so an explicit request and the
    // equivalent env default land on the same entries.  Every field
    // below can change a decode result for at least one kind;
    // reachCache is included conservatively (it is bit-identical by
    // contract, but keying on it costs only duplicate entries).
    const std::uint64_t fields[] = {
        graph.contentHash(),
        static_cast<std::uint64_t>(kind),
        config.mwpmMaxDefects,
        std::bit_cast<std::uint64_t>(config.correlationBoost),
        static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(config.windowRounds)),
        static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(config.commitRounds)),
        resolvePredecode(config.predecode) ? 1u : 0u,
        static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(config.predecodeRadius)),
        resolveReachCache(config.reachCache) ? 1u : 0u,
    };
    DecodeSetupKey key{0x74696572316d656dULL, 0x71756272612d636bULL};
    for (std::uint64_t f : fields) {
        key.a = mixKey(key.a, f);
        key.b = mixKey(key.b, ~f);
    }
    return key;
}

BatchDecodeStats
decodeBatchSorted(Decoder &dec, const SyndromeBatch &batch,
                  std::span<std::uint32_t> out,
                  BatchDecodeScratch &scratch, bool memo,
                  GlobalDecodeMemo *global, DecodeSetupKey setup)
{
    TRAQ_REQUIRE(global == nullptr || memo,
                 "decodeBatchSorted: the global memo rides on the "
                 "per-batch memo's replay bookkeeping (memo on)");
    TRAQ_REQUIRE(batch.heraldIds.empty() || batch.graph != nullptr,
                 "decodeBatchSorted: heralded shots need the graph "
                 "their channel ids index");
    BatchDecodeStats stats;
    const std::uint64_t n = batch.shots();
    TRAQ_REQUIRE(out.size() >= n,
                 "decodeBatchSorted output must cover the batch");
    if (n == 0)
        return stats;

    // Ascending defect count, stable within a count class: the order
    // is a pure function of the batch, so the decode sequence — and
    // with it every tie-break-sensitive result — is deterministic.
    // A counting sort: histogram the counts, turn the histogram into
    // run starts, then drop the shots into their runs in shot order.
    auto count = [&](std::uint64_t s) {
        return batch.offsets[s + 1] - batch.offsets[s];
    };
    std::uint32_t maxCount = 0;
    for (std::uint64_t s = 0; s < n; ++s)
        maxCount = std::max(maxCount, count(s));
    auto &start = scratch.countStart;
    start.assign(std::size_t{maxCount} + 1, 0);
    for (std::uint64_t s = 0; s < n; ++s)
        ++start[count(s)];
    std::uint32_t run = 0;
    for (std::uint32_t &c : start)
        run += std::exchange(c, run);
    auto &perm = scratch.perm;
    perm.resize(n);
    for (std::uint64_t s = 0; s < n; ++s)
        perm[start[count(s)]++] = static_cast<std::uint32_t>(s);

    // Collapse the sorted shots into decode rows: with memo on, one
    // per distinct (defects, heralds) in first-occurrence order (which
    // inherits the defect-count sort); with memo off, one per shot.
    // The memo table is sized for load <= 1/2 and invalidated by a
    // fresh epoch; only a wrapped epoch needs the stamps cleared.
    std::size_t memoMask = 0;
    int memoShift = 0;
    if (memo) {
        auto &table = scratch.memo;
        if (table.size() < 2 * n) {
            table.assign(std::bit_ceil(2 * n), {});
            scratch.memoEpoch = 0;
        }
        if (++scratch.memoEpoch == 0) {
            for (auto &slot : table)
                slot.epoch = 0;
            scratch.memoEpoch = 1;
        }
        memoMask = table.size() - 1;
        memoShift = 64 - std::countr_zero(table.size());
    }
    scratch.rowOf.resize(n);
    scratch.rowShot.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint32_t s = perm[i];
        const auto nextRow =
            static_cast<std::uint32_t>(scratch.rowShot.size());
        if (memo) {
            const auto syn = batch.syndrome(s);
            const auto heralds = batch.heralds(s);
            const std::uint64_t h = hashSyndrome(syn, heralds);
            // Fibonacci hashing: the product's top bits pick the
            // home slot (the table has at least two).
            std::size_t at = (h * 0x9e3779b97f4a7c15ULL) >> memoShift;
            auto *slot = &scratch.memo[at];
            while (slot->epoch == scratch.memoEpoch && slot->hash != h)
                slot = &scratch.memo[at = (at + 1) & memoMask];
            if (slot->epoch != scratch.memoEpoch) {
                *slot = {h, nextRow, scratch.memoEpoch};
            } else {
                const std::uint32_t r = slot->row;
                const std::uint32_t first = scratch.rowShot[r];
                if (std::ranges::equal(syn, batch.syndrome(first)) &&
                    std::ranges::equal(heralds,
                                       batch.heralds(first))) {
                    ++stats.memoHits;
                    scratch.rowOf[i] = r;
                    continue;
                }
                // Hash collision: decode it as its own row.  The
                // table keeps the first claimant, so later copies of
                // *that* key still hit; later copies of this one
                // re-collide and re-decode — correct, just not
                // deduplicated.
            }
        }
        scratch.rowOf[i] = nextRow;
        scratch.rowShot.push_back(s);
    }

    // Decode each row once, recording the counter deltas the
    // replayed shots must reproduce.  With tier 1 active, a row
    // cached by an earlier batch replays instead of decoding — the
    // cached deltas equal what the decode would have produced, so
    // the accounting below cannot tell the difference.
    const std::size_t numRows = scratch.rowShot.size();
    scratch.rowPredicted.resize(numRows);
    scratch.rowFallbacks.resize(numRows);
    scratch.rowPeels.resize(numRows);
    const std::uint64_t fbBase = dec.fallbacks();
    const std::uint64_t ppBase = dec.predecodedPairs();
    for (std::size_t r = 0; r < numRows; ++r) {
        const auto syn = batch.syndrome(scratch.rowShot[r]);
        const auto heralds = batch.heralds(scratch.rowShot[r]);
        if (global != nullptr) {
            GlobalDecodeMemo::Value v;
            if (global->lookup(setup, syn, heralds, v)) {
                scratch.rowPredicted[r] = v.predicted;
                scratch.rowFallbacks[r] = v.fallbacks;
                scratch.rowPeels[r] = v.peels;
                ++stats.globalHits;
                continue;
            }
        }
        const std::uint64_t fb0 = dec.fallbacks();
        const std::uint64_t pp0 = dec.predecodedPairs();
        scratch.rowPredicted[r] =
            heralds.empty()
                ? dec.decodeSpan(syn)
                : decodeHeralded(dec, *batch.graph, syn, heralds,
                                 scratch);
        scratch.rowFallbacks[r] = dec.fallbacks() - fb0;
        scratch.rowPeels[r] = dec.predecodedPairs() - pp0;
        if (global != nullptr)
            global->insert(
                setup, syn, heralds,
                {scratch.rowPredicted[r],
                 static_cast<std::uint32_t>(scratch.rowFallbacks[r]),
                 static_cast<std::uint32_t>(scratch.rowPeels[r])});
    }

    // Replayed counter shares: everything the batch owes minus what
    // the decoder actually incremented while decoding the rows.
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint32_t r = scratch.rowOf[i];
        out[perm[i]] = scratch.rowPredicted[r];
        stats.replayedFallbacks += scratch.rowFallbacks[r];
        stats.replayedPeels += scratch.rowPeels[r];
    }
    stats.replayedFallbacks -= dec.fallbacks() - fbBase;
    stats.replayedPeels -= dec.predecodedPairs() - ppBase;
    return stats;
}

} // namespace traq::decoder
