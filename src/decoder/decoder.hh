/**
 * @file
 * Polymorphic decoder interface and factory.
 *
 * Every decoder consumes one syndrome (the list of flipped detector
 * ids) and predicts the logical-observable flip mask.  Concrete
 * decoders (union-find, exact MWPM, the MWPM->UF fallback composite,
 * the two-pass correlated matcher, the sliding-window streaming
 * decoder) implement this interface as clients of one shared
 * DecodeGraph; the Monte-Carlo engine and benches are written
 * against the interface only.  Every kind has one constructor,
 * (graph, DecoderConfig), and makeDecoder() switches over the closed
 * DecoderKind enum, so a decoder built directly and one built by the
 * factory from the same config are the same decoder.
 *
 * Decoder instances own their scratch buffers and are NOT thread
 * safe; parallel callers (MonteCarloEngine workers) each create
 * their own instance via makeDecoder().
 */

#ifndef TRAQ_DECODER_DECODER_HH
#define TRAQ_DECODER_DECODER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/assert.hh"
#include "src/decoder/decode_graph.hh"
#include "src/decoder/predecode.hh"

namespace traq::decoder {

/** Decoder selection for makeDecoder() and the Monte-Carlo harness. */
enum class DecoderKind
{
    /** Weighted union-find: fast, slightly less accurate. */
    UnionFind,
    /** Exact MWPM; throws above the defect cap (no fallback). */
    Mwpm,
    /** Exact MWPM with union-find fallback above the cap (default). */
    Fallback,
    /**
     * Two-pass correlated matching: a first matching pass estimates
     * which error mechanisms fired, partner edges across
     * transversal-CNOT / Y-error hyperedges are reweighted with that
     * posterior, and a second pass produces the correction.  This is
     * the correlation-aware decoding the paper's alpha ~ 1/6
     * per-CNOT error model assumes (Refs [17,18]).
     */
    Correlated,
    /**
     * Sliding-window streaming decode: rounds enter in windows of
     * DecoderConfig::windowRounds, corrections commit
     * DecoderConfig::commitRounds at a time, and defects matched
     * across a commit boundary are re-decoded in the next window.
     * Models the real-time budget of Table I (~500 us per round).
     */
    Windowed,
};

/**
 * Human-readable name of a decoder kind.  Throws FatalError for a
 * value outside the enum (no silent "unknown" string).
 */
const char *decoderKindName(DecoderKind kind);

/**
 * Parse a decoder kind from its decoderKindName() string (e.g. from
 * the TRAQ_DECODER environment variable).  Throws FatalError on an
 * unknown name, listing the known ones.
 */
DecoderKind decoderKindFromName(std::string_view name);

/** Every decoder kind, in enum order. */
std::vector<DecoderKind> registeredDecoderKinds();

/**
 * Resolve the decoder kind for a run: the TRAQ_DECODER environment
 * variable (a decoderKindName() string) wins when set and non-empty,
 * otherwise the requested kind is returned unchanged.
 */
DecoderKind resolveDecoderKind(DecoderKind requested);

/**
 * Resolve a DecoderConfig::predecode tri-state: 0 -> off, positive
 * -> on, negative (Auto) -> the TRAQ_PREDECODE environment variable
 * ("1"/"on"/"true" vs "0"/"off"/"false", unset or empty -> off).
 * Any other value throws FatalError listing the known spellings —
 * same loudness contract as TRAQ_DECODER / TRAQ_WORD_BACKEND.
 */
bool resolvePredecode(int requested);

/**
 * Resolve the syndrome-keyed decode-memoization tri-state used by
 * decodeBatchSorted() and the Monte-Carlo engine: 0 -> off, positive
 * -> on, negative (Auto) -> the TRAQ_DECODE_MEMO environment
 * variable ("1"/"on"/"true" vs "0"/"off"/"false").  Unlike predecode
 * the feature defaults ON when the variable is unset or empty —
 * memoization is bit-identical by construction, so there is no
 * accuracy trade-off to opt into.  Unknown spellings throw
 * FatalError (same loudness contract as TRAQ_DECODER).
 */
bool resolveDecodeMemo(int requested);

/**
 * Resolve the MWPM reach-cache tri-state (DecoderConfig::reachCache
 * / TRAQ_REACH_CACHE).  Same contract as resolveDecodeMemo: default
 * ON, bit-identical either way, unknown spellings fatal.
 */
bool resolveReachCache(int requested);

/**
 * Resolve the process-global decode-memo tri-state (caching tier 1,
 * TRAQ_GLOBAL_MEMO).  Same contract as resolveDecodeMemo: default
 * ON, bit-identical either way, unknown spellings fatal.  The global
 * tier piggybacks on the per-batch memo's replay bookkeeping, so the
 * engine only consults it when the per-batch memo is on too.
 */
bool resolveGlobalMemo(int requested);

/**
 * Resolve the compiled-artifact cache tri-state (caching tier 2,
 * TRAQ_COMPILE_CACHE; see compile_cache.hh).  Same contract as
 * resolveDecodeMemo: default ON, bit-identical either way, unknown
 * spellings fatal.
 */
bool resolveCompileCache(int requested);

/**
 * Default largest syndrome the exact MWPM stage decodes: the default
 * of DecoderConfig and McOptions alike.
 */
inline constexpr std::size_t kDefaultMwpmMaxDefects = 16;

/**
 * Construction-time options shared by all decoder kinds.  Each
 * tri-state is resolved once, by the class that owns the feature
 * (Decoder: predecode; MwpmDecoder: reachCache), so a decoder built
 * directly follows the environment like one from makeDecoder().
 */
struct DecoderConfig
{
    /** Largest syndrome the exact MWPM stage decodes. */
    std::size_t mwpmMaxDefects = kDefaultMwpmMaxDefects;
    /**
     * Ceiling on the posterior probability a partner edge of a
     * first-pass correction can be boosted to (correlated decoder).
     * The boost itself is the graph's per-link conditional
     * P(partner | edge used); 0.5 caps it at "free to use", lower
     * values cap the reweighting earlier.
     */
    double correlationBoost = 0.5;
    /**
     * Rounds visible per window (windowed decoder).  The default
     * 6-round window with a 2-round commit reproduces whole-history
     * decoding bit for bit on the memory circuits the tests lock in
     * (the 4-round lookahead exceeds the error correlation length
     * at circuit noise rates of interest).
     */
    int windowRounds = 6;
    /** Rounds committed per window step; <= windowRounds. */
    int commitRounds = 2;
    /**
     * Predecode fast path: peel isolated adjacent defect pairs (both
     * endpoints of one edge, no other defect within predecodeRadius
     * hops) before the full decoder runs on the residue.  Tri-state:
     * negative defers to the TRAQ_PREDECODE environment variable
     * (see resolvePredecode; default off), 0 forces off, positive
     * forces on.  Only the outermost decoder of a composite peels —
     * inner stages are built with it off (Decoder::innerStageConfig)
     * and see the already-peeled residue.
     */
    int predecode = -1;
    /** Isolation radius (graph hops) for the predecode peeler. */
    int predecodeRadius = 2;
    /**
     * MWPM reach cache: share single-source Dijkstra searches across
     * decodes whose source defect recurs (bit-identical on/off).
     * Tri-state like predecode: negative defers to TRAQ_REACH_CACHE
     * (see resolveReachCache; default ON), 0 forces off, positive
     * forces on.  Applies to every kind with an MWPM stage.
     */
    int reachCache = -1;
};

/**
 * SoA view over one batch of syndromes in CSR layout: shot s's
 * flipped detectors are defects[offsets[s] .. offsets[s+1]),
 * ascending.  This is the decoder-side shape of sim::SyndromeBlock
 * (spans, so the decoder layer needs no sim dependency) and the
 * input of decodeBatchSorted.
 *
 * For erasure-aware decoding the view also carries each shot's fired
 * herald channels, in the same CSR layout, plus the graph whose
 * channel ids they are.  Left empty (the default), every shot is
 * clean and decodes on the graph's own weights.
 */
struct SyndromeBatch
{
    /** CSR row starts; size shots() + 1. */
    std::span<const std::uint32_t> offsets;
    /** Flipped detector ids, shot-major, ascending within a shot. */
    std::span<const std::uint32_t> defects;
    /** Herald CSR row starts (size shots() + 1), or empty when the
     *  batch carries no heralds. */
    std::span<const std::uint32_t> heraldOffsets;
    /** Fired herald channel ids, shot-major, ascending per shot. */
    std::span<const std::uint32_t> heraldIds;
    /** Graph the herald channel ids index (DecodeGraph::channelEdges);
     *  required when any shot carries heralds. */
    const DecodeGraph *graph = nullptr;

    std::uint64_t shots() const
    {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }

    std::span<const std::uint32_t> syndrome(std::uint64_t s) const
    {
        return {defects.data() + offsets[s],
                offsets[s + 1] - offsets[s]};
    }

    /** Shot s's fired herald channels (empty for a clean shot). */
    std::span<const std::uint32_t> heralds(std::uint64_t s) const
    {
        if (heraldOffsets.empty())
            return {};
        return {heraldIds.data() + heraldOffsets[s],
                heraldOffsets[s + 1] - heraldOffsets[s]};
    }
};

/**
 * Abstract decoder over a fixed decode graph.  A decoder kind
 * implements decodeWithContext() and name(); decodeSpan() and the
 * batch path both route through decodeWithContext().
 *
 * The predecode peeler lives here, once for every kind: the
 * protected constructor resolves DecoderConfig::predecode, and each
 * kind calls peelPairs() at the point of its decode where the
 * residue takes over.  Composites build their inner stages from
 * innerStageConfig(), so a syndrome is peeled at most once.
 */
class Decoder
{
  public:
    virtual ~Decoder() = default;
    Decoder(const Decoder &) = delete;
    Decoder &operator=(const Decoder &) = delete;

    /**
     * Decode one syndrome (flipped detector ids, ascending) under
     * per-shot context overrides: per-edge weights (decodeBatchSorted
     * hands in an erasure-aware shot's herald-zeroed weights) and/or
     * a round horizon.  If usedEdges is non-null, the graph edges of
     * the correction are appended to it; a kind that cannot report
     * them says so in its override.
     * @return predicted logical-observable flip mask.
     */
    virtual std::uint32_t
    decodeWithContext(std::span<const std::uint32_t> syndrome,
                      const DecodeContext &ctx,
                      std::vector<std::uint32_t> *usedEdges = nullptr) = 0;

    /** Decode one syndrome on the graph's own weights. */
    std::uint32_t
    decodeSpan(std::span<const std::uint32_t> syndrome)
    {
        return decodeWithContext(syndrome, {});
    }

    /** Clear per-run statistics (fallback counters etc.);
     *  overrides call this too. */
    virtual void reset()
    {
        if (pre_)
            pre_->reset();
    }

    /** Short stable identifier, e.g. "union-find". */
    virtual const char *name() const = 0;

    /** Syndromes routed to a fallback stage since reset(). */
    virtual std::uint64_t fallbacks() const { return 0; }

    /** Defect pairs peeled by the predecode fast path since
     *  reset(); 0 when predecode is off. */
    std::uint64_t predecodedPairs() const
    {
        return pre_ ? pre_->pairsPeeled() : 0;
    }

  protected:
    /** A decoder without the peeler (test fakes). */
    Decoder() = default;

    /** Resolve config.predecode (see resolvePredecode) and, when it
     *  is on, build the peeler (see Predecoder) with
     *  config.predecodeRadius. */
    Decoder(const DecodeGraph &graph, const DecoderConfig &config)
    {
        if (resolvePredecode(config.predecode))
            pre_ = std::make_unique<Predecoder>(graph,
                                                config.predecodeRadius);
    }

    /** The config a composite builds its inner stages from: its own,
     *  with predecode off, since the composite peels itself. */
    static DecoderConfig innerStageConfig(DecoderConfig config)
    {
        config.predecode = 0;
        return config;
    }

    /**
     * Peel isolated adjacent pairs off syndrome when predecode is on
     * and ctx carries no weight override (the peel conditions use the
     * base weights): syndrome is pointed at the residue, peeled edges
     * are appended to usedEdges if non-null, and the peeled edges'
     * observable mask is returned.  Otherwise returns 0 and leaves
     * syndrome alone.
     */
    std::uint32_t
    peelPairs(std::span<const std::uint32_t> &syndrome,
              const DecodeContext &ctx,
              std::vector<std::uint32_t> *usedEdges)
    {
        if (!pre_ || !ctx.weights.empty())
            return 0;
        const std::uint32_t peeled =
            pre_->peel(syndrome, ctx, residue_, usedEdges);
        syndrome = residue_;
        return peeled;
    }

  private:
    std::unique_ptr<Predecoder> pre_;
    std::vector<std::uint32_t> residue_;  //!< post-peel syndrome
};

/**
 * Identity of one decoding problem setup: a 128-bit digest of the
 * DecodeGraph content hash plus the decoder kind and every
 * DecoderConfig field a decode result can depend on (tri-states
 * resolved first, so an explicit value and the equivalent env
 * default share entries).  Two independent mixes make an accidental
 * cross-setup collision (~2^-128) irrelevant in practice; the
 * process-global memo additionally compares syndrome content in
 * full, so even a collision cannot replay a wrong correction for a
 * *different* syndrome of the colliding setup.
 */
struct DecodeSetupKey
{
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    bool operator==(const DecodeSetupKey &) const = default;
};

/** Compute the setup key for (graph, kind, config). */
DecodeSetupKey decodeSetupKey(const DecodeGraph &graph,
                              DecoderKind kind,
                              const DecoderConfig &config);

class GlobalDecodeMemo;

/** What decodeBatchSorted() did beyond plain decoding. */
struct BatchDecodeStats
{
    /** Shots answered by replaying a memoized correction. */
    std::uint64_t memoHits = 0;
    /**
     * Distinct (defects, heralds) rows of this batch answered from
     * the process-global memo (tier 1) instead of decoding.  Unlike
     * the deterministic per-batch counters this depends on what
     * other batches/threads cached first, so it is reported
     * separately and never folded into tallies.
     */
    std::uint64_t globalHits = 0;
    /**
     * Fallback-counter increments that would have happened had the
     * replayed shots been decoded for real.  Memoization replays
     * these alongside the correction so fallbacks()-style statistics
     * stay bit-identical memo on/off: callers add replayedFallbacks
     * to the decoder's own counter delta.
     */
    std::uint64_t replayedFallbacks = 0;
    /** Same, for the predecodedPairs() counter. */
    std::uint64_t replayedPeels = 0;
};

/**
 * Reusable scratch for decodeBatchSorted().  Every buffer keeps its
 * capacity across batches, so a warm batch decode allocates nothing.
 * The memo's key space is one batch: its table is invalidated per
 * call by bumping the epoch, not cleared, and recurring syndromes
 * across batches are re-decoded unless the process-global memo
 * holds them.
 */
struct BatchDecodeScratch
{
    /** Shot indices in ascending defect-count order. */
    std::vector<std::uint32_t> perm;
    /** Counting-sort histogram: start of each defect count's run. */
    std::vector<std::uint32_t> countStart;
    /** Decode row of each sorted position, and each row's first
     *  shot (its defects and heralds are the row's key). */
    std::vector<std::uint32_t> rowOf;
    std::vector<std::uint32_t> rowShot;
    /** Per-row decode result and the counter deltas to replay. */
    std::vector<std::uint32_t> rowPredicted;
    std::vector<std::uint64_t> rowFallbacks;
    std::vector<std::uint64_t> rowPeels;
    /** One slot of the per-batch memo: (defects, heralds) hash ->
     *  row, live only while its epoch is the current one. */
    struct MemoSlot
    {
        std::uint64_t hash = 0;
        std::uint32_t row = 0;
        std::uint32_t epoch = 0;
    };
    /** Open-addressing memo table (power-of-two size, load <= 1/2)
     *  and the current batch's epoch. */
    std::vector<MemoSlot> memo;
    std::uint32_t memoEpoch = 0;
    /** Herald reweighting: the graph's edge weights with the last
     *  heralded row's edges (heraldTouched) zeroed, and the content
     *  hash of the graph they were copied from. */
    std::vector<double> heraldWeights;
    std::vector<std::uint32_t> heraldTouched;
    std::uint64_t heraldGraph = 0;
};

/**
 * Decode a batch in ascending-defect-count order, optionally
 * memoizing by (defects, fired heralds) content.  This is the one
 * batch-decode path: the Monte-Carlo engine calls it once per batch,
 * erasure-aware or not.
 *
 * Shots are ordered by defect count with a counting sort — stable,
 * so shots of one count keep shot order — cheap shots first: that
 * warms the decoder's arena scratch and the MWPM reach cache on the
 * easy mass of the distribution.  Results are scattered back to shot
 * order, so out[s] is bit-identical to decoding shot s directly.
 *
 * The sorted shots collapse into decode rows.  With memo on, a row
 * is one distinct (defects, heralds) key, and shots matching an
 * earlier shot of the same batch replay that row's correction
 * instead of decoding.  The memo is keyed by a 64-bit content hash
 * in an epoch-stamped open-addressing table; the first shot to
 * claim a hash owns it, and a hit is confirmed by a full content
 * compare, so a hash collision degrades to a duplicate decode, never
 * a wrong replay.  With memo off, every shot is its own row.  A clean
 * row decodes through decodeSpan(); a row with fired heralds decodes
 * through decodeWithContext() under the graph's weights with every
 * edge those channels can explain zeroed (an erased qubit's Pauli is
 * uniformly random, so its edges carry no evidence cost).  Counter
 * deltas (fallbacks, predecoded pairs) recorded for each row are
 * replayed too — see BatchDecodeStats — so every observable
 * statistic is identical memo on/off.
 *
 * With @p global non-null (requires memo on), each row is first
 * looked up in the process-global memo under @p setup (tier 1):
 * hits replay the cached correction and counter deltas, misses
 * decode and insert.  Because cached values equal what the decode
 * would have produced, out/tallies stay bit-identical for any
 * global-cache state; only BatchDecodeStats::globalHits varies.
 *
 * @param out predicted flip mask per shot; size >= batch.shots().
 * @param global process-global memo, or nullptr to skip tier 1.
 * @param setup key identifying (graph, kind, config); required when
 *        @p global is set.
 */
BatchDecodeStats decodeBatchSorted(Decoder &dec,
                                   const SyndromeBatch &batch,
                                   std::span<std::uint32_t> out,
                                   BatchDecodeScratch &scratch,
                                   bool memo,
                                   GlobalDecodeMemo *global = nullptr,
                                   DecodeSetupKey setup = {});

/**
 * Instantiate a decoder: the kind's class built from (graph,
 * config).  Each call returns a fresh instance with its own scratch
 * state, suitable for per-thread use.  Throws FatalError for a value
 * outside the enum.
 */
std::unique_ptr<Decoder> makeDecoder(DecoderKind kind,
                                     const DecodeGraph &graph,
                                     const DecoderConfig &config = {});

} // namespace traq::decoder

#endif // TRAQ_DECODER_DECODER_HH
