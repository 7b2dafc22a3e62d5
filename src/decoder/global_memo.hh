/**
 * @file
 * Process-global syndrome-keyed decode memo (caching tier 1).
 *
 * The per-batch memo of decodeBatchSorted() deduplicates syndromes
 * *within* one batch; this tier shares results across batches,
 * shards, engine runs, and sweep jobs.  Entries are keyed by a
 * DecodeSetupKey — a 128-bit digest of the DecodeGraph content hash
 * plus the decoder kind and every config field the decode result can
 * depend on — together with the full (defects, heralds) content, so
 * a replay is only ever served for the exact same decoding problem.
 *
 * Correctness rests on the same property the per-batch memo uses:
 * thanks to the deterministic tie-break epsilon, every decoder's
 * correction *and* its counter deltas (fallbacks, predecoded pairs)
 * are pure functions of (graph, config, defects, heralds).  Entries
 * therefore replay both, keeping corrections and tallies
 * bit-identical with the cache on/off and across thread counts.
 * Only the hit counters are timing-dependent (a racing insert may
 * land before or after another thread's lookup) and they are
 * reported separately from the deterministic tallies.
 *
 * Layout: 64 shards, each behind its own std::mutex and holding two
 * flat arrays — an open-addressing table of 24-byte slots {entry
 * hash, arena offset, Value} probed linearly, and one arena of
 * 32-bit words holding each entry's record back to back: the setup
 * key, the defect and herald counts, then the defects and heralds.
 * A lookup hashes, probes and compares the record in place; an
 * insert appends one record and fills one slot.  No entry owns an
 * allocation: the table starts small and doubles whenever an insert
 * would push its load past 3/4, the arena grows like a vector, and
 * both keep their storage across clear() and overflow, so a warm
 * memo inserts and looks up without touching the heap.
 *
 * Capacity and eviction: each shard holds at most capacity()/64
 * entries (at least one).  An insert into a full shard (or one whose
 * arena would outgrow 32-bit offsets) first drops *every* entry of
 * that shard (evictions counts the dropped entries)
 * — the flat arena cannot free one record — and then inserts.  That
 * is always safe: eviction can only turn a future hit into a
 * recomputation of the identical result.
 */

#ifndef TRAQ_DECODER_GLOBAL_MEMO_HH
#define TRAQ_DECODER_GLOBAL_MEMO_HH

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "src/decoder/decoder.hh"

namespace traq::decoder {

/** Sharded, capacity-bounded process-wide decode-result cache. */
class GlobalDecodeMemo
{
  public:
    /** Everything a replay must reproduce for one syndrome. */
    struct Value
    {
        /** Predicted logical-observable flip mask. */
        std::uint32_t predicted = 0;
        /** fallbacks() increments of the original decode. */
        std::uint32_t fallbacks = 0;
        /** predecodedPairs() increments of the original decode. */
        std::uint32_t peels = 0;
    };

    /** Aggregated across shards; hit/miss counts are monotonic. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t inserts = 0;
        std::uint64_t evictions = 0;
        std::uint64_t entries = 0;
    };

    /** Default capacity (total entries across all shards). */
    static constexpr std::size_t kDefaultCapacity = 1u << 18;

    explicit GlobalDecodeMemo(std::size_t capacity = kDefaultCapacity);

    /** The process-wide instance the engine and batch decode use. */
    static GlobalDecodeMemo &instance();

    /**
     * Look up the decode result for (setup, defects, heralds).
     * A hash collision with different content is a miss (content is
     * compared in full, never trusted from the hash alone).
     * @return true and fill @p out on a hit.
     */
    bool lookup(const DecodeSetupKey &setup,
                std::span<const std::uint32_t> defects,
                std::span<const std::uint32_t> heralds, Value &out);

    /**
     * Insert a decode result.  If another thread already claimed the
     * slot (same hash), the first claimant is kept — like the
     * per-batch memo, a collision degrades to recomputation, never a
     * wrong replay.  When the target shard is at capacity, its
     * entries are all evicted first (see the file comment).
     */
    void insert(const DecodeSetupKey &setup,
                std::span<const std::uint32_t> defects,
                std::span<const std::uint32_t> heralds,
                const Value &v);

    /** Drop every entry (benches isolate measurements with this);
     *  the shards keep their storage for the next fill. */
    void clear();

    /**
     * Change the total capacity (distributed over the shards; each
     * shard holds at least one entry).  A shard already past its new
     * bound is emptied on its next insert.
     */
    void setCapacity(std::size_t entries);

    std::size_t capacity() const { return capacity_.load(); }

    Stats stats() const;

  private:
    static constexpr std::uint32_t kFree = ~std::uint32_t{0};

    /** One table slot: the entry's hash, where its record starts in
     *  the shard's arena (kFree marks an empty slot), and its value.
     *  24 bytes, so a heralded workload of mostly unique rows pays
     *  little for the table's spare slots. */
    struct Slot
    {
        std::uint64_t hash = 0;
        std::uint32_t offset = kFree;
        Value value;
    };

    struct Shard
    {
        mutable std::mutex m;
        /** Open-addressing table; its size is 0 or a power of two. */
        std::vector<Slot> slots;
        /** Entry records: setup key (4 words), defect count, herald
         *  count, defects, heralds. */
        std::vector<std::uint32_t> arena;
        std::uint64_t entries = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t inserts = 0;
        std::uint64_t evictions = 0;

        /** Drop every entry, keeping the storage. */
        void dropAll();
    };

    static constexpr std::size_t kShards = 64;

    /** Index of the slot holding hash @p h, or of the free slot a
     *  probe for it ends at; the table must be non-empty. */
    static std::size_t probe(const Shard &shard, std::uint64_t h);
    /** Double the table (16 slots when empty) and reinsert. */
    static void grow(Shard &shard);

    std::size_t shardCap() const
    {
        const std::size_t per = capacity_.load() / kShards;
        return per == 0 ? 1 : per;
    }

    std::atomic<std::size_t> capacity_;
    std::vector<Shard> shards_;
};

} // namespace traq::decoder

#endif // TRAQ_DECODER_GLOBAL_MEMO_HH
