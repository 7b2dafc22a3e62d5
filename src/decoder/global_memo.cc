#include "src/decoder/global_memo.hh"

#include <algorithm>
#include <utility>

namespace traq::decoder {
namespace {

/** splitmix64-style mixing step (same shape as the batch memo's
 *  hashSyndrome, with a multiply to spread shard selection bits). */
inline std::uint64_t
mixHash(std::uint64_t h, std::uint64_t x)
{
    h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    return h ^ (h >> 29);
}

/** Map key: setup digest mixed with the full syndrome content. */
inline std::uint64_t
entryHash(const DecodeSetupKey &setup,
          std::span<const std::uint32_t> defects,
          std::span<const std::uint32_t> heralds)
{
    std::uint64_t h = mixHash(setup.a, setup.b);
    h = mixHash(h, defects.size());
    for (std::uint32_t x : defects)
        h = mixHash(h, x);
    h = mixHash(h, heralds.size());
    for (std::uint32_t x : heralds)
        h = mixHash(h, x);
    return h;
}

/** Arena words ahead of an entry's content: the setup key's four
 *  halves, the defect count and the herald count. */
constexpr std::size_t kRecordHeader = 6;

/** Exact compare of (setup, defects, heralds) against the record at
 *  @p rec, backing every hash hit. */
inline bool
recordMatches(const std::uint32_t *rec, const DecodeSetupKey &setup,
              std::span<const std::uint32_t> defects,
              std::span<const std::uint32_t> heralds)
{
    return rec[0] == static_cast<std::uint32_t>(setup.a) &&
           rec[1] == static_cast<std::uint32_t>(setup.a >> 32) &&
           rec[2] == static_cast<std::uint32_t>(setup.b) &&
           rec[3] == static_cast<std::uint32_t>(setup.b >> 32) &&
           rec[4] == defects.size() && rec[5] == heralds.size() &&
           std::equal(defects.begin(), defects.end(),
                      rec + kRecordHeader) &&
           std::equal(heralds.begin(), heralds.end(),
                      rec + kRecordHeader + defects.size());
}

} // namespace

void
GlobalDecodeMemo::Shard::dropAll()
{
    entries = 0;
    arena.clear();
    std::fill(slots.begin(), slots.end(), Slot{});
}

GlobalDecodeMemo::GlobalDecodeMemo(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), shards_(kShards)
{
}

GlobalDecodeMemo &
GlobalDecodeMemo::instance()
{
    static GlobalDecodeMemo memo;
    return memo;
}

std::size_t
GlobalDecodeMemo::probe(const Shard &shard, std::uint64_t h)
{
    // The top bits chose the shard; the low bits pick the home slot.
    const std::size_t mask = shard.slots.size() - 1;
    std::size_t i = h & mask;
    while (shard.slots[i].offset != kFree && shard.slots[i].hash != h)
        i = (i + 1) & mask;
    return i;
}

void
GlobalDecodeMemo::grow(Shard &shard)
{
    static_assert(sizeof(Slot) == 24);
    const std::size_t size =
        shard.slots.empty() ? 16 : 2 * shard.slots.size();
    const std::vector<Slot> old =
        std::exchange(shard.slots, std::vector<Slot>(size));
    for (const Slot &slot : old)
        if (slot.offset != kFree)
            shard.slots[probe(shard, slot.hash)] = slot;
}

bool
GlobalDecodeMemo::lookup(const DecodeSetupKey &setup,
                         std::span<const std::uint32_t> defects,
                         std::span<const std::uint32_t> heralds,
                         Value &out)
{
    const std::uint64_t h = entryHash(setup, defects, heralds);
    Shard &shard = shards_[(h >> 58) % kShards];
    std::lock_guard<std::mutex> lock(shard.m);
    if (!shard.slots.empty()) {
        const Slot &slot = shard.slots[probe(shard, h)];
        if (slot.offset != kFree &&
            recordMatches(shard.arena.data() + slot.offset, setup,
                          defects, heralds)) {
            out = slot.value;
            ++shard.hits;
            return true;
        }
    }
    ++shard.misses;
    return false;
}

void
GlobalDecodeMemo::insert(const DecodeSetupKey &setup,
                         std::span<const std::uint32_t> defects,
                         std::span<const std::uint32_t> heralds,
                         const Value &v)
{
    const std::uint64_t h = entryHash(setup, defects, heralds);
    Shard &shard = shards_[(h >> 58) % kShards];
    std::lock_guard<std::mutex> lock(shard.m);
    if (shard.slots.empty())
        grow(shard);
    std::size_t i = probe(shard, h);
    if (shard.slots[i].offset != kFree)
        return; // First claimant wins (collision or racing insert).

    const std::size_t words =
        kRecordHeader + defects.size() + heralds.size();
    if (shard.entries >= shardCap() ||
        shard.arena.size() + words >= kFree) {
        // Full: drop the whole shard.  A flat arena cannot free one
        // record, and any resident entry may go — recomputation of
        // an identical result is the only possible consequence.
        shard.evictions += shard.entries;
        shard.dropAll();
        i = probe(shard, h);
    }
    if (4 * (shard.entries + 1) > 3 * shard.slots.size()) {
        grow(shard);
        i = probe(shard, h);
    }

    Slot &slot = shard.slots[i];
    slot.hash = h;
    slot.offset = static_cast<std::uint32_t>(shard.arena.size());
    slot.value = v;
    const std::uint32_t header[kRecordHeader] = {
        static_cast<std::uint32_t>(setup.a),
        static_cast<std::uint32_t>(setup.a >> 32),
        static_cast<std::uint32_t>(setup.b),
        static_cast<std::uint32_t>(setup.b >> 32),
        static_cast<std::uint32_t>(defects.size()),
        static_cast<std::uint32_t>(heralds.size()),
    };
    shard.arena.insert(shard.arena.end(), std::begin(header),
                       std::end(header));
    shard.arena.insert(shard.arena.end(), defects.begin(),
                       defects.end());
    shard.arena.insert(shard.arena.end(), heralds.begin(),
                       heralds.end());
    ++shard.entries;
    ++shard.inserts;
}

void
GlobalDecodeMemo::clear()
{
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.m);
        shard.dropAll();
    }
}

void
GlobalDecodeMemo::setCapacity(std::size_t entries)
{
    capacity_ = entries == 0 ? 1 : entries;
}

GlobalDecodeMemo::Stats
GlobalDecodeMemo::stats() const
{
    Stats s;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.m);
        s.hits += shard.hits;
        s.misses += shard.misses;
        s.inserts += shard.inserts;
        s.evictions += shard.evictions;
        s.entries += shard.entries;
    }
    return s;
}

} // namespace traq::decoder
