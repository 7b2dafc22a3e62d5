/**
 * @file
 * Persistent content-addressed store (caching tier 3).
 *
 * An append-only, checksummed key/value file: the disk form of the
 * service layer's result cache, so warm-cache throughput survives
 * process restarts and a store file can be copied between
 * workers.  Keys are the service's request cache keys, values
 * are the exact service-shaped JSON the queue would emit — replaying
 * a stored value is byte-identical to re-evaluating by construction
 * (estimators are deterministic pure functions).
 *
 * Format: an 8-byte file magic ("TRAQCAS2") and the u32 schema
 * version of the stored values (the caller's; a file holding another
 * version is reported and started empty, never served), then
 * records of
 *   u32 record magic | u32 keyLen | u32 valLen |
 *   u64 FNV-1a(key bytes, value bytes) | key | value
 * with all integers little-endian.  Append-only means corruption
 * can only live at the tail (a torn write) or from external
 * tampering; open() verifies every record and on the first bad one
 * it *loudly* warns on stderr, drops the bad suffix, and rebuilds
 * the file from the valid prefix — never TRAQ_FATAL for a
 * recoverable file, because a service must come back up after a
 * crash mid-append.  An unopenable path (missing directory,
 * permissions) IS fatal: that is a configuration error, not a
 * recoverable state.
 *
 * Concurrency: one writer per file, enforced.  open() takes an
 * exclusive flock() on the store and fails loudly — never blocks,
 * never silently shares — when another holder exists (a second
 * process, or a second CaStore in this process).  Concurrent
 * appends would interleave records and void the "corruption lives
 * only at the tail" recovery guarantee.  Sharing across workers
 * means copying the file or giving each worker its own (the
 * traq_dispatch sharder suffixes a per-worker ".wN"), not
 * concurrent appends.  Within one process, appends on the single
 * owner are serialized by an internal mutex.
 */

#ifndef TRAQ_COMMON_CASTORE_HH
#define TRAQ_COMMON_CASTORE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

namespace traq {

/** Append-only checksummed key/value store; see the file comment. */
class CaStore
{
  public:
    /** What open() found (and possibly repaired). */
    struct LoadStats
    {
        /** Records loaded (first occurrence of each key wins). */
        std::size_t entries = 0;
        /** Bad records *detected* (at most one per open: parsing
         *  stops at the first, because a bad length field hides
         *  every record boundary after it — that suffix is dropped
         *  wholesale and reported by byte count on stderr). */
        std::size_t droppedRecords = 0;
        /** True when the file was rebuilt from its valid prefix. */
        bool recovered = false;
    };

    CaStore() = default;
    ~CaStore();

    CaStore(const CaStore &) = delete;
    CaStore &operator=(const CaStore &) = delete;

    /**
     * Open (creating if absent) the store at @p path, loading every
     * valid record.  Truncation/corruption is detected by record
     * magic + lengths + checksum, warned about loudly on stderr, and
     * repaired by rebuilding the file from the valid prefix.  A file
     * whose header carries a schema other than @p schema is warned
     * about and rebuilt empty.  Throws FatalError only when the path
     * cannot be opened or created.
     */
    void open(const std::string &path, std::uint32_t schema = 0);

    /** True after a successful open(). */
    bool attached() const { return file_ != nullptr; }

    /** Fetch a value; returns false when the key is absent. */
    bool get(const std::string &key, std::string &value) const;

    /**
     * Append a record (no-op returning false when the key is already
     * present — append-only stores never rewrite history).  The
     * record is flushed before returning so a crash after put() is
     * at worst a torn *next* record.
     */
    bool put(const std::string &key, const std::string &value);

    /** Resident entry count. */
    std::size_t size() const;

    /** Visit every entry (under the store lock). */
    void forEach(const std::function<void(const std::string &,
                                          const std::string &)> &fn)
        const;

    const LoadStats &loadStats() const { return loadStats_; }

    const std::string &path() const { return path_; }

  private:
    void rebuild();

    mutable std::mutex mutex_;
    std::string path_;
    std::FILE *file_ = nullptr;
    std::uint32_t schema_ = 0;
    std::unordered_map<std::string, std::string> map_;
    LoadStats loadStats_;
};

/**
 * Resolve the persistent-store path: an explicit non-empty
 * @p requested wins, otherwise the TRAQ_CACHE_FILE environment
 * variable, otherwise "" (no persistent tier).  Any non-empty value
 * is a filesystem path; a path that cannot be opened fails loudly in
 * CaStore::open().
 */
std::string resolveCacheFile(const std::string &requested);

} // namespace traq

#endif // TRAQ_COMMON_CASTORE_HH
