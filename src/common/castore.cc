#include "src/common/castore.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sys/file.h>
#include <vector>

#include "src/common/assert.hh"

namespace traq {
namespace {

constexpr char kFileMagic[8] = {'T', 'R', 'A', 'Q',
                                'C', 'A', 'S', '2'};
/** File magic, then the u32 schema version of the stored values. */
constexpr std::size_t kHeaderLen = sizeof(kFileMagic) + 4;
constexpr std::uint32_t kRecordMagic = 0x51525443u; // "CTRQ" LE
/** Per-field sanity bound: a length beyond this is corruption, not
 *  a real record (keys/values are JSON strings, not blobs). */
constexpr std::uint32_t kMaxFieldLen = 1u << 30;

std::uint64_t
fnv1a(std::uint64_t h, const std::string &bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
recordChecksum(const std::string &key, const std::string &value)
{
    return fnv1a(fnv1a(0xcbf29ce484222325ULL, key), value);
}

void
putLe32(std::string &out, std::uint32_t x)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((x >> (8 * i)) & 0xff));
}

void
putLe64(std::string &out, std::uint64_t x)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((x >> (8 * i)) & 0xff));
}

std::uint32_t
getLe32(const char *p)
{
    std::uint32_t x = 0;
    for (int i = 3; i >= 0; --i)
        x = (x << 8) | static_cast<unsigned char>(p[i]);
    return x;
}

std::uint64_t
getLe64(const char *p)
{
    std::uint64_t x = 0;
    for (int i = 7; i >= 0; --i)
        x = (x << 8) | static_cast<unsigned char>(p[i]);
    return x;
}

std::string
encodeHeader(std::uint32_t schema)
{
    std::string header(kFileMagic, sizeof(kFileMagic));
    putLe32(header, schema);
    return header;
}

std::string
encodeRecord(const std::string &key, const std::string &value)
{
    std::string rec;
    rec.reserve(20 + key.size() + value.size());
    putLe32(rec, kRecordMagic);
    putLe32(rec, static_cast<std::uint32_t>(key.size()));
    putLe32(rec, static_cast<std::uint32_t>(value.size()));
    putLe64(rec, recordChecksum(key, value));
    rec += key;
    rec += value;
    return rec;
}

/**
 * Take the single-writer lock on an open store file, failing loudly
 * when another holder exists.  flock() locks the open file
 * description, so this rejects both a second process and a second
 * CaStore in this process — concurrent appends would interleave
 * records and the "corruption lives only at the tail" recovery
 * guarantee would be gone.  Dispatchers that shard work across
 * processes give each worker its own store file instead (the
 * traq_dispatch per-worker ".wN" suffix).
 */
void
lockSingleWriter(std::FILE *file, const std::string &path)
{
    if (::flock(fileno(file), LOCK_EX | LOCK_NB) == 0)
        return;
    const int err = errno;
    std::fclose(file);
    if (err == EWOULDBLOCK || err == EAGAIN)
        TRAQ_FATAL("castore: '" + path +
                   "' is locked by another process (stores are "
                   "single-writer; give each worker its own cache "
                   "file)");
    TRAQ_FATAL("castore: cannot lock '" + path +
               "': " + std::strerror(err));
}

} // namespace

CaStore::~CaStore()
{
    if (file_ != nullptr)
        std::fclose(file_);
}

void
CaStore::open(const std::string &path, std::uint32_t schema)
{
    std::lock_guard<std::mutex> lock(mutex_);
    TRAQ_REQUIRE(file_ == nullptr, "CaStore::open: already open");
    TRAQ_REQUIRE(!path.empty(), "CaStore::open: empty path");
    path_ = path;
    schema_ = schema;
    map_.clear();
    loadStats_ = {};

    // "a+b" creates the file when absent and never truncates; reads
    // start wherever we seek, appends always land at the end.
    std::FILE *f = std::fopen(path.c_str(), "a+b");
    if (f == nullptr)
        TRAQ_FATAL("castore: cannot open or create '" + path + "'");
    lockSingleWriter(f, path_); // closes f and throws on failure
    file_ = f;
    std::fseek(file_, 0, SEEK_END);
    const long fileSize = std::ftell(file_);
    if (fileSize == 0) {
        // Fresh (or freshly created) store: stamp the header.
        const std::string header = encodeHeader(schema_);
        std::fwrite(header.data(), 1, header.size(), file_);
        std::fflush(file_);
        return;
    }

    std::fseek(file_, 0, SEEK_SET);
    std::vector<char> buf(static_cast<std::size_t>(fileSize));
    const std::size_t got =
        std::fread(buf.data(), 1, buf.size(), file_);
    buf.resize(got);

    std::size_t off = 0;
    bool bad = false;
    // Values stored under another schema may differ from what this
    // build computes: such a file is never served.
    if (buf.size() < kHeaderLen ||
        std::memcmp(buf.data(), kFileMagic, sizeof(kFileMagic)) !=
            0 ||
        getLe32(buf.data() + sizeof(kFileMagic)) != schema_) {
        std::fprintf(stderr,
                     "castore: '%s' has no valid schema-%u header "
                     "(%zu bytes); rebuilding as an empty store\n",
                     path.c_str(), schema_, buf.size());
        bad = true;
        ++loadStats_.droppedRecords;
    } else {
        off = kHeaderLen;
        while (off < buf.size()) {
            const std::size_t remaining = buf.size() - off;
            if (remaining < 20) {
                bad = true; // torn record header
                break;
            }
            const char *p = buf.data() + off;
            const std::uint32_t magic = getLe32(p);
            const std::uint32_t keyLen = getLe32(p + 4);
            const std::uint32_t valLen = getLe32(p + 8);
            const std::uint64_t sum = getLe64(p + 12);
            if (magic != kRecordMagic || keyLen > kMaxFieldLen ||
                valLen > kMaxFieldLen ||
                remaining - 20 <
                    static_cast<std::size_t>(keyLen) + valLen) {
                bad = true;
                break;
            }
            std::string key(p + 20, keyLen);
            std::string value(p + 20 + keyLen, valLen);
            if (recordChecksum(key, value) != sum) {
                bad = true;
                break;
            }
            // Append-only: the first occurrence of a key wins.
            if (map_.emplace(std::move(key), std::move(value))
                    .second)
                ++loadStats_.entries;
            off += 20 + static_cast<std::size_t>(keyLen) + valLen;
        }
        if (bad) {
            // Count the bad record; anything after it is hidden
            // behind a possibly-corrupt length field, so it is
            // dropped wholesale and reported by byte count.
            ++loadStats_.droppedRecords;
            std::fprintf(
                stderr,
                "castore: '%s' is truncated or corrupt at offset "
                "%zu (%zu trailing bytes dropped); keeping %zu "
                "valid entries and rebuilding\n",
                path.c_str(), off, buf.size() - off,
                loadStats_.entries);
        }
    }

    if (bad) {
        loadStats_.recovered = true;
        rebuild();
    }
}

void
CaStore::rebuild()
{
    // Rewrite header + surviving records to a sibling file, then
    // rename over the damaged one — a crash mid-rebuild leaves
    // either the old recoverable file or the new valid one.
    const std::string tmp = path_ + ".rebuild";
    std::FILE *out = std::fopen(tmp.c_str(), "wb");
    if (out == nullptr)
        TRAQ_FATAL("castore: cannot create rebuild file '" + tmp +
                   "'");
    const std::string header = encodeHeader(schema_);
    std::fwrite(header.data(), 1, header.size(), out);
    for (const auto &[key, value] : map_) {
        const std::string rec = encodeRecord(key, value);
        std::fwrite(rec.data(), 1, rec.size(), out);
    }
    std::fflush(out);
    std::fclose(out);
    std::fclose(file_);
    file_ = nullptr;
    if (std::rename(tmp.c_str(), path_.c_str()) != 0)
        TRAQ_FATAL("castore: cannot replace '" + path_ +
                   "' with its rebuild");
    std::FILE *f = std::fopen(path_.c_str(), "a+b");
    if (f == nullptr)
        TRAQ_FATAL("castore: cannot reopen rebuilt '" + path_ +
                   "'");
    // The rename dropped the lock with the old inode; retake it on
    // the rebuilt file before any further appends.
    lockSingleWriter(f, path_);
    file_ = f;
}

bool
CaStore::get(const std::string &key, std::string &value) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end())
        return false;
    value = it->second;
    return true;
}

bool
CaStore::put(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    TRAQ_REQUIRE(file_ != nullptr, "CaStore::put before open");
    if (!map_.emplace(key, value).second)
        return false;
    const std::string rec = encodeRecord(key, value);
    std::fwrite(rec.data(), 1, rec.size(), file_);
    std::fflush(file_);
    return true;
}

std::size_t
CaStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

void
CaStore::forEach(const std::function<void(const std::string &,
                                          const std::string &)> &fn)
    const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[key, value] : map_)
        fn(key, value);
}

std::string
resolveCacheFile(const std::string &requested)
{
    if (!requested.empty())
        return requested;
    if (const char *env = std::getenv("TRAQ_CACHE_FILE"))
        return env;
    return "";
}

} // namespace traq
