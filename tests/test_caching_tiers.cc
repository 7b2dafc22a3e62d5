/**
 * @file
 * The three caching tiers added for cross-batch / cross-job /
 * cross-process amortization:
 *
 *  - tier 1, the process-global syndrome memo (GlobalDecodeMemo):
 *    env tri-state loudness, lookup/insert content exactness,
 *    capacity eviction and concurrent fill leaving corrections and
 *    tallies bit-identical, concurrent lookups and inserts under
 *    eviction replaying only what was inserted for that content,
 *    cross-batch hits actually occurring;
 *  - tier 2, the compiled-artifact cache (compileDecodeSetup):
 *    env loudness, hit accounting, engine results bit-identical
 *    cache on/off;
 *  - tier 3, the persistent content-addressed store (CaStore +
 *    JobService cache file): round-trip and reopen, loud TRAQ_FATAL-
 *    free recovery from truncated and corrupted files, loud failure
 *    on an unopenable path, a restarted queue serving the same
 *    bytes from the persistent tier alone, and rejections caused by
 *    the environment never reaching the store.
 *
 * Same contract as tests/test_cpu_dispatch.cc: throughput knobs may
 * change *when* work happens, never what comes out.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "src/codes/experiments.hh"
#include "src/common/assert.hh"
#include "src/common/castore.hh"
#include "src/common/word.hh"
#include "src/decoder/compile_cache.hh"
#include "src/decoder/decoder.hh"
#include "src/decoder/global_memo.hh"
#include "src/decoder/monte_carlo.hh"
#include "src/estimator/estimator.hh"
#include "src/service/job_service.hh"
#include "src/sim/frame.hh"

namespace {

using namespace traq;

/** Save/restore one environment variable around a test. */
class EnvGuard
{
  public:
    explicit EnvGuard(const char *name) : name_(name)
    {
        if (const char *v = std::getenv(name))
            saved_ = v;
        else
            wasSet_ = false;
    }
    ~EnvGuard()
    {
        if (wasSet_)
            setenv(name_, saved_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::string saved_;
    bool wasSet_ = true;
};

/** CaStore header bytes: file magic plus the u32 schema version. */
constexpr long kStoreHeader = 12;

/** mkstemp-backed file deleted at scope exit. */
class TempFile
{
  public:
    TempFile()
    {
        char buf[] = "/tmp/traq_test_castore_XXXXXX";
        const int fd = mkstemp(buf);
        TRAQ_REQUIRE(fd >= 0, "mkstemp failed");
        close(fd);
        path_ = buf;
    }
    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(GlobalMemoEnv, TriStateAndLoudness)
{
    EnvGuard guard("TRAQ_GLOBAL_MEMO");
    unsetenv("TRAQ_GLOBAL_MEMO");
    EXPECT_TRUE(decoder::resolveGlobalMemo(-1));  // default ON
    EXPECT_FALSE(decoder::resolveGlobalMemo(0));
    EXPECT_TRUE(decoder::resolveGlobalMemo(1));

    ASSERT_EQ(setenv("TRAQ_GLOBAL_MEMO", "off", 1), 0);
    EXPECT_FALSE(decoder::resolveGlobalMemo(-1));
    EXPECT_TRUE(decoder::resolveGlobalMemo(1));  // forced wins
    ASSERT_EQ(setenv("TRAQ_GLOBAL_MEMO", "1", 1), 0);
    EXPECT_TRUE(decoder::resolveGlobalMemo(-1));
    ASSERT_EQ(setenv("TRAQ_GLOBAL_MEMO", "", 1), 0);
    EXPECT_TRUE(decoder::resolveGlobalMemo(-1));  // empty = default
    ASSERT_EQ(setenv("TRAQ_GLOBAL_MEMO", "sometimes", 1), 0);
    EXPECT_THROW(decoder::resolveGlobalMemo(-1), FatalError);
}

TEST(CompileCacheEnv, TriStateAndLoudness)
{
    EnvGuard guard("TRAQ_COMPILE_CACHE");
    unsetenv("TRAQ_COMPILE_CACHE");
    EXPECT_TRUE(decoder::resolveCompileCache(-1));  // default ON
    EXPECT_FALSE(decoder::resolveCompileCache(0));
    EXPECT_TRUE(decoder::resolveCompileCache(1));

    ASSERT_EQ(setenv("TRAQ_COMPILE_CACHE", "false", 1), 0);
    EXPECT_FALSE(decoder::resolveCompileCache(-1));
    ASSERT_EQ(setenv("TRAQ_COMPILE_CACHE", "on", 1), 0);
    EXPECT_TRUE(decoder::resolveCompileCache(-1));
    ASSERT_EQ(setenv("TRAQ_COMPILE_CACHE", "2", 1), 0);
    EXPECT_THROW(decoder::resolveCompileCache(-1), FatalError);
}

TEST(CacheFileEnv, ResolutionAndLoudness)
{
    EnvGuard guard("TRAQ_CACHE_FILE");
    unsetenv("TRAQ_CACHE_FILE");
    EXPECT_EQ(resolveCacheFile(""), "");
    EXPECT_EQ(resolveCacheFile("/a/b.cas"), "/a/b.cas");

    ASSERT_EQ(setenv("TRAQ_CACHE_FILE", "/env/c.cas", 1), 0);
    EXPECT_EQ(resolveCacheFile(""), "/env/c.cas");
    // An explicit request always beats the environment.
    EXPECT_EQ(resolveCacheFile("/a/b.cas"), "/a/b.cas");

    // An unopenable path is a configuration error: loud, not a
    // silent in-memory fallback.
    unsetenv("TRAQ_CACHE_FILE");
    CaStore store;
    EXPECT_THROW(store.open("/no_such_traq_dir_9321/x.cas"),
                 FatalError);
    EXPECT_FALSE(store.attached());

    // A cache file without the result cache is refused loudly too —
    // the store is the cache's disk form, not a separate feature.
    service::JobQueueOptions opts;
    opts.cache = false;
    opts.cacheFile = "/tmp/whatever.cas";
    EXPECT_THROW(service::JobService{opts}, FatalError);

    // The same check covers a path that comes from the environment.
    // The env path is unopenable, so only the message tells the
    // contradiction check apart from a failed open.
    ASSERT_EQ(setenv("TRAQ_CACHE_FILE", "/env/c.cas", 1), 0);
    opts.cacheFile.clear();
    try {
        service::JobService svc(opts);
        ADD_FAILURE() << "TRAQ_CACHE_FILE with the cache off accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "a cache file requires the result cache"),
                  std::string::npos)
            << e.what();
    }
}

TEST(GlobalMemo, LookupServesExactContentOnly)
{
    decoder::GlobalDecodeMemo memo(1024);
    const decoder::DecodeSetupKey a{1, 2};
    const decoder::DecodeSetupKey b{1, 3};
    const std::vector<std::uint32_t> defects{4, 7, 9};
    const std::vector<std::uint32_t> heralds{2};

    decoder::GlobalDecodeMemo::Value v;
    EXPECT_FALSE(memo.lookup(a, defects, heralds, v));
    memo.insert(a, defects, heralds, {5, 1, 2});

    ASSERT_TRUE(memo.lookup(a, defects, heralds, v));
    EXPECT_EQ(v.predicted, 5u);
    EXPECT_EQ(v.fallbacks, 1u);
    EXPECT_EQ(v.peels, 2u);

    // Any component changing — setup key, defects, heralds, or the
    // defect/herald split at identical concatenation — must miss.
    EXPECT_FALSE(memo.lookup(b, defects, heralds, v));
    EXPECT_FALSE(memo.lookup(a, {defects.data(), 2}, heralds, v));
    EXPECT_FALSE(memo.lookup(a, defects, {}, v));
    const std::vector<std::uint32_t> joined{4, 7, 9, 2};
    EXPECT_FALSE(memo.lookup(a, joined, {}, v));

    const auto st = memo.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.inserts, 1u);
    EXPECT_EQ(st.entries, 1u);
    memo.clear();
    EXPECT_EQ(memo.stats().entries, 0u);
}

/** d=3 memory syndromes in CSR form plus their decode graph. */
struct Sampled
{
    std::vector<std::uint32_t> offsets{0};
    std::vector<std::uint32_t> defects;
    std::unique_ptr<codes::Experiment> exp;
    std::unique_ptr<decoder::DecodeGraph> graph;

    Sampled()
    {
        codes::SurfaceCode sc(3);
        exp = std::make_unique<codes::Experiment>(codes::buildMemory(
            sc, 'Z', 3, codes::NoiseParams::uniform(0.004)));
        sim::FrameSimulator fs(21, 8, CpuDispatch::Baseline);
        sim::FrameBatch batch;
        sim::SyndromeBlock block;
        const std::vector<std::uint64_t> live(8, ~0ULL);
        for (int rep = 0; rep < 2; ++rep) {
            fs.sampleInto(exp->circuit, batch);
            sim::extractSyndromeBlock(batch, live, block);
            for (std::uint64_t s = 0; s < block.shots(); ++s) {
                const auto syn = block.syndrome(s);
                defects.insert(defects.end(), syn.begin(),
                               syn.end());
                offsets.push_back(
                    static_cast<std::uint32_t>(defects.size()));
            }
        }
        graph = std::make_unique<decoder::DecodeGraph>(
            decoder::DecodeGraph::build(*exp));
    }

    decoder::SyndromeBatch view() const
    {
        decoder::SyndromeBatch b;
        b.offsets = offsets;
        b.defects = defects;
        return b;
    }
    std::uint64_t shots() const { return offsets.size() - 1; }
};

TEST(GlobalMemo, CapacityEvictionKeepsCorrectionsBitIdentical)
{
    const Sampled fixture;
    const auto view = fixture.view();
    const std::uint64_t n = fixture.shots();
    ASSERT_GT(n, 128u);

    decoder::DecoderConfig cfg;
    cfg.predecode = 1;
    const auto setup = decoder::decodeSetupKey(
        *fixture.graph, decoder::DecoderKind::Fallback, cfg);

    // Reference: no memo of any kind.
    auto decRef = decoder::makeDecoder(decoder::DecoderKind::Fallback,
                                       *fixture.graph, cfg);
    std::vector<std::uint32_t> ref(n);
    for (std::uint64_t s = 0; s < n; ++s)
        ref[s] = decRef->decodeSpan(view.syndrome(s));

    // A pathologically small global tier: one entry per shard, so
    // inserts evict almost every batch.  Decode the batch twice —
    // second pass mixes hits, misses and evicted re-decodes — and
    // both passes must replay the reference bit-identically, with
    // counter deltas summing to the reference decoder's counters.
    decoder::GlobalDecodeMemo tiny(1);
    auto dec = decoder::makeDecoder(decoder::DecoderKind::Fallback,
                                    *fixture.graph, cfg);
    decoder::BatchDecodeScratch scratch;
    for (int pass = 0; pass < 2; ++pass) {
        auto decOff = decoder::makeDecoder(
            decoder::DecoderKind::Fallback, *fixture.graph, cfg);
        std::vector<std::uint32_t> out(n), outOff(n);
        const auto st = decoder::decodeBatchSorted(
            *dec, view, out, scratch, true, &tiny, setup);
        const auto stOff = decoder::decodeBatchSorted(
            *decOff, view, outOff, scratch, true);
        EXPECT_EQ(out, ref) << "pass " << pass;
        EXPECT_EQ(outOff, ref) << "pass " << pass;
        EXPECT_EQ(dec->fallbacks() + st.replayedFallbacks,
                  static_cast<std::uint64_t>(pass + 1) *
                      (decOff->fallbacks() +
                       stOff.replayedFallbacks))
            << "pass " << pass;
    }
    const auto st = tiny.stats();
    EXPECT_GT(st.evictions, 0u);
    EXPECT_LE(st.entries, 64u);  // one per shard at capacity 1
}

TEST(GlobalMemo, ConcurrentInsertLookupUnderEviction)
{
    // Four threads look up and insert overlapping keys of two setups
    // at once, in different orders.  Whatever the interleaving —
    // racing inserts, whole-shard evictions at capacity 64 (one
    // entry per shard), table growth at the default capacity — a hit
    // must return the value inserted for exactly that content, and
    // the entries must stay within the capacity.
    const decoder::DecodeSetupKey setups[] = {{11, 12}, {11, 13}};
    auto keyOf = [](std::uint32_t k, std::vector<std::uint32_t> &defects,
                    std::vector<std::uint32_t> &heralds) {
        defects.clear();
        heralds.clear();
        for (std::uint32_t j = 0; j <= k % 7; ++j)
            defects.push_back(k * 8 + j);
        if (k % 3 == 0)
            heralds.push_back(k % 5);
    };
    auto valueOf = [](std::size_t setup, std::uint32_t k) {
        return decoder::GlobalDecodeMemo::Value{
            k * 2654435761u ^ static_cast<std::uint32_t>(setup),
            k % 7, static_cast<std::uint32_t>(setup)};
    };
    constexpr std::uint32_t kKeys = 3000;
    constexpr std::uint32_t kStrides[] = {1, 7, 11, 13};
    for (const std::size_t capacity :
         {std::size_t{64}, decoder::GlobalDecodeMemo::kDefaultCapacity}) {
        SCOPED_TRACE(capacity);
        decoder::GlobalDecodeMemo memo(capacity);
        std::atomic<std::uint64_t> wrong{0}, hits{0};
        std::vector<std::thread> threads;
        for (std::uint32_t t = 0; t < 4; ++t)
            threads.emplace_back([&, t] {
                std::vector<std::uint32_t> defects, heralds;
                // Thread t walks every (setup, key) pair with its own
                // stride (coprime to kKeys) and setup order, so the
                // threads meet on keys at different times.
                const std::uint32_t stride = kStrides[t];
                for (int pass = 0; pass < 3; ++pass)
                    for (std::uint32_t i = 0; i < kKeys; ++i)
                        for (std::size_t j = 0; j < 2; ++j) {
                            const std::uint32_t k =
                                (i * stride + 97 * t) % kKeys;
                            const std::size_t s = (j + t) % 2;
                            keyOf(k, defects, heralds);
                            decoder::GlobalDecodeMemo::Value v;
                            if (!memo.lookup(setups[s], defects,
                                             heralds, v)) {
                                memo.insert(setups[s], defects,
                                            heralds, valueOf(s, k));
                                continue;
                            }
                            ++hits;
                            const auto want = valueOf(s, k);
                            if (v.predicted != want.predicted ||
                                v.fallbacks != want.fallbacks ||
                                v.peels != want.peels)
                                ++wrong;
                        }
            });
        for (std::thread &th : threads)
            th.join();
        EXPECT_EQ(wrong.load(), 0u);
        const auto st = memo.stats();
        EXPECT_EQ(st.hits, hits.load());
        EXPECT_EQ(st.hits + st.misses, 4u * 3u * 2u * kKeys);
        EXPECT_EQ(st.inserts, st.entries + st.evictions);
        if (capacity == 64) {
            EXPECT_LE(st.entries, 64u);
            EXPECT_GT(st.evictions, 0u);
        } else {
            // Every key of both setups fits: nothing is evicted, and
            // the later passes hit.
            EXPECT_GT(hits.load(), 0u);
            EXPECT_EQ(st.evictions, 0u);
            EXPECT_EQ(st.entries, 2u * kKeys);
        }
    }
}

/** Engine results that must be invariant under throughput knobs. */
struct EngineSignature
{
    std::uint64_t anyHits, fallbacks, peels, heralded;
    std::vector<std::uint64_t> perObs;

    explicit EngineSignature(const decoder::McResult &r)
        : anyHits(r.anyObservable.hits), fallbacks(r.mwpmFallbacks),
          peels(r.predecodedPairs), heralded(r.heraldedShots)
    {
        for (const auto &p : r.perObservable)
            perObs.push_back(p.hits);
    }
    bool operator==(const EngineSignature &) const = default;
};

TEST(Engine, GlobalMemoThreadInvarianceAndCrossBatchHits)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.003));
    decoder::McOptions opts;
    opts.shots = 6000;
    opts.seed = 77;
    opts.predecode = 1;
    // The global tier rides on the per-batch memo: pinned on, so the
    // cross-batch hits below do not depend on TRAQ_DECODE_MEMO.
    opts.decodeMemo = 1;
    opts.threads = 1;
    opts.globalMemo = 0;

    decoder::MonteCarloEngine engine(e, opts);
    const auto base = engine.run(opts);
    const EngineSignature want(base);
    EXPECT_EQ(base.crossBatchHits, 0u);  // tier off -> no hits

    decoder::GlobalDecodeMemo::instance().clear();
    for (int global : {0, 1}) {
        for (unsigned threads : {1u, 2u, 4u}) {
            auto o = opts;
            o.globalMemo = global;
            o.threads = threads;
            const auto res = engine.run(o);
            EXPECT_EQ(EngineSignature(res), want)
                << "globalMemo=" << global
                << " threads=" << threads;
            if (!global)
                EXPECT_EQ(res.crossBatchHits, 0u);
        }
    }

    // The tier is warm from the runs above: a fresh run over the
    // same problem must now be served across engine runs.
    auto o = opts;
    o.globalMemo = 1;
    const auto warm = engine.run(o);
    EXPECT_EQ(EngineSignature(warm), want);
    EXPECT_GT(warm.crossBatchHits, 0u);
}

TEST(Engine, GlobalMemoInvarianceErasurePath)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.002));
    decoder::McOptions opts;
    opts.shots = 4096;
    opts.seed = 31;
    opts.decodeMemo = 1; // the global tier needs it (see above)
    opts.threads = 1;
    opts.noiseSpec.setFlat("noise.atom-loss.p", 0.01);
    ASSERT_TRUE(opts.erasureAware);

    opts.globalMemo = 0;
    decoder::MonteCarloEngine engine(e, opts);
    const auto base = engine.run(opts);
    const EngineSignature want(base);
    EXPECT_GT(base.heraldedShots, 0u);

    decoder::GlobalDecodeMemo::instance().clear();
    for (int global : {0, 1}) {
        for (unsigned threads : {1u, 2u}) {
            auto o = opts;
            o.globalMemo = global;
            o.threads = threads;
            const auto res = engine.run(o);
            EXPECT_EQ(EngineSignature(res), want)
                << "globalMemo=" << global
                << " threads=" << threads;
        }
    }
    auto o = opts;
    o.globalMemo = 1;
    EXPECT_GT(engine.run(o).crossBatchHits, 0u);
}

TEST(Engine, CompileCacheOnOffBitIdenticalAndShared)
{
    codes::SurfaceCode sc(3);
    auto e = codes::buildMemory(sc, 'Z', 3,
                                codes::NoiseParams::uniform(0.003));
    decoder::McOptions opts;
    opts.shots = 2048;
    opts.seed = 5;
    opts.threads = 1;

    decoder::clearCompileCache();
    auto off = opts;
    off.compileCache = 0;
    decoder::MonteCarloEngine engineOff(e, off);
    const auto resOff = engineOff.run(off);
    EXPECT_EQ(decoder::compileCacheStats().entries, 0u);

    auto on = opts;
    on.compileCache = 1;
    decoder::MonteCarloEngine engineOn(e, on);
    const auto resOn = engineOn.run(on);
    EXPECT_EQ(EngineSignature(resOn), EngineSignature(resOff));

    // A second engine over the same experiment shares the artifact.
    const auto before = decoder::compileCacheStats();
    decoder::MonteCarloEngine engineOn2(e, on);
    const auto resOn2 = engineOn2.run(on);
    EXPECT_EQ(EngineSignature(resOn2), EngineSignature(resOff));
    const auto after = decoder::compileCacheStats();
    EXPECT_GT(after.hits, before.hits);
    EXPECT_EQ(after.entries, before.entries);
}

TEST(CaStore, RoundTripAndReopen)
{
    TempFile file;
    {
        CaStore store;
        store.open(file.path());
        EXPECT_TRUE(store.attached());
        EXPECT_EQ(store.size(), 0u);
        EXPECT_TRUE(store.put("k1", "v1"));
        EXPECT_TRUE(store.put("k2", "value two"));
        EXPECT_FALSE(store.put("k1", "other"));  // append-only
        std::string v;
        ASSERT_TRUE(store.get("k1", v));
        EXPECT_EQ(v, "v1");
        EXPECT_FALSE(store.get("nope", v));
        EXPECT_EQ(store.size(), 2u);
    }
    CaStore store;
    store.open(file.path());
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.loadStats().entries, 2u);
    EXPECT_EQ(store.loadStats().droppedRecords, 0u);
    EXPECT_FALSE(store.loadStats().recovered);
    std::string v;
    ASSERT_TRUE(store.get("k2", v));
    EXPECT_EQ(v, "value two");
    std::size_t seen = 0;
    store.forEach([&](const std::string &, const std::string &) {
        ++seen;
    });
    EXPECT_EQ(seen, 2u);
}

TEST(CaStore, TruncatedTailRecoveredWithoutFatal)
{
    TempFile file;
    {
        CaStore store;
        store.open(file.path());
        store.put("k1", "v1");
        store.put("k2", "v2");
        store.put("k3", "v3");
    }
    ASSERT_EQ(truncate(file.path().c_str(), kStoreHeader + 3 * 24 - 5),
              0);

    std::string v;
    {
        CaStore store;
        store.open(file.path());  // must recover, not throw
        EXPECT_TRUE(store.attached());
        EXPECT_TRUE(store.loadStats().recovered);
        EXPECT_EQ(store.loadStats().droppedRecords, 1u);
        EXPECT_EQ(store.size(), 2u);
        ASSERT_TRUE(store.get("k2", v));
        EXPECT_EQ(v, "v2");
        EXPECT_FALSE(store.get("k3", v));

        // The rebuilt file is clean: appends work.
        EXPECT_TRUE(store.put("k3", "v3 again"));
    }  // stores are single-writer: release the flock before reopening

    // A further (sequential) reopen reports no recovery.
    CaStore again;
    again.open(file.path());
    EXPECT_FALSE(again.loadStats().recovered);
    EXPECT_EQ(again.size(), 3u);
    ASSERT_TRUE(again.get("k3", v));
    EXPECT_EQ(v, "v3 again");
}

TEST(CaStore, CorruptedRecordDropsItAndItsSuffix)
{
    TempFile file;
    {
        CaStore store;
        store.open(file.path());
        store.put("k1", "v1");
        store.put("k2", "v2");
        store.put("k3", "v3");
    }
    {
        // Flip one byte inside record 2's key ("k2"): the checksum
        // catches it, and the unverifiable suffix goes with it.
        std::FILE *f = std::fopen(file.path().c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, kStoreHeader + 24 + 20, SEEK_SET), 0);
        std::fputc('X', f);
        std::fclose(f);
    }
    CaStore store;
    store.open(file.path());
    EXPECT_TRUE(store.loadStats().recovered);
    // One *detected* bad record; the suffix behind its corrupt
    // length/checksum cannot be parsed into records and is dropped
    // wholesale (reported by byte count on stderr).
    EXPECT_EQ(store.loadStats().droppedRecords, 1u);
    EXPECT_EQ(store.size(), 1u);
    std::string v;
    ASSERT_TRUE(store.get("k1", v));
    EXPECT_EQ(v, "v1");
}

TEST(CaStore, OtherSchemaStartsEmpty)
{
    TempFile file;
    {
        CaStore store;
        store.open(file.path(), 1);
        store.put("k1", "v1");
    }
    {
        CaStore store;
        store.open(file.path(), 2);  // reported, never served
        EXPECT_TRUE(store.loadStats().recovered);
        EXPECT_EQ(store.size(), 0u);
        EXPECT_TRUE(store.put("k1", "v1 under schema 2"));
    }
    CaStore store;
    store.open(file.path(), 2);
    EXPECT_FALSE(store.loadStats().recovered);
    std::string v;
    ASSERT_TRUE(store.get("k1", v));
    EXPECT_EQ(v, "v1 under schema 2");
}

/** FNV-1a over the golden service outputs, in file-name order. */
std::uint64_t
goldenDigest()
{
    std::vector<std::filesystem::path> goldens;
    for (const auto &entry : std::filesystem::directory_iterator(
             std::filesystem::path(TRAQ_SOURCE_DIR) / "tests" /
             "data")) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 13 &&
            name.substr(name.size() - 13) == ".golden.jsonl")
            goldens.push_back(entry.path());
    }
    std::sort(goldens.begin(), goldens.end());
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &path : goldens) {
        std::ifstream in(path, std::ios::binary);
        const std::string bytes =
            path.filename().string() + '\0' +
            std::string(std::istreambuf_iterator<char>(in), {});
        for (unsigned char c : bytes) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

TEST(ResultSchema, GoldenDigestPinned)
{
    // A golden moves only when served bytes move, and a store
    // written before would keep replaying the old bytes: bump
    // service::kResultSchemaVersion, then re-pin both numbers here.
    EXPECT_EQ(service::kResultSchemaVersion, 2u);
    EXPECT_EQ(goldenDigest(), 0x440427936e923d3aULL);
}

TEST(JobQueue, StoreKeysMonteCarloResultsByResolvedEngine)
{
    // A Monte-Carlo result depends on the decoder and the word
    // backend, which the environment picks, not the params.  A
    // result stored under one environment must not answer another.
    EnvGuard decoderGuard("TRAQ_DECODER");
    EnvGuard backendGuard("TRAQ_WORD_BACKEND");
    EnvGuard predecodeGuard("TRAQ_PREDECODE");
    EnvGuard cacheGuard("TRAQ_CACHE_FILE");
    unsetenv("TRAQ_PREDECODE");
    unsetenv("TRAQ_CACHE_FILE");
    const est::EstimateRequest req{"mc-logical-error",
                                   {{"distance", 3},
                                    {"p", 0.003},
                                    {"shots", 20000},
                                    {"seed", 7}}};
    service::JobQueueStats stats;
    auto serve = [&](const std::string &cacheFile) {
        service::JobQueueOptions o;
        o.threads = 1;
        o.cacheFile = cacheFile;
        service::JobService q(o);
        const std::string out = q.wait(q.submit(req)).toJson();
        stats = q.stats();
        return out;
    };

    TempFile file;
    ASSERT_EQ(setenv("TRAQ_DECODER", "union-find", 1), 0);
    ASSERT_EQ(setenv("TRAQ_WORD_BACKEND", "scalar64", 1), 0);
    const std::string stored = serve(file.path());
    EXPECT_EQ(est::resultFromJson(stored).metric("wordLanes"), 1.0);

    unsetenv("TRAQ_DECODER");
    unsetenv("TRAQ_WORD_BACKEND");
    const std::string fresh = serve("");
    const std::string restarted = serve(file.path());
    EXPECT_EQ(stats.evaluated, 1u);
    EXPECT_EQ(stats.persistentHits, 0u);
    EXPECT_EQ(restarted, fresh);
    EXPECT_NE(restarted, stored);
    const est::EstimateResult res = est::resultFromJson(fresh);
    EXPECT_EQ(res.metric("hits"), 132.0);
    EXPECT_EQ(res.metric("wordLanes"), 8.0);
}

TEST(JobQueue, EnvironmentRejectionsAreNeverPersisted)
{
    // A value TRAQ_DECODER, TRAQ_WORD_BACKEND or TRAQ_PREDECODE
    // cannot resolve rejects a Monte-Carlo request with the
    // resolver's message, but the store must not keep it: a restart
    // under another bad value reports that value, and one under a
    // fixed environment evaluates.
    EnvGuard decoderGuard("TRAQ_DECODER");
    EnvGuard backendGuard("TRAQ_WORD_BACKEND");
    EnvGuard predecodeGuard("TRAQ_PREDECODE");
    EnvGuard cacheGuard("TRAQ_CACHE_FILE");
    unsetenv("TRAQ_CACHE_FILE");
    const est::EstimateRequest req{
        "mc-logical-error",
        {{"distance", 3}, {"shots", 64}, {"seed", 7}}};
    const std::pair<const char *, void (*)()> resolvers[] = {
        {"TRAQ_DECODER",
         [] { decoder::resolveDecoderKind(decoder::McOptions{}.decoder); }},
        {"TRAQ_WORD_BACKEND",
         [] { resolveWordBackend(WordBackend::Auto); }},
        {"TRAQ_PREDECODE", [] { decoder::resolvePredecode(-1); }},
    };
    for (const auto &[var, resolve] : resolvers) {
        unsetenv("TRAQ_DECODER");
        unsetenv("TRAQ_WORD_BACKEND");
        unsetenv("TRAQ_PREDECODE");
        TempFile file;
        service::JobQueueStats stats;
        auto serve = [&](const char *value) {
            if (value)
                setenv(var, value, 1);
            else
                unsetenv(var);
            service::JobQueueOptions o;
            o.threads = 1;
            o.cacheFile = file.path();
            service::JobService q(o);
            const std::string out = q.wait(q.submit(req)).toJson();
            stats = q.stats();
            return out;
        };

        // The answer carries the resolver's own message bytes.
        const std::string first = serve("bogus");
        std::string message;
        try {
            resolve();
        } catch (const FatalError &e) {
            message = e.what();
        }
        EXPECT_NE(message.find("'bogus'"), std::string::npos) << var;
        EXPECT_EQ(first.rfind("{\"error\":", 0), 0u) << var;
        EXPECT_NE(first.find(message), std::string::npos) << first;
        EXPECT_EQ(stats.failed, 1u) << var;

        const std::string second = serve("bogus2");
        EXPECT_NE(second.find("'bogus2'"), std::string::npos) << second;
        EXPECT_EQ(stats.evaluated, 1u) << var;
        EXPECT_EQ(stats.persistentHits, 0u) << var;

        const std::string fixed = serve(nullptr);
        EXPECT_EQ(fixed.rfind("{\"kind\":", 0), 0u) << fixed;
        EXPECT_EQ(stats.persistentHits, 0u) << var;
    }
}

TEST(JobQueue, PersistentRestartServesIdenticalBytes)
{
    TempFile file;
    std::vector<est::EstimateRequest> reqs = {
        {"idle-storage", {{"distance", 13}, {"sePeriod", 1e-4}}},
        {"gidney-ekera", {{"tReaction", 2e-5}}},
        // A deterministic failure: unknown kinds throw FatalError,
        // which is cacheable — and persistable — like a result.
        {"no-such-kind-xyz", {}},
    };

    std::vector<std::string> firstRun;
    {
        service::JobQueueOptions o;
        o.threads = 2;
        o.cacheFile = file.path();
        service::JobService q(o);
        std::vector<service::JobService::JobId> ids;
        for (const auto &r : reqs)
            ids.push_back(q.submit(r));
        for (auto id : ids)
            firstRun.push_back(q.wait(id).toJson());
        const auto st = q.stats();
        EXPECT_EQ(st.evaluated, reqs.size());
        EXPECT_EQ(st.persistentHits, 0u);
        EXPECT_EQ(st.failed, 1u);
    }
    ASSERT_FALSE(firstRun[2].empty());
    EXPECT_NE(firstRun[2].find("error"), std::string::npos);

    // Fresh process stand-in: a new queue on the same store file
    // must serve byte-identical outcomes without evaluating.
    {
        service::JobQueueOptions o;
        o.threads = 2;
        o.cacheFile = file.path();
        service::JobService q(o);
        std::vector<service::JobService::JobId> ids;
        for (const auto &r : reqs)
            ids.push_back(q.submit(r));
        for (std::size_t i = 0; i < ids.size(); ++i)
            EXPECT_EQ(q.wait(ids[i]).toJson(), firstRun[i])
                << "request " << i;
        const auto st = q.stats();
        EXPECT_EQ(st.evaluated, 0u);
        EXPECT_EQ(st.persistentHits, reqs.size());
    }
}

} // namespace
