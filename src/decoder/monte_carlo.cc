#include "src/decoder/monte_carlo.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <mutex>
#include <thread>

#include "src/common/assert.hh"
#include "src/common/rng.hh"
#include "src/common/threads.hh"
#include "src/decoder/global_memo.hh"
#include "src/sim/dem.hh"
#include "src/sim/frame.hh"
#include "src/sim/frame_kernels.hh"

namespace traq::decoder {

/** Per-thread state: decoder, sampler, and reusable scratch. */
struct MonteCarloEngine::Worker
{
    Worker(unsigned lanes, CpuDispatch dispatch)
        : fsim(0, lanes, dispatch),
          kern(&sim::kernels::frameKernels(dispatch)), live(lanes, 0),
          predicted(64ULL * lanes, 0)
    {}

    std::unique_ptr<Decoder> dec;
    sim::FrameSimulator fsim;
    /** Dispatch-resolved kernel table (extraction entry point). */
    const sim::kernels::FrameKernels *kern;
    sim::FrameBatch batch;
    /** Per-lane live-shot masks for the current batch. */
    std::vector<std::uint64_t> live;
    /** CSR syndromes + actual flip masks for one batch (SoA). */
    sim::SyndromeBlock block;
    /** Per-shot predicted flip masks for one batch. */
    std::vector<std::uint32_t> predicted;
    /** Sort, memo and herald-reweighting scratch for
     *  decodeBatchSorted. */
    BatchDecodeScratch scratch;
};

MonteCarloEngine::MonteCarloEngine(const codes::Experiment &exp,
                                   const McOptions &opts)
    : exp_(exp), opts_(opts)
{
    recompile();
}

void
MonteCarloEngine::recompile()
{
    noiseKey_ = opts_.noiseSpec.canonical();
    // Tier 2: the compiled circuit, DEM and decode graph may come
    // from (and be shared through) the process-wide compile cache —
    // byte-identical artifacts either way, so everything downstream
    // is oblivious to where the setup came from.
    setup_ = compileDecodeSetup(
        exp_, opts_.noiseSpec,
        resolveCompileCache(opts_.compileCache));
    circuit_ =
        setup_->compiled ? &*setup_->compiled : &exp_.circuit;
    TRAQ_REQUIRE(setup_->graph.numUndetectableLogical() == 0,
                 "circuit has undetectable logical errors");
}

Tally
MonteCarloEngine::runShard(std::uint64_t shard,
                           std::uint64_t shardShots, Worker &w)
{
    const auto &circuit = *circuit_;
    const DecodeGraph &graph = setup_->graph;
    const std::uint32_t numObs = circuit.numObservables();
    const bool haveHeralds = circuit.numHeraldChannels() > 0;
    const bool erasureAware = haveHeralds && opts_.erasureAware;
    const unsigned lanes = w.fsim.lanes();
    const std::uint64_t batchShots = w.fsim.shotsPerBatch();
    std::uint64_t globalHits = 0;

    Tally tally;
    tally.ensureBins(numObs);

    // The shard's identity, not the executing worker's, fixes the
    // RNG stream: determinism for any thread count.
    w.fsim.rng() = Rng(opts_.seed, shard);

    const std::uint64_t fallbacksBefore = w.dec->fallbacks();
    const std::uint64_t predecodesBefore = w.dec->predecodedPairs();
    // Counter increments owed by memo-replayed shots: added on top
    // of the decoder's own deltas so fallback/predecode statistics
    // are bit-identical memo on/off.
    std::uint64_t replayedFallbacks = 0;
    std::uint64_t replayedPeels = 0;
    std::uint64_t done = 0;

    while (done < shardShots) {
        w.fsim.sampleInto(circuit, w.batch);
        const std::uint64_t n =
            std::min<std::uint64_t>(batchShots, shardShots - done);
        for (unsigned l = 0; l < lanes; ++l) {
            const std::uint64_t lo = 64ULL * l;
            const std::uint64_t liveHere =
                n <= lo ? 0 : std::min<std::uint64_t>(64, n - lo);
            w.live[l] = liveHere == 64 ? ~0ULL
                                       : ((1ULL << liveHere) - 1);
        }

        // Straight from lane-major planes to a CSR block via the
        // dispatch-resolved transpose kernel.  Masked-out tail shots
        // come out empty, so decoding the first n rows of the block
        // is exact.
        w.kern->extractBlock(w.batch, w.live, w.block);
        tally.weight += w.block.offsets[n];

        SyndromeBatch view;
        view.offsets = {w.block.offsets.data(),
                        static_cast<std::size_t>(n) + 1};
        view.defects = {w.block.defects.data(),
                        w.block.offsets[n]};
        if (erasureAware) {
            // Heralded shots decode under herald-zeroed weights; an
            // erasure-blind run leaves the view clean.
            view.heraldOffsets = {w.block.heraldOffsets.data(),
                                  static_cast<std::size_t>(n) + 1};
            view.heraldIds = {w.block.heraldIds.data(),
                              w.block.heraldOffsets[n]};
            view.graph = &graph;
        }

        // Sorted (and, by default, memoized) batch decode: cheap
        // shots drain first with a warm arena, repeated (defects,
        // heralds) replay from the per-batch memo, and the
        // predictions are scattered back to shot order — output
        // bit-identical to in-order decoding either way (see
        // decodeBatchSorted).
        const BatchDecodeStats st = decodeBatchSorted(
            *w.dec, view,
            {w.predicted.data(), static_cast<std::size_t>(n)},
            w.scratch, memoOn_, globalMemo_, setupKey_);
        tally.aux4 += st.memoHits;
        globalHits += st.globalHits;
        replayedFallbacks += st.replayedFallbacks;
        replayedPeels += st.replayedPeels;
        if (haveHeralds)
            for (std::uint64_t s = 0; s < n; ++s)
                if (w.block.heraldOffsets[s + 1] >
                    w.block.heraldOffsets[s])
                    ++tally.aux3;

        for (std::uint64_t s = 0; s < n; ++s) {
            std::uint32_t diff =
                w.predicted[s] ^ w.block.observables[s];
            if (diff)
                ++tally.anyHits;
            while (diff) {
                const int k = std::countr_zero(diff);
                diff &= diff - 1;
                ++tally.binHits[k];
            }
        }
        done += n;
        tally.shots += n;
    }
    tally.aux =
        w.dec->fallbacks() - fallbacksBefore + replayedFallbacks;
    tally.aux2 = w.dec->predecodedPairs() - predecodesBefore +
                 replayedPeels;
    // Tier-1 hits are timing-dependent (they depend on what other
    // shards/runs cached first), so they bypass the deterministic
    // tally and accumulate on an engine-level counter instead.
    crossBatchHits_.fetch_add(globalHits,
                              std::memory_order_relaxed);
    return tally;
}

McResult
MonteCarloEngine::run()
{
    return run(opts_);
}

McResult
MonteCarloEngine::run(const McOptions &opts)
{
    opts_ = opts;
    // A changed noise spec invalidates the compiled circuit, the
    // DEM and the decode graph; an unchanged one reuses them all
    // (the sweep-amortization contract of this class).
    if (opts_.noiseSpec.canonical() != noiseKey_)
        recompile();
    // Resolve the word backend once per run so every worker uses the
    // same lane count even if the environment changes mid-run.
    lanes_ = wordBackendLanes(opts_.wordBackend);
    const std::uint64_t batchShots = 64ULL * lanes_;
    // Shards are whole sampler batches so shard boundaries never
    // split a batch (which would entangle RNG streams).
    shardUnit_ = std::max<std::uint64_t>(batchShots,
                                         opts_.shardShots);
    shardUnit_ =
        (shardUnit_ + batchShots - 1) / batchShots * batchShots;

    const std::uint32_t numObs = circuit_->numObservables();
    const std::uint64_t numShards =
        (opts_.shots + shardUnit_ - 1) / shardUnit_;

    unsigned threads = resolveThreadCount(opts_.threads);
    threads = static_cast<unsigned>(
        std::min<std::uint64_t>(threads, std::max<std::uint64_t>(
                                             1, numShards)));

    std::vector<Tally> shardTallies(numShards);
    std::atomic<std::uint64_t> nextShard{0};
    std::mutex errorMutex;
    std::exception_ptr firstError;

    // Resolve the decoder once per run so every worker (and the
    // result metadata) agrees even if the environment changes.
    const DecoderKind kind = resolveDecoderKind(opts_.decoder);
    DecoderConfig decCfg;
    decCfg.mwpmMaxDefects = opts_.mwpmMaxDefects;
    decCfg.correlationBoost = opts_.correlationBoost;
    decCfg.windowRounds = opts_.windowRounds;
    decCfg.commitRounds = opts_.commitRounds;
    // Resolve the predecode tri-state once per run (same reason as
    // the backend/decoder above: one env read, every worker agrees).
    decCfg.predecode = resolvePredecode(opts_.predecode) ? 1 : 0;
    decCfg.predecodeRadius = opts_.predecodeRadius;
    decCfg.reachCache = resolveReachCache(opts_.reachCache) ? 1 : 0;
    // Same once-per-run resolution for the memo switch and the CPU
    // dispatch level (one env/cpuid read, every worker agrees).
    memoOn_ = resolveDecodeMemo(opts_.decodeMemo);
    dispatch_ = resolveCpuDispatch(opts_.cpuDispatch);
    // Tier 1 rides on the per-batch memo's replay bookkeeping, so
    // decodeMemo=off silently disables it too (the memo is the
    // feature; the global tier only widens its key space).
    globalMemo_ = memoOn_ && resolveGlobalMemo(opts_.globalMemo)
                      ? &GlobalDecodeMemo::instance()
                      : nullptr;
    setupKey_ = decodeSetupKey(setup_->graph, kind, decCfg);
    crossBatchHits_.store(0, std::memory_order_relaxed);

    auto workerMain = [&]() {
        try {
            Worker w(lanes_, dispatch_);
            w.dec = makeDecoder(kind, setup_->graph, decCfg);
            std::uint64_t shard;
            while ((shard = nextShard.fetch_add(1)) < numShards) {
                const std::uint64_t lo = shard * shardUnit_;
                const std::uint64_t size = std::min<std::uint64_t>(
                    shardUnit_, opts_.shots - lo);
                shardTallies[shard] = runShard(shard, size, w);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(errorMutex);
            if (!firstError)
                firstError = std::current_exception();
            // Drain remaining shards so peers exit promptly.
            nextShard.store(numShards);
        }
    };

    if (threads <= 1) {
        workerMain();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(workerMain);
        for (auto &th : pool)
            th.join();
    }
    if (firstError)
        std::rethrow_exception(firstError);

    // Merge in shard order.  The counts are commutative sums so any
    // order would do, but fixed order keeps the loop auditable.
    Tally total;
    total.ensureBins(numObs);
    for (const auto &t : shardTallies)
        total.merge(t);

    McResult res;
    res.shots = total.shots;
    // Every shard samples in whole batches; the tail batch is
    // sampled in full but only partially decoded.
    res.sampledShots = 0;
    for (std::uint64_t shard = 0; shard < numShards; ++shard) {
        const std::uint64_t lo = shard * shardUnit_;
        const std::uint64_t size =
            std::min<std::uint64_t>(shardUnit_, opts_.shots - lo);
        res.sampledShots +=
            (size + batchShots - 1) / batchShots * batchShots;
    }
    for (std::uint32_t k = 0; k < numObs; ++k)
        res.perObservable.push_back(total.binProportion(k));
    res.anyObservable = total.anyProportion();
    res.avgDefects =
        total.shots
            ? static_cast<double>(total.weight) / total.shots
            : 0.0;
    res.mwpmFallbacks = total.aux;
    res.predecodedPairs = total.aux2;
    res.heraldedShots = total.aux3;
    res.memoHits = total.aux4;
    res.crossBatchHits =
        crossBatchHits_.load(std::memory_order_relaxed);
    res.decoder = decoderKindName(kind);
    res.cpuDispatch = cpuDispatchName(dispatch_);
    res.shards = numShards;
    res.threadsUsed = threads;
    res.wordLanes = lanes_;
    return res;
}

McResult
runMonteCarlo(const codes::Experiment &exp, const McOptions &opts)
{
    MonteCarloEngine engine(exp, opts);
    return engine.run();
}

} // namespace traq::decoder
