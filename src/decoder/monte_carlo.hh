/**
 * @file
 * Sharded, multithreaded Monte-Carlo logical-error-rate engine.
 *
 * The run is split into fixed-size shards (whole frame-simulator
 * batches of 64 * lanes shots; see common/word.hh for the word-width
 * backends).  Shard i always samples from the RNG stream Rng(seed, i)
 * regardless of which worker executes it, and per-shard tallies are
 * pure integer counts merged at the end, so the result is
 * bit-identical for any thread count — threads=1 and threads=N agree
 * exactly (per backend; scalar64 and wide512 consume randomness in
 * different orders).  Each worker owns its decoder
 * instance (via makeDecoder) and reusable sampling/syndrome
 * scratch, so the hot loop is allocation-free and scales with
 * cores.
 *
 * This is the engine behind the simulation cross-checks of the
 * paper's logical error model (Fig. 6(a)) and the alpha extraction;
 * decoder throughput against the ~500 us decode budget of Table I is
 * why the hot path is SoA end-to-end: each batch is extracted
 * straight from its lane-major bit planes into a CSR SyndromeBlock
 * (via the runtime-dispatched transpose kernels of sim/frame) and
 * decoded by exactly one decodeBatchSorted call — ascending defect
 * count, with repeated (defects, fired heralds) replayed from the
 * per-batch memo — so the decoder's arena scratch stays warm across
 * the whole block.  Erasure-aware and erasure-blind runs share that
 * call: an erasure-aware run hands the shots' fired herald channels
 * in with the batch, and heralded rows decode under herald-zeroed
 * edge weights.
 */

#ifndef TRAQ_DECODER_MONTE_CARLO_HH
#define TRAQ_DECODER_MONTE_CARLO_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/codes/experiments.hh"
#include "src/common/stats.hh"
#include "src/common/word.hh"
#include "src/decoder/compile_cache.hh"
#include "src/decoder/decode_graph.hh"
#include "src/decoder/decoder.hh"
#include "src/noise/noise.hh"

namespace traq::decoder {

/** Options for a Monte-Carlo run. */
struct McOptions
{
    std::uint64_t shots = 10000;
    std::uint64_t seed = 0x5eed;
    /**
     * Decoder to instantiate per worker (see makeDecoder).  The
     * TRAQ_DECODER environment variable (a decoderKindName string,
     * e.g. "correlated") overrides this at run() time.
     */
    DecoderKind decoder = DecoderKind::Fallback;
    std::size_t mwpmMaxDefects = kDefaultMwpmMaxDefects;
    /** Partner-edge posterior for the correlated decoder. */
    double correlationBoost = 0.5;
    /** Window/commit depths (rounds) for the windowed decoder. */
    int windowRounds = 6;
    int commitRounds = 2;
    /**
     * Predecode fast path (DecoderConfig::predecode): peel isolated
     * adjacent defect pairs before the full decoder.  Tri-state:
     * negative defers to the TRAQ_PREDECODE env var (default off),
     * 0 off, positive on.  Corrections are identical either way —
     * the peeler's conditions are conservative — so this is purely a
     * throughput knob; McResult::predecodedPairs reports the hits.
     */
    int predecode = -1;
    /** Isolation radius (graph hops) for the predecode peeler. */
    int predecodeRadius = 2;
    /**
     * Syndrome-keyed decode memoization: within each batch, shots
     * whose (defects, fired heralds) match an earlier shot replay
     * that shot's correction instead of re-decoding.  Results —
     * corrections, failure counts, fallback/predecode statistics —
     * are bit-identical on/off; McResult::memoHits reports the
     * replays.  Tri-state: negative defers to TRAQ_DECODE_MEMO
     * (default ON; see resolveDecodeMemo), 0 off, positive on.
     */
    int decodeMemo = -1;
    /**
     * MWPM reach cache (DecoderConfig::reachCache): share Dijkstra
     * searches across shots whose source defect recurs.  Tri-state:
     * negative defers to TRAQ_REACH_CACHE (default ON), 0 off,
     * positive on.  Bit-identical either way.
     */
    int reachCache = -1;
    /**
     * Process-global decode memo (caching tier 1): distinct
     * syndromes already decoded by *any* batch, shard, or earlier
     * run of this process replay their correction and counter
     * deltas instead of decoding.  Requires the per-batch memo
     * (decodeMemo) to be on; corrections and tallies are
     * bit-identical on/off and across thread counts, only
     * McResult::crossBatchHits (timing-dependent) varies.
     * Tri-state: negative defers to TRAQ_GLOBAL_MEMO (default ON),
     * 0 off, positive on.
     */
    int globalMemo = -1;
    /**
     * Compiled-artifact cache (caching tier 2, compile_cache.hh):
     * reuse the noise-compiled circuit + DEM + DecodeGraph across
     * engines that share the exact circuit, metadata, and noise
     * spec.  Bit-identical either way.  Tri-state: negative defers
     * to TRAQ_COMPILE_CACHE (default ON), 0 off, positive on.
     */
    int compileCache = -1;
    /**
     * Runtime CPU dispatch level for the sampler/extraction kernels
     * (common/word.hh).  Auto defers to TRAQ_CPU_DISPATCH and then
     * cpuid (best supported level).  All levels are bit-identical;
     * McResult::cpuDispatch reports the level that actually ran.
     */
    CpuDispatch cpuDispatch = CpuDispatch::Auto;
    /** Worker threads; 0 = TRAQ_THREADS env or hardware (see
     *  common/threads.hh). */
    unsigned threads = 0;
    /**
     * Sampling word backend (common/word.hh).  Auto defers to the
     * TRAQ_WORD_BACKEND env var, defaulting to wide512.  Results are
     * bit-identical across thread counts for a fixed backend;
     * scalar64 and wide512 agree statistically (and exactly on
     * noiseless / certain-error circuits) but consume randomness in
     * different orders.
     */
    WordBackend wordBackend = WordBackend::Auto;
    /**
     * Shots per shard (rounded up to a whole number of sampler
     * batches, i.e. a multiple of 64 * lanes).  The shard is the
     * unit of deterministic RNG assignment and of work stealing;
     * smaller shards balance better, larger shards amortize decoder
     * setup.
     */
    std::uint64_t shardShots = 4096;
    /**
     * Extra noise-source stack (src/noise) compiled over the
     * experiment's circuit before sampling.  Empty (the default)
     * runs the circuit exactly as built — bit-identical to an engine
     * without this field.  The engine rebuilds its DEM and decode
     * graph whenever the spec changes between run() calls.
     */
    noise::NoiseSpec noiseSpec{};
    /**
     * Use per-shot heralded-erasure flags: shots with fired heralds
     * are decoded under a DecodeContext that zeroes the weight of
     * every edge the fired channels can explain (an erased qubit's
     * replacement Pauli is uniformly random, so traversing its edges
     * carries no evidence cost).  Off = erasure-blind decoding of
     * the same circuit; only meaningful when the noise spec emits
     * HERALDED_ERASE instructions.
     */
    bool erasureAware = true;
};

/** Results of a Monte-Carlo run. */
struct McResult
{
    /** Decoded shots (exactly the requested count). */
    std::uint64_t shots = 0;
    /**
     * Shots actually produced by the sampler (shots rounded up to
     * whole (64 * lanes)-shot batches).  The excess tail shots are
     * sampled but never decoded; reported so callers can see the
     * waste instead of it being silent.
     */
    std::uint64_t sampledShots = 0;
    /** Per-observable logical failure proportion. */
    std::vector<Proportion> perObservable;
    /** Shots where any observable failed. */
    Proportion anyObservable;
    double avgDefects = 0.0;         //!< mean syndrome size
    std::uint64_t mwpmFallbacks = 0; //!< shots decoded by UF fallback
    /** Defect pairs peeled by the predecode fast path (0 when off). */
    std::uint64_t predecodedPairs = 0;
    /** Shots with at least one fired herald flag (0 without
     *  herald-emitting noise). */
    std::uint64_t heraldedShots = 0;
    /** Shots answered by replaying a memoized correction (0 when
     *  decode memoization is off). */
    std::uint64_t memoHits = 0;
    /**
     * Distinct syndromes served from the process-global memo
     * (caching tier 1) instead of decoding.  Unlike every other
     * count here this depends on what earlier batches/runs cached
     * and on thread timing, so it is informational only and
     * excluded from the bit-identity contract.
     */
    std::uint64_t crossBatchHits = 0;
    /** Name of the decoder kind actually run (after TRAQ_DECODER). */
    const char *decoder = "";
    /** CPU dispatch level the kernels actually ran at (after
     *  TRAQ_CPU_DISPATCH / cpuid): "baseline", "avx2", "avx512". */
    const char *cpuDispatch = "";
    std::uint64_t shards = 0;        //!< shards the run was split into
    unsigned threadsUsed = 0;        //!< workers actually spawned
    unsigned wordLanes = 0;          //!< 64-bit lanes per batch used
};

/**
 * Reusable Monte-Carlo engine for one experiment.
 *
 * Builds the DEM and decoding graph once; run() may be called
 * repeatedly, optionally with fresh options (different shot counts,
 * seeds, thread counts) to amortize graph construction across a
 * sweep.  Not thread-safe itself — workers are internal.  The
 * referenced experiment must outlive the engine.
 */
class MonteCarloEngine
{
  public:
    MonteCarloEngine(const codes::Experiment &exp,
                     const McOptions &opts);

    /** Execute the run described by the construction options. */
    McResult run();

    /** Execute with different options against the same graph. */
    McResult run(const McOptions &opts);

    const DecodeGraph &graph() const { return setup_->graph; }

  private:
    struct Worker;

    const codes::Experiment &exp_;
    McOptions opts_;
    /** Compiled circuit + DEM + decode graph, possibly shared with
     *  other engines through the tier-2 compile cache.  The
     *  shared_ptr keeps it alive independently of cache eviction. */
    std::shared_ptr<const CompiledDecodeSetup> setup_;
    /** Circuit actually sampled: &exp_.circuit or the setup's
     *  noise-compiled copy. */
    const sim::Circuit *circuit_ = nullptr;
    /** Canonical key of the spec setup_ was built for. */
    std::string noiseKey_;
    unsigned lanes_ = 1;          //!< resolved word lanes per batch
    std::uint64_t shardUnit_ = 0; //!< shots/shard, multiple of batch
    bool memoOn_ = true;          //!< resolved decode-memo switch
    /** Tier-1 global memo, resolved per run; null when off. */
    GlobalDecodeMemo *globalMemo_ = nullptr;
    /** Setup key the workers memoize under (tier 1). */
    DecodeSetupKey setupKey_{};
    /** Tier-1 hits across all workers of the current run. */
    std::atomic<std::uint64_t> crossBatchHits_{0};
    /** Dispatch level resolved once per run (workers all agree). */
    CpuDispatch dispatch_ = CpuDispatch::Auto;

    /** (Re)compile the noise spec and rebuild DEM + decode graph. */
    void recompile();

    /** Decode shard `shard` (shardShots shots) into a fresh tally. */
    Tally runShard(std::uint64_t shard, std::uint64_t shardShots,
                   Worker &w);
};

/** One-shot convenience wrapper around MonteCarloEngine. */
McResult runMonteCarlo(const codes::Experiment &exp,
                       const McOptions &opts);

} // namespace traq::decoder

#endif // TRAQ_DECODER_MONTE_CARLO_HH
