/**
 * @file
 * The service object: the one thing drivers construct.
 *
 * JobService takes EstimateRequests, validates them eagerly through
 * a Validator (validation.hh), and owns everything after admission:
 *
 *  - a shared EstimatorPool, the same one the validator resolves
 *    kinds through;
 *  - the result cache (keyed as validation.hh says), pre-loading the
 *    persistent CaStore (caching tier 3) at construction and
 *    appending cacheable completions — successes and deterministic
 *    FatalError failures, never transient errors.  The cache file is
 *    the explicit option, else TRAQ_CACHE_FILE, else none; a cache
 *    file with the cache off fails loudly;
 *  - cache accounting resolved serially at submission under one
 *    lock, so the hits/evaluated/failed counters depend only on the
 *    submission sequence, never on worker timing, and can appear in
 *    golden outputs;
 *  - a worker pool (shared resolveThreadCount policy) feeding off a
 *    *bounded* ready queue: submit() blocks while the queue is full,
 *    so an unbounded producer (a streaming driver reading stdin
 *    faster than estimates run) holds a bounded memory footprint.
 *    Cache hits and validation rejections bypass the bound — they
 *    never occupy a ready slot;
 *  - completion streaming: every job id is announced exactly once,
 *    in completion order, through waitCompleted() — the primitive
 *    under the streaming drivers (traq_serve, traq_dispatch).
 *    wait(id) provides submission-order readback for ordered
 *    output.
 *
 * JobIds are 0-based submission indices; reading outcomes back in
 * JobId order is byte-identical for any worker count, because
 * estimators are deterministic pure functions and outcomes are never
 * indexed by worker identity.  Deterministic failures are memoized
 * like results: a request that fails validation or throws FatalError
 * once fails with the same message forever.  Transient system errors
 * are reported but evicted.
 *
 * Each evaluation entry carries a checked JobStateMachine (job.hh):
 * submitted -> validated -> scheduled -> running -> done/failed,
 * with the cache-hit and validation-rejected shortcuts.  An illegal
 * transition is a loud TRAQ_FATAL at the buggy call site.
 */

#ifndef TRAQ_SERVICE_JOB_SERVICE_HH
#define TRAQ_SERVICE_JOB_SERVICE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/castore.hh"
#include "src/service/job.hh"
#include "src/service/validation.hh"

namespace traq::service {

/**
 * Version of the persistent store's keys and stored outcome JSON,
 * written into its header; a store of another version starts empty.
 * Bump it whenever a key or stored byte can change.
 * ResultSchema.GoldenDigestPinned pins it with a digest of the
 * tests/data golden outputs, so a moved golden fails until it is.
 */
inline constexpr std::uint32_t kResultSchemaVersion = 2;

/** Execution options for a JobService. */
struct JobQueueOptions
{
    /** Worker threads; 0 = TRAQ_THREADS env or hardware. */
    unsigned threads = 0;
    /** Memoize completed jobs by cache key (validation.hh). */
    bool cache = true;
    /**
     * Persistent content-addressed store backing the result cache
     * (caching tier 3; common/castore.hh).  Explicit non-empty path
     * wins, otherwise the TRAQ_CACHE_FILE environment variable,
     * otherwise no persistence.  Requires cache == true; a path
     * with the cache off fails loudly (the store IS the cache's
     * disk form, silently ignoring it would be a lie).
     */
    std::string cacheFile;
    /**
     * Bound on evaluations queued ahead of the workers: submit()
     * blocks while the ready queue is full, so a streaming producer
     * holds a bounded footprint.  0 = auto (max(64, 8 * threads)).
     * Cache hits and validation rejections never occupy a slot.
     */
    std::size_t readyCapacity = 0;
};

/**
 * Queue counters.  Deterministic functions of the submission
 * sequence except inflight (a live gauge) and readyHighWater (the
 * deepest the bounded ready queue ever got — timing-dependent, but
 * never above the bound).
 */
struct JobQueueStats
{
    std::size_t submitted = 0; //!< jobs submitted
    std::size_t evaluated = 0; //!< evaluations scheduled (unique keys)
    std::size_t cacheHits = 0; //!< jobs served by an existing entry
    /** Subset of cacheHits served by an entry pre-loaded from the
     *  persistent store (0 without a cache file). */
    std::size_t persistentHits = 0;
    std::size_t failed = 0;    //!< terminal outcomes with ok == false
    std::size_t inflight = 0;  //!< submitted, not yet terminal
    /** Peak ready-queue depth; <= the configured bound. */
    std::size_t readyHighWater = 0;
};

/** Estimate-serving front-end; see the file comment. */
class JobService
{
  public:
    /** Job handle: the 0-based submission index. */
    using JobId = service::JobId;

    explicit JobService(JobQueueOptions opts = {});

    /** Drains outstanding work, then joins the workers. */
    ~JobService();

    JobService(const JobService &) = delete;
    JobService &operator=(const JobService &) = delete;

    /**
     * Validate and enqueue one request.  Returns once the job is
     * admitted; blocks only when the ready queue is full
     * (backpressure).  Validation failures are admitted as terminal
     * jobs, never thrown.
     */
    JobId submit(est::EstimateRequest req);

    /** Enqueue a batch; JobIds are consecutive in request order. */
    std::vector<JobId>
    submitBatch(std::vector<est::EstimateRequest> reqs);

    /**
     * Block until job id is terminal.  The reference stays valid
     * for the service's lifetime.
     */
    const JobOutcome &wait(JobId id);

    /** Block until every submitted job is terminal. */
    void drain();

    /**
     * Declare that no further submissions will happen; unblocks
     * waitCompleted() consumers once the stream is exhausted.
     */
    void closeSubmissions();

    /**
     * Next job id in completion order.  Every submitted id is
     * announced exactly once (duplicates of one cache entry are
     * announced individually).  Blocks until an id is available;
     * returns std::nullopt once closeSubmissions() has been called
     * and every announced id has been consumed.
     */
    std::optional<JobId> waitCompleted();

    JobQueueStats stats() const;

    /** Resolved worker count. */
    unsigned threads() const { return threads_; }

  private:
    /**
     * One unit of evaluation.  Duplicate submissions alias the same
     * entry; jobRefs counts aliases still waiting so the inflight
     * gauge can settle without scanning the job table, and waiters
     * lists their ids for completion-order announcement.
     */
    struct Entry
    {
        est::EstimateRequest request;
        std::string key; //!< cache key; empty when cache is off
        JobOutcome outcome;
        JobStateMachine state;
        bool done = false;
        /** Pre-loaded from the persistent store (tier 3): hits on
         *  this entry count as persistentHits. */
        bool fromStore = false;
        std::size_t jobRefs = 0;
        std::vector<JobId> waiters; //!< ids waiting on completion
    };

    /**
     * Admit one validated ticket; returns its JobId.  Cache hits
     * and validation-rejected tickets complete immediately; fresh
     * evaluations enter the bounded ready queue, blocking while it
     * is full.  Admission accounting (evaluated / cacheHits /
     * persistentHits / failed for validation rejections) happens
     * here, serially.
     */
    JobId admit(Validated ticket);
    void workerMain();
    void runEntry(Entry &entry);
    /** Complete @p entry under the lock, queueing its waiters' ids
     *  for announcement. */
    void finishLocked(Entry &entry, JobOutcome outcome);

    std::shared_ptr<EstimatorPool> pool_;
    Validator validator_;
    unsigned threads_ = 1;
    std::size_t readyCapacity_ = 0;

    mutable std::mutex mutex_;
    std::condition_variable workCv_;  //!< ready_ / stop_ changes
    std::condition_variable doneCv_;  //!< entry completions
    std::condition_variable spaceCv_; //!< ready_ slots freed
    std::condition_variable streamCv_; //!< completed_ / closed_
    std::deque<Entry *> ready_;
    std::vector<std::shared_ptr<Entry>> jobs_; //!< JobId -> entry
    std::unordered_map<std::string, std::shared_ptr<Entry>> byKey_;
    std::deque<JobId> completed_; //!< announced, not yet consumed
    JobQueueStats stats_;
    /** Tier-3 persistent store; detached when no cache file. */
    CaStore store_;
    bool stop_ = false;
    bool closed_ = false;
    std::vector<std::thread> workers_;
};

} // namespace traq::service

#endif // TRAQ_SERVICE_JOB_SERVICE_HH
