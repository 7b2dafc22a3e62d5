/**
 * @file
 * Scheduler layer of the service tier: worker pool, result cache,
 * bounded ready queue, and completion streaming.
 *
 * The scheduler accepts Validated admission tickets (validation.hh)
 * and owns everything after admission:
 *
 *  - the result cache (keyed as validation.hh says), pre-loading the
 *    persistent CaStore (caching tier 3) at construction and
 *    appending cacheable completions — successes and deterministic
 *    FatalError failures, never transient errors;
 *  - cache accounting resolved serially at admission under one
 *    lock, so the hits/evaluated/failed counters depend only on the
 *    admission sequence, never on worker timing, and can appear in
 *    golden outputs;
 *  - a worker pool (shared resolveThreadCount policy) feeding off a
 *    *bounded* ready queue: admit() blocks while the queue is full,
 *    so an unbounded producer (a streaming driver reading stdin
 *    faster than estimates run) holds a bounded memory footprint.
 *    Cache hits and pre-failed tickets bypass the bound — they
 *    never occupy a ready slot;
 *  - completion streaming: every job id is announced exactly once,
 *    in completion order, through waitCompleted() — the primitive
 *    under traq_serve's unordered mode.  wait(id) still provides
 *    submission-order readback for ordered output.
 *
 * Each evaluation entry carries a checked JobStateMachine (job.hh):
 * submitted -> validated -> scheduled -> running -> done/failed,
 * with the cache-hit and validation-rejected shortcuts.  An illegal
 * transition is a loud TRAQ_FATAL at the buggy call site.
 */

#ifndef TRAQ_SERVICE_SCHEDULER_HH
#define TRAQ_SERVICE_SCHEDULER_HH

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

/** Execution options for a Scheduler. */
struct SchedulerOptions
{
    /** Worker threads; 0 = TRAQ_THREADS env or hardware. */
    unsigned threads = 0;
    /** Memoize completed jobs by cache key. */
    bool cache = true;
    /**
     * Resolved persistent-store path (the facade applies the
     * explicit-option > TRAQ_CACHE_FILE > off policy and the
     * cache-required check before handing the path down); "" = no
     * persistence.
     */
    std::string cacheFile;
    /**
     * Ready-queue bound: admit() blocks while this many evaluations
     * are queued and not yet picked up by a worker.  0 = auto
     * (max(64, 8 * threads)).
     */
    std::size_t readyCapacity = 0;
};

/**
 * Scheduler counters.  Deterministic functions of the admission
 * sequence except inflight (a live gauge) and readyHighWater (the
 * deepest the bounded ready queue ever got — timing-dependent, but
 * never above the bound).
 */
struct SchedulerStats
{
    std::size_t submitted = 0; //!< tickets admitted
    std::size_t evaluated = 0; //!< evaluations scheduled (unique keys)
    std::size_t cacheHits = 0; //!< jobs served by an existing entry
    /** Subset of cacheHits served by an entry pre-loaded from the
     *  persistent store (0 without a cache file). */
    std::size_t persistentHits = 0;
    std::size_t failed = 0;    //!< terminal outcomes with ok == false
    std::size_t inflight = 0;  //!< admitted, not yet terminal
    /** Peak ready-queue depth; <= the configured bound. */
    std::size_t readyHighWater = 0;
};

/** Worker pool + cache + bounded queue; see the file comment. */
class Scheduler
{
  public:
    /**
     * @param pool shared estimator instances, the same pool the
     *             validator resolves kinds through.
     */
    Scheduler(SchedulerOptions opts,
              std::shared_ptr<EstimatorPool> pool);

    /** Drains outstanding work, then joins the workers. */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Admit one validated ticket; returns its JobId (the 0-based
     * admission index).  Cache hits and validation-rejected tickets
     * complete immediately; fresh evaluations enter the bounded
     * ready queue, blocking while it is full.  Admission accounting
     * (evaluated / cacheHits / persistentHits / failed for
     * validation rejections) happens here, serially.
     */
    JobId admit(Validated ticket);

    /**
     * Block until job @p id is terminal.  The reference stays valid
     * for the scheduler's lifetime.
     */
    const JobOutcome &wait(JobId id);

    /** Block until every admitted job is terminal. */
    void drain();

    /**
     * Declare that no further admit() calls will happen, unblocking
     * waitCompleted() consumers once the stream is exhausted.
     */
    void closeSubmissions();

    /**
     * Next job id in completion order.  Every admitted id is
     * announced exactly once (duplicates of one cache entry are
     * announced individually).  Blocks until an id is available;
     * returns std::nullopt once closeSubmissions() has been called
     * and every announced id has been consumed.
     */
    std::optional<JobId> waitCompleted();

    SchedulerStats stats() const;

    /** Resolved worker count. */
    unsigned threads() const { return threads_; }

    /** Resolved ready-queue bound. */
    std::size_t readyCapacity() const { return readyCapacity_; }

  private:
    /**
     * One unit of evaluation.  Duplicate admissions alias the same
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

    void workerMain();
    void runEntry(Entry &entry);
    /** Complete @p entry under the lock; returns the ids to
     *  announce (already pushed to completed_). */
    void finishLocked(Entry &entry, JobOutcome outcome);

    SchedulerOptions opts_;
    unsigned threads_ = 1;
    std::size_t readyCapacity_ = 0;
    std::shared_ptr<EstimatorPool> pool_;

    mutable std::mutex mutex_;
    std::condition_variable workCv_;  //!< ready_ / stop_ changes
    std::condition_variable doneCv_;  //!< entry completions
    std::condition_variable spaceCv_; //!< ready_ slots freed
    std::condition_variable streamCv_; //!< completed_ / closed_
    std::deque<Entry *> ready_;
    std::vector<std::shared_ptr<Entry>> jobs_; //!< JobId -> entry
    std::unordered_map<std::string, std::shared_ptr<Entry>> byKey_;
    std::deque<JobId> completed_; //!< announced, not yet consumed
    SchedulerStats stats_;
    /** Tier-3 persistent store; detached when no cacheFile. */
    CaStore store_;
    bool stop_ = false;
    bool closed_ = false;
    std::vector<std::thread> workers_;
};

} // namespace traq::service

#endif // TRAQ_SERVICE_SCHEDULER_HH
