/**
 * @file
 * Service facade: the one object drivers construct.
 *
 * JobService wires the three service layers together — a shared
 * EstimatorPool, a Validator (admission checks, validation.hh), and
 * a Scheduler (worker pool + cache + bounded ready queue,
 * scheduler.hh) — behind the API the old monolithic JobQueue had,
 * plus the completion-order streaming primitives the streaming
 * drivers (traq_serve, traq_dispatch) build on.
 *
 * The behavioral contract is unchanged from the monolith:
 *
 *  - JobIds are 0-based submission indices; reading outcomes back
 *    in JobId order is byte-identical for any worker count, because
 *    estimators are deterministic pure functions and outcomes are
 *    never indexed by worker identity;
 *  - completed jobs are memoized by cache key, including
 *    deterministic failures (a request that fails validation or
 *    throws FatalError once fails with the same message forever;
 *    transient system errors are reported but evicted);
 *  - cache accounting is resolved serially at submission, so the
 *    hits/evaluated/failed counters depend only on the submission
 *    sequence and can appear in golden outputs;
 *  - a cache file (explicit option > TRAQ_CACHE_FILE env > off)
 *    pre-loads the persistent store at construction and appends
 *    cacheable completions; a path with the cache off fails loudly.
 *
 * What the split adds on top: submit() validates eagerly (unknown
 * kinds and rejected parameters never occupy a worker), errors are
 * structured (JobOutcome::errorCode), submission backpressure is
 * bounded (JobQueueOptions::readyCapacity), and completions can be
 * consumed in completion order (waitCompleted) for streaming
 * output.
 */

#ifndef TRAQ_SERVICE_JOB_SERVICE_HH
#define TRAQ_SERVICE_JOB_SERVICE_HH

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/service/job.hh"
#include "src/service/scheduler.hh"
#include "src/service/validation.hh"

namespace traq::service {

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

/** Queue counters; see SchedulerStats for field semantics. */
using JobQueueStats = SchedulerStats;

/** Layered estimate-serving front-end; see the file comment. */
class JobService
{
  public:
    /** Job handle: the 0-based submission index. */
    using JobId = service::JobId;

    explicit JobService(JobQueueOptions opts = {});

    /** Drains outstanding work, then joins the workers. */
    ~JobService() = default;

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
     * Next job id in completion order (each id announced exactly
     * once); std::nullopt after closeSubmissions() once drained.
     */
    std::optional<JobId> waitCompleted();

    JobQueueStats stats() const;

    /** Resolved worker count. */
    unsigned threads() const;

  private:
    std::shared_ptr<EstimatorPool> pool_;
    Validator validator_;
    std::unique_ptr<Scheduler> scheduler_;
};

} // namespace traq::service

#endif // TRAQ_SERVICE_JOB_SERVICE_HH
