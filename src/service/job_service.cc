#include "src/service/job_service.hh"

#include <algorithm>
#include <utility>

#include "src/common/assert.hh"
#include "src/common/json.hh"
#include "src/common/threads.hh"

namespace traq::service {
namespace {

/**
 * Inverse of JobOutcome::toJson(): stored values are either a result
 * object or {"error":"..."}.  Malformed store content throws
 * FatalError — records are checksummed, so this only fires on
 * hand-edited files, and silence would serve garbage.  The store
 * does not record error classes, so a re-loaded failure reports the
 * evaluation class (every persisted failure was a deterministic
 * FatalError from validation or evaluation).
 */
JobOutcome
outcomeFromStoredJson(const std::string &text)
{
    JobOutcome outcome;
    const json::Value v = json::parse(text);
    if (v.isObject()) {
        if (const json::Value *err = v.find("error")) {
            outcome.ok = false;
            outcome.error = err->asString();
            outcome.errorCode = errc::estimate;
            return outcome;
        }
    }
    outcome.result = est::resultFromJson(v);
    outcome.ok = true;
    return outcome;
}

} // namespace

JobService::JobService(JobQueueOptions opts)
    : pool_(std::make_shared<EstimatorPool>()),
      validator_(pool_, opts.cache)
{
    const std::string cachePath = resolveCacheFile(opts.cacheFile);
    if (!cachePath.empty()) {
        // Checked before any worker spawns, with the message the
        // monolithic JobQueue used.
        TRAQ_REQUIRE(opts.cache,
                     "JobQueue: a cache file requires the result "
                     "cache (the store is its disk form; refusing "
                     "to silently ignore the path)");
        store_.open(cachePath, kResultSchemaVersion);
        // Pre-load every stored outcome as a done cache entry:
        // admission-time hits on them are plain map lookups, so a
        // restarted worker serves warm traffic at warm-cache speed.
        store_.forEach([this](const std::string &key,
                              const std::string &value) {
            auto entry = std::make_shared<Entry>();
            entry->key = key;
            entry->outcome = outcomeFromStoredJson(value);
            entry->done = true;
            entry->fromStore = true;
            entry->state.step(JobState::Validated);
            entry->state.step(entry->outcome.ok ? JobState::Done
                                                : JobState::Failed);
            byKey_.emplace(key, std::move(entry));
        });
    }
    threads_ = resolveThreadCount(opts.threads);
    readyCapacity_ =
        opts.readyCapacity
            ? opts.readyCapacity
            : std::max<std::size_t>(64, 8 * std::size_t{threads_});
    workers_.reserve(threads_);
    for (unsigned t = 0; t < threads_; ++t)
        workers_.emplace_back([this] { workerMain(); });
}

JobService::~JobService()
{
    drain();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    spaceCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

JobId
JobService::submit(est::EstimateRequest req)
{
    return admit(validator_.validate(std::move(req)));
}

std::vector<JobId>
JobService::submitBatch(std::vector<est::EstimateRequest> reqs)
{
    std::vector<JobId> ids;
    ids.reserve(reqs.size());
    for (est::EstimateRequest &req : reqs)
        ids.push_back(submit(std::move(req)));
    return ids;
}

JobId
JobService::admit(Validated ticket)
{
    std::shared_ptr<Entry> entry;
    JobId id = 0;
    std::string persist; //!< store append for validation failures
    bool terminalAtAdmit = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        id = jobs_.size();
        ++stats_.submitted;
        if (!ticket.key.empty()) {
            // Cache membership is decided here, serially, so the
            // hit/evaluated counters depend only on the admission
            // sequence — not on whether a worker finished the first
            // occurrence yet.
            auto it = byKey_.find(ticket.key);
            if (it != byKey_.end()) {
                entry = it->second;
                ++stats_.cacheHits;
                if (entry->fromStore)
                    ++stats_.persistentHits;
                jobs_.push_back(entry);
                if (entry->done) {
                    completed_.push_back(id);
                    lock.unlock();
                    streamCv_.notify_all();
                } else {
                    ++entry->jobRefs;
                    ++stats_.inflight;
                    entry->waiters.push_back(id);
                }
                return id;
            }
        }
        entry = std::make_shared<Entry>();
        entry->request = std::move(ticket.request);
        entry->key = ticket.key;
        if (!entry->key.empty())
            byKey_.emplace(entry->key, entry);
        ++stats_.evaluated;
        jobs_.push_back(entry);
        if (!ticket.error.empty()) {
            // Validation rejection: terminal at admission, cached
            // and persisted exactly like an evaluation-time
            // FatalError was in the monolithic queue (same
            // counters, same message bytes).  A rejection caused by
            // the environment is not persisted: a restart under a
            // fixed environment must evaluate the request.
            entry->state.step(JobState::Failed);
            entry->outcome.ok = false;
            entry->outcome.error = ticket.error.message;
            entry->outcome.errorCode = ticket.error.code;
            entry->done = true;
            terminalAtAdmit = true;
            ++stats_.failed;
            completed_.push_back(id);
            if (store_.attached() && !entry->key.empty() &&
                ticket.error.code != errc::env)
                persist = entry->outcome.toJson();
        } else {
            entry->state.step(JobState::Validated);
            entry->jobRefs = 1;
            entry->waiters.push_back(id);
            ++stats_.inflight;
            // Bounded admission: hold the producer while the ready
            // queue is full.  Cache hits and rejections above never
            // reach this wait — they occupy no ready slot.
            spaceCv_.wait(lock, [this] {
                return ready_.size() < readyCapacity_ || stop_;
            });
            entry->state.step(JobState::Scheduled);
            ready_.push_back(entry.get());
            stats_.readyHighWater =
                std::max(stats_.readyHighWater, ready_.size());
        }
    }
    if (terminalAtAdmit) {
        streamCv_.notify_all();
        if (!persist.empty())
            store_.put(entry->key, persist);
    } else {
        workCv_.notify_one();
    }
    return id;
}

const JobOutcome &
JobService::wait(JobId id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    TRAQ_REQUIRE(id < jobs_.size(), "job id out of range");
    Entry &entry = *jobs_[id];
    doneCv_.wait(lock, [&entry] { return entry.done; });
    return entry.outcome;
}

void
JobService::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [this] { return stats_.inflight == 0; });
}

void
JobService::closeSubmissions()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    streamCv_.notify_all();
}

std::optional<JobId>
JobService::waitCompleted()
{
    std::unique_lock<std::mutex> lock(mutex_);
    streamCv_.wait(lock, [this] {
        return !completed_.empty() ||
               (closed_ && stats_.inflight == 0);
    });
    if (!completed_.empty()) {
        const JobId id = completed_.front();
        completed_.pop_front();
        return id;
    }
    return std::nullopt; // closed and fully drained
}

JobQueueStats
JobService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
JobService::workerMain()
{
    while (true) {
        Entry *entry = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock, [this] {
                return stop_ || !ready_.empty();
            });
            if (ready_.empty())
                return; // stop_ set and no work left
            entry = ready_.front();
            ready_.pop_front();
            entry->state.step(JobState::Running);
        }
        spaceCv_.notify_one();
        runEntry(*entry);
    }
}

void
JobService::runEntry(Entry &entry)
{
    JobOutcome outcome;
    // Persist successes and deterministic failures; transient
    // errors are evicted from the in-memory cache and must not be
    // frozen into the store either.
    bool persistable = false;
    try {
        // Unknown kinds were already rejected at validation; the
        // pool lookup here is a cheap shared-instance fetch.
        const std::shared_ptr<const est::Estimator> estimator =
            pool_->get(entry.request.kind);
        outcome.result = estimator->estimate(entry.request);
        outcome.ok = true;
        persistable = true;
    } catch (const FatalError &e) {
        // Deterministic user error the per-kind checkParams could
        // not rule out statically: the same request fails the same
        // way forever, so the failure is cacheable like a result.
        outcome.ok = false;
        outcome.error = e.what();
        outcome.errorCode = errc::estimate;
        persistable = true;
    } catch (const std::exception &e) {
        // Transient system failure (bad_alloc, thread creation):
        // report it to the attached jobs but evict the cache entry
        // so a later identical request re-evaluates.
        outcome.ok = false;
        outcome.error = e.what();
        outcome.errorCode = errc::system;
        std::lock_guard<std::mutex> lock(mutex_);
        if (!entry.key.empty()) {
            auto it = byKey_.find(entry.key);
            if (it != byKey_.end() && it->second.get() == &entry)
                byKey_.erase(it);
        }
    }
    // Serialize for the store before the outcome is moved into the
    // entry; the append itself happens after completion is
    // published, outside the service lock (the store has its
    // own).
    std::string stored;
    if (store_.attached() && !entry.key.empty() && persistable)
        stored = outcome.toJson();
    finishLocked(entry, std::move(outcome));
    doneCv_.notify_all();
    streamCv_.notify_all();
    if (!stored.empty())
        store_.put(entry.key, stored);
}

void
JobService::finishLocked(Entry &entry, JobOutcome outcome)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entry.state.step(outcome.ok ? JobState::Done
                                : JobState::Failed);
    entry.outcome = std::move(outcome);
    entry.done = true;
    if (!entry.outcome.ok)
        ++stats_.failed;
    stats_.inflight -= entry.jobRefs;
    entry.jobRefs = 0;
    for (const JobId id : entry.waiters)
        completed_.push_back(id);
    entry.waiters.clear();
}

} // namespace traq::service
