/**
 * @file
 * Sharded multi-worker dispatcher: fans a request-line stream out
 * across N traq_serve subprocesses and merges their streaming
 * output back into one result stream.
 *
 * Each worker is a child process running traq_serve in its default
 * streaming mode, connected by a pipe pair (stdin for request
 * lines, stdout for tagged result lines).  The dispatcher:
 *
 *  - shards round-robin across *live* workers, with a bounded
 *    per-shard inflight window: submit() blocks while every live
 *    worker is at its bound, so a fast producer cannot buffer an
 *    unbounded request backlog inside slow children;
 *  - remaps indices: each worker sees a dense local index sequence
 *    (a worker skips nothing, so its tag ordinals are exactly the
 *    lines the dispatcher wrote to it), and a per-worker reader
 *    thread translates local tags back to the caller's global
 *    indices;
 *  - isolates failures: a worker that dies (crash, kill, exit) or
 *    breaks the line protocol (an untagged line, or a tag it was
 *    never sent; the reader SIGKILLs it) takes only its own
 *    unacknowledged jobs with it.  Those lines are requeued onto
 *    the surviving workers — results are the at-least-once retry
 *    side; the exactly-once output guarantee comes from index
 *    dedup in waitResult() (a line acknowledged by a worker just
 *    before death may race its requeue; the second copy is
 *    dropped).  Only a *complete* worker line (trailing newline
 *    seen) counts as acknowledged — a torn final line from a dying
 *    worker is discarded, never emitted.  So the requeue
 *    guarantee holds through the whole drain, every worker's stdin
 *    — including drained, idle workers' — stays open until every
 *    submitted index has been answered: an idle worker is the
 *    retry target if a still-busy one dies, and releasing it early
 *    (EOF → exit) would strand the requeue with no live shard;
 *  - fails loudly (FatalError) at construction when a worker cannot
 *    be started — an unexecutable servePath is named with its errno
 *    text, not left to look like a worker death — and after that
 *    only when no live worker remains and unfinished jobs exist:
 *    with zero workers nothing can ever complete, and silence would
 *    hang the caller.  The message names the first protocol
 *    violation, if any.
 *
 * Because every worker runs the same deterministic estimators, the
 * merged results — reordered by global index — are byte-identical
 * to a single traq_serve --ordered run over the same stream, for
 * any worker count.  CI diffs exactly that.
 */

#ifndef TRAQ_SERVICE_DISPATCHER_HH
#define TRAQ_SERVICE_DISPATCHER_HH

#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <sys/types.h>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/service/wire.hh"

namespace traq::service {

/** Execution options for a Dispatcher. */
struct DispatcherOptions
{
    /** Path to the traq_serve executable. */
    std::string servePath;
    /** Worker process count (>= 1). */
    unsigned workers = 2;
    /**
     * Per-worker inflight bound: lines written to a worker but not
     * yet answered.  submit() blocks while every live worker is at
     * the bound.  0 = default (32).
     */
    std::size_t inflight = 0;
    /**
     * Extra arguments forwarded to every worker (e.g. --threads,
     * --cache).  The dispatcher itself adds nothing.
     */
    std::vector<std::string> workerArgs;
    /**
     * Persistent cache store path.  Stores are single-writer
     * (common/castore.hh), so worker K gets PATH.wK as its
     * TRAQ_CACHE_FILE environment variable, replacing any value
     * inherited from the parent.  "" = workers inherit the
     * environment unchanged.
     */
    std::string cacheFile;
};

/** One merged result: global input-line index + untagged payload. */
struct DispatchResult
{
    std::size_t index = 0;
    std::string payload; //!< ordered-format line (wire.hh)
};

/** Multi-process sharding front-end; see the file comment. */
class Dispatcher
{
  public:
    /**
     * Spawn the workers.  Throws FatalError, after stopping the
     * workers already started, when the descriptor limit cannot
     * hold them, a pipe or fork fails, or a worker cannot be
     * executed (the message names the path and the errno text).
     */
    explicit Dispatcher(DispatcherOptions opts);

    /** Closes worker stdins, drains, reaps every child. */
    ~Dispatcher();

    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    /**
     * Shard one request line (no trailing newline) under global
     * index @p index.  Blocks while every live worker is at the
     * inflight bound; throws FatalError when no live worker
     * remains.
     */
    void submit(std::size_t index, const std::string &line);

    /**
     * Declare end of input.  Worker stdins are NOT closed yet
     * unless every submitted index is already answered: drained
     * workers stay available as retry targets for a busy worker's
     * death.  waitResult() drains the remaining answers and
     * releases the children (stdin EOF) once the drain completes.
     */
    void closeSubmissions();

    /**
     * Next merged result in arrival order, deduplicated by global
     * index (exactly one result per submitted index, ever).
     * Blocks; returns std::nullopt when every submitted index has
     * been answered and submissions are closed.  Throws FatalError
     * when unfinished jobs remain but every worker is dead.
     */
    std::optional<DispatchResult> waitResult();

    /** Live worker count (for tests and diagnostics). */
    unsigned liveWorkers() const;

    /** Child pids, one per worker slot; -1 after reap (tests kill
     *  a worker through this to exercise the retry path). */
    std::vector<pid_t> workerPids() const;

  private:
    /** One pending job as a worker knows it. */
    struct Job
    {
        std::size_t index = 0; //!< global index
        std::string line;      //!< raw request line
    };

    /** One worker subprocess and its reader state. */
    struct Worker
    {
        pid_t pid = -1;
        int stdinFd = -1;        //!< dispatcher -> child; -1 = closed
        std::FILE *out = nullptr; //!< child stdout, read side
        bool alive = false;
        bool stdinOpen = false; //!< accepts new sends (logical)
        /** A send is mid-write on stdinFd with the lock dropped.
         *  While set, pickWorker() skips the worker (serialises
         *  writes so local-index assignment order matches pipe
         *  arrival order) and stdinFd must not be closed by
         *  another thread (closing an fd under a concurrent
         *  ::write races fd reuse) — closeStdin() defers the
         *  ::close to sendToWorker(). */
        bool writing = false;
        std::size_t nextLocal = 0; //!< next local index to assign
        /** Local index -> job; erased on acknowledgement.  Kept
         *  (not cleared) after death so results buffered in the
         *  dead worker's pipe can still be mapped. */
        std::unordered_map<std::size_t, Job> unacked;
        std::thread reader;
    };

    /** Fork and exec worker @p slot; returns once the exec has
     *  succeeded, and throws FatalError naming the errno if not. */
    void spawnWorker(std::size_t slot);
    /** Close every worker's stdin, join its reader and reap it. */
    void stopWorkers();
    void readerMain(std::size_t slot);
    /** Mark a worker dead and requeue its unacked jobs (lock
     *  held). */
    void workerLost(std::size_t slot);
    /** Logically close a worker's stdin (lock held); the ::close
     *  itself is deferred while Worker::writing is set. */
    void closeStdin(Worker &w);
    /** Close every worker's stdin once submissions are closed and
     *  answered_ == submitted_ (lock held); no-op before then. */
    void releaseWorkersIfDone();
    /** Write one job to a worker (lock held for bookkeeping; the
     *  write itself is outside).  Returns false when the worker's
     *  pipe broke. */
    bool sendToWorker(std::size_t slot, Job job,
                      std::unique_lock<std::mutex> &lock);
    /** The next worker in round-robin order that can take a line
     *  now — live, stdin open, no write in flight, under the
     *  inflight bound — with the cursor moved past it;
     *  workers_.size() when none can (lock held). */
    std::size_t pickWorker();
    void pumpRequeued(std::unique_lock<std::mutex> &lock);
    /** Throw the no-live-worker FatalError, naming the first
     *  protocol violation if any (lock held). */
    [[noreturn]] void failAllDead() const;

    DispatcherOptions opts_;
    std::size_t inflightBound_ = 32;

    mutable std::mutex mutex_;
    std::condition_variable resultCv_; //!< results_ / liveness
    std::condition_variable spaceCv_;  //!< inflight slots freed
    std::vector<Worker> workers_;
    std::deque<Job> requeued_; //!< jobs orphaned by a dead worker
    std::deque<DispatchResult> results_;
    std::vector<bool> emitted_; //!< by global index (dedup)
    std::size_t submitted_ = 0;
    std::size_t answered_ = 0; //!< distinct indices emitted
    std::size_t rrNext_ = 0;   //!< round-robin cursor
    bool closed_ = false;
    /** First line a worker answered outside the protocol, with its
     *  slot; "" while every worker has kept to it. */
    std::string protocolError_;
};

} // namespace traq::service

#endif // TRAQ_SERVICE_DISPATCHER_HH
