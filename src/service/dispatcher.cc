#include "src/service/dispatcher.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>

#include "src/common/assert.hh"
#include "src/common/strings.hh"

extern char **environ;

namespace traq::service {
namespace {

/** Copy the environment; a non-empty @p cacheFile replaces
 *  TRAQ_CACHE_FILE, so a parent's env cannot point every worker at
 *  one single-writer store. */
std::vector<std::string>
childEnv(const std::string &cacheFile)
{
    std::vector<std::string> env;
    for (char **e = environ; *e != nullptr; ++e) {
        if (!cacheFile.empty() &&
            startsWith(*e, "TRAQ_CACHE_FILE="))
            continue;
        env.emplace_back(*e);
    }
    if (!cacheFile.empty())
        env.push_back("TRAQ_CACHE_FILE=" + cacheFile);
    return env;
}

/** Write all of @p data to @p fd; false on any write error (the
 *  worker's pipe is gone). */
bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

Dispatcher::Dispatcher(DispatcherOptions opts)
    : opts_(std::move(opts))
{
    TRAQ_REQUIRE(opts_.workers >= 1,
                 "dispatcher needs at least one worker");
    TRAQ_REQUIRE(!opts_.servePath.empty(),
                 "dispatcher needs the traq_serve path");
    // Each live worker holds two pipe ends here.  A count the
    // descriptor table cannot hold is refused before anything is
    // sized or spawned: four billion worker slots would abort on
    // bad_alloc, and a count that fits in memory would fork.
    rlimit files{};
    if (::getrlimit(RLIMIT_NOFILE, &files) == 0 &&
        files.rlim_cur != RLIM_INFINITY &&
        opts_.workers > files.rlim_cur / 2)
        TRAQ_FATAL("dispatcher: " + std::to_string(opts_.workers) +
                   " workers need two descriptors each, more than "
                   "the soft RLIMIT_NOFILE of " +
                   std::to_string(files.rlim_cur) + " allows");
    inflightBound_ = opts_.inflight ? opts_.inflight : 32;
    // A worker death must surface as a write error we handle, not
    // a process-killing SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    workers_.resize(opts_.workers);
    try {
        for (std::size_t slot = 0; slot < opts_.workers; ++slot)
            spawnWorker(slot);
    } catch (...) {
        // The destructor does not run for a throwing constructor:
        // release the workers already spawned here, or their
        // joinable reader threads would terminate the process.
        stopWorkers();
        throw;
    }
}

void
Dispatcher::spawnWorker(std::size_t slot)
{
    // Each failure below closes the descriptors taken so far: it
    // typically means the table is full, and reporting the failure
    // and stopping the other workers may need one.  Every pipe is
    // close-on-exec, so a later worker inherits none of the earlier
    // workers' pipes (one would keep their stdin from reaching EOF
    // until it exits); the child's dup2 onto fd 0/1 clears the flag
    // on the copies it keeps.
    int inPipe[2];  // dispatcher -> child stdin
    int outPipe[2]; // child stdout -> dispatcher
    // child -> dispatcher: execve's errno if it fails; a successful
    // exec closes it, so the dispatcher reads EOF.
    int execPipe[2];
    TRAQ_REQUIRE(::pipe2(inPipe, O_CLOEXEC) == 0,
                 "dispatcher: pipe() failed");
    if (::pipe2(outPipe, O_CLOEXEC) != 0) {
        ::close(inPipe[0]);
        ::close(inPipe[1]);
        TRAQ_FATAL("dispatcher: pipe() failed");
    }
    if (::pipe2(execPipe, O_CLOEXEC) != 0) {
        for (int fd : {inPipe[0], inPipe[1], outPipe[0], outPipe[1]})
            ::close(fd);
        TRAQ_FATAL("dispatcher: pipe() failed");
    }

    // Prebuild argv/envp before fork: with reader threads running,
    // the child may only touch async-signal-safe calls (dup2,
    // fcntl, execve, write, _exit).
    std::vector<std::string> argStore;
    argStore.push_back(opts_.servePath);
    for (const std::string &a : opts_.workerArgs)
        argStore.push_back(a);
    std::vector<char *> argv;
    for (std::string &a : argStore)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<std::string> envStore = childEnv(
        opts_.cacheFile.empty()
            ? std::string()
            : opts_.cacheFile + ".w" + std::to_string(slot));
    std::vector<char *> envp;
    for (std::string &e : envStore)
        envp.push_back(e.data());
    envp.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        for (int fd : {inPipe[0], inPipe[1], outPipe[0], outPipe[1],
                       execPipe[0], execPipe[1]})
            ::close(fd);
        TRAQ_FATAL("dispatcher: fork() failed");
    }
    if (pid == 0) {
        // With fd 0 closed in the dispatcher, pipe2 hands it out as
        // inPipe[0], and dup2 onto itself would keep FD_CLOEXEC.
        if (inPipe[0] == 0)
            ::fcntl(0, F_SETFD, 0);
        else
            ::dup2(inPipe[0], 0);
        ::dup2(outPipe[1], 1);
        ::execve(argv[0], argv.data(), envp.data());
        const int err = errno;
        [[maybe_unused]] const ssize_t n =
            ::write(execPipe[1], &err, sizeof err);
        _exit(127);
    }
    ::close(inPipe[0]);
    ::close(outPipe[1]);
    ::close(execPipe[1]);

    // A worker that cannot start is a configuration error, reported
    // here rather than as a worker death once requests flow.
    int execErr = 0;
    ssize_t got = 0;
    do
        got = ::read(execPipe[0], &execErr, sizeof execErr);
    while (got < 0 && errno == EINTR);
    ::close(execPipe[0]);
    if (got == static_cast<ssize_t>(sizeof execErr)) {
        ::close(inPipe[1]);
        ::close(outPipe[0]);
        ::waitpid(pid, nullptr, 0);
        TRAQ_FATAL("dispatcher: cannot execute worker '" +
                   opts_.servePath + "': " + std::strerror(execErr));
    }

    Worker &w = workers_[slot];
    w.pid = pid;
    w.stdinFd = inPipe[1];
    w.out = ::fdopen(outPipe[0], "r");
    if (w.out == nullptr) {
        ::close(outPipe[0]);
        TRAQ_FATAL("dispatcher: fdopen() failed");
    }
    w.alive = true;
    w.stdinOpen = true;
    w.reader = std::thread([this, slot] { readerMain(slot); });
}

Dispatcher::~Dispatcher()
{
    stopWorkers();
}

void
Dispatcher::stopWorkers()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        for (Worker &w : workers_)
            closeStdin(w);
    }
    for (Worker &w : workers_) {
        if (w.reader.joinable())
            w.reader.join();
        if (w.out != nullptr)
            std::fclose(w.out);
        if (w.pid > 0)
            ::waitpid(w.pid, nullptr, 0);
    }
}

void
Dispatcher::closeStdin(Worker &w)
{
    w.stdinOpen = false;
    // Closing the fd while another thread is blocked in writeAll()
    // on it would race: the writer could get EBADF or scribble on
    // an unrelated fd if the number is reused.  Defer the ::close
    // to sendToWorker(), which performs it after writeAll returns.
    if (!w.writing && w.stdinFd != -1) {
        ::close(w.stdinFd);
        w.stdinFd = -1;
    }
}

void
Dispatcher::releaseWorkersIfDone()
{
    // Until every submitted index is answered, every stdin stays
    // open — a drained worker is the retry target if a still-busy
    // one dies; closing it early (EOF, child exits) would strand
    // that requeue with no live shard.
    if (!closed_ || answered_ < submitted_ || !requeued_.empty())
        return;
    for (Worker &w : workers_)
        closeStdin(w);
}

void
Dispatcher::workerLost(std::size_t slot)
{
    Worker &w = workers_[slot];
    if (!w.alive)
        return;
    w.alive = false;
    closeStdin(w);
    // Requeue everything unacknowledged.  The map itself is kept:
    // results already buffered in the dead worker's pipe still
    // arrive through its reader, and need the local -> global
    // mapping; emitted_ dedup in the ack path keeps the output
    // exactly-once when both the late ack and the retry land.
    for (const auto &[local, job] : w.unacked) {
        if (job.index < emitted_.size() && emitted_[job.index])
            continue;
        requeued_.push_back(job);
    }
    resultCv_.notify_all();
    spaceCv_.notify_all();
}

void
Dispatcher::readerMain(std::size_t slot)
{
    Worker &w = workers_[slot];
    char *buf = nullptr;
    std::size_t cap = 0;
    ssize_t n;
    std::string violation;
    while ((n = ::getline(&buf, &cap, w.out)) > 0) {
        if (buf[n - 1] != '\n') {
            // Torn final line from a dying worker: unacknowledged
            // by definition, never parsed, never emitted — the
            // retry path owns it now.
            break;
        }
        // An exception escaping this thread would std::terminate
        // the process; a line that breaks the protocol loses the
        // worker instead.
        try {
            const wire::TaggedLine tagged =
                wire::splitTagged(std::string_view(
                    buf, static_cast<std::size_t>(n - 1)));
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = w.unacked.find(tagged.index);
            TRAQ_REQUIRE(it != w.unacked.end(),
                         "dispatcher: worker answered unknown line");
            const std::size_t global = it->second.index;
            w.unacked.erase(it);
            if (!emitted_[global]) {
                emitted_[global] = true;
                ++answered_;
                results_.push_back({global, tagged.payload});
            }
            resultCv_.notify_all();
            spaceCv_.notify_all();
        } catch (const FatalError &e) {
            violation = e.what();
            break;
        }
    }
    ::free(buf);
    std::lock_guard<std::mutex> lock(mutex_);
    if (!violation.empty()) {
        if (protocolError_.empty())
            protocolError_ = "worker " + std::to_string(slot) +
                             ": " + violation;
        // Nobody reads its stdout any more; left alive it could
        // block on a full pipe and never see stdin EOF.
        ::kill(w.pid, SIGKILL);
    }
    workerLost(slot);
}

bool
Dispatcher::sendToWorker(std::size_t slot, Job job,
                         std::unique_lock<std::mutex> &lock)
{
    Worker &w = workers_[slot];
    const std::size_t local = w.nextLocal++;
    w.unacked.emplace(local, job);
    const int fd = w.stdinFd;
    // The write happens without the lock: a full pipe must not
    // stall acknowledgement processing (that would deadlock against
    // a busy worker).  The unacked entry is registered first, so
    // the ack cannot race past the bookkeeping; the writing flag
    // keeps pickWorker() from choosing this worker while the lock
    // is down, so local indices are assigned in the exact order
    // lines reach the pipe, and keeps closeStdin() from closing
    // the fd under this write.
    w.writing = true;
    lock.unlock();
    const bool ok = writeAll(fd, job.line + "\n");
    lock.lock();
    w.writing = false;
    if (!w.stdinOpen && w.stdinFd != -1) {
        // closeStdin() wanted this fd gone mid-write; finish now.
        ::close(w.stdinFd);
        w.stdinFd = -1;
    }
    if (!ok && w.alive)
        workerLost(slot); // requeues this job with the rest
    // The worker is selectable again (or newly dead); both the
    // submit side and the drain side may be waiting to re-probe.
    spaceCv_.notify_all();
    resultCv_.notify_all();
    return ok;
}

std::size_t
Dispatcher::pickWorker()
{
    for (std::size_t probe = 0; probe < workers_.size(); ++probe) {
        const std::size_t slot = (rrNext_ + probe) % workers_.size();
        const Worker &w = workers_[slot];
        if (w.alive && w.stdinOpen && !w.writing &&
            w.unacked.size() < inflightBound_) {
            rrNext_ = (slot + 1) % workers_.size();
            return slot;
        }
    }
    return workers_.size();
}

void
Dispatcher::pumpRequeued(std::unique_lock<std::mutex> &lock)
{
    while (!requeued_.empty()) {
        const Job job = requeued_.front();
        if (job.index < emitted_.size() && emitted_[job.index]) {
            requeued_.pop_front();
            continue; // late ack beat the retry
        }
        const std::size_t slot = pickWorker();
        if (slot == workers_.size())
            return; // no capacity now; retried on the next wake
        requeued_.pop_front();
        sendToWorker(slot, job, lock);
    }
}

void
Dispatcher::submit(std::size_t index, const std::string &line)
{
    std::unique_lock<std::mutex> lock(mutex_);
    TRAQ_REQUIRE(!closed_, "dispatcher: submit after close");
    if (index >= emitted_.size())
        emitted_.resize(index + 1, false);
    ++submitted_;
    Job job{index, line};
    while (true) {
        pumpRequeued(lock);
        const std::size_t slot = pickWorker();
        if (slot < workers_.size()) {
            // Success or failure, this call is done with the job:
            // on success it is inflight; on failure the worker's
            // death requeued it (the unacked entry predates the
            // write) and pumpRequeued — on the next submit, or in
            // waitResult — drains it to a survivor.  Looping to
            // resend here would submit a second, moved-from copy.
            sendToWorker(slot, std::move(job), lock);
            return;
        }
        bool anyLive = false;
        for (const Worker &w : workers_)
            anyLive = anyLive || (w.alive && w.stdinOpen);
        if (!anyLive)
            failAllDead();
        spaceCv_.wait(lock);
    }
}

void
Dispatcher::closeSubmissions()
{
    std::unique_lock<std::mutex> lock(mutex_);
    closed_ = true;
    releaseWorkersIfDone();
    // A waitResult() that saw the last ack before closed_ was set
    // is parked on resultCv_ with nothing left to notify it.
    resultCv_.notify_all();
}

std::optional<DispatchResult>
Dispatcher::waitResult()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        pumpRequeued(lock);
        releaseWorkersIfDone();
        if (!results_.empty()) {
            DispatchResult r = std::move(results_.front());
            results_.pop_front();
            return r;
        }
        if (closed_ && answered_ == submitted_)
            return std::nullopt;
        bool anyLive = false;
        for (const Worker &w : workers_)
            anyLive = anyLive || w.alive;
        if (!anyLive && answered_ < submitted_)
            failAllDead();
        resultCv_.wait(lock);
    }
}

void
Dispatcher::failAllDead() const
{
    TRAQ_FATAL("dispatcher: every worker is dead with work "
               "outstanding" +
               (protocolError_.empty()
                    ? std::string()
                    : " (first protocol error: " + protocolError_ +
                          ")"));
}

unsigned
Dispatcher::liveWorkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    unsigned n = 0;
    for (const Worker &w : workers_)
        n += w.alive ? 1 : 0;
    return n;
}

std::vector<pid_t>
Dispatcher::workerPids() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<pid_t> pids;
    pids.reserve(workers_.size());
    for (const Worker &w : workers_)
        pids.push_back(w.alive ? w.pid : -1);
    return pids;
}

} // namespace traq::service
