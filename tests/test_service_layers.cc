/**
 * @file
 * Tests for the layered service tier: the JobState machine (job.hh),
 * parse/validation structured errors (validation.hh), JobService
 * backpressure and completion streaming (job_service.hh), the wire
 * tag format (wire.hh), the CaStore single-writer lock, and the
 * multi-process dispatcher (dispatcher.hh) — including N-worker
 * --ordered byte-identity, the kill-a-worker retry path, workers
 * that break the line protocol, per-worker stores, worker counts
 * past the descriptor limit, worker paths that cannot be executed,
 * workers holding no pipe but their own and a dispatcher started
 * with stdin closed.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "src/common/assert.hh"
#include "src/common/castore.hh"
#include "src/common/serialize.hh"
#include "src/estimator/estimator.hh"
#include "src/service/dispatcher.hh"
#include "src/service/job_service.hh"
#include "src/service/validation.hh"
#include "src/service/wire.hh"

namespace traq {
namespace {

using service::JobState;

// ---------------------------------------------------------------
// Job state machine
// ---------------------------------------------------------------

TEST(JobStateMachine, LegalityTableIsExhaustive)
{
    const JobState all[] = {
        JobState::Submitted, JobState::Validated,
        JobState::Scheduled, JobState::Running,
        JobState::Done,      JobState::Failed,
    };
    ASSERT_EQ(static_cast<int>(std::size(all)),
              service::kJobStateCount);
    // The only legal transitions, spelled out; every other (from,
    // to) pair — including self-loops and exits from terminal
    // states — must be rejected.
    const std::set<std::pair<JobState, JobState>> legal = {
        {JobState::Submitted, JobState::Validated},
        {JobState::Submitted, JobState::Failed},
        {JobState::Validated, JobState::Scheduled},
        {JobState::Validated, JobState::Done},
        {JobState::Validated, JobState::Failed},
        {JobState::Scheduled, JobState::Running},
        {JobState::Running, JobState::Done},
        {JobState::Running, JobState::Failed},
    };
    for (const JobState from : all) {
        for (const JobState to : all) {
            EXPECT_EQ(service::jobStateCanStep(from, to),
                      legal.count({from, to}) == 1)
                << service::jobStateName(from) << " -> "
                << service::jobStateName(to);
        }
    }
    EXPECT_TRUE(service::jobStateTerminal(JobState::Done));
    EXPECT_TRUE(service::jobStateTerminal(JobState::Failed));
    EXPECT_FALSE(service::jobStateTerminal(JobState::Running));
}

TEST(JobStateMachine, StepEnforcesTheTable)
{
    service::JobStateMachine sm;
    EXPECT_EQ(sm.state(), JobState::Submitted);
    sm.step(JobState::Validated);
    sm.step(JobState::Scheduled);
    sm.step(JobState::Running);
    sm.step(JobState::Done);
    EXPECT_THROW(sm.step(JobState::Failed), FatalError);

    service::JobStateMachine bad;
    EXPECT_THROW(bad.step(JobState::Running), FatalError);
}

// ---------------------------------------------------------------
// Parse + validation structured errors
// ---------------------------------------------------------------

TEST(Validation, ParseclassifiesJsonVsShape)
{
    // Not JSON at all -> errc::json.
    for (const char *text : {"{", "tru", "1 2", "{\"a\":}"}) {
        const service::ParsedLine line =
            service::parseRequestLine(text);
        EXPECT_EQ(line.error.code, service::errc::json) << text;
        EXPECT_FALSE(line.error.message.empty()) << text;
        EXPECT_TRUE(line.requests.empty()) << text;
    }
    // Valid JSON, wrong shape for an EstimateRequest -> errc::shape
    // (the malformed-request table of test_service.cc, via the
    // parse layer; "[]" parses as an empty batch, not an error).
    for (const char *text :
         {"{}", "{\"kind\":\"\"}", "{\"kind\":42}",
          "{\"kind\":\"x\",\"bogus\":{}}",
          "{\"kind\":\"x\",\"params\":{\"p\":true}}",
          "{\"kind\":\"x\",\"params\":{\"p\":\"oops\"}}",
          "{\"kind\":\"x\",\"params\":[1]}",
          "[{\"kind\":\"factoring\"},{}]"}) {
        const service::ParsedLine line =
            service::parseRequestLine(text);
        EXPECT_EQ(line.error.code, service::errc::shape) << text;
        EXPECT_FALSE(line.error.message.empty()) << text;
        EXPECT_TRUE(line.requests.empty()) << text;
    }
    // Well-formed single and batch lines.
    EXPECT_TRUE(service::parseRequestLine(
                    "{\"kind\":\"factoring\"}")
                    .error.empty());
    const service::ParsedLine batch = service::parseRequestLine(
        "[{\"kind\":\"a\"},{\"kind\":\"b\"}]");
    EXPECT_TRUE(batch.error.empty());
    EXPECT_TRUE(batch.batch);
    ASSERT_EQ(batch.requests.size(), 2u);
    // Empty batch: legal, zero requests.
    const service::ParsedLine empty =
        service::parseRequestLine("[]");
    EXPECT_TRUE(empty.error.empty());
    EXPECT_TRUE(empty.batch);
    EXPECT_TRUE(empty.requests.empty());
}

TEST(Validation, KindAndParamErrorsAreStructured)
{
    auto pool = std::make_shared<service::EstimatorPool>();
    const service::Validator validator(pool, true);

    const service::Validated unknownKind =
        validator.validate({"no-such-kind", {}});
    EXPECT_FALSE(unknownKind.ok());
    EXPECT_EQ(unknownKind.error.code, service::errc::kind);
    EXPECT_NE(unknownKind.error.message.find(
                  "no estimator registered"),
              std::string::npos)
        << unknownKind.error.message;

    const service::Validated badParam =
        validator.validate({"factoring", {{"bogus", 1.0}}});
    EXPECT_FALSE(badParam.ok());
    EXPECT_EQ(badParam.error.code, service::errc::param);
    EXPECT_NE(badParam.error.message.find(
                  "unknown factoring parameter"),
              std::string::npos)
        << badParam.error.message;

    const service::Validated good =
        validator.validate({"gidney-ekera", {}});
    EXPECT_TRUE(good.ok());
    EXPECT_FALSE(good.key.empty());
}

TEST(Validation, CheckParamsCatchesEveryBuiltinKindStatically)
{
    // Every built-in estimator implements checkParams by running
    // its spec-application phase, so a misspelled parameter is a
    // validation error (errc::param) — not an evaluation error —
    // for all of them.
    auto pool = std::make_shared<service::EstimatorPool>();
    const service::Validator validator(pool, true);
    for (const std::string &kind :
         {"factoring", "chemistry", "gidney-ekera", "qldpc-storage",
          "factory-design", "idle-storage", "mc-logical-error",
          "mc-alpha"}) {
        const service::Validated v = validator.validate(
            {kind, {{"definitely-not-a-parameter", 1.0}}});
        EXPECT_FALSE(v.ok()) << kind;
        EXPECT_EQ(v.error.code, service::errc::param) << kind;
        EXPECT_NE(v.error.message.find(
                      "unknown " + kind +
                      " parameter 'definitely-not-a-parameter' "
                      "(known: "),
                  std::string::npos)
            << kind << ": " << v.error.message;
    }
}

/** The request must fail validation as a parameter error. */
void
expectParamError(const est::EstimateRequest &req)
{
    auto pool = std::make_shared<service::EstimatorPool>();
    const service::Validated v =
        service::Validator(pool, true).validate(req);
    EXPECT_FALSE(v.ok()) << est::toJson(req);
    EXPECT_EQ(v.error.code, service::errc::param)
        << est::toJson(req) << ": " << v.error.message;
}

// Values and names that must fail at admission: evaluated, each
// would come back as a plausible answer or fail only in a worker.

TEST(Validation, RejectsIntegerBeyondItsField)
{
    expectParamError({"factoring", {{"distance", 1e300}}});
}

TEST(Validation, RejectsNonFiniteInteger)
{
    expectParamError({"factory-design",
                      {{"forcedDistance",
                        std::numeric_limits<double>::quiet_NaN()}}});
}

TEST(Validation, RejectsGidneyEkeraDistanceBelowThree)
{
    expectParamError({"gidney-ekera", {{"distance", -5}}});
}

TEST(Validation, RejectsNegativeCnotLayers)
{
    expectParamError({"mc-logical-error", {{"cnotLayers", -2}}});
}

TEST(Validation, RejectsNegativeRounds)
{
    expectParamError({"mc-logical-error", {{"rounds", -1}}});
}

TEST(Validation, RejectsUnknownNoiseParameter)
{
    expectParamError(
        {"mc-logical-error", {{"noise.atom-loss.bogus", 0.1}}});
}

TEST(Validation, RejectsUnknownNoiseSource)
{
    expectParamError({"mc-logical-error", {{"noise.no-such.p", 0.1}}});
}

TEST(Validation, OutcomeCarriesTheErrorClass)
{
    service::JobService queue;
    const auto id = queue.submit({"no-such-kind", {}});
    const service::JobOutcome &out = queue.wait(id);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.errorCode, service::errc::kind);
    // The error code is service metadata: the wire JSON stays the
    // exact pre-split {"error":...} shape.
    EXPECT_EQ(out.toJson(),
              "{\"error\":" + jsonQuote(out.error) + "}");
}

// ---------------------------------------------------------------
// JobService backpressure and completion stream
// ---------------------------------------------------------------

/** Gate shared with the blocking test estimator. */
struct BlockGate
{
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;

    void release()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            open = true;
        }
        cv.notify_all();
    }

    void wait()
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return open; });
    }
};

BlockGate &
blockGate()
{
    static BlockGate gate;
    return gate;
}

/** Estimator that blocks until the gate opens; registered once. */
void
registerBlockingEstimator()
{
    static bool done = false;
    if (done)
        return;
    done = true;
    struct Blocking : est::Estimator
    {
        const char *kind() const override
        {
            return "test-blocking";
        }
        est::EstimateResult
        estimate(const est::EstimateRequest &req) const override
        {
            blockGate().wait();
            est::EstimateResult r;
            r.kind = kind();
            r.params = req.params;
            r.metrics["answer"] = req.params.at("i");
            return r;
        }
    };
    est::registerEstimator(
        "test-blocking",
        [] { return std::make_unique<Blocking>(); });
}

TEST(Scheduler, BoundedReadyQueueBlocksSubmitWithoutDeadlock)
{
    registerBlockingEstimator();
    service::JobQueueOptions opts;
    opts.threads = 1;
    opts.readyCapacity = 2;
    service::JobService queue(opts);

    constexpr std::size_t kJobs = 6;
    std::atomic<std::size_t> submitted{0};
    std::thread producer([&] {
        for (std::size_t i = 0; i < kJobs; ++i) {
            queue.submit({"test-blocking",
                          {{"i", static_cast<double>(i)}}});
            submitted.fetch_add(1);
        }
    });

    // With one (gated) worker and a ready bound of 2, at most
    // 1 running + 2 queued + 1 blocked-in-submit can have been
    // admitted; the producer must stall short of all six.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_LE(submitted.load(), 4u);
    EXPECT_LT(submitted.load(), kJobs);

    blockGate().release();
    producer.join();
    queue.drain();

    const service::JobQueueStats stats = queue.stats();
    EXPECT_EQ(stats.submitted, kJobs);
    EXPECT_EQ(stats.evaluated, kJobs);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_LE(stats.readyHighWater, 2u);
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_TRUE(queue.wait(i).ok) << i;
}

TEST(Scheduler, CompletionStreamAnnouncesEveryIdOnce)
{
    service::JobService queue;
    const std::vector<est::EstimateRequest> reqs = {
        {"gidney-ekera", {}},
        {"no-such-kind", {}},
        {"gidney-ekera", {}}, // cache hit on job 0
        {"idle-storage", {{"distance", 17}}},
    };
    std::set<service::JobId> seen;
    std::thread consumer([&] {
        while (const auto id = queue.waitCompleted())
            EXPECT_TRUE(seen.insert(*id).second) << *id;
    });
    queue.submitBatch(reqs);
    queue.closeSubmissions();
    consumer.join();
    EXPECT_EQ(seen.size(), reqs.size());
    EXPECT_EQ(*seen.rbegin(), reqs.size() - 1);
}

// ---------------------------------------------------------------
// Wire tag format
// ---------------------------------------------------------------

TEST(Wire, TagAndSplitAreInverses)
{
    const std::pair<std::size_t, const char *> cases[] = {
        {0, "{\"kind\":\"factoring\",\"metrics\":{\"x\":1}}"},
        {7, "{\"error\":\"no estimator registered\"}"},
        {12, "[{\"kind\":\"a\"},{\"kind\":\"b\"}]"},
        {3, "[]"},
        {42, "{}"},
    };
    for (const auto &[index, payload] : cases) {
        const std::string tagged =
            service::wire::tagLine(index, payload);
        EXPECT_EQ(tagged.find("{\"index\":" +
                              std::to_string(index)),
                  0u)
            << tagged;
        const service::wire::TaggedLine back =
            service::wire::splitTagged(tagged);
        EXPECT_EQ(back.index, index) << tagged;
        EXPECT_EQ(back.payload, payload) << tagged;
    }
}

TEST(Wire, SplitRejectsGarbageLoudly)
{
    for (const char *bad :
         {"", "{\"kind\":\"x\"}", "{\"index\":}", "{\"index\":x}",
          "plain text", "{\"index\":3x}"}) {
        EXPECT_THROW(service::wire::splitTagged(bad), FatalError)
            << bad;
    }
}

// ---------------------------------------------------------------
// CaStore single-writer lock
// ---------------------------------------------------------------

/** mkstemp-backed file deleted at scope exit. */
class TempFile
{
  public:
    TempFile()
    {
        char buf[] = "/tmp/traq_test_layers_XXXXXX";
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

TEST(CaStoreLock, SecondWriterFailsLoudly)
{
    TempFile file;
    {
        CaStore first;
        first.open(file.path());
        first.put("k", "{\"v\":1}");
        // A second writer on the same store — same process or
        // another one, flock covers both — must fail loudly, not
        // interleave appends.
        CaStore second;
        EXPECT_THROW(second.open(file.path()), FatalError);
    }
    // The lock dies with its holder: a sequential reopen (the
    // warm-restart path) works.
    CaStore again;
    again.open(file.path());
    std::string v;
    EXPECT_TRUE(again.get("k", v));
    EXPECT_EQ(v, "{\"v\":1}");
}

// ---------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------

/** Path to a sibling binary of the running test executable. */
std::string
buildSibling(const char *name)
{
    char buf[4096];
    const ssize_t n =
        readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    TRAQ_REQUIRE(n > 0, "readlink(/proc/self/exe) failed");
    std::string self(buf, static_cast<std::size_t>(n));
    return self.substr(0, self.rfind('/') + 1) + name;
}

/** The request lines and their expected ordered payloads. */
std::vector<std::pair<std::string, std::string>>
dispatchFixture()
{
    const std::vector<est::EstimateRequest> reqs = {
        {"gidney-ekera", {{"tReaction", 1e-3}}},
        {"idle-storage", {{"distance", 17}}},
        {"no-such-kind", {}},
        {"gidney-ekera", {{"tReaction", 2e-3}}},
        {"factory-design", {}},
        {"gidney-ekera", {{"tReaction", 1e-3}}}, // duplicate
    };
    std::vector<std::pair<std::string, std::string>> fixture;
    for (const est::EstimateRequest &req : reqs) {
        std::string expected;
        try {
            expected = est::toJson(
                est::makeEstimator(req.kind)->estimate(req));
        } catch (const FatalError &e) {
            expected = "{\"error\":" +
                       jsonQuote(std::string(e.what())) + "}";
        }
        fixture.emplace_back(est::toJson(req),
                             std::move(expected));
    }
    // One malformed line exercises the per-worker parse error
    // path end to end.
    fixture.emplace_back(
        "{\"kind\":42}",
        "{\"error\":" +
            jsonQuote(service::parseRequestLine("{\"kind\":42}")
                          .error.message) +
            "}");
    return fixture;
}

/** Run the fixture through a dispatcher; payloads by index. */
std::map<std::size_t, std::string>
runDispatch(service::Dispatcher &dispatcher,
            const std::vector<std::pair<std::string, std::string>>
                &fixture)
{
    std::map<std::size_t, std::string> got;
    std::thread consumer([&] {
        while (const auto r = dispatcher.waitResult())
            EXPECT_TRUE(
                got.emplace(r->index, r->payload).second)
                << "duplicate result for index " << r->index;
    });
    for (std::size_t i = 0; i < fixture.size(); ++i)
        dispatcher.submit(i, fixture[i].first);
    dispatcher.closeSubmissions();
    consumer.join();
    return got;
}

TEST(Dispatcher, NWorkerOutputMatchesSingleServeByteForByte)
{
    const auto fixture = dispatchFixture();
    for (const unsigned workers : {1u, 2u, 4u}) {
        SCOPED_TRACE(workers);
        service::DispatcherOptions opts;
        opts.servePath = buildSibling("traq_serve");
        opts.workers = workers;
        opts.inflight = 4;
        opts.workerArgs = {"--threads", "2"};
        service::Dispatcher dispatcher(opts);
        const auto got = runDispatch(dispatcher, fixture);
        ASSERT_EQ(got.size(), fixture.size());
        for (std::size_t i = 0; i < fixture.size(); ++i)
            EXPECT_EQ(got.at(i), fixture[i].second) << i;
    }
}

TEST(Dispatcher, KilledWorkerLosesAndDuplicatesNothing)
{
    const auto fixture = dispatchFixture();
    service::DispatcherOptions opts;
    opts.servePath = buildSibling("traq_serve");
    opts.workers = 2;
    opts.inflight = 4;
    service::Dispatcher dispatcher(opts);

    std::map<std::size_t, std::string> got;
    std::mutex gotMu;
    std::thread consumer([&] {
        while (const auto r = dispatcher.waitResult()) {
            std::lock_guard<std::mutex> lock(gotMu);
            EXPECT_TRUE(
                got.emplace(r->index, r->payload).second)
                << "duplicate result for index " << r->index;
        }
    });

    // First wave, then SIGKILL one worker while its answers may
    // still be anywhere between unsent, inflight, and acked; the
    // exactly-once contract must hold regardless of where the kill
    // lands.
    std::size_t index = 0;
    for (std::size_t i = 0; i < fixture.size(); ++i)
        dispatcher.submit(index++, fixture[i].first);
    const std::vector<pid_t> pids = dispatcher.workerPids();
    ASSERT_EQ(pids.size(), 2u);
    if (pids[0] > 0)
        kill(pids[0], SIGKILL);
    // Second wave lands after (or while) the worker dies: the
    // survivor absorbs both the requeues and the new lines.
    for (std::size_t i = 0; i < fixture.size(); ++i)
        dispatcher.submit(index++, fixture[i].first);
    dispatcher.closeSubmissions();
    consumer.join();

    EXPECT_LE(dispatcher.liveWorkers(), 1u);
    ASSERT_EQ(got.size(), 2 * fixture.size());
    for (std::size_t i = 0; i < 2 * fixture.size(); ++i) {
        ASSERT_TRUE(got.count(i)) << "lost index " << i;
        EXPECT_EQ(got.at(i), fixture[i % fixture.size()].second)
            << i;
    }
}

TEST(Dispatcher, DrainedWorkerAbsorbsDeathAfterCloseSubmissions)
{
    // One slow Monte-Carlo request pins worker 0 (~1.3 s) while
    // worker 1 sits idle.  After closeSubmissions(), idle workers'
    // stdins must stay open until every submitted index is
    // answered: killing the busy worker mid-run has to requeue its
    // job onto the drained-but-live worker 1.  Releasing idle
    // stdins at close time instead lets worker 1 exit on EOF, and
    // the requeue then finds no live shard — a fatal "every worker
    // is dead with work outstanding" despite a healthy survivor.
    service::DispatcherOptions opts;
    opts.servePath = buildSibling("traq_serve");
    opts.workers = 2;
    opts.inflight = 4;
    service::Dispatcher dispatcher(opts);

    const std::string slow =
        "{\"kind\":\"mc-logical-error\",\"params\":"
        "{\"distance\":5,\"shots\":100000,\"seed\":7}}";
    dispatcher.submit(0, slow); // round-robin starts at worker 0
    dispatcher.closeSubmissions();

    // Let the line reach worker 0 and start evaluating, then kill
    // it mid-run.  (If the job somehow finishes first, the result
    // was already acknowledged and the test still must pass — the
    // kill then just exercises the idle-death path.)
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const std::vector<pid_t> pids = dispatcher.workerPids();
    ASSERT_EQ(pids.size(), 2u);
    if (pids[0] > 0)
        kill(pids[0], SIGKILL);

    std::map<std::size_t, std::string> got;
    while (const auto r = dispatcher.waitResult())
        EXPECT_TRUE(got.emplace(r->index, r->payload).second)
            << "duplicate result for index " << r->index;
    ASSERT_EQ(got.size(), 1u);
    ASSERT_TRUE(got.count(0));
    EXPECT_NE(got.at(0).find("\"feasible\":true"),
              std::string::npos)
        << got.at(0);
}

TEST(Dispatcher, ProtocolViolatingWorkersFailLoudlyWithoutAborting)
{
    // /bin/cat echoes each request line back untagged, so every
    // answer breaks the line protocol.  The reader must not let the
    // parse error escape its thread (std::terminate): each worker is
    // killed and lost, its job requeued onto the other, and once no
    // worker is left the drain fails loudly, naming the first
    // violation.
    service::DispatcherOptions opts;
    opts.servePath = "/bin/cat";
    opts.workers = 2;
    service::Dispatcher dispatcher(opts);
    dispatcher.submit(0, "{\"kind\":\"gidney-ekera\"}");
    dispatcher.closeSubmissions();
    try {
        dispatcher.waitResult();
        ADD_FAILURE() << "a protocol-breaking worker gave a result";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("missing index tag"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(dispatcher.liveWorkers(), 0u);
}

TEST(Dispatcher, UnexecutableServePathFailsLoudly)
{
    // A worker binary that cannot be executed is a configuration
    // error: the constructor must say so, naming the path and the
    // errno text, instead of handing back a dispatcher whose workers
    // are all dead (which looked like an empty, successful run or
    // an anonymous "every worker is dead").  A missing file and a
    // file without execute permission (mkstemp creates it 0600).
    TempFile plain;
    const std::pair<std::string, std::string> cases[] = {
        {"/nonexistent-traq-serve", std::strerror(ENOENT)},
        {plain.path(), std::strerror(EACCES)},
    };
    for (const auto &[path, reason] : cases) {
        service::DispatcherOptions opts;
        opts.servePath = path;
        opts.workers = 2;
        std::string message;
        try {
            service::Dispatcher dispatcher(opts);
        } catch (const FatalError &e) {
            message = e.what();
        }
        EXPECT_NE(message.find("cannot execute worker '" + path + "'"),
                  std::string::npos)
            << "'" << message << "'";
        EXPECT_NE(message.find(reason), std::string::npos)
            << "'" << message << "'";
    }
}

TEST(Dispatcher, CacheFileGivesEachWorkerItsOwnStore)
{
    // Stores are single-writer: cacheFile PATH must reach worker K
    // as PATH.wK, replacing a TRAQ_CACHE_FILE inherited from the
    // parent, which would point every worker at one store.
    TempFile base;
    const std::string inherited = base.path() + ".env";
    ASSERT_EQ(setenv("TRAQ_CACHE_FILE", inherited.c_str(), 1), 0);
    {
        service::DispatcherOptions opts;
        opts.servePath = buildSibling("traq_serve");
        opts.workers = 2;
        opts.cacheFile = base.path();
        service::Dispatcher dispatcher(opts);
        const auto fixture = dispatchFixture();
        EXPECT_EQ(runDispatch(dispatcher, fixture).size(),
                  fixture.size());
    }
    ASSERT_EQ(unsetenv("TRAQ_CACHE_FILE"), 0);
    for (const char *suffix : {".w0", ".w1"}) {
        const std::string store = base.path() + suffix;
        EXPECT_EQ(access(store.c_str(), F_OK), 0) << store;
        std::remove(store.c_str());
    }
    EXPECT_NE(access(inherited.c_str(), F_OK), 0);
    std::remove(inherited.c_str());
}

/** Link targets of a process's open descriptors, by number. */
std::map<int, std::string>
openFds(pid_t pid)
{
    std::map<int, std::string> fds;
    for (const auto &entry : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(pid) + "/fd")) {
        char buf[256];
        const ssize_t n =
            readlink(entry.path().c_str(), buf, sizeof buf);
        if (n > 0)
            fds[std::stoi(entry.path().filename())] =
                std::string(buf, static_cast<std::size_t>(n));
    }
    return fds;
}

TEST(Dispatcher, WorkersDoNotInheritEachOthersPipes)
{
    // A worker holding an earlier worker's pipe ends keeps that
    // worker's stdin from reaching EOF until it exits itself.  Both
    // ends of a pipe link to the same "pipe:[inode]", so no worker
    // may hold a pipe that another worker has as fd 0 or 1.
    service::DispatcherOptions opts;
    opts.servePath = buildSibling("traq_serve");
    opts.workers = 3;
    service::Dispatcher dispatcher(opts);
    const std::vector<pid_t> pids = dispatcher.workerPids();
    ASSERT_EQ(pids.size(), 3u);
    std::vector<std::map<int, std::string>> fds;
    std::map<std::string, std::size_t> stdioOwner;
    for (std::size_t k = 0; k < pids.size(); ++k) {
        ASSERT_GT(pids[k], 0);
        fds.push_back(openFds(pids[k]));
        for (const int fd : {0, 1}) {
            const std::string &link = fds[k][fd];
            ASSERT_EQ(link.rfind("pipe:", 0), 0u)
                << "worker " << k << " fd " << fd << ": " << link;
            stdioOwner.emplace(link, k);
        }
    }
    for (std::size_t k = 0; k < fds.size(); ++k)
        for (const auto &[fd, link] : fds[k]) {
            const auto it = stdioOwner.find(link);
            if (it != stdioOwner.end())
                EXPECT_EQ(it->second, k)
                    << "worker " << k << " fd " << fd << " holds "
                    << link << ", a stdio pipe of worker "
                    << it->second;
        }
}

TEST(Dispatcher, ServesFromAProcessWithStdinClosed)
{
    // With fd 0 closed here, the worker's stdin pipe is created as
    // fd 0 itself, and the child must still keep it across exec.
    const int saved = fcntl(0, F_DUPFD_CLOEXEC, 3);
    struct Restore
    {
        int fd;
        ~Restore()
        {
            if (fd >= 0) {
                dup2(fd, 0);
                close(fd);
            }
        }
    } restore{saved};
    close(0);
    service::DispatcherOptions opts;
    opts.servePath = buildSibling("traq_serve");
    opts.workers = 1;
    const auto fixture = dispatchFixture();
    std::map<std::size_t, std::string> got;
    try {
        service::Dispatcher dispatcher(opts);
        for (std::size_t i = 0; i < fixture.size(); ++i)
            dispatcher.submit(i, fixture[i].first);
        dispatcher.closeSubmissions();
        while (const auto r = dispatcher.waitResult())
            got.emplace(r->index, r->payload);
    } catch (const FatalError &e) {
        ADD_FAILURE() << e.what();
    }
    ASSERT_EQ(got.size(), fixture.size());
    for (std::size_t i = 0; i < fixture.size(); ++i)
        EXPECT_EQ(got.at(i), fixture[i].second) << i;
}

TEST(Dispatcher, RejectsWorkerCountsPastTheDescriptorLimit)
{
    // Each worker holds two pipe ends in the dispatcher, so with a
    // soft limit of 64 descriptors anything above 32 workers must be
    // refused before the worker table is sized or anything spawns.
    rlimit saved{};
    ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
    if (saved.rlim_max != RLIM_INFINITY && saved.rlim_max < 64)
        GTEST_SKIP() << "hard RLIMIT_NOFILE below 64";
    rlimit lowered = saved;
    lowered.rlim_cur = 64;
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &lowered), 0);
    struct Restore
    {
        const rlimit &limit;
        ~Restore() { setrlimit(RLIMIT_NOFILE, &limit); }
    } restore{saved};

    // 40 first: a missing check fails it at pipe() with another
    // message, and the ASSERT then keeps UINT_MAX from sizing four
    // billion workers.
    for (const unsigned workers :
         {40u, std::numeric_limits<unsigned>::max()}) {
        service::DispatcherOptions opts;
        opts.servePath = "/nonexistent";
        opts.workers = workers;
        std::string message;
        try {
            service::Dispatcher dispatcher(opts);
        } catch (const FatalError &e) {
            message = e.what();
        }
        ASSERT_NE(message.find("RLIMIT_NOFILE of 64"),
                  std::string::npos)
            << workers << " workers: '" << message << "'";
        EXPECT_NE(message.find(std::to_string(workers) + " workers"),
                  std::string::npos)
            << message;
    }
}

} // namespace
} // namespace traq
