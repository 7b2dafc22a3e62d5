/**
 * @file
 * Service front-end throughput bench: requests/second through the
 * JobService (src/service/job_service.hh) with a cold cache (every
 * request unique, all evaluated) versus a warm cache (the same
 * request set resubmitted, all served from the canonicalKey memo),
 * plus the JSON round-trip cost a line-delimited driver like
 * traq_serve pays per request, plus the persistent
 * content-addressed store (caching tier 3): a queue evaluating into
 * a cache file, then a fresh queue restarted against that file
 * serving the same traffic from the persistent tier alone.
 *
 * Machine-readable lines for scripts/perf_smoke.sh:
 *
 *     service-throughput[cold]: <req/s> req/s (...)
 *     service-throughput[warm]: <req/s> req/s (...)
 *     service-throughput[json]: <req/s> req/s (...)
 *     service-throughput[stream]: <req/s> req/s (...)
 *     stream-first-result: <ms> ms (...)
 *     service-throughput[cold-persist]: <req/s> req/s (...)
 *     service-throughput[warm-restart]: <req/s> req/s (...)
 *     warm-restart-speedup: <X.X>x (...)
 *
 * The request mix is the closed-form estimator kinds — the traffic a
 * resource-estimation service actually serves; the Monte-Carlo kinds
 * are benched by bench_sim_montecarlo.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "src/estimator/estimator.hh"
#include "src/service/job_service.hh"

namespace {

using namespace traq;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** A mixed-kind request list with all-distinct canonical keys. */
std::vector<est::EstimateRequest>
makeRequests(std::size_t n)
{
    std::vector<est::EstimateRequest> reqs;
    reqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double knob = 1.0 + static_cast<double>(i);
        switch (i % 3) {
          case 0:
            reqs.push_back(
                {"gidney-ekera",
                 {{"tReaction", 1e-5 * knob}}});
            break;
          case 1:
            reqs.push_back(
                {"idle-storage",
                 {{"distance", 11 + 2 * static_cast<double>(i % 13)},
                  {"sePeriod", 1e-4 * knob}}});
            break;
          default:
            reqs.push_back(
                {"factory-design",
                 {{"targetCczError", 1e-7 * knob}}});
            break;
        }
    }
    return reqs;
}

double
runPhase(service::JobService &queue,
         const std::vector<est::EstimateRequest> &reqs,
         const char *label)
{
    const auto start = Clock::now();
    queue.submitBatch(reqs);
    queue.drain();
    const double elapsed = secondsSince(start);
    const double rps = static_cast<double>(reqs.size()) / elapsed;
    const service::JobQueueStats stats = queue.stats();
    std::printf("service-throughput[%s]: %.0f req/s "
                "(%zu requests in %.3f s; totals: %zu evaluated, "
                "%zu cache hits, %u threads)\n",
                label, rps, reqs.size(), elapsed, stats.evaluated,
                stats.cacheHits, queue.threads());
    return rps;
}

} // namespace

int
main()
{
    const std::size_t n = 20000;
    const std::vector<est::EstimateRequest> reqs = makeRequests(n);

    service::JobService queue;
    // Cold: every canonical key is new, so all n are evaluated.
    runPhase(queue, reqs, "cold");
    // Warm: the same keys again — zero evaluations, pure cache.
    runPhase(queue, reqs, "warm");

    // JSON round-trip cost per request: what a line-delimited
    // driver pays on top of the queue (emit + parse back).
    {
        const auto start = Clock::now();
        std::size_t bytes = 0;
        for (const est::EstimateRequest &req : reqs) {
            const est::EstimateRequest back =
                est::requestFromJson(est::toJson(req));
            bytes += back.kind.size();
        }
        const double elapsed = secondsSince(start);
        std::printf("service-throughput[json]: %.0f req/s "
                    "(%zu emit+parse round-trips in %.3f s, "
                    "checksum %zu)\n",
                    static_cast<double>(n) / elapsed, n, elapsed,
                    bytes);
    }

    // Streaming completion phase (PR-10 service tier): a feeder
    // thread submits while the main thread drains waitCompleted()
    // in completion order — the traq_serve shape.  Two numbers: the
    // time a streaming client waits for the *first* announcement
    // (the read-all design paid the whole batch here) and the
    // completion-order throughput of the full stream.
    {
        service::JobService q;
        const auto start = Clock::now();
        std::thread feeder([&] {
            for (const est::EstimateRequest &req : reqs)
                q.submit(req);
            q.closeSubmissions();
        });
        double firstMs = -1.0;
        std::size_t seen = 0;
        while (q.waitCompleted()) {
            if (seen++ == 0)
                firstMs = secondsSince(start) * 1e3;
        }
        feeder.join();
        const double elapsed = secondsSince(start);
        std::printf("service-throughput[stream]: %.0f req/s "
                    "(%zu completions streamed in %.3f s, "
                    "cold cache)\n",
                    static_cast<double>(seen) / elapsed, seen,
                    elapsed);
        std::printf("stream-first-result: %.3f ms (submit to first "
                    "completion announcement)\n", firstMs);
    }

    // Persistent store (caching tier 3): a queue evaluating into a
    // cache file (cold + append cost), then a *fresh* queue opened
    // on that file — the restarted-worker scenario — serving the
    // identical request set from the persistent tier alone.  The
    // store is parsed once at construction, outside the timed
    // window, exactly as a restarted traq_serve pays it before
    // accepting traffic.
    {
        char path[] = "/tmp/traq_bench_castore_XXXXXX";
        const int fd = mkstemp(path);
        if (fd < 0) {
            std::fprintf(stderr, "mkstemp failed; skipping "
                                 "warm-restart phase\n");
            return 0;
        }
        close(fd);
        double coldPersist = 0.0;
        double warmRestart = 0.0;
        {
            service::JobQueueOptions o;
            o.cacheFile = path;
            service::JobService pq(o);
            coldPersist = runPhase(pq, reqs, "cold-persist");
        }  // destructor drains; every outcome is now on disk
        {
            service::JobQueueOptions o;
            o.cacheFile = path;
            service::JobService pq(o);
            // Untimed warmup pass (allocator + page state), then
            // eight timed passes over the set: a >100 ms
            // steady-state window so the ratio below is not at the
            // mercy of scheduler noise on a loaded single-core box
            // (perf_smoke runs this right after the long benches).
            pq.submitBatch(reqs);
            pq.drain();
            std::vector<est::EstimateRequest> reqsRep;
            reqsRep.reserve(8 * n);
            for (int rep = 0; rep < 8; ++rep)
                reqsRep.insert(reqsRep.end(), reqs.begin(),
                               reqs.end());
            warmRestart = runPhase(pq, reqsRep, "warm-restart");
            const service::JobQueueStats stats = pq.stats();
            const std::size_t want = n + reqsRep.size();
            if (stats.evaluated != 0 ||
                stats.persistentHits != want)
                std::printf("warm-restart ANOMALY: %zu evaluated, "
                            "%zu persistent hits (want 0 / %zu)\n",
                            stats.evaluated, stats.persistentHits,
                            want);
        }
        std::remove(path);
        std::printf("warm-restart-speedup: %.1fx (persistent store "
                    "vs cold evaluation; target >= 10x)\n",
                    coldPersist > 0 ? warmRestart / coldPersist
                                    : 0.0);
    }
    return 0;
}
