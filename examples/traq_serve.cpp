/**
 * @file
 * Line-delimited JSON estimate server: the shell-scriptable face of
 * the layered service tier (src/service/job_service.hh).
 *
 * Reads one EstimateRequest JSON object — or a batch as a JSON array
 * of objects — per stdin line and schedules everything on a
 * JobService as it reads: there is no read-everything phase, so the
 * first result appears while later requests are still being typed
 * (or piped).  Blank lines and #-comment lines are skipped.
 *
 * Two output modes, both line-buffered (each result line is flushed
 * as it is written):
 *
 *  - streaming (default): one line per input line in *completion*
 *    order, tagged with the input-line ordinal (wire.hh):
 *    {"index":N,...} for objects, {"index":N,"batch":[...]} for
 *    batch lines.  This is the mode the traq_dispatch sharder
 *    consumes.
 *  - --ordered: one line per input line in *input* order with the
 *    classic untagged payloads — the result object (est::toJson),
 *    an array of result objects, or {"error":"..."}.  Because
 *    outcomes are read back in submission order and estimators are
 *    deterministic, --ordered stdout is byte-identical for any
 *    --threads value (CI diffs exactly that).
 *
 *     $ echo '{"kind":"factoring","params":{"rsep":256}}' \
 *           | ./build/traq_serve --threads 4 --ordered
 *
 * Queue statistics (jobs, evaluations, cache hits, failures) go to
 * stderr, and only after stdout has been flushed and closed, so
 * stdout stays machine-consumable and a downstream consumer sees
 * end-of-results before any diagnostics exist.
 *
 * stdin is read with C stdio synchronisation off.  Synced, libstdc++
 * reads std::cin through a locked getc (plus an ungetc) per byte,
 * about 40% of the CPU a closed-form request costs (24.9 -> 14.0 us
 * on a 4-vCPU VM).  Unsynced, it reads blocks, and getline still
 * returns each line as soon as its newline arrives.  All output goes
 * through fwrite/fprintf, never iostreams, so no output byte or
 * flush moves.
 */

#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/assert.hh"
#include "src/common/serialize.hh"
#include "src/common/strings.hh"
#include "src/service/job_service.hh"
#include "src/service/validation.hh"
#include "src/service/wire.hh"

namespace {

using traq::service::JobService;

/** One accepted stdin line: an error, a single job, or a batch. */
struct Line
{
    std::size_t index = 0; //!< non-skipped input-line ordinal
    bool batch = false;
    std::vector<JobService::JobId> ids;
    std::size_t remaining = 0; //!< jobs not yet completed
    std::string error; //!< non-empty: the line never enqueued
};

/** Ordered-mode payload for a finished line (no tag, no newline). */
std::string
linePayload(JobService &queue, const Line &line)
{
    if (!line.error.empty())
        return "{\"error\":" + traq::jsonQuote(line.error) + "}";
    if (line.batch) {
        std::string out = "[";
        for (std::size_t i = 0; i < line.ids.size(); ++i) {
            if (i)
                out += ',';
            out += queue.wait(line.ids[i]).toJson();
        }
        out += ']';
        return out;
    }
    return queue.wait(line.ids[0]).toJson();
}

/** Write one output line and flush it (line-buffered contract).
 *  One fwrite per line so concurrent emitters never interleave. */
void
emitLine(std::string payload)
{
    payload += '\n';
    std::fwrite(payload.data(), 1, payload.size(), stdout);
    std::fflush(stdout);
}

int
usage(const char *argv0, int code)
{
    std::fprintf(
        stderr,
        "usage: %s [--threads N] [--cache on|off] "
        "[--cache-file PATH] [--ordered]\n"
        "  Reads one EstimateRequest JSON object (or an array of\n"
        "  them) per stdin line; streams one result line per input\n"
        "  line to stdout in completion order, tagged with the\n"
        "  input-line index.  --ordered emits untagged lines in\n"
        "  input order instead (byte-identical for any --threads).\n"
        "  Stats go to stderr after the output stream closes.\n"
        "  --cache-file persists the result cache across restarts\n"
        "  (append-only checksummed store; TRAQ_CACHE_FILE is the\n"
        "  env equivalent).\n",
        argv0);
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    // Synced std::cin reads through a locked getc per byte.
    std::ios::sync_with_stdio(false);
    traq::service::JobQueueOptions opts;
    bool ordered = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        auto eq = arg.find('=');
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if ((arg == "--threads" || arg == "--cache" ||
                    arg == "--cache-file") &&
                   i + 1 < argc) {
            value = argv[++i];
        }
        if (arg == "--threads") {
            // Full-consumption parse: "4x" or "1e1" must be a usage
            // error, not a silently truncated thread count.
            unsigned n = 0;
            auto [ptr, ec] = std::from_chars(
                value.data(), value.data() + value.size(), n);
            if (ec != std::errc() ||
                ptr != value.data() + value.size() || n == 0)
                return usage(argv[0], 2);
            opts.threads = n;
        } else if (arg == "--cache") {
            if (value == "on")
                opts.cache = true;
            else if (value == "off")
                opts.cache = false;
            else
                return usage(argv[0], 2);
        } else if (arg == "--cache-file") {
            if (value.empty())
                return usage(argv[0], 2);
            opts.cacheFile = value;
        } else if (arg == "--ordered") {
            ordered = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else {
            return usage(argv[0], 2);
        }
    }

    JobService queue(opts);

    // Emitter state shared between the reader (main) thread and the
    // emitter thread.  Ordered mode: a FIFO of lines, emitted
    // front-to-back with blocking waits.  Streaming mode: a job ->
    // line map; a line is emitted when its last job is announced by
    // waitCompleted().  Parse-error and empty-batch lines have no
    // jobs and are emitted directly by the reader (they are already
    // terminal; streaming order across sources is unspecified).
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::shared_ptr<Line>> fifo;
    std::unordered_map<JobService::JobId, std::shared_ptr<Line>>
        byJob;
    bool eof = false;

    std::thread emitter;
    if (ordered) {
        emitter = std::thread([&] {
            while (true) {
                std::shared_ptr<Line> line;
                {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock,
                            [&] { return eof || !fifo.empty(); });
                    if (fifo.empty())
                        return;
                    line = fifo.front();
                    fifo.pop_front();
                }
                emitLine(linePayload(queue, *line));
            }
        });
    } else {
        emitter = std::thread([&] {
            while (const std::optional<JobService::JobId> id =
                       queue.waitCompleted()) {
                std::shared_ptr<Line> line;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    auto it = byJob.find(*id);
                    TRAQ_REQUIRE(it != byJob.end(),
                                 "completion for unknown job");
                    line = it->second;
                    byJob.erase(it);
                    if (--line->remaining)
                        continue;
                }
                emitLine(traq::service::wire::tagLine(
                    line->index, linePayload(queue, *line)));
            }
        });
    }

    std::size_t nextIndex = 0;
    std::string raw;
    while (std::getline(std::cin, raw)) {
        const std::string_view text = traq::trim(raw);
        if (text.empty() || text[0] == '#')
            continue;
        auto line = std::make_shared<Line>();
        line->index = nextIndex++;
        const traq::service::ParsedLine parsed =
            traq::service::parseRequestLine(text);
        if (!parsed.error.empty())
            line->error = parsed.error.message;
        line->batch = parsed.batch;
        if (ordered) {
            for (const traq::est::EstimateRequest &req :
                 parsed.requests)
                line->ids.push_back(queue.submit(req));
            std::lock_guard<std::mutex> lock(mu);
            fifo.push_back(std::move(line));
            cv.notify_one();
        } else {
            // Map the ids under the lock *as they are handed out*,
            // so a completion announced between submit and mapping
            // cannot race past the emitter.  The emitter only
            // blocks on mu briefly, never on this thread, so
            // holding mu across a backpressure-blocked submit is
            // deadlock-free (workers drain without mu).
            std::unique_lock<std::mutex> lock(mu);
            for (const traq::est::EstimateRequest &req :
                 parsed.requests) {
                const JobService::JobId id = queue.submit(req);
                line->ids.push_back(id);
                byJob.emplace(id, line);
            }
            line->remaining = line->ids.size();
            if (line->remaining == 0) {
                // No jobs to wait for (parse error or empty
                // batch): terminal now, emit from the reader.
                lock.unlock();
                emitLine(traq::service::wire::tagLine(
                    line->index, linePayload(queue, *line)));
            }
        }
    }
    if (ordered) {
        {
            std::lock_guard<std::mutex> lock(mu);
            eof = true;
        }
        cv.notify_all();
    } else {
        queue.closeSubmissions();
    }
    emitter.join();

    // Close the result stream before any diagnostics: a consumer
    // must see end-of-results strictly before stats exist.
    std::fflush(stdout);
    std::fclose(stdout);

    const traq::service::JobQueueStats stats = queue.stats();
    std::fprintf(stderr,
                 "traq_serve: %zu jobs, %zu evaluated, %zu cache "
                 "hits, %zu persistent hits, %zu failed, %u "
                 "threads\n",
                 stats.submitted, stats.evaluated, stats.cacheHits,
                 stats.persistentHits, stats.failed,
                 queue.threads());
    return 0;
}
