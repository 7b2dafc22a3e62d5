/**
 * @file
 * Multi-worker estimate sharder: traq_serve, horizontally.
 *
 * Reads the same line-delimited request stream traq_serve does and
 * shards it across N traq_serve subprocesses (src/service/
 * dispatcher.hh): round-robin over live workers, a bounded
 * per-worker inflight window for backpressure, requeue-on-worker-
 * loss with exactly-once output (index dedup).  A worker that
 * breaks the line protocol is lost like a dead one; with no worker
 * left, traq_dispatch exits 1 naming the first violation.  Output
 * mirrors traq_serve's two modes:
 *
 *  - streaming (default): tagged {"index":N,...} lines in arrival
 *    order, N being the global input-line ordinal;
 *  - --ordered: untagged lines in input order — byte-identical to
 *    a single `traq_serve --ordered` over the same stream, for any
 *    --workers count (CI diffs exactly that).
 *
 * Worker knobs (--threads, --cache) are forwarded verbatim.  A
 * persistent cache file is per-worker: stores are single-writer
 * (common/castore.hh flocks them), so --cache-file PATH — or an
 * inherited TRAQ_CACHE_FILE — becomes PATH.w0, PATH.w1, ... one
 * store per worker, never one store shared by two processes.
 *
 * Environment: TRAQ_DISPATCH_WORKERS and TRAQ_DISPATCH_INFLIGHT
 * default --workers / --inflight; malformed values fail loudly.
 *
 * stdin is read with C stdio synchronisation off, as in traq_serve:
 * synced std::cin makes a locked getc per byte, and this one reader
 * feeds every worker, so it capped the rate at which added workers
 * could help.  Output goes through fwrite/fprintf only.
 *
 *     $ ./build/traq_dispatch --workers 4 --ordered \
 *           < tests/data/service_requests.jsonl
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits.h>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "src/common/assert.hh"
#include "src/common/castore.hh"
#include "src/common/strings.hh"
#include "src/service/dispatcher.hh"
#include "src/service/wire.hh"

namespace {

int
usage(const char *argv0, int code)
{
    std::fprintf(
        stderr,
        "usage: %s [--workers N] [--inflight M] [--threads N]\n"
        "       [--cache on|off] [--cache-file PATH] [--ordered]\n"
        "       [--serve PATH]\n"
        "  Shards one request line per stdin line across N\n"
        "  traq_serve worker processes.  Default output is tagged\n"
        "  {\"index\":N,...} lines in arrival order; --ordered\n"
        "  emits untagged lines in input order, byte-identical to\n"
        "  a single traq_serve --ordered run.  --cache-file PATH\n"
        "  gives worker K the store PATH.wK (stores are\n"
        "  single-writer).  TRAQ_DISPATCH_WORKERS and\n"
        "  TRAQ_DISPATCH_INFLIGHT default --workers/--inflight.\n",
        argv0);
    return code;
}

/** Full-consumption unsigned parse; false on any malformed text. */
bool
parseUnsigned(const std::string &value, unsigned long &out)
{
    const auto [ptr, ec] = std::from_chars(
        value.data(), value.data() + value.size(), out);
    return ec == std::errc() &&
           ptr == value.data() + value.size();
}

/** Largest --workers / TRAQ_DISPATCH_WORKERS value:
 *  DispatcherOptions::workers is an unsigned, and a larger count
 *  must not wrap into it. */
constexpr unsigned long kMaxWorkers =
    std::numeric_limits<unsigned>::max();

/** Env-var count knob: unset -> fallback; malformed, zero or above
 *  max -> fatal. */
unsigned long
envUnsigned(const char *name, unsigned long fallback,
            unsigned long max = std::numeric_limits<unsigned long>::max())
{
    const char *raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0')
        return fallback;
    unsigned long v = 0;
    if (!parseUnsigned(raw, v) || v == 0 || v > max)
        TRAQ_FATAL(std::string(name) + " must be a positive "
                   "integer, got '" + raw + "'");
    return v;
}

/** Sibling of this executable, for the default traq_serve path. */
std::string
siblingPath(const char *name)
{
    char buf[PATH_MAX];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return name; // fall back to PATH lookup semantics of execve
    std::string self(buf, static_cast<std::size_t>(n));
    const auto slash = self.rfind('/');
    return self.substr(0, slash + 1) + name;
}

} // namespace

int
main(int argc, char **argv)
{
    // Synced std::cin reads through a locked getc per byte.
    std::ios::sync_with_stdio(false);
    unsigned long workerCount = 0;
    unsigned long inflight = 0;
    bool ordered = false;
    bool cacheOn = true;
    std::string cacheFile;
    std::string servePath;
    std::vector<std::string> forwarded;
    try {
        workerCount =
            envUnsigned("TRAQ_DISPATCH_WORKERS", 2, kMaxWorkers);
        inflight = envUnsigned("TRAQ_DISPATCH_INFLIGHT", 32);
    } catch (const traq::FatalError &e) {
        std::fprintf(stderr, "traq_dispatch: %s\n", e.what());
        return 2;
    }
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        auto eq = arg.find('=');
        const bool wantsValue =
            arg == "--workers" || arg == "--inflight" ||
            arg == "--threads" || arg == "--cache" ||
            arg == "--cache-file" || arg == "--serve";
        if (eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (wantsValue && i + 1 < argc) {
            value = argv[++i];
        }
        if (arg == "--workers" || arg == "--inflight") {
            unsigned long n = 0;
            if (!parseUnsigned(value, n) || n == 0 ||
                (arg == "--workers" && n > kMaxWorkers))
                return usage(argv[0], 2);
            (arg == "--workers" ? workerCount : inflight) = n;
        } else if (arg == "--threads") {
            unsigned long n = 0;
            if (!parseUnsigned(value, n) || n == 0)
                return usage(argv[0], 2);
            forwarded.push_back("--threads");
            forwarded.push_back(value);
        } else if (arg == "--cache") {
            if (value != "on" && value != "off")
                return usage(argv[0], 2);
            cacheOn = value == "on";
            forwarded.push_back("--cache");
            forwarded.push_back(value);
        } else if (arg == "--cache-file") {
            if (value.empty())
                return usage(argv[0], 2);
            cacheFile = value;
        } else if (arg == "--serve") {
            if (value.empty())
                return usage(argv[0], 2);
            servePath = value;
        } else if (arg == "--ordered") {
            ordered = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else {
            return usage(argv[0], 2);
        }
    }

    // Same contradiction check JobService makes, before any
    // worker spawns: a cache file (flag or TRAQ_CACHE_FILE env)
    // with the result cache off is a configuration lie.
    const std::string resolvedCache =
        traq::resolveCacheFile(cacheFile);
    if (!resolvedCache.empty() && !cacheOn) {
        std::fprintf(stderr,
                     "traq_dispatch: a cache file requires the "
                     "result cache (the store is its disk form; "
                     "refusing to silently ignore the path)\n");
        return 2;
    }

    traq::service::DispatcherOptions opts;
    opts.servePath =
        servePath.empty() ? siblingPath("traq_serve") : servePath;
    opts.workers = static_cast<unsigned>(workerCount);
    opts.inflight = inflight;
    opts.workerArgs = forwarded;
    opts.cacheFile = resolvedCache;

    std::size_t submitted = 0;
    int exitCode = 0;
    {
        // Built inside the handler, so a worker count past the
        // descriptor limit, or a worker that cannot be spawned
        // (pipe, fork, fdopen), fails loudly, not by abort.
        std::optional<traq::service::Dispatcher> dispatcher;
        try {
            dispatcher.emplace(opts);
        } catch (const traq::FatalError &e) {
            std::fprintf(stderr, "traq_dispatch: %s\n", e.what());
            return 1;
        }

        // Emitter: drain merged results concurrently with reading
        // stdin, so worker backpressure never deadlocks against an
        // unconsumed output stream.  Ordered mode holds a reorder
        // buffer bounded by workers x inflight.
        std::thread emitter([&] {
            try {
                std::size_t next = 0;
                std::map<std::size_t, std::string> hold;
                while (auto r = dispatcher->waitResult()) {
                    if (!ordered) {
                        std::string out =
                            traq::service::wire::tagLine(
                                r->index, r->payload) +
                            "\n";
                        std::fwrite(out.data(), 1, out.size(),
                                    stdout);
                        std::fflush(stdout);
                        continue;
                    }
                    hold.emplace(r->index,
                                 std::move(r->payload));
                    while (!hold.empty() &&
                           hold.begin()->first == next) {
                        std::string out =
                            std::move(hold.begin()->second) + "\n";
                        std::fwrite(out.data(), 1, out.size(),
                                    stdout);
                        std::fflush(stdout);
                        hold.erase(hold.begin());
                        ++next;
                    }
                }
            } catch (const traq::FatalError &e) {
                std::fprintf(stderr, "traq_dispatch: %s\n",
                             e.what());
                std::fflush(stderr);
                _exit(1);
            }
        });

        try {
            std::string raw;
            while (std::getline(std::cin, raw)) {
                const std::string_view text = traq::trim(raw);
                if (text.empty() || text[0] == '#')
                    continue;
                dispatcher->submit(submitted++,
                                   std::string(text));
            }
            dispatcher->closeSubmissions();
        } catch (const traq::FatalError &e) {
            std::fprintf(stderr, "traq_dispatch: %s\n", e.what());
            exitCode = 1;
        }
        if (exitCode != 0)
            _exit(exitCode); // emitter may be wedged; don't join
        emitter.join();
    }

    // Close the result stream before the summary, mirroring
    // traq_serve's stats-after-output contract.
    std::fflush(stdout);
    std::fclose(stdout);
    std::fprintf(stderr, "traq_dispatch: %zu jobs, %u workers, "
                         "%lu inflight/worker\n",
                 submitted, opts.workers, inflight);
    return exitCode;
}
