#!/usr/bin/env bash
# Perf smoke check: run the benches listed in bench/perf_baseline.txt
# and fail on a crash or a gross (> MARGIN x) wall-clock regression
# against the stored per-bench baseline.  Additionally records the
# multithreaded Monte-Carlo engine's thread-scaling efficiency
# (N-thread vs 1-thread speedup reported by bench_sim_montecarlo as
# "parallel-efficiency@4") and warns when it drops under
# EFF_WARN_THRESHOLD — a warning, not a failure, because CI runners
# and laptops legitimately have fewer than 4 cores.  It also gates
# the DEM build: bench_sim_montecarlo times the backward-sweep
# builder against the forward reference builder on the same circuits
# in the same process ("dem-build-speedup[...]"), and the check fails
# when that ratio drops under DEM_SPEEDUP_MIN.  Finally it pipes one
# burst of BURST_LINES distinct closed-form requests through a lone
# traq_serve and through traq_dispatch with 1, 2 and 4 workers
# ("service-burst[...]": req/s and CPU us per request); those lines
# WARN, never FAIL, since the runner's core count decides how far
# the dispatcher scales.
#
# Usage: scripts/perf_smoke.sh [build-dir]
#
# When PERF_HISTORY_JSON is set (CI does this), a machine-readable
# record of the run — per-bench wall clock vs baseline, the
# thread-scaling efficiency, the per-batch and cross-batch
# (process-global tier) decode-memo hit rates of the engine's
# 1-thread runs, the compiled-artifact cache speedup and the DEM
# build speedup from bench_sim_montecarlo, the persistent-store
# warm-restart speedup from bench_service_throughput, the
# per-decoder decode-latency lines from bench_decoder_throughput and
# the service-burst rates — is written there as one JSON document;
# CI uploads it as a dated perf-history artifact so regressions can
# be traced across commits, not just against the static baseline.
#
# The baseline file holds "<bench-binary> <baseline-seconds>" pairs;
# baselines are deliberately loose (they bound machine-class, not
# noise) and the 3x margin on top makes the check a tripwire for
# pathological slowdowns, not a micro-benchmark.
set -euo pipefail

BUILD_DIR="${1:-build}"
BASELINE_FILE="$(dirname "$0")/../bench/perf_baseline.txt"
MARGIN=3
EFF_WARN_THRESHOLD=0.6
DEM_SPEEDUP_MIN=5
BURST_LINES=20000

fail=0
outfile=$(mktemp)
burst_in=$(mktemp)
trap 'rm -f "$outfile" "$burst_in"' EXIT
efficiency=""
bench_json=""
latency_json=""
memo_json=""
cross_memo_json=""
compile_cache_json=""
dem_speedup_json=""
dem_speedups=""
warm_restart=""
stream_rps=""
stream_first_ms=""
burst_json=""

while read -r name baseline; do
    case "$name" in
      ''|\#*) continue ;;
    esac
    bin="$BUILD_DIR/$name"
    if [[ ! -x "$bin" ]]; then
        echo "perf-smoke: MISSING $bin" >&2
        fail=1
        continue
    fi
    start=$(date +%s%N)
    if ! "$bin" > "$outfile"; then
        echo "perf-smoke: CRASH $name" >&2
        fail=1
        continue
    fi
    end=$(date +%s%N)
    elapsed=$(awk -v s="$start" -v e="$end" \
        'BEGIN { printf "%.3f", (e - s) / 1e9 }')
    limit=$(awk -v b="$baseline" -v m="$MARGIN" \
        'BEGIN { printf "%.3f", b * m }')
    status=OK
    if awk -v e="$elapsed" -v l="$limit" \
        'BEGIN { exit !(e > l) }'; then
        echo "perf-smoke: FAIL $name took ${elapsed}s" \
             "(baseline ${baseline}s, limit ${limit}s)" >&2
        fail=1
        status=FAIL
    else
        echo "perf-smoke: OK   $name ${elapsed}s" \
             "(baseline ${baseline}s, limit ${limit}s)"
    fi
    bench_json="${bench_json:+$bench_json, }{\"bench\": \"$name\",\
 \"elapsed_s\": $elapsed, \"baseline_s\": $baseline,\
 \"status\": \"$status\"}"
    if [[ "$name" == "bench_sim_montecarlo" ]]; then
        efficiency=$(awk '/^parallel-efficiency@4:/ { print $2 }' \
            "$outfile")
        # decode-memo-hit-rate[<fixture>]: <rate>
        memo_json=$(awk -F'[][]' '/^decode-memo-hit-rate\[/ {
            split($3, f, " ");
            printf "%s{\"fixture\": \"%s\", \"hit_rate\": %s}",
                (n++ ? ", " : ""), $2, f[2] }' "$outfile")
        # cross-batch-memo-hit-rate[<fixture>]: <rate> (...)
        cross_memo_json=$(awk -F'[][]' \
            '/^cross-batch-memo-hit-rate\[/ {
            split($3, f, " ");
            printf "%s{\"fixture\": \"%s\", \"hit_rate\": %s}",
                (n++ ? ", " : ""), $2, f[2] }' "$outfile")
        # compile-cache-speedup[<fixture>]: <X.XX>x (...)
        compile_cache_json=$(awk -F'[][]' \
            '/^compile-cache-speedup\[/ {
            split($3, f, " "); sub(/x$/, "", f[2]);
            printf "%s{\"fixture\": \"%s\", \"speedup\": %s}",
                (n++ ? ", " : ""), $2, f[2] }' "$outfile")
        # dem-build-speedup[<fixture>]: <X.XX>x (...)
        dem_speedup_json=$(awk -F'[][]' \
            '/^dem-build-speedup\[/ {
            split($3, f, " "); sub(/x$/, "", f[2]);
            printf "%s{\"fixture\": \"%s\", \"speedup\": %s}",
                (n++ ? ", " : ""), $2, f[2] }' "$outfile")
        dem_speedups=$(awk -F'[][]' '/^dem-build-speedup\[/ {
            split($3, f, " "); sub(/x$/, "", f[2]);
            printf "%s %s\n", f[2], $2 }' "$outfile")
    fi
    if [[ "$name" == "bench_service_throughput" ]]; then
        # warm-restart-speedup: <X.X>x (...)
        warm_restart=$(awk '/^warm-restart-speedup:/ {
            sub(/x$/, "", $2); print $2; exit }' "$outfile")
        # service-throughput[stream]: <req/s> req/s (...)
        stream_rps=$(awk -F'[][]' \
            '/^service-throughput\[stream\]/ {
            split($3, f, " "); print f[2]; exit }' "$outfile")
        # stream-first-result: <ms> ms (...)
        stream_first_ms=$(awk '/^stream-first-result:/ {
            print $2; exit }' "$outfile")
    fi
    if [[ "$name" == "bench_decoder_throughput" ]]; then
        # decode-latency[<kind>]: <us> us/round <PASS|WARN> (...)
        latency_json=$(awk -F'[][]' '/^decode-latency\[/ {
            split($3, f, " ");
            printf "%s{\"decoder\": \"%s\", \"us_per_round\": %s,\
 \"status\": \"%s\"}", (n++ ? ", " : ""), $2, f[2], f[4] }' \
            "$outfile")
    fi
done < "$BASELINE_FILE"

# Thread-scaling efficiency of the sharded Monte-Carlo engine
# (ROADMAP: track scaling, not just wall-clock).
if [[ -n "$efficiency" ]]; then
    if awk -v e="$efficiency" -v t="$EFF_WARN_THRESHOLD" \
        'BEGIN { exit !(e < t) }'; then
        echo "perf-smoke: WARN thread-scaling efficiency@4 =" \
             "$efficiency (< $EFF_WARN_THRESHOLD; expected on" \
             "< 4-core machines, investigate on larger ones)"
    else
        echo "perf-smoke: OK   thread-scaling efficiency@4 =" \
             "$efficiency (threshold $EFF_WARN_THRESHOLD)"
    fi
else
    echo "perf-smoke: WARN no parallel-efficiency@4 line from" \
         "bench_sim_montecarlo"
fi

# DEM build: backward sweep vs the forward reference, same run.
if [[ -n "$dem_speedups" ]]; then
    while read -r speedup fixture; do
        if awk -v s="$speedup" -v m="$DEM_SPEEDUP_MIN" \
            'BEGIN { exit !(s < m) }'; then
            echo "perf-smoke: FAIL dem-build-speedup[$fixture] =" \
                 "${speedup}x (< ${DEM_SPEEDUP_MIN}x)" >&2
            fail=1
        else
            echo "perf-smoke: OK   dem-build-speedup[$fixture] =" \
                 "${speedup}x (min ${DEM_SPEEDUP_MIN}x)"
        fi
    done <<< "$dem_speedups"
else
    echo "perf-smoke: FAIL no dem-build-speedup lines from" \
         "bench_sim_montecarlo" >&2
    fail=1
fi

# Caching tiers (informational; the hard gates are the bench-level
# target lines and the test suite's bit-identity checks).
if [[ -n "$warm_restart" ]]; then
    echo "perf-smoke: OK   warm-restart-speedup = ${warm_restart}x"
else
    echo "perf-smoke: WARN no warm-restart-speedup line from" \
         "bench_service_throughput"
fi

# Streaming service tier (informational): completion-order throughput
# and the latency a streaming client pays for its first result.
if [[ -n "$stream_rps" ]]; then
    echo "perf-smoke: OK   stream-throughput = $stream_rps req/s," \
         "first result after ${stream_first_ms:-?} ms"
else
    echo "perf-smoke: WARN no service-throughput[stream] line from" \
         "bench_service_throughput"
fi

# Service burst (informational): the six closed-form kinds in turn,
# each line's parameter a distinct point within 10% of the
# estimator's default, so no result cache serves a line.  All
# processes run --threads 1 in streaming mode; CPU is user + sys of
# the whole process tree.
awk -v n="$BURST_LINES" 'BEGIN {
    for (i = 0; i < n; ++i) {
        f = 0.9 + 0.2 * (i + 0.5) / n
        k = i % 6
        if (k == 0)
            printf "{\"kind\":\"factoring\",\"params\":" \
                "{\"idlePeriod\":%.9g}}\n", 8e-3 * f
        else if (k == 1)
            printf "{\"kind\":\"gidney-ekera\",\"params\":" \
                "{\"tReaction\":%.9g}}\n", 1e-5 * f
        else if (k == 2)
            printf "{\"kind\":\"idle-storage\",\"params\":" \
                "{\"distance\":27,\"sePeriod\":%.9g}}\n", 8e-3 * f
        else if (k == 3)
            printf "{\"kind\":\"factory-design\",\"params\":" \
                "{\"targetCczError\":%.9g}}\n", 1.6e-11 * f
        else if (k == 4)
            printf "{\"kind\":\"chemistry\",\"params\":" \
                "{\"energyError\":%.9g}}\n", 1.6e-3 * f
        else
            printf "{\"kind\":\"qldpc-storage\",\"params\":" \
                "{\"compressionFactor\":%.9g}}\n", 10 * f
    }
}' > "$burst_in"
w1_rps=""
for mode in serve dispatch-w1 dispatch-w2 dispatch-w4; do
    if [[ "$mode" == serve ]]; then
        cmd=("$BUILD_DIR/traq_serve" --threads 1)
    else
        cmd=("$BUILD_DIR/traq_dispatch" --threads 1
             --workers "${mode#dispatch-w}")
    fi
    if [[ ! -x "${cmd[0]}" ]]; then
        echo "perf-smoke: WARN service-burst[$mode]: MISSING ${cmd[0]}"
        continue
    fi
    # "real user sys" seconds of the service and its children.
    if ! times=$( { TIMEFORMAT='%R %U %S'
                    time "${cmd[@]}" < "$burst_in" > "$outfile" \
                        2> /dev/null; } 2>&1 ); then
        echo "perf-smoke: WARN service-burst[$mode]: exited non-zero"
        continue
    fi
    got=$(wc -l < "$outfile")
    if [[ "$got" -ne "$BURST_LINES" ]]; then
        echo "perf-smoke: WARN service-burst[$mode]: $got result" \
             "lines for $BURST_LINES requests"
        continue
    fi
    read -r rps cpu_us <<< "$(awk -v n="$BURST_LINES" -v t="$times" \
        'BEGIN { split(t, f, " ");
                 printf "%.0f %.1f", n / f[1], (f[2] + f[3]) / n * 1e6 }')"
    [[ "$mode" == dispatch-w1 ]] && w1_rps=$rps
    if [[ "$mode" == dispatch-w[24] && -n "$w1_rps" ]] \
        && (( rps <= w1_rps )); then
        echo "perf-smoke: WARN service-burst[$mode]: $rps req/s" \
             "($cpu_us us CPU/req), no faster than 1 worker" \
             "(expected with fewer cores than workers)"
    else
        echo "perf-smoke: OK   service-burst[$mode]: $rps req/s" \
             "($cpu_us us CPU/req)"
    fi
    burst_json="${burst_json:+$burst_json, }{\"fixture\": \"$mode\",\
 \"req_per_s\": $rps, \"cpu_us_per_req\": $cpu_us}"
done

if [[ -n "${PERF_HISTORY_JSON:-}" ]]; then
    {
        echo "{"
        echo "  \"date\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
        echo "  \"commit\": \"${GITHUB_SHA:-unknown}\","
        echo "  \"margin\": $MARGIN,"
        echo "  \"parallel_efficiency_at_4\": ${efficiency:-null},"
        echo "  \"decode_memo_hit_rate\": [$memo_json],"
        echo "  \"cross_batch_memo_hit_rate\": [$cross_memo_json],"
        echo "  \"compile_cache_speedup\": [$compile_cache_json],"
        echo "  \"dem_build_speedup\": [$dem_speedup_json],"
        echo "  \"warm_restart_speedup\": ${warm_restart:-null},"
        echo "  \"stream_req_per_s\": ${stream_rps:-null},"
        echo "  \"stream_first_result_ms\":" \
             "${stream_first_ms:-null},"
        echo "  \"service_burst_req_per_s\": [$burst_json],"
        echo "  \"benches\": [$bench_json],"
        echo "  \"decode_latency_us_per_round\": [$latency_json]"
        echo "}"
    } > "$PERF_HISTORY_JSON"
    echo "perf-smoke: history written to $PERF_HISTORY_JSON"
fi

exit "$fail"
