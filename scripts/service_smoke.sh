#!/usr/bin/env bash
# Service front-end smoke check: pipe the checked-in request set
# through traq_serve (and the traq_dispatch sharder) and require
#
#   1. byte-identical stdout for 1 vs N worker threads (the service
#      determinism contract: submission order, not worker identity,
#      decides where results land),
#   2. byte-identical stdout with the canonicalKey cache off (the
#      cache changes evaluation counts, never bytes),
#   3. an exact match against the checked-in golden output
#      (tests/data/service_requests.golden.jsonl),
#   4. cache hits actually reported for the duplicated request lines,
#   5. traq_dispatch --ordered byte-identical to the golden for 2 and
#      4 worker processes,
#   6. traq_dispatch streaming mode a permutation: every index exactly
#      once, untagged payloads matching the golden after reorder, and
#   7. a worker killed mid-run losing and duplicating nothing,
#   8. a store written under another decoder never answering the
#      default one (Monte-Carlo cache keys carry the resolved
#      decoder and word backend), and
#   9. workers that break the line protocol failing traq_dispatch
#      loudly (exit 1, the violation on stderr, nothing on stdout)
#      instead of aborting it,
#  10. worker counts that do not fit in an unsigned (--workers or
#      TRAQ_DISPATCH_WORKERS) rejected as usage errors (exit 2,
#      nothing on stdout) instead of wrapping to 0 or 1 workers, and
#  11. a worker that cannot be spawned (an fd limit makes pipe()
#      fail) failing traq_dispatch loudly (exit 1) after it stops
#      the workers it already started, instead of aborting it,
#  12. worker counts the descriptor limit cannot hold (two pipe ends
#      per worker) refused before any worker is sized or spawned
#      (exit 1, RLIMIT_NOFILE named on stderr, no abort),
#  13. a request answered while stdin is still open (interactive
#      delivery: no reader waits for EOF or a full buffer, no
#      emitter holds a result back),
#  14. stdin framing: a final line without a newline, CRLF line ends
#      and one batch line far longer than a read block answered
#      exactly as their plain LF-terminated form, and
#  15. a --serve path that cannot be executed (missing, or without
#      execute permission) named with its errno text at start-up
#      (exit 1, nothing on stdout), for empty input as for a request.
#
# Byte-identity legs use --ordered (traq_serve's default output is a
# completion-order stream of {"index":N,...} tagged lines).
#
# Usage: scripts/service_smoke.sh [build-dir]
#
# Regenerate the golden after an intentional estimator/output change:
#   build/traq_serve --ordered --threads 1 \
#       < tests/data/service_requests.jsonl \
#       > tests/data/service_requests.golden.jsonl
set -euo pipefail

BUILD_DIR="${1:-build}"
ROOT="$(dirname "$0")/.."
REQUESTS="$ROOT/tests/data/service_requests.jsonl"
GOLDEN="$ROOT/tests/data/service_requests.golden.jsonl"
SERVE="$BUILD_DIR/traq_serve"
DISPATCH="$BUILD_DIR/traq_dispatch"

if [[ ! -x "$SERVE" ]]; then
    echo "service-smoke: MISSING $SERVE" >&2
    exit 1
fi
if [[ ! -x "$DISPATCH" ]]; then
    echo "service-smoke: MISSING $DISPATCH" >&2
    exit 1
fi

out1=$(mktemp)
outn=$(mktemp)
stats=$(mktemp)
cachefile=$(mktemp)
envcache=$(mktemp)
bigreq=$(mktemp)
bigexp=$(mktemp)
fifodir=$(mktemp -d)
trap 'rm -f "$out1" "$outn" "$stats" "$cachefile" "$envcache" "$bigreq" "$bigexp"; rm -rf "$fifodir"' EXIT

# Prefix each tagged {"index":N,...} line with its index and a tab,
# sort numerically, drop the prefix: completion order -> input order.
sort_by_index() {
    sed -E $'s/^\\{"index":([0-9]+)/\\1\t&/' | sort -n -k1,1 | cut -f2-
}

# Strip the {"index":N, wire tag, recovering the --ordered payload.
untag() {
    sed -E 's/^\{"index":[0-9]+,"batch":(\[.*\])\}$/\1/;
            s/^\{"index":[0-9]+\}$/{}/;
            s/^\{"index":[0-9]+,/{/'
}

"$SERVE" --ordered --threads 1 < "$REQUESTS" > "$out1" 2> "$stats"
"$SERVE" --ordered --threads 4 < "$REQUESTS" > "$outn" 2> /dev/null
if ! diff -u "$out1" "$outn"; then
    echo "service-smoke: FAIL 1-thread vs 4-thread output differs" >&2
    exit 1
fi
echo "service-smoke: OK   1 vs 4 threads byte-identical"

"$SERVE" --ordered --threads 4 --cache off < "$REQUESTS" > "$outn" 2> /dev/null
if ! diff -u "$out1" "$outn"; then
    echo "service-smoke: FAIL cache-on vs cache-off output differs" >&2
    exit 1
fi
echo "service-smoke: OK   cache on vs off byte-identical"

if ! diff -u "$GOLDEN" "$out1"; then
    echo "service-smoke: FAIL output differs from golden" \
         "($GOLDEN; see header of scripts/service_smoke.sh to" \
         "regenerate after an intentional change)" >&2
    exit 1
fi
echo "service-smoke: OK   golden output matches"

# The request set duplicates two single requests and repeats one
# more inside a batch — the cache must report those three hits.
if ! grep -q " 3 cache hits" "$stats"; then
    echo "service-smoke: FAIL expected 3 cache hits, stderr was:" >&2
    cat "$stats" >&2
    exit 1
fi
echo "service-smoke: OK   $(cat "$stats")"

# Noise-model leg: "noise.<source>.<param>" request keys and the
# erasureAware toggle through the same service path.  Pinned to the
# scalar64 word backend so the golden bytes do not move with the
# default (wide512) backend.  Regenerate with:
#   TRAQ_WORD_BACKEND=scalar64 build/traq_serve --ordered --threads 1 \
#       < tests/data/noise_requests.jsonl \
#       > tests/data/noise_requests.golden.jsonl
NOISE_REQUESTS="$ROOT/tests/data/noise_requests.jsonl"
NOISE_GOLDEN="$ROOT/tests/data/noise_requests.golden.jsonl"

TRAQ_WORD_BACKEND=scalar64 "$SERVE" --ordered --threads 1 \
    < "$NOISE_REQUESTS" > "$out1" 2> "$stats"
TRAQ_WORD_BACKEND=scalar64 "$SERVE" --ordered --threads 4 \
    < "$NOISE_REQUESTS" > "$outn" 2> /dev/null
if ! diff -u "$out1" "$outn"; then
    echo "service-smoke: FAIL noise leg 1 vs 4 threads differs" >&2
    exit 1
fi
echo "service-smoke: OK   noise leg 1 vs 4 threads byte-identical"

if ! diff -u "$NOISE_GOLDEN" "$out1"; then
    echo "service-smoke: FAIL noise output differs from golden" \
         "($NOISE_GOLDEN; see above to regenerate after an" \
         "intentional change)" >&2
    exit 1
fi
echo "service-smoke: OK   noise golden output matches"

# The noise set repeats its first request — one cache hit — and its
# erasure-aware line must beat the erasure-blind twin on hits.
if ! grep -q " 1 cache hits" "$stats"; then
    echo "service-smoke: FAIL expected 1 noise cache hit:" >&2
    cat "$stats" >&2
    exit 1
fi
echo "service-smoke: OK   $(cat "$stats")"

# Cross-environment store leg: a store filled under the union-find
# decoder must not answer the default decoder.  The second run on
# the same store evaluates everything afresh (golden bytes, zero
# persistent hits); a third run in its environment is served whole
# from the store.
TRAQ_WORD_BACKEND=scalar64 TRAQ_DECODER=union-find "$SERVE" --ordered \
    --threads 2 --cache-file "$envcache" \
    < "$NOISE_REQUESTS" > /dev/null 2> /dev/null
TRAQ_WORD_BACKEND=scalar64 "$SERVE" --ordered --threads 2 \
    --cache-file "$envcache" < "$NOISE_REQUESTS" > "$out1" 2> "$stats"
if ! diff -u "$NOISE_GOLDEN" "$out1"; then
    echo "service-smoke: FAIL store from another decoder changed" \
         "the noise output" >&2
    exit 1
fi
if ! grep -q " 0 persistent hits" "$stats"; then
    echo "service-smoke: FAIL store from another decoder served" \
         "results:" >&2
    cat "$stats" >&2
    exit 1
fi
TRAQ_WORD_BACKEND=scalar64 "$SERVE" --ordered --threads 2 \
    --cache-file "$envcache" < "$NOISE_REQUESTS" > "$outn" 2> "$stats"
if ! diff -u "$NOISE_GOLDEN" "$outn" || ! grep -q " 0 evaluated" "$stats"; then
    echo "service-smoke: FAIL same-environment restart re-evaluated" \
         "or changed bytes:" >&2
    cat "$stats" >&2
    exit 1
fi
echo "service-smoke: OK   cross-environment store $(cat "$stats")"

# Warm-restart leg (caching tier 3): serve the request set with a
# persistent cache file, let the process exit, then restart against
# the same store.  The rerun must be byte-identical (stored outcomes
# replay the exact JSON an evaluation would emit) and served from
# the persistent tier (nonzero persistent hits, zero evaluations).
"$SERVE" --ordered --threads 2 --cache-file "$cachefile" \
    < "$REQUESTS" > "$out1" 2> /dev/null
"$SERVE" --ordered --threads 2 --cache-file "$cachefile" \
    < "$REQUESTS" > "$outn" 2> "$stats"
if ! diff -u "$out1" "$outn"; then
    echo "service-smoke: FAIL warm-restart output differs" >&2
    exit 1
fi
if ! diff -u "$GOLDEN" "$outn"; then
    echo "service-smoke: FAIL warm-restart differs from golden" >&2
    exit 1
fi
if ! grep -Eq " [1-9][0-9]* persistent hits" "$stats"; then
    echo "service-smoke: FAIL expected persistent-cache hits:" >&2
    cat "$stats" >&2
    exit 1
fi
if ! grep -q " 0 evaluated" "$stats"; then
    echo "service-smoke: FAIL warm restart re-evaluated jobs:" >&2
    cat "$stats" >&2
    exit 1
fi
echo "service-smoke: OK   warm restart $(cat "$stats")"

# Dispatcher legs: sharding across worker processes must not change a
# byte.  --ordered output is diffed against the same golden for 2 and
# 4 workers.
for w in 2 4; do
    "$DISPATCH" --workers "$w" --ordered --threads 2 \
        < "$REQUESTS" > "$outn" 2> /dev/null
    if ! diff -u "$GOLDEN" "$outn"; then
        echo "service-smoke: FAIL $w-worker dispatch differs from" \
             "golden" >&2
        exit 1
    fi
    echo "service-smoke: OK   $w-worker dispatch matches golden"
done

# Streaming (default) dispatch is a tagged permutation: every global
# index exactly once, and untagging + reordering recovers the golden.
"$DISPATCH" --workers 2 --threads 2 \
    < "$REQUESTS" > "$outn" 2> /dev/null
nlines=$(wc -l < "$GOLDEN")
if ! sed -E 's/^\{"index":([0-9]+).*/\1/' "$outn" | sort -n \
        | diff -u <(seq 0 $((nlines - 1))) - > /dev/null; then
    echo "service-smoke: FAIL streaming dispatch index set is not" \
         "0..$((nlines - 1)) exactly once" >&2
    exit 1
fi
if ! sort_by_index < "$outn" | untag | diff -u "$GOLDEN" -; then
    echo "service-smoke: FAIL streaming dispatch payloads differ" \
         "from golden after reorder" >&2
    exit 1
fi
echo "service-smoke: OK   streaming dispatch is an exact permutation"

# Worker-kill leg: throttle a 30x request stream through two workers
# and SIGKILL one mid-run.  Requeue + index dedup must keep the
# output exactly-once: every index present once, bytes matching the
# golden after reorder.  (The deterministic mid-flight kill lives in
# tests/test_service_layers.cc; this leg checks the same invariants
# end-to-end through the shipped binaries.)
grep -vE '^[[:space:]]*(#|$)' "$REQUESTS" > /dev/null  # sanity
for _ in $(seq 30); do
    grep -vE '^[[:space:]]*(#|$)' "$REQUESTS"
done > "$bigreq"
for _ in $(seq 30); do cat "$GOLDEN"; done > "$bigexp"
total=$(wc -l < "$bigreq")
(
    while IFS= read -r line; do
        printf '%s\n' "$line"
        sleep 0.004
    done < "$bigreq"
) | "$DISPATCH" --workers 2 --threads 1 --inflight 4 \
    > "$outn" 2> /dev/null &
dpid=$!
sleep 0.4
victim=$(pgrep -P "$dpid" | head -n 1 || true)
if [[ -n "$victim" ]]; then
    kill -9 "$victim" 2> /dev/null || true
fi
if ! wait "$dpid"; then
    echo "service-smoke: FAIL dispatcher died after worker kill" >&2
    exit 1
fi
if [[ -z "$victim" ]]; then
    echo "service-smoke: FAIL kill leg found no worker to kill" >&2
    exit 1
fi
if ! sed -E 's/^\{"index":([0-9]+).*/\1/' "$outn" | sort -n \
        | diff -u <(seq 0 $((total - 1))) - > /dev/null; then
    echo "service-smoke: FAIL kill leg lost or duplicated indices" >&2
    exit 1
fi
if ! sort_by_index < "$outn" | untag | diff -u "$bigexp" -; then
    echo "service-smoke: FAIL kill leg payloads differ from golden" >&2
    exit 1
fi
echo "service-smoke: OK   worker kill lost and duplicated nothing" \
     "($total jobs, worker $victim killed)"

# Protocol-violation leg: /bin/cat echoes each request line back
# untagged, so every worker breaks the line protocol.  Each must be
# lost like a dead one, and with none left the dispatcher exits 1
# naming the first violation — never an abort (exit 134).
status=0
printf '{"kind":"gidney-ekera"}\n' \
    | "$DISPATCH" --workers 2 --serve /bin/cat > "$outn" 2> "$stats" \
    || status=$?
if [[ "$status" -ne 1 ]] || [[ -s "$outn" ]] \
        || ! grep -q "protocol error" "$stats"; then
    echo "service-smoke: FAIL protocol-breaking workers gave exit" \
         "$status (want 1), stderr was:" >&2
    cat "$stats" >&2
    exit 1
fi
echo "service-smoke: OK   protocol-breaking workers fail loudly (exit 1)"

# Worker-count leg: 2^32 wrapped to 0 workers (an abort) and 2^32 + 1
# to one worker; both must be rejected before any worker spawns.
for bad in "--workers 4294967296" "--workers 4294967297" \
           "TRAQ_DISPATCH_WORKERS=4294967296"; do
    status=0
    if [[ "$bad" == --* ]]; then
        # shellcheck disable=SC2086  # split "--workers N"
        printf '{"kind":"gidney-ekera"}\n' \
            | "$DISPATCH" $bad > "$outn" 2> "$stats" || status=$?
    else
        printf '{"kind":"gidney-ekera"}\n' \
            | env "$bad" "$DISPATCH" > "$outn" 2> "$stats" \
            || status=$?
    fi
    if [[ "$status" -ne 2 ]] || [[ -s "$outn" ]]; then
        echo "service-smoke: FAIL '$bad' gave exit $status" \
             "(want 2 with empty stdout), stderr was:" >&2
        cat "$stats" >&2
        exit 1
    fi
done
echo "service-smoke: OK   oversized worker counts rejected (exit 2)"

# Spawn-failure leg: with 16 descriptors, pipe() fails after a few
# of the 8 workers have started.  The dispatcher must stop those and
# exit 1 naming the failure — never abort (exit 134).
status=0
printf '{"kind":"gidney-ekera"}\n' \
    | (ulimit -n 16; exec "$DISPATCH" --workers 8) > "$outn" \
        2> "$stats" || status=$?
if [[ "$status" -ne 1 ]] || [[ -s "$outn" ]] \
        || ! grep -q "traq_dispatch: .*pipe() failed" "$stats"; then
    echo "service-smoke: FAIL worker spawn failure gave exit" \
         "$status (want 1), stderr was:" >&2
    cat "$stats" >&2
    exit 1
fi
echo "service-smoke: OK   worker spawn failure fails loudly (exit 1)"

# Descriptor-limit leg: each worker holds two pipe ends in the
# dispatcher, so under 32 descriptors any count above 16 must be
# refused before the worker table or the per-worker store names are
# built, and before any worker forks (a missing check forks about a
# dozen here before pipe() fails).  A cap on allocation turns a
# regression at 2^32 - 1 into an abort, not a machine-sized
# allocation: the address-space limit, or for an ASan build (which
# reserves terabytes of shadow and cannot start under that limit)
# its allocator's size cap.
asan=0
if grep -q __asan_init "$DISPATCH"; then
    asan=1
fi
for bad in "--workers=4294967295" "--workers=100" \
           "--workers=4294967295 --cache-file $cachefile.w"; do
    status=0
    # shellcheck disable=SC2086  # split "$bad"
    printf '{"kind":"gidney-ekera"}\n' \
        | (ulimit -n 32
           if [[ "$asan" -eq 0 ]]; then
               ulimit -v 1000000
           fi
           ASAN_OPTIONS="${ASAN_OPTIONS:+$ASAN_OPTIONS:}max_allocation_size_mb=1024" \
               exec "$DISPATCH" $bad --serve /nonexistent) > "$outn" \
            2> "$stats" || status=$?
    if [[ "$status" -ne 1 ]] || [[ -s "$outn" ]] \
            || ! grep -q "RLIMIT_NOFILE" "$stats" \
            || grep -q "terminate" "$stats"; then
        echo "service-smoke: FAIL '$bad' under ulimit -n 32 gave" \
             "exit $status (want 1 naming RLIMIT_NOFILE), stderr" \
             "was:" >&2
        cat "$stats" >&2
        exit 1
    fi
done
echo "service-smoke: OK   worker counts past the descriptor limit" \
     "refused (exit 1)"

# Interactive leg: with stdin held open on a FIFO, one request line
# must come back tagged within 5 s, before stdin closes.
mkfifo "$fifodir/in"
for mode in serve dispatch; do
    if [[ "$mode" == serve ]]; then
        cmd=("$SERVE")
    else
        cmd=("$DISPATCH" --workers 2)
    fi
    : > "$outn"
    "${cmd[@]}" < "$fifodir/in" > "$outn" 2> /dev/null &
    spid=$!
    exec 3> "$fifodir/in"
    start=$(date +%s%N)
    printf '{"kind":"gidney-ekera"}\n' >&3
    waited_ms=""
    while (( $(date +%s%N) - start < 5000000000 )); do
        if grep -q '^{"index":0,"kind":"gidney-ekera",' "$outn" \
                && [[ -z "$(tail -c 1 "$outn")" ]]; then
            waited_ms=$(( ($(date +%s%N) - start) / 1000000 ))
            break
        fi
        sleep 0.01
    done
    exec 3>&-
    status=0
    wait "$spid" || status=$?
    if [[ -z "$waited_ms" ]] || [[ "$status" -ne 0 ]]; then
        echo "service-smoke: FAIL $mode gave no result within 5 s" \
             "while stdin stayed open (exit $status)" >&2
        exit 1
    fi
    echo "service-smoke: OK   $mode answered in ${waited_ms} ms with" \
         "stdin open"
done

# Framing leg: every variant must give, byte for byte, what its plain
# LF-terminated form gives, through both --ordered binaries.  The
# batch line (12,000 requests, ~800 KB) spans many read blocks; its
# expected output is built from one request's answer.
array12k() {
    R="$1" awk 'BEGIN { printf "[";
        for (i = 0; i < 12000; ++i)
            printf "%s%s", (i ? "," : ""), ENVIRON["R"];
        print "]" }'
}
check_framing() { # <name> <input> <expected output>
    if ! "$SERVE" --ordered < "$2" 2> /dev/null | cmp -s "$3" - \
            || ! "$DISPATCH" --ordered --workers 2 < "$2" 2> /dev/null \
                | cmp -s "$3" -; then
        echo "service-smoke: FAIL $1 input differs from its" \
             "LF-terminated form" >&2
        exit 1
    fi
}
one='{"kind":"gidney-ekera","params":{"tReaction":1e-05,"distance":27}}'
batch="$fifodir/batch"
batchexp="$fifodir/batchexp"
array12k "$one" > "$batch"
array12k "$(printf '%s\n' "$one" | "$SERVE" --ordered 2> /dev/null)" \
    > "$batchexp"
if (( $(wc -c < "$batch") < 512 * 1024 )); then
    echo "service-smoke: FAIL framing batch line is under 512 KiB" >&2
    exit 1
fi
grep -vE '^[[:space:]]*(#|$)' "$REQUESTS" | head -c -1 > "$bigreq"
check_framing no-final-newline "$bigreq" "$GOLDEN"
sed 's/$/\r/' "$REQUESTS" > "$out1"
check_framing crlf "$out1" "$GOLDEN"
check_framing long-batch "$batch" "$batchexp"
echo "service-smoke: OK   final line without newline, CRLF and an" \
     "$(( $(wc -c < "$batch") / 1024 )) KiB batch line framed like LF"

# Unexecutable-worker leg: each worker's exec status comes back to the
# dispatcher before it starts reading, so a --serve path that cannot
# run fails traq_dispatch at start-up, naming the path and the reason
# — with no input too, where it used to exit 0 as if the run were
# empty, and with a request, where it used to say only that every
# worker was dead.
noexec="$fifodir/noexec"
: > "$noexec"
chmod 0644 "$noexec"
for case in "/nonexistent-traq-serve:No such file or directory" \
            "$noexec:Permission denied"; do
    path=${case%%:*}
    reason=${case#*:}
    for input in '' '{"kind":"gidney-ekera"}'; do
        status=0
        printf '%s' "${input:+$input$'\n'}" \
            | "$DISPATCH" --workers 2 --serve "$path" > "$outn" \
                2> "$stats" || status=$?
        if [[ "$status" -ne 1 ]] || [[ -s "$outn" ]] \
                || ! grep -qF "cannot execute worker '$path': $reason" \
                    "$stats"; then
            echo "service-smoke: FAIL --serve $path with" \
                 "${input:-empty} input gave exit $status (want 1" \
                 "naming the path and '$reason'), stderr was:" >&2
            cat "$stats" >&2
            exit 1
        fi
    done
done
echo "service-smoke: OK   unexecutable --serve paths named at start-up" \
     "(exit 1)"
