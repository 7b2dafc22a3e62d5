#!/usr/bin/env python3
"""Diff dated perf-history records written by scripts/perf_smoke.sh.

CI uploads one PERF_HISTORY_JSON document per run (wall clock per
bench, thread-scaling efficiency, per-decoder decode latency).  This
tool takes two or more such documents -- given as files and/or
directories to scan for ``*.json`` -- sorts them by their ``date``
field, and reports what moved between the two most recent records:
per-bench elapsed deltas, per-decoder decode-latency deltas, the
caching-tier metrics (per-batch and cross-batch decode-memo hit
rates, compile-cache sweep speedup, persistent-store warm-restart
speedup), the DEM build speedup (backward sweep vs the forward
reference builder, timed in the same run), the service-burst rates
(traq_serve and traq_dispatch with 1/2/4 workers), and the CPU dispatch
level each run executed at (a dispatch change explains most
wall-clock moves, so it is printed before the numbers).  Top-level
keys this tool does not recognize are listed explicitly rather than
silently dropped, so a perf_smoke.sh that starts recording something
new is visible here the day it lands, not when someone updates this
script.

It is a report, not a gate: the exit code is always 0 unless the
inputs cannot be parsed.  The hard tripwires stay in perf_smoke.sh
(the 3x-baseline check and the DEM build speedup floor); this
exists so a human scanning CI output can see drift long before it
trips a wire.

Usage:
    scripts/perf_history_diff.py RECORD... [--full]

    --full    also print every record's raw numbers, oldest first
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def load_records(paths: list[str]) -> list[dict]:
    files: list[Path] = []
    for p in map(Path, paths):
        if p.is_dir():
            files.extend(sorted(p.glob("*.json")))
        else:
            files.append(p)
    records = []
    for f in files:
        try:
            doc = json.loads(f.read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise SystemExit(f"perf-history-diff: cannot read {f}: {err}")
        if not isinstance(doc, dict) or "benches" not in doc:
            raise SystemExit(
                f"perf-history-diff: {f} is not a perf-history record"
            )
        doc["_source"] = str(f)
        records.append(doc)
    records.sort(key=lambda r: r.get("date", ""))
    return records


def fmt_delta(base: float, head: float) -> str:
    if base <= 0:
        return "n/a"
    pct = 100.0 * (head - base) / base
    return f"{pct:+.1f}%"


def by_bench(record: dict) -> dict[str, float]:
    return {
        b["bench"]: float(b["elapsed_s"])
        for b in record.get("benches", [])
    }


def by_decoder(record: dict) -> dict[str, float]:
    return {
        d["decoder"]: float(d["us_per_round"])
        for d in record.get("decode_latency_us_per_round", [])
    }


#: Top-level keys print_diff knows how to render.  Anything else in
#: a record is reported as unknown instead of silently dropped.
KNOWN_KEYS = {
    "date",
    "commit",
    "margin",
    "parallel_efficiency_at_4",
    "cpu_dispatch",
    "decode_memo_hit_rate",
    "cross_batch_memo_hit_rate",
    "compile_cache_speedup",
    "dem_build_speedup",
    "warm_restart_speedup",
    "stream_req_per_s",
    "stream_first_result_ms",
    "service_burst_req_per_s",
    "benches",
    "decode_latency_us_per_round",
    "_source",
    # Only in older records, kept so diffs against them stay clean:
    # the compile-time codegen option, and two metrics of a copy of
    # the engine's hot loop that bench_sim_montecarlo no longer runs.
    "word_backend_compiled",
    "hotpath_speedup_vs_pr7",
    "batch_decode_ns_per_shot",
}


def by_fixture(record: dict, key: str, field: str) -> dict[str, float]:
    return {
        e["fixture"]: float(e[field]) for e in record.get(key, [])
    }


def print_fixture_diff(
    base: dict, head: dict, key: str, field: str, title: str
) -> None:
    base_f = by_fixture(base, key, field)
    head_f = by_fixture(head, key, field)
    if not (base_f or head_f):
        return
    print(f"\n{title}:")
    for name in sorted(set(base_f) | set(head_f)):
        b, h = base_f.get(name), head_f.get(name)
        if b is None or h is None:
            status = "added" if b is None else "removed"
            print(f"  {name:32s} {status}")
        else:
            print(f"  {name:32s} {b:8.3f} -> {h:8.3f}  {fmt_delta(b, h)}")


def print_diff(base: dict, head: dict) -> None:
    print(
        f"perf-history-diff: {base.get('date', '?')} "
        f"({base.get('commit', '?')[:12]}) -> "
        f"{head.get('date', '?')} ({head.get('commit', '?')[:12]})"
    )

    # Dispatch level first: a runner-class change (avx512 box vs
    # baseline box) explains most wall-clock movement below.
    disp_b = base.get("cpu_dispatch")
    disp_h = head.get("cpu_dispatch")
    if disp_b is not None or disp_h is not None:
        marker = "" if disp_b == disp_h else "  <- CHANGED"
        print(f"\ncpu-dispatch: {disp_b} -> {disp_h}{marker}")

    base_b, head_b = by_bench(base), by_bench(head)
    print("\nbench wall clock (s):")
    for name in sorted(set(base_b) | set(head_b)):
        b, h = base_b.get(name), head_b.get(name)
        if b is None or h is None:
            status = "added" if b is None else "removed"
            print(f"  {name:32s} {status}")
        else:
            print(f"  {name:32s} {b:8.3f} -> {h:8.3f}  {fmt_delta(b, h)}")

    base_d, head_d = by_decoder(base), by_decoder(head)
    if base_d or head_d:
        print("\ndecode latency (us/round, hardest fixture):")
        for name in sorted(set(base_d) | set(head_d)):
            b, h = base_d.get(name), head_d.get(name)
            if b is None or h is None:
                status = "added" if b is None else "removed"
                print(f"  {name:32s} {status}")
            else:
                print(
                    f"  {name:32s} {b:8.2f} -> {h:8.2f}  "
                    f"{fmt_delta(b, h)}"
                )

    print_fixture_diff(
        base, head, "decode_memo_hit_rate", "hit_rate",
        "decode-memo hit rate (per-batch)")
    print_fixture_diff(
        base, head, "cross_batch_memo_hit_rate", "hit_rate",
        "cross-batch memo hit rate (process-global tier)")
    print_fixture_diff(
        base, head, "compile_cache_speedup", "speedup",
        "compile-cache sweep speedup (x)")
    print_fixture_diff(
        base, head, "dem_build_speedup", "speedup",
        "DEM build speedup, backward sweep vs forward reference (x)")
    print_fixture_diff(
        base, head, "service_burst_req_per_s", "req_per_s",
        "service burst, traq_serve and traq_dispatch (req/s)")

    eff_b = base.get("parallel_efficiency_at_4")
    eff_h = head.get("parallel_efficiency_at_4")
    if eff_b is not None and eff_h is not None:
        print(f"\nparallel-efficiency@4: {eff_b} -> {eff_h}")

    wr_b = base.get("warm_restart_speedup")
    wr_h = head.get("warm_restart_speedup")
    if wr_b is not None or wr_h is not None:
        print(f"\nwarm-restart-speedup (x): {wr_b} -> {wr_h}")

    # Streaming service tier (absent from records predating it).
    sr_b = base.get("stream_req_per_s")
    sr_h = head.get("stream_req_per_s")
    if sr_b is not None or sr_h is not None:
        print(f"\nstream-throughput (req/s): {sr_b} -> {sr_h}")
    sf_b = base.get("stream_first_result_ms")
    sf_h = head.get("stream_first_result_ms")
    if sf_b is not None or sf_h is not None:
        print(f"stream-first-result (ms): {sf_b} -> {sf_h}")

    unknown = sorted((set(base) | set(head)) - KNOWN_KEYS)
    if unknown:
        print(
            "\nkeys this tool does not render (update "
            "perf_history_diff.py): " + ", ".join(unknown)
        )


def main(argv: list[str]) -> int:
    full = "--full" in argv
    paths = [a for a in argv if a != "--full"]
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    records = load_records(paths)
    if full:
        for r in records:
            print(f"--- {r['_source']} ({r.get('date', '?')})")
            print(json.dumps({k: v for k, v in r.items()
                              if k != "_source"}, indent=2))
        print()
    if len(records) < 2:
        print(
            "perf-history-diff: only "
            f"{len(records)} record(s) -- nothing to diff yet"
        )
        return 0
    print_diff(records[-2], records[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
