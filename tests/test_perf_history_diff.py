#!/usr/bin/env python3
"""Unit test for scripts/perf_history_diff.py.

Runs the diff tool as a subprocess (exactly as CI invokes it) over
the golden two-record fixture in tests/data/perf_history/ and checks
the report contract:

  - per-bench wall-clock deltas, including added/removed benches,
  - per-decoder decode-latency deltas,
  - the caching-tier metrics (per-batch and cross-batch memo hit
    rates, compile-cache and warm-restart speedups),
  - keys only older records carry are neither rendered nor listed
    as unknown,
  - the same-run DEM build speedup per fixture, including a fixture
    only the newer record has,
  - the service-burst rates per serving mode, including a worker
    count only the newer record has,
  - unrecognized top-level keys are listed explicitly, never
    silently dropped,
  - the exit code is 0 for every well-formed input (it is a report,
    not a gate) and nonzero only when an input cannot be parsed.

Wired into ctest by CMakeLists.txt when a Python3 interpreter is
found; also runnable directly:  python3 tests/test_perf_history_diff.py
"""

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "perf_history_diff.py"
FIXTURES = REPO / "tests" / "data" / "perf_history"


def run_tool(*args):
    """Run the diff tool; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class PerfHistoryDiffTest(unittest.TestCase):
    def diff_output(self):
        code, out, err = run_tool(FIXTURES)
        self.assertEqual(code, 0, err)
        return out

    def test_exit_zero_and_header(self):
        out = self.diff_output()
        # Oldest record is the base, newest the head (sorted by the
        # "date" field, not by filename).
        self.assertIn("2026-08-01T00:00:00Z", out)
        self.assertIn("2026-08-02T00:00:00Z", out)
        self.assertIn("aaaaaaaaaaaa", out)
        self.assertIn("bbbbbbbbbbbb", out)

    def test_per_bench_deltas(self):
        out = self.diff_output()
        # 9.500 -> 10.450 is +10.0%.
        self.assertRegex(
            out, r"bench_sim_montecarlo\s+9\.500 ->\s+10\.450\s+\+10\.0%"
        )
        self.assertRegex(
            out, r"bench_decoder_throughput\s+1\.200 ->\s+1\.100\s+-8\.3%"
        )
        self.assertRegex(out, r"bench_added_here\s+added")
        self.assertRegex(out, r"bench_retired_elsewhere\s+removed")

    def test_per_decoder_latency_deltas(self):
        out = self.diff_output()
        self.assertIn("decode latency (us/round", out)
        self.assertRegex(out, r"fallback\s+12\.40 ->\s+11\.90\s+-4\.0%")
        self.assertRegex(out, r"correlated\s+55\.10 ->\s+61\.30\s+\+11\.3%")

    def test_caching_tier_metrics(self):
        out = self.diff_output()
        self.assertIn("decode-memo hit rate (per-batch)", out)
        self.assertIn("cross-batch memo hit rate", out)
        self.assertRegex(out, r"memory d=5\s+0\.760 ->\s+0\.776")
        self.assertIn("compile-cache sweep speedup", out)
        self.assertRegex(out, r"mc-sweep d=5\s+4\.800 ->\s+5\.400")
        self.assertIn("warm-restart-speedup (x): 11.0 -> 12.5", out)

    def test_retired_keys_stay_quiet(self):
        out = self.diff_output()
        # Only the older record has them: no section, no unknown key.
        for retired in ("hotpath_speedup_vs_pr7",
                        "batch_decode_ns_per_shot"):
            self.assertNotIn(retired, out)
        self.assertNotIn("hot-path", out)
        self.assertNotIn("decodeBatchSorted", out)

    def test_dem_build_speedup(self):
        out = self.diff_output()
        self.assertIn("DEM build speedup, backward sweep vs forward", out)
        self.assertRegex(out, r"memory d=7\s+30\.500 ->\s+27\.400\s+-10\.2%")
        self.assertRegex(out, r"cnot-loss d=7\s+added")
        self.assertNotIn("dem_build_speedup,", out)

    def test_service_burst(self):
        out = self.diff_output()
        self.assertIn("service burst, traq_serve and traq_dispatch", out)
        self.assertRegex(
            out, r"dispatch-w2\s+68000\.000 ->\s+138000\.000\s+\+102\.9%"
        )
        self.assertRegex(out, r"serve\s+78000\.000 ->\s+104000\.000")
        self.assertRegex(out, r"dispatch-w4\s+added")
        self.assertNotIn("service_burst_req_per_s", out)

    def test_dispatch_change_flagged(self):
        out = self.diff_output()
        self.assertIn("cpu-dispatch: avx2 -> avx512  <- CHANGED", out)

    def test_unknown_top_level_key_listed(self):
        out = self.diff_output()
        self.assertIn("keys this tool does not render", out)
        self.assertIn("experimental_new_metric", out)
        # Known keys must not be reported as unknown.
        self.assertNotIn("warm_restart_speedup,", out)

    def test_single_record_still_exits_zero(self):
        code, out, err = run_tool(FIXTURES / "base.json")
        self.assertEqual(code, 0, err)
        self.assertIn("nothing to diff yet", out)

    def test_full_dump_exits_zero(self):
        code, out, err = run_tool(FIXTURES, "--full")
        self.assertEqual(code, 0, err)
        self.assertIn('"warm_restart_speedup": 11.0', out)

    def test_unparsable_input_fails_loudly(self):
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as f:
            f.write("{not json")
            bad = f.name
        try:
            code, _, err = run_tool(bad)
            self.assertNotEqual(code, 0)
            self.assertIn("cannot read", err)
        finally:
            Path(bad).unlink()

    def test_non_record_json_fails_loudly(self):
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as f:
            f.write('{"date": "2026-01-01", "no_benches": true}')
            bad = f.name
        try:
            code, _, err = run_tool(bad)
            self.assertNotEqual(code, 0)
            self.assertIn("not a perf-history record", err)
        finally:
            Path(bad).unlink()


if __name__ == "__main__":
    unittest.main()
