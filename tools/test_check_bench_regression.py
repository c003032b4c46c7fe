#!/usr/bin/env python3
"""Checks for check_bench_regression.py (run in CI as a ctest).

Pins the gate's contract on mismatched benchmark sets: a candidate row
missing from the baseline (fresh benchmark, baseline not yet refreshed)
is skipped with a warning, never a KeyError or a failure; a row without a
name is skipped with a warning; genuine regressions on the shared set
still fail. Uses only the standard library (unittest) so it runs in the
bare CI container; pytest collects these classes too if present.
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as gate  # noqa: E402


def google_bench(rows):
    return {"benchmarks": rows}


class Harness(unittest.TestCase):
    def run_gate(self, baseline, current, argv=()):
        tmp = tempfile.mkdtemp(prefix="bench_gate_")
        base_path = os.path.join(tmp, "baseline.json")
        cur_path = os.path.join(tmp, "current.json")
        with open(base_path, "w") as f:
            json.dump(baseline, f)
        with open(cur_path, "w") as f:
            json.dump(current, f)
        out, err = io.StringIO(), io.StringIO()
        old_argv = sys.argv
        sys.argv = ["check_bench_regression.py", base_path, cur_path,
                    *argv]
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = gate.main()
        finally:
            sys.argv = old_argv
        return rc, out.getvalue(), err.getvalue()


class CandidateOnlyBenchmarks(Harness):
    def test_skipped_with_warning_not_keyerror(self):
        # The regression this file exists for: a benchmark added to the
        # suite before the committed baseline is refreshed must be
        # skipped with a warning — the gate used to die on mismatched
        # sets instead of comparing the intersection.
        baseline = google_bench(
            [{"name": "bm_old", "items_per_second": 100.0}])
        current = google_bench(
            [{"name": "bm_old", "items_per_second": 99.0},
             {"name": "bm_new", "items_per_second": 5.0}])
        rc, out, err = self.run_gate(baseline, current)
        self.assertEqual(rc, 0, msg=out + err)
        self.assertIn("bm_new", err)
        self.assertIn("missing from the baseline", err)
        self.assertIn("--update", err)

    def test_engine_throughput_format_too(self):
        baseline = [{"case": "grid8", "clear_requests_per_second": 1e5}]
        current = [{"case": "grid8", "clear_requests_per_second": 1e5},
                   {"case": "grid8-lease", "clear_requests_per_second": 2e4}]
        rc, out, err = self.run_gate(baseline, current)
        self.assertEqual(rc, 0, msg=out + err)
        self.assertIn("grid8-lease", err)


class MalformedRows(Harness):
    def test_row_without_name_is_skipped(self):
        baseline = google_bench(
            [{"name": "bm_a", "items_per_second": 100.0}])
        current = google_bench(
            [{"items_per_second": 3.0},  # foreign row: no name
             {"name": "bm_a", "items_per_second": 100.0}])
        rc, out, err = self.run_gate(baseline, current)
        self.assertEqual(rc, 0, msg=out + err)
        self.assertIn("without a 'name' field", err)


class SharedSetStillGated(Harness):
    def test_regression_on_shared_benchmark_fails(self):
        baseline = google_bench(
            [{"name": "bm_a", "items_per_second": 100.0}])
        current = google_bench(
            [{"name": "bm_a", "items_per_second": 10.0},
             {"name": "bm_new", "items_per_second": 1.0}])
        rc, out, err = self.run_gate(baseline, current)
        self.assertEqual(rc, 1, msg=out + err)
        self.assertIn("REGRESSION", out)

    def test_no_overlap_is_a_hard_error(self):
        baseline = google_bench(
            [{"name": "bm_gone", "items_per_second": 1.0}])
        current = google_bench(
            [{"name": "bm_new", "items_per_second": 1.0}])
        rc, out, err = self.run_gate(baseline, current)
        self.assertEqual(rc, 2, msg=out + err)

    def test_baseline_only_benchmark_noted(self):
        baseline = google_bench(
            [{"name": "bm_a", "items_per_second": 100.0},
             {"name": "bm_gone", "items_per_second": 50.0}])
        current = google_bench(
            [{"name": "bm_a", "items_per_second": 100.0}])
        rc, out, err = self.run_gate(baseline, current)
        self.assertEqual(rc, 0, msg=out + err)
        self.assertIn("bm_gone", out)


class RatioGates(Harness):
    BASELINE = [{"case": "w-persistent", "clear_requests_per_second": 5e4},
                {"case": "w-snapshot", "clear_requests_per_second": 5e3}]

    def test_holding_ratio_passes(self):
        current = [{"case": "w-persistent", "clear_requests_per_second": 5.2e4},
                   {"case": "w-snapshot", "clear_requests_per_second": 5e3}]
        rc, out, err = self.run_gate(
            self.BASELINE, current,
            argv=["--min-ratio", "w-persistent/w-snapshot=5"])
        self.assertEqual(rc, 0, msg=out + err)
        self.assertIn("ratio gate", out)
        self.assertIn("1 ratio gate(s) held", out)

    def test_broken_ratio_fails(self):
        # Absolute throughput fine (no regression) but the persistent
        # core lost its relative edge: exactly what the ratio gate is for.
        current = [{"case": "w-persistent", "clear_requests_per_second": 1.8e4},
                   {"case": "w-snapshot", "clear_requests_per_second": 6e3}]
        rc, out, err = self.run_gate(
            self.BASELINE, current,
            argv=["--threshold", "0.8",
                  "--min-ratio", "w-persistent/w-snapshot=5"])
        self.assertEqual(rc, 1, msg=out + err)
        self.assertIn("required >= 5x", err)

    def test_missing_ratio_case_is_a_hard_error(self):
        current = [{"case": "w-persistent", "clear_requests_per_second": 5e4},
                   {"case": "w-snapshot", "clear_requests_per_second": 5e3}]
        rc, out, err = self.run_gate(
            self.BASELINE, current,
            argv=["--min-ratio", "w-persistent/w-gone=5"])
        self.assertEqual(rc, 2, msg=out + err)
        self.assertIn("w-gone", err)


class RatioGateBaselineCoverage(Harness):
    # A gate case present in the CURRENT run but absent from the BASELINE
    # used to fall into the generic "missing from the baseline" warning
    # and skip the gate case's absolute-regression leg silently. It is a
    # broken gate (stale baseline) and must fail hard, like a glob that
    # matches nothing.
    CURRENT = [
        {"case": "scale-grid316-persistent", "clear_requests_per_second": 4e4},
        {"case": "scale-grid316-t4-persistent",
         "clear_requests_per_second": 3.5e4},
    ]

    def test_exact_gate_case_absent_from_baseline_is_a_hard_error(self):
        baseline = [self.CURRENT[0]]  # t4 rows never baselined
        rc, out, err = self.run_gate(
            baseline, self.CURRENT,
            argv=["--min-ratio",
                  "scale-grid316-t4-persistent/"
                  "scale-grid316-persistent=0.5"])
        self.assertEqual(rc, 2, msg=out + err)
        self.assertIn("absent from the baseline", err)
        self.assertIn("scale-grid316-t4-persistent", err)
        self.assertIn("--update", err)

    def test_glob_substituted_pair_absent_from_baseline_is_a_hard_error(self):
        # The glob matches the persistent leg in the CURRENT run, so
        # expansion succeeds — but the substituted pair was never
        # baselined. This is the skip-with-warning bug pinned as exit 2.
        baseline = [{"case": "unrelated", "clear_requests_per_second": 1.0},
                    self.CURRENT[0]]
        rc, out, err = self.run_gate(
            baseline, self.CURRENT,
            argv=["--min-ratio",
                  "scale-grid316-t4-*/scale-grid316-*=0.5"])
        self.assertEqual(rc, 2, msg=out + err)
        self.assertIn("absent from the baseline", err)

    def test_fully_baselined_gate_still_passes(self):
        rc, out, err = self.run_gate(
            self.CURRENT, self.CURRENT,
            argv=["--min-ratio",
                  "scale-grid316-t4-persistent/"
                  "scale-grid316-persistent=0.5"])
        self.assertEqual(rc, 0, msg=out + err)
        self.assertIn("1 ratio gate(s) held", out)


class GlobRatioGates(Harness):
    # The churn-tier layout the glob syntax exists for: one spec gates
    # every persistent/snapshot pair in the family at once.
    BASELINE = [
        {"case": "scale-churn-grid-exp-persistent",
         "clear_requests_per_second": 4e4},
        {"case": "scale-churn-grid-exp-snapshot",
         "clear_requests_per_second": 1e4},
        {"case": "scale-churn-tel-flash-persistent",
         "clear_requests_per_second": 3e4},
        {"case": "scale-churn-tel-flash-snapshot",
         "clear_requests_per_second": 1e4},
    ]
    GLOB = "scale-churn-*-persistent/scale-churn-*-snapshot=2"

    def test_glob_expands_to_every_pair_and_holds(self):
        rc, out, err = self.run_gate(
            self.BASELINE, self.BASELINE, argv=["--min-ratio", self.GLOB])
        self.assertEqual(rc, 0, msg=out + err)
        self.assertIn("scale-churn-grid-exp-persistent/"
                      "scale-churn-grid-exp-snapshot", out)
        self.assertIn("scale-churn-tel-flash-persistent/"
                      "scale-churn-tel-flash-snapshot", out)
        self.assertIn("2 ratio gate(s) held", out)

    def test_one_pair_below_bound_fails(self):
        current = [dict(row) for row in self.BASELINE]
        current[2]["clear_requests_per_second"] = 1.5e4  # tel-flash: 1.5x
        rc, out, err = self.run_gate(
            self.BASELINE, current,
            argv=["--threshold", "0.6", "--min-ratio", self.GLOB])
        self.assertEqual(rc, 1, msg=out + err)
        self.assertIn("scale-churn-tel-flash-persistent", err)
        self.assertIn("required >= 2x", err)

    def test_glob_matching_nothing_is_a_hard_error(self):
        rc, out, err = self.run_gate(
            self.BASELINE, self.BASELINE,
            argv=["--min-ratio", "scale-churn-*-gone/scale-churn-*-snap=2"])
        self.assertEqual(rc, 2, msg=out + err)
        self.assertIn("matched no case", err)

    def test_exact_spec_overrides_glob_for_its_pair(self):
        current = [dict(row) for row in self.BASELINE]
        current[2]["clear_requests_per_second"] = 1.5e4  # tel-flash: 1.5x
        rc, out, err = self.run_gate(
            self.BASELINE, current,
            argv=["--threshold", "0.6",
                  "--min-ratio", self.GLOB,
                  "--min-ratio",
                  "scale-churn-tel-flash-persistent/"
                  "scale-churn-tel-flash-snapshot=1.2"])
        self.assertEqual(rc, 0, msg=out + err)
        self.assertIn("required >= 1.2x", out)


if __name__ == "__main__":
    unittest.main()
