#!/usr/bin/env python3
"""Self-tests of the benchmark's own helpers.

    python3 perfbench/test_perfbench.py

Covers percentiles, the serve-wire session generator (every hostile line
planned into `invalid` exactly once, durations never printed as zero),
telemetry parsing and the FIFO request-to-epoch accounting. When the
driver binary has been built (perfbench/run.py builds it), also runs its
C++ self-test: nearest-rank percentiles and open-loop due-time accounting.
"""
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(benchlib.percentile(values, 0.5), 50)
        self.assertEqual(benchlib.percentile(values, 0.99), 99)
        self.assertEqual(benchlib.percentile(values, 1.0), 100)

    def test_small_samples(self):
        self.assertEqual(benchlib.percentile([], 0.5), 0.0)
        self.assertEqual(benchlib.percentile([7.0], 0.99), 7.0)
        self.assertEqual(benchlib.percentile([3.0, 1.0, 2.0], 0.5), 2.0)

    def test_median(self):
        self.assertEqual(benchlib.median([3, 1, 2]), 2)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_quartile_spread(self):
        self.assertAlmostEqual(benchlib.quartile_spread([10.0] * 5), 0.0)
        self.assertGreater(benchlib.quartile_spread([1.0, 2.0, 3.0, 4.0]), 0)


class SessionTest(unittest.TestCase):
    def setUp(self):
        self.session = benchlib.make_session(11, 20000)
        self.text = b"".join(self.session.chunks).decode()

    def test_deterministic_in_seed(self):
        again = benchlib.make_session(11, 20000)
        self.assertEqual(again.chunks, self.session.chunks)
        other = benchlib.make_session(12, 20000)
        self.assertNotEqual(other.chunks, self.session.chunks)

    def test_line_accounting(self):
        s = self.session
        lines = self.text.split("\n")
        self.assertEqual(len(lines), s.lines)
        self.assertEqual(lines[-1], "req 1 2 0.5")  # truncated, no newline
        reqs = [l for l in lines if l.startswith("req ")]
        self.assertEqual(len(reqs), s.requests)
        # ~1 % hostile lines plus the truncated frame.
        self.assertGreater(s.invalid, 100)
        self.assertLess(s.invalid, 400)

    def test_every_hostile_line_is_planned_invalid(self):
        lines = self.text.split("\n")[:-1]
        hostile = 0
        queued = 0
        for line in lines:
            tok = line.split()
            if tok[0] != "req":
                continue
            bad = False
            try:
                src, dst = int(tok[1]), int(tok[2])
                demand, value = float(tok[3]), float(tok[4])
                duration = float(tok[6])
                # A shed at the wire: 1e999 overflows the daemon's stod.
                if value == float("inf"):
                    bad = True
                else:
                    queued += 1
                    bad = not (0 < demand <= 1 and value > 0 and duration > 0
                               and 0 <= src < 256 and 0 <= dst < 256)
            except ValueError:
                bad = True
            hostile += bad
        self.assertEqual(hostile + 1, self.session.invalid)
        self.assertEqual(queued, len(self.session.chunk_of_queued))

    def test_durations_never_print_as_zero(self):
        for line in self.text.split("\n")[:-1]:
            tok = line.split()
            if tok[0] == "req" and len(tok) == 7 and tok[6] != "0":
                self.assertGreater(float(tok[6]), 0.0, line)

    def test_small_durations_keep_their_digits(self):
        self.assertEqual(benchlib._fmt(1.5e-7), "1.5e-07")
        self.assertGreater(float(benchlib._fmt(1e-12)), 0.0)

    def test_chunk_of_queued_is_nondecreasing(self):
        c = self.session.chunk_of_queued
        self.assertEqual(c, sorted(c))
        self.assertLess(c[-1], len(self.session.chunks) - 1)


class TelemetryTest(unittest.TestCase):
    def test_parse_and_summary(self):
        text = "\n".join([
            '{"event":"meta","chan":"det"}',
            "tufp_serve: shedding malformed line (5 bytes)",
            '{"event":"summary","chan":"det","requests":3,"invalid":1}',
            "",
            '[1,2]',
        ])
        events, junk = benchlib.parse_telemetry(text)
        self.assertEqual([e["event"] for e in events], ["meta", "summary"])
        self.assertEqual(junk, 2)
        self.assertEqual(benchlib.summary_event(events)["invalid"], 1)
        self.assertIsNone(benchlib.summary_event(events[:1]))

    def test_assign_epochs_is_fifo(self):
        self.assertEqual(benchlib.assign_epochs([2, 0, 3], 5),
                         [0, 0, 2, 2, 2])
        with self.assertRaises(ValueError):
            benchlib.assign_epochs([2, 2], 5)


class MetricNamesTest(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        import json
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.E2E))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.LAYERS))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


class DriverSelfTest(unittest.TestCase):
    def test_driver_helpers(self):
        driver = os.path.join(run.build_dir(), "perfbench_driver")
        if not os.path.exists(driver):
            self.skipTest("perfbench_driver not built yet")
        proc = subprocess.run([driver, "--self-test"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
        self.assertEqual(proc.returncode, 0, proc.stderr.decode())


if __name__ == "__main__":
    unittest.main()
