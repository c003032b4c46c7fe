#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload hub-churn --seeds 1-10 \
        [--trace 0] [--seconds 20] [--jsonl runs.jsonl]

For every metric: the median over the runs and the quartile spread
(Q3 - Q1) / median, quartiles as statistics.quantiles(values, n=4) gives
them. Also prints each run's wall time. Exits nonzero if any run failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--jsonl", help="append every result line here")
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    results, bad = [], 0
    for seed in seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        line = proc.stdout.decode().strip().splitlines()[-1:]
        result = json.loads(line[0]) if line else None
        ok = proc.returncode == 0 and result and result["correct"]
        bad += not ok
        print("seed %d: exit %d, %.1f s, correct %s"
              % (seed, proc.returncode, wall, bool(ok)), flush=True)
        if result:
            results.append(result)
            if args.jsonl:
                with open(args.jsonl, "a") as f:
                    f.write(json.dumps(dict(result, seed=seed,
                                            workload=args.workload,
                                            trace=args.trace)) + "\n")
    if len(results) >= 2:
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            spread = benchlib.quartile_spread(values) if med else float("nan")
            print("%-30s median %-12.6g spread %.4f" % (name, med, spread))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
