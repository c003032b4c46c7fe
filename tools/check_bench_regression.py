#!/usr/bin/env python3
"""CI bench-regression gate for benchmark JSON output.

Compares a current JSON run against a committed baseline and fails when
the throughput of any benchmark present in both files regresses by more
than --threshold (default 20%). Two formats are recognized by shape:

* google-benchmark (``bench_perf_runtime --json``, baseline
  ``bench/baseline.json``): an object with a ``benchmarks`` array.
  Throughput is items_per_second when reported, otherwise 1/real_time;
  when a run contains repetition aggregates
  (--benchmark_repetitions=N), only the *_median rows are compared.
* engine-throughput (``bench_engine_throughput --json``, baseline
  ``bench/baseline_engine.json``): a top-level array of case rows.
  Throughput is ``clear_requests_per_second`` — this covers the
  steady-state lease cases (grid8-lease-exp-*) alongside the fill-phase
  ones.

Usage:
  check_bench_regression.py BASELINE CURRENT [--threshold 0.20]
  check_bench_regression.py --update BASELINE CURRENT   # refresh baseline
  check_bench_regression.py BASELINE CURRENT \
      --min-ratio grid12-dual-t4/grid12-dual-t1=1

--min-ratio asserts a throughput ratio between two cases of the CURRENT
run (repeatable). It gates *relative* claims — e.g. "the t4 row clears
at least as fast as its t1 row" — which stay meaningful across machine
classes where absolute numbers do not.

NUM_CASE may contain a single ``*`` glob; it is matched against the
current run's case names and whatever the ``*`` captured is substituted
into DEN_CASE's ``*``, so one spec gates a whole family::

    --min-ratio 'grid*-dual-t4/grid*-dual-t1=1'

A glob that matches nothing is a broken gate and fails hard (exit 2),
like a missing named case — and so is a gate case absent from the
BASELINE (e.g. a glob that matched a new case whose rows were never
baselined): the gate's absolute-regression leg
would otherwise silently skip. An exact (glob-free) spec naming the same
NUM/DEN pair overrides the glob-derived bound, so a family default can
carry per-case exceptions.

Caveat (documented in README.md): absolute numbers are machine-class
specific. The committed baseline is meaningful on runners comparable to
the one that produced it; refresh it with --update (or by copying the CI
artifact) whenever the runner class or the benchmark set changes.
"""

import argparse
import json
import shutil
import sys

MEDIAN_SUFFIX = "_median"


def expand_ratio_gates(specs, current_cases):
    """Expands --min-ratio specs against the current run's case names.

    `specs` is a list of (num_pattern, den_pattern, bound) from the
    parser; patterns either contain no ``*`` (exact) or exactly one
    ``*`` in both positions (validated at parse time). Returns a sorted
    list of concrete (num, den, bound) gates, or raises ValueError with
    a message naming the glob when a pattern matches no current case.

    Exact specs are applied last so they override a glob-derived gate
    for the same (num, den) pair.
    """
    derived = {}
    exact = {}
    for num, den, bound in specs:
        if "*" not in num:
            exact[(num, den)] = bound
            continue
        prefix, suffix = num.split("*")
        matched = False
        for name in current_cases:
            if (len(name) >= len(prefix) + len(suffix)
                    and name.startswith(prefix) and name.endswith(suffix)):
                capture = name[len(prefix):len(name) - len(suffix)]
                derived[(name, den.replace("*", capture))] = bound
                matched = True
        if not matched:
            raise ValueError(
                f"--min-ratio glob {num!r} matched no case in the current "
                f"run")
    derived.update(exact)
    return sorted((num, den, bound) for (num, den), bound in derived.items())


def load_rows(path):
    with open(path) as f:
        data = json.load(f)
    if isinstance(data, list):
        # bench_engine_throughput format: one object per case. A zero
        # throughput is kept (ratio 0 => flagged as a regression), not
        # dropped: a case collapsing to zero must fail the gate, not
        # silently leave the compared set.
        out = {}
        for row in data:
            name = row.get("case")
            throughput = row.get("clear_requests_per_second")
            if name is not None and throughput is not None:
                out[name] = float(throughput)
        return out
    rows = data.get("benchmarks", [])
    medians = [r for r in rows if r.get("name", "").endswith(MEDIAN_SUFFIX)]
    if medians:
        rows = medians
    out = {}
    for row in rows:
        name = row.get("name")
        if name is None:
            # Malformed or foreign row (e.g. a context object leaking into
            # the array): skip it rather than KeyError the whole gate.
            print(f"warning: {path}: skipping benchmark row without a "
                  f"'name' field", file=sys.stderr)
            continue
        if name.endswith(MEDIAN_SUFFIX):
            name = name[: -len(MEDIAN_SUFFIX)]
        throughput = row.get("items_per_second")
        if throughput is None:
            real_time = row.get("real_time")
            if not real_time:
                continue
            throughput = 1.0 / real_time
        out[name] = float(throughput)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max tolerated fractional throughput drop")
    parser.add_argument("--update", action="store_true",
                        help="overwrite BASELINE with CURRENT and exit")
    parser.add_argument("--min-ratio", action="append", default=[],
                        metavar="NUM_CASE/DEN_CASE=X",
                        help="fail unless current[NUM]/current[DEN] >= X; "
                             "repeatable; NUM may hold one '*' glob whose "
                             "capture substitutes into DEN's '*'")
    args = parser.parse_args()

    ratio_specs = []
    for spec in args.min_ratio:
        try:
            cases, bound = spec.rsplit("=", 1)
            numerator, denominator = cases.split("/", 1)
            ratio_specs.append((numerator, denominator, float(bound)))
        except ValueError:
            parser.error(f"--min-ratio expects NUM_CASE/DEN_CASE=X, got "
                         f"{spec!r}")
        if "*" in numerator or "*" in denominator:
            # One capture, one substitution site: anything else is
            # ambiguous, so reject it at parse time.
            if numerator.count("*") != 1 or denominator.count("*") != 1:
                parser.error(f"--min-ratio glob needs exactly one '*' in "
                             f"both NUM and DEN, got {spec!r}")

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"baseline updated: {args.baseline} <- {args.current}")
        return 0

    baseline = load_rows(args.baseline)
    current = load_rows(args.current)
    try:
        ratio_gates = expand_ratio_gates(ratio_specs, sorted(current))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A ratio-gated case must exist in the BASELINE too. The gate names
    # its cases as durable acceptance criteria, so a gate case absent
    # from the committed baseline means the baseline predates the gate —
    # a broken gate, exactly like a glob matching nothing. Without this
    # check the case would fall into the generic "missing from the
    # baseline" warning below and its absolute-regression leg would
    # silently never run.
    gate_cases = sorted({c for num, den, _ in ratio_gates for c in (num, den)})
    stale = [c for c in gate_cases if c not in baseline]
    if stale:
        print(f"error: --min-ratio case(s) absent from the baseline: "
              f"{', '.join(stale)}; refresh the baseline with --update",
              file=sys.stderr)
        return 2
    shared = sorted(set(baseline) & set(current))
    if not shared:
        print("error: no benchmarks in common between baseline and current",
              file=sys.stderr)
        return 2

    regressions = []
    width = max(len(n) for n in shared)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  ratio")
    for name in shared:
        ratio = current[name] / baseline[name] if baseline[name] > 0 else 0.0
        flag = ""
        if ratio < 1.0 - args.threshold:
            flag = "  << REGRESSION"
            regressions.append((name, ratio))
        print(f"{name:<{width}}  {baseline[name]:>12.4g}  "
              f"{current[name]:>12.4g}  {ratio:5.2f}{flag}")

    missing = sorted(set(baseline) - set(current))
    if missing:
        print(f"note: {len(missing)} baseline benchmark(s) absent from the "
              f"current run: {', '.join(missing)}")
    # New benchmarks not yet in the committed baseline are expected right
    # after a bench suite grows: warn (so the baseline gets refreshed) but
    # never fail — the gate compares only the intersection.
    unbaselined = sorted(set(current) - set(baseline))
    if unbaselined:
        print(f"warning: {len(unbaselined)} benchmark(s) missing from the "
              f"baseline, skipped: {', '.join(unbaselined)}; refresh with "
              f"--update", file=sys.stderr)

    ratio_failures = []
    for numerator, denominator, bound in ratio_gates:
        # A ratio gate names its cases explicitly: a missing case is a
        # broken gate, not a skippable row, so it fails loudly.
        missing_cases = [c for c in (numerator, denominator) if c not in current]
        if missing_cases:
            print(f"error: --min-ratio case(s) absent from the current run: "
                  f"{', '.join(missing_cases)}", file=sys.stderr)
            return 2
        ratio = (current[numerator] / current[denominator]
                 if current[denominator] > 0 else float("inf"))
        ok = ratio >= bound
        print(f"ratio gate: {numerator}/{denominator} = {ratio:.2f}x "
              f"(required >= {bound:g}x) {'OK' if ok else '<< FAIL'}")
        if not ok:
            ratio_failures.append((numerator, denominator, ratio, bound))

    if regressions or ratio_failures:
        if regressions:
            worst = min(regressions, key=lambda r: r[1])
            print(f"\nFAIL: {len(regressions)} benchmark(s) regressed more "
                  f"than {args.threshold:.0%} (worst: {worst[0]} at "
                  f"{worst[1]:.2f}x)", file=sys.stderr)
        for numerator, denominator, ratio, bound in ratio_failures:
            print(f"FAIL: {numerator}/{denominator} = {ratio:.2f}x, "
                  f"required >= {bound:g}x", file=sys.stderr)
        return 1
    print(f"\nOK: no benchmark regressed more than {args.threshold:.0%} "
          f"across {len(shared)} compared"
          + (f"; {len(ratio_gates)} ratio gate(s) held" if ratio_gates else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
