#!/usr/bin/env python3
"""Repository benchmark: one command per workload, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md for why each exists):
  contended-critical  in-process, 12x12 grid, critical payments, t2
  hub-churn           in-process, 316x316 grid, hub-local churn, t1
  serve-wire          tufp_serve over a Unix socket, seeded hostile session

Builds the tufp library, tufp_serve and perfbench_driver from the enclosing
source tree into $CARGO_TARGET_DIR (default .bench_build) on first use.
With --trace 0 the last stdout line carries the end-to-end metrics of an
untraced run; with --trace 1 the per-layer metrics of a traced run. Every
run checks its outputs; a wrong output makes the command exit nonzero.
"""
import argparse
import json
import math
import os
import shutil
import socket
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the source tree

import benchlib  # noqa: E402

E2E = (
    ("setup_s", "s"),
    ("decide_rps", "req/s"),
    ("decision_p50_ms", "ms"),
    ("decision_p99_ms", "ms"),
    ("admitted_fraction", "1"),
    ("value_share", "1"),
    ("peak_rss_mb", "MB"),
)

LAYERS = (
    ("mechanism.payments_s", "s"),
    ("mechanism.revenue_share", "1"),
    ("graph.open_epoch_s", "s"),
    ("ufp.solve_s", "s"),
    ("ufp.sp_refresh_s", "s"),
    ("ufp.sp_computations", "count"),
    ("ufp.sp_tree_runs", "count"),
    ("ufp.tree_miss_ratio", "1"),
    ("ufp.trees_kept_on_reclaim", "count"),
    ("ufp.trees_dropped_on_reclaim", "count"),
    ("ufp.iterations", "count"),
    ("temporal.reclaim_s", "s"),
    ("temporal.leases_expired", "count"),
    ("engine.clear_s", "s"),
    ("engine.epoch_p50_ms", "ms"),
    ("engine.epoch_p99_ms", "ms"),
    ("engine.commit_s", "s"),
    ("engine.validate_s", "s"),
    ("parallel.cpu_per_wall", "1"),
    ("obs.telemetry_s", "s"),
    ("obs.span_overhead", "1"),
    ("obs.trace_overhead", "1"),
    ("obs.trace_bytes_per_req", "B/req"),
    ("serve.engine_s", "s"),
    ("serve.wire_s", "s"),
    ("serve.invalid", "count"),
    ("driver.late_p99_ms", "ms"),
)

IN_PROCESS = ("contended-critical", "hub-churn")
WORKLOADS = IN_PROCESS + ("serve-wire",)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds the driver and daemon; returns bin dir."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench_driver", "tufp_serve"],
                   check=True, stdout=sys.stderr)
    return out


# ------------------------------------------------------------- in-process

def run_in_process(bindir, workload, seed, seconds, trace):
    cmd = [os.path.join(bindir, "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed nothing (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    for err in result["errors"]:
        log("check failed: " + err["error"])
    log("diag " + json.dumps(result["diag"]))
    metrics = dict(result["layers"] if trace else result["e2e"])
    if trace:
        metrics.update({"obs.trace_overhead": 0.0,
                        "obs.trace_bytes_per_req": 0.0,
                        "serve.engine_s": 0.0, "serve.wire_s": 0.0,
                        "serve.invalid": 0})
    ok = result["ok"] and proc.returncode == 0
    return ok, result["attempted"], result["failed"], metrics


# ------------------------------------------------------------- serve-wire

# The daemon's world and triggers; the session's request rate and lease
# durations live in benchlib.make_session.
SERVE_ARGS = ["--rows", "16", "--cols", "16", "--capacity", "6",
              "--payments", "dual", "--epoch-duration", "0.005",
              "--max-batch", "4096", "--threads", "1", "--sanity", "every-64"]
SESSION_LINES = 40000    # protocol lines per session
SESSION_SECONDS = 2.5    # run length budgeted per timed session
QUICK_STARTS = 15        # extra daemon starts sampled for setup_s


class Daemon:
    """One tufp_serve --listen process with its stderr read on a thread.

    The wall channel (epoch_wall events) goes to stderr, which the daemon
    flushes per event, so each event is timestamped as it arrives.
    """

    def __init__(self, serve, workdir, trace_path=None):
        self.sock_path = os.path.relpath(os.path.join(workdir, "s.sock"))
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        self.det_path = os.path.join(workdir, "det.jsonl")
        args = [serve, "--listen", self.sock_path] + SERVE_ARGS
        if trace_path:
            args += ["--trace", trace_path]
        self.wall = []  # (arrival time, parsed wall event)
        self.t_spawn = time.perf_counter()
        with open(self.det_path, "wb") as det:
            self.proc = subprocess.Popen(args, stdout=det,
                                         stderr=subprocess.PIPE)
        self.reader = threading.Thread(target=self._read_stderr)
        self.reader.start()
        # A hung daemon must not outlive the run's time limit.
        self.watchdog = threading.Timer(150.0, self.proc.kill)
        self.watchdog.start()

    def _read_stderr(self):
        # Lines that are not JSON are the daemon's notes (listening,
        # shedding a line): timestamps matter only for wall events.
        for raw in self.proc.stderr:
            now = time.perf_counter()
            if raw.startswith(b"{"):
                self.wall.append((now, json.loads(raw)))

    def connect(self, timeout=10.0):
        """Connects once the socket accepts; returns the connected socket."""
        deadline = time.perf_counter() + timeout
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
                return s
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                if time.perf_counter() > deadline or self.proc.poll() is not None:
                    raise RuntimeError("tufp_serve never opened its socket")
                time.sleep(0.0002)

    def wait(self):
        """Reaps the daemon; returns (exit code, peak RSS MB, CPU seconds)."""
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.watchdog.cancel()
        self.reader.join()
        self.proc.stderr.close()
        return (self.proc.returncode, usage.ru_maxrss / 1024.0,
                usage.ru_utime + usage.ru_stime)

    def kill(self):
        if self.proc.returncode is None and self.proc.poll() is None:
            self.proc.kill()
            self.wait()


def send_shutdown(daemon):
    s = daemon.connect()
    s.sendall(b"shutdown\n")
    s.close()


def quick_start(serve, workdir):
    """Daemon start until its socket accepts, then an empty session."""
    d = Daemon(serve, workdir)
    try:
        s = d.connect()
        setup = time.perf_counter() - d.t_spawn
        s.sendall(b"shutdown\n")
        s.close()
        code, _, _ = d.wait()
        if code != 0:
            raise RuntimeError("empty session exited %d" % code)
        return setup
    finally:
        d.kill()


def run_session(serve, workdir, session, traced):
    """Replays `session` through a fresh daemon and checks its outputs."""
    trace_path = os.path.join(workdir, "trace.jsonl") if traced else None
    d = Daemon(serve, workdir, trace_path)
    errors = []
    try:
        conn = d.connect()
        t_connect = time.perf_counter()
        setup = t_connect - d.t_spawn
        sent = []
        for chunk in session.chunks:
            conn.sendall(chunk)
            sent.append(time.perf_counter())
        conn.close()
        send_shutdown(d)
        code, rss, cpu = d.wait()
        t_exit = time.perf_counter()
    finally:
        d.kill()

    with open(d.det_path, "rb") as f:
        det_bytes = f.read()
    events, junk = benchlib.parse_telemetry(det_bytes.decode())
    summary = benchlib.summary_event(events)
    if code != 0:
        errors.append("tufp_serve exited %d" % code)
    if junk:
        errors.append("%d non-JSON lines on the det channel" % junk)
    if summary is None:
        errors.append("no det summary event")
        summary = {}
    sanity = [e for e in events if e["event"] == "sanity"]
    violations = sum(e["violations"] for e in sanity)
    if not sanity or violations:
        errors.append("sanity sweeps %d, violations %d"
                      % (len(sanity), violations))
    requests = summary.get("requests", 0)
    decided = (summary.get("admitted", 0) + summary.get("rejected", 0)
               + summary.get("invalid", 0) + summary.get("queue_dropped", 0))
    classes = (summary.get("no_path", 0) + summary.get("capacity_blocked", 0)
               + summary.get("lost_auction", 0)
               + summary.get("shard_conflict", 0))
    if requests != session.requests:
        errors.append("daemon saw %d requests, session sent %d"
                      % (requests, session.requests))
    if decided != requests or classes != summary.get("rejected", 0):
        errors.append("decisions do not partition the %d requests" % requests)
    if summary.get("invalid") != session.invalid:
        errors.append("invalid %s, planned %d"
                      % (summary.get("invalid"), session.invalid))

    # Ingest->decision latency: from the sendall() that handed a request's
    # chunk to the socket to the arrival of its epoch's wall event.
    epochs = [e for e in events if e["event"] == "epoch"]
    walls = [(t, e) for t, e in d.wall if e["event"] == "epoch_wall"]
    latencies = []
    try:
        owner = benchlib.assign_epochs([e["batch"] for e in epochs],
                                       len(session.chunk_of_queued))
        if len(walls) != len(epochs):
            raise ValueError("%d epoch_wall events for %d epochs"
                             % (len(walls), len(epochs)))
        for i, chunk in enumerate(session.chunk_of_queued):
            latencies.append(walls[owner[i]][0] - sent[chunk])
    except ValueError as e:
        errors.append(str(e))

    wall = t_exit - t_connect
    engine = sum(e["solve_seconds"] for _, e in walls)
    return {
        "errors": errors,
        "failed": abs(requests - decided) + violations + (code != 0),
        "det": det_bytes,
        "setup_s": setup,
        "wall_s": wall,
        "rps": requests / wall,
        "latencies": latencies,
        "rss_mb": rss,
        "cpu_s": cpu,
        "summary": summary,
        "engine_s": engine,
        "reclaim_s": sum(e["reclaim_seconds"] for _, e in walls),
        "epoch_s": [e["solve_seconds"] for _, e in walls],
        "trace_bytes": os.path.getsize(trace_path) if traced else 0,
    }


def run_serve(bindir, seed, seconds, trace):
    serve = os.path.join(bindir, "tufp", "tufp_serve")
    workdir = os.path.join(build_dir(), "serve-run")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    # The daemon's own first start after idle runs slow (cold page cache,
    # CPU ramp): a short untimed session comes first.
    warm = run_session(serve, workdir,
                       benchlib.make_session(seed + 7919, 20000), False)

    session = benchlib.make_session(seed, SESSION_LINES)
    plain, traced = [], []
    for _ in range(max(3, int(seconds / SESSION_SECONDS))):
        plain.append(run_session(serve, workdir, session, traced=False))
        if trace:
            traced.append(run_session(serve, workdir, session, traced=True))
    setups = [r["setup_s"] for r in plain + traced]
    setups += [quick_start(serve, workdir) for _ in range(QUICK_STARTS)]

    runs = plain + traced
    errors = [e for r in [warm] + runs for e in r["errors"]]
    if any(r["det"] != runs[0]["det"] for r in runs):
        errors.append("det channel differs between sessions of one seed")
    for e in errors:
        log("check failed: " + e)
    failed = sum(r["failed"] for r in [warm] + runs) + len(errors)
    attempted = warm["summary"].get("requests", 0) + session.requests * len(runs)
    log("serve-wire sessions: wall %s s"
        % ", ".join("%.3f" % r["wall_s"] for r in runs))
    ok = not errors and failed == 0
    med = benchlib.median
    # Per-session medians: one session is one sample of every timing.
    p = plain
    s = p[0]["summary"]
    if not trace:
        return ok, attempted, failed, {
            "setup_s": med(setups),
            "decide_rps": med([r["rps"] for r in p]),
            "decision_p50_ms": 1e3 * med(
                [benchlib.percentile(r["latencies"], 0.5) for r in p]),
            "decision_p99_ms": 1e3 * med(
                [benchlib.percentile(r["latencies"], 0.99) for r in p]),
            "admitted_fraction": s.get("admitted", 0)
            / max(1, s.get("requests", 0)),
            "value_share": s.get("admitted_value", 0.0)
            / max(1e-300, s.get("offered_value", 0.0)),
            "peak_rss_mb": med([r["rss_mb"] for r in p]),
        }
    engine = med([r["engine_s"] for r in p])
    plain_wall = med([r["wall_s"] for r in p])
    # Spans live inside the daemon and are not exported: the span-based
    # metrics, telemetry time and generator lateness print 0 here.
    metrics = {name: 0.0 for name, _ in LAYERS}
    metrics.update({
        "mechanism.revenue_share": s.get("revenue", 0.0)
        / max(1e-300, s.get("admitted_value", 0.0)),
        "ufp.sp_computations": s.get("sp_computations", 0),
        "ufp.sp_tree_runs": s.get("sp_tree_runs", 0),
        "ufp.tree_miss_ratio": s.get("sp_tree_runs", 0)
        / max(1, s.get("sp_computations", 0)),
        "ufp.trees_kept_on_reclaim": s.get("trees_kept_on_reclaim", 0),
        "ufp.trees_dropped_on_reclaim": s.get("trees_dropped_on_reclaim", 0),
        "ufp.iterations": s.get("solver_iterations", 0),
        "temporal.reclaim_s": med([r["reclaim_s"] for r in p]),
        "temporal.leases_expired": s.get("leases_expired", 0),
        "engine.clear_s": engine,
        "engine.epoch_p50_ms": 1e3 * med(
            [benchlib.percentile(r["epoch_s"], 0.5) for r in p]),
        "engine.epoch_p99_ms": 1e3 * med(
            [benchlib.percentile(r["epoch_s"], 0.99) for r in p]),
        "parallel.cpu_per_wall": med([r["cpu_s"] / r["wall_s"] for r in p]),
        "obs.trace_overhead": med([r["wall_s"] for r in traced])
        / plain_wall - 1.0,
        "obs.trace_bytes_per_req": med([r["trace_bytes"] for r in traced])
        / max(1, s.get("requests", 0)),
        "serve.engine_s": engine,
        "serve.wire_s": plain_wall - engine,
        "serve.invalid": s.get("invalid", 0),
    })
    return ok, attempted, failed, metrics


# -------------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        bindir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    trace = args.trace == 1
    if args.workload in IN_PROCESS:
        # A traced invocation runs the stream twice (untraced, then traced):
        # each gets half the run length.
        seconds = args.seconds / 2.0 if trace else float(args.seconds)
        ok, attempted, failed, values = run_in_process(
            bindir, args.workload, args.seed, seconds, trace)
    else:
        ok, attempted, failed, values = run_serve(
            bindir, args.seed, args.seconds / 2.0 if trace else args.seconds,
            trace)

    names = LAYERS if trace else E2E
    metrics = {}
    for name, unit in names:
        value = values.get(name)
        if value is None or not math.isfinite(value):
            log("metric %s missing or not finite" % name)
            ok = False
            continue
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
