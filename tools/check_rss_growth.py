#!/usr/bin/env python3
"""Memory-growth gate: peak RSS must not grow with the request count.

Runs one command twice, with `--requests SMALL` and `--requests LARGE`
appended, reads each child's own peak RSS (os.wait4), and fails when the
larger run peaks more than --max-growth-mb above the smaller one. A cache
that keeps one entry per distinct input (say, one BFS tree per rejected
source) shows up here as growth proportional to the stream.

Exit codes: 0 ok, 1 growth over the limit or a failed run, 2 usage error.

Usage:
  check_rss_growth.py --small 500 --large 2000 --max-growth-mb 50 -- \
      build/tufp_engine --scenario grid --rows 100 --cols 100 --capacity 1
"""
import argparse
import os
import subprocess
import sys


def peak_rss_mb(command):
    """Runs `command` to completion; returns (exit status, peak RSS MB)."""
    child = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, usage.ru_maxrss / 1024.0  # Linux: KiB


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--small", type=int, required=True)
    ap.add_argument("--large", type=int, required=True)
    ap.add_argument("--max-growth-mb", type=float, required=True)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command or args.small >= args.large:
        ap.print_usage(sys.stderr)
        return 2
    peaks = []
    for requests in (args.small, args.large):
        rc, mb = peak_rss_mb(command + ["--requests", str(requests)])
        print("requests %d: exit %d, peak RSS %.1f MB" % (requests, rc, mb))
        if rc != 0:
            return 1
        peaks.append(mb)
    growth = peaks[1] - peaks[0]
    print("growth %.1f MB (limit %.1f)" % (growth, args.max_growth_mb))
    return 1 if growth > args.max_growth_mb else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
