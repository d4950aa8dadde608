#!/usr/bin/env python3
"""Builds the Re-Chord benchmark from source and runs one workload.

    python3 perfbench/run.py --workload {bringup|churn|lookups} \
        --seed N --seconds S --trace {0|1}

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when it is unset (relative paths are taken from the checkout
root); build output goes to stderr. Every run first runs the oracle
self-tests, then the benchmark, whose last stdout line is the result JSON.
Exits non-zero, without a result, when the build, the self-tests or the
benchmark fail.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bringup", "churn", "lookups")
SELFTEST_TIMEOUT_S = 60


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", out, "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")

    out = build_dir()
    if not build(out):
        print("benchmark build failed", file=sys.stderr)
        return 1
    selftest = subprocess.run([os.path.join(out, "oracle_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=SELFTEST_TIMEOUT_S)
    if selftest.returncode:
        print("oracle self-tests failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # The slowest workload, churn, takes about 1.6 x --seconds.
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=3 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1
    if run.returncode:
        sys.stderr.write(run.stdout)
        print(f"benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
