#!/usr/bin/env python3
"""Steadiness check: runs every workload in two sets of runs and compares.

    python3 perfbench/steady.py [--traced]

Run from the root of a checkout. Every workload of BENCHMARK.json runs in
two sets of ten runs; set k uses seeds k*1000+1 .. k*1000+10. For every
workload and end-to-end metric it prints each set's median and quartiles
and the quartile spread as a share of the median, and says whether the
sets agree: every spread within the metric's bound, the two medians apart
by no more than the bound (in either direction), and the same share of
failed operations in both sets. --traced adds one traced run per workload,
on the first seed of set 1, and prints its per-layer metrics and the
tracing overhead: its trace.converge_s over the untraced converge_s of the
same seed. Exits 1 when the sets disagree or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output")
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def drift(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    agree = True
    for workload in workloads:
        sets = []
        for k in range(1, SETS + 1):
            runs = [run_once(bench, workload, k * 1000 + i, 0)
                    for i in range(1, RUNS + 1)]
            sets.append(runs)
            print(f"# {workload} set {k} done", file=sys.stderr, flush=True)
        print(f"\n== {workload} ({RUNS} runs per set)")
        print(f"{'metric':<16} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, runs in enumerate(sets, 1):
                med, q1, q3, spread = summarize(
                    [r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                ok = spread <= bound
                verdict = "ok" if ok else "SPREAD"
                if k == SETS:
                    worse = drift(medians[0], med, m["better"])
                    if abs(worse) > bound:
                        ok, verdict = False, f"MOVED {worse:+.3f}"
                    else:
                        verdict += f" (worse by {worse:+.3f})"
                agree &= ok
                print(f"{name:<16} {k:>3} {med:>14.6g} {q1:>14.6g} "
                      f"{q3:>14.6g} {spread:>7.3f} {bound:>6.2f}  {verdict}")
        shares = [sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs) for runs in sets]
        same = len(set(shares)) == 1
        agree &= same
        print(f"failed share per set: {shares} "
              f"({'same' if same else 'DIFFERENT'})")
        if args.traced:
            traced = run_once(bench, workload, 1001, 1)["metrics"]
            print(f"-- {workload} traced run (seed 1001)")
            for name, v in traced.items():
                print(f"   {name:<38} {v['value']:>14.6g} {v['unit']}")
            untraced = sets[0][0]["metrics"]["converge_s"]["value"]
            print(f"   tracing overhead: converge_s traced / untraced = "
                  f"{traced['trace.converge_s']['value'] / untraced:.3f}")
    print("\nsets agree within BENCHMARK.json bounds" if agree
          else "\nSETS DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
