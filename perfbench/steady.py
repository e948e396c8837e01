#!/usr/bin/env python3
"""Steadiness report: runs each workload repeatedly and checks the spread.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b] [--trace 0|1]

Run from the repository root. For each set and workload it runs the
benchmark command of BENCHMARK.json once per seed (a different seed each
run), then prints, per metric, the median, the first and third quartile
(Python's statistics.quantiles, n=4) and the spread (Q3 - Q1) / median.
With --trace 0 it checks every end-to-end metric's spread against its
bound, and each later set's median against the first set's median in the
metric's worse direction. Exits 1 if a run fails, a check fails, or a
metric is missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect verdicts")
    return result, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]

    ok = True
    first_medians = {}
    for s in range(args.sets):
        values = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for i in range(args.runs):
            seed = 1 + 1000 * s + i
            for w in workloads:
                try:
                    result, wall = run_once(spec, w, seed, args.trace)
                except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
                    print(f"FAIL {e}")
                    return 1
                print(f"set {s} {w} seed {seed}: {wall:.1f} s wall, "
                      f"{result['attempted']} attempted, {result['failed']} failed", flush=True)
                for m in metrics:
                    if m["name"] not in result["metrics"]:
                        print(f"FAIL {w}: metric {m['name']} missing")
                        return 1
                    values[w][m["name"]].append(result["metrics"][m["name"]]["value"])
        for w in workloads:
            print(f"\n== set {s} {w} ({args.runs} runs)")
            print(f"  {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
            for m in metrics:
                name = m["name"]
                q1, q2, q3 = quartiles(values[w][name])
                spread = (q3 - q1) / q2 if q2 else float("inf") if q3 > q1 else 0.0
                flag = ""
                bound = m.get("bound")
                if bound is not None:
                    if spread > bound:
                        flag = "  SPREAD > BOUND"
                        ok = False
                    elif spread > bound / 3:
                        flag = "  spread > bound/3"
                if bound is not None and s > 0:
                    base = first_medians[(w, name)]
                    diff = q2 - base if m["better"] == "lower" else base - q2
                    worse = diff / base if base else float("inf") if diff > 0 else 0.0
                    if worse > bound:
                        flag += f"  MEDIAN WORSE BY {worse:.3f}"
                        ok = False
                if s == 0:
                    first_medians[(w, name)] = q2
                print(f"  {name:<26} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}{flag}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
