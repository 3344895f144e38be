#!/usr/bin/env python3
"""Runs each perfbench workload repeatedly and prints the spread of every
end-to-end metric: median, quartiles, (q3 - q1) / median and max / min.

Usage (from the repository root):
    python3 perfbench/repeat.py [--runs 10] [--first-seed 1]

Round i runs every workload of BENCHMARK.json once, untraced, for its
`run_seconds`, with seed first_seed + i, rotating the workload order each
round so no workload always runs first. Used to set the bounds in
BENCHMARK.json: a metric's bound should sit well above its
(q3 - q1) / median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    for line in lines[:-1]:
        if line.startswith("host probe"):
            print(f"  {workload} seed {seed}: {line}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("nan"), \
        max(values) / min(values) if min(values) else float("nan")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            results[w].append(run_once(w, args.first_seed + i, seconds))

    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, failed share {shares}, "
              f"correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'iqr/med':>8s} {'max/min':>8s}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, iqr, mm = spread(values)
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{iqr:8.4f} {mm:8.4f}  {unit}")
            print("      runs: " + " ".join(f"{v:.5g}" for v in values))


if __name__ == "__main__":
    main()
