#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/steadiness.py --runs 10 [--workloads postmortem,reproduce]
                                    [--first-seed 1] [--seconds 20]

Runs perfbench/run.py --runs times per workload, each with another seed
(first-seed, first-seed + 1, ...), and prints for every end-to-end metric the
median, first and third quartile (Python's statistics.quantiles, n=4), and
the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json.  A spread above a third of its bound is flagged; setup_s is
exempt from the spread rule (only its median must hold between two sets).
Run from the repository root; the runs are sequential.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.first_seed + i
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {done.returncode})")
                sys.stdout.write(done.stdout[-2000:] + done.stderr[-2000:])
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"## {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds} s each")
        print("| metric | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = " (above bound/3)"
                steady = False
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f}{flag} "
                  f"| {bounds[name]} |")
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
