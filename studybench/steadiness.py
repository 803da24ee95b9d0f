#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

    python3 studybench/steadiness.py --workloads table2,bs_paths --seeds 1-10

Runs the benchmark once per (workload, seed), one run at a time, for
run_seconds from BENCHMARK.json, and prints
for each end-to-end metric its median and its spread: the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json. A spread below a
third of the bound is what the benchmark aims for (setup_s excepted).
Run from the root of a source checkout.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 7")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in config["workloads"]])
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    for workload in workloads:
        runs = [run_once(workload, seed, seconds)
                for seed in seeds_of(args.seeds)]
        print(f"{workload} ({len(runs)} runs)")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread < bound / 3 else "WIDE"
            print(f"  {name:20s} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {bound:5.3f}  {verdict}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
