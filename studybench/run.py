#!/usr/bin/env python3
"""Builds and runs the whole-study benchmark.

    python3 studybench/run.py --workload table2 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The first call configures and
builds `studybench` (and the mbcr library it links) under
.bench_build/studybench; later calls rebuild incrementally. Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result.
Arguments after the four above are passed to the binary unchanged
(e.g. `--size tiny`, `--digests FILE`).
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "studybench")
BINARY = os.path.join(BUILD, "studybench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("studybench: no mbcr sources next to the benchmark")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target", "studybench"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("studybench: build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = parser.parse_known_args()
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--digests", os.path.join(HERE, "digests.json")]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(BUILD, f"spans-{args.workload}.json")]
    try:
        # On timeout, run() kills the benchmark and waits for it.
        return subprocess.run(cmd + extra, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"studybench: no result within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
