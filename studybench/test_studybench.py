#!/usr/bin/env python3
"""The benchmark's own test, on the tiny setting (seconds per workload).

    python3 studybench/test_studybench.py

Run from anywhere; it builds the benchmark through run.py first. Checks that
every workload emits exactly the metrics BENCHMARK.json lists, each with a
valid name and a unit, with no failed study; and that a wrong recorded digest
counts as a failure at the default seed (and only there).
"""
import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DEFAULT_SEED = "1"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CONFIG = json.load(f)


def bench(workload, trace, seed=DEFAULT_SEED, extra=()):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", "1", "--trace", trace, "--size", "tiny",
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    return out.returncode, json.loads(lines[-1]) if lines else None, out.stderr


class StudyBenchTest(unittest.TestCase):
    def check_metrics(self, result, listed):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in listed})
        units = {m["name"]: m["unit"] for m in listed}
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], units[name])
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_every_workload_emits_every_metric(self):
        for workload in (w["name"] for w in CONFIG["workloads"]):
            for trace, listed in (("0", CONFIG["end_to_end"]),
                                  ("1", CONFIG["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = bench(workload, trace)
                    self.assertEqual(code, 0, err[-2000:])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, listed)
                    if trace == "0":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_wrong_digest_is_a_failure_at_the_default_seed_only(self):
        build = os.path.join(ROOT, ".bench_build", "studybench")
        with open(os.path.join(HERE, "digests.json")) as f:
            digests = json.load(f)
        key = next(iter(digests["tiny"]))
        digests["tiny"][key] = "0" * 16
        wrong = os.path.join(build, "wrong-digests.json")
        os.makedirs(build, exist_ok=True)
        with open(wrong, "w") as f:
            json.dump(digests, f)
        workload = key.split("/")[0]

        code, result, _ = bench(workload, "0", extra=("--digests", wrong))
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

        code, result, err = bench(workload, "0", seed="2",
                                  extra=("--digests", wrong))
        self.assertEqual(code, 0, err[-2000:])
        self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
