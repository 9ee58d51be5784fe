#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload at a short scale (tree counts x0.05, half-second
measurements), traced and untraced, and asserts that the published
result has exactly the contract's keys and that every declared metric
is emitted, finite and carries its declared unit. Negative cases: a
corrupted prediction must fail the run, and the benchmark must refuse
to run without the treebeard sources next to it.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", "0.5", "--trace", str(trace), "--scale", "0.05",
               *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class ShortScaleRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = last_json(proc.stdout)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = definition()["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        for metric in declared:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(got["value"]), metric["name"])
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])

    def test_every_workload_emits_every_metric(self):
        for workload in [w["name"] for w in definition()["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)


class NegativeCases(unittest.TestCase):
    def test_corrupted_prediction_fails_the_run(self):
        for workload in [w["name"] for w in definition()["workloads"]]:
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--corrupt")
                self.assertNotEqual(proc.returncode, 0)
                result = last_json(proc.stdout)
                self.assertIs(result["correct"], False)

    def test_refuses_to_run_without_sources(self):
        base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        bare = os.path.join(ROOT, base, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            command = [sys.executable, "perfbench/run.py", "--workload",
                       "serve-light", "--seed", "1", "--seconds", "1",
                       "--trace", "0"]
            proc = subprocess.run(command, cwd=bare, capture_output=True,
                                  text=True, timeout=180, check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
