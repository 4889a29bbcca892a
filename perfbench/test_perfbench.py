#!/usr/bin/env python3
"""Self-tests of the benchmark (perfbench/README.md).

    python3 perfbench/test_perfbench.py

Runs each workload at tiny size through perfbench/run.py, untraced and
traced, and checks that every metric BENCHMARK.json names is printed with its
unit and that the exactly-once checks pass; then plants a wrong expected count
and checks that it is reported as a failure; then checks the refusals of
run.py (no sources to build) and compare.py (different hosts).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("ring_seq", "ring_par", "hop_par")


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def summary(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def check_metrics(self, trace, section):
        spec = bench_spec()
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                out = summary(proc)
                self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                got = {name: m["unit"] for name, m in out["metrics"].items()}
                self.assertEqual(got, want)
                for name in want:  # every metric is also printed for humans
                    self.assertIn(name, proc.stdout)

    def test_end_to_end_metrics(self):
        self.check_metrics(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check_metrics(1, "per_layer")

    def test_hop_par_protocol_counts(self):
        out = summary(run("hop_par", 1))["metrics"]
        self.assertEqual(out["kernel.admin_msgs_per_migration"]["value"], 9)
        self.assertEqual(out["run.sync_frames_clamped"]["value"], 0)
        self.assertEqual(out["migration.aborted"]["value"], 0)

    def test_planted_wrong_count_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--plant-wrong-count")
                self.assertNotEqual(proc.returncode, 0)
                out = summary(proc)
                self.assertFalse(out["correct"])
                self.assertGreater(out["failed"], 0)
                self.assertIn("FAIL: token receptions", proc.stdout)


class Refusals(unittest.TestCase):
    def test_no_sources_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("ring_seq", 0, cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)

    def test_compare_refuses_other_hosts(self):
        base = {"stamp": {"nproc": 4, "build_type": "Release", "workload": "ring_seq",
                          "trace": 0},
                "metrics": {"msgs_per_s": {"value": 1.0, "unit": "1/s"}}}
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for nproc in (4, 8):
                doc = json.loads(json.dumps(base))
                doc["stamp"]["nproc"] = nproc
                paths.append(os.path.join(tmp, f"{nproc}.json"))
                with open(paths[-1], "w") as f:
                    json.dump(doc, f)
            compare = os.path.join(ROOT, "perfbench", "compare.py")
            same = subprocess.run([sys.executable, compare, paths[0], paths[0]],
                                  capture_output=True, text=True)
            self.assertEqual(same.returncode, 0, same.stderr)
            other = subprocess.run([sys.executable, compare, paths[0], paths[1]],
                                   capture_output=True, text=True)
            self.assertEqual(other.returncode, 2)
            self.assertIn("nproc", other.stderr)


if __name__ == "__main__":
    unittest.main()
