#!/usr/bin/env python3
"""perfbench's own tests. Run from the repository root:

  python3 perfbench/test_perfbench.py

They run every workload once in quick mode (one set-up, one timed pass,
one traced repetition) with tracing off and on, and check that every
metric BENCHMARK.json names is reported with its unit; that a perturbed
reference value fails the run and names the output; that a directory
holding only the benchmark exits non-zero without printing a result; and
that results from different hosts are never compared. About two minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".bench_build", "test")


def run(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        os.makedirs(SCRATCH, exist_ok=True)

    def test_quick_mode_reports_every_metric_with_its_unit(self):
        for workload in self.spec["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = run("--workload", workload["name"], "--seed", "3",
                               "--quick", "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = result_of(proc)
                    self.assertEqual(sorted(res), ["attempted", "correct",
                                                   "failed", "metrics"])
                    self.assertTrue(res["correct"], proc.stdout)
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in self.spec[kind]}
                    self.assertEqual(set(res["metrics"]), set(want))
                    for name, unit in want.items():
                        metric = res["metrics"][name]
                        self.assertEqual(metric["unit"], unit, name)
                        self.assertIsInstance(metric["value"], (int, float))
                        if trace == 0:
                            self.assertGreater(metric["value"], 0, name)

    def test_perturbed_reference_fails_and_names_the_output(self):
        with open(os.path.join(ROOT, "perfbench", "references.json")) as f:
            refs = json.load(f)
        refs["cases"]["streamcluster"]["cycles"] += 1
        path = os.path.join(SCRATCH, "perturbed.json")
        with open(path, "w") as f:
            json.dump(refs, f)
        proc = run("--workload", "streamcluster", "--quick", "--references",
                   path)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result_of(proc)
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertIn("streamcluster.cycles differs from the det reference",
                      proc.stdout)
        self.assertRegex(proc.stdout, r"failed_frac 0\.\d*[1-9]")

    def test_benchmark_alone_is_not_run(self):
        alone = os.path.join(SCRATCH, "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run("--workload", "fleet", "--seed", "1", "--seconds", "1",
                       "--trace", "0", root=alone)
        finally:
            shutil.rmtree(alone)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        self.assertIn("not run", proc.stderr)

    def test_compare_refuses_results_from_different_hosts(self):
        a = {"workload": "fleet", "trace": 0,
             "metrics": {"analyze_s": {"value": 0.5, "unit": "s"}},
             "stamp": {"nproc": 4, "cpu_model": "cpu", "build_type": "Release",
                       "compiler": "c++ 12", "revision": "parent"}}
        b = json.loads(json.dumps(a))
        b["stamp"]["revision"] = "change"
        paths = [os.path.join(SCRATCH, n) for n in ("a.json", "b.json")]
        for path, res in zip(paths, (a, b)):
            with open(path, "w") as f:
                json.dump(res, f)
        self.assertEqual(run("--compare", *paths).returncode, 0)
        b["stamp"]["nproc"] = 1
        with open(paths[1], "w") as f:
            json.dump(b, f)
        proc = run("--compare", *paths)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("refusing to compare", proc.stdout)


if __name__ == "__main__":
    unittest.main()
