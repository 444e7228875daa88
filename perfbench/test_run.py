#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_run.py

Builds node_bench and node_bench_test (see run.py for the build
directory), runs the C++ checks (percentile rule, seeded-stream
determinism, result comparison, trace JSON), and checks that every metric
node_bench can print is declared in BENCHMARK.json with the same unit.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class NodeBenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.bench = run.build("node_bench")
        cls.checks = run.build("node_bench_test")

    def test_cpp_checks(self):
        proc = subprocess.run([self.checks], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_metrics_match_benchmark_json(self):
        listed = subprocess.run([self.bench, "--list-metrics"],
                                capture_output=True, text=True, check=True)
        printed = {"end_to_end": {}, "per_layer": {}}
        for line in listed.stdout.splitlines():
            group, name, unit = line.split()
            printed[group][name] = unit
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for group in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in spec[group]}
            self.assertEqual(printed[group], declared, group)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["tpce-wan", "tpce-lru"])

    def test_result_shape_check(self):
        metrics = {name: {"value": 1.5, "unit": unit}
                   for name, unit in run.declared_metrics(False).items()}
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": metrics}
        self.assertEqual(run.check_result(good, False), [])
        bad = dict(good, metrics=dict(metrics, extra={"value": 1,
                                                      "unit": "ms"}))
        self.assertNotEqual(run.check_result(bad, False), [])
        wrong_unit = dict(metrics)
        wrong_unit["setup_s"] = {"value": 1.0, "unit": "ms"}
        self.assertNotEqual(
            run.check_result(dict(good, metrics=wrong_unit), False), [])

    def test_unknown_workload_fails(self):
        proc = subprocess.run([self.bench, "--workload", "nope", "--seed",
                               "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
