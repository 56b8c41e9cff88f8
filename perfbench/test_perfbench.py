#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py        (from the repository root)

Builds the driver the way run.py does, then checks that the same seed
yields the same inputs, that every metric name is well formed, that
BENCHMARK.json lists exactly the workloads and metrics the driver prints,
and the compare verdict rule. Two short benchmark runs take about a minute.
"""

import importlib.util
import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load(module):
    spec = importlib.util.spec_from_file_location(module, HERE / f"{module}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


run = load("run")
compare = load("compare")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()
        cls.catalog = run.catalog(cls.driver)
        cls.bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def digest(self, workload, seed):
        return subprocess.check_output(
            [str(self.driver), "--digest", "--workload", workload, "--seed", str(seed)],
            text=True).strip()

    def run_benchmark(self, workload, trace):
        out = subprocess.check_output(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "0.5", "--trace", str(trace)], text=True, stderr=subprocess.DEVNULL)
        return json.loads(out.splitlines()[-1])

    def test_same_seed_same_inputs(self):
        for w in self.catalog["workloads"]:
            with self.subTest(workload=w):
                self.assertEqual(self.digest(w, 7), self.digest(w, 7))
                self.assertNotEqual(self.digest(w, 7), self.digest(w, 8))

    def test_metric_names_are_well_formed(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in self.catalog[key]]
        names += self.catalog["workloads"]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_lists_what_the_driver_prints(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                  "per_layer"})
        self.assertEqual([w["name"] for w in b["workloads"]], self.catalog["workloads"])
        for key in ("end_to_end", "per_layer"):
            listed = [{k: m[k] for k in ("name", "unit", "better")} for m in b[key]]
            self.assertEqual(listed, self.catalog[key])
        for m in b["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in b["end_to_end"]))

    def test_runs_print_every_listed_metric(self):
        for trace, key, workload in ((0, "end_to_end", "bs_book"), (1, "per_layer", "lattice_book")):
            with self.subTest(trace=trace):
                res = self.run_benchmark(workload, trace)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(sorted(res["metrics"]), sorted(m["name"] for m in self.bench[key]))

    def test_compare_verdicts(self):
        parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.5, 100.8, 99.9, 100.1, 100.3]
        faster = [v * 1.10 for v in parent]
        pairs = list(zip(parent, faster))
        self.assertEqual(compare.verdict(parent, faster, pairs, "higher", 0.2), "better")
        self.assertEqual(compare.verdict(parent, faster, pairs, "lower", 0.05), "worse")
        self.assertEqual(compare.verdict(parent, parent, list(zip(parent, parent)), "higher", 0.2),
                         "within bound")
        noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        self.assertEqual(compare.verdict(parent, noisy, list(zip(parent, noisy)), "higher", 0.2),
                         "unresolved")


if __name__ == "__main__":
    unittest.main()
