#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Builds perfbench if needed, then checks that generated inputs follow the
seed, that every metric name is well formed, and that the smoke mode runs
all four workloads with every correctness check passing.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (perfbench/run.py)

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def input_hash(workload, seed):
    out = subprocess.run(
        [str(run.BINARY), "--workload", workload, "--seed", str(seed),
         "--input-hash"],
        stdout=subprocess.PIPE, text=True, check=True)
    return out.stdout.strip()


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = run.load_spec()

    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for wl in run.WORKLOADS:
            with self.subTest(workload=wl):
                a = input_hash(wl, run.DEFAULT_SEED)
                self.assertEqual(a, input_hash(wl, run.DEFAULT_SEED))
                self.assertNotEqual(a, input_hash(wl, run.HELD_OUT_SEED))

    def test_metric_names_are_well_formed(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        names += [m["name"] for m in self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertIsNotNone(NAME_RE.fullmatch(name), name)
        # Every simulated result the report prints is also recorded by
        # the traced run.
        for sims in run.SIM_METRICS.values():
            for name, _ in sims:
                self.assertIn(name, names)

    def test_smoke_runs_all_four_workloads(self):
        for trace in (0, 1):
            for wl in run.WORKLOADS:
                with self.subTest(workload=wl, trace=trace):
                    out = subprocess.run(
                        [sys.executable, str(HERE.parent / "run.py"),
                         "--workload", wl, "--smoke", "--trace", str(trace)],
                        stdout=subprocess.PIPE, text=True)
                    self.assertEqual(out.returncode, 0, out.stdout)
                    last = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted",
                                                 "failed", "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.assertEqual(last["failed"], 0)
                    key = "per_layer" if trace else "end_to_end"
                    self.assertEqual(set(last["metrics"]),
                                     {m["name"] for m in self.spec[key]})
                    for name, m in last["metrics"].items():
                        self.assertIsNotNone(NAME_RE.fullmatch(name), name)
                        self.assertIsInstance(m["value"], (int, float))


if __name__ == "__main__":
    unittest.main()
