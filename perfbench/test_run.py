#!/usr/bin/env python3
"""The pipeline benchmark's own tests.

Run from the repository root:

    python3 perfbench/test_run.py

They show that an injected fault — a corrupted reference value or a planted
fault the flow check fails to catch — is reported as failed operations with
a nonzero exit, and that every metric BENCHMARK.json names is printed with
its unit for every workload, in both the untraced and the traced run.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args):
    """Run run.py; returns (exit code, parsed last stdout line or None)."""
    cmd = [sys.executable, str(HERE / "run.py"), *(str(a) for a in args)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=1200)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None


class InjectedFaults(unittest.TestCase):
    def assert_reported(self, inject):
        rc, res = run("--workload", "flow", "--seed", 5, "--seconds", 1,
                      "--trace", 0, "--inject", inject)
        self.assertNotEqual(rc, 0)
        self.assertIsNotNone(res, "a failed check must still print a result")
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertLessEqual(res["failed"], res["attempted"])

    def test_corrupted_reference_value_fails(self):
        self.assert_reported("ref")

    def test_uncaught_mutant_fails(self):
        self.assert_reported("mutant")


class MetricsPrinted(unittest.TestCase):
    def assert_metrics(self, workload, trace, rows):
        rc, res = run("--workload", workload, "--seed", 7, "--seconds", 1,
                      "--trace", trace)
        self.assertEqual(rc, 0, res)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        for row in rows:
            got = res["metrics"].get(row["name"])
            self.assertIsNotNone(got, f"{workload}: {row['name']} missing")
            self.assertEqual(got["unit"], row["unit"], row["name"])
            self.assertIsInstance(got["value"], (int, float), row["name"])
            if not trace:
                self.assertGreater(got["value"], 0, row["name"])


def _add_metric_tests():
    for wl in SPEC["workloads"]:
        name = wl["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            def test(self, name=name, trace=trace, key=key):
                self.assert_metrics(name, trace, SPEC[key])
            setattr(MetricsPrinted, f"test_{name}_{key}", test)


_add_metric_tests()

if __name__ == "__main__":
    unittest.main(verbosity=2)
