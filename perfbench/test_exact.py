#!/usr/bin/env python3
"""The benchmark's own test: exact-match counts repeat bit for bit.

Run from the repository root:

    python3 perfbench/test_exact.py

Measures every workload twice on the same seed with --trace 1, once for
one second and once for two (the counts do not depend on the run length),
and asserts that every count flagged exact is identical across the two
runs and that no output check failed. A change meant only to make the
simulator faster must keep these counts unchanged as well.
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class ExactCounts(unittest.TestCase):
    def test_exact_counts_repeat_across_runs(self):
        root = os.getcwd()
        for workload in [w["name"] for w in run.load_spec(root)["workloads"]]:
            with self.subTest(workload=workload):
                first, _, failed_first, _ = run.measure(root, workload, 42, 1.0, True)
                second, _, failed_second, _ = run.measure(root, workload, 42, 2.0, True)
                self.assertEqual((failed_first, failed_second), (0, 0))
                a = {r["name"]: r["value"] for r in first if r["exact"]}
                b = {r["name"]: r["value"] for r in second if r["exact"]}
                self.assertIn("model.ipc", a)
                self.assertEqual(a, b)


if __name__ == "__main__":
    unittest.main()
