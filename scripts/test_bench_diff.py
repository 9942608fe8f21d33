#!/usr/bin/env python3
"""Unit tests for scripts/bench_diff.py: metric directions and the gate.

    python3 scripts/test_bench_diff.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import bench_diff  # noqa: E402


def run_diff(old, new, *flags):
    """Runs the script on two metric dicts; returns (exit code, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, metrics in (("old.json", old), ("new.json", new)):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump({"bench": "t", "schema": 1, "metrics": metrics}, f)
            paths.append(path)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "bench_diff.py"), *paths,
             *flags], capture_output=True, text=True)
        return proc.returncode, proc.stdout


class Directions(unittest.TestCase):
    def test_suffixes(self):
        higher = ["serve_jobs_per_sec/grid/n1024/k16",
                  "serve_contended_cache_hit_ratio/eventloop/c8",
                  "evolve_mcut_gain/grid/n2500/k8"]
        lower = ["ff_e2e_sec/grid/n1024/k16", "ff_e2e_mcut/grid/n1024/k16",
                 "api_submit_overhead_sec/grid/n256/k4"]
        for name in higher:
            self.assertTrue(bench_diff.higher_is_better(name), name)
        for name in lower:
            self.assertFalse(bench_diff.higher_is_better(name), name)

    def test_only_the_metric_part_decides(self):
        # A suffix-like family or point name must not flip the direction.
        self.assertFalse(bench_diff.higher_is_better("ff_e2e_sec/x_ratio"))

    def test_zero_baseline_moves_by_sign(self):
        self.assertEqual(bench_diff.relative_change(0, 0), 0)
        self.assertEqual(bench_diff.relative_change(0, 0.5), float("inf"))
        self.assertEqual(bench_diff.relative_change(0, -0.5), float("-inf"))
        self.assertEqual(bench_diff.relative_change(2, 1), -0.5)
        self.assertEqual(bench_diff.relative_change(-2, -1), 0.5)


class Gate(unittest.TestCase):
    def test_collapsing_hit_ratio_fails(self):
        code, out = run_diff({"c_hit_ratio/x": 0.75}, {"c_hit_ratio/x": 0.3},
                             "--fail-below", "0.5")
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSED", out)

    def test_rising_gain_passes(self):
        code, out = run_diff({"evolve_mcut_gain/x": 0.01},
                             {"evolve_mcut_gain/x": 0.05},
                             "--fail-below", "0.5", "--fail-on-regression")
        self.assertEqual(code, 0, out)
        self.assertIn("improved", out)

    def test_gain_lost_from_zero_fails(self):
        code, out = run_diff({"evolve_mcut_gain/x": 0},
                             {"evolve_mcut_gain/x": -0.01},
                             "--fail-below", "0.5")
        self.assertEqual(code, 1, out)

    def test_slower_seconds_fail_and_faster_pass(self):
        self.assertEqual(run_diff({"t_sec/x": 1.0}, {"t_sec/x": 2.0},
                                  "--fail-below", "0.5")[0], 1)
        self.assertEqual(run_diff({"t_sec/x": 1.0}, {"t_sec/x": 0.5},
                                  "--fail-below", "0.5")[0], 0)

    def test_new_metrics_never_gate(self):
        code, out = run_diff({"t_sec/x": 1.0},
                             {"t_sec/x": 1.0, "u_sec/x": 9.0},
                             "--fail-below", "0.5", "--fail-on-regression")
        self.assertEqual(code, 0, out)
        self.assertIn("NEW", out)


if __name__ == "__main__":
    unittest.main()
