#!/usr/bin/env python3
"""The benchmark's own smoke test, at tiny scale.

    python3 perfbench/test_perfbench.py

For every workload: an untraced and a traced run each emit exactly the
metrics BENCHMARK.json names for that mode, with their units, and report
every result correct; a run with one result digest deliberately corrupted
reports a mismatch and exits non-zero.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stdout + p.stderr


class Smoke(unittest.TestCase):
    def check_metrics(self, result, specs):
        want = {m["name"]: m["unit"] for m in specs}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    rc, result, out = run(w["name"], trace)
                    self.assertEqual(rc, 0, out[-2000:])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], out[-2000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, SPEC[key])
                    if key == "end_to_end":
                        for name, v in result["metrics"].items():
                            self.assertGreater(v["value"], 0, name)

    def test_corrupted_digest_trips_the_check(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                rc, result, out = run(w["name"], 0, "--corrupt-digest")
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("result mismatch", out)


if __name__ == "__main__":
    unittest.main()
