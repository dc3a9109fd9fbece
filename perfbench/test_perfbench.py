#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

They build rbc_perfbench through run.py (so the first run compiles) and
check that inputs and outcomes are pure functions of the seed, that a
result carries every metric BENCHMARK.json names with its unit, and that
the command fails cleanly where the repository sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_command(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          capture_output=True, text=True, cwd=cwd,
                          timeout=900)


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs_and_outcomes(self):
        binary = run.build(run.build_dir())
        done = subprocess.run([str(binary), "--selftest", "--seed", "7"],
                              capture_output=True, text=True, timeout=300)
        rows = [json.loads(line) for line in done.stdout.splitlines()]
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertEqual(sorted(r["selftest"] for r in rows),
                         sorted(w["name"] for w in spec()["workloads"]))
        for row in rows:
            self.assertTrue(row["same_seed_same"], row)
            self.assertTrue(row["other_seed_differs"], row)


class ResultSchema(unittest.TestCase):
    def check(self, trace, key):
        done = run_command(["--workload", "fused_d2", "--seed", "1",
                            "--seconds", "1", "--trace", str(trace)])
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec()[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_untraced_run_reports_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_traced_run_reports_per_layer_metrics(self):
        self.check(1, "per_layer")


class MissingSources(unittest.TestCase):
    def test_fails_without_repository_sources(self):
        bare = run.build_dir() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fused_d2",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, env=env, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
