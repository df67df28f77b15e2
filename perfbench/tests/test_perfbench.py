#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from anywhere:

    python3 perfbench/tests/test_perfbench.py

They build the driver (perfbench/run.py), run its C++ self-test, check that
every run prints exactly the metrics BENCHMARK.json names, run each workload
at tiny size, and prove that a corrupted factor fails the run.
"""

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# svc is not in BENCHMARK.json (see README.md) but is tested like the others.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["svc"]


def perfbench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / BENCH_DIR.name / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def tiny_run(workload, trace, *extra):
    proc = perfbench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--tiny", *extra)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build()

    def test_selftest(self):
        proc = subprocess.run([self.build / "perfbench_selftest"],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def check_result(self, proc, result, section):
        self.assertEqual(proc.returncode, 0, proc.stdout[-2000:] + proc.stderr)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], expected[name], name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_every_workload_prints_the_named_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                proc, result = tiny_run(w, 0)
                self.check_result(proc, result, "end_to_end")
                for name in ("setup_s", "lu_s", "qr_s", "ops_per_s", "op_p50_ms"):
                    self.assertGreater(result["metrics"][name]["value"], 0, name)
            with self.subTest(workload=w, trace=1):
                proc, result = tiny_run(w, 1)
                self.check_result(proc, result, "per_layer")
                self.assertIn(f".bench_build/spans/{w}-seed7.json", proc.stdout)
                spans = json.loads((ROOT / f".bench_build/spans/{w}-seed7.json").read_text())
                self.assertEqual(spans["stamp"]["workload"], w)
                self.assertTrue(all(s["end_ns"] >= s["start_ns"] for s in spans["spans"]))

    def test_corrupted_factor_fails_the_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, result = tiny_run(w, 0, "--corrupt")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("FAILED", proc.stdout)

    def test_bad_arguments_are_rejected(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     ["--workload", "svc", "--seed", "-1", "--seconds", "1", "--trace", "0"],
                     ["--workload", "svc", "--seed", "1", "--seconds", "1x", "--trace", "0"],
                     ["--workload", "svc", "--seed", "1", "--seconds", "1", "--trace", "2"]):
            proc = perfbench(*args)
            self.assertEqual(proc.returncode, 2, args)
            self.assertEqual(proc.stdout, "")

    def test_fails_without_the_library_sources(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = perfbench("--workload", "svc", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
