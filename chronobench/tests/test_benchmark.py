#!/usr/bin/env python3
"""Benchmark tests: BENCHMARK.json schema and a short smoke run per workload.

    python3 chronobench/tests/test_benchmark.py          # from a checkout root

The smoke runs build the benchmark (as run.py does) and run each workload
for two seconds, untraced and traced, asserting that every output check
passed, that the printed metrics are exactly the ones BENCHMARK.json names,
and that the traced run's Chrome trace file passes `chrono_trace
--validate`.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SchemaTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_bench()

    def test_top_level_keys(self):
        self.assertEqual(set(self.bench), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertLessEqual(
            os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")), 64 * 1024)

    def test_command_and_paths(self):
        command = self.bench["command"]
        self.assertTrue(1 <= len(command) <= 32)
        for part in command:
            self.assertLessEqual(len(part), 200)
            self.assertFalse(part.startswith("/"))
            self.assertNotIn("..", part.split("/"))
        paths = self.bench["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertTrue(os.path.isdir(os.path.join(ROOT, p)))
        files = [c for c in command[1:] if "/" in c]
        for f in files:
            self.assertTrue(any(f.startswith(p + "/") for p in paths), f)
        run_seconds = self.bench["run_seconds"]
        self.assertIsInstance(run_seconds, int)
        self.assertTrue(1 <= run_seconds <= 60)

    def test_workloads(self):
        workloads = self.bench["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertRegex(w["name"], NAME)
            self.assertTrue(0 < len(w["why"]) <= 200)
            self.assertNotIn("\n", w["why"])

    def test_metrics(self):
        names = [w["name"] for w in self.bench["workloads"]]
        end_to_end = self.bench["end_to_end"]
        per_layer = self.bench["per_layer"]
        self.assertTrue(1 <= len(end_to_end) <= 16)
        self.assertTrue(1 <= len(per_layer) <= 128)
        for m in end_to_end:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertGreater(m["bound"], 0)
            self.assertLessEqual(m["bound"], 0.25)
        for m in per_layer:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in end_to_end + per_layer:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        setup = [m for m in end_to_end if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in end_to_end))


def run_bench(workload, trace, trace_out=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "2", "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


class SmokeTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_bench()

    def check(self, trace):
        key = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in self.bench[key]}
        for w in self.bench["workloads"]:
            with self.subTest(workload=w["name"]), \
                    tempfile.TemporaryDirectory() as tmp:
                trace_out = os.path.join(tmp, "trace.json") if trace else None
                code, result, proc = run_bench(w["name"], trace, trace_out)
                self.assertEqual(code, 0, proc.stdout[-2000:] + proc.stderr[-2000:])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)
                if trace:
                    validator = os.path.join(
                        os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                        or os.path.join(ROOT, ".bench_build")),
                        "chronobench", "chrono_trace")
                    subprocess.check_call(
                        ["cmake", "--build", os.path.dirname(validator),
                         "--target", "chrono_trace"],
                        stdout=subprocess.DEVNULL)
                    subprocess.check_call([validator, "--validate", trace_out],
                                          stdout=subprocess.DEVNULL)
                else:
                    for name, value in result["metrics"].items():
                        self.assertGreater(value["value"], 0, name)

    def test_untraced_runs(self):
        self.check(trace=0)

    def test_traced_runs(self):
        self.check(trace=1)

    def test_usage_error(self):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "no-such-workload"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 2)


if __name__ == "__main__":
    unittest.main()
