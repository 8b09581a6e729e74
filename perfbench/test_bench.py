#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_bench.py

Each test runs perfbench/run.py with --seconds 1 (a round or two), so
the file takes under a minute once the benchmark is built.  The tests
check that:

- the metric names and units printed, timed and traced, on every
  workload, equal those in BENCHMARK.json, and a traced run writes its
  spans to .bench_build/spans-<workload>-<seed>.jsonl;
- one seed gives the same behaviour digest in two invocations and in
  traced mode, and another seed gives a different one;
- a hand-built non-serializable history (a committed read of an
  aborted write) is counted in "failed" and makes the command exit
  non-zero;
- in a directory holding only BENCHMARK.json and perfbench/, the
  command exits 2 without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def bench(workload, seed, trace=0, extra=(), cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout.splitlines()


def result(lines):
    return json.loads(lines[-1])


def digest(lines):
    return [line for line in lines if line.startswith("digest")]


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_metric_names_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for w in self.spec["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    code, lines = bench(w["name"], 5, trace)
                    self.assertEqual(code, 0, lines[-5:])
                    got = {name: m["unit"]
                           for name, m in result(lines)["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace:
                        self.check_spans(w["name"], 5, lines)

    def check_spans(self, workload, seed, lines):
        path = os.path.join(".bench_build",
                            "spans-%s-%d.jsonl" % (workload, seed))
        self.assertIn("spans " + path, lines)
        with open(os.path.join(ROOT, path)) as f:
            spans = [json.loads(line) for line in f]
        names = {s["name"] for s in spans}
        for name in ("harness.setup", "sim.run", "adya.history", "adya.dsg",
                     "dispatch.delivery"):
            self.assertIn(name, names)
        for s in spans:
            self.assertEqual(set(s), {"id", "name", "parent", "start_ns",
                                      "end_ns"})
            self.assertLessEqual(s["start_ns"], s["end_ns"])

    def test_digest_is_a_function_of_the_seed(self):
        _, first = bench("ycsb-contended", 3)
        _, again = bench("ycsb-contended", 3)
        _, traced = bench("ycsb-contended", 3, trace=1)
        _, other = bench("ycsb-contended", 4)
        self.assertTrue(digest(first))
        self.assertEqual(digest(first), digest(again))
        self.assertEqual(digest(first), digest(traced))
        self.assertNotEqual(digest(first), digest(other))

    def test_bad_history_is_counted_and_fails_the_command(self):
        code, lines = bench("ycsb-contended", 3,
                            extra=["--inject-bad-history"])
        r = result(lines)
        self.assertNotEqual(code, 0)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 1)
        self.assertTrue(any(line.startswith("FAIL: hand-built history")
                            for line in lines))

    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, lines = bench("ycsb-contended", 1, cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertEqual(code, 2)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
