"""Tests of the benchmark itself (not collected by the repository's pytest run).

    python3 perfbench/selftest.py

Runs two traced cold samples of oracle-n7 (about half a minute) and one
in-process verify-o12 run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
import unittest
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class TracedCountsRepeat(unittest.TestCase):
    def test_two_traced_oracle_runs_count_the_same_work(self):
        deadline = perf_counter() + 300
        first, second = (run.run_child(["oracle-n7", "5", "1"], deadline) for _ in range(2))

        def counts(rec):
            calls = {name: r["calls"] for name, r in rec["summary"].items()}
            return calls, rec["counters"]

        self.assertEqual(counts(first), counts(second))
        calls, counters = counts(first)
        self.assertEqual(counters["oracle.catalog_entries"], 6041)
        # 115,700 graphs generated for n <= 7, plus the M(K4) reference
        # signature that minor_check computes once per process
        self.assertEqual(counters["oracle.graphs_generated"], 115700)
        self.assertEqual(calls["oracle.signature"], 115701)
        self.assertEqual(calls["oracle.extend"], 7578)
        self.assertEqual(calls["oracle.minor_check"], 537 + workloads.N7_SAMPLE + workloads.DIRECT_SUMS)
        self.assertEqual(first["failed"], 0)


class CorruptedExpectedOutput(unittest.TestCase):
    def test_corrupted_verify_line_is_one_failed_op(self):
        spec = workloads.WORKLOADS["verify-o12"]
        outputs = spec.run(0)
        expected = workloads.load_expected("verify-o12")
        ops = workloads.check(spec, outputs, expected)
        self.assertEqual((len(ops), sum(not ok for _n, ok, _d in ops)), (33, 0))

        lines = expected["text"].splitlines(keepends=True)
        lines[9] = lines[9].replace("constant term 2", "constant term 3")
        self.assertNotEqual(lines[9], expected["text"].splitlines(keepends=True)[9])
        ops = workloads.check(spec, outputs, {"text": "".join(lines)})
        self.assertEqual([name for name, ok, _d in ops if not ok], ["line 10"])

    def test_corrupted_table_digest_and_report_are_failed_ops(self):
        spec = workloads.WORKLOADS["tables-n60"]
        report = types.SimpleNamespace(ok=True, render=lambda: "PASS\n")
        table = types.SimpleNamespace(value=lambda n, k: 0)
        outputs = {
            "csv": {"E": "n,k,value\n"},
            "reports": {"A1": report},
            "tables": {"C": table, "G": table},
        }
        expected = {
            "csv_sha256": {"E": workloads._sha256("n,k,value\n"), "C": "0" * 64},
            "bfile_reports": {"A1": "FAIL\n"},
        }
        ops = workloads.check(spec, outputs, expected)
        self.assertEqual(
            [name for name, ok, _d in ops if not ok], ["csv sha256 C", "b-file A1"]
        )

    def test_false_oracle_answer_and_missing_output_are_failed_ops(self):
        spec = workloads.WORKLOADS["oracle-n7"]
        text = workloads.load_expected("oracle-n7")["text"]
        outputs = {"text": text, "status": 0, "minor": [True, False], "exchange": [True]}
        ops = workloads.check(spec, outputs, {"text": text})
        self.assertEqual([name for name, ok, _d in ops if not ok], ["minor #1"])
        outputs = {"text": text, "status": 1, "minor": [], "exchange": []}
        ops = workloads.check(spec, outputs, {"text": text})
        self.assertEqual([name for name, ok, _d in ops if not ok], ["exit code"])
        ops = workloads.check(spec, {"text": text, "status": 0}, {"text": text})
        self.assertEqual([name for name, ok, _d in ops if not ok], ["outputs"])


class TracerAndLayers(unittest.TestCase):
    def test_named_functions_and_reexports_are_wrapped_others_are_not(self):
        pkg = types.ModuleType("fakepkg")
        a = types.ModuleType("fakepkg.a")
        b = types.ModuleType("fakepkg.b")
        exec(
            "def leaf(x):\n    return x + 1\n"
            "def outer(x):\n    return leaf(x) + helper(x)\n"
            "def helper(x):\n    return leaf(x)\n",
            a.__dict__,
        )
        b.leaf = a.leaf
        modules = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
        sys.modules.update(modules)
        try:
            tracer = Tracer()
            tracer.install(
                "fakepkg", {"a.leaf", "a.outer", "b.absent"},
                counters={"a.*": ("a.results", lambda _args, r: r)},
            )
            self.assertEqual(a.outer(1), 4)
            self.assertEqual(b.leaf(1), 2)
        finally:
            for name in modules:
                del sys.modules[name]
        self.assertEqual(tracer.wrapped, {"a.leaf", "a.outer"})
        summary = tracer.summary()
        self.assertEqual(summary["a.leaf"]["calls"], 3)
        self.assertEqual(summary["a.outer"]["calls"], 1)
        # the unnamed helper is not wrapped: its leaf call is outer's child
        self.assertNotIn("a.helper", summary)
        self.assertEqual(list(tracer.span_parent[:3]), [-1, 0, 0])
        outer = summary["a.outer"]
        self.assertLess(outer["self_s"], outer["incl_s"])
        self.assertEqual(tracer.counters["a.results"], 2 + 2 + 4 + 2)

    def test_missing_function_is_absent_not_an_error(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
        traced = {
            "run_s": 2.0,
            "summary": {"oracle.enumerate_connected": {"calls": 7, "incl_s": 1.0, "self_s": 1.0}},
            "counters": {"oracle.catalog_entries": 6041},
            "wrapped": ["oracle.enumerate_connected", "oracle.minor_check"],
        }
        values, absent = run.layer_metrics(spec, traced, 1.5)
        self.assertEqual(set(values), {m["name"] for m in spec})
        self.assertIn("oracle.signature.calls", absent)
        self.assertIn("oracle.catalog_per_signature", absent)
        self.assertNotIn("oracle.minor_check.calls", absent)
        self.assertEqual(values["oracle.minor_check.calls"], 0)
        self.assertEqual(values["oracle.self_s"], 1.0)
        self.assertEqual(values["trace.overhead_s"], 0.5)


class WithoutSourceTree(unittest.TestCase):
    def test_benchmark_alone_exits_nonzero_without_a_result(self):
        bare = BENCH_DIR / "out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in BENCH_DIR.iterdir():
                if path.is_file():
                    shutil.copy(path, bare / "perfbench")
            shutil.copytree(BENCH_DIR / "expected", bare / "perfbench" / "expected")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify-o12",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
