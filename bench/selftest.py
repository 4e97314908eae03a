"""The benchmark's own tests.

    python3 bench/selftest.py

Smoke-sized runs of every workload print every metric that
``BENCHMARK.json`` names, with its unit; deliberately wrong reference
answers are counted as failures; a directory without the package makes
the benchmark exit nonzero without a result.  Takes about a minute.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


class SmokeRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> dict:
        proc = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        report = "\n".join(lines[:-1])
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertIn(m["name"], report)
        self.assertIn("failed_frac", report)
        if trace:
            self.assertIn("tracing overhead", report)
        return result["metrics"]

    def test_enum_walk(self):
        for trace in (0, 1):
            metrics = self.check_run("enum-walk", trace)
        self.assertEqual(metrics["enumeration.classes"]["value"], wl.ENUM_PREFIX_SMOKE)
        self.assertGreater(metrics["enumeration.antichains"]["value"], wl.ENUM_PREFIX_SMOKE)
        self.assertGreater(metrics["matroids.calls"]["value"], 0)

    def test_cube_sweep(self):
        for trace in (0, 1):
            metrics = self.check_run("cube-sweep", trace)
        # names other modules imported are traced too
        self.assertGreater(metrics["linalg.rank.calls"]["value"], 0)
        self.assertGreater(metrics["bits.minimal_transversals.calls"]["value"], 0)
        self.assertGreater(metrics["ideals.contract.calls"]["value"], 0)
        self.assertGreater(metrics["cohomology.scans"]["value"], 0)
        self.assertGreater(metrics["sweeps.rows"]["value"], 0)

    def test_oracle_queries(self):
        for trace in (0, 1):
            metrics = self.check_run("oracle-queries", trace)
        self.assertEqual(metrics["cli.processes"]["value"], 4)
        self.assertGreater(metrics["classify.calls"]["value"], 0)
        self.assertGreater(metrics["cohomology.oracle_calls"]["value"], 0)


class WrongAnswersFail(unittest.TestCase):
    def test_oracle_query_with_wrong_reference(self):
        argv, expected = wl.ORACLE_QUERIES_SMOKE["five-cycle-sym-cm"][0]
        flipped = dict(expected, verdict="holds")
        original = wl.ORACLE_QUERIES_SMOKE["five-cycle-sym-cm"]
        wl.ORACLE_QUERIES_SMOKE["five-cycle-sym-cm"] = [(argv, flipped)]
        try:
            tally = run.Tally()
            run.run_queries(run.Child(smoke=True), 1, tally)
        finally:
            wl.ORACLE_QUERIES_SMOKE["five-cycle-sym-cm"] = original
        self.assertEqual((tally.failed, tally.attempted), (1, 3))
        self.assertIn("verdict", tally.notes[0])

    def test_budget_exit_and_bad_output_count_as_failed(self):
        holds = {"exit": 0, "verdict": "holds", "oracle": True}
        self.assertIsNone(wl.check_step(holds, 0, '{"verdict": "holds", "oracle": {"result": true}}'))
        self.assertIsNotNone(wl.check_step(holds, 3, ""))
        self.assertIsNotNone(wl.check_step(holds, 0, "not json"))
        self.assertIsNotNone(wl.check_step(holds, 0, '{"verdict": "holds", "oracle": {"result": false}}'))

    def test_enum_walk_checks(self):
        a, b = frozenset({0b11}), frozenset({0b111})
        inputs = {"prefix": 3}
        self.assertEqual(wl.enum_check(inputs, [(a, True, True), (b, False, False), (frozenset({1}), True, True)])[1], 0)
        # disagreement, duplicate class, an exception, a short walk
        self.assertEqual(wl.enum_check(inputs, [(a, True, False), (a, True, True), (b, "boom", None)])[1], 3)
        self.assertEqual(wl.enum_check({"prefix": 5}, [(a, True, True)])[1], 4)

    def test_cube_sweep_checks(self):
        row = lambda sig, agree: SimpleNamespace(signature=sig, agree=agree)  # noqa: E731
        ok = SimpleNamespace(rows=[row("x", True), row("y", True)], processed=2, exhausted=False)
        self.assertEqual(wl.cube_check({"family": 2}, ok)[1], 0)
        bad = SimpleNamespace(rows=[row("x", False), row("x", False), row("y", True)], processed=2, exhausted=False)
        self.assertEqual(wl.cube_check({"family": 2}, bad)[1], 1)
        short = SimpleNamespace(rows=[row("x", True)], processed=1, exhausted=True)
        self.assertEqual(wl.cube_check({"family": 2}, short)[1], 1)


class Plumbing(unittest.TestCase):
    def test_box_rows_matches_enumeration(self):
        for rho, below in (((1, 1, 1), 2), ((2, 3, 1, 2), 3), ((3, 3), 1), ((2, 2), 0)):
            boxes = itertools.product(*(range(-1, r) for r in rho))
            brute = sum(1 for a in boxes if sum(x < 0 for x in a) < below)
            self.assertEqual(spans.box_rows(rho, below), brute)

    def test_meter_interleaves_reference_slices(self):
        t0 = time.perf_counter()
        with speed.Meter() as meter:
            while time.perf_counter() - t0 < 3 * speed.TICK_S:
                sum(range(1000))
        self.assertGreaterEqual(len(meter.quanta), 3)
        self.assertGreater(meter.work_s, 2 * speed.TICK_S)
        self.assertLess(meter.work_s, time.perf_counter() - t0)  # the slices are not work
        self.assertGreater(meter.scaled_s, 0)

    def test_refuses_a_directory_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = _bench("--workload", "enum-walk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
