"""Benchmark of srpowers: three workloads, checked answers, per-layer trace.

    python3 bench/run.py --workload {enum-walk,cube-sweep,oracle-queries}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run it from the root of a source checkout; it measures the package in
``src/`` of that checkout.  Every measured piece of work runs in a fresh
interpreter (``bench/child.py``) with ``PYTHONPATH`` set to that ``src``
and ``SRPL_BUDGET_SECONDS`` unset, so no memo survives from one
repetition to the next.

``--trace 0`` repeats the workload while the next repetition fits in
``--seconds`` and prints the end-to-end metrics: ``wall_s`` (median
elapsed time of the work over the repetitions), ``setup_s`` (median of
several fresh set-ups), ``peak_rss_mb`` (largest resident set of any
process of the run).  Both times are given at a nominal host speed: the
measured processes interleave their work with reference slices
(``bench/speed.py``), and each stretch of work is scaled by the slice
after it.  The unscaled times are printed beside.  Wrong answers,
exceptions, budget exits and unexpected exit codes are counted in
``failed``; the report shows ``failed_frac``.

``--trace 1`` runs the workload once untraced and once with span
wrappers installed, and prints the per-layer metrics and the tracing
overhead.  ``cube-sweep`` is traced with one process, since wrappers do
not reach pool workers; its untraced one-process wall is given beside.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See ``bench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 11
RUN_LIMIT_S = 170.0  # every run ends well within 180 s


class Child:
    """Fresh-interpreter processes of one run, all bounded by its deadline."""

    def __init__(self, smoke: bool) -> None:
        self.smoke = smoke
        self.deadline = time.monotonic() + RUN_LIMIT_S
        env = dict(os.environ)
        env.pop("SRPL_BUDGET_SECONDS", None)
        env["PYTHONPATH"] = str(SRC)
        self.env = env

    def __call__(self, args: list[str], stdin: str | None = None):
        """(report, t_spawn, t_exit); report is None if the process failed,
        timed out or printed no report."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            print(f"bench: out of time before {args[:2]}", file=sys.stderr)
            return None, 0.0, 0.0
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), *args],
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,  # its pool workers share its process group
        )
        try:
            stdout, _ = proc.communicate(stdin, timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            print(f"bench: {args[:2]} killed at the run's time limit", file=sys.stderr)
            return None, t_spawn, time.monotonic()
        t_exit = time.monotonic()
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"bench: {args[:2]} exited {proc.returncode}", file=sys.stderr)
            return None, t_spawn, t_exit
        try:
            return json.loads(lines[-1]), t_spawn, t_exit
        except json.JSONDecodeError:
            print(f"bench: {args[:2]} printed no report", file=sys.stderr)
            return None, t_spawn, t_exit

    def flags(self, seed: int) -> list[str]:
        return ["--seed", str(seed)] + (["--smoke"] if self.smoke else [])


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, notes=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(notes)


def run_rep(child: Child, workload: str, seed: int, tally: Tally, *, parallel: int, extra=()) -> dict | None:
    """One repetition of enum-walk or cube-sweep: the child's report, or
    None if the process failed."""
    report, _, _ = child(["run", workload, *child.flags(seed), "--parallel", str(parallel), *extra])
    if report is None:
        if workload == "enum-walk":
            expected = wl.ENUM_PREFIX_SMOKE if child.smoke else wl.ENUM_PREFIX
        else:
            expected = wl.CUBE_SAMPLE_SMOKE if child.smoke else wl.CUBE_SAMPLE
        tally.add(expected, expected, [f"{workload} seed {seed}: the process failed"])
        return None
    tally.add(report["attempted"], report["failed"], report["notes"])
    return report


def run_queries(child: Child, seed: int, tally: Tally, *, trace: bool = False, meter: bool = False) -> dict:
    """One pass over the oracle query mix, one CLI process per step.
    ``metered`` is (work seconds, scaled seconds) summed over the steps."""
    works, startups, scaled = [], [], []
    layers: dict[str, float] = {}
    for name, steps in wl.oracle_queries(seed, child.smoke):
        stdin, reason = None, None
        for k, (argv, expected) in enumerate(steps):
            args = ["cli", "--meter"] if meter else ["cli"]
            if trace:
                args += ["--trace", str(OUT / f"spans-oracle-queries-{seed}-{name}-{k}.csv.gz")]
            report, t_spawn, _ = child([*args, "--", *argv], stdin)
            if report is None:
                reason = "the process failed"
                break
            works.append(report["t_end"] - t_spawn)
            startups.append(report["t_main"] - t_spawn)
            if "scaled" in report:
                scaled.append((report["wall"], report["scaled"]))
            _merge(layers, report.get("layers", {}))
            reason = wl.check_step(expected, report["exit"], report["stdout"])
            if reason:
                break
            stdin = report["stdout"]
        tally.add(1, 1 if reason else 0, [f"{name}: {reason}"] if reason else [])
    return {"work": sum(works), "startups": startups, "layers": layers,
            "metered": tuple(map(sum, zip(*scaled))) if scaled else None}


def _merge(into: dict, more: dict) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0.0) + value


def measure(workload: str, seed: int, seconds: int, child: Child):
    """--trace 0: the end-to-end metrics, at the nominal host speed."""
    tally = Tally()
    setups: list[tuple[float, float]] = []  # (seconds, scaled)
    for _ in range(SETUP_REPEATS):
        report, t_spawn, _ = child(["setup", workload, *child.flags(seed)])
        if report is None:
            tally.add(1, 1, ["set-up failed"])
            continue
        took = report["t_ready"] - t_spawn
        setups.append((took, took * speed.REF_NOMINAL_S / report["ref"]))
    reps: list[tuple[float, float]] = []  # (work seconds, scaled)
    t_start = time.monotonic()
    while True:
        failed, t_rep = tally.failed, time.monotonic()
        if workload == "oracle-queries":
            metered = run_queries(child, seed, tally, meter=True)["metered"]
        else:
            report = run_rep(child, workload, seed, tally, parallel=wl.CUBE_PARALLEL, extra=["--meter"])
            metered = (report["wall"], report["scaled"]) if report and "scaled" in report else None
        if metered is None or tally.failed > failed:
            break
        reps.append(metered)
        now = time.monotonic()
        if now - t_start + (now - t_rep) > seconds:  # the next one would not fit
            break
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    median = lambda pairs, i: statistics.median(p[i] for p in pairs) if pairs else 0.0  # noqa: E731
    metrics = {
        "wall_s": (median(reps, 1), "s", f"median of {len(reps)} repetitions, nominal speed"),
        "setup_s": (median(setups, 1), "s", f"median of {len(setups)} fresh set-ups, nominal speed"),
        "peak_rss_mb": (peak_kb / 1024, "MB", "largest resident set of any process of the run"),
    }
    notes = [
        "repetitions: " + ", ".join(f"{x:.3f}" for _, x in reps) + " s at nominal speed",
        f"unscaled: wall_s {median(reps, 0):.3f} s (" + ", ".join(f"{w:.3f}" for w, _ in reps)
        + f"), setup_s {median(setups, 0):.3f} s",
        f"nominal speed: a reference slice in {speed.REF_NOMINAL_S * 1000:.0f} ms",
    ]
    if workload == "oracle-queries":
        notes.append("wall_s sums the CLI commands' run times (cli.main); start-up is in setup_s")
    if workload == "cube-sweep":
        notes.append(f"run_sweep(parallel={wl.CUBE_PARALLEL}, sample={wl.CUBE_SAMPLE_SMOKE if child.smoke else wl.CUBE_SAMPLE}, seed={seed}) each repetition")
    return metrics, tally, notes


def trace_run(workload: str, seed: int, child: Child):
    """--trace 1: one untraced and one traced repetition, same configuration."""
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    notes = []
    extra = {"cli.processes": 0.0, "cli.startup_s": 0.0}
    if workload == "oracle-queries":
        plain = run_queries(child, seed, tally)
        traced = run_queries(child, seed, tally, trace=True)
        untraced_wall, traced_wall, layers = plain["work"], traced["work"], traced["layers"]
        extra["cli.processes"] = float(len(plain["startups"]))
        extra["cli.startup_s"] = statistics.median(plain["startups"]) if plain["startups"] else 0.0
        notes.append("walls are spawn to end of the CLI command, summed over the processes")
    else:
        spans_file = str(OUT / f"spans-{workload}-{seed}.csv.gz")
        plain = run_rep(child, workload, seed, tally, parallel=1)
        traced = run_rep(child, workload, seed, tally, parallel=1, extra=["--trace", spans_file])
        untraced_wall = plain["wall"] if plain else 0.0
        traced_wall, layers = (traced["wall"], traced["layers"]) if traced else (0.0, {})
        if workload == "cube-sweep":
            notes.append("traced with parallel=1 (wrappers do not reach pool workers); "
                         f"the end-to-end runs use parallel={wl.CUBE_PARALLEL}")
    overhead = traced_wall - untraced_wall
    notes.append(f"untraced wall in the traced configuration: {untraced_wall:.3f} s")
    notes.append(f"tracing overhead: {overhead:.3f} s (traced {traced_wall:.3f} s - untraced {untraced_wall:.3f} s)")
    extra["trace.untraced_wall_s"] = untraced_wall
    extra["trace.overhead_s"] = overhead
    return layer_metrics(layers, extra), tally, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(r: dict, extra: dict) -> dict:
    """Per-layer metrics from summed span aggregates.  Function ``busy_s``
    is inclusive time (outermost spans of that function); layer ``busy_s``
    and ``self_s`` are self time (span time minus child spans)."""
    g = lambda key: float(r.get(key, 0.0))  # noqa: E731
    m = {
        "enumeration.antichains": (g("count:enumeration.antichains"), "count", ""),
        "enumeration.classes": (g("count:enumeration.distinct_complexes.items"), "count", ""),
        "enumeration.yield_ratio": (
            _ratio(g("count:enumeration.distinct_complexes.items"), g("count:enumeration.antichains")),
            "ratio", "classes / antichains"),
        "enumeration.busy_s": (g("self_s:enumeration"), "s", "self time"),
        "enumeration.sample_s": (g("incl_s:enumeration.sample_complexes"), "s", "set-up and run_sweep both sample"),
        "complexes.busy_s": (g("self_s:complexes"), "s", "self time"),
        "matroids.calls": (g("entries:matroids"), "count", "calls into the layer"),
        "matroids.busy_s": (g("self_s:matroids"), "s", "self time"),
    }
    for metric, fn in (
        ("ideals.symbolic_power", "ideals.symbolic_power_ideal"),
        ("ideals.power", "ideals.MonomialIdeal.power"),
        ("ideals.minimalize", "ideals.minimalize"),
        ("ideals.contract", "ideals.contract"),
        ("bits.minimal_transversals", "bits.minimal_transversals"),
        ("linalg.rank", "linalg.rank"),
    ):
        m[f"{metric}.calls"] = (g(f"calls:{fn}"), "count", "")
        m[f"{metric}.busy_s"] = (g(f"incl_s:{fn}"), "s", "inclusive")
    m["ideals.minimalize.vectors_in"] = (g("count:ideals.minimalize.vectors_in"), "count", "")
    m["ideals.minimalize.kept_ratio"] = (
        _ratio(g("count:ideals.minimalize.kept"), g("count:ideals.minimalize.vectors_in")),
        "ratio", "generators kept / vectors in")
    m["linalg.rank.cells"] = (g("count:linalg.rank.cells"), "count", "sum of rows x cols")
    scans = g("calls:cohomology._scan")
    m.update({
        "cohomology.oracle_calls": (g("count:cohomology.oracle_calls"), "count", "is_cm/is_s2/is_generalized_cm/depth_dim"),
        "cohomology.scans": (scans, "count", "memo misses"),
        "cohomology.memo_lookups": (g("count:cohomology.memo_lookups"), "count", ""),
        "cohomology.scan_ratio": (
            _ratio(scans, g("count:cohomology.memo_lookups") + g("calls:cohomology.depth_dim")),
            "ratio", "scans / (memo lookups + depth_dim calls)"),
        "cohomology.box_rows": (g("count:cohomology.box_rows"), "count", "computed from max exponents"),
        "cohomology.box_build_s": (g("incl_s:cohomology._box_rows"), "s", "inclusive"),
        "cohomology.memo_entries": (g("count:cohomology.memo_entries"), "count", "at process end"),
        "cohomology.self_s": (g("self_s:cohomology"), "s", "self time"),
        "classify.calls": (g("entries:classify"), "count", "calls into the layer"),
        "classify.busy_s": (g("self_s:classify"), "s", "self time"),
        "sweeps.rows": (g("count:sweeps.rows"), "count", ""),
    })
    for check in wl.CUBE_CHECKS:
        m[f"sweeps.check_s.{check}"] = (g(f"program_s:sweeps.check_s.{check}"), "s", "program-made SweepRow.seconds")
    m["cli.processes"] = (extra["cli.processes"], "count", "")
    m["cli.startup_s"] = (extra["cli.startup_s"], "s", "median spawn to cli.main, untraced")
    m["trace.untraced_wall_s"] = (extra["trace.untraced_wall_s"], "s", "traced configuration, no wrappers")
    m["trace.overhead_s"] = (extra["trace.overhead_s"], "s", "traced wall - untraced wall")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="srpowers benchmark")
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=wl.ACCEPTANCE_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (SRC / "srpowers" / "__init__.py").is_file():
        print(f"bench: no srpowers package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    child = Child(args.smoke)
    if args.trace:
        metrics, tally, notes = trace_run(args.workload, args.seed, child)
    else:
        metrics, tally, notes = measure(args.workload, args.seed, args.seconds, child)
    failed_frac = _ratio(tally.failed, tally.attempted)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for note in notes:
        print(f"#   {note}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit:6s} {note}")
    print(f"{'failed_frac':34s} {failed_frac:14.6g} {'ratio':6s} {tally.failed} of {tally.attempted} items failed")
    for note in tally.notes[:20]:
        print(f"#   failed: {note}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
