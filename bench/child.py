"""One measured process of the benchmark, started fresh by ``run.py``.

    child.py setup WORKLOAD --seed S [--smoke]
        import srpowers and build the workload's inputs, report the
        moment that was done, then time one reference slice
    child.py run WORKLOAD --seed S [--smoke] [--parallel P] [--trace FILE | --meter]
        build the inputs, time the workload's work, check the answers
    child.py cli [--trace FILE | --meter] -- ARGS...
        one srpowers CLI call, its stdout captured

Each mode prints one JSON line.  Times named ``t_*`` are readings of
the system-wide monotonic clock, comparable with the parent's.  With
``--trace`` the process installs span wrappers after its imports and
writes the spans to FILE once the work is done.  With ``--meter`` the
work is interleaved with reference slices (``speed.Meter``) and the
report adds its time at the nominal host speed, ``scaled``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback

import speed


def _setup(args) -> dict:
    import workloads

    workloads.SETUP[args.workload](args.seed, args.smoke)
    t_ready = time.monotonic()
    return {"t_ready": t_ready, "ref": speed.reference_slice()}


def _run(args) -> dict:
    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    phase = tracer.phase if tracer else (lambda name: contextlib.nullcontext())
    out: dict = {"layers": {}}
    with phase("bench.setup"):
        inputs = workloads.SETUP[args.workload](args.seed, args.smoke)
    meter = speed.Meter() if args.meter else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with phase("bench.work"), meter:
            if args.workload == "enum-walk":
                result = workloads.enum_work(inputs)
            else:
                result = workloads.cube_work(inputs, args.parallel)
    except Exception:
        out["wall"] = time.perf_counter() - t0
        traceback.print_exc()
        attempted = inputs.get("prefix") or inputs.get("family") or 1
        out.update(attempted=attempted, failed=attempted, notes=["the work raised; see stderr"])
        return out
    out["wall"] = time.perf_counter() - t0
    if args.meter:
        out.update(wall=meter.work_s, scaled=meter.scaled_s)
    if args.workload == "enum-walk":
        attempted, failed, notes = workloads.enum_check(inputs, result)
    else:
        attempted, failed, notes = workloads.cube_check(inputs, result)
        out["layers"].update(workloads.cube_rows(result))
    out.update(attempted=attempted, failed=failed, notes=notes)
    if tracer is not None:
        out["layers"].update(tracer.raw())
        tracer.write(args.trace)
    return out


def _cli(args) -> dict:
    from srpowers import cli

    t_main = time.monotonic()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    meter = speed.Meter() if args.meter else contextlib.nullcontext()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), meter:
        code = cli.main(args.argv)
    out = {"t_main": t_main, "t_end": time.monotonic(), "exit": code, "stdout": buf.getvalue()}
    if args.meter:
        out.update(wall=meter.work_s, scaled=meter.scaled_s)
    if tracer is not None:
        out["layers"] = tracer.raw()
        tracer.write(args.trace)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="mode", required=True)
    for mode in ("setup", "run"):
        sp = sub.add_parser(mode)
        sp.add_argument("workload")
        sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--smoke", action="store_true")
        if mode == "run":
            sp.add_argument("--parallel", type=int, default=1)
            sp.add_argument("--trace", default=None)
            sp.add_argument("--meter", action="store_true")
    sc = sub.add_parser("cli")
    sc.add_argument("--trace", default=None)
    sc.add_argument("--meter", action="store_true")
    sc.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    out = {"setup": _setup, "run": _run, "cli": _cli}[args.mode](args)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
