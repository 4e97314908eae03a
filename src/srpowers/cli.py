"""Command-line front end.

Subcommands:

* ``analyze``: classify a complex/power/property query, optionally
  confirming with the exact oracle.  Exit code 0 = holds, 1 = fails,
  2 = oracle_only without --oracle.
* ``power``: construct an ordinary or symbolic power and print it as
  canonical ideal JSON.
* ``depth``: run the depth oracle on an ideal (or the Stanley-Reisner
  ideal of a complex) and print the report as JSON.
* ``sweep``: enumerate or sample small complexes, run named checks,
  emit CSV; nonzero exit on any disagreement.

Usage errors exit 64, malformed input (not JSON, or JSON of the wrong
shape) 65, exhausted budgets and input past a desk-scale limit 3.
The environment variable SRPL_BUDGET_SECONDS supplies a default budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cohomology as co
from .classify import Query, classify, classify_with_oracle
from .fixtures import MalformedInput, parse_complex_spec, parse_input
from .ideals import (
    DeskScaleExceeded,
    MonomialIdeal,
    cover_ideal,
    facet_ideal,
    sr_ideal,
    symbolic_power_ideal,
)
from .linalg import parse_field
from .sweeps import CSV_HEADER, run_sweep

EX_OK, EX_FAILS, EX_ORACLE_ONLY, EX_BUDGET = 0, 1, 2, 3
EX_USAGE, EX_DATA = 64, 65

KIND_MAP = {
    "sr-symbolic": ("stanley_reisner", "symbolic"),
    "sr-ordinary": ("stanley_reisner", "ordinary"),
    "facet": ("facet", "symbolic"),
    "cover": ("cover", "symbolic"),
}

PROPERTY_MAP = {
    "cm": "CM",
    "s2": "S2",
    "gcm": "gCM",
    "buchsbaum": "Buchsbaum",
    "quasi-buchsbaum": "quasiBuchsbaum",
}


def _default_budget() -> float | None:
    raw = os.environ.get("SRPL_BUDGET_SECONDS")
    return float(raw) if raw else None


def _parse_m(text: str):
    if text == "all":
        return "all"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError('m must be a positive integer or "all"')


def _cmd_analyze(args) -> int:
    obj = parse_complex_spec(args.input)
    ideal_kind, power_kind = KIND_MAP[args.kind]
    prop = PROPERTY_MAP[args.property]
    q = Query(obj, ideal_kind, power_kind, prop, args.m)
    if args.oracle:
        report = classify_with_oracle(q, args.field, args.budget_seconds)
    else:
        report = classify(q)
    print(json.dumps(report.to_json()))
    if report.verdict == "holds":
        return EX_OK
    if report.verdict == "fails":
        return EX_FAILS
    if args.oracle and report.oracle and report.oracle.ran:
        return EX_OK if report.oracle.result else EX_FAILS
    return EX_ORACLE_ONLY


def _base_ideal(obj, ideal_kind: str) -> MonomialIdeal:
    if isinstance(obj, MonomialIdeal):
        return obj
    if ideal_kind == "facet":
        return facet_ideal(obj)
    if ideal_kind == "cover":
        return cover_ideal(obj)
    return sr_ideal(obj)


def _cmd_power(args) -> int:
    obj = parse_input(args.input)
    base = _base_ideal(obj, args.ideal)
    if base.contains_variable:
        print("note: the ideal contains a variable", file=sys.stderr)
    if args.kind == "ordinary":
        out = base.power(args.m)
    else:
        out = symbolic_power_ideal(base, args.m)
    print(json.dumps(out.to_json()))
    return EX_OK


def _cmd_depth(args) -> int:
    obj = parse_input(args.input)
    ideal = obj if isinstance(obj, MonomialIdeal) else sr_ideal(obj)
    deadline = None
    if args.budget_seconds:
        import time

        deadline = time.monotonic() + args.budget_seconds
    report = co.depth_dim(ideal, args.field, deadline=deadline)
    print(json.dumps(report.to_json()))
    return EX_OK


def _parse_dim_filter(text: str) -> tuple[int, int | None]:
    t = text.strip()
    if t.startswith(">="):
        return int(t[2:]), None
    if t.startswith("<="):
        return -1, int(t[2:])
    return int(t), int(t)


def _cmd_sweep(args) -> int:
    dim_min, dim_max = (-1, None)
    if args.dim_filter:
        dim_min, dim_max = _parse_dim_filter(args.dim_filter)
    result = run_sweep(
        args.check.split(","),
        n_max=args.n_max,
        dim_min=dim_min,
        dim_max=dim_max,
        sample=args.sample,
        seed=args.seed,
        budget_seconds=args.budget_seconds,
        parallel=args.parallel,
        resume=args.resume_token,
        field=args.field,
    )
    print(CSV_HEADER)
    for row in result.rows:
        print(row.csv())
    print(f"# processed={result.processed} disagreements={result.disagreements}")
    if result.exhausted:
        print(f"# resume-token: {result.resume_token}")
        return EX_BUDGET
    return EX_FAILS if result.disagreements else EX_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="srpowers",
        description="Combinatorial classification and exact depth oracle for powers of squarefree monomial ideals",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify a (complex, power, property) query")
    pa.add_argument("input", help="named example, JSON, file, or - for stdin")
    pa.add_argument("--kind", required=True, choices=sorted(KIND_MAP))
    pa.add_argument("--m", type=_parse_m, required=True)
    pa.add_argument("--property", required=True, choices=sorted(PROPERTY_MAP))
    pa.add_argument("--oracle", action="store_true", help="also run the exact oracle")
    pa.add_argument("--field", type=parse_field, default=None, help="Q (default) or Fp")
    pa.add_argument("--budget-seconds", type=float, default=_default_budget())
    pa.set_defaults(fn=_cmd_analyze)

    pp = sub.add_parser("power", help="construct a power and print ideal JSON")
    pp.add_argument("input")
    pp.add_argument("--m", type=int, required=True)
    pp.add_argument("--kind", required=True, choices=("ordinary", "symbolic"))
    pp.add_argument("--ideal", default="sr", choices=("sr", "facet", "cover"),
                    help="how to read a complex input as an ideal")
    pp.set_defaults(fn=_cmd_power)

    pd = sub.add_parser("depth", help="depth/dimension report for an ideal")
    pd.add_argument("input")
    pd.add_argument("--field", type=parse_field, default=None)
    pd.add_argument("--budget-seconds", type=float, default=_default_budget())
    pd.set_defaults(fn=_cmd_depth)

    ps = sub.add_parser("sweep", help="run equivalence checks over small complexes")
    ps.add_argument("--check", required=True, help="comma-separated check ids")
    ps.add_argument("--n-max", type=int, default=5)
    ps.add_argument("--dim-filter", default=None, help='e.g. "1", ">=2", "<=2"')
    ps.add_argument("--sample", type=int, default=None,
                    help="use a fixed pseudorandom family of this size instead of enumeration")
    ps.add_argument("--seed", type=int, default=20120711)
    ps.add_argument("--budget-seconds", type=float, default=_default_budget())
    ps.add_argument("--parallel", type=int, default=1)
    ps.add_argument("--resume-token", type=int, default=0)
    ps.add_argument("--field", type=parse_field, default=None)
    ps.set_defaults(fn=_cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EX_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EX_DATA
    except (co.OracleBudgetExceeded, DeskScaleExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_BUDGET
    except MalformedInput as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EX_DATA
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE


if __name__ == "__main__":
    sys.exit(main())
