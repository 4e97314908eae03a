"""The benchmark's workloads: inputs from a seed, the timed work, and
the answer checks that feed ``failed``.

enum-walk
    Criterion-5 shape.  Walk ``distinct_complexes(6)`` to a fixed prefix
    of classes and compare ``is_matroid_exchange`` with
    ``is_matroid_pair`` on each.  Enumeration does almost all the work.
    The prefix runs past two stretches where the walk visits hundreds of
    antichains per new class, so a generator that skips duplicates shows.
    The inputs are the same for every seed.
cube-sweep
    Criteria 6-7 shape.  ``run_sweep`` over four cube checks on a seeded
    sample of complexes on six vertices plus ``structured_positives()``,
    with two worker processes.  Many small ideals share work through the
    oracle's memo tables.
oracle-queries
    A fixed mix of CLI calls, each in a fresh process with cold memos:
    few large ideals, no reuse.  The seed only shuffles the call order.

Nothing here imports srpowers at module level: the parent process of
the benchmark never loads the package under test.
"""

from __future__ import annotations

import json
import random

ENUM_N = 6
ENUM_PREFIX = 5500
ENUM_PREFIX_SMOKE = 300

CUBE_CHECKS = ("sym-cube-cm", "sym-cube-s2", "ord-cube-cm", "cover-cube-cm")
CUBE_N_MAX = 6
CUBE_DIM_MIN = 2
CUBE_SAMPLE = 500
CUBE_SAMPLE_SMOKE = 4
CUBE_PARALLEL = 2
ACCEPTANCE_SEED = 20120229

WORKLOADS = ("enum-walk", "cube-sweep", "oracle-queries")


def _analyze(spec, kind, prop, *extra):
    return ["analyze", spec, "--kind", kind, "--m", "3", "--property", prop, "--oracle", *extra]


def _holds():
    return {"exit": 0, "verdict": "holds", "oracle": True}


def _fails():
    return {"exit": 1, "verdict": "fails", "oracle": False}


# Each query is a list of steps; a step is (argv, expected).  A step's
# stdin is the previous step's stdout, as in ``power ... | depth -``.
# Expected answers follow the paper's theorems: symbolic, cover and facet
# cubes of matroids are CM/S2/gCM, the ordinary cube is CM only for a
# complete intersection, and the symbolic cube of the 6-cycle has depth 1
# in dimension 2.
ORACLE_QUERIES = {
    "uniform-7-3-sym-cm": [(_analyze("uniform:7:3", "sr-symbolic", "cm"), _holds())],
    "uniform-7-4-sym-cm": [(_analyze("uniform:7:4", "sr-symbolic", "cm"), _holds())],
    "uniform-7-3-sym-s2": [(_analyze("uniform:7:3", "sr-symbolic", "s2"), _holds())],
    "uniform-8-3-sym-gcm": [(_analyze("uniform:8:3", "sr-symbolic", "gcm"), _holds())],
    "uniform-8-3-ord-cm": [(_analyze("uniform:8:3", "sr-ordinary", "cm"), _fails())],
    "uniform-7-3-facet-cm": [(_analyze("uniform:7:3", "facet", "cm"), _holds())],
    "uniform-6-3-cover-cm-f2": [(_analyze("uniform:6:3", "cover", "cm", "--field", "F2"), _holds())],
    "cycle-6-sym-cube-depth": [
        (["power", "cycle:6", "--m", "3", "--kind", "symbolic"], {"exit": 0, "n": 6}),
        (["depth", "-"], {"exit": 0, "depth": 1, "dim": 2}),
    ],
}

ORACLE_QUERIES_SMOKE = {
    "uniform-6-3-cover-cm-f2": ORACLE_QUERIES["uniform-6-3-cover-cm-f2"],
    "five-cycle-sym-cm": [(_analyze("five-cycle", "sr-symbolic", "cm"), _fails())],
    "cycle-6-sym-cube-depth": ORACLE_QUERIES["cycle-6-sym-cube-depth"],
}


def oracle_queries(seed: int, smoke: bool) -> list[tuple[str, list]]:
    """The query mix in the order the seed gives."""
    items = sorted((ORACLE_QUERIES_SMOKE if smoke else ORACLE_QUERIES).items())
    random.Random(seed).shuffle(items)
    return items


def check_step(expected: dict, exit_code: int, stdout: str) -> str | None:
    """None when one CLI step answered as expected, else the reason."""
    if exit_code != expected["exit"]:
        return f"exit {exit_code}, expected {expected['exit']}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    for key, want in expected.items():
        if key == "exit":
            continue
        got = report.get("oracle", {}).get("result") if key == "oracle" else report.get(key)
        if got != want:
            return f"{key} = {got!r}, expected {want!r}"
    return None


# -- enum-walk -------------------------------------------------------------------


def enum_setup(seed: int, smoke: bool) -> dict:
    import srpowers.enumeration  # noqa: F401
    import srpowers.matroids  # noqa: F401

    return {"prefix": ENUM_PREFIX_SMOKE if smoke else ENUM_PREFIX}


def enum_work(inputs: dict) -> list:
    """(facets, exchange, pair) per class, or (facets, error, None)."""
    from srpowers import enumeration, matroids

    out = []
    for c in enumeration.distinct_complexes(ENUM_N):
        try:
            out.append((c.facets, matroids.is_matroid_exchange(c), matroids.is_matroid_pair(c)))
        except Exception as exc:  # an exception fails the class, not the run
            out.append((c.facets, repr(exc), None))
        if len(out) == inputs["prefix"]:
            break
    return out


def enum_check(inputs: dict, classes: list) -> tuple[int, int, list[str]]:
    """Exchange equals pair on every class, the classes have pairwise
    distinct facet sets, and the walk reached the prefix.  Dedup finer
    than the signature (an isomorphism-exact generator) still passes."""
    prefix = inputs["prefix"]
    failed, notes = 0, []
    seen = set()
    for facets, exchange, pair in classes:
        if exchange is not pair or facets in seen:
            failed += 1
            if len(notes) < 5:
                notes.append(f"class {sorted(facets)}: exchange={exchange!r} pair={pair!r}")
        seen.add(facets)
    missing = prefix - len(classes)
    if missing:
        failed += missing
        notes.append(f"walk ended after {len(classes)} of {prefix} classes")
    return prefix, failed, notes


# -- cube-sweep -------------------------------------------------------------------


def cube_setup(seed: int, smoke: bool) -> dict:
    """The sweep's family, built as ``run_sweep`` builds it, to know its size."""
    from srpowers import enumeration

    sample = CUBE_SAMPLE_SMOKE if smoke else CUBE_SAMPLE
    family = enumeration.sample_complexes(CUBE_N_MAX, sample, seed, dim_min=CUBE_DIM_MIN)
    structured = [c for c in enumeration.structured_positives() if c.dimension() >= CUBE_DIM_MIN]
    return {"seed": seed, "sample": sample, "family": len(family) + len(structured)}


def cube_work(inputs: dict, parallel: int):
    from srpowers import sweeps

    return sweeps.run_sweep(
        list(CUBE_CHECKS),
        n_max=CUBE_N_MAX,
        dim_min=CUBE_DIM_MIN,
        sample=inputs["sample"],
        seed=inputs["seed"],
        parallel=parallel,
    )


def cube_check(inputs: dict, result) -> tuple[int, int, list[str]]:
    """No disagreement between theorem and oracle, and every complex of
    the family processed."""
    bad = sorted({r.signature for r in result.rows if not r.agree})
    notes = [f"disagreement on {sig}" for sig in bad[:5]]
    missing = inputs["family"] - result.processed
    if missing or result.exhausted:
        notes.append(f"processed {result.processed} of {inputs['family']}")
    return inputs["family"], len(bad) + max(missing, 0), notes


def cube_rows(result) -> dict[str, float]:
    """The program's own per-row timings (``SweepRow.seconds``) per check."""
    out = {"count:sweeps.rows": float(len(result.rows))}
    for r in result.rows:
        key = f"program_s:sweeps.check_s.{r.check_id}"
        out[key] = out.get(key, 0.0) + r.seconds
    return out


# -- oracle-queries (setup only; the calls run from run.py) ---------------------


def oracle_setup(seed: int, smoke: bool) -> dict:
    """What one CLI process does before its command runs: import the CLI
    and read its inputs."""
    from srpowers import cli, fixtures

    cli.build_parser()
    for _, steps in oracle_queries(seed, smoke):
        argv = steps[0][0]
        fixtures.parse_complex_spec(argv[1])
    return {}


SETUP = {"enum-walk": enum_setup, "cube-sweep": cube_setup, "oracle-queries": oracle_setup}
