"""Property-sweep harness: check registry, enumeration driver, CSV rows.

Each check compares two independently computed answers on one complex
(a combinatorial criterion against either a second criterion or the
exact local cohomology oracle).  A sweep runs a family of complexes
through selected checks and reports one row per complex per check;
any disagreement is a failed run.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import cohomology as co
from .bits import support
from .classify import Query, classify
from .complexes import SimplicialComplex
from .enumeration import distinct_complexes, sample_complexes, structured_positives
from .ideals import OrdinaryPower, SymbolicPower, cover_ideal, dual_complex, facet_ideal, sr_ideal
from .matroids import (
    graph_matroid_criterion,
    is_complete_intersection,
    is_locally_ci,
    is_locally_matroid,
    is_matroid_exchange,
    is_matroid_pair,
    matroid_components,
)

CSV_HEADER = "complex_signature,check_id,theorem_verdict,oracle_verdict,seconds"


def complex_signature(c: SimplicialComplex) -> str:
    body = "+".join("".join(str(v) for v in f) for f in c.facet_sets())
    return f"n{c.n}:{body}"


# -- individual checks: return (side_a, side_b) bools or None to skip ---------
# Each takes (complex, field, deadline); the oracle checks hand the deadline
# to the oracle, which raises OracleBudgetExceeded past it.


def _chk_matroid_pair(c, field, deadline):
    return is_matroid_exchange(c), is_matroid_pair(c)


def _chk_graph_4cycle(c, field, deadline):
    if c.is_empty_complex or c.dimension() != 1 or not c.is_pure():
        return None
    return is_matroid_exchange(c), graph_matroid_criterion(c)


def _chk_matroid_local(c, field, deadline):
    if c.is_empty_complex or c.dimension() < 2:
        return None
    return is_matroid_exchange(c), c.is_connected() and is_locally_matroid(c)


def _chk_local_components(c, field, deadline):
    if c.is_empty_complex or c.dimension() < 2 or not c.is_pure():
        return None
    return is_locally_matroid(c), matroid_components(c).ok


def _chk_ci_local(c, field, deadline):
    if c.is_empty_complex or c.dimension() < 2:
        return None
    return is_complete_intersection(c), c.is_connected() and is_locally_ci(c)


def _chk_duality(c, field, deadline):
    if c.is_empty_complex:
        return None
    return is_matroid_exchange(c), is_matroid_exchange(c.complement())


def _sym_cube(c):
    return SymbolicPower.of(sr_ideal(c), 3)


def _ord_cube(c):
    return OrdinaryPower(sr_ideal(c), 3)


def _chk_sym_cube_cm(c, field, deadline):
    if c.is_empty_complex or c.dimension() < 2:
        return None
    return is_matroid_exchange(c), co.is_cm(_sym_cube(c), field, deadline=deadline)


def _chk_sym_cube_s2(c, field, deadline):
    if c.is_empty_complex or c.dimension() < 2:
        return None
    return is_matroid_exchange(c), co.is_s2(_sym_cube(c), field, deadline=deadline)


def _chk_ord_cube_cm(c, field, deadline):
    if c.is_empty_complex or c.dimension() < 1:
        return None
    return is_complete_intersection(c), co.is_cm(_ord_cube(c), field, deadline=deadline)


def _chk_sym_cube_gcm(c, field, deadline):
    if c.is_empty_complex or c.dimension() < 2:
        return None
    verdict = classify(Query(c, "stanley_reisner", "symbolic", "gCM", 3)).verdict
    return verdict == "holds", co.is_generalized_cm(_sym_cube(c), field, deadline=deadline)


def _chk_ord_cube_gcm(c, field, deadline):
    if c.is_empty_complex or c.dimension() < 2:
        return None
    verdict = classify(Query(c, "stanley_reisner", "ordinary", "gCM", 3)).verdict
    return verdict == "holds", co.is_generalized_cm(_ord_cube(c), field, deadline=deadline)


def _chk_cover_cube_cm(c, field, deadline):
    if c.is_empty_complex:
        return None
    cube = SymbolicPower.of(cover_ideal(c), 3)
    return is_matroid_exchange(c), co.is_cm(cube, field, deadline=deadline)


def _chk_facet_cube_cm(c, field, deadline):
    if c.is_empty_complex or facet_ideal(c).contains_variable:
        return None
    cube = SymbolicPower.of(facet_ideal(c), 3)
    return is_matroid_exchange(dual_complex(c)), co.is_cm(cube, field, deadline=deadline)


def _routes_agree(cube, field, deadline):
    """CM and S2 of a cube value against the same checks on its explicit
    generators."""
    value = [f(cube, field, deadline=deadline) for f in (co.is_cm, co.is_s2)]
    general = [f(cube.ideal(), field, deadline=deadline) for f in (co.is_cm, co.is_s2)]
    return value == general


def _chk_sym_cube_routes(c, field, deadline):
    """Cross-check of the two oracle routes: CM and S2 of the symbolic cube
    from the facets (closed form) and from its explicit generators."""
    if c.is_empty_complex:
        return None
    return True, _routes_agree(_sym_cube(c), field, deadline)


def _chk_ord_cube_routes(c, field, deadline):
    """Cross-check of the two oracle routes: CM and S2 of the ordinary cube
    through I^3 = I^(3) and the symbolic verdict, and from its explicit
    generators."""
    if c.is_empty_complex:
        return None
    return True, _routes_agree(_ord_cube(c), field, deadline)


def _chk_degree_complex_links(c, field, deadline):
    if c.is_empty_complex:
        return None
    ideal = sr_ideal(c)
    if ideal.is_zero:
        return None
    ok = True
    for a in itertools.product((-1, 0), repeat=c.n):
        g = support(x < 0 for x in a)
        da = co.degree_complex(ideal, a)
        if c.has_face(g):
            ok = ok and da.facets == c.link(g).facets
        else:
            ok = ok and da.is_void
        if not ok:
            break
    return True, ok


def _chk_reisner(c, field, deadline):
    if c.is_empty_complex:
        return None
    ideal = sr_ideal(c)
    if ideal.is_zero:
        return co.reisner_is_cm(c, field), True
    return co.reisner_is_cm(c, field), co.is_cm(ideal, field, deadline=deadline)


CHECKS = {
    "matroid-pair-criterion": _chk_matroid_pair,
    "graph-4-cycle-criterion": _chk_graph_4cycle,
    "matroid-local-connected": _chk_matroid_local,
    "local-matroid-components": _chk_local_components,
    "ci-local-connected": _chk_ci_local,
    "matroid-complement-duality": _chk_duality,
    "sym-cube-cm": _chk_sym_cube_cm,
    "sym-cube-s2": _chk_sym_cube_s2,
    "ord-cube-cm": _chk_ord_cube_cm,
    "sym-cube-gcm": _chk_sym_cube_gcm,
    "ord-cube-gcm": _chk_ord_cube_gcm,
    "cover-cube-cm": _chk_cover_cube_cm,
    "facet-cube-cm": _chk_facet_cube_cm,
    "sym-cube-routes": _chk_sym_cube_routes,
    "ord-cube-routes": _chk_ord_cube_routes,
    "degree-complex-links": _chk_degree_complex_links,
    "reisner-cm": _chk_reisner,
}


@dataclass(frozen=True)
class SweepRow:
    signature: str
    check_id: str
    theorem_verdict: str
    oracle_verdict: str
    seconds: float

    def csv(self) -> str:
        return (
            f"{self.signature},{self.check_id},{self.theorem_verdict},"
            f"{self.oracle_verdict},{self.seconds:.3f}"
        )

    @property
    def agree(self) -> bool:
        return self.theorem_verdict == self.oracle_verdict


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    disagreements: int
    processed: int
    exhausted: bool  # budget ran out before the family did

    @property
    def resume_token(self) -> int | None:
        return self.processed if self.exhausted else None


def _job(args) -> list[tuple] | None:
    """The rows of one complex, or None when an oracle check ran past the
    deadline (an absolute ``time.monotonic`` reading; the clock is
    system-wide, so pool workers share it)."""
    n, facets, check_ids, field, deadline = args
    c = SimplicialComplex(n, frozenset(facets))
    sig = complex_signature(c)
    rows = []
    for cid in check_ids:
        t0 = time.monotonic()
        try:
            got = CHECKS[cid](c, field, deadline)
        except co.OracleBudgetExceeded:
            return None
        if got is None:
            continue
        a, b = got
        rows.append((sig, cid, str(bool(a)), str(bool(b)), time.monotonic() - t0))
    return rows


def _family(n_max, dim_min, dim_max, sample, seed):
    if sample:
        return sample_complexes(n_max, sample, seed, dim_min=max(dim_min, 0), dim_max=dim_max) + [
            c
            for c in structured_positives()
            if dim_min <= c.dimension() and (dim_max is None or c.dimension() <= dim_max)
        ]
    return distinct_complexes(n_max, dim_min=dim_min, dim_max=dim_max)


def run_sweep(
    check_ids,
    *,
    n_max: int = 5,
    dim_min: int = -1,
    dim_max: int | None = None,
    sample: int | None = None,
    seed: int = 20120711,
    budget_seconds: float | None = None,
    parallel: int = 1,
    resume: int = 0,
    field: int | None = None,
) -> SweepResult:
    """Run checks over a family of complexes; deterministic row order.

    With a budget, the run stops at the first complex left unfinished when
    time runs out, and ``resume_token`` names it.  The first complex of a
    run is exempt from the budget, so resuming always makes progress.
    """
    if n_max > 7:
        raise ValueError("sweeps are limited to n_max <= 7")
    if n_max == 7 and not sample:
        raise ValueError(
            "an exhaustive sweep at n_max=7 covers about 4.9e8 isomorphism classes; "
            "pass a sample size (--sample)"
        )
    unknown = [cid for cid in check_ids if cid not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    deadline = time.monotonic() + budget_seconds if budget_seconds else None
    family = _family(n_max, dim_min, dim_max, sample, seed)
    jobs = (
        (c.n, tuple(sorted(c.facets)), tuple(check_ids), field, deadline if i else None)
        for i, c in enumerate(itertools.islice(family, resume, None))
    )

    rows: list[SweepRow] = []
    processed = resume
    exhausted = stop = False
    pool = ProcessPoolExecutor(max_workers=parallel) if parallel > 1 else None
    try:
        while not stop and (chunk := list(itertools.islice(jobs, 256 if pool else 1))):
            outs = pool.map(_job, chunk, chunksize=16) if pool else map(_job, chunk)
            for k, out in enumerate(outs, start=1):
                if out is None:
                    stop = exhausted = True
                    break
                rows.extend(SweepRow(*r) for r in out)
                processed += 1
                if deadline is not None and time.monotonic() > deadline:
                    stop = True
                    exhausted = k < len(chunk) or next(jobs, None) is not None
                    break
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)

    disagreements = sum(1 for r in rows if not r.agree)
    return SweepResult(tuple(rows), disagreements, processed, exhausted)
