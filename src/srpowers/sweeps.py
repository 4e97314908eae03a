"""Property-sweep harness: check registry, enumeration driver, CSV rows.

Each check compares two independently computed answers on one complex
(a combinatorial criterion against either a second criterion or the
exact local cohomology oracle; an oracle check takes its criterion from
``classify``'s decision table).  A sweep runs a family of complexes
through selected checks and reports one row per complex per check;
any disagreement is a failed run.
Serial and parallel sweeps run one loop (``run_sweep``): the jobs, one
per complex, stream in small batches through a bounded window and come
back in family order.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from . import cohomology as co
from .bits import support
from .classify import Query, build_ideal, classify, run_oracle
from .complexes import SimplicialComplex
from .enumeration import distinct_complexes, sample_complexes, structured_positives
from .ideals import sr_ideal
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

# A parallel sweep hands each worker batches of _BATCH jobs and keeps at
# most _WINDOW batches per worker in flight.  Batches this small keep both
# workers busy to the end of a family whose costly complexes come last
# (the structured positives); one job per task costs more in pickling
# and wake-ups than it saves.
_BATCH = 8
_WINDOW = 2


def complex_signature(c: SimplicialComplex) -> str:
    body = "+".join("".join(str(v) for v in f) for f in c.facet_sets())
    return f"n{c.n}:{body}"


# -- individual checks: return (side_a, side_b) bools or None to skip ---------
# Each takes (complex, field, deadline); the oracle checks hand the deadline
# to the oracle, which raises OracleBudgetExceeded past it.


def _chk_matroid_pair(c, field, deadline):
    return is_matroid_exchange(c), is_matroid_pair(c)


def _chk_graph_4cycle(c, field, deadline):
    if c.dimension() != 1 or not c.is_pure():
        return None
    return is_matroid_exchange(c), graph_matroid_criterion(c)


def _chk_matroid_local(c, field, deadline):
    if c.dimension() < 2:
        return None
    return is_matroid_exchange(c), c.is_connected() and is_locally_matroid(c)


def _chk_local_components(c, field, deadline):
    if c.dimension() < 2 or not c.is_pure():
        return None
    return is_locally_matroid(c), matroid_components(c).ok


def _chk_ci_local(c, field, deadline):
    if c.dimension() < 2:
        return None
    return is_complete_intersection(c), c.is_connected() and is_locally_ci(c)


def _chk_duality(c, field, deadline):
    return is_matroid_exchange(c), is_matroid_exchange(c.complement())


def _theorem_vs_oracle(kinds, c, field, deadline):
    """``classify``'s verdict on the cube query of the given (ideal kind,
    power kind, property) against the oracle; None wherever ``classify``
    answers oracle_only."""
    q = Query(c, *kinds, 3)
    verdict = classify(q).verdict
    if verdict == "oracle_only":
        return None
    return verdict == "holds", run_oracle(q, field, deadline=deadline).result


def _routes_agree(power_kind, c, field, deadline):
    """Cross-check of the two oracle routes: CM and S2 of the cube value
    (symbolic: closed form from the facets; ordinary: I^3 = I^(3) and the
    symbolic verdict) against the same checks on its explicit generators."""
    cube = build_ideal(Query(c, "stanley_reisner", power_kind, "CM", 3))
    value = [f(cube, field, deadline=deadline) for f in (co.is_cm, co.is_s2)]
    general = [f(cube.ideal(), field, deadline=deadline) for f in (co.is_cm, co.is_s2)]
    return True, value == general


def _chk_degree_complex_links(c, field, deadline):
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
    "sym-cube-cm": partial(_theorem_vs_oracle, ("stanley_reisner", "symbolic", "CM")),
    "sym-cube-s2": partial(_theorem_vs_oracle, ("stanley_reisner", "symbolic", "S2")),
    "ord-cube-cm": partial(_theorem_vs_oracle, ("stanley_reisner", "ordinary", "CM")),
    "sym-cube-gcm": partial(_theorem_vs_oracle, ("stanley_reisner", "symbolic", "gCM")),
    "ord-cube-gcm": partial(_theorem_vs_oracle, ("stanley_reisner", "ordinary", "gCM")),
    "cover-cube-cm": partial(_theorem_vs_oracle, ("cover", "symbolic", "CM")),
    "facet-cube-cm": partial(_theorem_vs_oracle, ("facet", "symbolic", "CM")),
    "sym-cube-routes": partial(_routes_agree, "symbolic"),
    "ord-cube-routes": partial(_routes_agree, "ordinary"),
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


def _jobs(batch) -> list[list[tuple] | None]:
    """``_job`` over a batch of jobs in family order, stopping after the
    first None: a complex past the deadline ends the run there."""
    outs = []
    for args in batch:
        outs.append(out := _job(args))
        if out is None:
            break
    return outs


def _family(n_max, dim_min, dim_max, sample, seed):
    if sample is not None:
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

    The jobs stream through a window of at most ``_WINDOW * parallel``
    batches, taken in order; a new batch goes in as each one comes out, so
    no worker waits for a slow batch of another.  ``budget_seconds`` is a
    finite number > 0, or None for no budget (ValueError otherwise).
    With a budget, the run stops at the first complex left unfinished when
    time runs out, and ``resume_token`` names it; batches still in the
    window are cancelled or left to the resume.  The first complex of a
    run is exempt from the budget, so resuming always makes progress.
    """
    for option, value, least in (("--n-max", n_max, 1), ("--sample", sample, 1),
                                 ("--parallel", parallel, 1), ("--resume-token", resume, 0)):
        if value is not None and value < least:
            raise ValueError(f"{option} must be at least {least}, not {value}")
    if n_max > 7:
        raise ValueError("sweeps are limited to n_max <= 7")
    if n_max == 7 and sample is None:
        raise ValueError(
            "an exhaustive sweep at n_max=7 covers about 4.9e8 isomorphism classes; "
            "pass a sample size (--sample)"
        )
    unknown = [cid for cid in check_ids if cid not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    co.check_budget(budget_seconds)
    deadline = time.monotonic() + budget_seconds if budget_seconds is not None else None
    family = _family(n_max, dim_min, dim_max, sample, seed)
    jobs = (
        (c.n, tuple(sorted(c.facets)), tuple(check_ids), field, deadline if i else None)
        for i, c in enumerate(itertools.islice(family, resume, None))
    )

    rows: list[SweepRow] = []
    processed = resume
    exhausted = stop = False
    pool = ProcessPoolExecutor(max_workers=parallel) if parallel > 1 else None
    size = _BATCH if pool else 1
    window: deque = deque()  # callables giving each batch's outs, in family order
    try:
        while not stop:
            while len(window) < _WINDOW * parallel and (batch := list(itertools.islice(jobs, size))):
                window.append(pool.submit(_jobs, batch).result if pool else partial(_jobs, batch))
            if not window:
                break
            outs = window.popleft()()
            for k, out in enumerate(outs, start=1):
                if out is None:
                    stop = exhausted = True
                    break
                rows.extend(SweepRow(*r) for r in out)
                processed += 1
                if deadline is not None and time.monotonic() > deadline:
                    # the window was topped up before this batch was taken,
                    # so it is empty only when the family is done
                    stop = True
                    exhausted = k < len(outs) or bool(window)
                    break
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)

    disagreements = sum(1 for r in rows if not r.agree)
    return SweepResult(tuple(rows), disagreements, processed, exhausted)
