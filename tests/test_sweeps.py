import multiprocessing

import pytest

from srpowers import bits, complexes
from srpowers import cohomology as co
from srpowers import sweeps
from srpowers.classify import Query, classify
from srpowers.complexes import uniform_matroid
from srpowers.enumeration import distinct_complexes
from srpowers.sweeps import complex_signature, run_sweep


def _verdicts(result):
    return [(r.signature, r.check_id, r.theorem_verdict, r.oracle_verdict) for r in result.rows]


CUBE_CHECKS = ["sym-cube-cm", "sym-cube-s2", "ord-cube-cm", "cover-cube-cm"]


def test_parallel_budget_leaves_the_rest_of_the_window_to_the_resume():
    # the budget runs out while batches are still in the pool's window, so
    # the complexes after the stop are left for the resume
    r = run_sweep(["sym-cube-cm"], n_max=6, dim_min=2, sample=60, seed=3,
                  parallel=2, budget_seconds=0.01)
    assert r.exhausted
    assert r.resume_token == r.processed >= 1


def test_parallel_budget_stop_is_a_prefix_that_the_resume_completes():
    checks = ["sym-cube-cm", "ord-cube-cm"]
    kw = dict(n_max=6, dim_min=2, sample=60, seed=3, parallel=2)
    full = run_sweep(checks, **kw)
    cut = run_sweep(checks, budget_seconds=0.01, **kw)
    assert cut.exhausted
    # more complexes were left than the window holds, so it was full at the stop
    assert full.processed - cut.processed > sweeps._WINDOW * 2 * sweeps._BATCH
    head = _verdicts(cut)
    assert head == _verdicts(full)[:len(head)]
    rest = run_sweep(checks, resume=cut.resume_token, **kw)
    assert not rest.exhausted and rest.processed == full.processed
    assert head + _verdicts(rest) == _verdicts(full)


def test_streamed_pool_gives_the_serial_rows():
    # the family spans more batches than the window holds and ends with
    # the structured positives, the costliest complexes
    kw = dict(n_max=6, dim_min=2, sample=40, seed=11)
    serial = run_sweep(CUBE_CHECKS, **kw)
    assert serial.processed > sweeps._WINDOW * 2 * sweeps._BATCH
    assert serial.disagreements == 0
    assert _verdicts(run_sweep(CUBE_CHECKS, parallel=2, **kw)) == _verdicts(serial)


def test_the_order_of_the_checks_moves_no_verdict(monkeypatch):
    """The cube checks forward and reversed, each from empty memo tables:
    what an earlier check leaves held changes the cost of a later one,
    never its verdict (forward, I^(3) is decided before I^3)."""
    kw = dict(n_max=6, dim_min=2, sample=40, seed=11)
    runs = []
    for checks in (CUBE_CHECKS, CUBE_CHECKS[::-1]):
        monkeypatch.setattr(co, "_VANISHES", {})
        result = run_sweep(checks, **kw)
        assert len(result.rows) == len(checks) * result.processed
        runs.append(sorted(_verdicts(result)))
    assert runs[0] == runs[1]


def test_no_worker_outlives_a_sweep():
    run_sweep(["matroid-pair-criterion"], n_max=5, parallel=2)
    assert multiprocessing.active_children() == []
    r = run_sweep(["sym-cube-cm"], n_max=6, dim_min=2, sample=60, seed=3,
                  parallel=2, budget_seconds=0.01)
    assert r.exhausted
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("budget", [0, -1, float("nan"), float("inf")])
def test_budget_must_be_a_finite_number_above_zero(budget):
    with pytest.raises(ValueError, match="finite number of seconds > 0"):
        run_sweep(["matroid-pair-criterion"], n_max=4, budget_seconds=budget)


def test_one_job_computes_the_exchange_witness_once(monkeypatch):
    # three of the four cube checks ask classify for the exchange axiom
    # on the job's one complex object
    calls = []

    def counted(faces):
        calls.append(1)
        return bits.exchange_pair(faces)

    monkeypatch.setattr(complexes, "exchange_pair", counted)
    c = uniform_matroid(5, 2)
    rows = sweeps._job((c.n, tuple(sorted(c.facets)), tuple(CUBE_CHECKS), None, None))
    assert [row[1] for row in rows] == CUBE_CHECKS
    assert len(calls) == 1


def test_check_past_the_deadline_leaves_its_complex_for_the_resume(monkeypatch):
    seen = []

    def probe(c, field, deadline):
        if len(seen) == 2:
            raise co.OracleBudgetExceeded("probe ran past its budget")
        seen.append(c)
        return True, True

    monkeypatch.setitem(sweeps.CHECKS, "probe", probe)
    r = run_sweep(["matroid-pair-criterion", "probe"], n_max=4, budget_seconds=60)
    assert r.exhausted and r.resume_token == r.processed == 2
    # the third complex's finished matroid row is dropped with it
    assert len(r.rows) == 4 and len({row.signature for row in r.rows}) == 2


@pytest.mark.parametrize("parallel", [1, 2])
def test_budgeted_resumes_reproduce_the_unbudgeted_rows(parallel):
    checks = ["sym-cube-cm", "sym-cube-s2", "ord-cube-cm"]
    kw = dict(n_max=5, dim_min=3, sample=4, seed=4, parallel=parallel)
    full = run_sweep(checks, **kw)
    rows, token, runs = [], 0, 0
    while token is not None:
        # the budget is gone before the second complex of a run
        r = run_sweep(checks, budget_seconds=1e-3, resume=token, **kw)
        assert r.processed > token  # every run makes progress
        rows += _verdicts(r)
        token = r.resume_token
        runs += 1
    assert runs > 1
    assert rows == _verdicts(full)


@pytest.mark.parametrize("field", [None, 2])
def test_symbolic_power_routes_cross_check(field):
    r = run_sweep(["sym-cube-routes"], n_max=5, sample=12, seed=11, field=field)
    assert r.disagreements == 0
    assert len(r.rows) >= 12


@pytest.mark.parametrize("field", [None, 2])
@pytest.mark.parametrize("family", [dict(n_max=6, sample=80, seed=5), dict(n_max=4)],
                         ids=["sample", "exhaustive"])
def test_ordinary_power_routes_cross_check(field, family):
    r = run_sweep(["ord-cube-routes"], field=field, **family)
    assert r.disagreements == 0
    assert len(r.rows) >= (80 if "sample" in family else 27)


def test_exhaustive_n7_sweep_is_refused():
    with pytest.raises(ValueError, match="--sample"):
        run_sweep(["matroid-pair-criterion"], n_max=7)


def test_sampled_sweep_respects_the_dimension_window():
    r = run_sweep(["matroid-pair-criterion"], n_max=6, dim_min=1, dim_max=2, sample=30, seed=1)
    assert r.processed > 30  # the sample plus the structured positives in the window
    for row in r.rows:
        facets = row.signature.split(":")[1].split("+")
        assert 1 <= max(len(f) for f in facets) - 1 <= 2


# the cube query (ideal kind, power kind, property) each oracle check reads
CUBE_QUERIES = {
    "sym-cube-cm": ("stanley_reisner", "symbolic", "CM"),
    "sym-cube-s2": ("stanley_reisner", "symbolic", "S2"),
    "ord-cube-cm": ("stanley_reisner", "ordinary", "CM"),
    "sym-cube-gcm": ("stanley_reisner", "symbolic", "gCM"),
    "ord-cube-gcm": ("stanley_reisner", "ordinary", "gCM"),
    "cover-cube-cm": ("cover", "symbolic", "CM"),
    "facet-cube-cm": ("facet", "symbolic", "CM"),
}


@pytest.mark.parametrize("field", [None, 2])
def test_oracle_checks_compare_classify_with_the_oracle_on_every_class(field):
    r = run_sweep(list(CUBE_QUERIES), n_max=5, field=field)
    assert r.processed == 208  # every class on 1..5 vertices
    assert r.disagreements == 0
    expected = {
        (complex_signature(c), cid)
        for c in distinct_complexes(5)
        for cid, kinds in CUBE_QUERIES.items()
        if classify(Query(c, *kinds, 3)).verdict != "oracle_only"
    }
    got = [(row.signature, row.check_id) for row in r.rows]
    assert len(got) == len(set(got))
    assert set(got) == expected
    # the table's theorem for graphs is checked too
    dims = {max(map(len, sig.split(":")[1].split("+"))) - 1 for sig, cid in got if cid == "sym-cube-cm"}
    assert 1 in dims


# rows per combinatorial check over every class on 1..5 vertices: the
# complexes of dimension >= 2, the pure ones among them, and all 208
@pytest.mark.parametrize("check_id, rows", [("matroid-local-connected", 156), ("local-matroid-components", 39),
                                            ("ci-local-connected", 156), ("matroid-complement-duality", 208)])
def test_combinatorial_checks_agree_on_every_class(check_id, rows):
    r = run_sweep([check_id], n_max=5)
    assert r.processed == 208 and r.disagreements == 0
    assert len(r.rows) == rows
