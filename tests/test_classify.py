import importlib
import re
import time

import pytest

from srpowers import cohomology as co
from srpowers import ideals
from srpowers.classify import (
    Query,
    build_ideal,
    classify,
    classify_with_oracle,
    run_oracle,
    verify_against_oracle,
)
from srpowers.complexes import (
    complete_graph,
    cycle,
    disjoint_union,
    embed,
    from_facets,
    path,
    simplex,
    uniform_matroid,
)
from srpowers.fixtures import named_complex

C5 = cycle(5)
EX410 = named_complex("example-4-10")
E54 = named_complex("example-5-4")


def test_query_validation():
    with pytest.raises(ValueError):
        Query(C5, "facet", "ordinary", "CM", 3)
    with pytest.raises(ValueError):
        Query(C5, "stanley_reisner", "symbolic", "CM", 0)
    with pytest.raises(ValueError):
        Query(C5, "stanley_reisner", "symbolic", "cm", 3)
    # a bool is an int to isinstance, but no exponent, as in _check_power
    for m in (True, False):
        with pytest.raises(ValueError, match='m must be a positive integer or "all"'):
            Query(C5, "stanley_reisner", "symbolic", "CM", m)


def test_five_cycle_symbolic_cm_fails_not_matroid():
    rep = classify(Query(C5, "stanley_reisner", "symbolic", "CM", 3))
    assert rep.verdict == "fails"
    assert rep.rule == "symbolic-cm-matroid"
    assert "exchange fails" in rep.witness


def test_example_4_10_ordinary_buchsbaum_m2_is_oracle_only():
    rep = classify(Query(EX410, "stanley_reisner", "ordinary", "Buchsbaum", 2))
    assert rep.verdict == "oracle_only"
    # the oracle cannot decide Buchsbaum; the CM oracle separately says the
    # square is not Cohen-Macaulay (checked in the oracle tests)


def test_example_5_4_facet_symbolic_cm_holds_with_caveat():
    rep = classify(Query(E54, "facet", "symbolic", "CM", "all"))
    assert rep.verdict == "holds"
    assert rep.rule == "facet-cm-dual-matroid"
    assert rep.caveats


def test_matroid_route_large_m_consistency():
    for m in (3, 4, 7, "all"):
        rep = classify(Query(uniform_matroid(5, 2), "stanley_reisner", "symbolic", "CM", m))
        assert rep.verdict == "holds"
        rep = classify(Query(C5, "stanley_reisner", "symbolic", "CM", m))
        assert rep.verdict == "fails"


def test_small_m_is_oracle_only():
    for m in (1, 2):
        for kind in ("sr", "cover"):
            ideal_kind = "stanley_reisner" if kind == "sr" else "cover"
            rep = classify(Query(C5, ideal_kind, "symbolic", "CM", m))
            assert rep.verdict == "oracle_only"


def test_symbolic_s2_dim1_is_oracle_only():
    rep = classify(Query(C5, "stanley_reisner", "symbolic", "S2", 3))
    assert rep.verdict == "oracle_only"


def test_ordinary_routes():
    rep = classify(Query(C5, "stanley_reisner", "ordinary", "CM", 3))
    assert rep.verdict == "fails" and rep.rule == "ordinary-cm-complete-intersection"
    rep = classify(Query(cycle(4), "stanley_reisner", "ordinary", "S2", 3))
    assert rep.verdict == "holds"
    # graphs: Buchsbaum needs m >= 4, m = 3 goes to the oracle side
    rep = classify(Query(C5, "stanley_reisner", "ordinary", "Buchsbaum", 3))
    assert rep.verdict == "oracle_only"
    rep = classify(Query(C5, "stanley_reisner", "ordinary", "Buchsbaum", 4))
    assert rep.verdict == "fails" and rep.rule == "ordinary-buchsbaum-graph-m4"
    two = disjoint_union(embed(simplex(3), 7), embed(uniform_matroid(4, 2), 7, 3))
    rep = classify(Query(two, "stanley_reisner", "ordinary", "Buchsbaum", 3))
    assert rep.rule == "ordinary-buchsbaum-complete-intersection"
    assert rep.verdict == "fails"  # disconnected


def test_gcm_routes():
    # graphs: disjoint paths and cycles
    g = disjoint_union(embed(path(3), 8), embed(cycle(4), 8, 3))
    rep = classify(Query(g, "stanley_reisner", "ordinary", "gCM", 3))
    assert rep.verdict == "holds" and rep.rule == "ordinary-gcm-paths-cycles"
    star = from_facets(4, [(1, 2), (1, 3), (1, 4)])
    rep = classify(Query(star, "stanley_reisner", "ordinary", "gCM", 3))
    assert rep.verdict == "fails"
    # dimension two and up: disjoint equal-dimension pieces
    two = disjoint_union(embed(uniform_matroid(4, 3), 8), embed(uniform_matroid(4, 3), 8, 4))
    rep = classify(Query(two, "stanley_reisner", "symbolic", "gCM", 3))
    assert rep.verdict == "holds" and rep.rule == "symbolic-gcm-disjoint-matroids"
    mixed_dims = disjoint_union(embed(simplex(3), 7), embed(simplex(4), 7, 3))
    rep = classify(Query(mixed_dims, "stanley_reisner", "symbolic", "gCM", 3))
    assert rep.verdict == "fails"
    two_ci = disjoint_union(embed(simplex(3), 6), embed(simplex(3), 6, 3))
    rep = classify(Query(two_ci, "stanley_reisner", "ordinary", "gCM", 3))
    assert rep.verdict == "holds" and rep.rule == "ordinary-gcm-disjoint-ci"


def test_facet_routes():
    two_cliques = disjoint_union(embed(complete_graph(3), 7), embed(complete_graph(4), 7, 3))
    rep = classify(Query(two_cliques, "facet", "symbolic", "CM", 3))
    assert rep.verdict == "holds" and rep.rule == "facet-cm-disjoint-complete-graphs"
    rep = classify(Query(path(4), "facet", "symbolic", "CM", 3))
    assert rep.verdict == "fails"
    u2 = uniform_matroid(5, 2)
    rep = classify(Query(u2, "facet", "symbolic", "CM", 3))
    assert rep.verdict == "holds" and rep.rule == "facet-cm-disjoint-2-uniform"
    # example-5-4 is not a disjoint union of 3-uniform matroids, yet its
    # dual is a matroid, so the dual route still says "holds"
    rep = classify(Query(E54, "facet", "symbolic", "CM", 3))
    assert rep.verdict == "holds" and rep.rule == "facet-cm-dual-matroid"


def test_cover_routes():
    rep = classify(Query(uniform_matroid(6, 2), "cover", "symbolic", "CM", 5))
    assert rep.verdict == "holds" and rep.rule == "cover-cm-matroid"
    rep = classify(Query(C5, "cover", "symbolic", "CM", 3))
    assert rep.verdict == "fails"
    assert any("4-cycle" in cv for cv in rep.caveats)
    rep = classify(Query(complete_graph(4), "cover", "symbolic", "CM", 3))
    assert rep.verdict == "holds"
    assert any("4-cycle" in cv for cv in rep.caveats)


def test_verify_against_oracle_spec_triples():
    r = verify_against_oracle(Query(uniform_matroid(5, 2), "stanley_reisner", "symbolic", "CM", 3))
    assert (r.theorem_verdict, r.oracle_verdict, r.agree) == ("holds", True, True)
    r = verify_against_oracle(Query(C5, "stanley_reisner", "ordinary", "CM", 3))
    assert (r.theorem_verdict, r.oracle_verdict, r.agree) == ("fails", False, True)
    two = disjoint_union(embed(uniform_matroid(4, 3), 8), embed(uniform_matroid(4, 3), 8, 4))
    r = verify_against_oracle(Query(two, "stanley_reisner", "symbolic", "gCM", 3))
    assert (r.theorem_verdict, r.oracle_verdict, r.agree) == ("holds", True, True)


def test_verify_against_oracle_rejects_bad_queries():
    with pytest.raises(ValueError):
        verify_against_oracle(Query(C5, "stanley_reisner", "symbolic", "Buchsbaum", 3))
    with pytest.raises(ValueError):
        verify_against_oracle(Query(C5, "stanley_reisner", "symbolic", "CM", "all"))


def test_a_power_needs_a_concrete_exponent():
    q = Query(C5, "stanley_reisner", "symbolic", "CM", "all")
    rep = classify_with_oracle(q)
    assert rep.verdict == "fails"
    assert rep.oracle.to_json() == {"ran": False, "result": None, "seconds": 0.0,
                                    "note": 'power not constructible at m="all"'}
    with pytest.raises(ValueError, match='m="all"'):
        build_ideal(q)


def test_oracle_attachment():
    rep = classify_with_oracle(Query(EX410, "stanley_reisner", "symbolic", "CM", 2))
    assert rep.verdict == "oracle_only"
    assert rep.oracle.ran and rep.oracle.result is True
    rep = classify_with_oracle(Query(EX410, "stanley_reisner", "ordinary", "CM", 2))
    assert rep.oracle.ran and rep.oracle.result is False
    run = run_oracle(Query(C5, "stanley_reisner", "symbolic", "Buchsbaum", 3))
    assert not run.ran and run.note


@pytest.mark.parametrize("call", [run_oracle, verify_against_oracle, classify_with_oracle])
def test_oracle_past_its_deadline_raises(call, monkeypatch):
    monkeypatch.setattr(co, "_VANISHES", {})
    q = Query(uniform_matroid(6, 3), "stanley_reisner", "symbolic", "CM", 3)
    with pytest.raises(co.OracleBudgetExceeded):
        call(q, deadline=time.monotonic() - 1)


# a complete intersection (minimal nonfaces {1,2} and {3,4}), whose cube
# is its symbolic cube, so the oracle goes on to scan; and the 5-cycle
@pytest.mark.parametrize("c", [from_facets(5, [(1, 3, 5), (1, 4, 5), (2, 3, 5), (2, 4, 5)]), C5],
                         ids=["complete-intersection", "five-cycle"])
def test_an_ordinary_cube_query_finds_the_minimal_nonfaces_once(c, monkeypatch):
    # classify reads them for the complete-intersection criterion; the
    # power the oracle decides carries the same complex and reads them back
    from srpowers import bits, complexes

    monkeypatch.setattr(co, "_VANISHES", {})
    calls = []

    def counted(masks, ground):
        calls.append(ground)
        return bits.minimal_transversals(masks, ground)

    for module in (complexes, ideals, co):
        monkeypatch.setattr(module, "minimal_transversals", counted)
    fresh = complexes.SimplicialComplex(c.n, c.facets)  # nothing held on it yet
    rep = classify_with_oracle(Query(fresh, "stanley_reisner", "ordinary", "CM", 3))
    assert rep.oracle.result is (rep.verdict == "holds")
    assert len(calls) == 1


def test_report_json_shape():
    rep = classify_with_oracle(Query(C5, "stanley_reisner", "symbolic", "CM", 3))
    data = rep.to_json()
    assert set(data) == {"verdict", "theorem", "witness", "caveats", "oracle"}
    assert data["oracle"]["ran"] is True


def test_monotonicity_in_m():
    # for m >= 3 the verdict is independent of m by construction
    for c in (C5, uniform_matroid(5, 2), EX410):
        verdicts = {
            classify(Query(c, "stanley_reisner", "symbolic", "CM", m)).verdict
            for m in (3, 4, 5, 9, "all")
        }
        assert len(verdicts) == 1


def test_gcm_and_facet_routes_agree_with_oracle_on_sampled_family():
    from srpowers.sweeps import run_sweep

    res = run_sweep(
        ["sym-cube-gcm", "ord-cube-gcm", "facet-cube-cm"],
        n_max=6,
        dim_min=2,
        sample=40,
        seed=424242,
        parallel=2,
    )
    assert res.disagreements == 0
    assert len(res.rows) > 100


def test_dim1_cube_routes_match_oracle_exhaustively():
    # symbolic cube CM = matroid and ordinary cube CM = complete
    # intersection already for graphs; checked on every isomorphism class
    # of one-dimensional complexes on up to five vertices
    from srpowers.cohomology import is_cm
    from srpowers.enumeration import distinct_complexes
    from srpowers.ideals import sr_ideal, symbolic_power
    from srpowers.matroids import is_complete_intersection, is_matroid_exchange

    count = 0
    for c in distinct_complexes(5, dim_min=1, dim_max=1):
        if c.is_empty_complex:
            continue
        count += 1
        assert is_cm(symbolic_power(c, 3)) == is_matroid_exchange(c), c
        assert is_cm(sr_ideal(c).power(3)) == is_complete_intersection(c), c
    assert count > 30


def test_cover_route_matches_oracle_in_low_dimensions():
    # the cover-ideal criterion carries no dimension hypothesis; checked
    # exhaustively on the 0- and 1-dimensional isomorphism classes
    from srpowers.cohomology import is_cm
    from srpowers.enumeration import distinct_complexes
    from srpowers.ideals import cover_ideal, symbolic_power_ideal
    from srpowers.matroids import is_matroid_exchange

    count = 0
    for dim in (0, 1):
        for c in distinct_complexes(5, dim_min=dim, dim_max=dim):
            if c.is_empty_complex:
                continue
            count += 1
            cube = symbolic_power_ideal(cover_ideal(c), 3)
            assert is_cm(cube) == is_matroid_exchange(c), c
    assert count > 40


def test_facet_structural_routes_match_oracle_on_small_pure_complexes():
    from srpowers.cohomology import is_cm
    from srpowers.enumeration import distinct_complexes
    from srpowers.ideals import facet_ideal, symbolic_power_ideal

    count = 0
    for dim in (1, 2):
        for c in distinct_complexes(5, dim_min=dim, dim_max=dim):
            if c.is_empty_complex or not c.is_pure():
                continue
            if facet_ideal(c).contains_variable:
                continue
            count += 1
            verdict = classify(Query(c, "facet", "symbolic", "CM", 3)).verdict
            assert verdict in ("holds", "fails")
            oracle = is_cm(symbolic_power_ideal(facet_ideal(c), 3))
            assert (verdict == "holds") == oracle, c
    assert count > 40


_BASES = {"stanley_reisner": ideals.sr_ideal, "facet": ideals.facet_ideal, "cover": ideals.cover_ideal}
_KINDS = (
    ("stanley_reisner", "symbolic"),
    ("stanley_reisner", "ordinary"),
    ("facet", "symbolic"),
    ("cover", "symbolic"),
)


def _power_of_base(q):
    """The power as ``.of`` builds it from the query's base ideal."""
    base = _BASES[q.ideal_kind](q.complex)
    power = ideals.OrdinaryPower if q.power_kind == "ordinary" else ideals.SymbolicPower
    return power.of(base, q.m)


def test_build_ideal_reads_the_power_off_the_complex(monkeypatch):
    # the radical complex read off the query's complex gives the same
    # power as going through the base ideal, on every class on <= 5
    # vertices and on those classes with one more vertex in no facet
    from srpowers import complexes
    from srpowers.enumeration import distinct_complexes

    family = list(distinct_complexes(5))
    family += [embed(c, c.n + 1) for c in family if c.n < 5]
    built = {}
    for c in family:
        for kinds in _KINDS:
            for m in (1, 3):
                q = Query(c, *kinds, "CM", m)
                try:
                    want = _power_of_base(q)
                except ValueError as exc:
                    assert kinds[0] == "stanley_reisner" and "lie in no facet" in str(exc), (q, exc)
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        build_ideal(q)
                    continue
                got = build_ideal(q)
                assert type(got) is type(want), q
                assert (got.n, got.facets, got.m) == (want.n, want.facets, want.m), q
                assert q.ideal_kind != "stanley_reisner" or got.radical_complex is c, q
                built[q] = got
    assert len(built) > 1000

    def refuse(*args):
        raise AssertionError("minimal_transversals called")

    # the Stanley-Reisner and cover powers need no transversal at all
    monkeypatch.setattr(ideals, "minimal_transversals", refuse)
    monkeypatch.setattr(complexes, "minimal_transversals", refuse)
    for q, power in built.items():
        if q.ideal_kind != "facet":
            assert build_ideal(q) == power, q


BOWTIE = from_facets(5, [(1, 2, 3), (3, 4, 5)])
EDGE_AND_POINT = from_facets(3, [(1, 2), (3,)])
STAR = from_facets(4, [(1, 2), (1, 3), (1, 4)])
NO_BUCHSBAUM = ["no algebraic Buchsbaum oracle; theory verdict only"]
VIA_DUAL = ["decided via the dual complex; no facet-side structure criterion in this dimension"]
GRAPH_FORM = ["graph form: every pair of disjoint edges lies in a 4-cycle"]

# (query fields) -> (verdict, theorem, witness, caveats), as ``analyze`` prints them
PINNED_REPORTS = [
    # one "holds" and one "fails" per theorem id, more where the witness
    # takes another form
    ((uniform_matroid(4, 1), "stanley_reisner", "symbolic", "CM", 3),
     ("holds", "symbolic-cm-matroid", None, [])),
    ((C5, "stanley_reisner", "symbolic", "CM", 3),
     ("fails", "symbolic-cm-matroid", "exchange fails for faces (1,) and (3, 4)", [])),
    ((uniform_matroid(5, 2), "stanley_reisner", "symbolic", "S2", 4),
     ("holds", "symbolic-s2-matroid", None, [])),
    ((BOWTIE, "stanley_reisner", "symbolic", "S2", 3),
     ("fails", "symbolic-s2-matroid", "exchange fails for faces (1,) and (4, 5)", [])),
    ((uniform_matroid(4, 2), "stanley_reisner", "symbolic", "Buchsbaum", "all"),
     ("holds", "symbolic-buchsbaum-matroid", None, NO_BUCHSBAUM)),
    ((BOWTIE, "stanley_reisner", "symbolic", "quasiBuchsbaum", 3),
     ("fails", "symbolic-buchsbaum-matroid", "exchange fails for faces (1,) and (4, 5)", NO_BUCHSBAUM)),
    ((disjoint_union(embed(simplex(3), 6), embed(simplex(3), 6, 3)), "stanley_reisner", "symbolic", "gCM", 3),
     ("holds", "symbolic-gcm-disjoint-matroids", None, [])),
    ((BOWTIE, "stanley_reisner", "symbolic", "gCM", 3),
     ("fails", "symbolic-gcm-disjoint-matroids", "component fails exchange", [])),
    ((disjoint_union(embed(simplex(3), 7), embed(simplex(4), 7, 3)), "stanley_reisner", "symbolic", "gCM", 3),
     ("fails", "symbolic-gcm-disjoint-matroids", "complex is not pure", [])),
    ((cycle(4), "stanley_reisner", "ordinary", "CM", 3),
     ("holds", "ordinary-cm-complete-intersection", None, [])),
    ((C5, "stanley_reisner", "ordinary", "CM", 3),
     ("fails", "ordinary-cm-complete-intersection", "minimal nonfaces (1, 3) and (1, 4) share a vertex", [])),
    ((cycle(4), "stanley_reisner", "ordinary", "S2", 3),
     ("holds", "ordinary-s2-complete-intersection", None, [])),
    ((path(4), "stanley_reisner", "ordinary", "S2", 3),
     ("fails", "ordinary-s2-complete-intersection", "minimal nonfaces (1, 3) and (1, 4) share a vertex", [])),
    ((uniform_matroid(4, 2), "stanley_reisner", "ordinary", "Buchsbaum", 3),
     ("holds", "ordinary-buchsbaum-complete-intersection", None, NO_BUCHSBAUM)),
    ((BOWTIE, "stanley_reisner", "ordinary", "quasiBuchsbaum", "all"),
     ("fails", "ordinary-buchsbaum-complete-intersection", "minimal nonfaces (1, 4) and (2, 4) share a vertex", NO_BUCHSBAUM)),
    ((cycle(4), "stanley_reisner", "ordinary", "Buchsbaum", 4),
     ("holds", "ordinary-buchsbaum-graph-m4", None, NO_BUCHSBAUM)),
    ((C5, "stanley_reisner", "ordinary", "quasiBuchsbaum", "all"),
     ("fails", "ordinary-buchsbaum-graph-m4", "minimal nonfaces (1, 3) and (1, 4) share a vertex", NO_BUCHSBAUM)),
    ((disjoint_union(embed(path(3), 8), embed(cycle(4), 8, 3)), "stanley_reisner", "ordinary", "gCM", 3),
     ("holds", "ordinary-gcm-paths-cycles", None, [])),
    ((STAR, "stanley_reisner", "ordinary", "gCM", 3),
     ("fails", "ordinary-gcm-paths-cycles", "component on (1, 2, 3, 4) is not a path or cycle", [])),
    ((disjoint_union(embed(simplex(3), 6), embed(simplex(3), 6, 3)), "stanley_reisner", "ordinary", "gCM", 3),
     ("holds", "ordinary-gcm-disjoint-ci", None, [])),
    ((BOWTIE, "stanley_reisner", "ordinary", "gCM", 3),
     ("fails", "ordinary-gcm-disjoint-ci", "component on (1, 2, 3, 4, 5) is not a complete intersection of full dimension", [])),
    ((disjoint_union(embed(simplex(3), 7), embed(simplex(4), 7, 3)), "stanley_reisner", "ordinary", "gCM", 3),
     ("fails", "ordinary-gcm-disjoint-ci", "not pure: facet dimensions [2, 3]", [])),
    ((disjoint_union(embed(complete_graph(3), 7), embed(complete_graph(4), 7, 3)), "facet", "symbolic", "CM", 3),
     ("holds", "facet-cm-disjoint-complete-graphs", None, [])),
    ((path(4), "facet", "symbolic", "CM", 3),
     ("fails", "facet-cm-disjoint-complete-graphs", "component on (1, 2, 3, 4) is not a complete graph", [])),
    ((uniform_matroid(5, 2), "facet", "symbolic", "CM", 3),
     ("holds", "facet-cm-disjoint-2-uniform", None, [])),
    ((BOWTIE, "facet", "symbolic", "CM", 3),
     ("fails", "facet-cm-disjoint-2-uniform", "component on (1, 2, 3, 4, 5) is not a 2-uniform matroid", [])),
    ((E54, "facet", "symbolic", "CM", "all"),
     ("holds", "facet-cm-dual-matroid", None, VIA_DUAL)),
    ((from_facets(4, [(2, 4), (1, 3, 4)]), "facet", "symbolic", "CM", 3),
     ("fails", "facet-cm-dual-matroid", "exchange fails for faces (1, 4) and (1, 2, 3)", VIA_DUAL)),
    ((complete_graph(4), "cover", "symbolic", "CM", 3),
     ("holds", "cover-cm-matroid", None, GRAPH_FORM)),
    ((uniform_matroid(6, 2), "cover", "symbolic", "CM", 5),
     ("holds", "cover-cm-matroid", None, [])),
    ((C5, "cover", "symbolic", "CM", 3),
     ("fails", "cover-cm-matroid", "exchange fails for faces (1,) and (3, 4)", GRAPH_FORM)),
    ((BOWTIE, "cover", "symbolic", "CM", 3),
     ("fails", "cover-cm-matroid", "exchange fails for faces (1,) and (4, 5)", [])),
    # one per reason a query is left to the oracle
    ((C5, "stanley_reisner", "symbolic", "CM", 2),
     ("oracle_only", None, "no combinatorial criterion at m=2; use the oracle", [])),
    ((from_facets(3, [(1,), (2,), (3,)]), "stanley_reisner", "symbolic", "CM", 3),
     ("oracle_only", None, "dimension 0 outside the stated hypotheses", [])),
    ((C5, "stanley_reisner", "symbolic", "S2", 3),
     ("oracle_only", None, "S2 for dimension <= 1 is not routed to a criterion", [])),
    ((C5, "stanley_reisner", "symbolic", "Buchsbaum", 3),
     ("oracle_only", None, "graph Buchsbaum behavior at m=3 differs; not decided here", [])),
    ((C5, "stanley_reisner", "symbolic", "gCM", 3),
     ("oracle_only", None, "dimension <= 1 outside the stated hypotheses", [])),
    ((C5, "stanley_reisner", "ordinary", "Buchsbaum", 3),
     ("oracle_only", None, "graph Buchsbaum behavior at m=3 is outside scope", [])),
    ((EDGE_AND_POINT, "stanley_reisner", "ordinary", "gCM", 3),
     ("oracle_only", None, "isolated vertices: not a graph, no criterion", [])),
    ((C5, "facet", "symbolic", "S2", 3),
     ("oracle_only", None, "facet-ideal criteria cover Cohen-Macaulayness only", [])),
    ((EDGE_AND_POINT, "facet", "symbolic", "CM", 3),
     ("oracle_only", None, "a singleton facet blocks the dual-complex translation", [])),
    ((C5, "cover", "symbolic", "gCM", 3),
     ("oracle_only", None, "cover-ideal criteria cover Cohen-Macaulayness only", [])),
]


@pytest.mark.parametrize("fields, expected", PINNED_REPORTS)
def test_report_text_is_pinned(fields, expected):
    verdict, theorem, witness, caveats = expected
    assert classify(Query(*fields)).to_json() == {
        "verdict": verdict, "theorem": theorem, "witness": witness,
        "caveats": caveats, "oracle": None,
    }


def test_pinned_reports_reach_every_theorem_and_reason():
    rules = {(e[1], e[0]) for _, e in PINNED_REPORTS if e[0] != "oracle_only"}
    reasons = {e[2] for _, e in PINNED_REPORTS if e[0] == "oracle_only"}
    assert len(rules) == 28 and len(reasons) == 10


def test_a_wrong_dual_matroid_check_raises(monkeypatch):
    # the facet criteria in dimensions 1 and 2 are cross-checked against
    # the dual complex being a matroid
    cl = importlib.import_module("srpowers.classify")

    right = cl.is_matroid_exchange
    monkeypatch.setattr(cl, "is_matroid_exchange", lambda c: not right(c))
    for c in (complete_graph(4), uniform_matroid(5, 2)):
        with pytest.raises(RuntimeError, match="dual matroid check"):
            classify(Query(c, "facet", "symbolic", "CM", 3))


def test_a_wrong_graph_form_raises(monkeypatch):
    # the cover criterion on a graph is cross-checked against the 4-cycle
    # form, also under ``python -O``
    cl = importlib.import_module("srpowers.classify")

    right = cl.graph_matroid_criterion
    monkeypatch.setattr(cl, "graph_matroid_criterion", lambda c: not right(c))
    for c in (C5, complete_graph(4)):
        with pytest.raises(RuntimeError, match="4-cycle graph form"):
            classify(Query(c, "cover", "symbolic", "CM", 3))
