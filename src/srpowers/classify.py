"""Decision engine for ring properties of large powers of squarefree ideals.

Each query names a complex, an ideal kind (Stanley-Reisner, facet, or
cover), a power kind, a property, and an exponent m (or "all").  For
m >= 3 the answers are purely combinatorial and independent of m:

* symbolic powers of the Stanley-Reisner ideal are Cohen-Macaulay (or S2,
  Buchsbaum, quasi-Buchsbaum, in dimension >= 2) exactly for matroids;
* ordinary powers are Cohen-Macaulay exactly for complete intersections;
* generalized Cohen-Macaulayness picks out disjoint unions of matroids
  (symbolic) or complete intersections (ordinary) of equal dimension,
  with paths and cycles in the graph case;
* facet ideals reduce to the dual complex being a matroid, which in
  dimensions one and two means disjoint complete graphs or disjoint
  2-uniform matroids;
* cover ideals behave exactly like the Stanley-Reisner ideal of the
  complex itself: the test is again the matroid exchange axiom.

Queries outside the stated hypotheses (m <= 2, low dimension for some
properties) are answered "oracle_only" and may be settled by the exact
local cohomology oracle where the property is oracle-decidable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .complexes import SimplicialComplex
from .matroids import (
    ci_witness,
    graph_matroid_criterion,
    is_complete_intersection,
    is_disjoint_union_of_uniform,
    is_matroid_exchange,
    matroid_components,
    matroid_exchange_witness,
)
from .ideals import (
    OrdinaryPower,
    SymbolicPower,
    complex_of_radical,
    dual_complex,
    facet_ideal,
    sr_complex,
)
from . import cohomology as co

# The radical complex of each kind's ideal, read off the query's complex:
# the complex itself, the facet complements for the cover ideal (the
# intersection of the primes P_F over the facets F), and by transversals
# for the facet ideal.
RADICAL_COMPLEXES = {
    "stanley_reisner": sr_complex,
    "facet": lambda c: complex_of_radical(facet_ideal(c)),
    "cover": lambda c: c.complement(),
}
IDEAL_KINDS = tuple(RADICAL_COMPLEXES)
POWER_KINDS = ("ordinary", "symbolic")
PROPERTIES = ("CM", "S2", "gCM", "Buchsbaum", "quasiBuchsbaum")
ORACLE_DECIDABLE = ("CM", "S2", "gCM")


@dataclass(frozen=True)
class Query:
    complex: SimplicialComplex
    ideal_kind: str
    power_kind: str
    property: str
    m: int | str

    def __post_init__(self):
        if self.ideal_kind not in IDEAL_KINDS:
            raise ValueError(f"ideal_kind must be one of {IDEAL_KINDS}")
        if self.power_kind not in POWER_KINDS:
            raise ValueError(f"power_kind must be one of {POWER_KINDS}")
        if self.property not in PROPERTIES:
            raise ValueError(f"property must be one of {PROPERTIES}")
        if self.ideal_kind in ("facet", "cover") and self.power_kind != "symbolic":
            raise ValueError("facet and cover ideals take symbolic powers only")
        if self.m != "all" and (not isinstance(self.m, int) or self.m < 1):
            raise ValueError('m must be a positive integer or "all"')
        if self.complex.is_void or self.complex.is_empty_complex:
            raise ValueError("query needs a complex with vertices")

    @property
    def large_m(self) -> bool:
        return self.m == "all" or self.m >= 3


@dataclass(frozen=True)
class OracleRun:
    ran: bool
    result: bool | None
    seconds: float
    note: str | None = None

    def to_json(self) -> dict:
        out = {"ran": self.ran, "result": self.result, "seconds": round(self.seconds, 3)}
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str  # "holds" | "fails" | "oracle_only"
    rule: str | None = None
    witness: str | None = None
    caveats: tuple[str, ...] = ()
    oracle: OracleRun | None = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "theorem": self.rule,
            "witness": self.witness,
            "caveats": list(self.caveats),
            "oracle": self.oracle.to_json() if self.oracle else None,
        }


def _oracle_only(reason: str) -> ClassificationReport:
    return ClassificationReport("oracle_only", None, reason)


def _matroid_report(c: SimplicialComplex, rule: str, caveats=()) -> ClassificationReport:
    w = matroid_exchange_witness(c)
    if w is None:
        return ClassificationReport("holds", rule, None, tuple(caveats))
    return ClassificationReport(
        "fails", rule, f"exchange fails for faces {w[0]} and {w[1]}", tuple(caveats)
    )


def _ci_report(c: SimplicialComplex, rule: str) -> ClassificationReport:
    w = ci_witness(c)
    if w is None:
        return ClassificationReport("holds", rule, None)
    return ClassificationReport(
        "fails", rule, f"minimal nonfaces {w[0]} and {w[1]} share a vertex"
    )


def _component_report(c: SimplicialComplex, rule: str, component_ok, describe: str) -> ClassificationReport:
    comps = c.connected_components()
    if not c.is_pure():
        sizes = sorted({f.bit_count() - 1 for f in c.facets})
        return ClassificationReport("fails", rule, f"not pure: facet dimensions {sizes}")
    for comp in comps:
        if not component_ok(comp):
            verts = tuple(sorted(comp.vertex_set()))
            return ClassificationReport("fails", rule, f"component on {verts} is not {describe}")
    return ClassificationReport("holds", rule, None)


def _is_path_or_cycle(comp: SimplicialComplex) -> bool:
    if comp.dimension() != 1 or not comp.is_pure():
        return False
    degree: dict[int, int] = {}
    for f in comp.facets:
        for v in range(1, comp.n + 1):
            if f >> (v - 1) & 1:
                degree[v] = degree.get(v, 0) + 1
    return all(d <= 2 for d in degree.values())


def classify(q: Query) -> ClassificationReport:
    """Theorem verdict for the query, or oracle_only outside hypotheses."""
    c = q.complex
    dim = c.dimension()
    if not q.large_m:
        return _oracle_only(f"no combinatorial criterion at m={q.m}; use the oracle")

    if q.ideal_kind == "stanley_reisner":
        if q.power_kind == "symbolic":
            if q.property == "CM":
                if dim >= 1:
                    return _matroid_report(c, "symbolic-cm-matroid")
                return _oracle_only("dimension 0 outside the stated hypotheses")
            if q.property == "S2":
                if dim >= 2:
                    return _matroid_report(c, "symbolic-s2-matroid")
                return _oracle_only("S2 for dimension <= 1 is not routed to a criterion")
            if q.property in ("Buchsbaum", "quasiBuchsbaum"):
                if dim >= 2:
                    return _matroid_report(
                        c, "symbolic-buchsbaum-matroid",
                        caveats=("no algebraic Buchsbaum oracle; theory verdict only",),
                    )
                return _oracle_only("graph Buchsbaum behavior at m=3 differs; not decided here")
            if q.property == "gCM":
                if dim >= 2:
                    # matroid_components fails an impure complex, so the
                    # components of a success share one dimension
                    split = matroid_components(c)
                    return ClassificationReport(
                        "holds" if split.ok else "fails", "symbolic-gcm-disjoint-matroids", split.reason
                    )
                return _oracle_only("dimension <= 1 outside the stated hypotheses")
        else:  # ordinary powers
            if q.property in ("CM", "S2"):
                if dim >= 1:
                    rule = "ordinary-cm-complete-intersection" if q.property == "CM" else "ordinary-s2-complete-intersection"
                    return _ci_report(c, rule)
                return _oracle_only("dimension 0 outside the stated hypotheses")
            if q.property in ("Buchsbaum", "quasiBuchsbaum"):
                if dim >= 2:
                    rep = _ci_report(c, "ordinary-buchsbaum-complete-intersection")
                    return ClassificationReport(
                        rep.verdict, rep.rule, rep.witness,
                        ("no algebraic Buchsbaum oracle; theory verdict only",),
                    )
                if dim == 1 and (q.m == "all" or q.m >= 4):
                    rep = _ci_report(c, "ordinary-buchsbaum-graph-m4")
                    return ClassificationReport(
                        rep.verdict, rep.rule, rep.witness,
                        ("no algebraic Buchsbaum oracle; theory verdict only",),
                    )
                return _oracle_only("graph Buchsbaum behavior at m=3 is outside scope")
            if q.property == "gCM":
                if dim == 1:
                    if not c.is_pure():
                        return _oracle_only("isolated vertices: not a graph, no criterion")
                    return _component_report(
                        c, "ordinary-gcm-paths-cycles", _is_path_or_cycle, "a path or cycle"
                    )
                if dim >= 2:  # purity first: every component has dimension dim
                    return _component_report(
                        c,
                        "ordinary-gcm-disjoint-ci",
                        is_complete_intersection,
                        "a complete intersection of full dimension",
                    )
                return _oracle_only("dimension 0 outside the stated hypotheses")

    if q.ideal_kind == "facet":
        if q.property != "CM":
            return _oracle_only("facet-ideal criteria cover Cohen-Macaulayness only")
        if facet_ideal(c).contains_variable:
            return _oracle_only("a singleton facet blocks the dual-complex translation")
        if dim == 1 and c.is_pure():
            rep = _component_report(
                c,
                "facet-cm-disjoint-complete-graphs",
                lambda comp: is_disjoint_union_of_uniform(comp, 1),
                "a complete graph",
            )
            _assert_dual_agreement(c, rep)
            return rep
        if dim == 2 and c.is_pure():
            rep = _component_report(
                c,
                "facet-cm-disjoint-2-uniform",
                lambda comp: is_disjoint_union_of_uniform(comp, 2),
                "a 2-uniform matroid",
            )
            _assert_dual_agreement(c, rep)
            return rep
        return _matroid_report(
            dual_complex(c),
            "facet-cm-dual-matroid",
            caveats=(
                "decided via the dual complex; no facet-side structure criterion "
                "in this dimension",
            ),
        )

    if q.ideal_kind == "cover":
        if q.property != "CM":
            return _oracle_only("cover-ideal criteria cover Cohen-Macaulayness only")
        rep = _matroid_report(c, "cover-cm-matroid")
        if dim == 1 and c.is_pure():
            four = graph_matroid_criterion(c)
            assert four == (rep.verdict == "holds")
            rep = ClassificationReport(
                rep.verdict, rep.rule, rep.witness,
                rep.caveats + ("graph form: every pair of disjoint edges lies in a 4-cycle",),
            )
        return rep

    raise AssertionError("unreachable")


def _assert_dual_agreement(c: SimplicialComplex, rep: ClassificationReport) -> None:
    """The structural verdict and the dual-complex matroid check are two
    routes to one theorem; they must agree."""
    dual_ok = is_matroid_exchange(dual_complex(c))
    if dual_ok != (rep.verdict == "holds"):
        raise RuntimeError(
            f"structural facet criterion disagrees with the dual matroid check on {c!r}"
        )


def build_ideal(q: Query) -> SymbolicPower | OrdinaryPower:
    """The power the query names, as the value the oracle decides:
    ``SymbolicPower`` or ``OrdinaryPower`` on the facets of the radical
    complex that ``RADICAL_COMPLEXES[q.ideal_kind]`` reads off the query's
    complex, with no base ideal built.  Its ``ideal()`` gives the explicit
    generators.  m must be an integer."""
    if q.m == "all":
        raise ValueError('cannot build the power for m="all"')
    power = OrdinaryPower if q.power_kind == "ordinary" else SymbolicPower
    return power(q.complex.n, RADICAL_COMPLEXES[q.ideal_kind](q.complex).facets, q.m)


def run_oracle(q: Query, field: int | None = None, *, deadline: float | None = None) -> OracleRun:
    """Run the exact local cohomology oracle on ``build_ideal(q)``: a
    symbolic power from the facets of its radical complex, an ordinary one
    through I^m = I^(m) and the symbolic verdict.  ``deadline`` is an
    absolute ``time.monotonic()`` reading; past it the scan raises
    ``OracleBudgetExceeded``."""
    start = time.monotonic()
    if q.property not in ORACLE_DECIDABLE:
        return OracleRun(False, None, 0.0, "property has no algebraic oracle")
    if q.m == "all":
        return OracleRun(False, None, 0.0, 'power not constructible at m="all"')
    power = build_ideal(q)
    if q.property == "CM":
        result = co.is_cm(power, field, deadline=deadline)
    elif q.property == "S2":
        result = co.is_s2(power, field, deadline=deadline)
    else:
        result = co.is_generalized_cm(power, field, deadline=deadline)
    return OracleRun(True, result, time.monotonic() - start)


@dataclass(frozen=True)
class OracleComparison:
    theorem_verdict: str
    oracle_verdict: bool
    agree: bool
    seconds: float


def verify_against_oracle(q: Query, field: int | None = None, *,
                          deadline: float | None = None) -> OracleComparison:
    """Compare the theorem verdict with the oracle, run until ``deadline``
    (see ``run_oracle``)."""
    if q.property not in ORACLE_DECIDABLE:
        raise ValueError("only CM, S2 and gCM are oracle-decidable")
    if q.m == "all":
        raise ValueError("oracle verification needs a concrete exponent")
    report = classify(q)
    run = run_oracle(q, field, deadline=deadline)
    assert run.ran and run.result is not None
    if report.verdict == "oracle_only":
        agree = True  # nothing to contradict
    else:
        agree = (report.verdict == "holds") == run.result
    return OracleComparison(report.verdict, run.result, agree, run.seconds)


def classify_with_oracle(q: Query, field: int | None = None, *,
                         deadline: float | None = None) -> ClassificationReport:
    """Classification report with the section of an oracle run until
    ``deadline`` attached (see ``run_oracle``)."""
    report = classify(q)
    run = run_oracle(q, field, deadline=deadline)
    return ClassificationReport(report.verdict, report.rule, report.witness, report.caveats, run)
