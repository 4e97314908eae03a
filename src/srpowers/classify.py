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

Each verdict is a rule and its witness: the criterion holds exactly when
its witness function (a failing exchange pair, two meeting minimal
nonfaces, a bad component) finds none.  Two criteria have a second route
kept as a cross-check: the facet criteria in dimensions one and two
against the dual complex being a matroid, and the cover criterion on a
graph against its 4-cycle form.  A disagreement raises ``RuntimeError``.

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
    is_matroid_exchange,
    is_uniform,
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
        if self.m != "all" and (type(self.m) is not int or self.m < 1):  # a bool is not an int here
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


def _report(rule: str, witness: str | None, caveats=()) -> ClassificationReport:
    """The verdict of ``rule``: it holds exactly when there is no witness."""
    verdict = "holds" if witness is None else "fails"
    return ClassificationReport(verdict, rule, witness, tuple(caveats))


NO_BUCHSBAUM_ORACLE = ("no algebraic Buchsbaum oracle; theory verdict only",)

# The facet criteria with a structural form, by dimension of a pure complex:
# the rule and what each connected component must be.
FACET_RULES = {
    1: ("facet-cm-disjoint-complete-graphs", "a complete graph"),
    2: ("facet-cm-disjoint-2-uniform", "a 2-uniform matroid"),
}


def _not_matroid(c: SimplicialComplex) -> str | None:
    w = matroid_exchange_witness(c)
    return None if w is None else f"exchange fails for faces {w[0]} and {w[1]}"


def _not_ci(c: SimplicialComplex) -> str | None:
    w = ci_witness(c)
    return None if w is None else f"minimal nonfaces {w[0]} and {w[1]} share a vertex"


def _bad_component(c: SimplicialComplex, ok, describe: str) -> str | None:
    """Why ``c`` is not a pure union of components passing ``ok``, or None."""
    if not c.is_pure():
        sizes = sorted({f.bit_count() - 1 for f in c.facets})
        return f"not pure: facet dimensions {sizes}"
    for comp in c.connected_components():
        if not ok(comp):
            verts = tuple(sorted(comp.vertex_set()))
            return f"component on {verts} is not {describe}"
    return None


def _is_path_or_cycle(comp: SimplicialComplex) -> bool:
    """A connected graph is a path or a cycle when no vertex has degree above 2."""
    return all(sum(f >> (v - 1) & 1 for f in comp.facets) <= 2 for v in comp.vertex_set())


def _cross_checked(c: SimplicialComplex, witness: str | None, holds: bool,
                   route: str) -> str | None:
    """``witness``, checked against a second route to the same theorem that
    is kept as a cross-check: that route must say ``holds`` exactly when
    there is no witness."""
    if holds != (witness is None):
        raise RuntimeError(f"the {route} disagrees with the criterion on {c!r}")
    return witness


def classify(q: Query) -> ClassificationReport:
    """Theorem verdict for the query, or oracle_only outside hypotheses."""
    c = q.complex
    dim = c.dimension()
    if not q.large_m:
        return _oracle_only(f"no combinatorial criterion at m={q.m}; use the oracle")

    if q.ideal_kind == "stanley_reisner" and q.power_kind == "symbolic":
        if q.property == "CM":
            if dim >= 1:
                return _report("symbolic-cm-matroid", _not_matroid(c))
            return _oracle_only("dimension 0 outside the stated hypotheses")
        if q.property == "S2":
            if dim >= 2:
                return _report("symbolic-s2-matroid", _not_matroid(c))
            return _oracle_only("S2 for dimension <= 1 is not routed to a criterion")
        if q.property == "gCM":
            if dim >= 2:
                # matroid_components fails an impure complex, so the
                # components of a success share one dimension
                return _report("symbolic-gcm-disjoint-matroids", matroid_components(c).reason)
            return _oracle_only("dimension <= 1 outside the stated hypotheses")
        if dim >= 2:  # Buchsbaum and quasi-Buchsbaum
            return _report("symbolic-buchsbaum-matroid", _not_matroid(c), NO_BUCHSBAUM_ORACLE)
        return _oracle_only("graph Buchsbaum behavior at m=3 differs; not decided here")

    if q.ideal_kind == "stanley_reisner":  # ordinary powers
        if q.property in ("CM", "S2"):
            if dim >= 1:
                rule = ("ordinary-cm-complete-intersection" if q.property == "CM"
                        else "ordinary-s2-complete-intersection")
                return _report(rule, _not_ci(c))
            return _oracle_only("dimension 0 outside the stated hypotheses")
        if q.property == "gCM":
            if dim >= 2:  # purity first: every component has dimension dim
                witness = _bad_component(
                    c, is_complete_intersection, "a complete intersection of full dimension"
                )
                return _report("ordinary-gcm-disjoint-ci", witness)
            if dim == 0:
                return _oracle_only("dimension 0 outside the stated hypotheses")
            if not c.is_pure():
                return _oracle_only("isolated vertices: not a graph, no criterion")
            witness = _bad_component(c, _is_path_or_cycle, "a path or cycle")
            return _report("ordinary-gcm-paths-cycles", witness)
        if dim >= 2:  # Buchsbaum and quasi-Buchsbaum
            rule = "ordinary-buchsbaum-complete-intersection"
            return _report(rule, _not_ci(c), NO_BUCHSBAUM_ORACLE)
        if dim == 1 and (q.m == "all" or q.m >= 4):
            return _report("ordinary-buchsbaum-graph-m4", _not_ci(c), NO_BUCHSBAUM_ORACLE)
        return _oracle_only("graph Buchsbaum behavior at m=3 is outside scope")

    if q.ideal_kind == "facet":
        if q.property != "CM":
            return _oracle_only("facet-ideal criteria cover Cohen-Macaulayness only")
        if facet_ideal(c).contains_variable:
            return _oracle_only("a singleton facet blocks the dual-complex translation")
        if dim in FACET_RULES and c.is_pure():
            rule, describe = FACET_RULES[dim]
            witness = _bad_component(c, lambda comp: is_uniform(comp, dim), describe)
            dual_holds = is_matroid_exchange(dual_complex(c))
            return _report(rule, _cross_checked(c, witness, dual_holds, "dual matroid check"))
        return _report(
            "facet-cm-dual-matroid",
            _not_matroid(dual_complex(c)),
            ("decided via the dual complex; no facet-side structure criterion in this dimension",),
        )

    if q.property != "CM":  # cover ideals
        return _oracle_only("cover-ideal criteria cover Cohen-Macaulayness only")
    witness = _not_matroid(c)
    if dim != 1 or not c.is_pure():
        return _report("cover-cm-matroid", witness)
    four = graph_matroid_criterion(c)
    return _report(
        "cover-cm-matroid",
        _cross_checked(c, witness, four, "4-cycle graph form"),
        ("graph form: every pair of disjoint edges lies in a 4-cycle",),
    )


def build_ideal(q: Query) -> SymbolicPower | OrdinaryPower:
    """The power the query names, as the value the oracle decides:
    ``SymbolicPower`` or ``OrdinaryPower`` of the radical complex that
    ``RADICAL_COMPLEXES[q.ideal_kind]`` reads off the query's complex, with
    no base ideal built.  For the Stanley-Reisner kind that complex is the
    query's own, so its minimal nonfaces, computed once for ``classify``,
    are read again from it.  Its ``ideal()`` gives the explicit generators.
    m must be an integer."""
    if q.m == "all":
        raise ValueError('cannot build the power for m="all"')
    power = OrdinaryPower if q.power_kind == "ordinary" else SymbolicPower
    return power(RADICAL_COMPLEXES[q.ideal_kind](q.complex), q.m)


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
    report = classify_with_oracle(q, field, deadline=deadline)
    run = report.oracle
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
