"""Combinatorics of Stanley-Reisner ideals and their powers.

The package has three layers: exact combinatorics of simplicial
complexes and matroid/complete-intersection tests, exact monomial ideal
arithmetic including symbolic powers, and an exact depth oracle built on
degree complexes and reduced simplicial cohomology.  A classification
engine ties them together and a sweep harness cross-validates the
combinatorial criteria against the oracle on families of small
complexes.
"""

from .complexes import (
    SimplicialComplex,
    complete_graph,
    complex_from_json,
    cycle,
    disjoint_union,
    embed,
    empty_complex,
    from_facets,
    path,
    simplex,
    uniform_matroid,
    void_complex,
)
from .matroids import (
    ComponentSplit,
    graph_matroid_criterion,
    is_complete_intersection,
    is_disjoint_union_of_uniform,
    is_locally_ci,
    is_locally_matroid,
    is_matroid_exchange,
    is_matroid_pair,
    join_decomposition,
    matroid_components,
    matroid_exchange_witness,
    shared_link_check,
)
from .ideals import (
    DeskScaleExceeded,
    MonomialIdeal,
    OrdinaryPower,
    SymbolicPower,
    complex_of_radical,
    contract,
    cover_ideal,
    dual_complex,
    extension_decomposition_check,
    facet_ideal,
    ideal_from_json,
    localized_membership,
    maximal_ideal,
    minimal_primes,
    principal,
    sr_ideal,
    symbolic_power,
    symbolic_power_by_intersection,
    symbolic_power_ideal,
)
from .cohomology import (
    DepthReport,
    OracleBudgetExceeded,
    Witness,
    degree_complex,
    depth_dim,
    is_cm,
    is_equidimensional,
    is_generalized_cm,
    is_s2,
    qb_connectivity_consequence,
    quotient_dimension,
    reduced_cohomology_dims,
    reduced_homology_dims,
    reisner_is_cm,
)
from .classify import (
    ClassificationReport,
    OracleComparison,
    Query,
    classify,
    classify_with_oracle,
    verify_against_oracle,
)
from .fixtures import named_complex, parse_complex_spec, parse_input

__all__ = [name for name in dir() if not name.startswith("_")]
