import random

import pytest

from srpowers.bits import iter_bits, vertices_of
from srpowers.complexes import (
    SimplicialComplex,
    complete_graph,
    cycle,
    disjoint_union,
    embed,
    empty_complex,
    from_facets,
    path,
    simplex,
    uniform_matroid,
)
from srpowers.enumeration import distinct_complexes, structured_positives
from srpowers.fixtures import named_complex
from srpowers.ideals import dual_complex
from srpowers.matroids import (
    graph_matroid_criterion,
    is_complete_intersection,
    ci_witness,
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


def test_exchange_basic_cases():
    assert is_matroid_exchange(uniform_matroid(4, 1))
    assert not is_matroid_exchange(cycle(5))
    assert is_matroid_exchange(dual_complex(named_complex("example-5-4")))


def test_exchange_witness_is_real():
    w = matroid_exchange_witness(cycle(5))
    assert w is not None
    g, f = w
    assert len(f) == len(g) + 1


def _pairwise_exchange_witness(c):
    """Reference: test every pair (G, F) with |F| = |G| + 1 in sorted
    order, looking up each G + x with x in F - G among the faces."""
    faces = c.faces()
    by_size = {}
    for f in faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    for k in sorted(by_size):
        for g in sorted(by_size[k]):
            for f in sorted(by_size.get(k + 1, ())):
                if not any(g | b in faces for b in iter_bits(f & ~g)):
                    return vertices_of(g), vertices_of(f)
    return None


def test_exchange_witness_matches_the_pairwise_loop():
    family = list(distinct_complexes(5))
    rng = random.Random(47)
    for _ in range(300):
        n = rng.choice((6, 7))
        facets = [rng.sample(range(1, n + 1), rng.randint(1, n - 2)) for _ in range(rng.randint(1, 6))]
        family.append(from_facets(n, facets))
    for c in family:
        assert matroid_exchange_witness(c) == _pairwise_exchange_witness(c), c


def test_the_held_exchange_witness_is_a_fresh_computation():
    # held on the complex after the first call; a fresh object on the same
    # facets computes it again, through the pairwise loop
    for c in [*distinct_complexes(5), *structured_positives()]:
        held = matroid_exchange_witness(c)
        assert "exchange_pair" in vars(c)
        assert matroid_exchange_witness(c) == held
        assert held == _pairwise_exchange_witness(SimplicialComplex(c.n, c.facets)), c


def _all_pairs_criterion(c):
    """The pair criterion as stated: for all faces F and G with
    |F - G| = 1 and |G - F| = 2, some vertex of G - F extends F."""
    faces = c.faces()
    return all(any(f | b in faces for b in iter_bits(g & ~f))
               for f in faces for g in faces if (f & ~g).bit_count() == 1 and (g & ~f).bit_count() == 2)


def _first_failing_exchange(c):
    """The exchange axiom as stated: faces G and F with |F| > |G| have some
    x in F - G with G + x a face.  The first failing G in (size, mask)
    order, with the first F one larger that it fails against."""
    faces = c.faces()
    ordered = sorted(faces, key=lambda s: (s.bit_count(), s))
    for g in ordered:
        failing = [f for f in ordered if f.bit_count() > g.bit_count()
                   and not any(g | x in faces for x in iter_bits(f & ~g))]
        if failing:  # a failing F shrinks to a failing F one larger than G
            f = next(f for f in failing if f.bit_count() == g.bit_count() + 1)
            return vertices_of(g), vertices_of(f)
    return None


def test_pair_criterion_matches_its_all_pairs_statement():
    family = [*distinct_complexes(5), *structured_positives()]
    answers = [_all_pairs_criterion(c) for c in family]
    assert set(answers) == {True, False}
    assert [is_matroid_pair(c) for c in family] == answers


def test_exchange_witness_matches_its_definition():
    for c in [*distinct_complexes(5), *structured_positives()]:
        assert matroid_exchange_witness(c) == _first_failing_exchange(c), c


def test_pair_criterion_equals_exchange_exhaustively():
    # every isomorphism class on up to 5 vertices
    for c in distinct_complexes(5):
        assert is_matroid_pair(c) == is_matroid_exchange(c), c


def test_pair_criterion_examples():
    assert not is_matroid_pair(cycle(5))
    k3k3 = embed(complete_graph(3), 6).join(embed(complete_graph(3), 6, 3))
    assert is_matroid_pair(k3k3) and is_matroid_exchange(k3k3)


def test_graph_criterion():
    assert graph_matroid_criterion(complete_graph(4))
    assert not graph_matroid_criterion(cycle(5))
    assert graph_matroid_criterion(cycle(4))
    with pytest.raises(ValueError):
        graph_matroid_criterion(simplex(3))
    with pytest.raises(ValueError):
        graph_matroid_criterion(from_facets(3, [(1, 2), (3,)]))


def test_graph_criterion_equals_exchange_on_all_small_graphs():
    import itertools

    for n in (2, 3, 4, 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1, 1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
            c = from_facets(n, edges)
            covered = {v for e in edges for v in e}
            if len(covered) < n:
                continue  # isolated vertices excluded
            assert graph_matroid_criterion(c) == is_matroid_exchange(c)


def test_every_graph_is_locally_matroid():
    rng = random.Random(2)
    import itertools

    for _ in range(30):
        n = rng.randint(3, 7)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = rng.sample(pairs, rng.randint(1, len(pairs)))
        c = from_facets(n, edges)
        assert is_locally_matroid(c)


def test_disjoint_matroids_are_locally_matroid():
    c = disjoint_union(embed(uniform_matroid(4, 2), 8), embed(uniform_matroid(4, 2), 8, 4))
    assert is_locally_matroid(c)
    assert not is_matroid_exchange(c)  # disconnected


def test_five_cycle_is_locally_ci():
    assert is_locally_ci(cycle(5))


def test_complete_intersection():
    c = from_facets(4, [(1, 3), (1, 4), (2, 3), (2, 4)])  # nonfaces {1,2},{3,4}
    assert c.minimal_nonfaces() == ((1, 2), (3, 4))
    assert is_complete_intersection(c)
    assert not is_complete_intersection(cycle(5))
    assert ci_witness(cycle(5)) == ((1, 3), (1, 4))
    assert is_complete_intersection(cycle(4))


def test_local_global_equivalences_small():
    # matroid = connected + locally matroid, CI likewise, in dim >= 2
    for c in distinct_complexes(5, dim_min=2):
        if c.is_empty_complex:
            continue
        assert is_matroid_exchange(c) == (c.is_connected() and is_locally_matroid(c))
        assert is_complete_intersection(c) == (c.is_connected() and is_locally_ci(c))
        if c.is_pure():
            assert is_locally_matroid(c) == matroid_components(c).ok


def test_matroids_are_pure():
    for c in distinct_complexes(5):
        if c.is_empty_complex:
            continue
        if is_matroid_exchange(c):
            assert c.is_pure()


def test_duality_of_exchange():
    for c in distinct_complexes(5):
        if c.is_empty_complex:
            continue
        assert is_matroid_exchange(c) == is_matroid_exchange(c.complement())


def test_matroid_components():
    two = disjoint_union(embed(uniform_matroid(4, 3), 8), embed(uniform_matroid(4, 3), 8, 4))
    split = matroid_components(two)
    assert split.ok and len(split.components) == 2

    mixed = disjoint_union(embed(cycle(5), 9), embed(complete_graph(4), 9, 5))
    split = matroid_components(mixed)
    assert not split.ok
    assert split.offending is not None
    assert split.offending.vertex_set() == frozenset(range(1, 6))

    single = matroid_components(uniform_matroid(5, 2))
    assert single.ok and len(single.components) == 1

    nonpure = from_facets(4, [(1, 2, 3), (3, 4)])
    assert not matroid_components(nonpure).ok
    assert matroid_components(nonpure).reason == "complex is not pure"


def test_join_decomposition_k3_k3():
    k3k3 = embed(complete_graph(3), 6).join(embed(complete_graph(3), 6, 3))
    factors = join_decomposition(k3k3)
    assert len(factors) == 2
    rejoined = factors[0].join(factors[1])
    assert rejoined == k3k3
    assert {tuple(sorted(f.vertex_set())) for f in factors} == {(1, 2, 3), (4, 5, 6)}


def test_join_decomposition_base_cases():
    assert join_decomposition(simplex(4)) == (simplex(4),)
    assert join_decomposition(complete_graph(4)) == (complete_graph(4),)


def test_join_decomposition_three_factors():
    parts = [embed(complete_graph(3), 8), embed(complete_graph(3), 8, 3), embed(simplex(2), 8, 6)]
    c = parts[0].join(parts[1]).join(parts[2])
    factors = join_decomposition(c)
    out = factors[0]
    for f in factors[1:]:
        out = out.join(f)
    assert out == c


def test_join_decomposition_preconditions():
    with pytest.raises(ValueError):
        join_decomposition(cycle(5))  # not a matroid
    with pytest.raises(ValueError):
        join_decomposition(uniform_matroid(4, 2))  # nonface of size 4


def test_shared_link_check():
    dual = dual_complex(named_complex("example-5-4"))
    for nf in dual.minimal_nonfaces():
        assert shared_link_check(dual, set(nf))
    k3k3 = embed(complete_graph(3), 6).join(embed(complete_graph(3), 6, 3))
    assert shared_link_check(k3k3, {1, 2, 3})
    with pytest.raises(ValueError):
        shared_link_check(k3k3, {1, 2})  # a face, not a minimal nonface
    # runs (and may fail) on non-matroids without raising
    c = from_facets(4, [(1, 2), (2, 3), (3, 4)])
    for nf in c.minimal_nonfaces():
        shared_link_check(c, set(nf))


def test_uniform_detection():
    assert is_disjoint_union_of_uniform(complete_graph(4), 1)
    two = disjoint_union(embed(complete_graph(3), 7), embed(complete_graph(4), 7, 3))
    assert is_disjoint_union_of_uniform(two, 1)
    assert not is_disjoint_union_of_uniform(path(4), 1)
    assert not is_disjoint_union_of_uniform(named_complex("example-5-4"), 3)
    u2 = uniform_matroid(5, 2)
    assert is_disjoint_union_of_uniform(u2, 2)


def test_empty_complex_is_trivially_matroid():
    assert is_matroid_exchange(empty_complex(3))
    assert is_matroid_pair(empty_complex(3))
