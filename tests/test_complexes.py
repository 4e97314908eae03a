import itertools
import random

import pytest
from test_cohomology import _antichains

from srpowers.bits import minimal_transversals, submasks
from srpowers.complexes import (
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


def test_five_cycle_basics():
    c = from_facets(5, [{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}])
    assert c.dimension() == 1
    assert c.is_pure()
    assert c.vertex_set() == frozenset({1, 2, 3, 4, 5})
    assert c == cycle(5)


def test_subsumed_generators_are_dropped():
    c = from_facets(3, [{1, 2, 3}, {1, 2}])
    assert c.facet_sets() == ((1, 2, 3),)


def test_example_4_10_complex():
    c = from_facets(5, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (3, 4, 5)])
    assert c.dimension() == 2
    assert c.is_pure()


def test_label_out_of_range():
    with pytest.raises(ValueError):
        from_facets(3, [{1, 4}])


def test_void_and_empty_are_distinct():
    v = void_complex(4)
    e = empty_complex(4)
    assert v != e
    assert v.is_void and not e.is_void
    assert e.is_empty_complex
    assert e.dimension() == -1
    assert e.is_pure()
    assert e.vertex_set() == frozenset()
    with pytest.raises(ValueError):
        v.dimension()
    assert from_facets(4, []) == e


def test_minimal_nonfaces_five_cycle():
    assert cycle(5).minimal_nonfaces() == ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))


def test_minimal_nonfaces_example_4_10():
    c = from_facets(5, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (3, 4, 5)])
    assert c.minimal_nonfaces() == ((1, 5), (2, 5), (1, 2, 3, 4))


def test_full_simplex_has_no_nonfaces():
    assert simplex(4).minimal_nonfaces() == ()


def brute_force_minimal_nonfaces(c):
    out = []
    for r in range(1, c.n + 1):
        for combo in itertools.combinations(range(1, c.n + 1), r):
            s = set(combo)
            if c.has_face(s):
                continue
            if all(c.has_face(s - {x}) for x in s):
                out.append(tuple(sorted(s)))
    return tuple(sorted(out, key=lambda t: (len(t), t)))


def test_minimal_nonfaces_against_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(2, 6)
        gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
        c = from_facets(n, gens)
        assert c.minimal_nonfaces() == brute_force_minimal_nonfaces(c)
    for _ in range(20):
        gens = [rng.sample(range(1, 8), rng.randint(1, 7)) for _ in range(rng.randint(1, 6))]
        c = from_facets(7, gens)
        assert c.minimal_nonfaces() == brute_force_minimal_nonfaces(c)
    for n in (1, 3, 7):  # the empty complex {0}: every vertex is a minimal nonface
        c = empty_complex(n)
        assert c.minimal_nonfaces() == brute_force_minimal_nonfaces(c) == tuple((v,) for v in range(1, n + 1))
        assert c.minimal_nonface_masks() == tuple(1 << i for i in range(n))


def _reference_transversals(masks, ground):
    """The submask search the bitset kernel replaced: every submask of the
    union by size, kept when it meets every mask and holds no kept one."""
    fam = [m & ground for m in masks]
    if not all(fam):
        return []
    union = 0
    for m in fam:
        union |= m
    out = []
    for t in sorted(submasks(union), key=int.bit_count):
        if all(t & m for m in fam) and not any(k & t == k for k in out):
            out.append(t)
    return sorted(out, key=lambda s: (s.bit_count(), s))


def test_minimal_transversals_match_the_submask_search():
    def check(family, ground):
        assert minimal_transversals(family, ground) == _reference_transversals(family, ground), (family, ground)

    # every family of nonempty subsets of a 3-set
    for bits in range(1 << 7):
        check([d for d in range(1, 8) if bits >> d - 1 & 1], 0b111)
    # every antichain on 5 vertices, the void one {empty set} among them
    antichains = _antichains(range(1 << 5))
    assert len(antichains) == 7581
    for family in antichains:
        check(family, 0b11111)
    # seeded (family, ground) pairs on at most 10 vertices, half of them
    # on a ground short of the vertices
    rng = random.Random(33)
    for _ in range(2000):
        n = rng.randint(0, 10)
        ground = (1 << n) - 1 if rng.random() < 0.5 else rng.randrange(1 << n)
        check([rng.randrange(1 << n) for _ in range(rng.randint(0, 2 * n))], ground)
    # the empty family has the empty transversal; a mask that misses the
    # ground has none; ground 0 takes only the empty family
    assert minimal_transversals([], 0b101) == [0]
    assert minimal_transversals([0b11, 0b100], 0b11) == []
    assert minimal_transversals([], 0) == [0]
    assert minimal_transversals([0b1], 0) == []


def test_minimal_nonfaces_of_two_disjoint_11_vertex_facets():
    # n = 22, within desk scale: a bitset over the 2^22 subsets of the union
    c = from_facets(22, [range(1, 12), range(12, 23)])
    cross = tuple(sorted(1 << i | 1 << j for i in range(11) for j in range(11, 22)))
    assert len(cross) == 121
    assert c.minimal_nonface_masks() == cross


def test_minimal_nonface_masks_are_cached(monkeypatch):
    import srpowers.complexes as cx

    calls = []
    transversals = cx.minimal_transversals
    monkeypatch.setattr(cx, "minimal_transversals", lambda *a: calls.append(a) or transversals(*a))
    c = from_facets(5, [(1, 2, 3), (3, 4), (4, 5)])
    first = c.minimal_nonface_masks()
    assert len(calls) == 1
    assert c.minimal_nonface_masks() is first
    assert c.minimal_nonfaces() == brute_force_minimal_nonfaces(c)
    assert len(calls) == 1
    with pytest.raises(ValueError):
        void_complex(3).minimal_nonface_masks()


def test_nonfaces_regenerate_complex():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 6)
        gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
        gens += [[v] for v in range(1, n + 1)]
        c = from_facets(n, gens)
        nonfaces = c.minimal_nonfaces()
        regenerated = [
            set(combo)
            for r in range(n + 1)
            for combo in itertools.combinations(range(1, n + 1), r)
            if not any(set(nf) <= set(combo) for nf in nonfaces)
        ]
        assert from_facets(n, regenerated) == c


def test_link_and_star_example_4_10():
    c = from_facets(5, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (3, 4, 5)])
    assert c.link({5}).facet_sets() == ((3, 4),)
    assert c.star({5}).facet_sets() == ((3, 4, 5),)
    assert c.link(set()) == c


def test_link_requires_a_face():
    with pytest.raises(ValueError):
        cycle(5).link({1, 3})


def test_a_bool_is_not_a_face():
    # True would read as the mask of vertex 1, False as the empty face
    c = cycle(5)
    for face in (True, False):
        for method in (c.link, c.star, c.has_face):
            with pytest.raises(ValueError, match="neither a mask"):
                method(face)
    assert c.link(1) == c.link({1}) and c.has_face(0)


def test_link_of_star_equals_link():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 6)
        gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
        c = from_facets(n, gens)
        for f in sorted(c.faces()):
            assert c.star(f).link(f) == c.link(f)


def test_connectivity():
    assert cycle(5).is_connected()
    two = from_facets(6, [(1, 2, 3), (4, 5, 6)])
    assert not two.is_connected()
    assert from_facets(3, [(1,)]).is_connected()
    # an isolated vertex next to an edge disconnects the complex
    assert not from_facets(3, [(1, 2), (3,)]).is_connected()
    with pytest.raises(ValueError):
        empty_complex(2).is_connected()
    with pytest.raises(ValueError):
        void_complex(2).is_connected()


def test_induced():
    assert cycle(5).induced({1, 2, 3}) == from_facets(5, [(1, 2), (2, 3)])


def test_join_of_triangles():
    a = embed(complete_graph(3), 6)
    b = embed(complete_graph(3), 6, 3)
    j = a.join(b)
    assert j.is_pure() and j.dimension() == 3
    assert j.minimal_nonfaces() == ((1, 2, 3), (4, 5, 6))


def test_join_identity_and_associativity():
    c = embed(cycle(3), 6)
    assert c.join(empty_complex(6)) == c
    a = embed(simplex(1), 6)
    b = embed(path(2), 6, 1)
    d = embed(simplex(2), 6, 4)
    assert a.join(b).join(d) == a.join(b.join(d))


def test_join_rejects_overlap():
    with pytest.raises(ValueError):
        cycle(5).join(cycle(5))


def test_complement_five_cycle():
    comp = cycle(5).complement()
    assert comp.facet_sets() == (
        (1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5),
    )


def test_complement_degenerate_and_involutive():
    assert simplex(4).complement() == empty_complex(4)
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 6)
        gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
        c = from_facets(n, gens)
        assert c.complement().complement() == c


def test_named_generators():
    assert uniform_matroid(4, 1) == complete_graph(4)
    assert cycle(5) == from_facets(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    u = uniform_matroid(6, 3)
    assert u.minimal_nonfaces() == tuple(itertools.combinations(range(1, 7), 5))
    assert path(3).facet_sets() == ((1, 2), (2, 3))
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        uniform_matroid(4, 4)


def test_components():
    c = disjoint_union(embed(cycle(5), 9), embed(complete_graph(4), 9, 5))
    comps = c.connected_components()
    assert len(comps) == 2
    assert comps[0].vertex_set() == frozenset(range(1, 6))


def test_json_round_trip():
    for c in [cycle(5), empty_complex(3), void_complex(3), simplex(4)]:
        assert complex_from_json(c.to_json()) == c
    with pytest.raises(ValueError):
        complex_from_json({"n": 3, "facets": []})
