import itertools
import random

import pytest

from srpowers.complexes import (
    complete_graph,
    cycle,
    empty_complex,
    from_facets,
    simplex,
    uniform_matroid,
)
from srpowers.fixtures import named_complex
from srpowers.cohomology import OracleBudgetExceeded
from srpowers import ideals
from srpowers.ideals import (
    MAX_POWER,
    DeskScaleExceeded,
    MonomialIdeal,
    SymbolicPower,
    adjoin_variable,
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
    minimalize,
    principal,
    sr_ideal,
    symbolic_power,
    symbolic_power_by_intersection,
    symbolic_power_ideal,
)

EX410 = named_complex("example-4-10")
E54 = named_complex("example-5-4")


def test_sr_ideal_example_4_10():
    I = sr_ideal(EX410)
    assert I.sorted_gens() == (
        (0, 1, 0, 0, 1),
        (1, 0, 0, 0, 1),
        (1, 1, 1, 1, 0),
    )


def test_sr_ideal_requires_all_singletons():
    with pytest.raises(ValueError):
        sr_ideal(from_facets(3, [(1, 2)]))
    with pytest.raises(ValueError):
        sr_ideal(empty_complex(2))


def test_complex_of_radical_round_trip():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(2, 6)
        gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(0, 4))]
        gens += [[v] for v in range(1, n + 1)]
        c = from_facets(n, gens)
        assert complex_of_radical(sr_ideal(c)) == c


def test_radical_ignores_exponents():
    a = MonomialIdeal.from_generators(3, [(2, 0, 1), (0, 1, 2)])
    b = MonomialIdeal.from_generators(3, [(1, 0, 1), (0, 1, 1)])
    assert complex_of_radical(a) == complex_of_radical(b)


def test_membership_examples():
    v = (1, 1, 1, 1, 1)
    assert symbolic_power(EX410, 2).membership(v)
    assert not sr_ideal(EX410).power(2).membership(v)
    assert not sr_ideal(EX410).membership((0, 0, 0, 0, 0))  # 1 not in a proper ideal
    assert not sr_ideal(EX410).membership((-1, 2, 2, 2, 2))  # negative exponent


def test_contains_and_equals():
    I = sr_ideal(cycle(5))
    assert symbolic_power(cycle(5), 2).contains(I.power(2))
    assert I.equals(MonomialIdeal.from_generators(5, I.sorted_gens()))


def test_intersect_multiply_power():
    x1 = principal(2, (1, 0))
    x2 = principal(2, (0, 1))
    assert x1.intersect(x2).sorted_gens() == ((1, 1),)
    I = sr_ideal(EX410)
    assert (1, 1, 0, 0, 2) in I.power(2).gens  # x1x5 * x2x5
    assert I.power(1) == I
    with pytest.raises(ValueError):
        I.power(0)


def test_generator_minimality_after_operations():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        if all(sum(g) == 0 for g in gens):
            continue
        I = MonomialIdeal.from_generators(n, gens)
        for J in (I.power(2), I.multiply(I), I.intersect(I), I.add(I)):
            for a, b in itertools.permutations(J.gens, 2):
                assert not all(x <= y for x, y in zip(a, b)), (a, b)


def test_symbolic_square_example_4_10():
    sym = symbolic_power(EX410, 2)
    want = sr_ideal(EX410).power(2).add(principal(5, (1, 1, 1, 1, 1)))
    assert sym.gens == want.gens


def test_product_monomial_multiplies_symbolic_square_into_square():
    # the product of all variables pushes the symbolic square into the
    # ordinary square; the variable ideal itself does not
    sym = symbolic_power(EX410, 2)
    square = sr_ideal(EX410).power(2)
    v = (1, 1, 1, 1, 1)
    assert square.contains(principal(5, v).multiply(sym))
    assert not square.contains(maximal_ideal(5).multiply(sym))
    assert square.membership(tuple(2 * e for e in v))
    assert not square.membership((1, 1, 2, 1, 1))  # x3 times the product


def test_symbolic_square_five_cycle_is_ordinary_square():
    assert symbolic_power(cycle(5), 2).gens == sr_ideal(cycle(5)).power(2).gens


def test_symbolic_power_one_is_the_ideal():
    assert symbolic_power(cycle(5), 1) == sr_ideal(cycle(5))


def test_symbolic_power_box_matches_intersection_oracle():
    rng = random.Random(8)
    complexes = [cycle(4), cycle(5), EX410, uniform_matroid(5, 2)]
    for _ in range(12):
        n = rng.randint(2, 5)
        gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 3))]
        gens += [[v] for v in range(1, n + 1)]
        complexes.append(from_facets(n, gens))
    for c in complexes:
        I = sr_ideal(c)
        if I.is_zero:
            continue
        for m in (1, 2, 3):
            assert symbolic_power_ideal(I, m).gens == symbolic_power_by_intersection(I, m).gens


def _random_squarefree_bases(rng, count):
    """Stanley-Reisner, cover and facet ideals of random complexes on at
    most five vertices (cover and facet ideals may contain variables)."""
    for _ in range(count):
        n = rng.randint(2, 5)
        gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 3))]
        gens += [[v] for v in range(1, n + 1)]
        c = from_facets(n, gens)
        yield c, sr_ideal(c)
        yield c, cover_ideal(c)
        yield c, facet_ideal(c)


def test_symbolic_power_value_from_any_squarefree_ideal():
    rng = random.Random(41)
    for _, base in _random_squarefree_bases(rng, 10):
        for m in (1, 2, 3):
            sp = SymbolicPower.of(base, m)
            assert sp.facets == complex_of_radical(base).facets
            assert sp.radical() == base
            assert sp.ideal() == symbolic_power_ideal(base, m)
            assert sp.is_zero == base.is_zero
    with pytest.raises(ValueError):
        SymbolicPower.of(sr_ideal(cycle(5)).power(2), 2)
    with pytest.raises(ValueError):
        SymbolicPower.of(MonomialIdeal.unit(3), 2)
    with pytest.raises(ValueError):
        SymbolicPower.of(sr_ideal(cycle(5)), 0)


def test_symbolic_power_max_exponents_match_its_generators():
    rng = random.Random(43)
    fixed = [sr_ideal(c) for c in (EX410, E54, cycle(6), uniform_matroid(6, 2))]
    bases = [(None, b) for b in fixed] + list(_random_squarefree_bases(rng, 25))
    for _, base in bases:
        for m in (1, 2, 3):
            sp = SymbolicPower.of(base, m)
            assert sp.max_exponents() == sp.ideal().max_exponents(), (base, m)
    # a vertex in every facet (a cone point) lies in no minimal prime
    cone = SymbolicPower.of(sr_ideal(from_facets(4, [(1, 2, 4), (2, 3, 4)])), 3)
    assert cone.max_exponents() == (3, 0, 3, 0)
    assert SymbolicPower.of(MonomialIdeal.zero(3), 2).max_exponents() == (0, 0, 0)


def test_symbolic_power_contraction_is_the_link():
    rng = random.Random(42)
    for c, base in _random_squarefree_bases(rng, 6):
        if base.is_zero:
            continue
        sp = SymbolicPower.of(base, 2)
        explicit = sp.ideal()
        for g in range((1 << c.n) - 1):
            got = sp.contract(g)
            want = contract(explicit, g).ideal
            if got is None:
                assert want.is_unit
            else:
                assert got.ideal() == want


def test_power_contained_in_symbolic_power():
    for c in (cycle(5), EX410, uniform_matroid(5, 2)):
        I = sr_ideal(c)
        for m in (1, 2, 3):
            assert symbolic_power_ideal(I, m).contains(I.power(m))


def test_cover_ideal_five_cycle():
    J = cover_ideal(cycle(5))
    assert J.sorted_gens() == (
        (0, 1, 0, 1, 1),
        (0, 1, 1, 0, 1),
        (1, 0, 1, 0, 1),
        (1, 0, 1, 1, 0),
        (1, 1, 0, 1, 0),
    )


def brute_minimal_covers(c):
    """Independent enumeration of minimal vertex covers of the facets."""
    facets = [set(f) for f in c.facet_sets()]
    out = []
    for r in range(1, c.n + 1):
        for combo in itertools.combinations(range(1, c.n + 1), r):
            s = set(combo)
            if not all(s & f for f in facets):
                continue
            if any(set(prev) <= s for prev in out):
                continue
            out.append(tuple(sorted(s)))
    return sorted(out)


def test_cover_ideal_matches_brute_force_covers():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(2, 6)
        gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
        c = from_facets(n, gens)
        J = cover_ideal(c)
        got = sorted(tuple(i + 1 for i, e in enumerate(g) if e) for g in J.gens)
        assert got == brute_minimal_covers(c)


def test_cover_ideal_equals_sr_of_complement():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 6)
        gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
        c = from_facets(n, gens)
        comp = c.complement()
        if comp.vertex_mask != (1 << n) - 1:
            continue  # complement complex misses a singleton, not an SR ideal
        assert cover_ideal(c).gens == sr_ideal(comp).gens


def test_cover_ideal_of_full_simplex_is_flagged():
    J = cover_ideal(simplex(4))
    assert J.contains_variable
    assert J.gens == maximal_ideal(4).gens


def test_dual_complex_example_5_4():
    dual = dual_complex(E54)
    expected = set(itertools.combinations(range(1, 7), 4)) - {
        (1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6),
    }
    assert set(dual.facet_sets()) == expected


def test_dual_complex_rejects_singleton_facets():
    with pytest.raises(ValueError):
        dual_complex(from_facets(3, [(1,), (2, 3)]))


def test_dual_complex_double_dual():
    # the double dual recovers the complex when the minimal nonfaces are
    # exactly the complements of the minimal facet covers (graphs like the
    # 5-cycle), but not in general: example-5-4 picks up extra facets
    c5 = cycle(5)
    assert dual_complex(dual_complex(c5)) == c5
    dd = dual_complex(dual_complex(E54))
    assert dd != E54
    assert set(E54.facet_sets()) <= set(dd.facet_sets())
    assert (1, 3, 5) in dd.facet_sets()


def test_minimal_primes():
    mp = minimal_primes(sr_ideal(cycle(5)))
    # complements of the five edges
    assert mp == ((1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5))
    assert minimal_primes(principal(2, (1, 1))) == ((1,), (2,))
    fp = minimal_primes(facet_ideal(E54))
    assert len(fp) == 12 and all(len(p) == 2 for p in fp)
    with pytest.raises(ValueError):
        minimal_primes(principal(2, (2, 0)))


def test_contract_examples():
    I = sr_ideal(EX410)
    con = contract(I, [5])
    assert con.ideal.sorted_gens() == ((0, 1, 0, 0), (1, 0, 0, 0))
    assert con.kept == (1, 2, 3, 4)
    assert con.old_to_new() == {1: 1, 2: 2, 3: 3, 4: 4}
    assert contract(I, []).ideal == I


def test_contract_matches_link_structure():
    # inverting one vertex variable turns the radical complex into the link
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(3, 6)
        gens = [rng.sample(range(1, n + 1), rng.randint(2, n)) for _ in range(rng.randint(1, 4))]
        gens += [[v] for v in range(1, n + 1)]
        c = from_facets(n, gens)
        I = sr_ideal(c)
        if I.is_zero:
            continue
        for v in range(1, n + 1):
            con = contract(I, [v])
            if con.ideal.is_unit:
                continue
            rad = complex_of_radical(con.ideal)
            link = c.link({v})
            relabeled = frozenset(
                sum(1 << (con.old_to_new()[w] - 1) for w in f) if f else 0
                for f in (set(t) for t in link.facet_sets())
            )
            assert rad.facets == relabeled


def test_contract_composition():
    I = sr_ideal(EX410)
    one = contract(I, [5])
    two = contract(one.ideal, [one.old_to_new()[4]])
    direct = contract(I, [4, 5])
    assert two.ideal == direct.ideal


def test_localized_membership():
    I2 = sr_ideal(EX410).power(2)
    a = (1, 1, 1, 1, 1)
    assert localized_membership(a, I2, [5])
    assert not localized_membership(a, I2, [])
    # with everything inverted, membership is support containment
    I = sr_ideal(EX410)
    assert localized_membership((0, 0, 0, 0, 0), I, [1, 2, 3, 4, 5])


def test_extension_decomposition_spec_cases():
    assert extension_decomposition_check(sr_ideal(cycle(5)), 3, "symbolic")
    assert extension_decomposition_check(principal(2, (1, 1)), 2, "ordinary")
    assert extension_decomposition_check(sr_ideal(complete_graph(4)), 3, "ordinary")


def test_adjoin_variable():
    ext = adjoin_variable(principal(2, (1, 1)))
    assert ext.sorted_gens() == ((0, 0, 1), (1, 1, 0))


def test_power_guard():
    I = sr_ideal(cycle(5))
    with pytest.raises(ValueError):
        I.power(17)
    with pytest.raises(ValueError):
        symbolic_power(cycle(5), 17)


def test_symbolic_power_box_guard_is_a_desk_scale_error():
    big = MonomialIdeal.from_generators(12, [(1, 1) + (0,) * 10])
    with pytest.raises(DeskScaleExceeded) as info:
        symbolic_power_ideal(big, 4)
    # valid input, so no usage error; and no budget error, which a sweep resumes
    assert isinstance(info.value, ValueError)
    assert not isinstance(info.value, OracleBudgetExceeded)
    assert "244140625" in str(info.value) and str(1 << 24) in str(info.value)


def brute_force_minimalize(vectors):
    vs = set(map(tuple, vectors))
    return frozenset(
        v for v in vs if not any(u != v and all(a <= b for a, b in zip(u, v)) for u in vs)
    )


def composition(rng, d, n):
    cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))


@pytest.mark.parametrize("block", [None, 40])
def test_minimalize_against_brute_force(monkeypatch, block):
    if block is not None:  # small blocks: many blocks per degree level and per kept set
        monkeypatch.setattr(ideals, "_BLOCK", block)
    assert minimalize([], 3) == frozenset()
    assert minimalize([(0, 0, 0), (1, 2, 0), (0, 0, 0)], 3) == {(0, 0, 0)}
    assert minimalize([[2], (1,), (3,)], 1) == {(1,)}
    rng = random.Random(23)
    for n in range(1, 9):
        # sizes on both sides of 400 vectors; exponents to MAX_POWER and past int16
        families = [
            [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(size)]
            for size, top in ((rng.randint(1, 60), 2), (rng.randint(1, 60), MAX_POWER),
                              (rng.randint(300, 520), 3), (rng.randint(1, 60), 40000))
        ]
        # wide degree levels: vectors of degree 6 and 7
        families.append([composition(rng, rng.choice((6, 7)), n) for _ in range(rng.randint(300, 520))])
        for vs in families:
            vs += rng.sample(vs, len(vs) // 3)  # duplicates
            if rng.random() < 0.2:
                vs.append((0,) * n)
            got = minimalize(vs, n)
            assert got == brute_force_minimalize(vs), (n, len(vs))
            assert all(type(e) is int for v in got for e in v)


def test_bad_exponents_are_refused():
    for bad in ((1.5, 1), (True, 1), ("1", 1), (-1, 1), (1 << 63, 1), (1, 2, 3)):
        with pytest.raises(ValueError, match="bad exponent vector"):
            MonomialIdeal.from_generators(2, [bad, (0, 2)])
    # exponents are held so that no degree leaves int64: at most int64 max // n
    with pytest.raises(DeskScaleExceeded, match="int64"):
        MonomialIdeal.from_generators(2, [(1 << 62, 1 << 62)])
    half = principal(2, (1 << 61, 0))
    with pytest.raises(DeskScaleExceeded, match="int64"):
        half.multiply(half)
    assert MonomialIdeal.from_generators(1, [(1 << 62,)]).gens == {(1 << 62,)}


def test_unit_and_zero_flags():
    assert MonomialIdeal.unit(3).is_unit
    assert MonomialIdeal.zero(3).is_zero
    assert not MonomialIdeal.unit(3).is_proper
    assert maximal_ideal(3).contains_variable


def test_json_round_trip():
    for I in (sr_ideal(cycle(5)), MonomialIdeal.zero(3), MonomialIdeal.unit(3)):
        assert ideal_from_json(I.to_json()) == I
