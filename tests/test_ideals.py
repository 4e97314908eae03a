import itertools
import random
import tracemalloc

import pytest

from srpowers.bits import compactify, mask_of, support, vertices_of
from srpowers.complexes import (
    SimplicialComplex,
    complete_graph,
    cycle,
    empty_complex,
    from_facets,
    simplex,
    uniform_matroid,
    void_complex,
)
from srpowers.enumeration import distinct_complexes, sample_complexes
from srpowers.fixtures import named_complex, parse_complex_spec
from srpowers.cohomology import OracleBudgetExceeded, depth_dim, is_cm, is_generalized_cm, is_s2
from srpowers import ideals
from srpowers.ideals import (
    MAX_POWER,
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
    # every class on at most four vertices, with its proper nonzero SR, cover and facet ideals
    cases = 0
    for c in [cycle(5), EX410, uniform_matroid(5, 2), *distinct_complexes(4)]:
        for build in (sr_ideal, cover_ideal, facet_ideal):
            try:
                I = build(c)
            except ValueError:
                continue
            if I.is_zero or I.is_unit:
                continue
            for m in (1, 2, 3, 4):
                assert symbolic_power_ideal(I, m).gens == symbolic_power_by_intersection(I, m).gens
                cases += 1
    assert cases == 36 + 320  # the three named complexes, then the classes


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
            want = contract(explicit, g)
            if got is None:
                assert want is None
            else:
                assert got.ideal() == want


def test_symbolic_power_large_boxes_match_intersection():
    # boxes {0..m}^n of 19 683 to 78 125 points, checked against the intersection route
    rng = random.Random(44)
    for n, m in ((8, 3), (7, 4), (9, 2)):
        for _ in range(2):
            facets = [rng.sample(range(1, n + 1), rng.randint(2, n - 2)) for _ in range(3)]
            base = sr_ideal(from_facets(n, facets + [[v] for v in range(1, n + 1)]))
            assert symbolic_power_ideal(base, m).gens == symbolic_power_by_intersection(base, m).gens


def test_ordinary_power_value():
    rng = random.Random(45)
    for c, base in _random_squarefree_bases(rng, 6):
        for m in (1, 2, 3):
            op = OrdinaryPower.of(base, m)
            assert op.ideal() == base.power(m)
            assert op.symbolic() == SymbolicPower.of(base, m)
            assert (op.n, op.is_zero) == (base.n, base.is_zero)
            if m != 2:
                continue
            explicit = op.ideal()
            for g in range(1 << c.n):
                got = op.contract(g)
                want = contract(explicit, g)
                if got is None:
                    assert want is None or want.is_unit
                else:
                    assert got.ideal() == want and got.m == m
    assert OrdinaryPower.of(sr_ideal(cycle(5)), 1).ideal() == sr_ideal(cycle(5))
    with pytest.raises(ValueError):
        OrdinaryPower.of(sr_ideal(cycle(5)).power(2), 2)
    with pytest.raises(ValueError):
        OrdinaryPower.of(sr_ideal(cycle(5)), 0)


def test_ordinary_power_symbolic_reuses_its_facets(monkeypatch):
    from srpowers import complexes

    powers = [OrdinaryPower.of(base, 3) for _, base in _random_squarefree_bases(random.Random(46), 4)]

    def refuse(*args):
        raise AssertionError("minimal_transversals called")

    monkeypatch.setattr(ideals, "minimal_transversals", refuse)
    monkeypatch.setattr(complexes, "minimal_transversals", refuse)
    for op in powers:
        assert op.symbolic() == SymbolicPower(SimplicialComplex(op.n, op.facets), op.m)


def test_both_powers_contract_to_the_same_link():
    rng = random.Random(48)
    for c, base in _random_squarefree_bases(rng, 8):
        radical = complex_of_radical(base)
        full = (1 << c.n) - 1
        for m in (1, 3):
            sp, op = SymbolicPower.of(base, m), OrdinaryPower.of(base, m)
            for g in range(1 << c.n):
                got_s, got_o = sp.contract(g), op.contract(g)
                if g == full or not radical.has_face(g):
                    assert got_s is None and got_o is None, (base, g)
                    continue
                assert type(got_s) is SymbolicPower and type(got_o) is OrdinaryPower
                assert (got_s.n, got_s.facets, got_s.m) == (got_o.n, got_o.facets, got_o.m)
                assert got_s.n == c.n - g.bit_count() and got_s.m == m


def _small_powers(m):
    """Every class on at most four vertices, each the radical complex of
    its powers, then two whose radical holds a variable: a vertex in no facet."""
    held = [*distinct_complexes(4), SimplicialComplex(3, frozenset({0b011})), SimplicialComplex(2, frozenset({0}))]
    return [(SymbolicPower(c, m), OrdinaryPower(c, m)) for c in held]


def test_symbolic_box_against_intersection_on_every_class_up_to_four_vertices():
    # a vertex in every facet is a cone; the full simplex gives zero
    cones = zeros = 0
    for m in range(1, 6):
        for sp, _ in _small_powers(m):
            assert sp.ideal() == symbolic_power_by_intersection(sp.radical(), m), (sp, m)
            cones += any(all(f >> v & 1 for f in sp.facets) for v in range(sp.n))
            zeros += sp.is_zero
    assert cones > 0 and zeros > 0


def test_equals_symbolic_against_generators_on_every_class_up_to_four_vertices():
    checked = equal = 0
    for m in range(1, 6):
        for _, op in _small_powers(m):
            want = op.radical().power(m).equals(op.symbolic().ideal())
            assert op.equals_symbolic() is want, (op, m)
            checked += 1
            equal += want
    assert 0 < equal < checked


def _equal_by_generators(op):
    return op.ideal() == op.symbolic().ideal()


def test_ordinary_power_equals_symbolic_on_small_classes():
    # every class on <= 5 vertices, through its Stanley-Reisner and cover ideals
    checked = equal = 0
    for c in distinct_complexes(5):
        if c.is_empty_complex or c.vertex_mask != (1 << c.n) - 1:
            continue
        for base in (sr_ideal(c), cover_ideal(c)):
            for m in (1, 2, 3, 4):
                op = OrdinaryPower.of(base, m)
                want = _equal_by_generators(op)
                assert op.equals_symbolic() is want, (c, base, m)
                checked += 1
                equal += want
    assert checked > 1000 and 0 < equal < checked


def test_ordinary_power_equals_symbolic_on_larger_cubes():
    complexes = sample_complexes(6, 30, seed=17)
    complexes += [parse_complex_spec(s) for s in ("uniform:7:3", "uniform:7:4", "uniform:8:3", "cycle:6")]
    answers = []
    for c in complexes:
        op = OrdinaryPower.of(sr_ideal(c), 3)
        answers.append(op.equals_symbolic())
        assert answers[-1] is _equal_by_generators(op), c
    assert answers[-4:] == [False, False, False, False] and any(answers)


@pytest.mark.parametrize("m", [2, 3])
def test_equals_symbolic_reads_the_carried_complex(m):
    # the power build_ideal returns holds the query's complex itself; it
    # answers as one held on a copy, and is equal to it with one hash
    from srpowers.classify import Query, build_ideal

    for c in distinct_complexes(5):
        carried = build_ideal(Query(c, "stanley_reisner", "ordinary", "CM", m))
        assert carried.radical_complex is c
        fresh = OrdinaryPower(SimplicialComplex(c.n, c.facets), m)
        assert fresh.radical_complex is not c
        assert carried == fresh and hash(carried) == hash(fresh) and repr(carried) == repr(fresh)
        assert carried.equals_symbolic() is fresh.equals_symbolic(), c


def test_a_power_is_its_radical_complex_and_m():
    import dataclasses

    c = cycle(5)
    for power in (SymbolicPower, OrdinaryPower):
        assert [f.name for f in dataclasses.fields(power)] == ["radical_complex", "m"]
        held = power(c, 3)
        assert (held.n, held.facets, held.radical_complex) == (5, c.facets, c)
        # the link {2}, {5} of vertex 1, relabelled onto the vertices 2..5
        assert held.contract(0b1).radical_complex == SimplicialComplex(4, frozenset({0b0001, 0b1000}))
        with pytest.raises(ValueError, match="power"):
            power(c, 0)


def test_ordinary_power_equality_runs_its_check_between_rounds():
    calls = []
    op = OrdinaryPower.of(sr_ideal(cycle(5)), 3)
    assert op.equals_symbolic(lambda: calls.append(1)) is False
    assert len(calls) == 3
    zero = OrdinaryPower(SimplicialComplex(3, frozenset({0b111})), 2)
    assert zero.equals_symbolic(lambda: calls.append(1)) is True and len(calls) == 3


def test_ordinary_power_equality_box_guard():
    # both builders of the box refuse it with one message, before the box
    # (4^13 points, 8 MB as one bitset) is built
    base = MonomialIdeal.from_generators(13, [(1, 1) + (0,) * 11])
    op = OrdinaryPower.of(base, 3)
    with pytest.raises(DeskScaleExceeded) as want:
        op.symbolic().ideal()
    for build in (op.equals_symbolic, op.symbolic().ideal):
        tracemalloc.start()
        try:
            with pytest.raises(DeskScaleExceeded) as got:
                build()
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
        assert str(got.value) == str(want.value)
    assert "67108864" in str(got.value) and str(1 << 24) in str(got.value)


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
    assert con.sorted_gens() == ((0, 1, 0, 0), (1, 0, 0, 0))
    kept = 0b11111 & ~mask_of([5], 5)  # the variables left after inverting x5
    assert con.n == kept.bit_count()
    assert compactify([1 << (v - 1) for v in vertices_of(kept)], kept) == (1, 2, 4, 8)  # x_v stays x_v
    assert contract(I, []) == I


def test_contract_to_the_unit_ideal_is_none():
    I = sr_ideal(EX410)
    # every variable inverted
    assert contract(I, [1, 2, 3, 4, 5]) is None
    assert contract(I, 0b11111) is None
    assert contract(MonomialIdeal.zero(3), [1, 2, 3]) is None
    # an inverted set that holds a generator's support
    for gen in I.gens:
        g = support(gen)
        assert contract(I, g) is None
        assert contract(I, [v for v in range(1, 6) if g >> (v - 1) & 1]) is None
    assert contract(principal(3, (2, 0, 1)), [1, 3]) is None
    assert contract(principal(3, (2, 0, 1)), [1]) == principal(2, (0, 1))


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
        full = (1 << n) - 1
        for v in range(1, n + 1):
            con = contract(I, [v])
            if con is None:
                continue
            rad = complex_of_radical(con)
            link = c.link({v})
            relabeled = frozenset(compactify(link.facets, full & ~mask_of([v], n)))
            assert rad.facets == relabeled


def test_contract_composition():
    I = sr_ideal(EX410)
    one = contract(I, [5])
    (four,) = compactify([mask_of([4], 5)], 0b11111 & ~mask_of([5], 5))  # 4 after dropping 5
    two = contract(one, four)
    direct = contract(I, [4, 5])
    assert two == direct


def test_localized_membership():
    I2 = sr_ideal(EX410).power(2)
    a = (1, 1, 1, 1, 1)
    assert localized_membership(a, I2, [5])
    assert not localized_membership(a, I2, [])
    # with everything inverted, membership is support containment
    I = sr_ideal(EX410)
    assert localized_membership((0, 0, 0, 0, 0), I, [1, 2, 3, 4, 5])


def test_localization_refuses_an_inverted_set_out_of_range():
    # an int mask is range-checked as SimplicialComplex.link checks a face,
    # and a bool is neither a mask nor a label
    I = sr_ideal(cycle(5))
    for inverted in (1 << 7, 1 << 5, -1, [0], [6], True, False, [True]):
        with pytest.raises(ValueError):
            contract(I, inverted)
        with pytest.raises(ValueError):
            localized_membership((0,) * 5, I, inverted)
    assert contract(I, 1 << 4) == contract(I, [5])
    assert localized_membership((0, 0, 0, 1, 1), I, 1 << 4) == localized_membership((0, 0, 0, 1, 1), I, [5])


def test_extension_decomposition_spec_cases():
    assert extension_decomposition_check(sr_ideal(cycle(5)), 3, "symbolic")
    assert extension_decomposition_check(principal(2, (1, 1)), 2, "ordinary")
    assert extension_decomposition_check(sr_ideal(complete_graph(4)), 3, "ordinary")


def test_adjoin_variable(monkeypatch):
    # the check raises (I, y) to the power first; a wrong (I, y) fails it
    I = principal(2, (1, 1))
    power = MonomialIdeal.power
    seen = []

    def spy(self, m):
        seen.append(self)
        return power(self, m)

    monkeypatch.setattr(MonomialIdeal, "power", spy)
    assert extension_decomposition_check(I, 2, "ordinary")
    assert seen[0].sorted_gens() == ((0, 0, 1), (1, 1, 0))

    def without_y(self, m):
        return power(MonomialIdeal(self.n, self.gens - {(0, 0, 1)}) if self.n == 3 else self, m)

    monkeypatch.setattr(MonomialIdeal, "power", without_y)
    assert not extension_decomposition_check(I, 2, "ordinary")


def test_power_guard():
    I = sr_ideal(cycle(5))
    with pytest.raises(ValueError):
        I.power(17)
    with pytest.raises(ValueError):
        symbolic_power(cycle(5), 17)


@pytest.mark.parametrize("build", [
    MonomialIdeal.power,
    SymbolicPower.of,
    OrdinaryPower.of,
    symbolic_power_ideal,
    symbolic_power_by_intersection,
], ids=["power", "SymbolicPower.of", "OrdinaryPower.of", "symbolic_power_ideal", "by_intersection"])
@pytest.mark.parametrize("m", [0, 17, 2.5, True], ids=repr)
def test_every_power_builder_refuses_an_exponent_outside_1_to_16(build, m):
    with pytest.raises(ValueError, match=r"power must lie in 1\.\.16"):
        build(sr_ideal(cycle(5)), m)


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


@pytest.mark.parametrize("chunk", [None, 40])
def test_minimalize_against_brute_force(chunk):
    def minimal(vs, n):
        if chunk is None:
            return minimalize(vs, n)
        # in chunks, then over the union of the chunks' minimal sets, as
        # MonomialIdeal.add builds the generators of a sum
        parts = [minimalize(vs[k:k + chunk], n) for k in range(0, len(vs), chunk)]
        return minimalize([v for part in parts for v in part], n)

    assert minimalize([], 3) == frozenset()
    assert minimalize([(0, 0, 0), (1, 2, 0), (0, 0, 0)], 3) == {(0, 0, 0)}
    assert minimalize([[2], (1,), (3,)], 1) == {(1,)}
    assert minimalize([(), ()], 0) == {()}
    rng = random.Random(23)
    for n in range(1, 9):
        near = ideals._INT64_MAX // n  # the largest exponent held for n variables
        # sizes on both sides of 400 vectors; exponents to MAX_POWER, past int16
        # and near the int64 limit
        families = [
            [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(size)]
            for size, top in ((rng.randint(1, 60), 2), (rng.randint(1, 60), MAX_POWER),
                              (rng.randint(300, 520), 3), (rng.randint(1, 60), 40000))
        ]
        families.append([tuple(near - rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 60))])
        # wide degree levels: vectors of degree 6 and 7
        families.append([composition(rng, rng.choice((6, 7)), n) for _ in range(rng.randint(300, 520))])
        for vs in families:
            vs += rng.sample(vs, len(vs) // 3)  # duplicates
            if rng.random() < 0.2:
                vs.append((0,) * n)
            got = minimal(vs, n)
            assert got == brute_force_minimalize(vs), (n, len(vs))
            assert all(type(e) is int for v in got for e in v)
        with pytest.raises(DeskScaleExceeded, match="int64"):
            minimalize([(near + 1,) + (0,) * (n - 1)], n)


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


@pytest.mark.parametrize("kind", [SymbolicPower, OrdinaryPower])
def test_a_power_refuses_the_void_complex(kind):
    # the void complex is the radical complex of no ideal but the unit one,
    # so no power holds it; each question the oracle asks of a power is
    # refused with the message complex_of_radical gives the unit ideal
    for check in (is_cm, is_s2, is_generalized_cm, depth_dim):
        with pytest.raises(ValueError, match="the unit ideal has no radical complex"):
            check(kind(void_complex(3), 2))
    with pytest.raises(ValueError, match="the unit ideal has no radical complex"):
        complex_of_radical(MonomialIdeal.unit(3))
    assert not kind(empty_complex(3), 2).is_unit


def test_unit_and_zero_flags():
    assert MonomialIdeal.unit(3).is_unit
    assert MonomialIdeal.zero(3).is_zero
    assert maximal_ideal(3).contains_variable


def test_json_round_trip():
    for I in (sr_ideal(cycle(5)), MonomialIdeal.zero(3), MonomialIdeal.unit(3)):
        assert ideal_from_json(I.to_json()) == I
