import itertools
import random
import time

import numpy as np
import pytest

from srpowers.complexes import (
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
from srpowers import cohomology
from srpowers.cohomology import (
    OracleBudgetExceeded,
    _box_rows,
    _scan,
    _select_facets,
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
from srpowers.fixtures import named_complex
from srpowers.ideals import (
    MonomialIdeal,
    SymbolicPower,
    DeskScaleExceeded,
    contract,
    cover_ideal,
    facet_ideal,
    localized_membership,
    principal,
    sr_ideal,
    symbolic_power,
    symbolic_power_ideal,
)

EX410 = named_complex("example-4-10")

RP2 = from_facets(
    6,
    [(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 6), (1, 5, 6),
     (2, 3, 5), (2, 3, 6), (2, 4, 6), (3, 4, 5), (4, 5, 6)],
)


def random_complex(rng, n_min=2, n_max=5, with_singletons=True):
    n = rng.randint(n_min, n_max)
    gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
    if with_singletons:
        gens += [[v] for v in range(1, n + 1)]
    return from_facets(n, gens)


def test_cohomology_conventions():
    hollow = from_facets(3, [(1, 2), (2, 3), (1, 3)])
    assert reduced_cohomology_dims(hollow) == (0, 0, 1)
    two_points = from_facets(2, [(1,), (2,)])
    assert reduced_cohomology_dims(two_points) == (0, 1)
    assert reduced_cohomology_dims(empty_complex(3)) == (1,)
    assert reduced_cohomology_dims(void_complex(3)) == ()
    assert reduced_cohomology_dims(simplex(4)) == (0, 0, 0, 0, 0)
    hollow_tetra = uniform_matroid(4, 2)
    assert reduced_cohomology_dims(hollow_tetra) == (0, 0, 0, 1)


def test_projective_plane_depends_on_the_field():
    assert reduced_cohomology_dims(RP2) == (0, 0, 0, 0)
    assert reduced_cohomology_dims(RP2, 2) == (0, 0, 1, 1)
    assert reduced_homology_dims(RP2, 2) == (0, 0, 1, 1)
    assert reduced_homology_dims(RP2) == (0, 0, 0, 0)
    assert is_cm(sr_ideal(RP2)) is True
    assert is_cm(sr_ideal(RP2), 2) is False
    assert reisner_is_cm(RP2) is True
    assert reisner_is_cm(RP2, 2) is False


def test_homology_matches_cohomology_dims():
    rng = random.Random(6)
    for _ in range(30):
        c = random_complex(rng)
        for field in (None, 2, 3):
            assert reduced_homology_dims(c, field) == reduced_cohomology_dims(c, field)


def test_degree_complex_at_zero_is_radical_complex():
    rng = random.Random(7)
    for _ in range(20):
        c = random_complex(rng)
        I = sr_ideal(c)
        if I.is_zero:
            continue
        assert degree_complex(I, (0,) * c.n) == c
    # non-squarefree input reduces to the radical as well
    J = MonomialIdeal.from_generators(3, [(2, 1, 0), (0, 1, 2)])
    K = MonomialIdeal.from_generators(3, [(1, 1, 0), (0, 1, 1)])
    assert degree_complex(J, (0, 0, 0)) == degree_complex(K, (0, 0, 0))


def test_degree_complex_negative_indicator_gives_link():
    rng = random.Random(17)
    for _ in range(25):
        c = random_complex(rng)
        I = sr_ideal(c)
        if I.is_zero:
            continue
        for a in itertools.product((-1, 0), repeat=c.n):
            g = sum(1 << i for i, x in enumerate(a) if x < 0)
            da = degree_complex(I, a)
            if c.has_face(g):
                assert da.facets == c.link(g).facets
            else:
                assert da.is_void


def brute_degree_complex(ideal, a):
    """Definition-unfolding oracle: enumerate all F containing the negative
    support and keep those whose localization misses the monomial."""
    n = ideal.n
    neg = [i + 1 for i, x in enumerate(a) if x < 0]
    faces = []
    for r in range(n + 1):
        for combo in itertools.combinations(range(1, n + 1), r):
            f = set(combo)
            if not set(neg) <= f:
                continue
            if not localized_membership(a, ideal, f):
                faces.append(f - set(neg))
    return faces


def test_degree_complex_against_definition():
    rng = random.Random(27)
    cases = []
    for _ in range(10):
        c = random_complex(rng, n_max=4)
        I = sr_ideal(c)
        if not I.is_zero:
            cases.append(I.power(rng.choice((1, 2))))
    ex_sq = sr_ideal(EX410).power(2)
    cases.append(ex_sq)
    for I in cases:
        n = I.n
        rho = I.max_exponents()
        for _ in range(12):
            a = tuple(rng.randint(-1, max(r, 1)) for r in rho)
            da = degree_complex(I, a)
            faces = brute_degree_complex(I, a)
            if not faces:
                assert da.is_void
            elif all(not f for f in faces):
                assert da == empty_complex(n)
            else:
                assert da == from_facets(n, [f for f in faces if f])


def test_degree_complex_of_square_at_ones():
    # the all-ones degree of the ordinary square: a simplex on the two
    # vertices shared by every generator deficiency set
    I2 = sr_ideal(EX410).power(2)
    da = degree_complex(I2, (1, 1, 1, 1, 1))
    assert da.facet_sets() == ((3, 4),)
    assert brute_degree_complex(I2, (1, 1, 1, 1, 1)) == [set(), {3}, {4}, {3, 4}]


def test_degree_complex_negative_collapse():
    rng = random.Random(37)
    for _ in range(15):
        c = random_complex(rng, n_max=4)
        I = sr_ideal(c)
        if I.is_zero:
            continue
        I = I.power(2)
        for _ in range(8):
            a = [rng.randint(-3, 2) for _ in range(I.n)]
            collapsed = [-1 if x < 0 else x for x in a]
            assert degree_complex(I, a) == degree_complex(I, collapsed)


def test_depth_examples():
    rep = depth_dim(principal(3, (1, 1, 1)))
    assert (rep.depth, rep.dim, rep.is_cm) == (2, 2, True)

    rep = depth_dim(sr_ideal(cycle(5)))
    assert (rep.depth, rep.dim, rep.is_cm) == (2, 2, True)

    two_triangles = disjoint_union(
        embed(from_facets(3, [(1, 2, 3)]), 6), embed(from_facets(3, [(1, 2, 3)]), 6, 3)
    )
    rep = depth_dim(sr_ideal(two_triangles))
    assert (rep.depth, rep.dim, rep.is_cm) == (1, 3, False)
    w = rep.witnesses[0]
    assert w.index == 1 and w.a == (0,) * 6 and w.cohomology_dim == 1


def test_depth_zero_and_unit_and_zero_ideal():
    rep = depth_dim(MonomialIdeal.zero(4))
    assert (rep.depth, rep.dim, rep.is_cm) == (4, 4, True)
    with pytest.raises(ValueError):
        depth_dim(MonomialIdeal.unit(4))
    # an ideal with every variable power: dimension zero quotient
    rep = depth_dim(MonomialIdeal.from_generators(2, [(2, 0), (0, 3)]))
    assert (rep.depth, rep.dim, rep.is_cm) == (0, 0, True)
    # genuine depth zero below positive dimension
    rep = depth_dim(MonomialIdeal.from_generators(2, [(1, 1), (2, 0)]))
    assert (rep.depth, rep.dim) == (0, 1)
    assert rep.witnesses[0].index == 0


def test_depth_not_exceeding_dim_and_witness_shape():
    rng = random.Random(47)
    for _ in range(25):
        c = random_complex(rng)
        I = sr_ideal(c)
        if I.is_zero:
            continue
        I = I.power(rng.choice((1, 2)))
        rep = depth_dim(I)
        assert 0 <= rep.depth <= rep.dim <= I.n
        assert rep.is_cm == (rep.depth == rep.dim)
        for w in rep.witnesses:
            assert rep.depth <= w.index < rep.dim
            assert w.cohomology_dim >= 1


def test_reisner_agreement_random():
    rng = random.Random(57)
    for _ in range(40):
        c = random_complex(rng)
        I = sr_ideal(c)
        if I.is_zero:
            assert reisner_is_cm(c)
            continue
        assert is_cm(I) == reisner_is_cm(c)


def test_cm_flags_for_example_4_10():
    assert is_cm(symbolic_power(EX410, 2)) is True
    assert is_cm(sr_ideal(EX410).power(2)) is False
    assert is_equidimensional(sr_ideal(EX410)) is True


def test_equidimensionality():
    assert not is_equidimensional(sr_ideal(from_facets(4, [(1, 2, 3), (3, 4)])))
    assert is_equidimensional(MonomialIdeal.zero(3))


def test_s2_examples():
    assert is_s2(symbolic_power(uniform_matroid(5, 2), 3)) is True
    assert is_s2(sr_ideal(cycle(5)).power(3)) is False
    # Cohen-Macaulay implies S2
    rng = random.Random(67)
    for _ in range(15):
        c = random_complex(rng, n_max=4)
        I = sr_ideal(c)
        if I.is_zero:
            continue
        if is_cm(I):
            assert is_s2(I)


def test_s2_implies_depth_at_least_two_and_connected():
    rng = random.Random(68)
    for _ in range(20):
        c = random_complex(rng, n_max=5)
        I = sr_ideal(c)
        if I.is_zero:
            continue
        rep = depth_dim(I)
        if is_s2(I):
            assert rep.depth >= min(2, rep.dim)
        if rep.depth >= 2 and rep.dim >= 2:
            # connectivity consequence of depth two
            assert c.is_connected()


def test_gcm_examples():
    two = disjoint_union(embed(uniform_matroid(4, 3), 8), embed(uniform_matroid(4, 3), 8, 4))
    assert is_generalized_cm(symbolic_power(two, 3)) is True
    assert is_generalized_cm(sr_ideal(cycle(5)).power(2)) is True
    nonpure = sr_ideal(from_facets(4, [(1, 2, 3), (3, 4)]))
    assert is_generalized_cm(nonpure) is False


def test_one_variable_ideals_invert_every_variable():
    for k in (1, 2, 3):
        ideal = MonomialIdeal.from_generators(1, [(k,)])
        # inverting the only variable gives the unit ideal, so gCM reduces to
        # equidimensionality; S/(x^k) is zero-dimensional, hence CM
        for check in (is_cm, is_s2, is_generalized_cm):
            assert check(ideal) is True
    assert is_generalized_cm(SymbolicPower.of(MonomialIdeal.from_generators(1, [(1,)]), 2)) is True


def test_gcm_detects_cone_over_disconnected_base():
    cone = from_facets(7, [(1, 2, 3, 7), (4, 5, 6, 7)])
    I = sr_ideal(cone)
    assert is_equidimensional(I)
    assert is_generalized_cm(I) is False


def test_qb_connectivity_consequence():
    assert qb_connectivity_consequence(cycle(5), 2, "symbolic") is True
    assert qb_connectivity_consequence(EX410, 3, "ordinary") is True
    with pytest.raises(ValueError):
        qb_connectivity_consequence(cycle(5), 1, "symbolic")


def test_quotient_dimension():
    assert quotient_dimension(sr_ideal(cycle(5))) == 2
    assert quotient_dimension(MonomialIdeal.zero(4)) == 4


def test_field_validation():
    with pytest.raises(ValueError):
        reduced_cohomology_dims(cycle(5), 4)
    with pytest.raises(ValueError):
        is_cm(sr_ideal(cycle(5)), 1)


def _naive_nonvanishing(I):
    """Reference scan with no pruning: every degree in the box, the
    public degree-complex construction, full cohomology."""
    rho = I.max_exponents()
    dim = quotient_dimension(I)
    hit = set()
    for a in itertools.product(*(range(-1, r) for r in rho)):
        da = degree_complex(I, a)
        if da.is_void:
            continue
        dims = reduced_cohomology_dims(da)
        negc = sum(1 for x in a if x < 0)
        for j, d in enumerate(dims, start=-1):
            if d and j + negc + 1 < dim:
                hit.add(j + negc + 1)
    return hit


def _naive_s2(I):
    full = (1 << I.n) - 1
    for w in range(1, full + 1):
        J = contract(I, full & ~w).ideal
        if J.is_unit or J.is_zero:
            continue
        rep = depth_dim(J)
        if rep.depth < min(2, rep.dim):
            return False
    return True


def test_optimized_scan_matches_unpruned_reference():
    rng = random.Random(99)
    checked = 0
    for _ in range(30):
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 4))]
        if all(sum(g) == 0 for g in gens):
            continue
        I = MonomialIdeal.from_generators(n, gens)
        if I.is_unit:
            continue
        checked += 1
        rep = depth_dim(I)
        naive = _naive_nonvanishing(I)
        assert {w.index for w in rep.witnesses} == naive
        assert rep.depth == (min(naive) if naive else rep.dim)
        assert is_s2(I) == _naive_s2(I)
    for _ in range(15):
        c = random_complex(rng, n_max=5)
        I = sr_ideal(c)
        if I.is_zero:
            continue
        J = I.power(rng.choice((1, 2)))
        checked += 1
        rep = depth_dim(J)
        assert {w.index for w in rep.witnesses} == _naive_nonvanishing(J)
        assert is_s2(J) == _naive_s2(J)
    assert checked >= 25


def test_qb_identity_over_random_family():
    rng = random.Random(111)
    done = 0
    while done < 12:
        c = random_complex(rng, n_max=5)
        if sr_ideal(c).is_zero:
            continue
        done += 1
        for kind in ("symbolic", "ordinary"):
            assert qb_connectivity_consequence(c, rng.choice((2, 3)), kind)


def _squarefree_bases(rng, count):
    for _ in range(count):
        c = random_complex(rng, n_max=5)
        for kind in (sr_ideal, cover_ideal, facet_ideal):
            base = kind(c)
            if not base.is_zero:
                yield kind.__name__, base


def test_closed_form_degree_complex_matches_explicit_symbolic_power():
    rng = random.Random(13)
    kinds = set()
    for kind, base in _squarefree_bases(rng, 25):
        kinds.add(kind)
        for m in (1, 2, 3):
            sp = SymbolicPower.of(base, m)
            explicit = symbolic_power_ideal(base, m)
            for a in itertools.product(range(-1, m), repeat=base.n):
                assert degree_complex(sp, a) == degree_complex(explicit, a), (base, m, a)
    assert kinds == {"sr_ideal", "cover_ideal", "facet_ideal"}


def test_scan_selection_matches_closed_form_degree_complexes():
    rng = random.Random(17)
    for _, base in _squarefree_bases(rng, 12):
        for m in (1, 2, 3):
            sp = SymbolicPower.of(base, m)
            facets = sorted(sp.facets)
            out = np.array([[1 - (f >> i & 1) for i in range(sp.n)] for f in facets])
            rows = _box_rows((m,) * sp.n, sp.n + 1)
            sel, live = _select_facets(rows, out, m)
            for b, a in enumerate(rows.tolist()):
                g = sum(1 << i for i, x in enumerate(a) if x < 0)
                want = degree_complex(sp, a)
                if b in live:
                    got = {facets[j] & ~g for j in np.flatnonzero(sel[b])}
                    assert got == want.facets, (base, m, a)
                else:
                    apex = any(all(f >> i & 1 for f in want.facets)
                               for i in range(sp.n) if not g >> i & 1)
                    assert want.is_void or apex, (base, m, a)


def test_symbolic_power_route_matches_explicit_route():
    rng = random.Random(21)
    # fixed cases where CM changes with m; a shifted threshold shows there
    fixed = [sr_ideal(c) for c in (EX410, cycle(5), cycle(6), path(4))]
    for base in fixed + [base for _, base in _squarefree_bases(rng, 25)]:
        for m in (2, 3):
            sp = SymbolicPower.of(base, m)
            explicit = sp.ideal()
            for check in (is_cm, is_s2, is_generalized_cm):
                assert check(sp) == check(explicit), (check.__name__, base, m)
    rp2 = SymbolicPower.of(sr_ideal(RP2), 1)
    assert is_cm(rp2) is True and is_cm(rp2, 2) is False


def test_closed_form_scan_honours_deadline():
    sp = SymbolicPower.of(sr_ideal(uniform_matroid(6, 3)), 4)
    for check in (is_cm, is_s2, is_generalized_cm):
        with pytest.raises(OracleBudgetExceeded):
            check(sp, deadline=time.monotonic() - 1)
    assert is_cm(sp) is True


def test_box_rows_match_the_sorted_product():
    for rho, below in [((2, 0, 3), 2), ((1, 1, 1, 1), 5), ((3, 2), 1), ((2, 2, 2), 0)]:
        ref = sorted(
            (a for a in itertools.product(*(range(-1, r) for r in rho))
             if sum(x < 0 for x in a) < below),
            key=lambda a: (sum(x < 0 for x in a), a),
        )
        assert [tuple(r) for r in _box_rows(rho, below).tolist()] == ref
    with pytest.raises(ValueError):
        _box_rows((1,) * 23, 5)


def test_box_guard_is_a_desk_scale_error():
    with pytest.raises(DeskScaleExceeded) as info:
        _box_rows((4,) * 12, 13)
    assert not isinstance(info.value, OracleBudgetExceeded)
    assert "244140625" in str(info.value) and str(1 << 22) in str(info.value)


def test_degree_box_exponents_stay_within_int16():
    assert depth_dim(MonomialIdeal.from_generators(2, [(3, 1), (0, 2)])).depth == 0
    rep = depth_dim(MonomialIdeal.from_generators(2, [(30000, 1), (0, 2)]))
    assert (rep.depth, rep.dim) == (0, 1)
    assert rep.witnesses[0].a == (0, 1)
    with pytest.raises(DeskScaleExceeded, match="40000.*32767"):
        depth_dim(MonomialIdeal.from_generators(2, [(40000, 1), (0, 2)]))
    with pytest.raises(DeskScaleExceeded, match="32768"):
        _box_rows((1, 32768), 2)
    assert _box_rows((32767,), 1)[-1].tolist() == [32766]


def test_one_scan_gives_both_readers_the_same_witness_indices():
    rng = random.Random(29)
    cases = 0
    for _, base in _squarefree_bases(rng, 15):
        for m in (1, 2, 3):
            sp = SymbolicPower.of(base, m)
            dim = quotient_dimension(sp)
            explicit = sp.ideal()
            for field in (None, 2):
                closed = _scan(sp, dim, field, first_only=False)
                general = _scan(explicit, dim, field, first_only=False)
                assert [w.index for w in closed] == [w.index for w in general], (base, m, field)
                for w in closed:
                    dc = degree_complex(sp, w.a)
                    j = w.index - sum(x < 0 for x in w.a) - 1
                    assert reduced_cohomology_dims(dc, field)[j + 1] == w.cohomology_dim
                cases += 1
    rp2 = SymbolicPower.of(sr_ideal(RP2), 2)
    assert [w.index for w in _scan(rp2, 3, 2, first_only=False)] == [
        w.index for w in _scan(rp2.ideal(), 3, 2, first_only=False)
    ]
    assert cases >= 200


def test_memo_tables_stay_within_their_bound(monkeypatch):
    rng = random.Random(31)
    family = []
    for _, base in _squarefree_bases(rng, 8):
        family.append(SymbolicPower.of(base, 3))
        if base.n <= 4:
            family.append(base.power(2))
    checks = (is_cm, is_s2, is_generalized_cm)
    want = [[check(x) for check in checks] for x in family]
    monkeypatch.setattr(cohomology, "_MEMO_LIMIT", 8)
    monkeypatch.setattr(cohomology, "_DIMS", {})
    monkeypatch.setattr(cohomology, "_VANISHES", {})
    peak = 0
    got = []
    for x in family:
        row = []
        for check in checks:
            row.append(check(x))
            sizes = (len(cohomology._DIMS), len(cohomology._VANISHES))
            assert max(sizes) <= 8, sizes
            peak = max(peak, *sizes)
        got.append(row)
    assert got == want
    assert peak == 8  # the bound was reached, so entries were dropped
