import functools
import itertools
import operator
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from srpowers.complexes import (
    SimplicialComplex,
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
    Witness,
    _box_rows,
    _check_box,
    _scan,
    _closed_form_reader,
    _generator_reader,
    _table_minimal,
    _twin_classes,
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
from srpowers.bits import antichain_minimal, iter_bits, support
from srpowers.fixtures import named_complex
from srpowers.linalg import field_name
from srpowers.enumeration import canonical_key, distinct_complexes
from srpowers.ideals import (
    MonomialIdeal,
    OrdinaryPower,
    SymbolicPower,
    DeskScaleExceeded,
    complex_of_radical,
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


def _no_twins(n):
    """Twin classes of an ideal with no twins: every vertex on its own."""
    return tuple((v,) for v in range(n))


def _rows(rho, classes):
    """The rows of ``_box_rows``, read with zero lanes."""
    return [a for block in _box_rows(rho, classes, [[0] * r for r in rho]) for a, _ in block]


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


def _mod3_moore_space():
    """A disk whose boundary 9-gon wraps three times around the triangle
    1-2-3: the mod-3 Moore space, with 3-torsion in H_1 and nothing else."""
    rim = [1, 2, 3] * 3
    triangles = []
    for i in range(9):
        inner, nxt = 4 + i, 4 + (i + 1) % 9
        triangles += [(rim[i], rim[(i + 1) % 9], inner), (rim[(i + 1) % 9], inner, nxt), (inner, nxt, 13)]
    return from_facets(13, triangles)


def _counting(monkeypatch, name):
    """Replace ``cohomology.<name>`` by a wrapper that counts its calls."""
    calls = []
    inner = getattr(cohomology, name)
    monkeypatch.setattr(cohomology, name, lambda *args: calls.append(args) or inner(*args))
    return calls


def test_f2_certificate_is_sound():
    # dim H^j(K; Q) <= dim H^j(K; F_2), and the answer over Q is the one
    # the independent boundary-matrix route gives
    rng = random.Random(14)
    family = [RP2, _mod3_moore_space(), cycle(5), simplex(3)]
    family += [random_complex(rng, n_max=7, with_singletons=rng.random() < 0.5) for _ in range(150)]
    for c in family:
        over_q, over_f2 = reduced_cohomology_dims(c), reduced_cohomology_dims(c, 2)
        assert len(over_q) == len(over_f2)
        assert all(q <= f for q, f in zip(over_q, over_f2)), (c, over_q, over_f2)
        assert over_q == reduced_homology_dims(c), c


def test_rational_rank_runs_only_where_f2_sees_cohomology(monkeypatch):
    calls = _counting(monkeypatch, "rank")
    assert reduced_cohomology_dims(RP2) == (0, 0, 0, 0)  # F_2 sees (0, 0, 1, 1)
    assert len(calls) >= 1
    calls.clear()
    assert reduced_cohomology_dims(simplex(4)) == (0,) * 5  # dims -1..3
    assert reduced_cohomology_dims(cycle(6), 2) == (0, 0, 1)
    assert reduced_cohomology_dims(RP2, 2) == (0, 0, 1, 1)
    assert calls == []


def test_odd_primes_never_use_the_f2_certificate(monkeypatch):
    # F_2 and Q see nothing on the mod-3 Moore space; F_3 sees H^1 and H^2
    moore = _mod3_moore_space()
    calls = _counting(monkeypatch, "rank_f2")
    assert reduced_cohomology_dims(moore, 3) == (0, 0, 1, 1)
    assert reduced_homology_dims(moore, 3) == (0, 0, 1, 1)
    assert calls == []
    assert reduced_cohomology_dims(moore) == reduced_cohomology_dims(moore, 2) == (0, 0, 0, 0)
    assert len(calls) > 0


def test_face_mask_tables_stop_at_the_ceiling(monkeypatch):
    # F_2 rows come from the face-mask tables on at most 12 vertices, counted
    # after compacting onto the vertices used, not in the ambient n; past
    # the ceiling they are numbered bitsets, still ranked by rank_f2, and
    # only the Q fallback and odd primes reach rank
    f2_calls = _counting(monkeypatch, "rank_f2")
    calls = _counting(monkeypatch, "rank")
    far_triangle = embed(cycle(3), 16, 13)  # on vertices 14-16
    assert reduced_cohomology_dims(far_triangle, 2) == (0, 0, 1)
    assert len(f2_calls) >= 1 and calls == []
    assert reduced_homology_dims(far_triangle, 2) == (0, 0, 1)
    calls.clear()
    assert reduced_cohomology_dims(far_triangle) == (0, 0, 1)
    assert len(calls) >= 1  # the Q fallback
    assert reduced_homology_dims(far_triangle) == (0, 0, 1)
    for c in (cycle(14), _mod3_moore_space()):
        for field in (None, 2):
            calls.clear()
            dims = reduced_cohomology_dims(c, field)
            assert field is None or calls == [], c
            assert dims == reduced_homology_dims(c, field), (c, field)
    # a cone on 14 vertices: F_2 sees nothing, so only F_3 needs signed rows
    cone = SimplicialComplex(14, frozenset(f | 1 << 13 for f in uniform_matroid(13, 3).facets))
    for field in (None, 2, 3):
        calls.clear()
        assert reduced_cohomology_dims(cone, field) == (0,) * 6
        assert bool(calls) == (field == 3), field
        assert reduced_homology_dims(cone, field) == (0,) * 6
    assert len(cohomology._DOWN) <= 1 << 12
    assert len(cohomology._BOUNDARY) <= 1 << 12


def test_capped_face_listing_past_the_ceiling():
    # past 12 vertices _faces_by_size lists only the faces of at most t + 2
    # vertices, and the indices -1..t it gives are those of the full answer
    for c in (cycle(14), _mod3_moore_space()):
        facets = tuple(c.facets)
        for field in (None, 2, 3):
            full = reduced_cohomology_dims(c, field)
            for t in range(-1, c.dimension() + 1):
                assert cohomology._cohomology_dims_of_facets(facets, field, t) == full[: t + 2], (c, field, t)
    # a 14-sphere on 16 vertices: the faces of at most 3 vertices show nothing
    sphere = tuple(uniform_matroid(16, 14).facets)
    assert [len(faces) for faces in cohomology._faces_by_size(sphere, 3)] == [1, 16, 120, 560]
    for field in (None, 3):
        for t in (0, 1):
            assert cohomology._cohomology_dims_of_facets(sphere, field, t) == (0,) * (t + 2), (field, t)


def test_face_mask_tables_grow_on_first_need():
    # importing builds only the empty face; one query on a 7-vertex complex
    # grows both tables to its 2^7 faces
    script = ("import srpowers.cohomology as c, srpowers.complexes as k; "
              "print(len(c._DOWN), len(c._BOUNDARY)); "
              "c.reduced_cohomology_dims(k.uniform_matroid(7, 3)); "
              "print(len(c._DOWN), len(c._BOUNDARY))")
    src = Path(cohomology.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "128", "128"]


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


def _full_box(I):
    """(a, negative count, degree complex) over the full box
    {-1..rho_i - 1}^n by (negative count, lexicographic order), through
    the public degree-complex construction; void complexes left out."""
    box = sorted(itertools.product(*(range(-1, r) for r in I.max_exponents())),
                 key=lambda a: (sum(x < 0 for x in a), a))
    out = []
    for a in box:
        da = degree_complex(I, a)
        if not da.is_void:
            out.append((a, sum(1 for x in a if x < 0), da))
    return out


def _naive_nonvanishing(I, field=None, box=_full_box, dims=reduced_cohomology_dims):
    """Reference scan with no pruning: every degree of the full box, full
    cohomology.  The first witness per index below the dimension, as
    JSON, by index."""
    dim = quotient_dimension(I)
    first = {}
    for a, negc, da in box(I):
        for j, d in enumerate(dims(da, field), start=-1):
            i = j + negc + 1
            if d and i < dim and i not in first:
                first[i] = {"i": i, "a": list(a), "cohomology_dim": d}
    return dict(sorted(first.items()))


def _naive_s2(I, field=None, naive=_naive_nonvanishing):
    full = (1 << I.n) - 1
    for w in range(1, full + 1):
        J = contract(I, full & ~w)
        if J is None or J.is_zero:
            continue
        if any(i < min(2, quotient_dimension(J)) for i in naive(J, field)):
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
        assert rep.to_json()["witnesses"] == list(naive.values())
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
        assert rep.to_json()["witnesses"] == list(_naive_nonvanishing(J).values())
        assert is_s2(J) == _naive_s2(J)
    assert checked >= 25


def test_localization_walk_matches_the_full_box_reference():
    """Every class on <= 4 vertices and a seeded sample on 5: the depth
    reports and CM, S2 and gCM verdicts read through localizations equal
    those of the unpruned full-box reference."""
    memo = {}

    def cached(key, compute):
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def naive(J, field):
        box = lambda I: cached(I, lambda: _full_box(I))  # noqa: E731
        dims = lambda da, f: cached((da, f), lambda: reduced_cohomology_dims(da, f))  # noqa: E731
        return cached((J, field), lambda: _naive_nonvanishing(J, field, box, dims))

    def naive_cm(J, field):
        return not naive(J, field)

    def naive_gcm(J, field):
        if not complex_of_radical(J).is_pure():
            return False
        local = (contract(J, 1 << i) for i in range(J.n))
        return all(naive_cm(L, field) for L in local if L is not None and not L.is_zero)

    classes = [c for c in distinct_complexes(5) if not c.is_empty_complex]
    five = [c for c in classes if c.n == 5]
    family = [c for c in classes if c.n <= 4] + random.Random(41).sample(five, 8)
    kinds = set()
    checked = 0
    for c in family:
        for kind in (sr_ideal, cover_ideal, facet_ideal):
            try:
                base = kind(c)
            except ValueError:
                continue
            if base.is_zero or base.is_unit:
                continue
            kinds.add(kind.__name__)
            for m in (1, 2, 3):
                for power in (SymbolicPower.of(base, m), OrdinaryPower.of(base, m)):
                    J = power.ideal()
                    for field in (None, 2):
                        want = list(naive(J, field).values())
                        dim = quotient_dimension(J)
                        depth = want[0]["i"] if want else dim
                        assert depth_dim(J, field).to_json() == {
                            "depth": depth, "dim": dim, "is_cm": depth == dim,
                            "field": field_name(field), "witnesses": want,
                        }, (c, kind, m, field)
                        got = [check(power, field) for check in (is_cm, is_s2, is_generalized_cm)]
                        ref = [naive_cm(J, field), _naive_s2(J, field, naive), naive_gcm(J, field)]
                        assert got == ref, (c, kind, type(power), m, field)
                        checked += 1
    assert kinds == {"sr_ideal", "cover_ideal", "facet_ideal"}
    assert checked > 1000


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


def _lifted(local, g, n):
    """A complex of a localization at g, relabelled back onto 1..n minus g."""
    kept = [i for i in range(n) if not g >> i & 1]
    return frozenset(sum(1 << kept[k] for k in range(len(kept)) if f >> k & 1) for f in local.facets)


def test_scan_selection_matches_closed_form_degree_complexes():
    rng = random.Random(17)
    for _, base in _squarefree_bases(rng, 12):
        for m in (1, 2, 3):
            sp = SymbolicPower.of(base, m)
            sums, key_of, _ = _closed_form_reader(sp)
            # every row, then the rows the twin classes leave
            for classes in (_no_twins(sp.n), _twin_classes(sp)):
                pairs = [p for block in _box_rows(sp.max_exponents(), classes, *sums) for p in block]
                assert [a for a, _ in pairs] == _rows(sp.max_exponents(), classes)
                for a, raw in pairs:
                    want = degree_complex(sp, a)
                    apex = any(all(f >> i & 1 for f in want.facets) for i in range(sp.n))
                    key = key_of(raw)
                    assert (key is None) == (want.is_void or apex), (base, m, a)
                    assert key is None or key == tuple(sorted(want.facets)), (base, m, a)
            # a negative support G: the degree complex of the localization at G
            for a in itertools.product(range(-1, m), repeat=sp.n):
                g = sum(1 << i for i, x in enumerate(a) if x < 0)
                want = degree_complex(sp, a)
                local = sp.contract(g)
                if local is None:
                    assert want.is_void or g == (1 << sp.n) - 1, (base, m, a)
                    continue
                rest = tuple(x for x in a if x >= 0)
                assert _lifted(degree_complex(local, rest), g, sp.n) == want.facets, (base, m, a)


def _check_generator_rows(ideal):
    """Every row of ``_generator_reader`` against ``degree_complex``, with
    singleton and with real twin classes; the number of complexes named."""
    sums, key_of, facets = _generator_reader(ideal)
    named = 0
    for classes in (_no_twins(ideal.n), _twin_classes(ideal)):
        pairs = [p for block in _box_rows(ideal.max_exponents(), classes, *sums) for p in block]
        assert [a for a, _ in pairs] == _rows(ideal.max_exponents(), classes)
        for a, raw in pairs:
            want = degree_complex(ideal, a)
            apex = any(all(f >> i & 1 for f in want.facets) for i in range(ideal.n))
            key = key_of(raw)
            assert (key is None) == (want.is_void or apex), (ideal, a)
            assert key is None or facets(key) == tuple(sorted(want.facets)), (ideal, a)
            named += key is not None
    return named


def test_scan_selection_matches_generator_degree_complexes():
    # the explicit I^(m) and I^m, on the _DOWN table reads
    rng = random.Random(19)
    named = 0
    for _, base in _squarefree_bases(rng, 8):
        for m in (1, 2, 3):
            for ideal in (symbolic_power_ideal(base, m), base.power(m)):
                named += _check_generator_rows(ideal)
    assert named > 500
    # 13 variables, past the tables, in 2-byte fields; x1 and x2 are twins
    edges = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, 13)]
    gens = [(2, 1) + (0,) * 11, (1, 2) + (0,) * 11] + [tuple(int(v in e) for v in range(1, 14)) for e in edges]
    past = MonomialIdeal.from_generators(13, gens)
    assert _twin_classes(past)[0] == (0, 1) and len(_rows(past.max_exponents(), _twin_classes(past))) == 3
    assert _check_generator_rows(past) > 0
    # the fields at every width: the key is the minimal {j : u_j > a_j}
    for n in (5, 8, 9, 16, 17, 33, 64):
        gens = {tuple(rng.randrange(3) for _ in range(n)) for _ in range(6)} | {(1,) * n}
        ideal = MonomialIdeal.from_generators(n, gens)
        (lanes, start, _), key_of, _ = _generator_reader(ideal)
        for _ in range(20):
            a = tuple(rng.randrange(r) for r in ideal.max_exponents())
            masks = {support(u > t for u, t in zip(g, a)) for g in ideal.gens}
            dmin = antichain_minimal(masks)
            apex = any(not any(d >> j & 1 for d in dmin) for j in range(n))
            want = None if 0 in masks or apex else tuple(sorted(dmin))
            assert key_of(start + sum(lane[t] for lane, t in zip(lanes, a))) == want, (n, a)


def _antichains(masks):
    """Every antichain of the given masks, built by adding the masks in turn."""
    out = [[]]
    for m in masks:
        out += [chain + [m] for chain in out if all(m & c not in (m, c) for c in chain)]
    return out


def test_table_reads_match_antichain_minimal_and_transversals():
    cohomology._grow_tables(12)

    def check(family):
        assert sorted(_table_minimal(sum(1 << d for d in set(family)), set(family))) == sorted(
            antichain_minimal(family)), family

    # every family of nonempty subsets of a 3-set
    for bits in range(1 << 7):
        check([d for d in range(1, 8) if bits >> d - 1 & 1])
    # every antichain on 5 vertices, the void one {empty set} among them
    antichains = _antichains(range(1 << 5))
    assert len(antichains) == 7581
    for family in antichains:
        check(family)
    # seeded families on 6..12 vertices
    rng = random.Random(41)
    for n in range(6, 13):
        for _ in range(12):
            check([rng.randrange(1, 1 << n) & rng.randrange(1, 1 << n) or 1 for _ in range(rng.randint(1, 2 * n))])


def test_closed_form_lanes_at_the_largest_power():
    # m = 16 makes the widest lanes: the sums reach n * 15 at the empty
    # facet.  Every class on at most 3 vertices over its whole box, on 4
    # vertices over the rows with coordinates in {0, 1, m - 2, m - 1} and a
    # seeded sample; then {empty face} and a vertex with the rest in no
    # facet, also at m = 15, where 4 vertices need the lanes' spare bit
    rng = random.Random(31)
    rows = 0
    extra = [SimplicialComplex(n, frozenset(fs)) for n in (3, 4) for fs in ({0}, {1})]
    for c, m in [(c, 16) for c in [*distinct_complexes(4), *extra]] + [(c, 15) for c in extra]:
        sp = SymbolicPower(c, m)
        if sp.is_zero:
            continue
        if c.n <= 3:
            box = set(itertools.product(range(m), repeat=c.n))
        else:
            box = set(itertools.product((0, 1, m - 2, m - 1), repeat=c.n))
            box |= {tuple(rng.randrange(m) for _ in range(c.n)) for _ in range(200)}
        sums, key_of, _ = _closed_form_reader(sp)
        pairs = [p for block in _box_rows(sp.max_exponents(), _no_twins(c.n), *sums) for p in block]
        for a, raw in pairs:
            if a not in box:
                continue
            want = degree_complex(sp, a)
            apex = any(all(f >> i & 1 for f in want.facets) for i in range(c.n))
            key = key_of(raw)
            assert (key is None) == (want.is_void or apex), (c, a)
            assert key is None or key == tuple(sorted(want.facets)), (c, a)
            rows += key is not None
    assert rows > 1000
    for c in (cycle(3), path(3), from_facets(3, [(1, 2), (3,)])):
        sp = SymbolicPower(c, 16)
        for check in (is_cm, is_s2):
            assert check(sp) == check(sp.ideal()), (check.__name__, c)


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


@pytest.mark.parametrize("field", [None, 2])
def test_ordinary_power_route_matches_explicit_route(field):
    checks = (is_cm, is_s2, is_generalized_cm)
    classes = equal = 0
    for c in distinct_complexes(5):
        if c.is_empty_complex:
            continue
        cube = OrdinaryPower.of(sr_ideal(c), 3)
        explicit = cube.ideal()
        got = [check(cube, field) for check in checks]
        assert got == [check(explicit, field) for check in checks], (c, field)
        classes += 1
        equal += explicit == cube.symbolic().ideal()
    assert classes > 150 and 0 < equal < classes


def test_ordinary_power_route_builds_no_generators(monkeypatch):
    checks = (is_cm, is_s2, is_generalized_cm)
    cubes = [OrdinaryPower.of(sr_ideal(c), 3)
             for c in (cycle(4), cycle(5), uniform_matroid(4, 2), uniform_matroid(5, 2), EX410)]
    want = [[check(cube.ideal()) for check in checks] for cube in cubes]
    assert [True, True, True] in want and [False, False, False] in want

    def refuse(*args):
        raise AssertionError("explicit generators built")

    monkeypatch.setattr(SymbolicPower, "ideal", refuse)
    monkeypatch.setattr(OrdinaryPower, "ideal", refuse)
    monkeypatch.setattr(MonomialIdeal, "power", refuse)
    monkeypatch.setattr(cohomology, "_VANISHES", {})
    assert [[check(cube) for check in checks] for cube in cubes] == want


def test_ordinary_power_route_honours_deadline():
    for c in (uniform_matroid(5, 2), cycle(5), uniform_matroid(4, 2)):
        cube = OrdinaryPower.of(sr_ideal(c), 3)
        for check in (is_cm, is_s2, is_generalized_cm):
            with pytest.raises(OracleBudgetExceeded):
                check(cube, deadline=time.monotonic() - 1)
    assert is_cm(OrdinaryPower.of(sr_ideal(cycle(5)), 3)) is False
    assert is_cm(OrdinaryPower.of(sr_ideal(uniform_matroid(4, 2)), 3)) is True


def test_box_rows_match_the_sorted_product():
    # the nonnegative box, in lexicographic order
    for rho in [(2, 0, 3), (1, 1, 1, 1), (3, 2), (2, 2, 2), (4,)]:
        ref = list(itertools.product(*(range(r) for r in rho)))
        assert _rows(rho, _no_twins(len(rho))) == ref
    # a box on no vertices has the one empty row, where I^(m) of {empty face} has its witness
    assert _rows((), ()) == [()]
    assert _scan(SymbolicPower(SimplicialComplex(0, frozenset({0})), 3), 2, None, first_only=False) == [Witness(0, (), 1)]
    # the lanes: start + sum_i lanes[i][a_i], under the mask when given
    lanes = [[0, 5], [0, 1, 2], [0, 100]]
    for start, mask in ((0, None), (7, None), (7, 0b1110)):
        for classes in ((0,), (1,), (2,)), ((0, 1), (2,)):
            got = [p for block in _box_rows((2, 3, 2), classes, lanes, start, mask) for p in block]
            sums = [start + sum(lane[t] for lane, t in zip(lanes, a)) for a, _ in got]
            assert [s for _, s in got] == (sums if mask is None else [mask & s for s in sums])
            assert [a for a, _ in got] == _rows((2, 3, 2), classes)
    with pytest.raises(ValueError):
        _scan(MonomialIdeal.from_generators(23, [(1,) * 23]), 1, None, first_only=True)


def test_twin_box_rows_are_the_nondecreasing_rows_of_the_product():
    # with twin classes, the rows nondecreasing along each class, read in
    # position order, in the product's order and in blocks of at most _CHUNK
    cases = [
        ((2, 2, 3), ((0, 1), (2,))),
        ((3, 1, 3, 3), ((0, 2, 3), (1,))),
        ((2, 2, 2, 2), ((0, 3), (1, 2))),
        ((3, 0, 3), ((0, 2), (1,))),
        ((4,) * 4, ((0, 1, 2, 3),)),
        ((5,) * 7, ((0, 2, 5), (1, 6), (3,), (4,))),  # 13 125 rows, so several blocks
    ]
    for rho, classes in cases:
        ref = [a for a in itertools.product(*map(range, rho))
               if all(a[u] <= a[v] for c in classes for u, v in zip(c, c[1:]))]
        blocks = [list(block) for block in _box_rows(rho, classes, [[0] * r for r in rho])]
        assert [a for block in blocks for a, _ in block] == ref, (rho, classes)
        assert all(0 < len(block) <= cohomology._CHUNK for block in blocks), (rho, classes)
    assert len(blocks) == 4
    # the guard judges the full box, however few rows the twins leave
    twelve = MonomialIdeal.from_generators(12, [(4,) * 12])
    assert _twin_classes(twelve) == (tuple(range(12)),)
    with pytest.raises(DeskScaleExceeded, match="244140625"):
        _scan(twelve, 1, None, first_only=True)


def _twins_by_definition(n, members, swap):
    """The twin classes straight from the definition: u ~ v when the swap
    of u and v maps the members to themselves."""
    twins = lambda u, v: {swap(x, u, v) for x in members} == set(members)  # noqa: E731
    return tuple(tuple(v for v in range(n) if twins(u, v) or u == v)
                 for u in range(n) if not any(twins(w, u) for w in range(u)))


def _swap_bits(f, u, v):
    return f & ~(1 << u | 1 << v) | (f >> u & 1) << v | (f >> v & 1) << u


def test_twin_classes_of_facets_and_generators():
    for n, k in [(4, 2), (6, 3), (7, 4), (8, 3)]:
        u = uniform_matroid(n, k)
        assert _twin_classes(SymbolicPower(u, 3)) == (tuple(range(n)),)
        assert _twin_classes(sr_ideal(u)) == (tuple(range(n)),)
    assert _twin_classes(SymbolicPower.of(sr_ideal(cycle(6)), 2)) == _no_twins(6)
    assert _twin_classes(sr_ideal(cycle(6))) == _no_twins(6)
    # the explicit SR ideal, I^(2) and I^2 have the classes of the complex
    for c in distinct_complexes(5):
        want = _twins_by_definition(c.n, c.facets, _swap_bits)
        sp = SymbolicPower(c, 2)
        assert _twin_classes(sp) == want, c
        explicit = sr_ideal(c)
        if explicit.is_zero:
            continue
        assert _twin_classes(explicit) == want, c
        assert _twin_classes(sp.ideal()) == want, c
        assert _twin_classes(explicit.power(2)) == want, c


@pytest.mark.parametrize("field", [None, 2])
def test_twin_reduction_changes_no_scan(field, monkeypatch):
    # full-mode witnesses, with and without the twin classes, over every
    # class on <= 5 vertices: I^(m) by closed form and explicitly for
    # m = 1..4, and I^m for m <= 3.  Over F_2 the explicit I^(4), half the
    # time of the test, is left out: it reads the same complexes as over
    # Q, and no complex on <= 5 vertices has torsion, so its answers are
    # those already compared
    ideals = []
    for c in distinct_complexes(5):
        base = sr_ideal(c)
        if base.is_zero:
            continue
        for m in (1, 2, 3, 4):
            sp = SymbolicPower.of(base, m)
            ideals += [sp] + ([sp.ideal()] if m <= 3 or field is None else []) + ([base.power(m)] if m <= 3 else [])
    got = [_scan(x, quotient_dimension(x), field, first_only=False) for x in ideals]
    monkeypatch.setattr(cohomology, "_twin_classes", lambda ideal: _no_twins(ideal.n))
    want = [_scan(x, quotient_dimension(x), field, first_only=False) for x in ideals]
    assert got == want
    assert len(ideals) > 1000 and sum(map(bool, want)) > 300


def test_box_guard_is_a_desk_scale_error():
    with pytest.raises(DeskScaleExceeded) as info:
        _check_box((4,) * 12)
    assert not isinstance(info.value, OracleBudgetExceeded)
    assert "244140625" in str(info.value) and str(1 << 22) in str(info.value)
    # the guard counts the full box of the ideal asked about, before any
    # localization is built (this radical complex has 4 095 faces)
    ideal = MonomialIdeal.from_generators(12, [(4,) * 12])
    for check in (depth_dim, is_cm, is_s2):
        start = time.monotonic()
        with pytest.raises(DeskScaleExceeded, match="244140625"):
            check(ideal)
        assert time.monotonic() - start < 1


def test_face_walk_guard_is_a_desk_scale_error(monkeypatch):
    # the box of (x1, x2) on 70 variables has 4 points, but its radical
    # complex is one facet of 68 vertices: listing its 2^68 faces is
    # refused before any is listed
    ideal = MonomialIdeal.from_generators(70, [(1,) + (0,) * 69, (0, 1) + (0,) * 68])
    _check_box(ideal.max_exponents())
    monkeypatch.setattr(cohomology, "_VANISHES", {})  # no held verdict
    for check in (depth_dim, is_cm, is_s2, is_generalized_cm):
        tracemalloc.start()
        try:
            with pytest.raises(DeskScaleExceeded, match=f"{1 << 68} steps.*{1 << 22}"):
                check(ideal)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()
    # at the limit the walk runs, past it it is refused: the facet 123
    # takes 8 steps; the facets 123, 124 and 134 take 24, though their box
    # has 8 points
    monkeypatch.setattr(cohomology, "_BOX_LIMIT", 8)
    assert depth_dim(MonomialIdeal.from_generators(4, [(0, 0, 0, 1)])).is_cm
    with pytest.raises(DeskScaleExceeded, match="24 steps"):
        depth_dim(MonomialIdeal.from_generators(4, [(0, 1, 1, 1)]))


def test_degree_box_exponents_stay_within_int16():
    assert depth_dim(MonomialIdeal.from_generators(2, [(3, 1), (0, 2)])).depth == 0
    rep = depth_dim(MonomialIdeal.from_generators(2, [(30000, 1), (0, 2)]))
    assert (rep.depth, rep.dim) == (0, 1)
    assert rep.witnesses[0].a == (0, 1)
    with pytest.raises(DeskScaleExceeded, match="40000.*32767"):
        depth_dim(MonomialIdeal.from_generators(2, [(40000, 1), (0, 2)]))
    with pytest.raises(DeskScaleExceeded, match="32768"):
        _check_box((1, 32768))
    assert _rows((32767,), _no_twins(1))[-1] == (32766,)


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


def _renaming(c, g, rng):
    """A random renaming of the vertices of ``c``, acting on masks, that
    keeps the order of the vertices outside g held by equally many facets
    containing g: the renamings the memo key at g does not see.  The key
    sorts the vertices by that count and breaks ties by label, so it is
    no complete invariant: {14, 2, 3} and {12, 3, 4} are isomorphic links
    with different keys, and miss each other's entries as they did when
    the columns were sorted as tuples."""
    perm = rng.sample(range(c.n), c.n)
    star = [f for f in c.facets if f & g == g]
    ties: dict = {}
    for v in range(c.n):
        ties.setdefault(-1 if g >> v & 1 else sum(f >> v & 1 for f in star), []).append(v)
    for count, vertices in ties.items():
        if count >= 0:  # vertices come in order; give them their images in order
            for v, image in zip(vertices, sorted(perm[v] for v in vertices)):
                perm[v] = image
    return lambda mask: sum(1 << perm[i] for i in range(c.n) if mask >> i & 1)


def test_a_face_key_is_the_key_of_the_contraction():
    """Every class on <= 5 vertices, every face G and m in 1..3: the key
    of I^(m) at G is the key of the contraction I^(m)_G, and it stays put
    when the vertices are renamed, G along with them, by a renaming that
    keeps the order within ties (``_renaming``)."""
    rng = random.Random(53)
    keys = 0
    for c in distinct_complexes(5):
        for m in (1, 2, 3):
            power = SymbolicPower(c, m)
            for g in c.faces():
                local = power.contract(g)
                if local is None:  # G is every vertex
                    continue
                key = cohomology._canonical_ideal_key(power, g)
                assert key == cohomology._canonical_ideal_key(local), (c, m, g)
                rename = _renaming(c, g, rng)
                renamed = SymbolicPower(SimplicialComplex(c.n, frozenset(map(rename, c.facets))), m)
                assert key == cohomology._canonical_ideal_key(renamed, rename(g)), (c, m, g)
                keys += 1
    assert keys > 10000
    # the ties are broken by label: an isomorphic link may key apart
    one, other = (SymbolicPower(SimplicialComplex(4, frozenset(facets)), 2) for facets in ({0b1001, 0b10, 0b100}, {0b11, 0b100, 0b1000}))
    assert cohomology._canonical_ideal_key(one) != cohomology._canonical_ideal_key(other)


def test_the_power_built_on_a_miss_is_a_renamed_contraction(monkeypatch):
    """Every class on <= 5 vertices, every face G and m in 1..3: the power
    a box miss scans for I^(m) at G is the contraction I^(m)_G with its
    vertices renamed.  On every class on <= 4 vertices and a seeded
    sample on 5 it gets the same CM and S2 verdicts, each computed with
    empty memo tables."""
    built = []
    scan = cohomology._scan
    monkeypatch.setattr(cohomology, "_scan", lambda ideal, *args, **kwargs: built.append(ideal) or scan(ideal, *args, **kwargs))

    def fresh(check, ideal):
        monkeypatch.setattr(cohomology, "_VANISHES", {})
        return check(ideal)

    classes = list(distinct_complexes(5))
    verdicts = {c for c in classes if c.n <= 4} | set(random.Random(59).sample([c for c in classes if c.n == 5], 40))
    cases = 0
    for c in classes:
        for m in (1, 2, 3):
            power = SymbolicPower(c, m)
            for g in c.faces():
                local = power.contract(g)
                if local is None:
                    continue
                built.clear()
                monkeypatch.setattr(cohomology, "_VANISHES", {})
                cohomology._box_vanishes(power, g, 1, None, None)
                (miss,) = built
                assert (miss.n, miss.m) == (local.n, m), (c, m, g)
                assert canonical_key(miss.facets, local.n) == canonical_key(local.facets, local.n), (c, m, g)
                for check in (is_cm, is_s2) if c in verdicts else ():
                    assert fresh(check, miss) == fresh(check, local), (check.__name__, c, m, g)
                    cases += 1
    assert cases > 1000


@pytest.mark.parametrize("kind", [SymbolicPower, OrdinaryPower, "explicit"])
def test_one_key_per_memo_lookup(kind, monkeypatch):
    """Every ``_VANISHES`` lookup of CM and S2 computes one key: each box
    lookup, and each read of a top-level verdict through ``_held``, whose
    key also stores a miss.  S2 computes none at a facet, where it asks
    nothing."""
    rng = random.Random(61)
    family = [c for c in distinct_complexes(4) if not c.is_empty_complex] + [
        random_complex(rng, n_min=5, n_max=5) for _ in range(12)]
    keys = _counting(monkeypatch, "_canonical_ideal_key")
    lookups = []
    memoized = cohomology._memoized
    monkeypatch.setattr(cohomology, "_memoized", lambda table, *args: (
        table is cohomology._VANISHES and args[0][0] == "box" and lookups.append(args[0])) or memoized(table, *args))
    held = cohomology._held
    monkeypatch.setattr(cohomology, "_held", lambda ideal, *args: lookups.append(ideal) or held(ideal, *args))
    monkeypatch.setattr(cohomology, "_VANISHES", {})
    checked = 0
    for c in family:
        power = (SymbolicPower if kind == "explicit" else kind)(c, 2)
        ideal = power.ideal() if kind == "explicit" else power
        if ideal.is_zero:
            continue
        for check in (is_cm, is_s2):
            del keys[:], lookups[:]
            check(ideal)
            assert len(keys) == len(lookups), (c, check.__name__)
            checked += bool(keys)
        # the last check was S2: no key at a facet of the radical complex
        faces = [args[1] if len(args) > 1 else 0 for args in keys]
        assert kind == "explicit" or not set(faces) & c.facets, c
    assert checked > 30


@pytest.mark.parametrize("m", [2, 3])
def test_held_verdicts_never_change_an_answer(m, monkeypatch):
    """Every class on <= 5 vertices: CM, S2 and gCM of I^(m) and I^m are
    the same asked with empty memo tables as asked with what ``is_cm`` of
    I^(m) left there, and CM of I^m under a held "not CM" for I^(m) tests
    no equality I^m = I^(m)."""
    tested = []
    equals_symbolic = OrdinaryPower.equals_symbolic
    monkeypatch.setattr(OrdinaryPower, "equals_symbolic",
                        lambda self, *args: tested.append(self) or equals_symbolic(self, *args))
    checks = (is_cm, is_s2, is_generalized_cm)

    def answers(held: dict):
        out = []
        for power in powers:
            for check in checks:
                monkeypatch.setattr(cohomology, "_VANISHES", dict(held))
                del tested[:]
                out.append(check(power))
                if check is is_cm and isinstance(power, OrdinaryPower) and held.get(key) is False:
                    assert not tested, c
                    shortcuts.append(c)
        return out

    verdicts, shortcuts = set(), []
    for c in distinct_complexes(5):
        if c.is_empty_complex:
            continue
        powers = (SymbolicPower(c, m), OrdinaryPower(c, m))
        monkeypatch.setattr(cohomology, "_VANISHES", {})
        verdict = is_cm(powers[0])
        filled = cohomology._VANISHES
        key = (cohomology._canonical_ideal_key(powers[0]), None)
        assert powers[0].is_zero or filled[key] is verdict, c
        cold = answers({})
        assert answers(filled) == cold, c
        verdicts.add(verdict)
    assert verdicts == {True, False} and shortcuts


def test_held_verdicts_still_honour_the_deadline(monkeypatch):
    """A held verdict answers nothing past the deadline: with I^(3) held
    CM or not CM, every query that reads it still raises."""
    monkeypatch.setattr(cohomology, "_VANISHES", {})
    for c, cm in ((cycle(5), False), (uniform_matroid(4, 2), True), (uniform_matroid(5, 3), True)):
        sp, op = SymbolicPower.of(sr_ideal(c), 3), OrdinaryPower.of(sr_ideal(c), 3)
        assert is_cm(sp) is cm
        for check, power in ((is_cm, sp), (is_cm, op), (is_s2, sp), (is_s2, op), (is_generalized_cm, sp)):
            with pytest.raises(OracleBudgetExceeded):
                check(power, deadline=time.monotonic() - 1)


def _one_variable_gcm(x, field) -> bool:
    """gCM as Takayama states it: equidimensional, and every one-variable
    localization is CM."""
    vertices = iter_bits(x.radical_complex.vertex_mask)
    return is_equidimensional(x) and all(
        is_cm(contract(x, v) if isinstance(x, MonomialIdeal) else x.contract(v), field) for v in vertices)


@pytest.mark.parametrize("field", [None, 2])
def test_generalized_cm_walk_matches_the_localization_definition(field, monkeypatch):
    """Every class on <= 5 vertices: gCM of I^(m) and I^m, m = 1..3, and
    of the explicit I^2, asked with empty memo tables, is the definition
    asked with empty memo tables."""
    seen = set()
    for c in distinct_complexes(5):
        powers = [kind(c, m) for kind in (SymbolicPower, OrdinaryPower) for m in (1, 2, 3)]
        if c.vertex_mask == (1 << c.n) - 1:
            powers.append(sr_ideal(c).power(2))
        for x in powers:
            if x.is_zero:
                continue
            monkeypatch.setattr(cohomology, "_VANISHES", {})
            got = is_generalized_cm(x, field)
            monkeypatch.setattr(cohomology, "_VANISHES", {})
            assert got == _one_variable_gcm(x, field), (c, x, field)
            seen.add((type(x), got))
    assert len(seen) == 6  # each kind both ways


def test_generalized_cm_past_its_deadline_raises(monkeypatch):
    """uniform:3:0 is 0-dimensional: its gCM walk reads no box, yet asked
    past its deadline it raises, as does gCM of an ordinary power, cold
    or with its verdicts held."""
    points = uniform_matroid(3, 0)
    monkeypatch.setattr(cohomology, "_VANISHES", {})
    for x in (sr_ideal(points), SymbolicPower.of(sr_ideal(points), 3), OrdinaryPower.of(sr_ideal(points), 3)):
        assert is_generalized_cm(x) is True
        assert not cohomology._VANISHES
        with pytest.raises(OracleBudgetExceeded):
            is_generalized_cm(x, deadline=time.monotonic() - 1)
    for c in (cycle(5), uniform_matroid(4, 2)):
        cube = OrdinaryPower.of(sr_ideal(c), 3)
        with pytest.raises(OracleBudgetExceeded):
            is_generalized_cm(cube, deadline=time.monotonic() - 1)
        is_generalized_cm(cube)  # its box verdicts are held now
        with pytest.raises(OracleBudgetExceeded):
            is_generalized_cm(cube, deadline=time.monotonic() - 1)


def test_each_walk_asks_the_bounds_of_its_definition(monkeypatch):
    """Every class on <= 4 vertices, I^(2), I^2 and the explicit I^2, with
    cold memo tables: the (face, bound) pairs the boxes are asked are the
    definitions on the radical complex, of dimension d - 1:
    CM {(G, d - |G|) : |G| < d}, gCM the same without G = 0 (nothing
    unless pure), S2 {(G, min(2, max |F >= G| - |G|)) : G not a facet}.
    I^(2), and I^2 through it, asks them only at the intersections of
    facets, as at any other face the link is a cone and the box has no
    row; the explicit I^2 asks them at every face.  Every box answers "vanishes"
    here, so no walk stops early.  I^2 asks them exactly when
    I^2 = I^(2), for gCM at each vertex localization, compared here on
    the explicit generators."""
    asked = []
    monkeypatch.setattr(cohomology, "_box_vanishes",
                        lambda ideal, face, below, *args: asked.append((face, below)) or True)
    outcomes = set()
    for c in distinct_complexes(4):
        sym, ordinary = SymbolicPower(c, 2), OrdinaryPower(c, 2)
        if sym.is_zero:
            continue
        d, faces = c.dimension() + 1, c.faces()
        cm = {(g, d - g.bit_count()) for g in faces if g.bit_count() < d}
        want = {
            is_cm: cm,
            is_generalized_cm: {(g, b) for g, b in cm if g} if c.is_pure() else set(),
            is_s2: {(g, min(2, max(f.bit_count() for f in c.facets if f & g == g) - g.bit_count()))
                    for g in faces if g not in c.facets},
        }
        meets = _facet_intersections(c)
        square, symbolic = ordinary.ideal(), sym.ideal()
        equal = {is_cm: square == symbolic, is_s2: square == symbolic, is_generalized_cm: all(
            contract(square, v) == contract(symbolic, v) for v in iter_bits(c.vertex_mask))}
        for x in (sym, ordinary, sr_ideal(c).power(2)):
            for check, pairs in want.items():
                monkeypatch.setattr(cohomology, "_VANISHES", {})
                del asked[:]
                check(x)
                walked = x is not ordinary or equal[check]
                if not isinstance(x, MonomialIdeal):
                    pairs = {(g, b) for g, b in pairs if g in meets}
                assert len(asked) == len(set(asked)) and set(asked) == (pairs if walked else set()), (
                    c, x, check.__name__)
                outcomes.add((check, type(x), walked, bool(asked)))
    # every check asks something of each kind, and some I^2 is refused
    checks, kinds = (is_cm, is_s2, is_generalized_cm), (SymbolicPower, OrdinaryPower, MonomialIdeal)
    assert {(check, kind, True, True) for check in checks for kind in kinds} <= outcomes
    assert {(check, OrdinaryPower, False, False) for check in checks} <= outcomes


def _facet_intersections(c):
    """Every intersection of a nonempty set of facets, by brute force."""
    return {functools.reduce(operator.and_, s)
            for k in range(1, len(c.facets) + 1) for s in itertools.combinations(c.facets, k)}


@pytest.mark.parametrize("field", [None, 2])
def test_a_symbolic_walk_lists_the_intersections_of_facets(field, monkeypatch):
    """Every class on <= 5 vertices and m = 1..3: the faces a walk of I^(m)
    asks are the intersections of facets G with |G| < below, largest
    first, whatever the bound."""
    asked = []
    monkeypatch.setattr(cohomology, "_box_vanishes",
                        lambda ideal, face, *args: asked.append(face) or True)
    for c in distinct_complexes(5):
        meets = _facet_intersections(c)
        for m in (1, 2, 3):
            power = SymbolicPower(c, m)
            for below in range(c.n + 2):
                del asked[:]
                assert cohomology._walk(power, field, None, below, lambda g: 1)
                want = sorted((g for g in meets if g.bit_count() < below), key=lambda g: (-g.bit_count(), g))
                assert asked == want, (c, m, below)


@pytest.mark.parametrize("field", [None, 2])
def test_the_faces_a_symbolic_walk_leaves_out_have_no_cohomology(field):
    """Every class on <= 5 vertices and m = 1..3: at each face G of the
    radical complex that the walk of I^(m) leaves out, some vertex v
    outside G lies in every facet through G, so x_v is in no generator of
    I_G and its box has no row.  Scanned in closed form and on the
    explicit generators of I_G alike, it has no cohomology in any index."""
    left_out = 0
    for c in distinct_complexes(5):
        for m in (1, 2, 3):
            power = SymbolicPower(c, m)
            if power.is_zero:
                continue
            walked = set(cohomology._faces_below(power, c.n + 1))
            for g in c.faces() - walked:
                local = power.contract(g)
                below = local.n + 1
                assert _scan(local, below, field, first_only=False) == [], (c, m, g)
                assert _scan(local.ideal(), below, field, first_only=False) == [], (c, m, g)
                left_out += 1
    assert left_out


def test_an_explicit_ideal_walks_every_face():
    """(x1^2, x1x2) on 2 variables has the radical (x1), whose complex has
    the one facet {2}, so at G = 0 the link is a cone with apex 2.  For
    I^(m) that would make x2 a free variable and the box empty, but an
    explicit ideal can have an embedded prime there: (x1, x2) is one of
    (x1^2, x1x2), so S/I has depth 0.  Its walk keeps every face, G = 0
    included."""
    ideal = MonomialIdeal.from_generators(2, [(2, 0), (1, 1)])
    assert ideal.radical_complex.facets == {0b10}
    assert cohomology._faces_below(ideal, 2) == [0b10, 0]
    assert is_cm(ideal) is False
    rep = depth_dim(ideal)
    assert (rep.depth, rep.dim, rep.is_cm) == (0, 1, False)
    assert rep.witnesses[0].index == 0


def test_cold_ordinary_cm_tests_equality_and_scans_nothing(monkeypatch):
    """With empty memo tables, CM of the uniform:8:3 ordinary cube is
    answered by the equality test alone: I^3 != I^(3)."""
    tested, scanned = [], []
    equals_symbolic = OrdinaryPower.equals_symbolic
    monkeypatch.setattr(OrdinaryPower, "equals_symbolic",
                        lambda self, *args: tested.append(self) or equals_symbolic(self, *args))
    monkeypatch.setattr(cohomology, "_scan", lambda *args, **kwargs: scanned.append(args))
    monkeypatch.setattr(cohomology, "_VANISHES", {})
    assert is_cm(OrdinaryPower.of(sr_ideal(uniform_matroid(8, 3)), 3)) is False
    assert len(tested) == 1 and not scanned


def test_memoized_box_entries_still_honour_the_deadline(monkeypatch):
    """With every box entry of a symbolic power memoized, CM and S2 asked
    past their deadline still raise: the deadline is checked before each
    box lookup, hit or miss."""
    monkeypatch.setattr(cohomology, "_VANISHES", {})
    for c in (uniform_matroid(5, 3), cycle(5), EX410):
        for m in (1, 3):
            sp = SymbolicPower.of(sr_ideal(c), m)
            want = is_cm(sp), is_s2(sp)
            for key in [key for key in cohomology._VANISHES if key[0] != "box"]:
                del cohomology._VANISHES[key]  # only the box entries stay
            entries = len(cohomology._VANISHES)
            for check in (is_cm, is_s2):
                with pytest.raises(OracleBudgetExceeded):
                    check(sp, deadline=time.monotonic() - 1)
            assert len(cohomology._VANISHES) == entries  # nothing was scanned
            assert (is_cm(sp), is_s2(sp)) == want


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
    monkeypatch.setattr(cohomology, "_VANISHES", {})
    peak = 0
    got = []
    for x in family:
        row = []
        for check in checks:
            row.append(check(x))
            size = len(cohomology._VANISHES)
            assert size <= 8, size
            peak = max(peak, size)
        got.append(row)
    assert got == want
    assert peak == 8  # the bound was reached, so entries were dropped


def _oracle_answers(field):
    """is_s2, is_cm and the full-mode witnesses of the Stanley-Reisner
    ideal and its symbolic square, over every class on <= 5 vertices."""
    out = []
    for c in distinct_complexes(5):
        for ideal in (sr_ideal(c), SymbolicPower.of(sr_ideal(c), 2)):
            if not isinstance(ideal, SymbolicPower) and (ideal.is_zero or ideal.is_unit):
                continue
            full = _scan(ideal, quotient_dimension(ideal), field, first_only=False)
            out.append((is_s2(ideal, field), is_cm(ideal, field), full))
    return out


@pytest.mark.parametrize("field", [None, 2])
def test_truncated_cohomology_gives_the_full_answers(field, monkeypatch):
    # the scan asks only for the indices up to below - 2; asking every
    # rank for all indices gives the same answers
    dims = cohomology._cohomology_dims_of_facets
    asked = []
    monkeypatch.setattr(cohomology, "_VANISHES", {})
    monkeypatch.setattr(cohomology, "_cohomology_dims_of_facets",
                        lambda facets, f, through: asked.append((facets, through)) or dims(facets, f, through))
    got = _oracle_answers(field)
    monkeypatch.setattr(cohomology, "_VANISHES", {})
    monkeypatch.setattr(cohomology, "_cohomology_dims_of_facets",
                        lambda facets, f, through: dims(facets, f, 1 << 10))
    assert got == _oracle_answers(field)
    # some rank was truncated: it gave fewer indices than the complex has
    assert any(len(dims(facets, field, through)) < len(dims(facets, field, 1 << 10)) for facets, through in asked)
