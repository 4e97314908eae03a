import hashlib
import itertools
import random
import time

import pytest

from srpowers import enumeration
from srpowers.bits import bits_at
from srpowers.cohomology import OracleBudgetExceeded, is_cm
from srpowers.complexes import from_facets
from srpowers.enumeration import (
    MAX_KEY_VERTICES,
    _bitmaps,
    _shape,
    _top_cell,
    antichains,
    canonical_key,
    compact_complex,
    distinct_complexes,
    sample_complexes,
    structured_positives,
)
from srpowers.ideals import symbolic_power
from srpowers.matroids import graph_matroid_criterion, is_matroid_exchange
from srpowers.sweeps import complex_signature, run_sweep


def _antichains(masks):
    """The antichains of ``masks`` without their totals."""
    return [chosen for chosen, _ in antichains(masks, [0] * len(masks), 0)]


def test_antichain_counts_match_the_free_distributive_lattice():
    # number of nonempty antichains of nonempty subsets of an n-set
    expected = {1: 1, 2: 4, 3: 18, 4: 166}
    for n, count in expected.items():
        walk = _antichains(range(1, 1 << n))
        assert walk[0] == ()
        assert len(walk) - 1 == count


def test_antichains_are_antichains():
    for fa in _antichains(range(1, 16)):
        for a, b in itertools.permutations(fa, 2):
            assert a & b != a  # no containment


def test_antichains_carry_the_sum_of_their_weights():
    masks = range(1, 16)
    weights = [3 ** i for i in range(len(masks))]  # a distinct sum per antichain
    base = 1 << 40
    walked = list(antichains(masks, weights, base))
    assert len(walked) == 167
    for chosen, total in walked:
        assert total == base + sum(weights[m - 1] for m in chosen), chosen


@pytest.fixture(scope="module")
def six_vertex_walk():
    """Every class on 1..6 vertices from one unwindowed walk."""
    return list(distinct_complexes(6))


def test_class_counts_match_the_isomorphism_classes(six_vertex_walk):
    # OEIS A003182 (2, 3, 5, 10, 30, 210, 16353) less the void complex
    # and {empty set}
    expected = {1: 1, 2: 3, 3: 8, 4: 28, 5: 208}
    for n, count in expected.items():
        assert sum(1 for _ in distinct_complexes(n)) == count
    assert len(six_vertex_walk) == 16351


def test_six_vertex_walk_is_pinned(six_vertex_walk):
    # the augmentation rule picks the representatives and their order, and
    # resume tokens count classes of that order: a change must be deliberate
    text = ";".join(f"{c.n}:{sorted(c.facets)}" for c in six_vertex_walk)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "496bea5697359d84"


def _keys(classes):
    """The (dimension, vertex count, canonical key) of each class, sorted."""
    return sorted((c.dimension(), c.n, canonical_key(c.facets, c.n)) for c in classes)


def test_dimension_windows_lose_no_class(six_vertex_walk):
    # a window prunes the walk, whose children are kept only when the new
    # vertex is in their top cell; it must still meet every class it asks for
    every = _keys(six_vertex_walk)
    for d in range(6):
        window = _keys(distinct_complexes(6, dim_min=d - 1, dim_max=d))
        assert window == [key for key in every if d - 1 <= key[0] <= d], d
    every = _keys(distinct_complexes(5))
    for lo in range(-1, 5):
        for hi in [*range(-1, 5), None]:
            window = _keys(distinct_complexes(5, dim_min=lo, dim_max=hi))
            assert window == [key for key in every if lo <= key[0] and (hi is None or key[0] <= hi)], (lo, hi)


def _relabeled(facets, perm):
    return tuple(sum(1 << perm[i] for i in range(len(perm)) if f >> i & 1) for f in facets)


def test_canonical_key_separates_exactly_the_isomorphism_classes():
    # every labelled complex on at most 4 vertices, against the least
    # sorted facet tuple over all relabelings
    perms = list(itertools.permutations(range(4)))
    keys, reps = [], []
    for facets in _antichains(range(16)):
        keys.append(canonical_key(facets, 4))
        reps.append(min(tuple(sorted(_relabeled(facets, p))) for p in perms))
    assert len(keys) == 168
    assert len(set(keys)) == len(set(reps)) == len(set(zip(keys, reps)))


def test_canonical_key_is_relabeling_invariant():
    rng = random.Random(13)
    for c in distinct_complexes(5):
        facets = tuple(c.facets)
        key = canonical_key(facets, 5)
        for _ in range(5):
            perm = rng.sample(range(5), 5)
            assert canonical_key(_relabeled(facets, perm), 5) == key


def test_canonical_key_refuses_masks_off_the_vertices():
    for facets in ([-1], [-8], [0b1000], [0b011, -1]):
        with pytest.raises(ValueError):
            canonical_key(facets, 3)


def test_canonical_key_refuses_repeated_facets():
    for facets in ([7, 7], [0b011, 0b101, 0b011], [0, 0]):
        with pytest.raises(ValueError):
            canonical_key(facets, 3)


def _reference_bitmaps(ties):
    """``_bitmaps`` built permutation by permutation: one image table per
    permutation within the cells, then one ``bits_at`` per place mask."""
    cells, start = [], 0
    for i, tie in enumerate(ties + (False,)):
        if not tie:
            cells.append(itertools.permutations(range(start, i + 1)))
            start = i + 1
    images = []
    for perm in itertools.product(*cells):
        image = [0]
        for p in itertools.chain.from_iterable(perm):
            image += [t | 1 << p for t in image]
        images.append(image)
    lane = max(1 << len(ties) + 1 >> 3, 1)
    size = lane * len(images)
    table = [bits_at((t + 8 * lane * j for j, t in enumerate(column)), 8 * size) for column in zip(*images)]
    return table, size, {1: "B", 2: "H", 4: "I", 8: "Q"}[lane]


def test_bitmap_tables_match_the_per_permutation_construction():
    patterns = [ties for k in range(6) for ties in itertools.product((False, True), repeat=k)]
    assert len(patterns) == 63  # every run of ties on 1..6 vertices
    for ties in patterns:
        assert _bitmaps.__wrapped__(ties) == _reference_bitmaps(ties), ties


def _lanes(total, k):
    """The k 64-bit lanes of a lane sum, lowest first."""
    return [total >> 64 * i & (1 << 64) - 1 for i in range(k)]


def _packed_top(total, k):
    """The walk's test that lane k of a lane sum on k + 1 lanes is its largest."""
    ones, guard, low = _top_cell(k)
    return ((total >> 64 * k) * ones | guard) - (total & low) & guard == guard


def test_packed_top_cell_test_keys_exactly_the_top_cell_children(monkeypatch):
    # every candidate of the walk to 5 vertices reaches the exact key, with
    # its lanes sorted, exactly when its new vertex's lane is the largest
    totals, keyed = [], []
    walk_antichains, walk_key = enumeration.antichains, enumeration._key

    def recorded_antichains(masks, weights, base):
        for link, total in walk_antichains(masks, weights, base):
            if link:  # the walk skips the empty antichain
                totals.append(total)
            yield link, total

    def recorded_key(facets, ranked):
        keyed.append(ranked)
        return walk_key(facets, ranked)

    monkeypatch.setattr(enumeration, "antichains", recorded_antichains)
    monkeypatch.setattr(enumeration, "_key", recorded_key)
    assert sum(1 for _ in distinct_complexes(5)) == 208
    expected = []
    for total in totals:
        k = (total.bit_length() - 1) // 64  # the new vertex's lane is the top one
        lanes = _lanes(total, k + 1)
        assert _packed_top(total, k) == (lanes[k] == max(lanes))
        if lanes[k] == max(lanes):
            expected.append(sorted(lanes))
    assert keyed == expected


def test_packed_top_cell_test_matches_the_largest_lane():
    # lanes as the walk builds them: the vertex in the low 3 bits and a
    # 6-bit count per facet size 1..k + 1, here often equal to lane k's
    # counts (a tie broken by the vertex) or at the field limit 63
    rng = random.Random(34)
    for k in range(MAX_KEY_VERTICES):
        for _ in range(1500):
            counts = [[rng.choice((0, 1, 62, 63, rng.randrange(64))) for _ in range(k + 1)] for _ in range(k + 1)]
            for i in range(k):
                if rng.random() < 0.3:
                    counts[i] = counts[k]
            lanes = [v + sum(c << 9 + 6 * s for s, c in enumerate(row)) for v, row in enumerate(counts)]
            total = sum(lane << 64 * v for v, lane in enumerate(lanes))
            assert _packed_top(total, k) == (lanes[k] == max(lanes)), (k, lanes)


def _places(order):
    """Per face mask F, the mask of the places i of its vertices order[i]."""
    return [sum(1 << i for i, v in enumerate(order) if f >> v & 1) for f in range(1 << len(order))]


def test_shape_tables_read_the_bitmaps_at_the_places(monkeypatch):
    # each shape (vertex order, ties) met by the full walk, built afresh
    shapes = set()

    def recorded_shape(order, ties):
        shapes.add((order, ties))
        return _shape(order, ties)

    monkeypatch.setattr(enumeration, "_shape", recorded_shape)
    assert sum(1 for _ in distinct_complexes(6)) == 16351
    assert len(shapes) == 1194 <= _shape.cache_info().maxsize  # the walk never evicts
    for order, ties in shapes:
        bitmap, size, code = _bitmaps(ties)
        assert _shape.__wrapped__(order, ties) == ([bitmap[p] for p in _places(order)], size, code)


def test_distinct_complexes_refuses_seven_vertices():
    with pytest.raises(ValueError):
        next(distinct_complexes(7))


def test_compact_complex_covers_all_vertices():
    c = compact_complex((0b10100, 0b11000))
    assert c.n == 3 and c.vertex_set() == {1, 2, 3}


def test_distinct_complexes_dim_filter():
    for c in distinct_complexes(4, dim_min=2):
        assert c.dimension() >= 2
    # pruning by dim_max loses no class
    every = [c for c in distinct_complexes(5) if 1 <= c.dimension() <= 2]
    window = list(distinct_complexes(5, dim_min=1, dim_max=2))
    assert all(1 <= c.dimension() <= 2 for c in window)
    assert len(window) == len(every)


def test_sample_is_deterministic_and_deduplicated():
    a = sample_complexes(6, 50, 123)
    b = sample_complexes(6, 50, 123)
    assert [c.facets for c in a] == [c.facets for c in b]
    assert len({c.facets for c in a}) == 50
    assert all(c.dimension() >= 2 for c in a)
    low = sample_complexes(6, 50, 123, dim_min=1, dim_max=2)
    assert all(1 <= c.dimension() <= 2 for c in low)
    flat = sample_complexes(5, 20, 1, dim_min=0, dim_max=1)
    assert all(c.dimension() <= 1 for c in flat)


def test_sample_draws_are_pinned():
    # clamping facet sizes to dim_max + 1 changes no draw at dim_max >= 4,
    # so the sampled sweep families stay as they were
    pinned = {1: "44640f29644d0a2d", 2: "bd0cc094bd59b72b", 3: "9994b554840562d8",
              20120229: "40dd56ade5687788"}
    for seed, digest in pinned.items():
        for dim_max in (None, 4):
            fam = sample_complexes(6, 500, seed, dim_min=2, dim_max=dim_max)
            text = ";".join(f"{c.n}:{sorted(c.facets)}" for c in fam)
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (seed, dim_max)


def test_structured_positives_hit_both_sides():
    fam = structured_positives()
    assert any(is_matroid_exchange(c) for c in fam if not c.is_empty_complex)
    assert any(
        not is_matroid_exchange(c) for c in fam if not c.is_empty_complex
    )


def test_graph_criterion_on_six_and_seven_vertices():
    # exhaustive on 6 vertices, sampled on 7
    pairs6 = list(itertools.combinations(range(1, 7), 2))
    seen = set()
    for bits in range(1, 1 << len(pairs6)):
        edges = [p for i, p in enumerate(pairs6) if bits >> i & 1]
        if len({v for e in edges for v in e}) < 6:
            continue
        c = from_facets(6, edges)
        key = canonical_key(c.facets, 6)
        if key in seen:
            continue
        seen.add(key)
        assert graph_matroid_criterion(c) == is_matroid_exchange(c)
    assert len(seen) == 122  # OEIS A002494: graphs without isolated vertices

    rng = random.Random(77)
    pairs7 = list(itertools.combinations(range(1, 8), 2))
    for _ in range(3000):
        edges = rng.sample(pairs7, rng.randint(7, len(pairs7)))
        if len({v for e in edges for v in e}) < 7:
            continue
        c = from_facets(7, edges)
        assert graph_matroid_criterion(c) == is_matroid_exchange(c)


def test_oracle_budget_exceeded_raises():
    c = compact_complex(tuple(sorted(from_facets(6, [(1, 2, 3), (2, 3, 4), (4, 5, 6), (1, 5, 6)]).facets)))
    ideal = symbolic_power(c, 3)
    with pytest.raises(OracleBudgetExceeded):
        is_cm(ideal, deadline=time.monotonic() - 1)


def test_sweep_rows_are_deterministic():
    r1 = run_sweep(["matroid-pair-criterion"], n_max=4)
    r2 = run_sweep(["matroid-pair-criterion"], n_max=4, parallel=2)
    strip = lambda rows: [(r.signature, r.check_id, r.theorem_verdict, r.oracle_verdict) for r in rows]
    assert strip(r1.rows) == strip(r2.rows)
    assert r1.disagreements == 0


def test_complex_signature_format():
    c = from_facets(4, [(1, 2), (3, 4)])
    assert complex_signature(c) == "n4:12+34"
