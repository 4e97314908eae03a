import itertools
import random
from fractions import Fraction

import pytest

from srpowers.linalg import check_field, rank, rank_f2

FIELDS = [None, 2, 3, 7]


def reference_rank(rows, field):
    """Gauss-Jordan elimination on Fractions (over Q) or residues mod p."""
    m = [[Fraction(e) if field is None else e % field for e in r] for r in rows]
    found = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(found, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[found], m[pivot] = m[pivot], m[found]
        inv = 1 / m[found][col] if field is None else pow(m[found][col], -1, field)
        for i in range(len(m)):
            if i != found and m[i][col]:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[found])]
                if field is not None:
                    m[i] = [a % field for a in m[i]]
        found += 1
    return found


def _sparse(rows):
    """Dense rows as the dict rows {column: entry} that ``rank`` takes."""
    return [{j: e for j, e in enumerate(r) if e} for r in rows]


def _random_matrix(rng, values):
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
    density = rng.choice([0.3, 0.6, 1.0])
    return [[rng.choice(values) if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)]


@pytest.mark.parametrize("field", FIELDS)
def test_rank_matches_reference_on_random_matrices(field):
    rng = random.Random(field or 0)
    for _ in range(400):
        m = _random_matrix(rng, range(-3, 4))
        assert rank(_sparse(m), field) == reference_rank(m, field), m
    # every 2x2 matrix with entries in -2..2: every pivot order over Q (a
    # unit pivot then a Fraction one, a Fraction pivot first, cancelling rows)
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4):
        m = [[a, b], [c, d]]
        assert rank(_sparse(m), field) == reference_rank(m, field), m


@pytest.mark.parametrize("field", FIELDS)
def test_rank_matches_reference_without_unit_entries(field):
    # no entry +-1: over Q the first pivot has a Fraction inverse
    rng = random.Random(100 + (field or 0))
    for _ in range(400):
        m = _random_matrix(rng, [-3, -2, 2, 3])
        assert rank(_sparse(m), field) == reference_rank(m, field), m


@pytest.mark.parametrize("field", FIELDS)
def test_rank_edge_shapes(field):
    assert rank([], field) == 0
    assert rank([{}], field) == 0
    assert rank([{0: 0}], field) == 0
    assert rank(_sparse([[0, 0, 0], [0, 0, 0]]), field) == 0
    for m in ([[0, 2, -1, 3]], [[0], [3], [-2]], [[3, 2, 0]], [[2], [-1]], [[1, 1], [1, 1]]):
        assert rank(_sparse(m), field) == reference_rank(m, field), m


def _packed(rows):
    """0/1 rows as ints, bit j the entry in column j."""
    return [sum(e << j for j, e in enumerate(r)) for r in rows]


def test_rank_f2_matches_reference_on_random_matrices():
    rng = random.Random(2)
    for _ in range(400):
        m = _random_matrix(rng, [1])
        assert rank_f2(_packed(m)) == reference_rank(m, 2), m
        twice = m + m[: rng.randint(0, len(m))]  # duplicate rows add nothing
        assert rank_f2(_packed(twice)) == reference_rank(m, 2), twice


def test_rank_f2_edge_shapes():
    assert rank_f2([]) == 0
    assert rank_f2([0, 0, 0]) == 0
    assert rank_f2([0b101, 0, 0b101, 0b101]) == 1
    assert rank_f2([0b11, 0b110, 0b101]) == 2  # the third is the sum of the others
    assert rank_f2([1 << 70, 1 << 70 | 1, 1]) == 2  # wider than a machine word


def test_rank_reduces_mod_p_and_needs_a_prime():
    assert rank([{0: 2}, {1: 2}], 2) == 0
    assert rank([{0: 2}, {1: 2}]) == 2
    assert rank([{0: 3, 2: 6}], 3) == 0
    assert rank([{5: 2}]) == 1  # a Fraction pivot on a non-unit entry
    assert [check_field(p) for p in (None, 2, 3, 7)] == [None, 2, 3, 7]
    for bad in (4, 1, 0, -3, 2.0):
        with pytest.raises(ValueError, match="is not prime"):
            check_field(bad)
        with pytest.raises(ValueError):
            rank([{0: 1}], bad)
