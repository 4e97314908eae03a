"""Bitmask utilities for faces of simplicial complexes.

Vertices are labeled 1..n; a face is an int whose bit i-1 is set when
vertex i belongs to the face.  Every set operation in the package is a
mask operation, so the 2^n enumeration loops stay cheap.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(vertices: Iterable[int], n: int | None = None) -> int:
    """Bitmask of a vertex set; validates labels against 1..n when given."""
    m = 0
    for v in vertices:
        if type(v) is bool or not isinstance(v, int) or v < 1 or (n is not None and v > n):
            raise ValueError(f"vertex label {v!r} is not an integer in 1..{n}")
        m |= 1 << (v - 1)
    return m


def support(vector: Iterable) -> int:
    """Mask of the positions where the vector is nonzero (or true)."""
    m = 0
    for i, x in enumerate(vector):
        if x:
            m |= 1 << i
    return m


def indicator(mask: int, n: int) -> tuple[int, ...]:
    """The 0/1 vector of length n with ones at the positions of ``mask``."""
    return tuple(mask >> i & 1 for i in range(n))


def vertices_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based vertex labels of a mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the single-bit submasks of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` including 0 and the mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def antichain_maximal(masks: Iterable[int]) -> frozenset[int]:
    """Inclusion-maximal elements of a family of masks."""
    ordered = sorted(set(masks), key=lambda m: -m.bit_count())
    kept: list[int] = []
    for m in ordered:
        if not any(m & k == m for k in kept):
            kept.append(m)
    return frozenset(kept)


def antichain_minimal(masks: Iterable[int]) -> frozenset[int]:
    """Inclusion-minimal elements of a family of masks."""
    ordered = sorted(set(masks), key=lambda m: m.bit_count())
    kept: list[int] = []
    for m in ordered:
        if not any(m & k == k for k in kept):
            kept.append(m)
    return frozenset(kept)


def minimal_transversals(masks: Iterable[int], ground: int) -> list[int]:
    """Inclusion-minimal T <= ground meeting every mask of the family.

    Brute force over submasks of the union, by increasing cardinality.
    Intended for desk-scale ground sets (|ground| <= ~20).
    """
    fam = [m & ground for m in masks]
    if any(m == 0 for m in fam):
        return []
    union = 0
    for m in fam:
        union |= m
    subs = sorted(submasks(union), key=lambda s: s.bit_count())
    out: list[int] = []
    for t in subs:
        if any(t & m == 0 for m in fam):
            continue
        if any(k & t == k for k in out):
            continue
        out.append(t)
    return sorted(out, key=lambda s: (s.bit_count(), s))


def compactify(masks: Iterable[int], support: int) -> tuple[int, ...]:
    """Relabel masks on an arbitrary support to bits 0..k-1, order preserved."""
    positions = [v - 1 for v in vertices_of(support)]
    out = []
    for m in masks:
        c = 0
        for new, old in enumerate(positions):
            if m >> old & 1:
                c |= 1 << new
        out.append(c)
    return tuple(out)
