"""Bitmask utilities for faces of simplicial complexes.

Vertices are labeled 1..n; a face is an int whose bit i-1 is set when
vertex i belongs to the face.  Every set operation in the package is a
mask operation, so the 2^n enumeration loops stay cheap.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import Iterable, Iterator

_BOX_LIMIT = 1 << 22  # points of a degree box, or submasks of a search, at desk scale


class DeskScaleExceeded(ValueError):
    """Input past desk scale: too large a box or too large an exponent.

    The input is valid, so this is no usage error; nor is it a spent time
    budget, since a resumed run would meet the same box again."""


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


def bits_at(indices: Iterable[int], size: int) -> int:
    """The int with the bits at ``indices`` set, all below ``size``."""
    buf = bytearray((size + 7) >> 3)
    for j in indices:
        buf[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(buf, "little")


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
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m & k == m for k in kept):
            kept.append(m)
    return frozenset(kept)


def antichain_minimal(masks: Iterable[int]) -> frozenset[int]:
    """Inclusion-minimal elements of a family of masks."""
    kept: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if not any(m & k == k for k in kept):
            kept.append(m)
    return frozenset(kept)


def _down(mask: int) -> int:
    """Bit t set for each submask t of ``mask``: ``out |= out << low`` per bit."""
    out = 1
    for low in iter_bits(mask):
        out |= out << low
    return out


def minimal_transversals(masks: Iterable[int], ground: int) -> list[int]:
    """Inclusion-minimal T <= ground meeting every mask, by (size, mask).

    One bitset over the subsets of the union, its k vertices compacted to
    bits 0..k-1: the sets missing some mask are the OR of the ``_down`` of
    the complements, and a transversal t is minimal when each t - v misses
    one, a shifted AND per vertex v.  Refused past ``_BOX_LIMIT`` subsets
    before any bitset is built.
    """
    fam = {m & ground for m in masks}
    if 0 in fam:
        return []
    union = reduce(or_, fam, 0)
    k = union.bit_count()
    if 1 << k > _BOX_LIMIT:
        raise DeskScaleExceeded(f"a minimal transversal search over {1 << k} submasks "
                                f"is over the desk-scale limit of {_BOX_LIMIT}")
    full = (1 << k) - 1
    missing = 0
    for m in fam if union == full else compactify(fam, union):
        missing |= _down(full ^ m)
    minimal = (1 << (1 << k)) - 1 ^ missing
    for low in iter_bits(full):
        minimal &= missing << low | _down(full ^ low)
    places, out = list(iter_bits(union)), []
    for t in iter_bits(minimal):  # in increasing order, which relabelling keeps
        rest, s = t.bit_length() - 1, 0  # its set bits, each mapped to its vertex
        while rest:
            low = rest & -rest
            rest ^= low
            s |= places[low.bit_length() - 1]
        out.append(s)
    return sorted(out, key=int.bit_count)


def exchange_pair(faces: frozenset[int]) -> tuple[int, int] | None:
    """A pair (G, F) of a downward-closed set of masks that fails the
    independence exchange axiom, or None when the set satisfies it.

    Checking F one larger than G suffices: a bigger F can be shrunk to
    |G|+1 inside the set.  The vertices x with G + x in the set form one
    mask per G, found by probing the vertices outside G; a pair fails
    when F misses it.  The pair is the first failing one in (size, mask)
    order, so a failure at a small size is found without the larger ones.
    """
    by_size: dict[int, list[int]] = {}
    for f in sorted(faces):
        by_size.setdefault(f.bit_count(), []).append(f)
    vertices = sum(by_size.get(1, ()))
    for k in sorted(by_size):
        bigger = by_size.get(k + 1)
        if not bigger:
            continue
        for g in by_size[k]:
            ext, rest = 0, vertices & ~g
            while rest:
                b = rest & -rest
                rest ^= b
                if g | b in faces:
                    ext |= b
            for f in bigger:
                if not f & ext:
                    return g, f
    return None


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
