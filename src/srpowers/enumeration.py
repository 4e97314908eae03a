"""Enumeration and sampling of small complexes for property sweeps.

Complexes on at most n vertices are exactly the antichains of nonempty
subsets of {1..n}.  The enumerator walks them depth first over the
subset lattice; a cheap relabeling-invariant signature (vertex count,
facet size multiset, per-vertex incidence profiles) deduplicates the
stream, since every property checked by the sweeps is invariant under
vertex relabeling.  The dedup is not isomorphism-exact (ROADMAP item
2): signature collisions drop non-isomorphic test cases, so n = 5
yields 202 of its 208 classes and n = 6 yields 9 546 of 16 351.
"""

from __future__ import annotations

import random
from typing import Iterator

from .bits import antichain_maximal, compactify, mask_of
from .complexes import SimplicialComplex


def antichains(n: int) -> Iterator[tuple[int, ...]]:
    """All antichains of nonempty subsets of {1..n}, as mask tuples.

    The empty antichain and the empty-set facet are excluded; callers
    wanting the degenerate complexes handle them separately.
    """
    size = 1 << n
    comparable = [0] * size
    for s in range(size):
        bad = 0
        for t in range(size):
            if s & t == s or s & t == t:
                bad |= 1 << t
        comparable[s] = bad

    def rec(avail: int, chosen: tuple[int, ...]):
        if chosen:
            yield chosen
        while avail:
            low = avail & -avail
            avail ^= low
            s = low.bit_length() - 1
            yield from rec(avail & ~comparable[s], chosen + (s,))

    start = ((1 << size) - 1) & ~1  # all nonempty subsets
    yield from rec(start, ())


def signature(facets: tuple[int, ...]) -> tuple:
    """Relabeling-invariant fingerprint of a facet antichain."""
    union = 0
    for f in facets:
        union |= f
    sizes = sorted(f.bit_count() for f in facets)
    profiles = []
    u = union
    while u:
        b = u & -u
        u ^= b
        profiles.append(tuple(sorted(f.bit_count() for f in facets if f & b)))
    profiles.sort()
    return (union.bit_count(), tuple(sizes), tuple(profiles))


def compact_complex(facets: tuple[int, ...]) -> SimplicialComplex:
    """The complex relabeled onto 1..k where k counts covered vertices."""
    union = 0
    for f in facets:
        union |= f
    masks = compactify(facets, union)
    return SimplicialComplex(union.bit_count(), frozenset(masks))


def distinct_complexes(n: int, *, dim_min: int = -1, dim_max: int | None = None) -> Iterator[SimplicialComplex]:
    """One compactified representative per signature class over all
    antichains on at most n vertices."""
    seen: set[tuple] = set()
    for facets in antichains(n):
        top = max(f.bit_count() for f in facets) - 1
        if top < dim_min or (dim_max is not None and top > dim_max):
            continue
        sig = signature(facets)
        if sig in seen:
            continue
        seen.add(sig)
        yield compact_complex(facets)


def sample_complexes(
    n: int,
    count: int,
    seed: int,
    *,
    dim_min: int = 2,
    full_vertex_set: bool = True,
) -> list[SimplicialComplex]:
    """A fixed pseudorandom family of complexes, deduplicated by facet set.

    Deterministic for a given seed; used where exhaustive enumeration
    exceeds the budget.
    """
    rng = random.Random(seed)
    out: list[SimplicialComplex] = []
    seen: set[frozenset[int]] = set()
    sizes = [2, 3, 3, 3, 3, 4, 4, 5]
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        k = rng.randint(2, 7)
        gen_masks = []
        for _ in range(k):
            size = rng.choice(sizes)
            gen_masks.append(mask_of(v + 1 for v in rng.sample(range(n), min(size, n))))
        facets = antichain_maximal(gen_masks)
        top = max(f.bit_count() for f in facets) - 1
        if top < dim_min:
            continue
        c = compact_complex(tuple(sorted(facets)))
        if full_vertex_set and c.n < 3:
            continue
        if c.facets in seen:
            continue
        seen.add(c.facets)
        out.append(c)
    if len(out) < count:
        raise RuntimeError("sampling failed to reach the requested count")
    return out


def structured_positives(max_n: int = 8) -> list[SimplicialComplex]:
    """Hand-picked matroids, complete intersections and disjoint unions
    that exercise the "holds" side of the classification sweeps."""
    from .complexes import (
        complete_graph,
        cycle,
        disjoint_union,
        embed,
        join_shifted,
        simplex,
        uniform_matroid,
    )

    out = [
        uniform_matroid(4, 2),
        uniform_matroid(5, 2),
        uniform_matroid(5, 3),
        uniform_matroid(6, 2),
        uniform_matroid(6, 3),
        uniform_matroid(6, 4),
        simplex(4),
        simplex(5),
        # joins of edges: complete intersections of dimension >= 2
        join_shifted([complete_graph(2), complete_graph(2), complete_graph(2)]),
        join_shifted([simplex(2), complete_graph(3)]),
        join_shifted([complete_graph(3), complete_graph(3)]),
        # boundary of the tetrahedron joined with a segment
        join_shifted([uniform_matroid(4, 2), simplex(2)]),
        # disjoint unions with equal and unequal dimensions
        disjoint_union(embed(uniform_matroid(4, 2), 8), embed(uniform_matroid(4, 2), 8, 4)),
        disjoint_union(embed(simplex(4), 8), embed(simplex(4), 8, 4)),
        disjoint_union(embed(uniform_matroid(4, 2), 7), embed(simplex(3), 7, 4)),
        disjoint_union(embed(simplex(3), 6), embed(cycle(3), 6, 3)),
    ]
    return [c for c in out if c.n <= max_n]
