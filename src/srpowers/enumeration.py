"""Enumeration and sampling of small complexes for property sweeps.

``distinct_complexes(n)`` yields one complex per isomorphism class on
1..n vertices, built one vertex at a time (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998).  A complex on k+1 vertices
is D u v*L, where D, its deletion at v, is a complex on k vertices and
L, its link at v, is a nonvoid subcomplex of D.  So the children of one
D per class on k vertices, one per L, meet every class on k+1 vertices;
a child is kept the first time its exact ``canonical_key`` appears.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator

import numpy as np

from .bits import antichain_maximal, compactify, mask_of, submasks
from .complexes import SimplicialComplex

# A facet bitmap on k vertices has 2^k bits; k <= 6 fits one uint64.
MAX_KEY_VERTICES = 6


def antichains(masks: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """All antichains of a family of distinct masks, the empty one first."""
    masks = list(masks)
    comparable = [sum(1 << j for j, t in enumerate(masks) if s & t in (s, t)) for s in masks]

    def rec(avail: int, chosen: tuple[int, ...]):
        yield chosen
        while avail:
            low = avail & -avail
            avail ^= low
            i = low.bit_length() - 1
            yield from rec(avail & ~comparable[i], chosen + (masks[i],))

    yield from rec((1 << len(masks)) - 1, ())


def relabel_table(k: int) -> np.ndarray:
    """The uint64 table of 1 << pi(F), one row per face mask F on 1..k
    and one column per relabeling pi, that ``canonical_key`` reads."""
    if k > MAX_KEY_VERTICES:
        raise ValueError(f"canonical keys are limited to {MAX_KEY_VERTICES} vertices")
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.uint64)
    bits = np.arange(1 << k, dtype=np.uint64)[:, None] >> np.arange(k, dtype=np.uint64) & np.uint64(1)
    return np.uint64(1) << (bits @ (np.uint64(1) << perms).T)


def canonical_key(facets: Iterable[int], table: np.ndarray) -> int:
    """The least facet bitmap OR(1 << pi(F)) over the relabelings pi of
    ``table``.  For facets on the table's k vertices, equal keys mean
    isomorphic complexes."""
    return int(np.bitwise_or.reduce(table[list(facets)], axis=0).min())


def compact_complex(facets: tuple[int, ...]) -> SimplicialComplex:
    """The complex relabeled onto 1..k where k counts covered vertices."""
    union = 0
    for f in facets:
        union |= f
    masks = compactify(facets, union)
    return SimplicialComplex(union.bit_count(), frozenset(masks))


def distinct_complexes(n: int, *, dim_min: int = -1, dim_max: int | None = None) -> Iterator[SimplicialComplex]:
    """One representative per isomorphism class of complexes on 1..n
    vertices with dimension in [dim_min, dim_max], by vertex count, each
    yielded as soon as it is found."""
    tables = [relabel_table(k + 1) for k in range(n)]  # refuses n > MAX_KEY_VERTICES up front
    top = n if dim_max is None else dim_max
    level: list[tuple[int, ...]] = [(0,)]  # {empty face} on no vertices
    for k, table in enumerate(tables):
        v = 1 << k
        seen: set[int] = set()
        children = []
        for facets in level:
            # a child has dimension max(dim D, max |F| over F in L)
            faces = sorted({s for f in facets for s in submasks(f) if s.bit_count() <= top})
            for link in itertools.islice(antichains(faces), 1, None):
                child = tuple(f for f in facets if f not in link) + tuple(f | v for f in link)
                key = canonical_key(child, table)
                if key in seen:
                    continue
                seen.add(key)
                if k + 1 < n:
                    children.append(child)
                if max(f.bit_count() for f in child) > dim_min:
                    yield SimplicialComplex(k + 1, frozenset(child))
        level = children


def sample_complexes(n: int, count: int, seed: int, *, dim_min: int = 2,
                     dim_max: int | None = None) -> list[SimplicialComplex]:
    """A fixed pseudorandom family of complexes on 3..n vertices with
    dimension in [dim_min, dim_max], deduplicated by facet set.

    Deterministic for a given seed; used where exhaustive enumeration
    exceeds the budget.  Each drawn facet size is clamped to dim_max + 1,
    so low dimensions are reachable.  Raises ``ValueError`` when the
    draws do not reach ``count`` complexes.
    """
    rng = random.Random(seed)
    out: list[SimplicialComplex] = []
    seen: set[frozenset[int]] = set()
    sizes = [2, 3, 3, 3, 3, 4, 4, 5]
    # the clamp makes the same rng calls, so dim_max >= 4 changes no draw
    cap = max(sizes) if dim_max is None else max(dim_max + 1, 0)
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        k = rng.randint(2, 7)
        gen_masks = []
        for _ in range(k):
            size = min(rng.choice(sizes), cap)
            gen_masks.append(mask_of(v + 1 for v in rng.sample(range(n), min(size, n))))
        facets = antichain_maximal(gen_masks)
        top = max(f.bit_count() for f in facets) - 1
        if top < dim_min or (dim_max is not None and top > dim_max):
            continue
        c = compact_complex(tuple(sorted(facets)))
        if c.n < 3 or c.facets in seen:
            continue
        seen.add(c.facets)
        out.append(c)
    if len(out) < count:
        raise ValueError(f"sampling reached {len(out)} of the {count} complexes asked for")
    return out


def structured_positives() -> list[SimplicialComplex]:
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

    return [
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
