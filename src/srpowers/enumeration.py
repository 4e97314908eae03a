"""Enumeration and sampling of small complexes for property sweeps.

``distinct_complexes(n)`` yields one complex per isomorphism class on
1..n vertices, built one vertex at a time by canonical augmentation
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).  A
complex C on k+1 vertices is D u v*L: D, its deletion at v, is on k
vertices and L, its link at v, is a nonvoid subcomplex of D.  A child is
kept when v is in its top cell, the vertices with the largest lane (the
count of facets of each size through the vertex), and its exact
``canonical_key``, read off the same lanes, is new.  No class is lost:
for u in the top cell of C, the representative of C - u has a link
whose child is C with v mapped to u.  The rule picks the
representatives and their order.
"""

from __future__ import annotations

import itertools
import random
import sys
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .bits import antichain_maximal, bits_at, compactify, mask_of, submasks
from .complexes import SimplicialComplex

# A key holds a vertex in 3 bits and a facet bitmap on k vertices, 2^k
# bits, in one 64-bit lane.  Past 6 vertices the classes are out of reach
# anyway (OEIS A003182: 16 353 complexes on 6 vertices, 490 013 148 on 7).
MAX_KEY_VERTICES = 6


def antichains(masks: Sequence[int], weights: Sequence[int], base: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All antichains of a family of distinct masks, the empty one first,
    each with base plus the weights of its masks, carried one addition per
    chosen mask; each lists its masks in decreasing order of their places
    in the family."""
    comparable = [sum(1 << j for j, t in enumerate(masks) if s & t in (s, t)) for s in masks]
    stack = [((1 << len(masks)) - 1, (), base)]  # (places still free, chosen masks, total)
    while stack:
        avail, chosen, total = stack.pop()
        yield chosen, total
        while avail:
            i = avail.bit_length() - 1
            avail ^= 1 << i
            stack.append((avail & ~comparable[i], chosen + (masks[i],), total + weights[i]))


def canonical_key(facets: Iterable[int], k: int) -> int:
    """The least facet bitmap OR(1 << pi(F)) over the relabelings pi of
    1..k that list the vertices in the order of an invariant, the count of
    facets of each size through the vertex: equal keys mean isomorphic
    complexes on k <= ``MAX_KEY_VERTICES`` vertices.  So pi is fixed up to
    the permutations within ties (vertex refinement after McKay-Piperno,
    "Practical graph isomorphism, II", J. Symbolic Comput. 2014).  The
    invariants are 64-bit lanes of one int, each over its vertex in the
    low 3 bits."""
    if k > MAX_KEY_VERTICES:
        raise ValueError(f"canonical keys are limited to {MAX_KEY_VERTICES} vertices")
    facets = tuple(facets)
    if len(set(facets)) < len(facets) or any(not 0 <= f < 1 << k for f in facets):
        raise ValueError(f"facets must be distinct masks on {k} vertices: {facets}")
    spread, base = _invariants(k)
    lanes = sum(map(spread.__getitem__, facets), base).to_bytes(8 * k, sys.byteorder)
    return _key(facets, sorted(memoryview(lanes).cast("Q")))


def _key(facets: tuple[int, ...], ranked: list[int]) -> int:
    """``canonical_key`` from the lanes in increasing order: the bitmaps of
    all the pi are lanes of one int, summed off the table of the lanes'
    shape (their vertex order and ties)."""
    ties = tuple(map((8).__gt__, map(int.__xor__, ranked, ranked[1:])))
    table, size, code = _shape(tuple(map((7).__and__, ranked)), ties)
    return min(memoryview(sum(map(table.__getitem__, facets)).to_bytes(size, sys.byteorder)).cast(code))


@lru_cache(maxsize=1 << 12)  # the walk to 6 vertices meets 1 194 shapes
def _shape(order: tuple[int, ...], ties: tuple[bool, ...]) -> tuple[list[int], int, str]:
    """Per face mask F, the ``_bitmaps(ties)`` entry of the mask of the places
    i of its vertices order[i] (built by doubling); its size and format."""
    bitmap, size, code = _bitmaps(ties)
    places = [0]
    for i in sorted(range(len(order)), key=order.__getitem__):
        places += [*map((1 << i).__or__, places)]
    return list(map(bitmap.__getitem__, places)), size, code


@lru_cache(maxsize=MAX_KEY_VERTICES + 1)
def _invariants(k: int) -> tuple[list[int], int]:
    """Per face mask F on k vertices, 1 << 3 + 6 * |F| in the lane of each
    vertex of F (counts below 64: a vertex lies in at most 32 distinct
    masks); the lanes' vertices."""
    spread = [sum(1 << 64 * v + 3 + 6 * f.bit_count() for v in range(k) if f >> v & 1) for f in range(1 << k)]
    return spread, sum(v << 64 * v for v in range(k))


@lru_cache(maxsize=64)  # every run of ties on at most 6 vertices
def _bitmaps(ties: tuple[bool, ...]) -> tuple[list[int], int, str]:
    """Per place mask F, 1 << pi(F) in lane j for the j-th permutation pi
    within the cells, the runs of places i, i + 1 with ``ties[i]``; the
    size in bytes and the format of one lane.  Built by doubling over the
    places: for i not in F, pi(F + i) = pi(F) + 2^pi(i), so the lanes of
    F + i are those of F, each shifted by 2^p where p = pi_j(i), one shift
    per p over the mask of its whole lanes."""
    cells, start = [], 0
    for i, tie in enumerate(ties + (False,)):
        if not tie:
            cells.append(itertools.permutations(range(start, i + 1)))
            start = i + 1
    perms = [tuple(itertools.chain.from_iterable(perm)) for perm in itertools.product(*cells)]
    lane = max(1 << len(ties) + 1 >> 3, 1)  # bytes for a bitmap of 2^k bits
    size, width = lane * len(perms), 8 * lane
    table = [bits_at(range(0, 8 * size, width), 8 * size)]  # pi(empty) = empty in every lane
    for column in zip(*perms):  # the images pi_j(i) of one place i
        starts: dict[int, list[int]] = {}
        for j, p in enumerate(column):
            starts.setdefault(p, []).append(width * j)
        shifts = [(bits_at(lanes, 8 * size) * ((1 << width) - 1), 1 << p) for p, lanes in starts.items()]
        table += [sum((t & whole) << by for whole, by in shifts) for t in table]
    return table, size, {1: "B", 2: "H", 4: "I", 8: "Q"}[lane]


def _top_cell(k: int) -> tuple[int, int, int]:
    """(ones, guard, low): lane k of a lane sum t is its largest when
    ``((t >> 64k) * ones | guard) - (t & low) & guard == guard``, lane k
    copied below, bit 63 set in each lane, less the k lanes of t below k
    (no lane borrows: a lane has 3 + 6 * 7 bits)."""
    ones = bits_at(range(0, 64 * k, 64), 64 * k)
    return ones, ones << 63, (1 << 64 * k) - 1


def compact_complex(facets: tuple[int, ...]) -> SimplicialComplex:
    """The complex relabeled onto 1..k where k counts covered vertices."""
    union = reduce(or_, facets, 0)
    return SimplicialComplex(union.bit_count(), frozenset(compactify(facets, union)))


def distinct_complexes(n: int, *, dim_min: int = -1, dim_max: int | None = None) -> Iterator[SimplicialComplex]:
    """One representative per isomorphism class of complexes on 1..n
    vertices with dimension in [dim_min, dim_max], by vertex count, each
    yielded as soon as it is found.  The top-cell test reads the carried
    lane sum of a candidate as one int (``_top_cell``); only the children
    that pass are unpacked, sorted and keyed."""
    if n > MAX_KEY_VERTICES:
        raise ValueError(f"canonical keys are limited to {MAX_KEY_VERTICES} vertices")
    top = n if dim_max is None else dim_max
    level: list[tuple[int, ...]] = [(0,)]  # {empty face} on no vertices
    for k in range(n):
        v, shift = 1 << k, 64 * k
        spread, base = _invariants(k + 1)
        ones, guard, low = _top_cell(k)
        seen: set[int] = set()
        children = []
        for facets in level:
            # a child has dimension max(dim D, max |F| over F in L)
            faces = sorted({s for f in facets for s in submasks(f) if s.bit_count() <= top})
            # the lanes of D + v*L: those of D, plus F + v less F (if a facet of D) per F in L
            lanes_of_d = sum(map(spread.__getitem__, facets), base)
            gain = [spread[f | v] - spread[f] * (f in facets) for f in faces]
            for link, total in itertools.islice(antichains(faces, gain, lanes_of_d), 1, None):
                if ((total >> shift) * ones | guard) - (total & low) & guard != guard:
                    continue  # v, numbered last, is not in the top cell
                child = (*itertools.filterfalse(link.__contains__, facets), *map(v.__or__, link))
                key = _key(child, sorted(memoryview(total.to_bytes(8 * k + 8, sys.byteorder)).cast("Q")))
                if key in seen:
                    continue
                seen.add(key)
                if k + 1 < n:
                    children.append(child)
                if max(map(int.bit_count, child)) > dim_min:
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
