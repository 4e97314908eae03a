"""Matroid and complete-intersection tests for simplicial complexes.

A complex is a matroid when its faces satisfy the independence exchange
axiom, and a complete intersection when its minimal nonfaces (within the
vertex set) are pairwise disjoint.  Both notions localize: for dimension
at least two, matroid = connected + locally matroid, and likewise for
complete intersections.  All checks here are restricted to the vertices
actually covered by facets; isolated ambient vertices are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .bits import iter_bits, vertices_of
from .complexes import SimplicialComplex, _as_mask


def _check_has_faces(c: SimplicialComplex) -> None:
    if c.is_void:
        raise ValueError("operation requires a complex with faces")


def matroid_exchange_witness(c: SimplicialComplex):
    """A failing exchange pair (G, F) as vertex tuples, or None.

    The pair is ``bits.exchange_pair`` of the faces, held on the complex
    (``SimplicialComplex.exchange_pair``), so every check that asks about
    one complex object shares one computation.
    """
    _check_has_faces(c)
    pair = c.exchange_pair
    return None if pair is None else (vertices_of(pair[0]), vertices_of(pair[1]))


def is_matroid_exchange(c: SimplicialComplex) -> bool:
    """Exchange axiom over all face pairs (downward closure given)."""
    _check_has_faces(c)
    return c.exchange_pair is None


def is_matroid_pair(c: SimplicialComplex) -> bool:
    """Pair criterion: for faces F = H + a and G = H + b + x with a not in
    G, F + b or F + x is a face.  Each candidate pair is built from a face
    G, a pair {b, x} of G and a vertex a outside G.  A cross-check of the
    exchange axiom, with which it agrees."""
    _check_has_faces(c)
    faces, vm = c.faces(), c.vertex_mask
    for g in faces:
        rest, outside = g, vm & ~g
        while rest:  # b below x
            b = rest & -rest
            rest ^= b
            above = rest
            while above:
                x = above & -above
                above ^= x
                out = outside
                while out:
                    a = out & -out
                    out ^= a
                    f = g ^ b ^ x | a
                    if f in faces and f | b not in faces and f | x not in faces:
                        return False
    return True


def graph_matroid_criterion(c: SimplicialComplex) -> bool:
    """Every pair of disjoint edges of a graph lies in a 4-cycle."""
    _check_has_faces(c)
    if c.is_empty_complex or c.dimension() != 1 or not c.is_pure():
        raise ValueError("input must be a graph: all facets are edges")
    edges = c.facets
    for e, f in combinations(edges, 2):
        if e & f:
            continue
        a, b = iter_bits(e)
        u, w = iter_bits(f)
        if not (a | u in edges and b | w in edges or a | w in edges and b | u in edges):
            return False
    return True


def _every_vertex_link(c: SimplicialComplex, test) -> bool:
    _check_has_faces(c)
    if c.is_empty_complex or c.dimension() < 1:
        raise ValueError("locality tests need dimension >= 1")
    return all(test(c.link(1 << (v - 1))) for v in sorted(c.vertex_set()))


def is_locally_matroid(c: SimplicialComplex) -> bool:
    """Every vertex link passes the exchange check."""
    return _every_vertex_link(c, is_matroid_exchange)


def ci_witness(c: SimplicialComplex):
    """Two intersecting minimal nonfaces (within the vertex set), or None."""
    _check_has_faces(c)
    nonfaces = _vertex_nonface_masks(c)
    for i, a in enumerate(nonfaces):
        for b in nonfaces[i + 1:]:
            if a & b:
                return vertices_of(a), vertices_of(b)
    return None


def _vertex_nonface_masks(c: SimplicialComplex) -> list[int]:
    """Minimal nonfaces restricted to the covered vertex set."""
    vm = c.vertex_mask
    return [m for m in c.minimal_nonface_masks() if m & vm == m]


def is_complete_intersection(c: SimplicialComplex) -> bool:
    """Minimal nonfaces pairwise disjoint (generators of the face ideal
    of nonfaces have disjoint supports)."""
    return ci_witness(c) is None


def is_locally_ci(c: SimplicialComplex) -> bool:
    """Every vertex link is a complete intersection."""
    return _every_vertex_link(c, is_complete_intersection)


@dataclass(frozen=True)
class ComponentSplit:
    """Connected components together with the first failing one, if any."""

    components: tuple[SimplicialComplex, ...]
    offending: SimplicialComplex | None = None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.offending is None and self.reason is None


def matroid_components(c: SimplicialComplex) -> ComponentSplit:
    """Split into connected components; succeed iff each one is a matroid.

    Purity of the input is reported as a failure, not an error.
    """
    _check_has_faces(c)
    comps = c.connected_components()
    if not c.is_empty_complex and not c.is_pure():
        return ComponentSplit(comps, offending=c, reason="complex is not pure")
    for comp in comps:
        if not is_matroid_exchange(comp):
            return ComponentSplit(comps, offending=comp, reason="component fails exchange")
    return ComponentSplit(comps)


def is_uniform(c: SimplicialComplex, r: int) -> bool:
    """Facets are exactly all (r+1)-subsets of the covered vertex set:
    distinct (r+1)-subsets of k vertices are all of them when there are
    C(k, r+1)."""
    _check_has_faces(c)
    if c.is_empty_complex:
        return False
    size, k = r + 1, c.vertex_mask.bit_count()
    return all(f.bit_count() == size for f in c.facets) and len(c.facets) == comb(k, size)


def is_disjoint_union_of_uniform(c: SimplicialComplex, r: int) -> bool:
    """Every connected component is the r-uniform matroid on its vertices."""
    _check_has_faces(c)
    comps = c.connected_components()
    return bool(comps) and all(is_uniform(comp, r) for comp in comps)


def join_decomposition(c: SimplicialComplex) -> tuple[SimplicialComplex, ...]:
    """Factor a matroid with only 3-element minimal nonfaces as a join of
    1-uniform matroids and possibly one simplex.

    Follows the constructive argument: pick the lexicographically smallest
    edge inside a minimal nonface, split off the induced complement, and
    recurse on the link.  Each split is verified by rejoining.
    """
    _check_has_faces(c)
    if not is_matroid_exchange(c):
        raise ValueError("join decomposition requires a matroid")
    nonfaces = _vertex_nonface_masks(c)
    if any(m.bit_count() != 3 for m in nonfaces):
        raise ValueError("all minimal nonfaces must have exactly 3 elements")

    factors: list[SimplicialComplex] = []
    current = c
    while True:
        nf = _vertex_nonface_masks(current)
        if not nf:
            factors.append(current)  # a simplex on its vertex set
            break
        if any(m.bit_count() != 3 for m in nf):
            raise RuntimeError("split produced a factor with a short nonface")
        if current.dimension() == 1:
            factors.append(current)  # 1-uniform: all pairs of V are faces
            break
        edge = min(a | b for h in nf for a, b in combinations(iter_bits(h), 2) if current.has_face(a | b))
        link = current.link(edge)
        outside = current.vertex_mask & ~link.vertex_mask
        gamma = current.induced(outside)
        rejoined = link.join(gamma)
        if rejoined.facets != current.facets:
            raise RuntimeError("join split failed to reproduce the complex")
        factors.append(gamma)
        current = link
    return tuple(factors)


def shared_link_check(c: SimplicialComplex, nonface) -> bool:
    """Maximal proper subsets of a minimal nonface all share one link.

    Always true for matroids; may return False on other input.
    """
    h = _as_mask(nonface, c.n)
    if h not in set(c.minimal_nonface_masks()):
        raise ValueError(f"{vertices_of(h)} is not a minimal nonface")
    subsets = [h & ~b for b in iter_bits(h)]
    links = []
    for s in subsets:
        if not c.has_face(s):
            return False
        links.append(c.link(s).facets)
    return all(l == links[0] for l in links)
