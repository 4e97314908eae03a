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

from .bits import iter_bits, mask_of, vertices_of
from .complexes import SimplicialComplex


def _check_has_faces(c: SimplicialComplex) -> None:
    if c.is_void:
        raise ValueError("operation requires a complex with faces")


def matroid_exchange_witness(c: SimplicialComplex):
    """A failing exchange pair (G, F) as vertex tuples, or None.

    Checking faces F one larger than G suffices: a bigger F can be
    shrunk to |G|+1 inside the downward-closed family.
    """
    _check_has_faces(c)
    by_size: dict[int, list[int]] = {}
    for f in c.faces():
        by_size.setdefault(f.bit_count(), []).append(f)
    face_set = c.faces()
    for k in sorted(by_size):
        if k + 1 not in by_size:
            continue
        for g in sorted(by_size[k]):
            for f in sorted(by_size[k + 1]):
                diff = f & ~g
                if not diff:
                    continue
                if not any(g | b in face_set for b in iter_bits(diff)):
                    return vertices_of(g), vertices_of(f)
    return None


def is_matroid_exchange(c: SimplicialComplex) -> bool:
    """Exchange axiom over all face pairs (downward closure given)."""
    return matroid_exchange_witness(c) is None


def is_matroid_pair(c: SimplicialComplex) -> bool:
    """Pair criterion: for faces with |F\\G|=1 and |G\\F|=2 some vertex of
    G\\F extends F to a face.  Agrees with the exchange axiom."""
    _check_has_faces(c)
    face_set = c.faces()
    faces = sorted(face_set)
    for f in faces:
        for g in faces:
            if (f & ~g).bit_count() != 1 or (g & ~f).bit_count() != 2:
                continue
            if not any(f | b in face_set for b in iter_bits(g & ~f)):
                return False
    return True


def graph_matroid_criterion(c: SimplicialComplex) -> bool:
    """Every pair of disjoint edges of a graph lies in a 4-cycle."""
    _check_has_faces(c)
    if c.is_empty_complex or c.dimension() != 1 or not c.is_pure():
        raise ValueError("input must be a graph: all facets are edges")
    edges = sorted(c.facets)
    edge_set = set(edges)
    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            if e & f:
                continue
            a, b = (1 << (v - 1) for v in vertices_of(e))
            u, w = (1 << (v - 1) for v in vertices_of(f))
            if (a | u in edge_set and b | w in edge_set) or (
                a | w in edge_set and b | u in edge_set
            ):
                continue
            return False
    return True


def is_locally_matroid(c: SimplicialComplex) -> bool:
    """Every vertex link passes the exchange check."""
    _check_has_faces(c)
    if c.is_empty_complex or c.dimension() < 1:
        raise ValueError("locality tests need dimension >= 1")
    return all(
        is_matroid_exchange(c.link(1 << (v - 1))) for v in sorted(c.vertex_set())
    )


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
    _check_has_faces(c)
    if c.is_empty_complex or c.dimension() < 1:
        raise ValueError("locality tests need dimension >= 1")
    return all(
        is_complete_intersection(c.link(1 << (v - 1)))
        for v in sorted(c.vertex_set())
    )


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
    """Facets are exactly all (r+1)-subsets of the covered vertex set."""
    _check_has_faces(c)
    if c.is_empty_complex:
        return False
    k = c.vertex_mask.bit_count()
    expected = _all_subsets_of_size(c.vertex_mask, r + 1)
    return c.facets == expected and r + 1 <= k


def _all_subsets_of_size(vm: int, size: int) -> frozenset[int]:
    import itertools

    verts = vertices_of(vm)
    return frozenset(mask_of(s) for s in itertools.combinations(verts, size))


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
        edge = min(
            e
            for h in nf
            for e in _edges_inside(h)
            if current.has_face(e)
        )
        link = current.link(edge)
        outside = current.vertex_mask & ~link.vertex_mask
        gamma = current.induced(outside)
        rejoined = link.join(gamma)
        if rejoined.facets != current.facets:
            raise RuntimeError("join split failed to reproduce the complex")
        factors.append(gamma)
        current = link
    return tuple(factors)


def _edges_inside(mask: int):
    bits = list(iter_bits(mask))
    for i, a in enumerate(bits):
        for b in bits[i + 1:]:
            yield a | b


def shared_link_check(c: SimplicialComplex, nonface) -> bool:
    """Maximal proper subsets of a minimal nonface all share one link.

    Always true for matroids; may return False on other input.
    """
    from .complexes import _as_mask

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
