"""Simplicial complexes on a labeled ambient vertex set, stored by facets.

A complex lives on the ambient set {1..n}; vertices outside some facet are
allowed (they matter for degree complexes).  The void complex (no faces at
all) and the empty complex {0} (the single face being the empty set) are
distinct first-class values: ``facets`` is empty for void and {0} for empty.

All values are immutable; every operation is a pure function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .bits import (
    antichain_maximal,
    mask_of,
    minimal_transversals,
    submasks,
    vertices_of,
)

def _as_mask(face, n: int) -> int:
    if isinstance(face, int):
        if face < 0 or face >= 1 << n:
            raise ValueError(f"face mask {face} out of range for n={n}")
        return face
    return mask_of(face, n)


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex given by its facet antichain (bitmasks over 1..n).

    Construct through :func:`from_facets` unless the facets are already
    known to form an antichain.
    """

    n: int
    facets: frozenset[int]

    # -- basic structure ---------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def is_empty_complex(self) -> bool:
        return self.facets == frozenset({0})

    @cached_property
    def vertex_mask(self) -> int:
        m = 0
        for f in self.facets:
            m |= f
        return m

    def vertex_set(self) -> frozenset[int]:
        """Vertices lying in some facet (isolated ambient vertices excluded)."""
        return frozenset(vertices_of(self.vertex_mask))

    def dimension(self) -> int:
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        return max(f.bit_count() for f in self.facets) - 1

    def is_pure(self) -> bool:
        if self.is_void:
            raise ValueError("the void complex has no dimension")
        sizes = {f.bit_count() for f in self.facets}
        return len(sizes) == 1

    @cached_property
    def _face_set(self) -> frozenset[int]:
        return frozenset(s for f in self.facets for s in submasks(f))

    def faces(self) -> frozenset[int]:
        """All faces as masks (the empty face 0 included unless void)."""
        return self._face_set

    def has_face(self, face) -> bool:
        m = _as_mask(face, self.n)
        return any(f & m == m for f in self.facets)

    def faces_of_size(self, k: int) -> list[int]:
        return sorted(f for f in self._face_set if f.bit_count() == k)

    def facet_sets(self) -> tuple[tuple[int, ...], ...]:
        """Facets as sorted vertex tuples, canonically ordered."""
        return tuple(sorted(vertices_of(f) for f in self.facets))

    # -- combinatorial constructions ---------------------------------------

    def minimal_nonface_masks(self) -> tuple[int, ...]:
        """Inclusion-minimal nonfaces as masks, ordered by (size, mask): the
        minimal transversals of the facet complements, since a set is a
        nonface exactly when it meets the complement of every facet."""
        if self.is_void:
            raise ValueError("the void complex has no nonfaces")
        full = (1 << self.n) - 1
        return tuple(minimal_transversals([full & ~f for f in self.facets], full))

    def minimal_nonfaces(self) -> tuple[tuple[int, ...], ...]:
        """Inclusion-minimal subsets of the ambient set that are not faces."""
        masks = self.minimal_nonface_masks()
        return tuple(sorted((vertices_of(m) for m in masks), key=lambda t: (len(t), t)))

    def link(self, face) -> "SimplicialComplex":
        """Faces F \\ G over facets F containing G; same ambient size."""
        g = _as_mask(face, self.n)
        if not self.has_face(g):
            raise ValueError(f"{vertices_of(g)} is not a face")
        return SimplicialComplex(self.n, frozenset(f & ~g for f in self.facets if f & g == g))

    def star(self, face) -> "SimplicialComplex":
        g = _as_mask(face, self.n)
        if not self.has_face(g):
            raise ValueError(f"{vertices_of(g)} is not a face")
        return SimplicialComplex(self.n, frozenset(f for f in self.facets if f & g == g))

    def induced(self, vertices) -> "SimplicialComplex":
        """Subcomplex of faces contained in the given vertex set."""
        w = _as_mask(vertices, self.n)
        if self.is_void:
            return self
        return SimplicialComplex(self.n, antichain_maximal(f & w for f in self.facets))

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        if self.n != other.n:
            raise ValueError("join requires matching ambient size")
        if self.vertex_mask & other.vertex_mask:
            raise ValueError("join requires disjoint vertex sets")
        if self.is_void or other.is_void:
            return void_complex(self.n)
        return SimplicialComplex(
            self.n, frozenset(f | g for f in self.facets for g in other.facets)
        )

    def complement(self) -> "SimplicialComplex":
        """Complex generated by the complements of the facets."""
        full = (1 << self.n) - 1
        return SimplicialComplex(self.n, frozenset(full & ~f for f in self.facets))

    def connected_components(self) -> tuple["SimplicialComplex", ...]:
        """Split the facets by connectivity of the vertex set they cover."""
        if self.is_void or self.is_empty_complex:
            return ()
        groups: list[int] = []  # vertex masks of the components so far
        members: list[list[int]] = []
        for f in sorted(self.facets):
            hit = [i for i, g in enumerate(groups) if g & f]
            if not hit:
                groups.append(f)
                members.append([f])
            else:
                base = hit[0]
                for i in reversed(hit[1:]):
                    groups[base] |= groups[i]
                    members[base].extend(members[i])
                    del groups[i], members[i]
                groups[base] |= f
                members[base].append(f)
        comps = [
            SimplicialComplex(self.n, frozenset(fs)) for fs in members
        ]
        return tuple(sorted(comps, key=lambda c: min(c.facets)))

    def is_connected(self) -> bool:
        """One component covering the whole vertex set, via the 1-skeleton."""
        if self.is_void or self.is_empty_complex:
            raise ValueError("connectivity requires a complex of dimension >= 0")
        return len(self.connected_components()) == 1

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        if self.is_void:
            return {"n": self.n, "facets": [], "kind": "void"}
        if self.is_empty_complex:
            return {"n": self.n, "facets": [], "kind": "empty"}
        return {"n": self.n, "facets": [list(f) for f in self.facet_sets()]}

    def __repr__(self) -> str:  # deterministic, sorted
        if self.is_void:
            return f"SimplicialComplex(n={self.n}, void)"
        body = ",".join("{" + ",".join(map(str, f)) + "}" for f in self.facet_sets())
        return f"SimplicialComplex(n={self.n}, facets=[{body}])"


def void_complex(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, frozenset())


def empty_complex(n: int) -> SimplicialComplex:
    return SimplicialComplex(n, frozenset({0}))


def from_facets(n: int, generators: Iterable[Iterable[int]], *, if_empty: str = "empty") -> SimplicialComplex:
    """Complex generated by the given vertex sets.

    Non-maximal generators are dropped so the stored facets form an
    antichain.  An empty generator list yields the empty complex {0} or
    the void complex according to ``if_empty``.
    """
    if n < 1:
        raise ValueError("ambient size must be positive")
    masks = [_as_mask(g, n) for g in generators]
    if not masks:
        if if_empty == "empty":
            return empty_complex(n)
        if if_empty == "void":
            return void_complex(n)
        raise ValueError(f"unknown if_empty flag {if_empty!r}")
    return SimplicialComplex(n, antichain_maximal(masks))


def complex_from_json(data: dict) -> SimplicialComplex:
    n = int(data["n"])
    facets = data["facets"]
    if not facets:
        kind = data.get("kind")
        if kind not in ("empty", "void"):
            raise ValueError('degenerate complex needs "kind": "empty" or "void"')
        return empty_complex(n) if kind == "empty" else void_complex(n)
    return from_facets(n, facets)


def embed(c: SimplicialComplex, n: int, offset: int = 0) -> SimplicialComplex:
    """The same complex viewed inside a larger ambient set, labels shifted."""
    if offset < 0 or c.n + offset > n:
        raise ValueError("embedding does not fit in the target ambient set")
    return SimplicialComplex(n, frozenset(f << offset for f in c.facets))


def disjoint_union(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Facet union of two complexes on one ambient set with disjoint vertices."""
    if a.n != b.n:
        raise ValueError("disjoint union requires matching ambient size")
    if a.vertex_mask & b.vertex_mask:
        raise ValueError("vertex sets overlap")
    return SimplicialComplex(a.n, frozenset(a.facets | b.facets))


def join_shifted(parts: list[SimplicialComplex]) -> SimplicialComplex:
    """The join of the parts after shifting each one onto fresh vertex
    labels, so the join of two triangles lives on 6 vertices."""
    total = sum(p.n for p in parts)
    out = None
    offset = 0
    for p in parts:
        shifted = embed(p, total, offset)
        offset += p.n
        out = shifted if out is None else out.join(shifted)
    return out


# -- named constructions ----------------------------------------------------


def cycle(k: int, n: int | None = None) -> SimplicialComplex:
    """The k-cycle graph on vertices 1..k (k >= 3)."""
    if k < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    n = n or k
    edges = [(i, i % k + 1) for i in range(1, k + 1)]
    return from_facets(n, edges)


def path(k: int, n: int | None = None) -> SimplicialComplex:
    """The path graph on vertices 1..k (k >= 2)."""
    if k < 2:
        raise ValueError("a path needs at least 2 vertices")
    n = n or k
    return from_facets(n, [(i, i + 1) for i in range(1, k)])


def complete_graph(k: int, n: int | None = None) -> SimplicialComplex:
    if k < 2:
        raise ValueError("a complete graph needs at least 2 vertices")
    n = n or k
    return from_facets(n, itertools.combinations(range(1, k + 1), 2))


def simplex(k: int, n: int | None = None) -> SimplicialComplex:
    """The full simplex on vertices 1..k."""
    if k < 1:
        raise ValueError("a simplex needs at least one vertex")
    n = n or k
    return from_facets(n, [range(1, k + 1)])


def uniform_matroid(n_vertices: int, r: int, n: int | None = None) -> SimplicialComplex:
    """Facets are all (r+1)-subsets of {1..n_vertices}; dimension r."""
    if not 0 <= r < n_vertices:
        raise ValueError("uniform matroid needs 0 <= r < n")
    n = n or n_vertices
    return from_facets(n, itertools.combinations(range(1, n_vertices + 1), r + 1))
