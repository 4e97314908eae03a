"""Exact monomial ideal arithmetic over a polynomial ring K[x_1..x_n].

An ideal is stored by its unique minimal monomial generators (exponent
vectors).  The zero ideal has no generators, the unit ideal is generated
by the constant monomial.  Squarefree ideals translate to and from
simplicial complexes; ordinary powers go through products, symbolic
powers through a box enumeration over {0..m}^n constrained by the
minimal primes (minimal generators of an intersection of m-th prime
powers have all exponents at most m, since lowering an exponent above m
preserves every constraint).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bits import compactify, indicator, mask_of, minimal_transversals, support, vertices_of
from .complexes import SimplicialComplex

MAX_POWER = 16  # desk scale guard


class DeskScaleExceeded(ValueError):
    """A box of exponent vectors too large to enumerate at desk scale.

    The input is valid, so this is no usage error; nor is it a spent time
    budget, since a resumed run would meet the same box again."""


def minimalize(vectors, n: int) -> frozenset[tuple[int, ...]]:
    """Coordinatewise-minimal elements of a set of exponent vectors."""
    vs = sorted(set(map(tuple, vectors)), key=lambda v: (sum(v), v))
    if len(vs) > 400:
        return _minimalize_np(vs, n)
    kept: list[tuple[int, ...]] = []
    for v in vs:
        if not any(all(u[i] <= v[i] for i in range(n)) for u in kept):
            kept.append(v)
    return frozenset(kept)


def _minimalize_np(vs, n):
    arr = np.array(vs, dtype=np.int32)
    keep = np.ones(len(vs), dtype=bool)
    for i in range(len(vs)):
        if not keep[i]:
            continue
        dominated = (arr >= arr[i]).all(axis=1)
        dominated[i] = False
        keep &= ~dominated
    return frozenset(map(tuple, arr[keep].tolist()))


@dataclass(frozen=True)
class MonomialIdeal:
    n: int
    gens: frozenset[tuple[int, ...]]

    @staticmethod
    def from_generators(n: int, gens) -> "MonomialIdeal":
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != n or any(e < 0 for e in g):
                raise ValueError(f"bad exponent vector {g} for n={n}")
        return MonomialIdeal(n, minimalize(gens, n))

    @staticmethod
    def zero(n: int) -> "MonomialIdeal":
        return MonomialIdeal(n, frozenset())

    @staticmethod
    def unit(n: int) -> "MonomialIdeal":
        return MonomialIdeal(n, frozenset({(0,) * n}))

    # -- predicates ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return (0,) * self.n in self.gens

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for g in self.gens for e in g)

    @property
    def contains_variable(self) -> bool:
        """True when some generator is a single variable (degenerate for
        Stanley-Reisner translation)."""
        return any(sum(g) == 1 for g in self.gens)

    def sorted_gens(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.gens))

    def max_exponents(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over the generators."""
        rho = [0] * self.n
        for g in self.gens:
            for i, e in enumerate(g):
                if e > rho[i]:
                    rho[i] = e
        return tuple(rho)

    # -- membership and comparisons -------------------------------------------

    def membership(self, exponents) -> bool:
        """x^a in I; any negative exponent means no (a is allowed in Z^n)."""
        a = tuple(exponents)
        if len(a) != self.n:
            raise ValueError("exponent vector length mismatch")
        if any(e < 0 for e in a):
            return False
        return any(all(g[i] <= a[i] for i in range(self.n)) for g in self.gens)

    def contains(self, other: "MonomialIdeal") -> bool:
        if self.n != other.n:
            raise ValueError("ambient size mismatch")
        return all(self.membership(g) for g in other.gens)

    def equals(self, other: "MonomialIdeal") -> bool:
        return self.contains(other) and other.contains(self)

    # -- arithmetic ------------------------------------------------------------

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.n != other.n:
            raise ValueError("ambient size mismatch")
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.n)
        lcms = [
            tuple(max(a, b) for a, b in zip(u, v))
            for u in self.gens
            for v in other.gens
        ]
        return MonomialIdeal(self.n, minimalize(lcms, self.n))

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.n != other.n:
            raise ValueError("ambient size mismatch")
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.n)
        sums = [
            tuple(a + b for a, b in zip(u, v))
            for u in self.gens
            for v in other.gens
        ]
        return MonomialIdeal(self.n, minimalize(sums, self.n))

    def power(self, m: int) -> "MonomialIdeal":
        if not 1 <= m <= MAX_POWER:
            raise ValueError(f"power must lie in 1..{MAX_POWER}")
        out = self
        for _ in range(m - 1):
            out = out.multiply(self)
        return out

    def add(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.n != other.n:
            raise ValueError("ambient size mismatch")
        return MonomialIdeal(self.n, minimalize(self.gens | other.gens, self.n))

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"n": self.n, "gens": [list(g) for g in self.sorted_gens()]}

    def __repr__(self) -> str:
        gens = ",".join(str(list(g)) for g in self.sorted_gens())
        return f"MonomialIdeal(n={self.n}, gens=[{gens}])"


def ideal_from_json(data: dict) -> MonomialIdeal:
    return MonomialIdeal.from_generators(int(data["n"]), data["gens"])


def maximal_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(
        n, frozenset(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    )


def principal(n: int, exponents) -> MonomialIdeal:
    return MonomialIdeal.from_generators(n, [exponents])


# -- Stanley-Reisner translation ------------------------------------------------


def sr_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Squarefree ideal generated by the minimal nonfaces of the complex.

    Every singleton must be a face, otherwise a variable would be a
    generator and the translation is not defined.
    """
    if c.is_void:
        raise ValueError("the void complex has no Stanley-Reisner ideal")
    if c.vertex_mask != (1 << c.n) - 1:
        missing = sorted(set(range(1, c.n + 1)) - set(vertices_of(c.vertex_mask)))
        raise ValueError(f"vertices {missing} lie in no facet; their variables would be generators")
    return MonomialIdeal(c.n, frozenset(indicator(m, c.n) for m in c.minimal_nonface_masks()))


def _prime_support_masks(ideal: MonomialIdeal) -> list[int]:
    """Supports of the minimal primes: the minimal transversals of the
    generator supports."""
    full = (1 << ideal.n) - 1
    supports = sorted(set(support(g) for g in ideal.gens))
    return minimal_transversals(supports, full)


def complex_of_radical(ideal: MonomialIdeal) -> SimplicialComplex:
    """Faces are the subsets of {1..n} containing no generator support.

    For a squarefree ideal this inverts ``sr_ideal``; in general it is the
    complex of the radical.
    """
    if ideal.is_unit:
        raise ValueError("the unit ideal has no radical complex")
    full = (1 << ideal.n) - 1
    if ideal.is_zero:
        return SimplicialComplex(ideal.n, frozenset({full}))
    return SimplicialComplex(ideal.n, frozenset(full & ~t for t in _prime_support_masks(ideal)))


def minimal_primes(ideal: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Supports W with P_W a minimal prime: complements of the facets of
    the radical complex, so the minimal transversals of the generators."""
    if not ideal.is_squarefree:
        raise ValueError("minimal primes are computed for squarefree input")
    if ideal.is_unit or ideal.is_zero:
        raise ValueError("need a proper nonzero ideal")
    return tuple(sorted(vertices_of(t) for t in _prime_support_masks(ideal)))


def facet_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Generated by the facet monomials."""
    if c.is_void or c.is_empty_complex:
        raise ValueError("facet ideal needs nonempty facets")
    return MonomialIdeal(c.n, frozenset(indicator(f, c.n) for f in c.facets))


def cover_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Intersection of the facet-variable primes: generated by the minimal
    vertex covers of the facets.  May contain a variable (a vertex lying in
    every facet); callers should warn on ``contains_variable``."""
    if c.is_void or c.is_empty_complex:
        raise ValueError("cover ideal needs nonempty facets")
    full = (1 << c.n) - 1
    covers = minimal_transversals(sorted(c.facets), full)
    return MonomialIdeal(c.n, frozenset(indicator(t, c.n) for t in covers))


def dual_complex(c: SimplicialComplex) -> SimplicialComplex:
    """The complex whose Stanley-Reisner ideal is the facet ideal."""
    ideal = facet_ideal(c)
    if ideal.contains_variable:
        raise ValueError("a singleton facet puts a variable in the facet ideal")
    return complex_of_radical(ideal)


# -- powers ----------------------------------------------------------------------


def symbolic_power_ideal(ideal: MonomialIdeal, m: int) -> MonomialIdeal:
    """m-th symbolic power of a squarefree ideal: intersection of the m-th
    powers of its minimal primes, via box enumeration."""
    if not ideal.is_squarefree:
        raise ValueError("symbolic powers are defined here for squarefree input")
    if ideal.is_unit:
        return ideal
    if ideal.is_zero:
        return ideal
    if not 1 <= m <= MAX_POWER:
        raise ValueError(f"power must lie in 1..{MAX_POWER}")
    n = ideal.n
    if (m + 1) ** n > 1 << 24:
        raise DeskScaleExceeded(
            f"the exponent box {{0..{m}}}^{n} has {(m + 1) ** n} points, "
            f"over the desk-scale limit of {1 << 24}"
        )
    primes = _prime_support_masks(ideal)
    pmat = np.array([indicator(t, n) for t in primes], dtype=np.int32)
    gens: list[tuple[int, ...]] = []
    chunk = 1 << 14
    box = itertools.product(range(m + 1), repeat=n)
    while True:
        rows = list(itertools.islice(box, chunk))
        if not rows:
            break
        arr = np.array(rows, dtype=np.int32)
        sums = arr @ pmat.T
        ok = (sums >= m).all(axis=1)
        if not ok.any():
            continue
        tight = sums == m
        covered = tight.astype(np.int32) @ pmat
        minimal = ok & ((arr == 0) | (covered > 0)).all(axis=1)
        gens.extend(map(tuple, arr[minimal].tolist()))
    return MonomialIdeal(n, frozenset(gens))


def symbolic_power(c: SimplicialComplex, m: int) -> MonomialIdeal:
    """m-th symbolic power of the Stanley-Reisner ideal of the complex."""
    return symbolic_power_ideal(sr_ideal(c), m)


@dataclass(frozen=True)
class SymbolicPower:
    """I^(m) for a squarefree ideal I, held as the facets (bitmasks over
    1..n) of the radical complex of I and the exponent m.

    I^(m) is the intersection of the prime powers P_{V-F}^m over those
    facets F, so the facets determine it without building generators.
    The depth oracle reads its degree complexes from them in closed form;
    ``ideal()`` gives the explicit generators for the general route.
    """

    n: int
    facets: frozenset[int]
    m: int

    @staticmethod
    def of(ideal: MonomialIdeal, m: int) -> "SymbolicPower":
        """The m-th symbolic power of any proper squarefree ideal
        (Stanley-Reisner, cover or facet ideal alike)."""
        if not ideal.is_squarefree:
            raise ValueError("symbolic powers are defined here for squarefree input")
        if not 1 <= m <= MAX_POWER:
            raise ValueError(f"power must lie in 1..{MAX_POWER}")
        return SymbolicPower(ideal.n, complex_of_radical(ideal).facets, m)

    @property
    def is_zero(self) -> bool:
        return (1 << self.n) - 1 in self.facets

    def max_exponents(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over the generators of I^(m): m
        for a variable outside some facet, 0 for one inside every facet
        (it lies in no minimal prime)."""
        common = (1 << self.n) - 1
        for f in self.facets:
            common &= f
        return tuple(0 if common >> i & 1 else self.m for i in range(self.n))

    def radical(self) -> MonomialIdeal:
        """The squarefree ideal: its generators are the minimal nonfaces,
        which are the minimal transversals of the facet complements."""
        full = (1 << self.n) - 1
        nonfaces = minimal_transversals([full & ~f for f in self.facets], full)
        return MonomialIdeal(self.n, frozenset(indicator(t, self.n) for t in nonfaces))

    def ideal(self) -> MonomialIdeal:
        """The explicit generators of I^(m)."""
        return symbolic_power_ideal(self.radical(), self.m)

    def contract(self, face: int) -> "SymbolicPower | None":
        """Invert the variables of ``face`` (a mask): the symbolic power of
        the link, with facets F - face for the facets F containing it,
        relabelled onto the remaining variables in order.  None when
        ``face`` is not a face, where the contraction is the unit ideal."""
        star = [f & ~face for f in self.facets if f & face == face]
        if not star:
            return None
        kept = ((1 << self.n) - 1) & ~face
        return SymbolicPower(kept.bit_count(), frozenset(compactify(star, kept)), self.m)


def symbolic_power_by_intersection(ideal: MonomialIdeal, m: int) -> MonomialIdeal:
    """Independent route: iterated generator-level intersection of the
    prime powers.  Slow; kept as a cross-check oracle."""
    if not ideal.is_squarefree:
        raise ValueError("symbolic powers are defined here for squarefree input")
    if not 1 <= m <= MAX_POWER:
        raise ValueError(f"power must lie in 1..{MAX_POWER}")
    n = ideal.n
    result: MonomialIdeal | None = None
    for t in _prime_support_masks(ideal):
        verts = [v - 1 for v in vertices_of(t)]
        gens = []
        for combo in itertools.combinations_with_replacement(verts, m):
            g = [0] * n
            for i in combo:
                g[i] += 1
            gens.append(tuple(g))
        pm = MonomialIdeal(n, minimalize(gens, n))
        result = pm if result is None else result.intersect(pm)
    assert result is not None
    return result


# -- localization ------------------------------------------------------------------


@dataclass(frozen=True)
class Contraction:
    """Result of inverting variables: the contracted ideal in the remaining
    variables plus the record of which original variables survived."""

    ideal: MonomialIdeal
    kept: tuple[int, ...]  # original 1-based labels, in order

    def old_to_new(self) -> dict[int, int]:
        return {old: new + 1 for new, old in enumerate(self.kept)}


def contract(ideal: MonomialIdeal, inverted) -> Contraction:
    """I S[x_i^{-1} : i in G] intersected with the ring in the other
    variables: delete the G coordinates and re-minimalize."""
    g = mask_of(inverted, ideal.n) if not isinstance(inverted, int) else inverted
    kept = tuple(v for v in range(1, ideal.n + 1) if not g >> (v - 1) & 1)
    new_n = len(kept)
    if new_n == 0:
        raise ValueError("cannot invert every variable")
    gens = [tuple(gen[v - 1] for v in kept) for gen in ideal.gens]
    return Contraction(MonomialIdeal(new_n, minimalize(gens, new_n)), kept)


def localized_membership(exponents, ideal: MonomialIdeal, inverted) -> bool:
    """x^a in I S[x_i^{-1} : i in F] for a in Z^n: some generator divides
    x^a on the coordinates outside F."""
    a = tuple(exponents)
    if len(a) != ideal.n:
        raise ValueError("exponent vector length mismatch")
    f = mask_of(inverted, ideal.n) if not isinstance(inverted, int) else inverted
    outside = [i for i in range(ideal.n) if not f >> i & 1]
    return any(all(g[i] <= a[i] for i in outside) for g in ideal.gens)


# -- polynomial extension identity ----------------------------------------------------


def adjoin_variable(ideal: MonomialIdeal) -> MonomialIdeal:
    """(I, y) in n+1 variables, y the new last variable."""
    n = ideal.n
    gens = [g + (0,) for g in ideal.gens]
    gens.append((0,) * n + (1,))
    return MonomialIdeal(n + 1, minimalize(gens, n + 1))


def extension_decomposition_check(ideal: MonomialIdeal, m: int, kind: str) -> bool:
    """Power of (I, y) decomposes as the sum of I-powers times y-powers.

    Checks (I,y)^m = sum_k I^k y^(m-k) for the ordinary kind and the same
    identity with symbolic powers for squarefree input.  A property test:
    this must hold for every ideal.
    """
    if kind not in ("ordinary", "symbolic"):
        raise ValueError("kind must be 'ordinary' or 'symbolic'")
    if kind == "symbolic" and not ideal.is_squarefree:
        raise ValueError("symbolic kind needs squarefree input")
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a proper nonzero ideal")
    n = ideal.n
    ext = adjoin_variable(ideal)
    if kind == "ordinary":
        lhs = ext.power(m)
        layers = [ideal.power(k) for k in range(1, m + 1)]
    else:
        lhs = symbolic_power_ideal(ext, m)
        layers = [symbolic_power_ideal(ideal, k) for k in range(1, m + 1)]
    rhs_gens = {(0,) * n + (m,)}  # the k = 0 layer: y^m alone
    for k, layer in enumerate(layers, start=1):
        rhs_gens.update(g + (m - k,) for g in layer.gens)
    rhs = MonomialIdeal(n + 1, minimalize(rhs_gens, n + 1))
    return lhs.gens == rhs.gens
