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
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bits import compactify, indicator, mask_of, minimal_transversals, support, vertices_of
from .complexes import SimplicialComplex

MAX_POWER = 16  # desk scale guard


class DeskScaleExceeded(ValueError):
    """Input past desk scale: too large a box or too large an exponent.

    The input is valid, so this is no usage error; nor is it a spent time
    budget, since a resumed run would meet the same box again."""


_INT64_MAX = (1 << 63) - 1
_BLOCK = 1 << 18  # cells (pairs times coordinates) per comparison block in ``minimalize``


def minimalize(vectors, n: int) -> frozenset[tuple[int, ...]]:
    """Coordinatewise-minimal elements of a set of exponent vectors.

    A vector can only be divided by one of lower total degree, so the
    vectors are taken level by level in degree, and each level is
    compared, in blocks of at most ``_BLOCK`` cells, with the minimal
    vectors kept so far.  The arithmetic is exact int64: exponents whose
    degree could leave that range are refused."""
    vs = list(set(map(tuple, vectors)))
    limit = _INT64_MAX // max(n, 1)  # so that no degree leaves int64
    if max((max(v, default=0) for v in vs), default=0) > limit:
        raise DeskScaleExceeded(f"an exponent lies past {limit}, the int64 limit for {n} variables")
    arr = np.array(vs, dtype=np.int64).reshape(len(vs), n)
    deg = arr.sum(axis=1)
    order = np.argsort(deg, kind="stable")
    arr, deg = arr[order], deg[order]
    step = max(1, math.isqrt(_BLOCK // max(n, 1)))  # rows per side of a block
    kept = arr[:0]
    for level in np.split(arr, np.flatnonzero(np.diff(deg)) + 1):
        alive = np.ones(len(level), dtype=bool)
        for i in range(0, len(level), step):
            rows = level[i : i + step, None]
            for j in range(0, len(kept), step):
                alive[i : i + step] &= ~(kept[None, j : j + step] <= rows).all(axis=2).any(axis=1)
        kept = np.concatenate([kept, level[alive]])
    return frozenset(map(tuple, kept.tolist()))


@dataclass(frozen=True)
class MonomialIdeal:
    n: int
    gens: frozenset[tuple[int, ...]]

    @staticmethod
    def from_generators(n: int, gens) -> "MonomialIdeal":
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != n or not all(
                isinstance(e, (int, np.integer)) and not isinstance(e, bool) and 0 <= e <= _INT64_MAX
                for e in g
            ):
                raise ValueError(f"bad exponent vector {g} for n={n}: "
                                 f"exponents are integers in 0..{_INT64_MAX}")
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
        return tuple(map(max, zip(*self.gens))) if self.gens else (0,) * self.n

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

    def _pairwise(self, other: "MonomialIdeal", op) -> "MonomialIdeal":
        """Generated by ``op`` applied coordinatewise to every pair of
        generators: lcms for the intersection, sums for the product."""
        if self.n != other.n:
            raise ValueError("ambient size mismatch")
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.n)
        pairs = [tuple(map(op, u, v)) for u in self.gens for v in other.gens]
        return MonomialIdeal(self.n, minimalize(pairs, self.n))

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return self._pairwise(other, max)

    def multiply(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return self._pairwise(other, operator.add)

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
    return _nonface_ideal(c)


def _nonface_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """The squarefree ideal generated by the minimal nonfaces."""
    return MonomialIdeal(c.n, frozenset(indicator(m, c.n) for m in c.minimal_nonface_masks()))


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
    supports = sorted(set(support(g) for g in ideal.gens))
    return SimplicialComplex(ideal.n, frozenset(full & ~t for t in minimal_transversals(supports, full)))


def minimal_primes(ideal: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Supports W with P_W a minimal prime: complements of the facets of
    the radical complex, so the minimal transversals of the generators."""
    if not ideal.is_squarefree:
        raise ValueError("minimal primes are computed for squarefree input")
    if ideal.is_unit or ideal.is_zero:
        raise ValueError("need a proper nonzero ideal")
    full = (1 << ideal.n) - 1
    return tuple(sorted(vertices_of(full & ~f) for f in complex_of_radical(ideal).facets))


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
    return _nonface_ideal(c.complement())  # a cover meets every facet


def dual_complex(c: SimplicialComplex) -> SimplicialComplex:
    """The complex whose Stanley-Reisner ideal is the facet ideal."""
    ideal = facet_ideal(c)
    if ideal.contains_variable:
        raise ValueError("a singleton facet puts a variable in the facet ideal")
    return complex_of_radical(ideal)


# -- powers ----------------------------------------------------------------------


def symbolic_power_ideal(ideal: MonomialIdeal, m: int) -> MonomialIdeal:
    """m-th symbolic power of a squarefree ideal: intersection of the m-th
    powers of its minimal primes, by ``SymbolicPower.ideal``."""
    if not ideal.is_squarefree:
        raise ValueError("symbolic powers are defined here for squarefree input")
    if ideal.is_unit or ideal.is_zero:
        return ideal
    return SymbolicPower.of(ideal, m).ideal()


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
        """The squarefree ideal, generated by the minimal nonfaces."""
        return _nonface_ideal(SimplicialComplex(self.n, self.facets))

    def ideal(self) -> MonomialIdeal:
        """The explicit generators of I^(m), by enumerating the box
        {0..m}^n against the primes P_{V-F}: a point is a generator when
        it meets every prime at least m times and lowering any nonzero
        coordinate breaks a constraint that holds with equality."""
        n, m = self.n, self.m
        if self.is_zero:
            return MonomialIdeal.zero(n)
        if (m + 1) ** n > 1 << 24:
            raise DeskScaleExceeded(
                f"the exponent box {{0..{m}}}^{n} has {(m + 1) ** n} points, "
                f"over the desk-scale limit of {1 << 24}"
            )
        pmat = 1 - np.array([indicator(f, n) for f in self.facets], dtype=np.int32)
        gens: list[tuple[int, ...]] = []
        box = itertools.product(range(m + 1), repeat=n)
        while rows := list(itertools.islice(box, 1 << 14)):
            arr = np.array(rows, dtype=np.int32)
            sums = arr @ pmat.T
            covered = (sums == m).astype(np.int32) @ pmat  # meets a tight prime
            minimal = (sums >= m).all(axis=1) & ((arr == 0) | (covered > 0)).all(axis=1)
            gens.extend(map(tuple, arr[minimal].tolist()))
        return MonomialIdeal(n, frozenset(gens))

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
    full = (1 << n) - 1
    result: MonomialIdeal | None = None
    for f in complex_of_radical(ideal).facets:
        gens = []
        for combo in itertools.combinations_with_replacement(vertices_of(full & ~f), m):
            g = [0] * n
            for v in combo:
                g[v - 1] += 1
            gens.append(tuple(g))
        pm = MonomialIdeal(n, minimalize(gens, n))
        result = pm if result is None else result.intersect(pm)
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
