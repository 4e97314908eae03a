"""Exact monomial ideal arithmetic over a polynomial ring K[x_1..x_n].

An ideal is stored by its unique minimal monomial generators (exponent
vectors).  The zero ideal has no generators, the unit ideal is generated
by the constant monomial.  Squarefree ideals translate to and from
simplicial complexes; ordinary powers go through products, symbolic
powers through one membership bitset of I^(m) on the box {0..m}^n
(minimal generators of an intersection of m-th prime powers have all
exponents at most m, since lowering an exponent above m preserves every
constraint).  The same box holds every minimal generator of I^m for
squarefree I, so I^m = I^(m) is decided on that bitset too.  All the
arithmetic is on Python ints, so it is exact.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, reduce

from .bits import DeskScaleExceeded, bits_at, compactify, indicator, minimal_transversals, support, vertices_of
from .complexes import SimplicialComplex, _as_mask

MAX_POWER = 16  # desk scale guard


def _check_power(m) -> None:
    """Refuse an exponent that is not an int in 1..MAX_POWER (a bool is not an int here)."""
    if type(m) is not int or not 1 <= m <= MAX_POWER:
        raise ValueError(f"power must lie in 1..{MAX_POWER}")


_INT64_MAX = (1 << 63) - 1


def minimalize(vectors, n: int) -> frozenset[tuple[int, ...]]:
    """Coordinatewise-minimal elements of a set of exponent vectors.

    The vectors are indexed in order of total degree, so a divisor of a
    vector other than itself has a lower index.  Each coordinate i has the
    prefix-OR bitsets {u : u_i <= t}; the AND of a vector's n bitsets is
    the set of its divisors, and the vector is kept when that set is the
    vector alone.  Exponents past int64 max // n are refused, so that no
    degree leaves int64, the range ``from_generators`` accepts."""
    vs = sorted(set(map(tuple, vectors)), key=sum)
    limit = _INT64_MAX // max(n, 1)  # so that no degree leaves int64
    if max((max(v, default=0) for v in vs), default=0) > limit:
        raise DeskScaleExceeded(f"an exponent lies past {limit}, the int64 limit for {n} variables")
    if not n:
        return frozenset(vs)
    at_most = []  # per coordinate i: value t -> the bitset {u : u_i <= t}
    for i in range(n):
        by_value: dict[int, list[int]] = {}
        for j, v in enumerate(vs):
            by_value.setdefault(v[i], []).append(j)
        prefix, table = 0, {}
        for t in sorted(by_value):
            prefix |= bits_at(by_value[t], len(vs))
            table[t] = prefix
        at_most.append(table)
    kept = []
    for v in vs:
        divisors = reduce(operator.and_, map(dict.__getitem__, at_most, v))
        if divisors & (divisors - 1) == 0:
            kept.append(v)
    return frozenset(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    n: int
    gens: frozenset[tuple[int, ...]]

    @staticmethod
    def from_generators(n: int, gens) -> "MonomialIdeal":
        gens = [tuple(g) for g in gens]
        for g in gens:
            if len(g) != n or not all(
                isinstance(e, int) and not isinstance(e, bool) and 0 <= e <= _INT64_MAX
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

    @cached_property
    def radical_complex(self) -> SimplicialComplex:
        """``complex_of_radical``, computed once per ideal."""
        return complex_of_radical(self)

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
        _check_power(m)
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


def sr_complex(c: SimplicialComplex) -> SimplicialComplex:
    """The radical complex of ``sr_ideal(c)``, which is c itself.

    Every singleton must be a face, otherwise a variable would be a
    generator and the translation is not defined.
    """
    if c.is_void:
        raise ValueError("the void complex has no Stanley-Reisner ideal")
    if c.vertex_mask != (1 << c.n) - 1:
        missing = sorted(set(range(1, c.n + 1)) - set(vertices_of(c.vertex_mask)))
        raise ValueError(f"vertices {missing} lie in no facet; their variables would be generators")
    return c


def sr_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Squarefree ideal generated by the minimal nonfaces of the complex
    (refused as by ``sr_complex``)."""
    return _nonface_ideal(sr_complex(c))


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
    trans = minimal_transversals(map(support, ideal.gens), full)
    return SimplicialComplex(ideal.n, frozenset(full & ~t for t in trans))


def minimal_primes(ideal: MonomialIdeal) -> tuple[tuple[int, ...], ...]:
    """Supports W with P_W a minimal prime: complements of the facets of
    the radical complex, so the minimal transversals of the generators."""
    if not ideal.is_squarefree:
        raise ValueError("minimal primes are computed for squarefree input")
    if ideal.is_unit or ideal.is_zero:
        raise ValueError("need a proper nonzero ideal")
    full = (1 << ideal.n) - 1
    return tuple(sorted(vertices_of(full & ~f) for f in ideal.radical_complex.facets))


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
    _check_power(m)
    if not ideal.is_squarefree:
        raise ValueError("symbolic powers are defined here for squarefree input")
    if ideal.is_unit or ideal.is_zero:
        return ideal
    return SymbolicPower.of(ideal, m).ideal()


def symbolic_power(c: SimplicialComplex, m: int) -> MonomialIdeal:
    """m-th symbolic power of the Stanley-Reisner ideal of the complex."""
    return symbolic_power_ideal(sr_ideal(c), m)


def _check_exponent_box(n: int, m: int) -> None:
    """Refuse the exponent box {0..m}^n past 1 << 24 points."""
    if (m + 1) ** n > 1 << 24:
        raise DeskScaleExceeded(
            f"the exponent box {{0..{m}}}^{n} has {(m + 1) ** n} points, "
            f"over the desk-scale limit of {1 << 24}"
        )


def _box_digits(n: int, m: int) -> tuple[list[int], list[int]]:
    """The box {0..m}^n as bitsets: a is the bit sum_i a_i * strides[i],
    strides[i] = (m + 1)^(n - 1 - i), so the bits run in lexicographic
    order, and [a_i = t] is ``zeros[i] << t * strides[i]``.  Refuses the
    box past 1 << 24 points."""
    _check_exponent_box(n, m)
    strides = [(m + 1) ** (n - 1 - i) for i in range(n)]
    zeros = []
    for i, stride in enumerate(strides):
        # digit 0 is the lowest stride of each block of (m + 1) * stride
        # points: the (m + 1)^i blocks are tiled by doubling
        tile, period, count, zero, shift = (1 << stride) - 1, (m + 1) * stride, (m + 1) ** i, 0, 0
        while count:
            if count & 1:
                zero |= tile << shift
                shift += period
            tile |= tile << period
            period *= 2
            count >>= 1
        zeros.append(zero)
    return strides, zeros


@dataclass(frozen=True)
class SquarefreePower:
    """A power of a squarefree ideal I, held as the radical complex of I
    and the exponent m.

    Both powers the oracle decides are determined by that complex: I is
    generated by its minimal nonfaces, and I^(m) is the intersection of
    the prime powers P_{V-F}^m over its facets F.  ``SymbolicPower`` and
    ``OrdinaryPower`` are sibling subclasses that differ only in which
    power ``ideal()`` builds.
    """

    radical_complex: SimplicialComplex
    m: int

    is_unit = False  # the unit ideal has no radical complex to hold

    def __post_init__(self):
        _check_power(self.m)

    @classmethod
    def of(cls, ideal: MonomialIdeal, m: int) -> "SquarefreePower":
        """The m-th power of any proper squarefree ideal (Stanley-Reisner,
        cover or facet ideal alike)."""
        if not ideal.is_squarefree:
            raise ValueError("powers are held here for squarefree input")
        return cls(ideal.radical_complex, m)

    @property
    def n(self) -> int:
        return self.radical_complex.n

    @property
    def facets(self) -> frozenset[int]:
        """The facets (bitmasks over 1..n) of the radical complex."""
        return self.radical_complex.facets

    @property
    def is_zero(self) -> bool:
        return (1 << self.n) - 1 in self.facets

    def radical(self) -> MonomialIdeal:
        """The squarefree ideal, generated by the minimal nonfaces."""
        return _nonface_ideal(self.radical_complex)

    def contract(self, face: int) -> "SquarefreePower | None":
        """Invert the variables of ``face`` (a mask): localization commutes
        with products and intersections, so this is the same power of the
        link, with facets F - face for the facets F containing it,
        relabelled onto the remaining variables in order.  None when the
        contraction is the unit ideal: ``face`` is no face, or every
        variable."""
        full = (1 << self.n) - 1
        star = [f & ~face for f in self.facets if f & face == face]
        if not star or face == full:
            return None
        kept = full & ~face
        return type(self)(SimplicialComplex(kept.bit_count(), frozenset(compactify(star, kept))), self.m)

    def _symbolic_box(self, strides: list[int], zeros: list[int]) -> int:
        """The members of I^(m) in the box {0..m}^n, which holds all its
        minimal generators, as one bitset on ``_box_digits(n, m)``: the
        AND over the facets F of [sum_{i not in F} a_i >= m].  Each sum is
        grown one coordinate at a time as its sets [sum >= s], s = 1..m,
        and the sorted complements V - F share the sets of a common
        prefix."""
        n, m = self.n, self.m
        full = (1 << (m + 1) ** n) - 1
        box = full
        prefix: list[int] = []  # the coordinates summed so far
        levels = [[0] * m]  # levels[k][s - 1]: [sum over prefix[:k] >= s]
        for outside in sorted(tuple(i for i in range(n) if not f >> i & 1) for f in self.facets):
            k = 0
            while k < min(len(prefix), len(outside)) and prefix[k] == outside[k]:
                k += 1
            del prefix[k:], levels[k + 1:]
            for i in outside[k:]:
                digit = [zeros[i] << t * strides[i] for t in range(m + 1)]  # [a_i = t]
                below = [full] + levels[-1]  # below[s]: [sum so far >= s], full for s <= 0
                levels.append([reduce(operator.or_, (digit[t] & below[max(s - t, 0)] for t in range(m + 1)))
                               for s in range(1, m + 1)])
                prefix.append(i)
            box &= levels[-1][-1]
        return box


class SymbolicPower(SquarefreePower):
    """I^(m).  The depth oracle reads its degree complexes from the facets
    in closed form; ``ideal()`` gives the explicit generators for the
    general route."""

    def max_exponents(self) -> tuple[int, ...]:
        """Per-variable maximum exponent over the generators of I^(m): m
        for a variable outside some facet, 0 for one inside every facet
        (it lies in no minimal prime)."""
        common = (1 << self.n) - 1
        for f in self.facets:
            common &= f
        return tuple(0 if common >> i & 1 else self.m for i in range(self.n))

    def ideal(self) -> MonomialIdeal:
        """The explicit generators of I^(m): the members a of its box with
        no member a - e_i, found by n shifted ORs of the box."""
        if self.is_zero:
            return MonomialIdeal.zero(self.n)
        strides, zeros = _box_digits(self.n, self.m)
        box = self._symbolic_box(strides, zeros)
        above = 0  # the a with some a - e_i in the box
        for stride, zero in zip(strides, zeros):
            above |= (box & ~(zero << self.m * stride)) << stride
        bits = bin(box & ~above)[:1:-1]  # bit k at place k
        gens, k = [], bits.find("1")
        while k >= 0:
            gens.append(tuple(k // stride % (self.m + 1) for stride in strides))
            k = bits.find("1", k + 1)
        return MonomialIdeal(self.n, frozenset(gens))


class OrdinaryPower(SquarefreePower):
    """I^m.  The depth oracle decides CM and S2 of S/I^m through I^(m):
    either property makes S/I^m unmixed, so it holds exactly when
    I^m = I^(m) and it holds for I^(m), and ``equals_symbolic()`` tests
    the equality without generators.  ``ideal()`` gives the explicit
    generators for the general route."""

    def ideal(self) -> MonomialIdeal:
        return self.radical().power(self.m)

    def equals_symbolic(self, between_rounds=lambda: None) -> bool:
        """I^m = I^(m), read as membership on the box B = {0..m}^n with no
        generator built.  The minimal generators of both powers lie in B
        (those of I^m are sums of m squarefree ones), so the ideals are
        equal exactly when their members in B are.  I^(m) on B is
        ``_symbolic_box``; I^m on B is S after m rounds, each the OR over
        the minimal nonfaces u of the previous round shifted by u.
        ``between_rounds`` runs after each round (a deadline check)."""
        if self.is_zero:
            return True
        strides, zeros = _box_digits(self.n, self.m)
        symbolic = self._symbolic_box(strides, zeros)
        full = (1 << (self.m + 1) ** self.n) - 1
        shifts = []  # per u: (the a with a + u in the box, the index step of + u)
        for u in self.radical_complex.minimal_nonface_masks():
            at = [i for i in range(self.n) if u >> i & 1]
            shifts.append((full & ~reduce(operator.or_, (zeros[i] << self.m * strides[i] for i in at)),
                           sum(strides[i] for i in at)))
        ordinary = full  # I^0 = S
        for _ in range(self.m):
            ordinary = reduce(operator.or_, ((ordinary & keep) << step for keep, step in shifts))
            between_rounds()
        return ordinary == symbolic

    def symbolic(self) -> SymbolicPower:
        return SymbolicPower(self.radical_complex, self.m)


def symbolic_power_by_intersection(ideal: MonomialIdeal, m: int) -> MonomialIdeal:
    """Independent route: iterated generator-level intersection of the
    prime powers.  Slow; kept as a cross-check oracle."""
    _check_power(m)
    if not ideal.is_squarefree:
        raise ValueError("symbolic powers are defined here for squarefree input")
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


def contract(ideal: MonomialIdeal, inverted) -> MonomialIdeal | None:
    """I S[x_i^{-1} : i in G] intersected with the ring in the other
    variables, in order: delete the G coordinates and re-minimalize.  None
    when that is the unit ideal: G is every variable, or holds the support
    of a generator.  G is a mask or vertex labels, refused out of range."""
    g = _as_mask(inverted, ideal.n)
    kept = [i for i in range(ideal.n) if not g >> i & 1]
    gens = [tuple(gen[i] for i in kept) for gen in ideal.gens]
    if not kept or (0,) * len(kept) in gens:
        return None
    return MonomialIdeal(len(kept), minimalize(gens, len(kept)))


def localized_membership(exponents, ideal: MonomialIdeal, inverted) -> bool:
    """x^a in I S[x_i^{-1} : i in F] for a in Z^n: some generator divides
    x^a on the coordinates outside F."""
    a = tuple(exponents)
    if len(a) != ideal.n:
        raise ValueError("exponent vector length mismatch")
    f = _as_mask(inverted, ideal.n)
    outside = [i for i in range(ideal.n) if not f >> i & 1]
    return any(all(g[i] <= a[i] for i in outside) for g in ideal.gens)


# -- polynomial extension identity ----------------------------------------------------


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
    y = (0,) * n + (1,)  # the new last variable
    ext = MonomialIdeal(n + 1, minimalize([g + (0,) for g in ideal.gens] + [y], n + 1))
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
