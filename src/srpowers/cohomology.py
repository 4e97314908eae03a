"""Degree complexes and an exact depth oracle for monomial ideals.

For a monomial ideal I and a degree a in Z^n with negative support G_a,
the degree complex lives on {1..n} minus G_a: a set H is a face exactly
when no generator u has every coordinate outside G_a union H exceeding a.
The a-graded component of the i-th local cohomology of S/I has dimension
equal to the reduced cohomology of the degree complex in degree
i - |G_a| - 1, so depth and Cohen-Macaulayness reduce to a finite scan:

* replacing any negative coordinate by -1 leaves the degree complex
  unchanged, and
* a coordinate at or above the largest generator exponent makes that
  vertex a cone apex of the degree complex, killing all reduced
  cohomology,

hence only a_i in {-1, ..., rho_i - 1} matters, with rho_i the maximal
exponent of x_i over the generators.  For squarefree ideals this box is
{-1,0}^n and the scan reproduces the classical link-by-link criterion.

One scan serves every input; only the reader of the degree complexes
depends on its type.  For a ``MonomialIdeal`` the reader takes the
minimal nonfaces from the generators and the facets by minimal
transversals (after Takayama).  For a ``SymbolicPower`` it selects the
facets of the radical complex in closed form (Minh-Trung), without
building I^(m); scanning its explicit ideal instead is the cross-check
(sweep ``sym-cube-routes``).

All linear algebra is exact (rationals by default, or a prime field).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bits import (
    antichain_minimal,
    compactify,
    indicator,
    iter_bits,
    minimal_transversals,
    submasks,
    support,
)
from .complexes import SimplicialComplex, void_complex
from .ideals import (
    DeskScaleExceeded,
    MonomialIdeal,
    SymbolicPower,
    complex_of_radical,
    contract,
    sr_ideal,
    symbolic_power,
)
from .linalg import field_name, rank, require_prime


class OracleBudgetExceeded(RuntimeError):
    """The depth scan ran past its time budget."""


def _validate_field(field) -> None:
    """None (the rationals) or a prime."""
    if field is not None:
        require_prime(field)


def _require_proper(ideal) -> None:
    if isinstance(ideal, MonomialIdeal) and ideal.is_unit:
        raise ValueError("the unit ideal is not allowed here")


# -- reduced (co)homology -----------------------------------------------------


def _faces_by_size(facets) -> dict[int, list[int]]:
    faces: set[int] = set()
    for f in facets:
        faces.update(submasks(f))
    by_size: dict[int, list[int]] = {}
    for s in faces:
        by_size.setdefault(s.bit_count(), []).append(s)
    for v in by_size.values():
        v.sort()
    return by_size


def _coboundary_ranks(by_size: dict[int, list[int]], field) -> dict[int, int]:
    """rank of delta^j: C^j -> C^(j+1) for j = -1..top, sign fixed by
    sorted vertex order."""
    top = max(by_size) - 1
    ranks: dict[int, int] = {}
    for j in range(-1, top + 1):
        rows_idx = by_size.get(j + 2, [])
        cols_idx = by_size.get(j + 1, [])
        if not rows_idx or not cols_idx:
            ranks[j] = 0
            continue
        col_pos = {m: i for i, m in enumerate(cols_idx)}
        mat = []
        for r in rows_idx:
            row = [0] * len(cols_idx)
            for idx, b in enumerate(iter_bits(r)):
                row[col_pos[r ^ b]] = -1 if idx % 2 else 1
            mat.append(row)
        ranks[j] = rank(mat, field)
    return ranks


def _cohomology_dims_of_facets(facets, field) -> tuple[int, ...]:
    """Reduced cohomology dimensions, indices -1..dim, for a nonvoid
    complex given by facet masks (labels are irrelevant)."""
    if set(facets) == {0}:
        return (1,)
    by_size = _faces_by_size(facets)
    ranks = _coboundary_ranks(by_size, field)
    top = max(by_size) - 1
    out = []
    for j in range(-1, top + 1):
        cj = len(by_size.get(j + 1, [])) if j >= 0 else 1
        out.append(cj - ranks.get(j, 0) - ranks.get(j - 1, 0))
    return tuple(out)


def reduced_cohomology_dims(c: SimplicialComplex, field: int | None = None) -> tuple[int, ...]:
    """Dimensions of the reduced cohomology of the complex over the field,
    indices -1..dim.  The void complex gives () and {0} gives (1,)."""
    _validate_field(field)
    if c.is_void:
        return ()
    return _cohomology_dims_of_facets(tuple(sorted(c.facets)), field)


def reduced_homology_dims(c: SimplicialComplex, field: int | None = None) -> tuple[int, ...]:
    """Reduced homology via boundary matrices; over a field the dimensions
    match cohomology, but the assembly is independent."""
    _validate_field(field)
    if c.is_void:
        return ()
    if c.is_empty_complex:
        return (1,)
    by_size = _faces_by_size(sorted(c.facets))
    top = max(by_size) - 1
    ranks: dict[int, int] = {}
    for j in range(0, top + 1):
        cols_idx = by_size.get(j + 1, [])
        rows_idx = by_size.get(j, [])
        if not cols_idx or not rows_idx:
            ranks[j] = 0
            continue
        row_pos = {m: i for i, m in enumerate(rows_idx)}
        mat = [[0] * len(cols_idx) for _ in rows_idx]
        for col, f in enumerate(cols_idx):
            for idx, b in enumerate(iter_bits(f)):
                mat[row_pos[f ^ b]][col] = -1 if idx % 2 else 1
        ranks[j] = rank(mat, field)
    out = []
    for j in range(-1, top + 1):
        cj = len(by_size.get(j + 1, [])) if j >= 0 else 1
        out.append(cj - ranks.get(j, 0) - ranks.get(j + 1, 0))
    return tuple(out)


# -- degree complexes ----------------------------------------------------------


def degree_complex(ideal: MonomialIdeal | SymbolicPower, a) -> SimplicialComplex:
    """The degree complex of the ideal at a in Z^n, on ambient {1..n} with
    vertices of the negative support removed.  May be void or {0}.

    A ``SymbolicPower`` is read in closed form from the facets of its
    radical complex (Minh-Trung; Lemma 1.3 of the paper): the facets F - G
    over the facets F containing the negative support G with the
    coordinates of a outside F summing to at most m - 1."""
    _require_proper(ideal)
    a = tuple(a)
    if len(a) != ideal.n:
        raise ValueError("degree vector length mismatch")
    n = ideal.n
    neg = support(x < 0 for x in a)
    if isinstance(ideal, SymbolicPower):
        return SimplicialComplex(n, frozenset(
            f & ~neg
            for f in ideal.facets
            if f & neg == neg and sum(x for i, x in enumerate(a) if not f >> i & 1) < ideal.m
        ))
    ground = ((1 << n) - 1) & ~neg
    if ideal.is_zero:
        return SimplicialComplex(n, frozenset({ground}))
    forbidden: set[int] = set()
    for g in ideal.gens:
        d = support(gi > ai for gi, ai in zip(g, a)) & ~neg
        if d == 0:
            return void_complex(n)
        forbidden.add(d)
    dmin = antichain_minimal(forbidden)
    trans = minimal_transversals(sorted(dmin), ground)
    return SimplicialComplex(n, frozenset(ground ^ t for t in trans))


# -- the box scan ---------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A degree where local cohomology below the dimension is nonzero."""

    index: int  # cohomological index i with H^i_m nonzero
    a: tuple[int, ...]
    cohomology_dim: int

    def to_json(self) -> dict:
        return {"i": self.index, "a": list(self.a), "cohomology_dim": self.cohomology_dim}


@dataclass(frozen=True)
class DepthReport:
    depth: int
    dim: int
    is_cm: bool
    field: int | None
    witnesses: tuple[Witness, ...]

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "dim": self.dim,
            "is_cm": self.is_cm,
            "field": field_name(self.field),
            "witnesses": [w.to_json() for w in self.witnesses],
        }


_MEMO_LIMIT = 1 << 16  # entries per memo table; benchmark traffic peaks near 2k

# The oracle's two memo tables, shared by both readers.
_DIMS: dict = {}  # (compact facets of a degree complex, field) -> cohomology dims
_VANISHES: dict = {}  # (canonical ideal, cap, field) -> none below min(cap, dim)


def _memoized(table: dict, key, compute):
    """``table[key]``, computed by ``compute()`` on a miss.  The table
    keeps at most ``_MEMO_LIMIT`` entries and drops the oldest first."""
    if key in table:
        return table[key]
    value = compute()
    while len(table) >= _MEMO_LIMIT:
        del table[next(iter(table))]
    table[key] = value
    return value


def _dims_of_facets(facets: tuple[int, ...], field) -> tuple[int, ...]:
    union = 0
    for f in facets:
        union |= f
    key = tuple(sorted(compactify(facets, union)))
    return _memoized(_DIMS, (key, field), lambda: _cohomology_dims_of_facets(key, field))


_CHUNK = 4096  # box rows per numpy block; also the deadline granularity
_BOX_LIMIT = 1 << 22  # points of a degree box at desk scale
_EXPONENT_LIMIT = (1 << 15) - 1  # box rows and generators are held as int16


def _box_rows(rho: tuple[int, ...], below: int) -> np.ndarray:
    """The degree box {-1..rho_i - 1}^n as int16 rows with fewer than
    ``below`` negative coordinates, sorted by (negative count,
    lexicographic order)."""
    if max(rho, default=0) > _EXPONENT_LIMIT:
        raise DeskScaleExceeded(f"the exponent {max(rho)} is over the desk-scale limit of {_EXPONENT_LIMIT}")
    size = math.prod(r + 1 for r in rho)
    if size > _BOX_LIMIT:
        raise DeskScaleExceeded(
            f"the degree box has {size} points, over the desk-scale limit of {_BOX_LIMIT}"
        )
    rows = np.indices([r + 1 for r in rho], dtype=np.int16).reshape(len(rho), -1).T - 1
    negc = (rows < 0).sum(axis=1)
    keep = negc < below
    # np.indices enumerates in lexicographic order; a stable sort keeps it
    return rows[keep][np.argsort(negc[keep], kind="stable")]


def _generator_reader(ideal: MonomialIdeal):
    """Degree complexes from the generators (after Takayama).  ``rows``
    yields, per block of box rows, (row, |G_a|, key, is {0}) for the rows
    whose degree complex is neither void nor a cone.  The key is the
    minimal nonfaces relabelled onto 0..k-1, so it names the complex up
    to renaming; ``facets`` turns it into facets by minimal transversals."""
    n = ideal.n
    full = (1 << n) - 1
    U = np.array(sorted(ideal.gens), dtype=np.int16)
    pow2 = np.array([1 << j for j in range(n)], dtype=np.int64)

    def rows(A):
        masks = np.zeros((len(A), len(U)), dtype=np.int64)
        for j in range(n):
            masks |= (U[:, j][None, :] > A[:, j][:, None]).astype(np.int64) << j
        negs = ((A < 0).astype(np.int64) @ pow2).tolist()
        for b, row in enumerate(masks.tolist()):
            neg = negs[b]
            ds = {mm & ~neg for mm in set(row)}
            if 0 in ds:
                continue  # some generator divides x^a here: void
            dmin = antichain_minimal(ds)
            ground = full & ~neg
            covered = 0
            for d in dmin:
                covered |= d
            if ground & ~covered:
                continue  # cone apex, all reduced cohomology vanishes
            # every vertex a nonface: the complex {0}
            point = all(d & (d - 1) == 0 for d in dmin)
            yield b, neg.bit_count(), compactify(sorted(dmin), ground), point

    def facets(dmin: tuple[int, ...]) -> tuple[int, ...]:
        ground = 0
        for d in dmin:
            ground |= d
        return tuple(sorted(ground ^ t for t in minimal_transversals(dmin, ground)))

    return rows, facets


def _select_facets(A: np.ndarray, out: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The closed form on a block of box rows A, given the facet
    complements as 0/1 rows ``out``: which facets each row selects, and
    the indices of the rows whose degree complex is neither void nor a
    cone."""
    neg = A < 0
    sel = (np.maximum(A, 0) @ out.T < m) & (neg @ out.T == 0)
    apex = ((sel @ out == 0) & ~neg).any(axis=1)
    return sel, np.flatnonzero(sel.any(axis=1) & ~apex)


def _closed_form_reader(sp: SymbolicPower):
    """Degree complexes of I^(m) in closed form (Minh-Trung; see
    ``degree_complex``): the complex at a depends on a only through G_a
    and the selected facets.  ``rows`` yields, per block, (row, |G_a|,
    facets, is {0}) for one row of each such pair whose complex is
    neither void nor a cone, in the order of the pairs; the facets are
    the key."""
    n = sp.n
    facets = sorted(sp.facets)
    out = 1 - np.array([indicator(f, n) for f in facets], dtype=np.int32)
    pow2 = np.array([1 << i for i in range(n)], dtype=np.int64)

    def rows(A):
        neg = A < 0
        sel, live = _select_facets(A, out, sp.m)
        if not len(live):
            return
        keys = np.hstack([np.packbits(neg[live], axis=1), np.packbits(sel[live], axis=1)])
        _, first = np.unique(keys, axis=0, return_index=True)
        for u in first.tolist():
            b = int(live[u])
            g = int(neg[b] @ pow2)
            link = tuple(facets[j] & ~g for j in np.flatnonzero(sel[b]).tolist())
            yield b, g.bit_count(), link, link == (0,)

    return rows, lambda link: link


def _scan(
    ideal: MonomialIdeal | SymbolicPower,
    below: int,
    field,
    *,
    first_only: bool,
    deadline: float | None = None,
) -> list[Witness]:
    """Witnesses for nonvanishing local cohomology in indices < below.

    One loop serves both routes; only the reader of the degree complexes
    depends on the type of ``ideal``.  The box is read in blocks sorted
    by (negative-coordinate count, lexicographic order), and a row whose
    (|G_a|, degree complex) pair came up before is skipped, since it
    gives the same indices.  Full mode keeps the first witness per index;
    first-only mode returns at the first hit.
    """
    if below <= 0:
        return []
    rows = _box_rows(ideal.max_exponents(), below)  # refuses what int16 cannot hold
    reader = _closed_form_reader if isinstance(ideal, SymbolicPower) else _generator_reader
    read, facets_of = reader(ideal)
    seen: set = set()
    found: dict[int, Witness] = {}
    for start in range(0, len(rows), _CHUNK):
        _check_deadline(deadline)
        A = rows[start : start + _CHUNK]
        for b, negc, key, point in read(A):
            if (negc, key) in seen:
                continue
            seen.add((negc, key))
            jmax = below - negc - 2  # index j of the complex gives i = j + negc + 1
            if point:  # the complex {0}: reduced cohomology in degree -1
                hits = [(-1, 1)]
            elif jmax < 0:
                continue
            else:
                dims = _dims_of_facets(facets_of(key), field)
                hits = [(j, dims[j + 1]) for j in range(min(jmax, len(dims) - 2) + 1) if dims[j + 1]]
            for j, cdim in hits:
                i = j + negc + 1
                if i not in found:
                    found[i] = Witness(i, tuple(A[b].tolist()), cdim)
                    if first_only:
                        return [found[i]]
            if len(found) == below:
                return sorted(found.values(), key=lambda w: w.index)
    return sorted(found.values(), key=lambda w: w.index)


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise OracleBudgetExceeded("depth scan ran past its budget")


def _radical_complex(ideal: MonomialIdeal | SymbolicPower) -> SimplicialComplex:
    if isinstance(ideal, SymbolicPower):
        return SimplicialComplex(ideal.n, ideal.facets)
    return complex_of_radical(ideal)


def _localize(ideal: MonomialIdeal | SymbolicPower, inverted: int):
    """The ideal with the variables of ``inverted`` inverted, or None for
    the unit ideal (for a symbolic power: ``inverted`` is no face; for a
    proper ideal: every variable is inverted)."""
    if isinstance(ideal, SymbolicPower):
        return ideal.contract(inverted)
    if inverted == (1 << ideal.n) - 1:
        return None
    j = contract(ideal, inverted).ideal
    return None if j.is_unit else j


def quotient_dimension(ideal: MonomialIdeal | SymbolicPower) -> int:
    """Krull dimension of S/I: one more than the radical complex dimension."""
    _require_proper(ideal)
    if ideal.is_zero:
        return ideal.n
    return _radical_complex(ideal).dimension() + 1


def depth_dim(ideal: MonomialIdeal, field: int | None = None, *, deadline: float | None = None) -> DepthReport:
    """Depth and dimension of S/I with one witness per nonvanishing
    cohomological index below the dimension."""
    _validate_field(field)
    _require_proper(ideal)
    n = ideal.n
    if ideal.is_zero:
        return DepthReport(n, n, True, field, ())
    dim_q = quotient_dimension(ideal)
    witnesses = _scan(ideal, dim_q, field, first_only=False, deadline=deadline)
    depth = min((w.index for w in witnesses), default=dim_q)
    return DepthReport(depth, dim_q, depth == dim_q, field, tuple(witnesses))


def _canonical_ideal_key(ideal: MonomialIdeal | SymbolicPower):
    """Memo key: the generators (for a symbolic power, m and the facet
    indicators) with the variables sorted by their sorted columns, so
    equal keys mean equal ideals up to renaming the variables."""
    if isinstance(ideal, SymbolicPower):
        tag = ("symbolic", ideal.m)
        gens = [indicator(f, ideal.n) for f in ideal.facets]
    else:
        tag = ()
        gens = ideal.sorted_gens()
    cols = [tuple(sorted(g[i] for g in gens)) for i in range(ideal.n)]
    order = sorted(range(ideal.n), key=lambda i: cols[i])
    return tag + (ideal.n, tuple(sorted(tuple(g[i] for i in order) for g in gens)))


def _vanishes_below(ideal: MonomialIdeal | SymbolicPower, cap: int, field, deadline) -> bool:
    """No local cohomology of S/I in an index below min(cap, dim S/I).
    CM asks this with cap n, S2 with cap 2, so the two share one memo."""
    return _memoized(
        _VANISHES,
        (_canonical_ideal_key(ideal), cap, field),
        lambda: not _scan(ideal, min(cap, quotient_dimension(ideal)), field,
                          first_only=True, deadline=deadline),
    )


def is_cm(ideal: MonomialIdeal | SymbolicPower, field: int | None = None, *,
          deadline: float | None = None) -> bool:
    """Cohen-Macaulayness of S/I over the field: no local cohomology below
    the dimension."""
    _validate_field(field)
    _require_proper(ideal)
    return ideal.is_zero or _vanishes_below(ideal, ideal.n, field, deadline)


def is_equidimensional(ideal: MonomialIdeal | SymbolicPower) -> bool:
    """All minimal primes cut out quotients of the same dimension."""
    _require_proper(ideal)
    if ideal.is_zero:
        return True
    return _radical_complex(ideal).is_pure()


def is_s2(ideal: MonomialIdeal | SymbolicPower, field: int | None = None, *,
          deadline: float | None = None) -> bool:
    """Serre condition S2: every monomial-prime localization has depth at
    least min(2, its dimension).  Monomial primes suffice because the
    failure locus of a monomial quotient is itself monomial-graded."""
    _validate_field(field)
    _require_proper(ideal)
    if ideal.is_zero:
        return True
    full = (1 << ideal.n) - 1
    for wmask in range(1, full + 1):
        j = _localize(ideal, full & ~wmask)
        if j is None or j.is_zero:
            continue
        if not _vanishes_below(j, 2, field, deadline):
            return False
    return True


def is_generalized_cm(ideal: MonomialIdeal | SymbolicPower, field: int | None = None, *,
                      deadline: float | None = None) -> bool:
    """Generalized Cohen-Macaulay: equidimensional and every one-variable
    localization is Cohen-Macaulay."""
    _validate_field(field)
    _require_proper(ideal)
    if ideal.is_zero:
        return True
    if not is_equidimensional(ideal):
        return False
    for i in range(ideal.n):
        j = _localize(ideal, 1 << i)
        if j is None or j.is_zero:
            continue
        if not is_cm(j, field, deadline=deadline):
            return False
    return True


def reisner_is_cm(c: SimplicialComplex, field: int | None = None) -> bool:
    """Independent Cohen-Macaulay test for a squarefree quotient: reduced
    homology of every link vanishes below the link dimension."""
    _validate_field(field)
    if c.is_void:
        raise ValueError("need a complex with faces")
    for f in sorted(c.faces()):
        link = c.link(f)
        ld = link.dimension()
        dims = reduced_homology_dims(link, field)
        if any(dims[j + 1] for j in range(-1, ld)):
            return False
    return True


def qb_connectivity_consequence(c: SimplicialComplex, m: int, kind: str) -> bool:
    """Degree complexes of a power at the unit vectors all equal the
    radical complex (and at zero), the combinatorial step behind the
    connectivity consequence of quasi-Buchsbaumness.  Requires m >= 2;
    the identity genuinely fails at m = 1."""
    if m < 2:
        raise ValueError("the unit-degree identity needs m >= 2")
    if kind == "symbolic":
        ideal = symbolic_power(c, m)
    elif kind == "ordinary":
        ideal = sr_ideal(c).power(m)
    else:
        raise ValueError("kind must be 'symbolic' or 'ordinary'")
    zero = (0,) * c.n
    if degree_complex(ideal, zero).facets != c.facets:
        return False
    for i in range(c.n):
        e = tuple(1 if j == i else 0 for j in range(c.n))
        if degree_complex(ideal, e).facets != c.facets:
            return False
    return True
