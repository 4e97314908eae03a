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

The oracle has two routes, picked by the type of its input.  A
``MonomialIdeal`` is scanned from its generators, each degree complex
built by minimal transversals (after Takayama).  A ``SymbolicPower`` is
scanned from the facets of its radical complex, each degree complex in
closed form (Minh-Trung), without building I^(m); its explicit ideal
through the first route is the cross-check (sweep ``sym-cube-routes``).

All linear algebra is exact (rationals by default, or a prime field).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bits import antichain_minimal, compactify, iter_bits, minimal_transversals, submasks
from .complexes import SimplicialComplex, void_complex
from .ideals import (
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
    full = (1 << n) - 1
    neg = 0
    for i, ai in enumerate(a):
        if ai < 0:
            neg |= 1 << i
    if isinstance(ideal, SymbolicPower):
        return SimplicialComplex(n, frozenset(
            f & ~neg
            for f in ideal.facets
            if f & neg == neg and sum(x for i, x in enumerate(a) if not f >> i & 1) < ideal.m
        ))
    ground = full & ~neg
    if ideal.is_zero:
        return SimplicialComplex(n, frozenset({ground}))
    forbidden: set[int] = set()
    for g in ideal.gens:
        d = 0
        for i, (gi, ai) in enumerate(zip(g, a)):
            if gi > ai:
                d |= 1 << i
        d &= ~neg
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


_FACETS_CACHE: dict = {}
_DIMS_CACHE: dict = {}


def _facets_of_degree_complex(ground: int, dmin_key: tuple[int, ...]) -> tuple[int, ...]:
    cached = _FACETS_CACHE.get((ground, dmin_key))
    if cached is None:
        trans = minimal_transversals(dmin_key, ground)
        cached = tuple(sorted(ground ^ t for t in trans))
        _FACETS_CACHE[(ground, dmin_key)] = cached
    return cached


def _dims_of_facets(facets: tuple[int, ...], field) -> tuple[int, ...]:
    support = 0
    for f in facets:
        support |= f
    key = (tuple(sorted(compactify(facets, support))), field)
    cached = _DIMS_CACHE.get(key)
    if cached is None:
        cached = _cohomology_dims_of_facets(key[0], field)
        _DIMS_CACHE[key] = cached
    return cached


_CHUNK = 4096  # box rows per numpy block; also the deadline granularity


def _box_rows(rho: tuple[int, ...], below: int) -> np.ndarray:
    """The degree box {-1..rho_i - 1}^n as int16 rows with fewer than
    ``below`` negative coordinates, sorted by (negative count,
    lexicographic order)."""
    size = 1
    for r in rho:
        size *= r + 1
        if size > 1 << 22:
            raise ValueError("degree box too large for desk scale")
    rows = np.indices([r + 1 for r in rho], dtype=np.int16).reshape(len(rho), -1).T - 1
    negc = (rows < 0).sum(axis=1)
    keep = negc < below
    # np.indices enumerates in lexicographic order; a stable sort keeps it
    return rows[keep][np.argsort(negc[keep], kind="stable")]


def _scan(
    ideal: MonomialIdeal,
    below: int,
    field,
    *,
    first_only: bool,
    deadline: float | None = None,
) -> list[Witness]:
    """Witnesses for nonvanishing local cohomology in indices < below.

    Full mode keeps the first witness per index; first-only mode returns
    at the first hit.  Deterministic: the box is scanned sorted by
    (negative-coordinate count, lexicographic order).
    """
    if below <= 0:
        return []
    n = ideal.n
    full = (1 << n) - 1
    gens = sorted(ideal.gens)
    rho = ideal.max_exponents()
    rows = _box_rows(rho, below)
    U = np.array(gens, dtype=np.int16)
    pow2 = np.array([1 << j for j in range(n)], dtype=np.int64)
    found: dict[int, Witness] = {}
    for start in range(0, len(rows), _CHUNK):
        _check_deadline(deadline)
        A = rows[start : start + _CHUNK]
        masks = np.zeros((len(A), len(gens)), dtype=np.int64)
        for j in range(n):
            masks |= (U[:, j][None, :] > A[:, j][:, None]).astype(np.int64) << j
        neg_masks = ((A < 0).astype(np.int64) @ pow2).tolist()
        mask_lists = masks.tolist()
        for b, a in enumerate(A.tolist()):
            neg = neg_masks[b]
            negc = neg.bit_count()
            ds = set()
            void = False
            for mm in set(mask_lists[b]):
                d = mm & ~neg
                if d == 0:
                    void = True
                    break
                ds.add(d)
            if void:
                continue
            dmin = antichain_minimal(ds)
            ground = full & ~neg
            covered = 0
            for d in dmin:
                covered |= d
            if ground & ~covered:
                continue  # cone apex, all reduced cohomology vanishes
            dmin_key = tuple(sorted(dmin))
            facets = _facets_of_degree_complex(ground, dmin_key)
            hits: list[tuple[int, int]] = []
            if facets == (0,):
                hits.append((-1, 1))
            else:
                jmax = below - negc - 2
                if jmax < 0:
                    continue
                dims = _dims_of_facets(facets, field)
                for j in range(0, min(jmax, len(dims) - 2) + 1):
                    if dims[j + 1]:
                        hits.append((j, dims[j + 1]))
                        if first_only:
                            break
            for j_hit, cdim in hits:
                i = j_hit + negc + 1
                if i >= below or i in found:
                    continue
                w = Witness(i, tuple(a), cdim)
                if first_only:
                    return [w]
                found[i] = w
            if len(found) == below:
                return sorted(found.values(), key=lambda w: w.index)
    return sorted(found.values(), key=lambda w: w.index)


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise OracleBudgetExceeded("depth scan ran past its budget")


def _select_facets(A: np.ndarray, out: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The closed form on a block of box rows A, given the facet
    complements as 0/1 rows ``out``: which facets each row selects, and
    the indices of the rows whose degree complex is neither void nor a
    cone."""
    neg = A < 0
    sel = (np.maximum(A, 0) @ out.T < m) & (neg @ out.T == 0)
    apex = ((sel @ out == 0) & ~neg).any(axis=1)
    return sel, np.flatnonzero(sel.any(axis=1) & ~apex)


def _scan_symbolic(sp: SymbolicPower, below: int, field, *, deadline: float | None = None) -> bool:
    """Whether some local cohomology of S/I^(m) in an index < below is
    nonzero, read from the facets of the radical complex.

    The degree complex at a is <F - G_a : G_a <= F, sum_{i not in F} a_i
    <= m - 1> (see ``degree_complex``), so a box row needs cohomology only
    when it selects some facet (else void) and no vertex outside G_a lies
    in every selected facet (else a cone).  The rest depend on a only
    through (G_a, selected facets) and are computed once per pair.
    """
    if below <= 0:
        return False
    n, m = sp.n, sp.m
    facets = sorted(sp.facets)
    out = 1 - np.array([[f >> i & 1 for i in range(n)] for f in facets], dtype=np.int32)
    # a vertex in every facet is an apex of every degree complex, so its
    # coordinate needs no value above -1; the other coordinates stop at m - 1
    rows = _box_rows(tuple(m if out[:, i].any() else 0 for i in range(n)), below)
    pow2 = np.array([1 << i for i in range(n)], dtype=np.int64)
    seen: set[bytes] = set()
    for start in range(0, len(rows), _CHUNK):
        _check_deadline(deadline)
        A = rows[start : start + _CHUNK]
        neg = A < 0
        sel, live = _select_facets(A, out, m)
        if not len(live):
            continue
        keys = np.hstack([np.packbits(neg[live], axis=1), np.packbits(sel[live], axis=1)])
        _, first = np.unique(keys, axis=0, return_index=True)
        for u in first.tolist():
            key = keys[u].tobytes()
            if key in seen:
                continue
            seen.add(key)
            b = live[u]
            g = int(neg[b] @ pow2)
            negc = g.bit_count()
            link = tuple(facets[j] & ~g for j in np.flatnonzero(sel[b]).tolist())
            if link == (0,):  # the complex {0}: reduced cohomology in degree -1
                if negc < below:
                    return True
                continue
            jmax = below - negc - 2
            if jmax >= 0 and any(_dims_of_facets(link, field)[1 : jmax + 2]):
                return True
    return False


def _radical_complex(ideal: MonomialIdeal | SymbolicPower) -> SimplicialComplex:
    if isinstance(ideal, SymbolicPower):
        return SimplicialComplex(ideal.n, ideal.facets)
    return complex_of_radical(ideal)


def _nonvanishing_below(ideal: MonomialIdeal | SymbolicPower, below: int, field, deadline) -> bool:
    """Some local cohomology in an index < below is nonzero: the closed
    form for a symbolic power, the general scan for any other ideal."""
    if isinstance(ideal, SymbolicPower):
        return _scan_symbolic(ideal, below, field, deadline=deadline)
    return bool(_scan(ideal, below, field, first_only=True, deadline=deadline))


def _localize(ideal: MonomialIdeal | SymbolicPower, inverted: int):
    """The ideal with the variables of ``inverted`` inverted, or None for
    the unit ideal (for a symbolic power: ``inverted`` is no face)."""
    if isinstance(ideal, SymbolicPower):
        return ideal.contract(inverted)
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


_CM_MEMO: dict = {}


def _canonical_ideal_key(ideal: MonomialIdeal | SymbolicPower):
    """Memo key: the generators (for a symbolic power, m and the facet
    indicators) with the variables sorted by their sorted columns, so
    equal keys mean equal ideals up to renaming the variables."""
    if isinstance(ideal, SymbolicPower):
        tag = ("symbolic", ideal.m)
        gens = [tuple(f >> i & 1 for i in range(ideal.n)) for f in ideal.facets]
    else:
        tag = ()
        gens = ideal.sorted_gens()
    cols = [tuple(sorted(g[i] for g in gens)) for i in range(ideal.n)]
    order = sorted(range(ideal.n), key=lambda i: cols[i])
    return tag + (ideal.n, tuple(sorted(tuple(g[i] for i in order) for g in gens)))


def is_cm(ideal: MonomialIdeal | SymbolicPower, field: int | None = None, *,
          deadline: float | None = None) -> bool:
    """Cohen-Macaulayness of S/I over the field: no local cohomology below
    the dimension."""
    _validate_field(field)
    _require_proper(ideal)
    if ideal.is_zero:
        return True
    key = (_canonical_ideal_key(ideal), field)
    cached = _CM_MEMO.get(key)
    if cached is None:
        cached = not _nonvanishing_below(ideal, quotient_dimension(ideal), field, deadline)
        _CM_MEMO[key] = cached
    return cached


def is_equidimensional(ideal: MonomialIdeal | SymbolicPower) -> bool:
    """All minimal primes cut out quotients of the same dimension."""
    _require_proper(ideal)
    if ideal.is_zero:
        return True
    return _radical_complex(ideal).is_pure()


_S2_MEMO: dict = {}


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
        key = (_canonical_ideal_key(j), field)
        cached = _S2_MEMO.get(key)
        if cached is None:
            bound = min(2, quotient_dimension(j))
            cached = not _nonvanishing_below(j, bound, field, deadline)
            _S2_MEMO[key] = cached
        if not cached:
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
