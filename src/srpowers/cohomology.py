"""Degree complexes and an exact depth oracle for monomial ideals.

For a monomial ideal I and a degree a in Z^n with negative support G_a,
the degree complex lives on {1..n} minus G_a: a set H is a face exactly
when no generator u has every coordinate outside G_a union H exceeding a.
The a-graded component of the i-th local cohomology of S/I has dimension
equal to the reduced cohomology of the degree complex in degree
i - |G_a| - 1, so depth and Cohen-Macaulayness reduce to a finite scan:

* the degree complex of I at a is that of the localization I_G, which
  inverts the variables of G = G_a, at a with the G coordinates dropped
  (Takayama; the paper's Lemma 1.3 takes the same step), and it is void
  unless G is a face of the radical complex, and
* a coordinate at or above the largest generator exponent makes that
  vertex a cone apex of the degree complex, killing all reduced
  cohomology,

hence the scan reads only the nonnegative box {0..rho_i - 1}^n, with
rho_i the maximal exponent of x_i over the generators, of I_G for each
face G: for squarefree ideals the box is {0}, the classical link-by-link
criterion.  For I^(m), I_G is I^(m) of the link of G, so each box is
keyed off the link's facets and I_G is built only on a miss.

One walk (``_walk``) serves CM, S2 and gCM: each asks every face G for
no cohomology of I_G below a bound of its own at G (Takayama), d - |G|
for CM (d = dim S/I), the same but nothing at G = 0 for gCM, and
min(2, dim S/I_G) for S2, 0 at a facet.  Each box verdict is one
entry of the one memo table, ``_VANISHES``, which the three share.  For
I^(m) the walk lists only the faces that are intersections of facets.
At any other G the link is a cone: some vertex v outside G lies in every
facet through G.  I^(m) has no embedded primes, so x_v is then a free
variable of I_G, rho_v = 0 and the box has no row, the cone-apex step
above.  An explicit ideal keeps every face, as it can have an embedded
prime there: (x1^2, x1x2) has depth 0.

One scan serves every input; only the reader of the degree complexes
depends on its type.  For a ``MonomialIdeal`` the reader takes the
minimal nonfaces from the generators, each mask {j : u_j > a_j} in a
byte-wide field, on at most ``_TABLE_VERTICES`` variables by reads of the
``_DOWN`` table below, past them by ``antichain_minimal``, which
``degree_complex`` uses throughout as the reference; the facets are the
complements of their minimal transversals (after Takayama).  For a
``SymbolicPower`` it selects the facets of the radical complex in closed
form (Minh-Trung), without building I^(m); scanning its explicit ideal
instead is the cross-check (sweep ``sym-cube-routes``).

The scan reads one box row per orbit of the twin symmetry.  Vertices u
and v are twins when swapping them maps the facets of I^(m), or the
generators of an explicit ideal, to themselves; twinship is an
equivalence relation, as (u w) = (u v)(v w)(u v).  For a permutation
sigma of twins the degree complex at sigma(a) is sigma of the one at a,
by the closed form sum_{i not in F} a_i < m and by Takayama's formula
alike, so both have the same cohomology.  The scan keeps the
lexicographically first row with cohomology in each index; the least
row of an orbit is the one nondecreasing along each twin class, read in
position order, and it comes no later.  So ``_box_rows`` yields only
those rows, in the same order, and every witness, depth and verdict is
that of the full box.  This is isomorph rejection (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998).

An ``OrdinaryPower`` I^m is not scanned.  CM and S2 each make S/I^m
unmixed (S1), and the unmixed part of I^m is I^(m), so S/I^m has either
property exactly when I^m = I^(m) and S/I^(m) has it: general ring
theory, not the paper's criterion.  gCM asks CM of each I_v, so for I^m
it needs I_v^m = I_v^(m) at each vertex v.  So I^m reaches I^(m) through
``_scanned``, which tests I_G^m = I_G^(m) at the faces the property
needs: G = 0 for CM and S2, each vertex for gCM.  Past a held "not CM" for I^(m), equality is
tested on the box {0..m}^n that holds all minimal generators of both
(``OrdinaryPower.equals_symbolic``), which builds no generator and costs
much less than a cold symbolic verdict; scanning the explicit I^m
instead is the cross-check (sweep ``ord-cube-routes``).

All linear algebra is exact (rationals by default, or a prime field).
Over Q the coboundaries are ranked over F_2 first, one int per row: by
universal coefficients dim H^j(K; Q) <= dim H^j(K; F_2), so a complex
with no F_2 cohomology in the indices asked has none over Q, and only the
others are ranked again over Q on signed rows.  Over F_2 the bitset rank
is the answer; an odd prime ranks the signed rows directly, since F_2
says nothing about F_p.

Every coboundary is read off one listing of the faces by size
(``_faces_by_size``, capped at the size of the top rows): delta^j has a
row for each face r of size j + 2, with its entries at the faces r ^ b,
b a vertex of r.  On a complex of at most ``_TABLE_VERTICES`` = 12
vertices (its facets compacted onto the vertices they use) the face set
is one int, the OR of the submask closures ``_DOWN[f]`` over the facets,
and the F_2 row of r is ``_BOUNDARY[r]``, bit s set for each face s of r
one vertex smaller, so the columns are face masks and nothing is
numbered.  The tables grow by doubling on first need and stop at the
ceiling, where each is about 1 MB; past it the faces are listed from the
facets and the F_2 rows number their columns.  The signed rows, over Q
and odd primes, are dicts {r ^ b: +-1} keyed by face mask, the sign set
by the place of b in r.  ``reduced_homology_dims`` assembles its own
signed boundary matrices column by column from the same listing: it is
the independent side of the Reisner cross-check (``reisner_is_cm``).
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, compress, islice, product
from operator import and_, or_
from typing import Iterator

from .bits import (
    _BOX_LIMIT,
    antichain_minimal,
    compactify,
    iter_bits,
    minimal_transversals,
    submasks,
    support,
)
from .complexes import SimplicialComplex, void_complex
from .ideals import (
    DeskScaleExceeded,
    MonomialIdeal,
    OrdinaryPower,
    SymbolicPower,
    contract,
    sr_ideal,
    symbolic_power,
)
from .linalg import check_field, field_name, rank, rank_f2


class OracleBudgetExceeded(RuntimeError):
    """The depth scan ran past its time budget."""


def check_budget(seconds: float | None) -> float | None:
    """``seconds`` when it is a time budget, a finite number > 0, or None
    for no budget; ValueError otherwise."""
    if seconds is not None and not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(f"budget must be a finite number of seconds > 0, not {seconds!r}")
    return seconds


def _require_proper(ideal) -> None:
    if ideal.is_unit:
        raise ValueError("the unit ideal is not allowed here")


# -- reduced (co)homology -----------------------------------------------------


# The F_2 row tables (see above), indexed by a face mask s: _DOWN[s] has
# bit t set for every t <= s, _BOUNDARY[s] bit s ^ b for every vertex b
# of s.  Both hold only the empty face until a complex needs more.
_TABLE_VERTICES = 12
_DOWN = [1]
_BOUNDARY = [0]


def _grow_tables(vertices: int) -> None:
    """Extend both tables to every face on ``vertices`` vertices, doubling
    them: for s < t = 2^i, _DOWN[s | t] = _DOWN[s] | _DOWN[s] << t and
    _BOUNDARY[s | t] = _BOUNDARY[s] << t | 1 << s."""
    while len(_DOWN) < 1 << vertices:
        t = len(_DOWN)
        _DOWN.extend([d | d << t for d in _DOWN])
    while len(_BOUNDARY) < 1 << vertices:
        t = len(_BOUNDARY)
        _BOUNDARY.extend([r << t | 1 << s for s, r in enumerate(_BOUNDARY)])


def _faces_by_size(facets, top: int) -> list[list[int]]:
    """The faces of the given facets with at most ``top`` vertices, by
    size 0..top, each list sorted.  On at most ``_TABLE_VERTICES``
    vertices the face set is one int, the OR of ``_DOWN[f]`` over the
    facets.  Past them a facet within the cap gives its submasks, a
    larger one its ``combinations`` of each size up to the cap, so a
    small cap stays small however large the facets are."""
    used = reduce(or_, facets)
    if used >> _TABLE_VERTICES:
        found: set[int] = set()
        for f in facets:
            if f.bit_count() <= top:
                found.update(submasks(f))
            else:
                vertices = list(iter_bits(f))
                for size in range(top + 1):
                    found.update(map(sum, combinations(vertices, size)))
        faces = sorted(found)
    else:
        _grow_tables(used.bit_length())
        closure = 0
        for f in facets:
            closure |= _DOWN[f]
        faces = [s for s, bit in enumerate(bin(closure)[:1:-1]) if bit == "1"]
    by_size: list[list[int]] = [[] for _ in range(top + 1)]
    for s in faces:
        size = s.bit_count()
        if size <= top:
            by_size[size].append(s)
    return by_size


def _table_minimal(family: int, masks) -> list[int]:
    """The members d of ``masks`` that are inclusion-minimal in the
    family given as one int, bit d set for each member d, on at most
    ``_TABLE_VERTICES`` vertices (tables grown): d is minimal exactly
    when the only member below it is d, ``family & _DOWN[d] == 1 << d``."""
    return [d for d in masks if family & _DOWN[d] == 1 << d]


def _dims(by_size: list[list[int]], rank_of) -> tuple[int, ...]:
    """Reduced cohomology dimensions in indices -1..len(by_size) - 3 from
    the faces by size: delta^j has a row for each face of size j + 2 and
    a column for each of size j + 1, and ``rank_of(faces)`` ranks the
    rows of the given faces."""
    ranks = [0] + [rank_of(faces) if faces else 0 for faces in by_size[1:]]  # ranks[j + 2]: delta^j
    return tuple(len(by_size[j + 1]) - ranks[j + 1] - ranks[j + 2] for j in range(-1, len(by_size) - 2))


def _cohomology_dims_of_facets(facets, field, through: int) -> tuple[int, ...]:
    """Reduced cohomology dimensions, indices -1..min(through, dim), for a
    nonvoid complex given by facet masks, relabelled onto the vertices
    they use.  Over Q the F_2 ranks come first (see above)."""
    if set(facets) == {0}:
        return (1,)
    facets = compactify(facets, reduce(or_, facets))
    through = min(through, max(f.bit_count() for f in facets) - 1)
    by_size = _faces_by_size(facets, through + 2)
    if field is None or field == 2:
        if reduce(or_, facets) >> _TABLE_VERTICES:
            col = {s: 1 << i for faces in by_size for i, s in enumerate(faces)}
            out = _dims(by_size, lambda faces: rank_f2([sum(col[r ^ b] for b in iter_bits(r)) for r in faces]))
        else:
            out = _dims(by_size, lambda faces: rank_f2([_BOUNDARY[r] for r in faces]))
        if field == 2 or not any(out):
            return out
    return _dims(by_size, lambda faces: rank(
        [{r ^ b: -1 if i % 2 else 1 for i, b in enumerate(iter_bits(r))} for r in faces], field))


def reduced_cohomology_dims(c: SimplicialComplex, field: int | None = None) -> tuple[int, ...]:
    """Dimensions of the reduced cohomology of the complex over the field,
    indices -1..dim.  The void complex gives () and {0} gives (1,)."""
    check_field(field)
    if c.is_void:
        return ()
    return _cohomology_dims_of_facets(c.facets, field, c.dimension())


def reduced_homology_dims(c: SimplicialComplex, field: int | None = None) -> tuple[int, ...]:
    """Reduced homology via boundary matrices; over a field the dimensions
    match cohomology, but the assembly is independent."""
    check_field(field)
    if c.is_void:
        return ()
    top = c.dimension()
    by_size = _faces_by_size(c.facets, top + 1)  # every size 0..top + 1 has faces
    ranks: dict[int, int] = {}
    for j in range(0, top + 1):
        rows: dict[int, dict[int, int]] = {}  # a face of size j -> its row, keyed by faces of size j + 1
        for f in by_size[j + 1]:
            for i, b in enumerate(iter_bits(f)):
                rows.setdefault(f ^ b, {})[f] = -1 if i % 2 else 1
        ranks[j] = rank(list(rows.values()), field)
    return tuple(len(by_size[j + 1]) - ranks.get(j, 0) - ranks.get(j + 1, 0) for j in range(-1, top + 1))


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


# Entries of the memo table; benchmark traffic peaks near 850 entries.
_MEMO_LIMIT = 1 << 16

# The oracle's one memo table, shared by both readers and every query.
_VANISHES: dict = {}  # (ideal key, field) -> CM; ("box", key of I_G, below, field) -> box vanishes


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


_CHUNK = 4096  # box rows per block: the deadline granularity of a scan
_EXPONENT_LIMIT = (1 << 15) - 1  # the largest exponent of a degree box at desk scale


def _check_box(rho: tuple[int, ...]) -> None:
    """Refuse an ideal whose degree box {-1..rho_i - 1}^n is past desk
    scale, or whose exponents are."""
    if max(rho, default=0) > _EXPONENT_LIMIT:
        raise DeskScaleExceeded(f"the exponent {max(rho)} is over the desk-scale limit of {_EXPONENT_LIMIT}")
    size = math.prod(r + 1 for r in rho)
    if size > _BOX_LIMIT:
        raise DeskScaleExceeded(f"the degree box has {size} points, over the desk-scale limit of {_BOX_LIMIT}")


Classes = tuple[tuple[int, ...], ...]  # twin classes: a partition of the positions, each in order


def _twin_classes(ideal: MonomialIdeal | SymbolicPower) -> Classes:
    """The classes of twin vertices, each in position order: u and v are
    twins when swapping them maps the generators of an explicit ideal, or
    the facets of a symbolic power (as 0/1 vectors), to themselves.
    Twinship is an equivalence relation, so a vertex joins the first class
    whose least member is its twin."""
    members = ideal.gens if isinstance(ideal, MonomialIdeal) else {
        tuple(f >> i & 1 for i in range(ideal.n)) for f in ideal.facets}
    classes: list[list[int]] = []
    for v in range(ideal.n):
        for c in classes:
            u = c[0]
            if all(g[:u] + (g[v],) + g[u + 1:v] + (g[u],) + g[v + 1:] in members for g in members):
                c.append(v)
                break
        else:
            classes.append([v])
    return tuple(map(tuple, classes))


def _box_rows(rho: tuple[int, ...], classes: Classes, lanes: list[list[int]], start: int = 0,
              mask: int | None = None) -> Iterator[Iterator[tuple[tuple[int, ...], int]]]:
    """The rows a of the nonnegative degree box {0..rho_i - 1}^n that are
    nondecreasing along each twin class, in lexicographic order, each with
    start + sum_i lanes[i][a_i] (ANDed with ``mask``, if given), in blocks
    of at most ``_CHUNK`` pairs.  With no twins that is every row.

    One walk pairs the rows with their sums, so they cannot fall out of
    step.  It runs over the leading coordinates, the sum over each prefix
    formed once, down to a tail of positions k.. whose sums are listed
    once and extended by each prefix, from the first tail row whose a_k
    meets its class.  The tail is the last position, grown backwards
    while the positions after k are twin-free and it has at most
    ``_CHUNK`` rows.  The blocks share one walk, so each is read before
    the next; no row is held past its turn, which spares the garbage
    collector."""
    n = len(rho)
    if not n:  # the box on no vertices: the one empty row
        return iter([iter([((), start if mask is None else mask & start)])])
    prev = [-1] * n  # the previous position of the class, or -1
    for c in classes:
        for u, v in zip(c, c[1:]):
            prev[v] = u
    free = {c[0] for c in classes if len(c) == 1}
    k = n - 1
    while k > 0 and k in free and math.prod(rho[k - 1:]) <= _CHUNK:
        k -= 1
    tail_sums = list(map(sum, product(*lanes[k:])))
    rest = [range(r) for r in rho[k + 1:]]
    stride = math.prod(rho[k + 1:])  # tail rows per value of a_k

    def pairs(i: int, row: tuple[int, ...], s: int) -> Iterator[tuple[tuple[int, ...], int]]:
        lo = row[prev[i]] if prev[i] >= 0 else 0
        if i < k:
            return chain.from_iterable(pairs(i + 1, row + (t,), s + x) for t, x in enumerate(lanes[i][lo:], lo))
        sums = map(s.__add__, islice(tail_sums, lo * stride, None))
        return zip(product(*zip(row), range(lo, rho[k]), *rest),
                   sums if mask is None else map(mask.__and__, sums))

    # a nondecreasing row on a class of j positions is a j-multiset of range(rho)
    count = math.prod(math.comb(rho[c[0]] + len(c) - 1, len(c)) for c in classes)
    walk = pairs(0, (), start)
    return (islice(walk, _CHUNK) for _ in range(0, count, _CHUNK))


def _generator_reader(ideal: MonomialIdeal):
    """Degree complexes from the generators (after Takayama).  The lanes
    of ``_box_rows`` give each row a the masks {j : u_j > a_j} of the
    generators u as fields of 1, 2, 4 or 8 bytes of one int, one field per
    generator: the sum over the coordinates j of the lanes with bit j set
    for the generators above a_j.  ``key_of`` casts the bytes of the int
    to the distinct masks in one call and reads the minimal nonfaces off
    them, which name the degree complex, or None when that is void or a
    cone; ``facets`` turns them into facets, the complements of their
    minimal transversals.  On at most ``_TABLE_VERTICES`` variables the
    minimal nonfaces are ``_DOWN`` table reads (``_table_minimal``), past
    them ``antichain_minimal``.  A scanned box has a row, so at most 22
    variables (``_check_box``) and 4-byte fields."""
    n = ideal.n
    full = (1 << n) - 1
    gens, rho = sorted(ideal.gens), ideal.max_exponents()
    size = 1 << (max(n - 1, 0) // 8).bit_length()  # bytes per field: 8 * size >= n
    fmt, length = {1: "B", 2: "H", 4: "I", 8: "Q"}[size], size * len(gens)
    # above[j][t]: bit j in the field of each generator u with u_j > t
    above = [[sum(1 << 8 * size * k + j for k, u in enumerate(gens) if u[j] > t) for t in range(rho[j])]
             for j in range(n)]
    table = n <= _TABLE_VERTICES
    if table:
        _grow_tables(n)

    def key_of(packed: int) -> tuple[int, ...] | None:
        ds = set(memoryview(packed.to_bytes(length, sys.byteorder)).cast(fmt))
        if 0 in ds:
            return None  # some generator divides x^a here: void
        dmin = _table_minimal(sum(map((1).__lshift__, ds)), ds) if table else antichain_minimal(ds)
        # else a cone apex: all reduced cohomology vanishes
        return tuple(sorted(dmin)) if reduce(or_, dmin, 0) == full else None

    def facets(dmin: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sorted(full ^ t for t in minimal_transversals(dmin, full)))

    return (above, 0, None), key_of, facets


def _closed_form_reader(sp: SymbolicPower):
    """Degree complexes of I^(m) in closed form (Minh-Trung; see
    ``degree_complex``): the complex at a is spanned by the facets F with
    sum_{i not in F} a_i < m.  The lanes of ``_box_rows`` give each row
    the selected facets as one int; ``key_of`` gives them as a tuple, the
    key, or None when the complex is void or a cone.

    Each facet has a field of one int holding its sum plus a bias, so that
    the high bit of a field is set exactly when the sum is at least m: the
    selection is ``high & ~(sum + bias)``, which is ``high & (~bias - sum)``,
    so the lanes count down from ``~bias``.  A vertex in every selected
    facet is a cone apex."""
    facets = sorted(sp.facets)
    n, m, rho = sp.n, sp.m, sp.max_exponents()
    width = (n * m).bit_length() + 1  # above any sum over the box, plus the bias
    ones = sum(1 << width * j for j in range(len(facets)))
    high = ones << width - 1
    # a_i adds to the fields of the facets missing i
    steps = [sum(1 << width * j for j, f in enumerate(facets) if not f >> i & 1) for i in range(n)]
    lanes = [[-t * step for t in range(r)] for step, r in zip(steps, rho)]
    top, flag = 1 << width * len(facets), bytes.maketrans(b"01", b"\0\1")

    def key_of(sel: int) -> tuple[int, ...] | None:
        # the high bit of each field, lowest field first, as bytes 0 or 1
        chosen = tuple(compress(facets, bin(sel | top)[:1:-1][width - 1 :: width].encode().translate(flag)))
        return chosen if chosen and not reduce(and_, chosen) else None  # else void, or a cone

    return (lanes, ~(((1 << width - 1) - m) * ones), high), key_of, lambda link: link


def _scan(ideal: MonomialIdeal | SymbolicPower, below: int, field, *,
          first_only: bool, deadline: float | None = None) -> list[Witness]:
    """Witnesses for nonvanishing local cohomology in indices < below at
    the nonnegative degrees; the localizations I_G reach the others.

    One loop serves both routes; only the reader of the degree complexes
    depends on the type of ``ideal``.  The box is read in blocks in
    lexicographic order, one row per orbit of the twin classes (see
    above), and a row whose reading or degree complex came up before is
    skipped, since it gives the same indices.  At a nonnegative degree,
    index j of the complex gives cohomological index i = j + 1, so only
    the cohomology in indices up to below - 2 is computed.  Full mode
    keeps the first witness per index; first-only mode returns at the
    first hit.
    """
    if below <= 0:
        return []
    rho = ideal.max_exponents()
    _check_box(rho)  # refuses past desk scale, before the lanes are built
    if 0 in rho:
        return []  # a box with no row
    reader = _closed_form_reader if isinstance(ideal, SymbolicPower) else _generator_reader
    sums, key_of, facets_of = reader(ideal)
    read: set[int] = set()
    seen: set = set()
    found: dict[int, Witness] = {}
    for block in _box_rows(rho, _twin_classes(ideal), *sums):
        _check_deadline(deadline)
        for a, raw in block:
            if raw in read:
                continue
            read.add(raw)
            key = key_of(raw)
            if key is None or key in seen:
                continue
            seen.add(key)
            dims = _cohomology_dims_of_facets(facets_of(key), field, below - 2)
            for i, cdim in enumerate(dims[:below]):  # dims start at index -1
                if cdim and i not in found:
                    found[i] = Witness(i, a, cdim)
                    if first_only:
                        return [found[i]]
            if len(found) == below:
                return sorted(found.values(), key=lambda w: w.index)
    return sorted(found.values(), key=lambda w: w.index)


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise OracleBudgetExceeded("depth scan ran past its budget")


Oracle = MonomialIdeal | SymbolicPower | OrdinaryPower  # what the oracle decides


def _faces_below(ideal: Oracle, below: int) -> list[int]:
    """The faces G of the radical complex with |G| < below, largest first;
    for a ``SymbolicPower`` only the intersections of facets, as at any
    other G a vertex outside G in every facet through G is a free variable
    of I_G and the box has no row (see above).  Listing the faces takes
    sum_F 2^|F| steps over the facets F, refused past ``_BOX_LIMIT``
    before any is listed."""
    c = ideal.radical_complex
    steps = sum(1 << f.bit_count() for f in c.facets)
    if steps > _BOX_LIMIT:
        raise DeskScaleExceeded(
            f"listing the faces of the radical complex takes {steps} steps, over the desk-scale limit of {_BOX_LIMIT}")
    faces = c.facet_intersections() if isinstance(ideal, SymbolicPower) else c.faces()
    return sorted((g for g in faces if g.bit_count() < below), key=lambda g: (-g.bit_count(), g))


def quotient_dimension(ideal: Oracle) -> int:
    """Krull dimension of S/I: one more than the radical complex dimension."""
    _require_proper(ideal)
    if ideal.is_zero:
        return ideal.n
    return ideal.radical_complex.dimension() + 1


def depth_dim(ideal: MonomialIdeal, field: int | None = None, *, deadline: float | None = None) -> DepthReport:
    """Depth and dimension of S/I with one witness per nonvanishing
    cohomological index below the dimension: of the degrees in
    {-1..rho_i - 1}^n, the one with the fewest negative coordinates, then
    the lexicographically first.  Each localization's box gives its
    first witness per index, with -1 written back at G."""
    check_field(field)
    _require_proper(ideal)
    n = ideal.n
    if ideal.is_zero:
        return DepthReport(n, n, True, field, ())
    _check_box(ideal.max_exponents())
    dim_q = quotient_dimension(ideal)
    found: dict[int, list[Witness]] = {}
    for g in _faces_below(ideal, dim_q):
        local = contract(ideal, g) if g else ideal  # inverts the variables of G
        for w in _scan(local, dim_q - g.bit_count(), field, first_only=False, deadline=deadline):
            rest = iter(w.a)
            a = tuple(-1 if g >> i & 1 else next(rest) for i in range(n))
            i = w.index + g.bit_count()
            found.setdefault(i, []).append(Witness(i, a, w.cohomology_dim))
    witnesses = [min(ws, key=lambda w: (w.a.count(-1), w.a)) for _, ws in sorted(found.items())]
    depth = min((w.index for w in witnesses), default=dim_q)
    return DepthReport(depth, dim_q, depth == dim_q, field, tuple(witnesses))


def _canonical_ideal_key(ideal: MonomialIdeal | SymbolicPower, face: int = 0):
    """Memo key: the generators with the variables sorted by their sorted
    columns, so equal keys mean equal ideals up to renaming.  A symbolic
    power is keyed at ``face`` (``SquarefreePower.contract``) by m and the
    star facets F ^ face, F >= face, on the other vertices sorted by how
    many star facets hold them, then by index: as a 0/1 column's sorted
    tuple is fixed by its count, this is the same sort."""
    if isinstance(ideal, SymbolicPower):
        star = [f ^ face for f in ideal.facets if f & face == face]
        order = sorted((v for v in range(ideal.n) if not face >> v & 1),
                       key=lambda v: sum(f >> v & 1 for f in star))
        return ("symbolic", ideal.m, len(order),
                tuple(sorted(sum((f >> v & 1) << j for j, v in enumerate(order)) for f in star)))
    gens = ideal.sorted_gens()
    cols = [tuple(sorted(g[i] for g in gens)) for i in range(ideal.n)]
    order = sorted(range(ideal.n), key=lambda i: cols[i])
    return (ideal.n, tuple(sorted(tuple(g[i] for i in order) for g in gens)))


def _box_vanishes(ideal: MonomialIdeal | SymbolicPower, face: int, below: int, field, deadline) -> bool:
    """No local cohomology of S/I_G, G = ``face``, in an index below
    ``below`` at a nonnegative degree, behind a ``_VANISHES`` entry tagged
    "box".  A symbolic power is keyed at G off its facets and I_G, the
    power of the link on the key's labels, is built only on a miss."""
    _check_deadline(deadline)
    if isinstance(ideal, SymbolicPower):
        key = _canonical_ideal_key(ideal, face)
    else:
        ideal = contract(ideal, face) if face else ideal
        key = _canonical_ideal_key(ideal)

    def scan():
        local = SymbolicPower(SimplicialComplex(key[2], frozenset(key[3])),
                              ideal.m) if isinstance(ideal, SymbolicPower) else ideal
        return not _scan(local, below, field, first_only=True, deadline=deadline)
    return _memoized(_VANISHES, ("box", key, below, field), scan)


def _walk(ideal: MonomialIdeal | SymbolicPower, field, deadline, below: int, bound) -> bool:
    """No local cohomology of S/I_G below ``bound(G)`` in the box of I_G,
    for each face G with |G| < ``below`` that ``_faces_below`` lists (for
    I^(m) only those whose link is no cone), largest first, skipping each
    G whose bound is 0 or False.  The deadline comes first: a walk may
    read no box."""
    _check_deadline(deadline)
    return all(_box_vanishes(ideal, g, b, field, deadline) for g in _faces_below(ideal, below) if (b := bound(g)))


def _held(ideal: MonomialIdeal | SymbolicPower, field, deadline) -> tuple:
    """The key of the CM entry of S/I in ``_VANISHES`` and its held verdict or None, deadline first."""
    _check_deadline(deadline)
    return (key := (_canonical_ideal_key(ideal), field)), _VANISHES.get(key)


def _scanned(ideal: Oracle, deadline, faces) -> MonomialIdeal | SymbolicPower | None:
    """What CM, S2 and gCM are read from: for an ordinary power I^(m)
    when I_G^m = I_G^(m) at each of the ``faces`` G (equal membership on
    the box {0..m}^n, with no generator built), else None, as the
    property fails."""
    if not isinstance(ideal, OrdinaryPower):
        return ideal
    equal = all((ideal.contract(g) if g else ideal).equals_symbolic(lambda: _check_deadline(deadline))
                for g in faces)
    return ideal.symbolic() if equal else None


def is_cm(ideal: Oracle, field: int | None = None, *,
          deadline: float | None = None) -> bool:
    """Cohen-Macaulayness of S/I over the field: no local cohomology below
    the dimension, read off the whole walk under one entry per ideal up
    to renaming (read by ``_held``).  I^m is decided through I^(m): a held
    verdict on I^(m) first, then I^m = I^(m), then the walk of I^(m)."""
    check_field(field)
    _require_proper(ideal)
    if ideal.is_zero:
        return True
    if isinstance(ideal, OrdinaryPower) and (held := _held(ideal.symbolic(), field, deadline)[1]) is not None:
        return held and ideal.equals_symbolic(lambda: _check_deadline(deadline))
    ideal = _scanned(ideal, deadline, (0,))
    if ideal is None:
        return False
    _check_box(ideal.max_exponents())
    return _memoized(_VANISHES, _held(ideal, field, deadline)[0], lambda: _walk(
        ideal, field, deadline, d := quotient_dimension(ideal), lambda g: d - g.bit_count()))


def is_equidimensional(ideal: Oracle) -> bool:
    """All minimal primes cut out quotients of the same dimension."""
    _require_proper(ideal)
    if ideal.is_zero:
        return True
    return ideal.radical_complex.is_pure()


def is_s2(ideal: Oracle, field: int | None = None, *,
          deadline: float | None = None) -> bool:
    """Serre condition S2: every monomial-prime localization has depth at
    least min(2, its dimension).  Monomial primes suffice because the
    failure locus of a monomial quotient is itself monomial-graded.  An
    ordinary power is decided through I^(m), and an ideal held CM is S2.
    Else this asks each I_G for no cohomology below min(2, dim S/I_G) =
    min(2, max |F - G| over facets F >= G), which is 0 at a facet G; the
    conditions at index 0 on I_(G+v) it leaves out fail only for a facet
    G + v with dim S/I_G >= 2, where the link of G (the degree complex of
    I_G at 0) is disconnected, so S2 fails at G anyway."""
    check_field(field)
    _require_proper(ideal)
    if ideal.is_zero:
        return True
    ideal = _scanned(ideal, deadline, (0,))
    if ideal is None:
        return False
    _check_box(ideal.max_exponents())
    facets = ideal.radical_complex.facets
    return _held(ideal, field, deadline)[1] or _walk(ideal, field, deadline, ideal.n + 1, lambda g: min(
        2, max(f.bit_count() for f in facets if f & g == g) - g.bit_count()))


def is_generalized_cm(ideal: Oracle, field: int | None = None, *,
                      deadline: float | None = None) -> bool:
    """Generalized Cohen-Macaulay: equidimensional and every one-variable
    localization I_v is Cohen-Macaulay (Takayama).  As (I_v)_G' = I_{G'+v}
    and dim S/I_v = d - 1, that is the CM walk without G = 0.  I^m needs
    I_v^m = I_v^(m) at each vertex v, then walks I^(m)."""
    check_field(field)
    _require_proper(ideal)
    if ideal.is_zero:
        return True
    if not is_equidimensional(ideal):
        return False
    ideal = _scanned(ideal, deadline, iter_bits(ideal.radical_complex.vertex_mask))
    if ideal is None:
        return False
    d = quotient_dimension(ideal)
    return _walk(ideal, field, deadline, d, lambda g: g and d - g.bit_count())


def reisner_is_cm(c: SimplicialComplex, field: int | None = None) -> bool:
    """Independent Cohen-Macaulay test for a squarefree quotient: reduced
    homology of every link vanishes below the link dimension."""
    check_field(field)
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
    # i = -1 gives the zero vector, i = 0..n - 1 the unit vectors
    return all(degree_complex(ideal, [int(j == i) for j in range(c.n)]).facets == c.facets for i in range(-1, c.n))
