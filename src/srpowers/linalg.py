"""Exact matrix rank over the rationals or a prime field.

One sparse elimination serves Q and every F_p.  Rows are kept as dicts
and reduced against pivot rows whose pivot entry is a unit: +-1 over Q,
any nonzero entry over F_p.  Clearing a column with a unit pivot is a
unimodular row operation on integer rows, so nothing is rounded and no
entry becomes a fraction.  Coboundary matrices are sparse with +-1
entries, so unit pivots usually find the whole rank (the standard exact
method for simplicial homology; Dumas, Heckenbach, Saunders and Welker,
2003).  Over Q, rows left with no entry +-1 go to fraction-free (Bareiss)
elimination on Python ints, the one dense rank here.

Over F_2 a matrix also fits in one Python int per row, bit j the entry in
column j, and ``rank_f2`` eliminates by XOR on leading bits.  The columns
need not be numbered densely: on complexes of at most 12 vertices the
depth oracle's coboundary rows put the entry of a face at the bit of its
face mask, so a row on k vertices is up to 2^k bits wide with few bits
set; past 12 vertices the columns are numbered.  The oracle ranks
every coboundary this way first: over F_2 as the answer, over Q as a
certificate of vanishing (see ``cohomology``).  ``rank`` sees only the
rest, still as dense rows, whose width the bench tracer reads.
"""

from __future__ import annotations

from math import isqrt


def rank_rational(rows: list[list[int]]) -> int:
    """Rank of an integer matrix over Q, one-step Bareiss elimination."""
    if not rows or not rows[0]:
        return 0
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        p = m[rank][col]
        for i in range(rank + 1, nrows):
            f = m[i][col]
            row_i, row_r = m[i], m[rank]
            for j in range(col, ncols):
                row_i[j] = (row_i[j] * p - f * row_r[j]) // prev
        prev = p
        rank += 1
        if rank == nrows:
            break
    return rank


def rank_f2(rows: list[int]) -> int:
    """Rank over F_2 of a matrix given as one int per row: each row is
    XOR-reduced against the pivot rows until it is zero or has a leading
    bit no pivot row has, and then becomes the pivot row there."""
    pivots: dict[int, int] = {}  # leading bit -> row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            row ^= prow
    return len(pivots)


def require_prime(p) -> int:
    """p itself when it is a prime int; otherwise ValueError."""
    if not isinstance(p, int) or p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"{p!r} is not prime")
    return p


def rank(rows: list[list[int]], field: int | None = None) -> int:
    """Rank over Q (field None) or F_p (field a prime) of a dense integer
    matrix.

    Rows are reduced shortest first against the pivot rows found so far,
    in the order they were found, so each pivot row is zero in the pivot
    columns before its own.  A reduced row with a unit entry becomes a
    pivot row there; the others are reduced again once new pivots appear.
    Over Q, Bareiss ranks the rows no pass gives a unit."""
    if field is None:
        live = [row for row in ({j: e for j, e in enumerate(r) if e} for r in rows) if row]
    else:
        require_prime(field)
        live = [row for row in ({j: e % field for j, e in enumerate(r) if e % field} for r in rows) if row]
    live.sort(key=len)
    pivots: dict[int, tuple[dict[int, int], int]] = {}  # column -> (row, inverse of its entry)
    while live:
        left = []
        for row in live:
            for col, (prow, inv) in pivots.items():
                f = row.get(col)
                if f:
                    f *= inv
                    for j, e in prow.items():
                        v = row.get(j, 0) - f * e
                        if field is not None:
                            v %= field
                        if v:
                            row[j] = v
                        else:
                            del row[j]
                    if not row:
                        break
            if not row:
                continue
            for j, e in row.items():
                if field is not None or e == 1 or e == -1:
                    pivots[j] = (row, e if field is None else pow(e, -1, field))  # over Q, 1/e = e
                    break
            else:
                left.append(row)
        if len(left) == len(live):
            break
        live = left
    if not live:
        return len(pivots)
    cols = sorted({j for row in live for j in row})
    return len(pivots) + rank_rational([[row.get(j, 0) for j in cols] for row in live])


def parse_field(text: str) -> int | None:
    """Field descriptor: "Q" for the rationals, "Fp" for a prime field."""
    t = text.strip()
    if t in ("Q", "q", "QQ"):
        return None
    if t and t[0] in "Ff" and t[1:].isdigit():
        return require_prime(int(t[1:]))
    raise ValueError(f"cannot parse field {text!r}; use Q or Fp")


def field_name(field: int | None) -> str:
    return "Q" if field is None else f"F{field}"
