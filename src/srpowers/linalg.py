"""Exact matrix rank over the rationals or a prime field.

One sparse elimination serves Q and every F_p, in one pass.  Rows are
kept as dicts, and a row becomes a pivot row at a unit entry where it has
one: +-1 over Q, any nonzero entry over F_p.  Clearing a column with a
unit pivot is a unimodular row operation on integer rows, so nothing is
rounded and no entry becomes a fraction.  Coboundary matrices are sparse
with +-1 entries, so unit pivots usually find the whole rank (the
standard exact method for simplicial homology; Dumas, Heckenbach,
Saunders and Welker, 2003).  Over Q a row with no entry +-1 pivots at its
first entry with a ``fractions.Fraction`` inverse, and rows reduced
against it may hold fractions from then on: still exact, but slow on a
dense matrix with no +-1 anywhere, which no caller builds.

Over F_2 a matrix also fits in one Python int per row, bit j the entry in
column j, and ``rank_f2`` eliminates by XOR on leading bits.  The depth
oracle ranks every coboundary this way first: over F_2 as the answer,
over Q as a certificate of vanishing (see ``cohomology``).  ``rank``
sees only the rest, as sparse rows {column: entry} whose columns are
face masks.
"""

from __future__ import annotations

from math import isqrt


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


def check_field(p: int | None) -> int | None:
    """p itself when it names a field: None (the rationals) or a prime
    int.  Otherwise ValueError."""
    if p is not None and (not isinstance(p, int) or p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1))):
        raise ValueError(f"{p!r} is not prime")
    return p


def rank(rows: list[dict[int, int]], field: int | None = None) -> int:
    """Rank over Q (field None) or F_p (field a prime) of an integer
    matrix given as sparse rows {column: entry}, in one pass.  Zero
    entries (mod p) are dropped.

    Rows are reduced shortest first against the pivot rows found so far,
    in the order they were found, so each pivot row is zero in the pivot
    columns before its own.  A row left nonzero becomes a pivot row at a
    unit entry if it has one, else (over Q) at its first entry."""
    if check_field(field) is None:
        live = [row for row in ({j: e for j, e in r.items() if e} for r in rows) if row]
    else:
        live = [row for row in ({j: e % field for j, e in r.items() if e % field} for r in rows) if row]
    live.sort(key=len)
    pivots: dict[int, tuple[dict[int, int], int]] = {}  # column -> (row, inverse of its entry)
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
        for col, e in row.items():
            if field is not None or e == 1 or e == -1:
                pivots[col] = (row, e if field is None else pow(e, -1, field))  # over Q, 1/e = e
                break
        else:  # over Q, no entry +-1
            from fractions import Fraction  # deferred: few ranks need it, and importing it costs memory at start

            col, e = next(iter(row.items()))
            pivots[col] = (row, 1 / Fraction(e))
    return len(pivots)


def parse_field(text: str) -> int | None:
    """Field descriptor: "Q" for the rationals, "Fp" for a prime field."""
    t = text.strip()
    if t in ("Q", "q", "QQ"):
        return None
    if t and t[0] in "Ff" and t[1:].isdigit():
        return check_field(int(t[1:]))
    raise ValueError(f"cannot parse field {text!r}; use Q or Fp")


def field_name(field: int | None) -> str:
    return "Q" if field is None else f"F{field}"
