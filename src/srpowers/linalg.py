"""Exact matrix rank over the rationals or a prime field.

Rational ranks use fraction-free (Bareiss) elimination on Python ints,
so there is no rounding anywhere.  Matrices here are small coboundary
matrices, a few dozen rows at most.
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


def require_prime(p) -> int:
    """p itself when it is a prime int; otherwise ValueError."""
    if not isinstance(p, int) or p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"{p!r} is not prime")
    return p


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over the prime field F_p by Gaussian elimination."""
    require_prime(p)
    if not rows or not rows[0]:
        return 0
    m = [[e % p for e in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [(e * inv) % p for e in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def rank(rows: list[list[int]], field: int | None = None) -> int:
    """Rank over Q (field None) or F_p (field a prime)."""
    if field is None:
        return rank_rational(rows)
    return rank_mod_p(rows, field)


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
