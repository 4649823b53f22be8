"""Exact combinatorial numbers.

Double factorials, binomial coefficients, Stirling numbers of the second
kind, derangement numbers refined by cycle count (the unsigned
associated Stirling numbers of the first kind) and reciprocal composition
sums.  Everything is exact: integers are unbounded and
rational values are fractions.Fraction.

All functions are pure.  Memo tables are grown with idempotent writes of
immutable rows, so concurrent readers always observe values identical to a
single-threaded run.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

__all__ = [
    "binomial",
    "double_factorial",
    "stirling2",
    "assoc_stirling1",
    "h_value",
]

# Memo rows are appended in order from the seed rows below, so each memo
# holds exactly rows 0 .. len - 1.  Growing them by iteration, never by
# recursion, lets a cold call at a large index run without exhausting the
# stack.
_STIRLING2_ROWS: dict[int, tuple[int, ...]] = {0: (1,)}
_ASSOC_ROWS: dict[int, tuple[int, ...]] = {0: (1,), 1: (0, 0)}
_H_ROWS: dict[int, tuple[Fraction, ...]] = {0: (Fraction(1),)}


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 outside the range 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ..., with the conventions (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError("double_factorial requires n >= -1")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def _stirling2_rows(n: int) -> dict[int, tuple[int, ...]]:
    # the S2 memo grown to hold rows 0 .. n, where row[k] = S2(n, k)
    rows = _STIRLING2_ROWS
    while len(rows) <= n:
        m = len(rows)
        prev = rows[m - 1]
        rows[m] = tuple(
            (prev[k - 1] if k >= 1 else 0) + k * (prev[k] if k < m else 0)
            for k in range(m + 1)
        )
    return rows


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty blocks; S2(0,0) = 1."""
    if n < 0 or k < 0 or k > n:
        return 0
    return _stirling2_rows(n)[n][k]


def _assoc_rows(n: int) -> dict[int, tuple[int, ...]]:
    # the D memo grown to hold rows 0 .. n, where row[k] = number of
    # derangements of [n] with exactly k cycles (0 for n < 2k)
    rows = _ASSOC_ROWS
    while len(rows) <= n:
        m = len(rows)
        p1 = rows[m - 1]
        p2 = rows[m - 2]
        rows[m] = tuple(
            (m - 1) * ((p2[k - 1] if 1 <= k <= m - 1 else 0)
                       + (p1[k] if k <= m - 1 else 0))
            for k in range(m + 1)
        )
    return rows


def assoc_stirling1(n: int, k: int) -> int:
    """Number of fixed-point-free permutations of [n] with exactly k cycles.

    Vanishes for n < 2k; assoc_stirling1(0, 0) = 1.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    if n < 2 * k:
        return 0
    return _assoc_rows(n)[n][k]


def _h_row(m: int) -> tuple[Fraction, ...]:
    # row[k] = H(m, k) for 0 <= k <= m, where H(m, k) sums the reciprocals
    # 1 / ((j_1 + 1) ... (j_k + 1)) over compositions j_1 + ... + j_k = m.
    rows = _H_ROWS
    while len(rows) <= m:
        i = len(rows)
        prev = rows[i - 1]
        vals = [Fraction(0)]
        for k in range(1, i + 1):
            a = prev[k - 1] if k - 1 <= i - 1 else Fraction(0)
            b = prev[k] if k <= i - 1 else Fraction(0)
            vals.append((k * a + (i + k - 1) * b) / (i + k))
        rows[i] = tuple(vals)
    return rows[m]


def h_value(m: int, k: int) -> Fraction:
    """Reciprocal composition sum over j_1 + ... + j_k = m with all j_i >= 1.

    Computed by dynamic programming via the recursion
    (m+k) H(m,k) = k H(m-1,k-1) + (m+k-1) H(m-1,k).
    Returns 1 for m = k = 0 and 0 whenever k > m or (m > 0 and k = 0).
    """
    if m < 0 or k < 0 or k > m:
        return Fraction(0)
    return _h_row(m)[k]

