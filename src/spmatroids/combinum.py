"""Exact combinatorial numbers.

Double factorials, binomial coefficients, Stirling numbers of the second
kind, derangement numbers refined by cycle count (the unsigned
associated Stirling numbers of the first kind) and reciprocal composition
sums.  Everything is exact: integers are unbounded and
rational values are fractions.Fraction.

All functions are pure.  S2(b + c, b) and D(k + c, k) are memoised by
diagonal c, as spcounts reads them, only as far as asked for, and by
iteration, so a cold call at a large index needs no deep stack.  Growth is
locked and only lengthens lists, so lock-free readers see serial values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb
from operator import add, mul
from threading import Lock

__all__ = [
    "binomial",
    "double_factorial",
    "stirling2",
    "assoc_stirling1",
    "h_value",
]

_S2_DIAGS: list[list[int]] = [[1]]
_D_DIAGS: list[list[int]] = [[1]]
_GROWTH = Lock()
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


def _s2_diagonals(c: int, length: int) -> list[list[int]]:
    """The S2 memo, with each of diagonals 0 .. c at least `length` long."""
    diags = _S2_DIAGS
    if c < len(diags) and len(diags[c]) >= length:
        return diags
    with _GROWTH:
        diags += ([0] for _ in range(len(diags), c + 1))  # S2(i, 0) = 0 for i >= 1
        # lengths never rise with i, so the short diagonals are lo .. c
        lo = next((i for i in range(c, 0, -1) if len(diags[i - 1]) >= length), 0)
        for i in range(lo, c + 1):
            # S2(b+i, b) = S2(b+i-1, b-1) + b S2(b+i-1, b), summed on from the last
            # entry; zeros stand in for the diagonal before 0
            diag, start, prev = diags[i], len(diags[i]), diags[i - 1] if i else [0] * length
            diag[start - 1:] = accumulate(
                map(mul, range(start, length), prev[start:length]), initial=diag[-1])
    return diags


def _s2_row(m: int) -> list[int]:
    """(S2(m, 0), ..., S2(m, m)) from the diagonals, longest first so each grows once."""
    return [_s2_diagonals(m - k, k + 1)[m - k][k] for k in range(m, -1, -1)][::-1]


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty blocks; S2(0,0) = 1."""
    if k < 0 or k > n:
        return 0
    return _s2_diagonals(n - k, k + 1)[n - k][k]


def _d_diagonals(c: int, length: int) -> list[list[int]]:
    """The D memo, with each of diagonals 0 .. c at least `length` long."""
    diags = _D_DIAGS
    if c < len(diags) and len(diags[c]) >= length:
        return diags
    with _GROWTH:
        diags += ([0] for _ in range(len(diags), c + 1))  # D(i, 0) = 0 for i >= 1
        lo = next((i for i in range(c, 0, -1) if len(diags[i - 1]) >= length), 0)
        for i in range(lo, c + 1):
            # D(k+i, k) = (k+i-1) (D(k+i-2, k-1) + D(k+i-1, k)), as for S2
            diag, start, prev = diags[i], len(diags[i]), diags[i - 1] if i else [0] * length
            diag += map(mul, range(start + i - 1, length + i - 1),
                        map(add, prev[start - 1:length - 1], prev[start:length]))
    return diags


def assoc_stirling1(n: int, k: int) -> int:
    """Number of fixed-point-free permutations of [n] with exactly k cycles.

    Vanishes for n < 2k; assoc_stirling1(0, 0) = 1.
    """
    if k < 0 or n < 2 * k:
        return 0
    return _d_diagonals(n - k, k + 1)[n - k][k]


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

