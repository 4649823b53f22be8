"""Exact combinatorial numbers.

Double factorials, Stirling numbers of the second kind, derangement
numbers refined by cycle count (the unsigned associated Stirling numbers
of the first kind) and reciprocal composition sums.  Everything is exact:
integers are unbounded and rational values are fractions.Fraction.

All functions are pure.  S2(b + c, b), D(k + c, k) and H(k + c, k) are
memoised by diagonal c, as spcounts reads S2 and D, only as far as asked
for.  One grower, _grow, lengthens all three by iteration, so a cold call at
a large index needs no deep stack; each triangle passes only its recurrence
step.  Growth is locked and only lengthens lists, so lock-free readers see
serial values: stirling2, assoc_stirling1 and h_value index the memo entry
in one step, without the lock, and call the grower only when that raises
IndexError.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from threading import Lock

_S2_DIAGS: list[list[int]] = [[1]]
_D_DIAGS: list[list[int]] = [[1]]
_H_DIAGS: list[list[Fraction]] = [[Fraction(1)]]
_H_ZERO = Fraction(0)  # shared: Fractions are immutable
_GROWTH = Lock()


def double_factorial(n: int) -> int:
    """n!! = n (n-2) (n-4) ..., with the conventions (-1)!! = 0!! = 1."""
    if n < -1:
        raise ValueError("double_factorial requires n >= -1")
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def _grow(diags: list[list], c: int, length: int, extend) -> list[list]:
    """`diags`, with each of diagonals 0 .. c at least `length` long.

    extend(diag, prev, i, length) lengthens diagonal i from prev, diagonal
    i - 1; zeros stand in for the diagonal before 0.
    """
    if c < len(diags) and len(diags[c]) >= length:
        return diags
    with _GROWTH:
        # each new diagonal i >= 1 starts at T(i, 0) = 0, a zero of the seed's type
        diags += ([diags[0][0] * 0] for _ in range(len(diags), c + 1))
        # lengths never rise with i, so the short diagonals are lo .. c
        lo = next((i for i in range(c, 0, -1) if len(diags[i - 1]) >= length), 0)
        for i in range(lo, c + 1):
            extend(diags[i], diags[i - 1] if i else [0] * length, i, length)
    return diags


def _s2_step(diag: list[int], prev: list[int], i: int, length: int) -> None:
    # S2(b+i, b) = S2(b+i-1, b-1) + b S2(b+i-1, b), summed on from the last entry
    start = len(diag)
    diag[start - 1:] = accumulate(map(mul, range(start, length), prev[start:length]),
                                  initial=diag[-1])


def _s2_diagonals(c: int, length: int) -> list[list[int]]:
    """The S2 memo, with each of diagonals 0 .. c at least `length` long."""
    return _grow(_S2_DIAGS, c, length, _s2_step)


def _s2_row(m: int) -> list[int]:
    """(S2(m, 0), ..., S2(m, m)) from the diagonals, longest first so each grows once."""
    return [_s2_diagonals(m - k, k + 1)[m - k][k] for k in range(m, -1, -1)][::-1]


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into k nonempty blocks; S2(0,0) = 1."""
    if k < 0 or k > n:
        return 0
    try:
        return _S2_DIAGS[n - k][k]
    except IndexError:
        return _s2_diagonals(n - k, k + 1)[n - k][k]


def _d_step(diag: list[int], prev: list[int], i: int, length: int) -> None:
    # D(k+i, k) = (k+i-1) (D(k+i-2, k-1) + D(k+i-1, k))
    start = len(diag)
    diag += map(mul, range(start + i - 1, length + i - 1),
                map(add, prev[start - 1:length - 1], prev[start:length]))


def _d_diagonals(c: int, length: int) -> list[list[int]]:
    """The D memo, with each of diagonals 0 .. c at least `length` long."""
    return _grow(_D_DIAGS, c, length, _d_step)


def assoc_stirling1(n: int, k: int) -> int:
    """Number of fixed-point-free permutations of [n] with exactly k cycles.

    Vanishes for n < 2k; assoc_stirling1(0, 0) = 1.
    """
    if k < 0 or n < 2 * k:
        return 0
    try:
        return _D_DIAGS[n - k][k]
    except IndexError:
        return _d_diagonals(n - k, k + 1)[n - k][k]


def _h_step(diag: list[Fraction], prev: list[Fraction], i: int, length: int) -> None:
    # (2k+i) H(k+i, k) = k H(k+i-1, k-1) + (2k+i-1) H(k+i-1, k), on from the last entry
    start = len(diag)
    diag[start - 1:] = accumulate(
        range(start, length),
        lambda h, k: (k * h + (2 * k + i - 1) * prev[k]) / (2 * k + i), initial=diag[-1])


def h_value(m: int, k: int) -> Fraction:
    """Reciprocal composition sum: 1 / ((j_1 + 1) ... (j_k + 1)) summed
    over j_1 + ... + j_k = m with all j_i >= 1.

    Grown by H's own recursion (m+k) H(m,k) = k H(m-1,k-1) + (m+k-1) H(m-1,k),
    which reads no D.  Always a Fraction: 1 for m = k = 0 and 0 whenever
    k > m or (m > 0 and k = 0).
    """
    if m < 0 or k < 0 or k > m:
        return _H_ZERO
    try:
        return _H_DIAGS[m - k][k]
    except IndexError:
        return _grow(_H_DIAGS, m - k, k + 1, _h_step)[m - k][k]
