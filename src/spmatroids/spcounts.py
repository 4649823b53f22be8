"""Count families for series-parallel matroids.

Five triangular families are computed here, indexed by ground-set size n
and rank k:

  C  series-parallel matroids (connected; rows start at n = 1)
  E  simple series-parallel matroids
  A  quasi series-parallel matroids, i.e. direct sums (rows start at n = 0)
  S  simple quasi series-parallel matroids
  G  normalized coefficients of the compositional inverse of build_F,
      which satisfy C(n, l) = G(n-1, l-1) for n >= 2

E and C come from closed-form alternating sums, S from the exponential
identity S = exp(E), and A from S by the substitution A = S(e^x - 1, y) e^x
(Flajolet & Sedgewick, Analytic Combinatorics, ch. II):

    A(n, k) = sum_{j=k}^{n} S2(n+1, j+1) S(j, k).

G's printed sum is C's shifted by one, term by term, so G is read off C:
row n of G is _c_row(n + 1) without its l = 0 entry.  What ties G to the
inverse of F is verify's gf-inverse-closed-form and gf-integral-identity,
which compare C and G with the series inverse at the verify order.

Tables are built in exact integers, each family in O(N^3) operations but
S, which applies egf_exp to the integer E rows; powerseries holds only the
exact rational reference kernel.  Each E and C term reads one diagonal of the
combinum S2 and D memos, so each entry of the cached rows _e_row and
_c_row is a signed dot product of diagonal slices.  E has one route,
_e_row(n): each inner sum of the E closed form is a scaled backward
difference of t^e, and the Leibniz rule for those differences never leaves
the row, so row n is built alone in O(n^2) integer products.  e_closed and
the E table both read it; e_from_c, which inverts C, is the independent
second route.  A = exp(C) is only a cross-check against the rational
series_exp(C).  _count_rows caches each family's rows per max_n, so S
reuses the E rows and A the S rows of the same length; count_series hands
them to the series kernel as integer rows over n! (raw = count / n!).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb
from operator import mul
from typing import NamedTuple

from .combinum import _d_diagonals, _s2_diagonals, _s2_row, double_factorial
from .powerseries import BivariateSeries

FAMILIES = ("E", "C", "A", "S", "G")

# rows of E, C and G start at n = 1; A and S include the empty matroid row
FAMILY_START_N = {"E": 1, "C": 1, "A": 0, "S": 0, "G": 1}


class _TableFields(NamedTuple):
    family: str
    start_n: int
    rows: tuple[tuple[int, ...], ...]


class TriangularCountTable(_TableFields):
    """A count family as rows indexed by ground-set size n, columns by rank k."""

    __slots__ = ()

    def __new__(cls, family: str, start_n: int, rows: tuple[tuple[int, ...], ...]):
        for i, row in enumerate(rows):
            n = start_n + i
            if len(row) != n + 1:
                raise ValueError(f"row for n = {n} must have {n + 1} entries")
            if min(row) < 0:
                raise ValueError(f"negative count in row n = {n}: {row}")
        return super().__new__(cls, family, start_n, rows)

    @classmethod
    def _make(cls, iterable):
        # NamedTuple's _make, and _replace through it, would skip __new__'s checks
        return cls(*iterable)

    @property
    def max_n(self) -> int:
        return self.start_n + len(self.rows) - 1

    def row(self, n: int) -> tuple[int, ...]:
        if not self.start_n <= n <= self.max_n:
            raise ValueError(f"row {n} outside table range")
        return self.rows[n - self.start_n]

    def value(self, n: int, k: int) -> int:
        row = self.row(n)
        return row[k] if 0 <= k <= n else 0


def e_closed(n: int, k: int) -> int:
    """Number of simple series-parallel matroids on n elements of rank k.

    The printed sum, with r = 2k - n and D = assoc_stirling1,

        E(2k-r, k) = sum_{p=1}^{r} D(2k-p-1, k-p)
                     sum_{i=0}^{r-p} (-1)^(i+p+1) (2k-p-i)^(k-p-1) / (i! (r-p-i)!).

    Reads row n of _e_row, the one route to E rows, for every 0 <= k <= n
    with n >= 1, so the vanishing entries (k = 0 or n >= 2k) come from the
    row too and verify's counts-e-vanishing tests it; 0 outside the
    triangle, without building anything.
    """
    return _e_row(n)[k] if n >= 1 and 0 <= k <= n else 0


@cache
def _e_row(n: int) -> tuple[int, ...]:
    """Row n >= 1 of the e_closed sum, alone, in exact integers.

    Fix k and p and set e = k - p - 1, m = r - p and x = 2k - p.  The inner
    sum sum_i (-1)^i C(m, i) (x - i)^e / m! is h(e, m, x) = nabla^m t^e (x) / m!,
    the scaled m-th backward difference of t^e.  The product rule for
    backward differences (Graham, Knuth & Patashnik, Concrete Mathematics,
    sec. 2.6), applied m times with nabla t = 1 and nabla^2 t = 0, gives the
    Leibniz recurrence

        h(e, m, x) = x h(e-1, m, x) + h(e-1, m-1, x-1),   h(m, m, x) = 1.

    Both terms on the right keep x - m = n, so a row closes on itself: with
    j = e - m = n - 1 - k, fixed by k, and diag_j[m] = h(m + j, m, m + n),

        diag_0[m] = 1,   diag_j[m] = (m + n) diag_{j-1}[m] + diag_j[m-1],

    one running pass per diagonal, and with p = r - m

        E(n, n-1-j) = sum_{m<r} (-1)^(r-m+1) D(n+m-1, j+m+1) diag_j[m].

    Differences past m = e vanish, so p = k contributes nothing and
    E(n, n) = 0 for n >= 2; row 1 is the coloop, the 1^(-1) term, set
    directly.  No division: every value is an integer by construction.
    """
    if n == 1:
        return (0, 1)
    d = _d_diagonals(n - 2, n - 1)
    row = [0] * (n + 1)
    diag = [1] * (n - 2)  # diag_0, as long as its r = n - 2
    for j in range((n - 1) // 2):
        r = n - 2 - 2 * j  # k = n - 1 - j, r = 2k - n
        if j:  # diag_j over its first r entries, from diag_{j-1}
            diag = list(accumulate(map(mul, range(n, n + r), diag)))
        dot = _alternating_dot(d[n - 2 - j][j + 1:], diag)
        row[n - 1 - j] = dot if r % 2 else -dot
    return tuple(row)


def _alternating_dot(a, b) -> int:
    # sum_i (-1)^i a[i] b[i] over the shorter of a and b, in C-level products
    return sum(map(mul, a[::2], b[::2])) - sum(map(mul, a[1::2], b[1::2]))


def c_closed(n: int, l: int) -> int:
    """Number of series-parallel matroids on n elements of rank l.

    For n >= 2 evaluates the alternating sum

        C(n, l) = sum_{k=0}^{l-1} (-1)^(k+l-1) D(k+l-1, k) S2(n-1+k, k+l);

    the single edge and the single loop give C(1, 0) = C(1, 1) = 1 by
    convention.  At l = n every S2 factor vanishes.  Reads row n of _c_row.
    """
    return _c_row(n)[l] if n >= 1 and 0 <= l <= n else 0


@cache
def _c_row(n: int) -> tuple[int, ...]:
    # term k of C(n, l) is entry k of D diagonal l-1 times entry k+l of S2
    # diagonal n-1-l; from l = n-1 down, each l grows a shorter S2 diagonal
    if n == 1:
        return (1, 1)
    d = _d_diagonals(n - 2, n - 1)
    row = [0] * (n + 1)
    for l in range(n - 1, 0, -1):
        s2 = _s2_diagonals(n - 1 - l, 2 * l)[n - 1 - l]
        dot = _alternating_dot(d[l - 1], s2[l:2 * l])
        row[l] = dot if l % 2 else -dot
    return tuple(row)


def g_closed(n: int, l: int) -> int:
    """Normalized inverse-series coefficient G(n, l).

    The printed sum sum_{j=0}^{l} (-1)^(j+l) D(j+l, j) S2(n+j, j+l+1) is
    term by term C's sum for C(n+1, l+1), so this reads _c_row(n + 1)[l + 1];
    zero outside 0 <= l <= n - 1.  Satisfies the palindromy
    G(n, l) = G(n, n-1-l).  Only verify's gf-inverse-closed-form and
    gf-integral-identity tie G to the compositional inverse of F.
    """
    return _c_row(n + 1)[l + 1] if n >= 1 and 0 <= l < n else 0


def e_from_c(max_n: int) -> TriangularCountTable:
    """Recover the E table from c_closed by inverting the parallel-class sum.

    Solves C(n, l) = sum_{m=l}^{n} S2(n, m) E(m, l) for E by forward
    substitution (S2(n, n) = 1), seeding row 1 with the coloop convention
    E(1, 0) = 0, E(1, 1) = 1, and reading the C rows and the S2 rows (built
    largest first, so each memo grows once).  Each entry subtracts one
    C-level dot product of an S2 row slice with a column of the rows already
    solved.  The result must agree with e_closed entrywise.
    """
    if max_n < 1:
        raise ValueError("e_from_c needs max_n >= 1")
    c_rows = _count_rows("C", max_n)
    s2_rows = {n: _s2_row(n) for n in range(max_n, 1, -1)}
    rows = [(0, 1)]  # (E(m, 0), ..., E(m, m)) for m = 1, 2, ...
    cols = [[0], [1]]  # cols[l] = [E(m, l) for max(l, 1) <= m < n], the solved rows
    for n in range(2, max_n + 1):
        weights = s2_rows[n]
        cols.append([])
        row = tuple(
            c_rows[n][l] - sum(map(mul, weights[max(l, 1):n], cols[l]))
            for l in range(n + 1)
        )
        for col, value in zip(cols, row):
            col.append(value)
        rows.append(row)
    return TriangularCountTable("E", 1, tuple(rows))


def e_special(n: int, k: int, r: int) -> int:
    """Literal transcription of the published special-case formulas at r <= 3.

    Evaluated in exact rationals.  Note that the r = 2 variant, as printed,
    carries a plus sign on its last term and disagrees with e_closed (first
    at k = 3, where it yields 5 while e_closed(4, 3) = 1, the value
    confirmed by exhaustive enumeration); it is kept verbatim so the
    verification report can surface both numbers.
    """
    if r not in (1, 2, 3):
        raise ValueError("e_special handles r in {1, 2, 3}")
    if n != 2 * k - r or k < r:
        raise ValueError(f"e_special requires n = 2k - r and k >= r, got ({n}, {k}, {r})")
    if r == 1:
        total = double_factorial(2 * k - 1) * Fraction(2 * k - 1) ** (k - 3)
    elif r == 2:
        total = double_factorial(2 * k - 3) * (
            Fraction(2 * k - 1) ** (k - 2)
            - Fraction(2 * k - 2) ** (k - 2)
            + Fraction(2, 3) * (k - 2) * Fraction(2 * k - 2) ** (k - 3)
        )
    else:
        total = double_factorial(2 * k - 3) * (
            Fraction(1, 2) * Fraction(2 * k - 1) ** (k - 2)
            - Fraction(2 * k - 2) ** (k - 2)
            + Fraction(1, 2) * Fraction(2 * k - 3) ** (k - 2)
            + Fraction(2, 3)
            * (k - 2)
            * (Fraction(2 * k - 3) ** (k - 3) - Fraction(2 * k - 2) ** (k - 3))
            + Fraction(1, 9)
            * (4 * k - 7)
            * (k - 2)
            * (k - 3)
            * Fraction(2 * k - 3) ** (k - 5)
        )
    if total.denominator != 1:
        raise ValueError(f"non-integral special-case value at ({n}, {k}, {r}): {total}")
    return int(total)


# ---------------------------------------------------------------------------
# count rows and their series
# ---------------------------------------------------------------------------

def egf_exp(rows) -> tuple[tuple[int, ...], ...]:
    """exp on a normalized integer triangle, in exact integers.

    rows[n][k] = n! [y^k x^n] f for n = 0 .. order, with rows[0] = (0,).
    Returns the normalized rows of exp(f), computed by the labelled
    exponential's binomial convolution

        A_0 = 1,  A_n = sum_{m=1}^{n} C(n-1, m-1) F_m A_{n-m}

    on y-polynomials (Flajolet & Sedgewick, Analytic Combinatorics, ch. II).
    This is the route to the S table; powerseries.series_exp is the
    rational reference it is checked against.  Each product walks only the
    nonzero spans of its two rows: E and S rows vanish for k <= n/2.
    """
    for n, row in enumerate(rows):
        if len(row) != n + 1:
            raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
    if not rows:
        raise ValueError("egf_exp needs at least the constant row")
    if rows[0][0] != 0:
        raise ValueError("egf_exp requires zero constant term")
    out = [(1,)]
    f_spans, out_spans = [_nonzero_span(row) for row in rows], [(0, (1,))]
    for n in range(1, len(rows)):
        acc = [0] * (n + 1)
        for m in range(1, n + 1):
            (f_lo, f_span), (a_lo, a_span) = f_spans[m], out_spans[n - m]
            weight = comb(n - 1, m - 1)
            for i, fi in enumerate(f_span, f_lo + a_lo):
                wi = weight * fi
                for j, aj in enumerate(a_span, i):
                    acc[j] += wi * aj
        out.append(tuple(acc))
        out_spans.append(_nonzero_span(acc))
    return tuple(out)


def _nonzero_span(row) -> tuple[int, tuple[int, ...]]:
    # (lo, row[lo:hi + 1]) for the first and last nonzero entries lo and hi
    nonzero = [k for k, v in enumerate(row) if v] or [0, -1]
    return nonzero[0], tuple(row[nonzero[0]:nonzero[-1] + 1])


def _a_rows(s_rows) -> tuple[tuple[int, ...], ...]:
    # A = S(e^x - 1, y) e^x: A(n, k) = sum_{j=k}^{n} S2(n+1, j+1) S(j, k);
    # the largest row first grows the S2 diagonals for them all
    out = []
    for n in range(len(s_rows) - 1, -1, -1):
        acc = [0] * (n + 1)
        weights = _s2_row(n + 1)
        for j, row in enumerate(s_rows[:n + 1]):
            w = weights[j + 1]
            for k, v in enumerate(row):
                if v:
                    acc[k] += w * v
        out.append(tuple(acc))
    return tuple(reversed(out))


@cache
def _count_rows(family: str, max_n: int) -> tuple[tuple[int, ...], ...]:
    """Normalized rows n! [y^k x^n] of a family's series for n = 0 .. max_n."""
    if family == "A":
        return _a_rows(_count_rows("S", max_n))
    if family == "S":
        return egf_exp(_count_rows("E", max_n))
    # the largest row first: it grows the combinum memos for them all;
    # G's row n is C's row n + 1 without its l = 0 entry
    row = {"E": _e_row, "C": _c_row, "G": lambda n: _c_row(n + 1)[1:]}[family]
    return ((0,),) + tuple(reversed([row(n) for n in range(max_n, 0, -1)]))


def count_series(family: str, order: int) -> BivariateSeries:
    """A family's rows up to `order` as a series, raw = count / n!."""
    return BivariateSeries.from_counts(order, _count_rows(family, order))


def build_tables(max_n: int, family: str) -> TriangularCountTable:
    """Build the full triangle of one family up to ground-set size max_n."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if max_n < 1:
        raise ValueError("build_tables needs max_n >= 1")
    start = FAMILY_START_N[family]
    return TriangularCountTable(family, start, _count_rows(family, max_n)[start:])
