"""Truncated bivariate power series with exact coefficients.

A series is a triangular table: row n holds the coefficients of
y^0 .. y^n at x^n, since every series arising here has y-degree bounded by
x-degree.  BivariateSeries stores coefficients raw (the coefficient of
y^k x^n, not the exponential-generating-function numerator), each row as
integer numerators over one positive denominator, in lowest terms; count
extraction multiplies by n! at the boundary.

This module is the exact rational reference kernel: series_exp,
series_log, the composition, series_reverse_x and lagrange_invert are what
the verification suites check the integer count rows of spcounts against.
Series constant in y, such as e^x and e^x - 1, are BivariateSeries too.

Storage and every operation are fraction-free; `rows` reads the
coefficients as Fractions.  An operation brings its input rows to
integer numerators over their lcm denominator, runs its recurrence in
integers with an in-place multiply-accumulate, and reduces each output row
by one gcd at _fit_row.  exp, log and reversion solve their rows one after
another through one row solver, _solve_rows, which hands each solved row,
as stored, to the rows that follow.

Series values are immutable and all operations are pure, so they are safe
to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm


# ---------------------------------------------------------------------------
# fraction-free helpers: integer y-polynomials (dense coefficient lists)
# ---------------------------------------------------------------------------

def _lift(rows):
    """(int_rows, d): the rows as integer numerators over their lcm denominator d."""
    d = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (d // v.denominator) for v in row] for row in rows], d


def _terms(poly):
    """The nonzero terms (j, c) of an integer y-polynomial, by increasing j."""
    return [(j, c) for j, c in enumerate(poly) if c]


def _pmac(acc, a, b_terms, w=1):
    """acc += w * a * b in place, for integer y-polynomials a and b, with b
    given by its nonzero terms (_terms); acc grows as needed.  Only nonzero
    terms are multiplied."""
    if not b_terms:
        return
    short = len(a) + b_terms[-1][0] - len(acc)
    if short > 0:
        acc.extend([0] * short)
    for i, ai in enumerate(a):
        if ai:
            ai *= w
            for j, bj in b_terms:
                acc[i + j] += ai * bj


def _fit_row(poly, n, den=1):
    # The row poly / den as (numerators, den) in lowest terms with den > 0:
    # trim trailing zeros, pad to the triangular row length n + 1 and divide
    # by one gcd.  Any surviving coefficient beyond y^n breaks the
    # triangular invariant.
    vals = list(poly)
    while vals and vals[-1] == 0:
        vals.pop()
    if len(vals) > n + 1:
        raise ValueError(
            f"y-degree {len(vals) - 1} exceeds x-degree {n}: "
            "triangular invariant violated"
        )
    g = gcd(*vals, den)
    if den < 0:
        g = -g
    vals = [v // g for v in vals]
    vals.extend([0] * (n + 1 - len(vals)))
    return tuple(vals), den // g


def _common(f: BivariateSeries, order: int):
    """(int_rows, d): rows 0 .. order of f as integer numerators over the lcm
    d of their denominators, the integers _lift(f.rows[: order + 1]) gives."""
    dens = f._den[: order + 1]
    d = lcm(*dens)
    return [row if e == d else [v * (d // e) for v in row]
            for row, e in zip(f._num, dens)], d


# ---------------------------------------------------------------------------
# series type
# ---------------------------------------------------------------------------

class BivariateSeries:
    """Triangular truncated series sum_{n <= order} sum_{k <= n} c[n][k] y^k x^n.

    Row n is stored as the integers _num[n] over _den[n] > 0, in lowest
    terms (an all-zero row has denominator 1), so equal series store equal
    integers.  `rows` is the Fraction view, built on first read.
    """

    __slots__ = ("_order", "_num", "_den", "_view")

    def __init__(self, order: int, rows):
        if order < 0:
            raise ValueError("order must be nonnegative")
        rows = tuple(tuple(row) for row in rows)
        if len(rows) != order + 1:
            raise ValueError(f"expected {order + 1} rows, got {len(rows)}")
        num, den = [], []
        for n, row in enumerate(rows):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
            for k, c in enumerate(row):
                if not isinstance(c, (int, Fraction)):
                    raise ValueError(
                        f"coefficient at (n, k) = ({n}, {k}) is a {type(c).__name__}; "
                        "expected int or Fraction"
                    )
            # reduced entries over their lcm have numerators coprime to it
            (nums,), d = _lift([row])
            num.append(tuple(nums))
            den.append(d)
        self._order = order
        self._num = tuple(num)
        self._den = tuple(den)
        self._view = None

    @classmethod
    def _of(cls, order: int, rows) -> "BivariateSeries":
        # rows are _fit_row's (numerators, den) pairs, one per x-degree 0 .. order
        if order < 0:
            raise ValueError("order must be nonnegative")
        series = object.__new__(cls)
        series._order = order
        series._num, series._den = zip(*rows)
        series._view = None
        return series

    @classmethod
    def from_counts(cls, order: int, counts) -> "BivariateSeries":
        """The series whose coefficient of y^k x^n is counts[n][k] / n!, for
        integer count rows: the inverse of count_coefficient."""
        counts = tuple(counts)
        if len(counts) != order + 1:
            raise ValueError(f"expected {order + 1} rows, got {len(counts)}")
        return cls._of(order, [_fit_row(row, n, factorial(n)) for n, row in enumerate(counts)])

    @property
    def order(self) -> int:
        return self._order

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        # Built on first read; two threads may both build it, to equal values.
        view = self._view
        if view is None:
            view = self._view = tuple(
                tuple(Fraction(v, d) for v in row) for row, d in zip(self._num, self._den)
            )
        return view

    @classmethod
    def x(cls, order: int) -> "BivariateSeries":
        if order < 1:
            raise ValueError("the series x needs order >= 1")
        rows = [((0,) * (n + 1), 1) for n in range(order + 1)]
        rows[1] = ((1, 0), 1)
        return cls._of(order, rows)

    def __eq__(self, other) -> bool:
        # Equality compares coefficients up to the common truncation order;
        # rows in lowest terms are equal iff their integers are.
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        n = min(self._order, other._order) + 1
        return self._den[:n] == other._den[:n] and self._num[:n] == other._num[:n]

    def __repr__(self):
        terms = sum(1 for row in self._num for c in row if c)
        return f"BivariateSeries(order={self._order}, nonzero_terms={terms})"


def exp_minus_one(order: int) -> BivariateSeries:
    """The series e^x - 1 as a bivariate series (constant in y)."""
    rows = [((1 if n else 0,) + (0,) * n, factorial(n)) for n in range(order + 1)]
    return BivariateSeries._of(order, rows)


def exp_x(order: int) -> BivariateSeries:
    """The series e^x as a bivariate series (constant in y)."""
    rows = [((1,) + (0,) * n, factorial(n)) for n in range(order + 1)]
    return BivariateSeries._of(order, rows)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def series_add(a: BivariateSeries, b: BivariateSeries) -> BivariateSeries:
    """Coefficientwise sum, truncated at the smaller order."""
    order = min(a.order, b.order)
    rows = []
    for n in range(order + 1):
        da, db = a._den[n], b._den[n]
        d = lcm(da, db)
        sa, sb = d // da, d // db
        rows.append(_fit_row([u * sa + v * sb for u, v in zip(a._num[n], b._num[n])], n, d))
    return BivariateSeries._of(order, rows)


def series_mul(a: BivariateSeries, b: BivariateSeries) -> BivariateSeries:
    """Cauchy product truncated at the smaller order."""
    order = min(a.order, b.order)
    ra, da = _common(a, order)
    rb, db = _common(b, order)
    tb = [_terms(row) for row in rb]
    rows = []
    for n in range(order + 1):
        acc = []
        for i in range(n + 1):
            if tb[n - i] and any(ra[i]):
                _pmac(acc, ra[i], tb[n - i])
        rows.append(_fit_row(acc, n, da * db))
    return BivariateSeries._of(order, rows)


def series_mul_y(f: BivariateSeries) -> BivariateSeries:
    """Multiply by y.  Valid only when every row has y-degree below its x-degree."""
    rows = []
    for n, (row, d) in enumerate(zip(f._num, f._den)):
        if row[n] != 0:
            raise ValueError(
                f"cannot multiply by y: row {n} already has y-degree {n}"
            )
        rows.append(((0,) + row[:n], d))
    return BivariateSeries._of(f.order, rows)


# ---------------------------------------------------------------------------
# exp / log / composition / integration
# ---------------------------------------------------------------------------

def _solve_rows(seed_rows, order: int, step) -> BivariateSeries:
    """The series of the given order whose first rows are seed_rows and whose
    every later row n is solved from the rows before it.

    step(n, lifted) returns (terms, scale): row n is the sum of w * (G / gamma) * b
    over the terms ((G, gamma), b, w), divided by scale.  G / gamma is an
    integer row over its denominator, such as lifted[m], solved row m as
    stored (numerators, den); b is an integer y-polynomial given by its
    nonzero terms (_terms) and w an integer weight.  Summed over the lcm of
    the gammas, each nonzero term is one integer multiply-accumulate and the
    row one reduction.
    """
    lifted = list(seed_rows[: order + 1])
    for n in range(len(lifted), order + 1):
        terms, scale = step(n, lifted)
        terms = [(g, gamma, b, w) for (g, gamma), b, w in terms if b and any(g)]
        den = lcm(*(gamma for _, gamma, _, _ in terms))
        acc = []
        for g, gamma, b, w in terms:
            _pmac(acc, g, b, w * (den // gamma))
        lifted.append(_fit_row(acc, n, scale * den))
    return BivariateSeries._of(order, lifted)


def series_exp(f: BivariateSeries) -> BivariateSeries:
    """exp(f) for a series with zero constant term.

    Uses the differential recurrence n g_n = sum_m m f_m g_{n-m}, which keeps
    every coefficient exact.
    """
    if f._num[0][0] != 0:
        raise ValueError("series_exp requires zero constant term")
    rows, d = _common(f, f.order)
    terms = [_terms(row) for row in rows]

    def step(n, lifted):
        return [(lifted[n - m], terms[m], m) for m in range(1, n + 1)], n * d

    return _solve_rows([_fit_row([1], 0)], f.order, step)


def series_log(f: BivariateSeries) -> BivariateSeries:
    """log(f) for a series with constant term 1; inverse of series_exp."""
    if f._num[0] != (1,) or f._den[0] != 1:
        raise ValueError("series_log requires constant term 1")
    rows, d = _common(f, f.order)
    terms = [_terms(row) for row in rows]

    def step(n, lifted):
        # g_n = f_n - (1/n) sum_m m g_m f_{n-m}
        sums = [(lifted[m], terms[n - m], -m) for m in range(1, n)]
        return sums + [((rows[n], 1), [(0, n)], 1)], n * d

    return _solve_rows([_fit_row([0], 0)], f.order, step)


def _x_powers(rows, order: int, top: int):
    """Yield P_m = rows^m for m = 1 .. top, each as the nonzero terms (_terms)
    of its integer y-polynomials at x^0 .. x^order, where `rows` are the
    integer rows of d * inner (zero constant term), so that
    inner^m = P_m / d^m."""
    row_terms = [_terms(row) for row in rows[: order + 1]]
    power = rows[: order + 1]
    for m in range(1, top + 1):
        yield [_terms(p) for p in power] if m > 1 else row_terms
        if m == top:
            return
        nxt: list[list[int]] = [[] for _ in range(order + 1)]
        for i in range(m, order + 1):
            if any(power[i]):
                for j in range(1, order + 1 - i):
                    _pmac(nxt[i + j], power[i], row_terms[j])
        power = nxt


def series_compose_shared_y(outer: BivariateSeries, inner: BivariateSeries) -> BivariateSeries:
    """Substitute the bivariate series `inner` for x in `outer`, sharing y.

    Intermediate y-degrees may exceed the triangular bound; the result must
    land back inside it (as it does when composing a series with its
    compositional inverse), otherwise this raises.  Powers of `inner` are
    built only up to the last nonzero row of `outer`.
    """
    if inner._num[0][0] != 0:
        raise ValueError("series_compose_shared_y requires inner constant term 0")
    order = min(outer.order, inner.order)
    out, e = _common(outer, order)
    rows, d = _common(inner, order)
    dpow = [d**k for k in range(order + 1)]
    top = max((m for m, row in enumerate(out) if any(row)), default=0)
    # sum_m outer_m(y) inner^m at x^n is sum_m O_m P_m[n] d^(n-m) / (e d^n)
    acc = [[out[0][0]]] + [[] for _ in range(order)]
    for m, power in enumerate(_x_powers(rows, order, top), start=1):
        row_m = out[m]
        if any(row_m):
            for n in range(m, order + 1):
                _pmac(acc[n], row_m, power[n], dpow[n - m])
    return BivariateSeries._of(
        order, [_fit_row(row, n, e * dpow[n]) for n, row in enumerate(acc)]
    )


def series_integrate_x(f: BivariateSeries) -> BivariateSeries:
    """Termwise antiderivative in x with zero constant term; order grows by one."""
    rows = [((0,), 1)]
    for n, (row, d) in enumerate(zip(f._num, f._den)):
        rows.append(_fit_row(row, n + 1, d * (n + 1)))  # pads y-degree up to n + 1
    return BivariateSeries._of(f.order + 1, rows)


# ---------------------------------------------------------------------------
# compositional inversion in x
# ---------------------------------------------------------------------------

def _check_reversible(f: BivariateSeries) -> Fraction:
    if f.order < 1:
        raise ValueError("inversion needs order >= 1")
    if f._num[0][0] != 0:
        raise ValueError("inversion requires zero constant term")
    row1 = f._num[1]
    if row1[0] == 0 or row1[1] != 0:
        raise ValueError("inversion requires a nonzero constant x-linear coefficient")
    return Fraction(row1[0], f._den[1])


def series_reverse_x(f: BivariateSeries) -> BivariateSeries:
    """Compositional inverse of f in x: the unique g with g(f(x,y), y) = x.

    Solves for the coefficients of g order by order from the triangular
    system [x^n] sum_m g_m (f^m) = [n == 1].
    """
    _check_reversible(f)
    rows, d = _common(f, f.order)
    c = rows[1][0]  # d times the x-linear coefficient
    dpow = [d**k for k in range(f.order + 1)]
    # fpow[m][n] / d^m = y-polynomial coefficient of x^n in f^m
    fpow = [None, *_x_powers(rows, f.order, f.order)]

    def step(n, lifted):
        # g_n = -(d/c)^n sum_m g_m fpow[m][n] / d^m
        return [(lifted[m], fpow[m][n], dpow[n - m]) for m in range(1, n)], -(c**n)

    return _solve_rows([_fit_row([0], 0), _fit_row([d], 1, c)], f.order, step)


def _composition_sums(parts, max_sum: int):
    """sums[s][k] = sum over compositions (j_1, ..., j_k) of s of prod_i parts[j_i],
    for 0 <= k <= s <= max_sum, where parts[j] is an integer y-polynomial of
    degree at most j + 1.

    Compositions are grouped by their last part j, so
    sums[s][k] = sum_j sums[s-j][k-1] parts[j]: O(max_sum^3) polynomial
    products, where listing the compositions would take 2^(max_sum-1).
    """
    part_terms = {j: _terms(part) for j, part in parts.items()}
    sums = [[[0] * (s + k + 1) for k in range(s + 1)] for s in range(max_sum + 1)]
    sums[0][0][0] = 1  # the empty composition
    for s in range(1, max_sum + 1):
        for k in range(1, s + 1):
            for j in range(1, s - k + 2):  # sums[s-j][k-1] needs k-1 <= s-j
                _pmac(sums[s][k], sums[s - j][k - 1], part_terms[j])
    return sums


def lagrange_invert(f: BivariateSeries) -> BivariateSeries:
    """Compositional inverse of f in x via the explicit inversion formula.

    With F_n = n! [x^n] f and hat F_j = F_{j+1} / ((j+1) F_1), the n-th
    normalized coefficient of the inverse is

        G_n = F_1^{-n} sum_{k=1}^{n-1} (-1)^k (n+k-1)!/k!
                  sum_{j_1+...+j_k = n-1} prod_i hat F_{j_i} / j_i!

    and G_1 = 1/F_1.  The inner sums over compositions come from
    _composition_sums, a dynamic program on the last part, in integer
    numerators over a common denominator: O(order^3) polynomial products.
    With series_reverse_x it shares only the integer helpers _common,
    _terms, _fit_row and _pmac and the input check _check_reversible: it
    neither takes powers of f (_x_powers) nor solves rows one after another
    (_solve_rows).
    """
    _check_reversible(f)
    n_max = f.order
    rows, d = _common(f, n_max)
    c = rows[1][0]  # d F_1
    # hat F_j / j! = f_{j+1} / F_1 = rows[j+1] / c, so sums[s][k] carries c^k
    sums = _composition_sums({j: rows[j + 1] for j in range(1, n_max)}, n_max - 1)
    g = [_fit_row([0], 0), _fit_row([d], 1, c)]
    for n in range(2, n_max + 1):
        # g_n = G_n / n! = d^n sum_k (-1)^k (n+k-1)!/k! c^(n-1-k) sums[n-1][k] / (n! c^(2n-1))
        total = []
        for k in range(1, n):
            weight = (-1) ** k * (factorial(n + k - 1) // factorial(k)) * c ** (n - 1 - k) * d**n
            _pmac(total, sums[n - 1][k], [(0, weight)])
        g.append(_fit_row(total, n, factorial(n) * c ** (2 * n - 1)))
    return BivariateSeries._of(n_max, g)


# ---------------------------------------------------------------------------
# named series and count extraction
# ---------------------------------------------------------------------------

def build_F(order: int) -> BivariateSeries:
    """The series (1/y) log(1+xy) + log(1+x) - x.

    Its normalized coefficients are F_1 = 1 and
    F_n(y) = (-1)^(n-1) (n-1)! (1 + y^(n-1)) for n > 1, i.e. the raw row n
    carries (-1)^(n-1)/n at y^0 and at y^(n-1).
    """
    if order < 1:
        raise ValueError("build_F needs order >= 1")
    rows = [((0,), 1), ((1, 0), 1)]
    for n in range(2, order + 1):
        row = [0] * (n + 1)
        row[0] = row[n - 1] = (-1) ** (n - 1)
        rows.append((tuple(row), n))
    return BivariateSeries._of(order, rows)


def count_coefficient(f: BivariateSeries, n: int, k: int) -> int:
    """Extract the integer count n! [y^k x^n] f.

    A non-integral value means an upstream computation is wrong, so it
    raises rather than rounding.
    """
    if n < 0 or n > f.order:
        raise ValueError(f"x-degree {n} outside stored order {f.order}")
    if k < 0 or k > n:
        return 0
    value, den = f._num[n][k] * factorial(n), f._den[n]
    if value % den:
        raise ValueError(f"non-integral count at (n, k) = ({n}, {k}): {Fraction(value, den)}")
    return value // den
