"""Tests for the exact truncated-series algebra."""

import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_reference import compositions
from spmatroids import powerseries
from spmatroids.powerseries import (
    BivariateSeries,
    build_F,
    count_coefficient,
    exp_minus_one,
    exp_x,
    lagrange_invert,
    series_add,
    series_compose_shared_y,
    series_exp,
    series_integrate_x,
    series_log,
    series_mul,
    series_mul_y,
    series_reverse_x,
)
from spmatroids.powerseries import _check_reversible, _composition_sums

N = 12


def poly_x(order=N):
    return BivariateSeries.x(order)


def from_univariate_coeffs(coeffs, order):
    rows = [[coeffs[n] if n < len(coeffs) else 0] + [0] * n for n in range(order + 1)]
    return BivariateSeries(order, rows)


def test_constructor_validation():
    with pytest.raises(ValueError):
        BivariateSeries(2, [[0], [0, 0]])  # missing a row
    with pytest.raises(ValueError):
        BivariateSeries(1, [[0], [0]])  # row 1 must have 2 entries


def test_add_mul_scale():
    x = poly_x()
    x2 = series_mul(x, x)
    assert x2.coeff(2, 0) == 1 and x2.coeff(1, 0) == 0
    # (1+y)x squared -> (1 + 2y + y^2) x^2
    rows = [[0], [1, 1]] + [[0] * (n + 1) for n in range(2, N + 1)]
    f = BivariateSeries(N, rows)
    sq = series_mul(f, f)
    assert [sq.coeff(2, k) for k in range(3)] == [1, 2, 1]
    zero = BivariateSeries.zero(N)
    assert series_add(f, zero) == f


def test_equality_up_to_common_order():
    assert BivariateSeries.x(5) == BivariateSeries.x(9)
    a = BivariateSeries.x(5)
    b = series_mul(BivariateSeries.x(5), BivariateSeries.x(5))
    assert a != b


def test_add_truncates_to_common_order():
    total = series_add(BivariateSeries.x(4), series_exp(BivariateSeries.x(9)))
    assert total.order == 4
    assert total.coeff(1, 0) == 2


def test_exp_basics():
    x = poly_x()
    e = series_exp(x)
    for n in range(N + 1):
        assert e.coeff(n, 0) == Fraction(1, factorial(n))
    assert series_exp(BivariateSeries.zero(N)) == from_univariate_coeffs([1], N)
    with pytest.raises(ValueError):
        series_exp(from_univariate_coeffs([1], N))


def test_exp_of_connected_series_order_2():
    # exp of (1+y)x + y x^2/2 has x^2 coefficient y/2 + (1+y)^2/2
    rows = [[0], [1, 1], [0, Fraction(1, 2), 0]]
    f = BivariateSeries(2, rows)
    g = series_exp(f)
    assert [2 * g.coeff(2, k) * 1 for k in range(3)] == [
        Fraction(1),
        Fraction(3),
        Fraction(1),
    ]
    assert [count_coefficient(g, 2, k) for k in range(3)] == [1, 3, 1]


def test_log_basics():
    one_plus_x = from_univariate_coeffs([1, 1], N)
    lg = series_log(one_plus_x)
    for n in range(1, N + 1):
        assert lg.coeff(n, 0) == Fraction((-1) ** (n - 1), n)
    x = poly_x()
    assert series_log(series_exp(x)) == x
    with pytest.raises(ValueError):
        series_log(x)


def test_compose_x():
    em1 = exp_minus_one(N)
    x2 = series_mul(poly_x(), poly_x())
    comp = series_compose_shared_y(x2, em1)
    # (e^x - 1)^2 = x^2 + x^3 + 7 x^4 / 12 + ...
    assert comp.coeff(2, 0) == 1
    assert comp.coeff(3, 0) == 1
    assert comp.coeff(4, 0) == Fraction(7, 12)
    f = build_F(N)
    assert series_compose_shared_y(f, poly_x()) == f
    with pytest.raises(ValueError):
        series_compose_shared_y(f, from_univariate_coeffs([1] * (N + 1), N))


def test_integrate():
    one = from_univariate_coeffs([1], N)
    integrated = series_integrate_x(one)
    assert integrated.order == N + 1
    assert integrated.coeff(1, 0) == 1
    assert integrated.coeff(0, 0) == 0
    xn = from_univariate_coeffs([0, 0, 0, 1], N)  # x^3
    assert series_integrate_x(xn).coeff(4, 0) == Fraction(1, 4)


def test_mul_y_guard():
    x = poly_x()
    shifted = series_mul_y(x)
    assert shifted.coeff(1, 1) == 1 and shifted.coeff(1, 0) == 0
    with pytest.raises(ValueError):
        series_mul_y(shifted)  # y-degree already equals x-degree at row 1


def test_reverse_catalan():
    rows = [[0], [1, 0], [1, 0, 0]] + [[0] * (n + 1) for n in range(3, N + 1)]
    f = BivariateSeries(N, rows)
    g = series_reverse_x(f)
    assert [g.coeff(n, 0) for n in range(1, 6)] == [1, -1, 2, -5, 14]
    assert series_reverse_x(poly_x()) == poly_x()


def test_reverse_preconditions():
    with pytest.raises(ValueError):
        series_reverse_x(from_univariate_coeffs([0, 0, 1], N))  # zero linear term
    rows = [[0], [1, 1]] + [[0] * (n + 1) for n in range(2, N + 1)]
    with pytest.raises(ValueError):
        series_reverse_x(BivariateSeries(N, rows))  # y-dependent linear term


def test_build_F_coefficients():
    f = build_F(N)
    assert f.coeff(1, 0) == 1 and f.coeff(1, 1) == 0
    assert [f.coeff(2, k) for k in range(3)] == [Fraction(-1, 2), Fraction(-1, 2), 0]
    assert [f.coeff(3, k) for k in range(4)] == [Fraction(1, 3), 0, Fraction(1, 3), 0]


def test_inverse_of_F_small_orders():
    g = series_reverse_x(build_F(N))
    assert [count_coefficient(g, 2, k) for k in range(3)] == [1, 1, 0]
    assert count_coefficient(g, 3, 1) == 6


def test_lagrange_matches_reverse():
    f = build_F(N)
    assert lagrange_invert(f) == series_reverse_x(f)
    assert lagrange_invert(poly_x()) == poly_x()
    rng = random.Random(99)
    for _ in range(3):
        rows = [[0], [Fraction(rng.choice([1, 2, -1]), rng.randint(1, 2)), 0]]
        for n in range(2, 9):
            row = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
            row.append(Fraction(0))
            rows.append(row)
        h = BivariateSeries(8, rows)
        assert lagrange_invert(h) == series_reverse_x(h)


# ---------------------------------------------------------------------------
# Literal Fraction references: the series operations as they were written
# before the kernel went fraction-free, on Fraction polynomial helpers.
# ---------------------------------------------------------------------------

def _fit_row(poly, n, den=1):
    # the row poly / den as a Fraction row of length n + 1, as the kernel
    # stored it before it kept integer rows
    vals = list(poly)
    while vals and vals[-1] == 0:
        vals.pop()
    if len(vals) > n + 1:
        raise ValueError(
            f"y-degree {len(vals) - 1} exceeds x-degree {n}: "
            "triangular invariant violated"
        )
    vals.extend([0] * (n + 1 - len(vals)))
    return tuple(Fraction(v, den) for v in vals)


def _padd(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    ]


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _pscale(a, c):
    return [ai * c for ai in a]


def literal_series_mul(a, b):
    order = min(a.order, b.order)
    rows = []
    for n in range(order + 1):
        acc = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            ra = a.rows[i]
            rb = b.rows[n - i]
            if any(ra) and any(rb):
                acc = _padd(acc, _pmul(ra, rb))
        rows.append(_fit_row(acc, n))
    return BivariateSeries(order, rows)


def literal_series_exp(f):
    if f.rows[0][0] != 0:
        raise ValueError("series_exp requires zero constant term")
    n_max = f.order
    g = [[Fraction(1)]]
    for n in range(1, n_max + 1):
        acc = [Fraction(0)]
        for m in range(1, n + 1):
            fm = f.rows[m]
            if any(fm):
                acc = _padd(acc, _pscale(_pmul(fm, g[n - m]), m))
        g.append(_pscale(acc, Fraction(1, n)))
    return BivariateSeries(n_max, [_fit_row(row, n) for n, row in enumerate(g)])


def literal_series_log(f):
    if f.rows[0][0] != 1:
        raise ValueError("series_log requires constant term 1")
    n_max = f.order
    g = [[Fraction(0)]]
    for n in range(1, n_max + 1):
        acc = [Fraction(0)]
        for m in range(1, n):
            gm = g[m]
            fnm = f.rows[n - m]
            if any(gm) and any(fnm):
                acc = _padd(acc, _pscale(_pmul(gm, fnm), m))
        g.append(_padd(list(f.rows[n]), _pscale(acc, Fraction(-1, n))))
    return BivariateSeries(n_max, [_fit_row(row, n) for n, row in enumerate(g)])


def literal_x_powers(rows, order):
    power = [list(row) for row in rows[: order + 1]]
    for m in range(1, order + 1):
        yield power
        nxt = [[Fraction(0)] for _ in range(order + 1)]
        for i in range(m, order + 1):
            if any(power[i]):
                for j in range(1, order + 1 - i):
                    if any(rows[j]):
                        nxt[i + j] = _padd(nxt[i + j], _pmul(power[i], rows[j]))
        power = nxt


def literal_series_compose_shared_y(outer, inner):
    if inner.rows[0][0] != 0:
        raise ValueError("series_compose_shared_y requires inner constant term 0")
    order = min(outer.order, inner.order)
    acc = [[outer.rows[0][0]]] + [[Fraction(0)] for _ in range(order)]
    for m, power in enumerate(literal_x_powers(inner.rows, order), start=1):
        row_m = outer.rows[m]
        if any(row_m):
            for n in range(m, order + 1):
                if any(power[n]):
                    acc[n] = _padd(acc[n], _pmul(row_m, power[n]))
    return BivariateSeries(order, [_fit_row(row, n) for n, row in enumerate(acc)])


def literal_series_reverse_x(f):
    c = _check_reversible(f)
    n_max = f.order
    fpow = [None, *literal_x_powers(f.rows, n_max)]
    g = [[Fraction(0)], [Fraction(1) / c]]
    for n in range(2, n_max + 1):
        acc = [Fraction(0)]
        for m in range(1, n):
            if any(g[m]) and any(fpow[m][n]):
                acc = _padd(acc, _pmul(g[m], fpow[m][n]))
        g.append(_pscale(acc, Fraction(-1) / c ** n))
    return BivariateSeries(n_max, [_fit_row(row, n) for n, row in enumerate(g)])


def literal_lagrange_invert(f):
    """The inversion formula with each composition's product built from scratch."""
    c = _check_reversible(f)
    n_max = f.order
    big_f = [None] + [_pscale(f.rows[n], factorial(n)) for n in range(1, n_max + 1)]
    hat = {j: _pscale(big_f[j + 1], Fraction(1, j + 1) / c) for j in range(1, n_max)}
    g = [[Fraction(0)], [Fraction(1) / c]]
    for n in range(2, n_max + 1):
        total = [Fraction(0)]
        for k in range(1, n):
            comp_sum = [Fraction(0)]
            for js in compositions(n - 1, k):
                term = [Fraction(1)]
                for j in js:
                    term = _pscale(_pmul(term, hat[j]), Fraction(1, factorial(j)))
                comp_sum = _padd(comp_sum, term)
            weight = Fraction((-1) ** k * factorial(n + k - 1), factorial(k))
            total = _padd(total, _pscale(comp_sum, weight))
        gn = _pscale(total, Fraction(1) / c ** n)
        g.append(_pscale(gn, Fraction(1, factorial(n))))
    return BivariateSeries(n_max, [_fit_row(row, n) for n, row in enumerate(g)])


def random_reversible(rng, order):
    # row n has y-degree at most n - 1, a class closed under inversion
    rows = [[0], [Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)), 0]]
    for n in range(2, order + 1):
        rows.append([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] + [0])
    return BivariateSeries(order, rows)


@pytest.mark.parametrize("order", range(1, 10))
def test_lagrange_matches_literal_composition_sum(order):
    rng = random.Random(1000 + order)
    for f in [build_F(order)] + [random_reversible(rng, order) for _ in range(3)]:
        assert lagrange_invert(f).rows == literal_lagrange_invert(f).rows


def test_composition_sums_count_compositions():
    # with every part equal to 1, sums[s][k] counts the compositions of s into k parts
    sums = _composition_sums({j: [1] for j in range(1, 9)}, 8)
    for s in range(9):
        for k in range(s + 1):
            assert sums[s][k] == [sum(1 for _ in compositions(s, k))] + [0] * (s + k)


@st.composite
def unit_reversible_series(draw):
    """Small series with F_1 = +-1, integer F_n and y-degree at most n - 1 at x^n."""
    order = draw(st.integers(1, 8))
    rows = [[0], [draw(st.sampled_from([-1, 1])), 0]]
    for n in range(2, order + 1):
        coeffs = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
        rows.append([Fraction(v, factorial(n)) for v in coeffs] + [0])
    return BivariateSeries(order, rows)


@settings(max_examples=60, deadline=None)
@given(unit_reversible_series())
def test_lagrange_matches_reverse_on_random_series(f):
    assert lagrange_invert(f) == series_reverse_x(f)


RATIONALS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 7))


def draw_series(draw, order, constant=None, lag=0):
    """A triangle series: `constant` (drawn if None) at x^0, then small rationals
    (denominators 1..7, either sign) at y^0 .. y^(n - lag) of each x^n and
    zeros above; about one row in four is all zero."""
    rows = [[draw(RATIONALS) if constant is None else constant]]
    for n in range(1, order + 1):
        if draw(st.integers(0, 3)) == 0:
            rows.append([0] * (n + 1))
        else:
            rows.append(draw(st.lists(RATIONALS, min_size=n + 1 - lag, max_size=n + 1 - lag)) + [0] * lag)
    return BivariateSeries(order, rows)


def draw_reversible(draw, order):
    # F_1 = +-p/q and y-degree at most n - 1 at x^n, as reversion needs
    f = draw_series(draw, order, 0, lag=1)
    sign = draw(st.sampled_from([-1, 1]))
    rows = [list(row) for row in f.rows]
    rows[1] = [Fraction(sign * draw(st.integers(1, 7)), draw(st.integers(1, 7))), 0]
    return BivariateSeries(order, rows)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_series_mul_ring_laws(data):
    order = data.draw(st.integers(0, 5))
    a, b, c = (draw_series(data.draw, order) for _ in range(3))
    assert series_mul(a, b) == series_mul(b, a)
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
    assert series_mul(a, series_add(b, c)) == series_add(series_mul(a, b), series_mul(a, c))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exp_inverts_log_on_rational_series(data):
    order = data.draw(st.integers(1, 6))
    one_plus_f = draw_series(data.draw, order, 1)
    assert series_exp(series_log(one_plus_f)) == one_plus_f


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_reverse_twice_is_identity_on_rational_series(data):
    f = draw_reversible(data.draw, data.draw(st.integers(1, 6)))
    assert series_reverse_x(series_reverse_x(f)) == f


def outcome(op, *args):
    """The rows op(*args) returns, or the message of the ValueError it raises."""
    try:
        return op(*args).rows
    except ValueError as err:
        return str(err)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fraction_free_ops_equal_literal_references(data):
    order = data.draw(st.integers(0, 8))
    a, b = draw_series(data.draw, order), draw_series(data.draw, order)
    f0, f1 = draw_series(data.draw, order, 0), draw_series(data.draw, order, 1)
    assert series_mul(a, b).rows == literal_series_mul(a, b).rows
    assert series_exp(f0).rows == literal_series_exp(f0).rows
    assert series_log(f1).rows == literal_series_log(f1).rows
    # an arbitrary inner series may push the result out of the triangle: both raise alike
    assert outcome(series_compose_shared_y, a, f0) == outcome(literal_series_compose_shared_y, a, f0)
    if order >= 1:
        g = draw_reversible(data.draw, order)
        assert series_reverse_x(g).rows == literal_series_reverse_x(g).rows
        assert outcome(series_compose_shared_y, a, g) == outcome(literal_series_compose_shared_y, a, g)


def test_compose_leaving_the_triangle_raises():
    # F has y^1 at x^2, and ((1 + y) x)^2 adds two more powers of y at x^2
    inner = BivariateSeries(4, [[0], [1, 1]] + [[0] * (n + 1) for n in range(2, 5)])
    with pytest.raises(ValueError, match="triangular invariant violated"):
        series_compose_shared_y(build_F(4), inner)


def test_lagrange_shares_nothing_with_coefficient_solving(monkeypatch):
    f = build_F(10)
    expected = series_reverse_x(f)

    def refuse(*args):
        raise AssertionError("the coefficient-solving route was called")

    for name in ("_x_powers", "_solve_rows", "series_compose_shared_y", "series_reverse_x"):
        monkeypatch.setattr(powerseries, name, refuse)
    assert powerseries.lagrange_invert(f) == expected


def test_lagrange_matches_reverse_at_order_30():
    f = build_F(30)
    assert lagrange_invert(f) == series_reverse_x(f)


def test_lagrange_work_is_cubic_in_the_order(monkeypatch):
    # a walk over the compositions of every s <= 19 makes 2^19 - 1 = 524,287 products
    order = 20
    calls = 0
    real = powerseries._pmac

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(powerseries, "_pmac", counted)
    lagrange_invert(build_F(order))
    assert 0 < calls <= order**3


def test_two_sided_inverse():
    f = build_F(N)
    for g in (series_reverse_x(f), lagrange_invert(f)):
        assert series_compose_shared_y(g, f) == poly_x()
        assert series_compose_shared_y(f, g) == poly_x()


def test_inverse_palindromy_and_integrality():
    g = series_reverse_x(build_F(N))
    for n in range(1, N + 1):
        for l in range(n):
            assert count_coefficient(g, n, l) == count_coefficient(g, n, n - 1 - l)
            assert count_coefficient(g, n, l) >= 0


def test_count_coefficient():
    x = poly_x()
    one = series_exp(BivariateSeries.zero(N))
    assert count_coefficient(one, 0, 0) == 1
    assert count_coefficient(x, 1, 0) == 1
    assert count_coefficient(x, 1, 1) == 0
    assert count_coefficient(x, 5, 8) == 0
    with pytest.raises(ValueError):
        count_coefficient(x, N + 1, 0)
    third = from_univariate_coeffs([0, 0, Fraction(1, 3)], N)
    with pytest.raises(ValueError):
        count_coefficient(third, 2, 0)  # 2!/3 is not an integer


def test_exp_x_multiplier():
    e = exp_x(N)
    assert all(e.coeff(n, 0) == Fraction(1, factorial(n)) for n in range(N + 1))
    assert series_mul(e, from_univariate_coeffs([1], N)) == e


# ---------------------------------------------------------------------------
# Integer rows: storage in lowest terms, the Fraction view and equality
# ---------------------------------------------------------------------------

def assert_lowest_terms(s):
    for n, (row, den) in enumerate(zip(s._num, s._den)):
        assert type(row) is tuple and len(row) == n + 1
        assert den > 0 and gcd(*row, den) == 1, (n, row, den)


def literal_series_add(a, b):
    order = min(a.order, b.order)
    return BivariateSeries(order, [[a.rows[n][k] + b.rows[n][k] for k in range(n + 1)]
                                   for n in range(order + 1)])


def literal_series_integrate_x(f):
    return BivariateSeries(f.order + 1, [[0]] + [[v / (n + 1) for v in row] + [0]
                                                 for n, row in enumerate(f.rows)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_results_are_in_lowest_terms_and_read_as_the_literal_references(data):
    order = data.draw(st.integers(0, 7))
    a, b = draw_series(data.draw, order), draw_series(data.draw, order)
    f0, f1 = draw_series(data.draw, order, 0), draw_series(data.draw, order, 1)
    pairs = [
        (a, None),
        (series_add(a, b), literal_series_add(a, b)),
        (series_mul(a, b), literal_series_mul(a, b)),
        (series_exp(f0), literal_series_exp(f0)),
        (series_log(f1), literal_series_log(f1)),
        (series_integrate_x(a), literal_series_integrate_x(a)),
    ]
    if order >= 1:
        g = draw_reversible(data.draw, order)
        pairs += [
            (series_reverse_x(g), literal_series_reverse_x(g)),
            (lagrange_invert(g), literal_lagrange_invert(g)),
            (series_compose_shared_y(a, g), None),
            (series_mul_y(g), None),
        ]
    for got, want in pairs:
        assert_lowest_terms(got)
        assert got.rows == tuple(tuple(Fraction(v, d) for v in row) for row, d in zip(got._num, got._den))
        if want is not None:
            assert got.rows == want.rows


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_equality_agrees_with_fraction_row_equality_across_orders(data):
    a = draw_series(data.draw, data.draw(st.integers(0, 6)))
    order = data.draw(st.integers(0, 6))
    rows = [list(row) for row in a.rows[: order + 1]]
    rows += [[0] * (n + 1) for n in range(len(rows), order + 1)]
    if data.draw(st.booleans()):
        n = data.draw(st.integers(0, order))
        rows[n][data.draw(st.integers(0, n))] += data.draw(RATIONALS)
    b = BivariateSeries(order, rows)
    common = min(a.order, b.order) + 1
    assert (a == b) == (b == a) == (a.rows[:common] == b.rows[:common])


def test_constructor_refuses_float_coefficients():
    with pytest.raises(ValueError, match=r"\(n, k\) = \(1, 0\) is a float"):
        BivariateSeries(2, [[0], [0.1, 0], [0, 0, 0]])
    assert BivariateSeries(1, [[0], [Fraction(1, 10), 0]]).coeff(1, 0) == Fraction(1, 10)


def test_from_counts_divides_each_row_by_n_factorial():
    counts = [[1], [1, 1], [2, 3, 1], [6, 11, 6, 1]]
    s = BivariateSeries.from_counts(3, counts)
    assert_lowest_terms(s)
    assert s.rows == tuple(tuple(Fraction(c, factorial(n)) for c in row) for n, row in enumerate(counts))
    assert [[count_coefficient(s, n, k) for k in range(n + 1)] for n in range(4)] == counts


def test_count_coefficient_non_integral_message():
    third = from_univariate_coeffs([0, 0, Fraction(1, 3)], N)
    with pytest.raises(ValueError) as err:
        count_coefficient(third, 2, 0)
    assert str(err.value) == "non-integral count at (n, k) = (2, 0): 2/3"


def test_kernel_operations_build_no_fraction(monkeypatch):
    rng = random.Random(34)
    f = random_reversible(rng, N)
    one_plus_f = series_add(series_exp(BivariateSeries.zero(N)), f)
    e, big_f = exp_minus_one(N), build_F(N)
    built, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    series_exp(f)
    series_log(one_plus_f)
    series_mul(f, e)
    series_add(f, e)
    series_integrate_x(f)
    series_compose_shared_y(big_f, e)
    assert series_compose_shared_y(f, e) != f
    assert built == []
    for invert in (series_reverse_x, lagrange_invert):
        built.clear()
        invert(big_f)
        assert len(built) <= 1  # the x-linear coefficient _check_reversible returns


def test_composition_builds_only_the_powers_it_reads(monkeypatch):
    taken, real = [], powerseries._x_powers

    def counted(*args):
        for power in real(*args):
            taken.append(power)
            yield power

    monkeypatch.setattr(powerseries, "_x_powers", counted)
    f = build_F(N)
    assert series_compose_shared_y(poly_x(), f) == f
    assert len(taken) == 1
