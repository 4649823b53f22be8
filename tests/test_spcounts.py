"""Tests for the closed-form count families and their conversions."""

import ast
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmatroids import spcounts, verify
from spmatroids.combinum import assoc_stirling1, double_factorial, stirling2
from spmatroids.powerseries import BivariateSeries, count_coefficient, series_exp
from spmatroids.spcounts import (
    TriangularCountTable,
    build_tables,
    c_closed,
    count_series,
    e_closed,
    e_from_c,
    e_special,
    egf_exp,
    g_closed,
)


def test_e_closed_pinned_values():
    assert e_closed(5, 3) == 15  # 5!! * 5^0
    assert e_closed(7, 4) == 735  # 7!! * 7
    assert e_closed(4, 3) == 1  # the 4-cycle, unique labeled matroid
    assert e_closed(1, 1) == 1  # single coloop
    assert e_closed(3, 2) == 1  # the triangle
    assert e_closed(3, 3) == 0
    assert e_closed(5, 4) == 1  # the 5-cycle


def test_e_closed_total_function():
    assert e_closed(4, 0) == 0
    assert e_closed(2, 5) == 0
    assert e_closed(10, 3) == 0  # vanishing region n >= 2k > 0
    for n in range(1, 41):
        for k in range(1, n // 2 + 1):
            assert e_closed(n, k) == 0


def test_e_closed_odd_row_double_factorial_form():
    for k in range(1, 13):
        expected = double_factorial(2 * k - 1) * Fraction(2 * k - 1) ** (k - 3)
        assert expected.denominator == 1
        assert e_closed(2 * k - 1, k) == int(expected)


def literal_e_closed(n, k):
    # the printed sum entry by entry, over one common denominator (r-1)!
    if n < 1 or k < 1 or k > n:
        return 0
    r = 2 * k - n
    if r < 1:
        return 0
    denominator = factorial(r - 1)
    total = 0
    for p in range(1, r + 1):
        d = assoc_stirling1(2 * k - p - 1, k - p)
        if d == 0:
            continue
        e = k - p - 1
        inner = 0
        for i in range(r - p + 1):
            power = (2 * k - p - i) ** e if e >= 0 else 1  # 1^(-1) only at (1, 1)
            term = comb(r - p, i) * power
            inner += -term if (i + p) % 2 == 0 else term
        total += d * (denominator // factorial(r - p)) * inner
    value, remainder = divmod(total, denominator)
    assert remainder == 0, (n, k)
    return value


def test_e_closed_matches_literal_sum(cold_memos):
    for n in range(61):
        for k in range(-1, n + 2):
            assert e_closed(n, k) == literal_e_closed(n, k), (n, k)


@pytest.mark.parametrize("n", [80, 100])
def test_e_closed_row_matches_literal_sum(cold_memos, n):
    assert spcounts._e_row(n) == tuple(literal_e_closed(n, k) for k in range(n + 1))


def test_cold_e_closed_builds_only_its_row(cold_memos):
    assert e_closed(300, 200) == literal_e_closed(300, 200)
    assert spcounts._e_row.cache_info().currsize == 1


def test_e_closed_vanishing_entries_build_no_row(cold_memos):
    # outside the triangle nothing is built; inside it, vanishing entries
    # are read off their row like every other entry
    assert e_closed(300, 301) == 0
    assert spcounts._e_row.cache_info().currsize == 0
    assert e_closed(300, 150) == e_closed(300, 0) == 0
    assert spcounts._e_row.cache_info().currsize == 1


def _names_in(function, module=spcounts):
    # every name and attribute a top-level function of the module refers to
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


E_CLOSED_FORBIDDEN = {"e_from_c", "c_closed", "_count_rows", "_s2_diagonals", "_s2_row"}


@pytest.mark.parametrize("route, forbidden", [
    ("e_closed", E_CLOSED_FORBIDDEN),
    ("_e_row", E_CLOSED_FORBIDDEN),
    ("e_from_c", {"e_closed", "_e_row"}),
])
def test_e_routes_share_nothing(route, forbidden):
    # the closed form and the inversion of C are independent routes to E
    assert _names_in(route).isdisjoint(forbidden)


def test_egf_exp_shares_nothing_with_the_series_exp_it_is_checked_against():
    # gf-simple-exponential compares S from egf_exp with series_exp of E
    assert _names_in("egf_exp").isdisjoint({"series_exp", "_solve_rows"})


def test_printed_g_in_verify_shares_nothing_with_the_c_rows():
    # verify's second side of C(n, l) = G(n-1, l-1) is the printed G sum itself
    forbidden = {"c_closed", "g_closed", "_c_row", "_count_rows", "count_series", "build_tables"}
    assert _names_in("_printed_g", verify).isdisjoint(forbidden)


def test_c_closed_pinned_values():
    assert c_closed(4, 2) == 6  # six labelings of the doubled-edge triangle
    assert c_closed(3, 1) == 1  # triple edge
    assert c_closed(5, 2) == 25
    assert c_closed(1, 0) == 1 and c_closed(1, 1) == 1
    for n in range(2, 20):
        assert c_closed(n, n) == 0
        assert c_closed(n, 0) == 0


def test_c_duality():
    for n in range(1, 31):
        for k in range(n + 1):
            assert c_closed(n, k) == c_closed(n, n - k)


def test_g_closed_values():
    assert g_closed(2, 0) == 1 and g_closed(2, 1) == 1
    assert g_closed(3, 1) == 6
    assert g_closed(3, 3) == 0
    assert g_closed(1, 0) == 1
    assert g_closed(4, -1) == 0


def test_g_palindromy_and_c_shift():
    for n in range(1, 31):
        for l in range(n):
            assert g_closed(n, l) == g_closed(n, n - 1 - l)
    for n in range(2, 31):
        for l in range(1, n + 1):
            assert c_closed(n, l) == g_closed(n - 1, l - 1)


def test_e_from_c_rows():
    table = e_from_c(5)
    assert table.row(3) == (0, 0, 1, 0)
    assert table.row(4) == (0, 0, 0, 1, 0)
    assert table.row(5)[3] == 15


def test_e_from_c_matches_e_closed():
    table = e_from_c(40)
    for n in range(1, 41):
        for k in range(n + 1):
            assert table.value(n, k) == e_closed(n, k)


def test_e_rows_match_e_from_c():
    assert build_tables(100, "E").rows == e_from_c(100).rows


@pytest.mark.parametrize("family", ["E", "S", "A"])
def test_row_memo_prefix_equals_cold_build(cold_memos, family):
    # row n reads only rows <= n, so a longer build starts with a shorter one
    warm = spcounts._count_rows(family, 60)[:14]
    cold_memos()
    spcounts._count_rows(family, 12)
    assert warm == spcounts._count_rows(family, 13)


def test_s_reuses_memoised_e_rows(cold_memos):
    e = build_tables(60, "E")
    s = build_tables(60, "S")
    info = spcounts._e_row.cache_info()
    assert (info.misses, info.hits) == (60, 0)
    assert e.row(5) == (0, 0, 0, 15, 1, 0) and s.row(4) == (0, 0, 0, 5, 1)


def test_a_reuses_memoised_s_rows(cold_memos, monkeypatch):
    calls = []
    real = spcounts.egf_exp
    monkeypatch.setattr(spcounts, "egf_exp", lambda rows: calls.append(len(rows)) or real(rows))
    build_tables(60, "S")
    a = build_tables(60, "A")
    info = spcounts._e_row.cache_info()
    assert calls == [61] and (info.misses, info.hits) == (60, 0)
    assert a.row(3) == (1, 7, 7, 1)


def test_a_rows_equal_exp_of_c_rows():
    assert spcounts._count_rows("A", 100) == egf_exp(spcounts._count_rows("C", 100))


@st.composite
def integer_triangles(draw):
    """Normalized integer rows n! [y^k x^n] f, n <= 7, with zero constant row."""
    order = draw(st.integers(0, 7))
    coeff = st.integers(-30, 30)
    return [(0,)] + [
        tuple(draw(st.lists(coeff, min_size=n + 1, max_size=n + 1)))
        for n in range(1, order + 1)
    ]


@settings(max_examples=60, deadline=None)
@given(integer_triangles())
def test_egf_exp_matches_series_exp(rows):
    order = len(rows) - 1
    raw = [[Fraction(c, factorial(n)) for c in row] for n, row in enumerate(rows)]
    reference = series_exp(BivariateSeries(order, raw))
    assert egf_exp(rows) == tuple(
        tuple(count_coefficient(reference, n, k) for k in range(n + 1))
        for n in range(order + 1)
    )


def literal_egf_exp(rows):
    # the dense binomial convolution, testing every entry of both rows for zero
    out = [(1,)]
    for n in range(1, len(rows)):
        acc = [0] * (n + 1)
        for m in range(1, n + 1):
            weight = comb(n - 1, m - 1)
            prev = out[n - m]
            for i, fi in enumerate(rows[m]):
                if fi:
                    wi = weight * fi
                    for j, aj in enumerate(prev):
                        if aj:
                            acc[i + j] += wi * aj
        out.append(tuple(acc))
    return tuple(out)


@pytest.mark.parametrize("family, max_n", [("E", 100), ("C", 60)])
def test_egf_exp_matches_literal_on_family_rows(family, max_n):
    # E rows vanish for k <= n/2, C rows only at k = 0 and k = n
    rows = spcounts._count_rows(family, max_n)
    assert egf_exp(rows) == literal_egf_exp(rows)


@pytest.mark.parametrize("rows", [
    [(0,), (0, 0), (0, 0, 0), (0, 0, 0, 0)],
    # an all-zero interior row, leading and trailing zeros, negative entries
    [(0,), (1, -2), (0, 0, 0), (0, 0, 5, 0), (0, -3, 0, 4, 0), (0, 0, 0, 0, 0, -1)],
    [(0,), (0, 0), (0, 4, 0), (0, 0, 0, 0), (-1, 0, 0, 0, 7), (2, 0, 0, 0, 0, 0)],
    # exp's row 2 cancels to zero: 2! [x^2] exp(x - x^2/2) = 0
    [(0,), (1, 0), (-1, 0, 0), (0, 0, 0, 3)],
])
def test_egf_exp_matches_literal_on_sparse_rows(rows):
    assert egf_exp(rows) == literal_egf_exp(rows)


def test_egf_exp_basics():
    assert egf_exp([(0,)]) == ((1,),)
    # exp of (1+y)x + y x^2/2, the order-2 connected series
    assert egf_exp([(0,), (1, 1), (0, 1, 0)]) == ((1,), (1, 1), (1, 3, 1))
    # exp(e^x - 1) counts set partitions: the Bell numbers
    bell = egf_exp([(0,)] + [(1,) + (0,) * n for n in range(1, 6)])
    assert [row[0] for row in bell] == [1, 1, 2, 5, 15, 52]
    with pytest.raises(ValueError):
        egf_exp([(1,), (0, 0)])
    with pytest.raises(ValueError):
        egf_exp([(0,), (1,)])
    with pytest.raises(ValueError):
        egf_exp([])


def _c_literal(n, l):
    if n < 1 or l < 0 or l > n:
        return 0
    if n == 1:
        return 1
    return sum(
        (-1) ** (k + l - 1) * assoc_stirling1(k + l - 1, k) * stirling2(n - 1 + k, k + l)
        for k in range(l)
    )


def _g_literal(n, l):
    if n < 1 or l < 0 or l > n - 1:
        return 0
    return sum(
        (-1) ** (j + l) * assoc_stirling1(j + l, j) * stirling2(n + j, j + l + 1)
        for j in range(l + 1)
    )


@pytest.mark.parametrize("memos", ["shared", "seed-only"])
def test_c_and_g_closed_match_literal_sums(memos, request):
    # seed-only memos are emptied before every call, so each closed form must
    # grow the S2 and D diagonals itself to every index it reads
    fresh = request.getfixturevalue("cold_memos") if memos == "seed-only" else lambda: None

    for n in range(31):
        for l in range(-1, n + 3):
            fresh()
            c = c_closed(n, l)
            fresh()
            g = g_closed(n, l)
            assert (c, g) == (_c_literal(n, l), _g_literal(n, l)), (n, l)


@pytest.mark.parametrize("n", [80, 100, 150])
def test_c_and_g_rows_match_literal_sums(cold_memos, n):
    assert spcounts._c_row(n) == tuple(_c_literal(n, l) for l in range(n + 1))
    cold_memos()
    g_row = tuple(g_closed(n, l) for l in range(n + 1))  # read off C's row n + 1
    assert g_row == tuple(_g_literal(n, l) for l in range(n + 1))


def test_cold_c_and_g_closed_build_only_their_rows(cold_memos):
    assert c_closed(150, 75) == _c_literal(150, 75)
    assert g_closed(150, 74) == _g_literal(150, 74)
    # C's row 150 and, for G's row 150, C's row 151
    assert spcounts._c_row.cache_info().currsize == 2


def test_stirling_convolution_of_e_gives_c():
    for n in range(2, 21):
        for l in range(n + 1):
            total = sum(stirling2(n, m) * e_closed(m, l) for m in range(1, n + 1))
            assert total == c_closed(n, l)


def test_e_special_r1():
    for k in range(1, 13):
        assert e_special(2 * k - 1, k, 1) == e_closed(2 * k - 1, k)
    assert e_special(7, 4, 1) == 735


def test_e_special_r2_printed_discrepancy():
    # The printed r = 2 variant disagrees with every other route at k = 3.
    assert e_special(4, 3, 2) == 5
    assert e_closed(4, 3) == 1
    assert e_special(2, 2, 2) == 0 == e_closed(2, 2)


def test_e_special_r3():
    assert e_special(3, 3, 3) == 0 == e_closed(3, 3)
    assert e_special(5, 4, 3) == 1 == e_closed(5, 4)
    for k in range(3, 13):
        assert e_special(2 * k - 3, k, 3) == e_closed(2 * k - 3, k)


def test_e_special_validation():
    with pytest.raises(ValueError):
        e_special(4, 3, 4)
    with pytest.raises(ValueError):
        e_special(5, 3, 2)  # n != 2k - r
    with pytest.raises(ValueError):
        e_special(1, 2, 3)  # k < r


def test_build_tables_rows():
    a = build_tables(4, "A")
    assert a.row(0) == (1,)
    assert a.row(2) == (1, 3, 1)
    s = build_tables(4, "S")
    assert s.row(4) == (0, 0, 0, 5, 1)
    c = build_tables(4, "C")
    assert c.row(4) == (0, 1, 6, 1, 0)
    e = build_tables(4, "E")
    assert e.row(4) == (0, 0, 0, 1, 0)
    with pytest.raises(ValueError):
        build_tables(4, "X")


@pytest.mark.parametrize("family, connected", [("A", "C"), ("S", "E")])
def test_quasi_tables_match_series_exp_route(family, connected):
    # the integer binomial-convolution table against the Fraction reference
    reference = series_exp(count_series(connected, 20))
    table = build_tables(20, family)
    for n in range(21):
        for k in range(n + 1):
            assert table.value(n, k) == count_coefficient(reference, n, k), (n, k)


def test_count_coefficient_on_family_series():
    a = count_series("A", 4)
    assert count_coefficient(a, 2, 1) == 3
    s = count_series("S", 4)
    assert count_coefficient(s, 3, 2) == 1
    e = count_series("E", 4)
    assert count_coefficient(e, 4, 3) == 1


def test_table_type_validation():
    with pytest.raises(ValueError):
        TriangularCountTable("C", 1, ((1, -1),))
    with pytest.raises(ValueError):
        TriangularCountTable("C", 1, ((1, 1, 1),))
    t = build_tables(3, "C")
    assert t.max_n == 3
    assert t.value(3, 9) == 0
    with pytest.raises(ValueError):
        t.row(0)


def test_table_copies_are_validated():
    # _replace builds through _make, which NamedTuple would run past __new__
    t = build_tables(3, "C")
    with pytest.raises(ValueError, match=r"negative count in row n = 2: \(0, -5, 0\)"):
        t._replace(rows=((1, 1), (0, -5, 0), (0, 1, 1, 0)))
    with pytest.raises(ValueError, match="row for n = 1 must have 2 entries"):
        TriangularCountTable._make(("C", 1, ((1, 1, 1),)))
    assert t._replace(family="C") == t._make(t) == t
    assert type(t._make(t)) is TriangularCountTable


def test_table_fields_are_read_only():
    t = build_tables(3, "C")
    with pytest.raises(AttributeError):
        t.rows = ((0, 0),)
    with pytest.raises(AttributeError):
        t.extra = 1
    assert t == build_tables(3, "C")
