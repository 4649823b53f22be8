"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact (no tolerances anywhere).
"""

from fractions import Fraction

from oracle_reference import closure
from spmatroids import oracle
from spmatroids.combinum import double_factorial
from spmatroids.config import DEFAULT_SEQUENCE_MAP, RunConfig
from spmatroids.oeis import bfile_path, compare_with_bfile, parse_bfile
from spmatroids.powerseries import (
    BivariateSeries,
    build_F,
    exp_minus_one,
    exp_x,
    lagrange_invert,
    series_add,
    series_compose_shared_y,
    series_exp,
    series_integrate_x,
    series_mul,
    series_mul_y,
    series_reverse_x,
)
from spmatroids.spcounts import build_tables, c_closed, e_closed, e_from_c, e_special
from spmatroids.verify import count_series

ORDER = 12


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_oracle_formula_agreement():
    tables = {fam: build_tables(7, fam) for fam in ("C", "E", "A", "S")}
    for fam, table in tables.items():
        rows = oracle.count_rows(fam, 7)
        for n in range(table.start_n, 8):
            assert list(table.row(n)) == rows[n], f"{fam} row {n}"
    assert list(tables["C"].row(4)) == [0, 1, 6, 1, 0]
    assert list(tables["E"].row(4)) == [0, 0, 0, 1, 0]
    assert list(tables["A"].row(2)) == [1, 3, 1]
    _report(1, "brute-force counts equal formula counts, all four families, n <= 7")


def test_criterion_2_special_cases():
    for k in range(3, 13):
        want = double_factorial(2 * k - 1) * (2 * k - 1) ** (k - 3)
        assert e_closed(2 * k - 1, k) == want, k
    assert e_closed(1, 1) == 1
    assert e_closed(3, 2) == 1
    assert e_closed(7, 4) == 735
    _report(2, "odd-row closed form (2k-1)!! (2k-1)^(k-3) for 3 <= k <= 12, "
               "plus E(1,1) = E(3,2) = 1 and E(7,4) = 735")


def test_criterion_3_route_agreement(default_report):
    table = e_from_c(40)
    for n in range(1, 41):
        for k in range(n + 1):
            assert table.value(n, k) == e_closed(n, k), (n, k)
    # G's rows are C's rows shifted, so the check that evaluates the printed G sum
    # on its own is the one that can fail
    c_vs_g = next(c for c in default_report.checks if c.name == "counts-c-vs-inverse-coefficients")
    assert (c_vs_g.status, c_vs_g.ranges) == ("pass", "2 <= n <= 30"), c_vs_g
    _report(3, "E route agreement to n = 40; C(n,l) = G(n-1,l-1) to n = 30, exact")


def test_criterion_4_generating_function_identities():
    e = count_series("E", ORDER)
    c = count_series("C", ORDER)
    s = count_series("S", ORDER)
    a = count_series("A", ORDER)
    g = count_series("G", ORDER)
    em1 = exp_minus_one(ORDER)
    x = BivariateSeries.x(ORDER)

    assert s == series_exp(e)
    assert a == series_exp(c)
    assert c == series_add(series_compose_shared_y(e, em1), x)
    assert a == series_mul(series_compose_shared_y(s, em1), exp_x(ORDER))

    lin_rows = [[Fraction(0)], [Fraction(1), Fraction(1)]] + [
        [Fraction(0)] * (n + 1) for n in range(2, ORDER + 1)
    ]
    linear = BivariateSeries(ORDER, lin_rows)
    assert c == series_add(linear, series_mul_y(series_integrate_x(g)))

    f = build_F(ORDER)
    g_solved = series_reverse_x(f)
    g_formula = lagrange_invert(f)
    assert g_solved == g_formula == g
    assert series_compose_shared_y(g_solved, f) == x
    assert series_compose_shared_y(f, g_solved) == x
    assert series_compose_shared_y(g_formula, f) == x
    for n in range(1, ORDER + 1):
        for l in range(n):
            assert g_solved.rows[n][l] == g_solved.rows[n][n - 1 - l]
    _report(4, "all four exponential identities, the integral identity, both "
               "inversion routes, and palindromy, coefficientwise to order 12")


def test_criterion_5_stirling_and_reciprocal_suites(default_report):
    by_name = {chk.name: chk for chk in default_report.checks}
    for name in (
        "stirling-alternating-lemma",
        "stirling-surjection-lemma",
        "reciprocal-sum-recursion",
        "reciprocal-sum-vs-derangements",
        "reciprocal-composition-lemma",
        "reciprocal-corollary-corrected",
    ):
        assert by_name[name].status == "pass", by_name[name]
    _report(5, "both Stirling lemmas, the reciprocal-sum recursion and "
               "derangement identity (n <= 24), and the composition identities "
               "(m, k <= 10), exact")


def test_criterion_6_discrepancy_arbitration(default_report):
    via_oracle = oracle.count_rows("E", 4)[4][3]
    via_formula = e_closed(4, 3)
    via_inversion = e_from_c(4).value(4, 3)
    assert via_oracle == via_formula == via_inversion == 1
    assert e_special(4, 3, 2) == 5  # printed variant, reported but not trusted
    flagged = {chk.name: chk for chk in default_report.checks if chk.status == "flagged"}
    assert "simple-count-r2-special-case" in flagged
    assert default_report.ok  # flagged items never fail the run
    _report(6, "E(4,3) = 1 by enumeration, general formula, and triangular "
               "inversion; printed r = 2 value 5 reported as flagged")


def test_criterion_7_structural_invariants():
    for family in ("E", "C", "A", "S", "G"):
        build_tables(30, family)  # constructor enforces nonnegative integers
    for n in range(1, 31):
        for k in range(n + 1):
            assert c_closed(n, k) == c_closed(n, n - k)
    for n in range(1, 41):
        for k in range(1, n // 2 + 1):
            assert e_closed(n, k) == 0
    for n in range(2, 6):
        catalog = {frozenset(e.sig.bases) for e in oracle.enumerate_connected(n)}
        assert catalog == closure(n) == closure(n, dedup_levels=False)
    for n in range(1, 7):
        for entry in oracle.enumerate_connected(n):
            assert oracle.minor_check(entry.sig), (n, entry)
    _report(7, "nonnegativity/integrality to n = 30, duality to n = 30, "
               "E vanishing to n = 40, catalog equal to the closure "
               "with and without level dedup to n = 5, "
               "excluded-minor check on the full n <= 6 catalog")


def test_criterion_8_oeis_fixtures():
    config = RunConfig()
    for sid, mapping in DEFAULT_SEQUENCE_MAP.items():
        entries = parse_bfile(bfile_path(config, sid).read_text(encoding="utf-8"))
        table = build_tables(12, mapping.family)  # every committed b-file ends at row 12
        report = compare_with_bfile(mapping, table, entries)
        assert report.mapping_validated, sid
        assert report.first_mismatch is None, sid
        assert report.compared_entries > 0, sid
    _report(8, "committed b-file prefixes match all four tables after "
               "mapping validation")
