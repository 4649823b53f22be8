"""Tests for the verification report machinery."""

import ast
from fractions import Fraction
from functools import cache
from math import factorial
from pathlib import Path

import pytest

from oracle_reference import compositions
from spmatroids import combinum, powerseries, spcounts, verify
from spmatroids.cli import main
from spmatroids.powerseries import BivariateSeries
from spmatroids.combinum import assoc_stirling1, binomial, h_value, stirling2
from spmatroids.verify import CHECKS, run_verify

EXPECTED_O12 = Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "verify-o12.txt"


def test_default_report_is_clean(default_report):
    assert default_report.ok
    failed = [c for c in default_report.checks if c.status == "fail"]
    assert failed == []


def test_flagged_items_present_with_evidence(default_report):
    flagged = {c.name: c for c in default_report.checks if c.status == "flagged"}
    assert set(flagged) == {
        "reciprocal-corollary-printed-variant",
        "inversion-formula-display-sign",
        "inverse-defining-equation-variable",
        "simple-count-r2-special-case",
    }
    r2 = flagged["simple-count-r2-special-case"]
    assert "5" in r2.detail and "1" in r2.detail
    cor = flagged["reciprocal-corollary-printed-variant"]
    assert "2" in cor.detail and "1/3" in cor.detail


def test_default_report_matches_golden_text(default_report):
    assert default_report.render() == EXPECTED_O12.read_text(encoding="utf-8")


def test_surjection_inner_equals_literal_fraction_sum():
    def literal(k, m, j):
        return sum(
            Fraction((-1) ** i) * Fraction(m - i) ** (k - 1) / (factorial(i) * factorial(j - i))
            for i in range(j + 1)
        )

    for k in range(1, 9):
        scale = factorial(k - 1)  # _surjection_inner is an integer over (k-1)!
        for m in range(17):
            for j in range(k):
                assert Fraction(verify._surjection_inner(k, m, j), scale) == literal(k, m, j)


def test_surjection_sum_equals_literal_fraction_sum():
    # the check's whole (k, n, m) grid, against Fractions added one term at a time
    def literal(k, n, m):
        return sum(
            stirling2(n + 1, m - j)
            * sum(
                Fraction((-1) ** i * (m - i) ** (k - 1), factorial(i) * factorial(j - i))
                for i in range(j + 1)
            )
            for j in range(k)
        )

    for k in range(1, 9):
        for n in range(9):
            for m in range(n + k + 1):
                total = Fraction(verify._surjection_total(k, n, m), factorial(k - 1))
                assert total == literal(k, n, m), (k, n, m)


def test_reciprocal_lemma_and_corollary_equal_literal_fraction_sums():
    # the integer rows over their scales: d^2 for the lemma, (m+k)!/k! for the corollary
    d = verify._lifted_h_grid(h_value)[1]
    for m in range(11):
        for k in range(11):
            lemma = tuple(
                sum(
                    binomial(k, p) * h_value(l, p) * h_value(m - l, k - p)
                    for p in range(k + 1)
                )
                for l in range(m + 1)
            )
            corollary = tuple(
                Fraction(factorial(k), factorial(m + k))
                * sum(
                    binomial(m + k, l + p)
                    * assoc_stirling1(l + p, p)
                    * assoc_stirling1(m - l + k - p, k - p)
                    for p in range(k + 1)
                )
                for l in range(m + 1)
            )
            scale = factorial(m + k) // factorial(k)
            assert tuple(Fraction(v, d * d) for v in verify._lemma_row(m, k)) == lemma, (m, k)
            assert tuple(
                Fraction(v, scale) for v in verify._corollary_row(m, k, m + k)
            ) == corollary, (m, k)


def _negative_entry(table):
    # E(20, 19) = 1 becomes -1, which the table constructor refuses
    rows = [list(row) for row in table.rows]
    rows[20 - table.start_n][19] = -1
    return spcounts.TriangularCountTable(table.family, table.start_n, tuple(map(tuple, rows)))


def _non_integral_corner(g):
    # 3! [y^3 x^3] g = 1/2, a corner that the palindromy check does not read
    rows = [list(row) for row in g.rows]
    rows[3][3] += Fraction(1, 12)
    return BivariateSeries(g.order, rows)


def _one_more_count(f):
    # 2! [y x^2] f raised by 1
    rows = [list(row) for row in f.rows]
    rows[2][1] += Fraction(1, 2)
    return BivariateSeries(f.order, rows)


# One value of a combinatorial, count or series routine is changed inside the
# verify module: raised by 1 unless FAULT_CHANGES names another change.  A
# series argument is matched by its order, so a series fault changes every
# call at that order.  Each row lists the (name, detail) of every check that
# must fail, in report order.
FAULT_CHANGES = {
    ("build_tables", (30, "E")): _negative_entry,
    ("_inverse_of_F", (3,)): _non_integral_corner,
    ("series_exp", (3,)): _one_more_count,
    ("series_reverse_x", (3,)): _one_more_count,
    ("series_compose_shared_y", (3, 3)): _one_more_count,
}
PLANTED_FAULTS = {
    ("assoc_stirling1", (7, 2)): [
        ("assoc-stirling-recursion", "first failure at (n, k) = (7, 2): 925 != 924"),
        ("stirling-alternating-lemma", "first failure at (m, l) = (5, 5): 0 != 1"),
        ("reciprocal-sum-vs-derangements", "first failure at (n, k) = (7, 2): 11/30 != 185/504"),
        ("reciprocal-corollary-corrected", "first failure at (m, k) = (5, 2)"),
        ("counts-c-vs-inverse-coefficients", "first failure at (n, l) = (7, 6): 1 != 0"),
    ],
    ("stirling2", (9, 4)): [
        ("stirling-alternating-lemma", "first failure at (m, l) = (8, 5): 7770 != 7771"),
        ("stirling-surjection-lemma", "first failure at (k, n, m) = (2, 7, 4): 7771 != 7770"),
        ("counts-c-vs-inverse-coefficients", "first failure at (n, l) = (9, 3): 112035 != 112033"),
        ("counts-stirling-convolution", "first failure at (n, l) = (9, 3): 112036 != 112035"),
    ],
    ("h_value", (5, 3)): [
        ("reciprocal-sum-recursion", "first failure at (n, k) = (8, 3): 65/6 != 17/6"),
        ("reciprocal-sum-vs-derangements", "first failure at (n, k) = (8, 3): 65/48 != 17/48"),
        ("reciprocal-composition-lemma", "first failure at (m, k) = (5, 3)"),
    ],
    ("e_closed", (9, 4)): [
        ("counts-e-route-agreement", "first failure at (n, k) = (9, 4): 0 != 1"),
        ("counts-stirling-convolution", "first failure at (n, l) = (9, 4): 544972 != 544971"),
        ("counts-e-vanishing", "nonzero at (n, k) = (9, 4)"),
    ],
    ("c_closed", (8, 3)): [
        ("counts-c-vs-inverse-coefficients", "first failure at (n, l) = (8, 3): 17452 != 17451"),
        ("counts-c-duality", "first failure at (n, k) = (8, 3)"),
        ("counts-stirling-convolution", "first failure at (n, l) = (8, 3): 17451 != 17452"),
    ],
    ("assoc_stirling1", (9, 5)): [
        ("assoc-stirling-recursion", "first failure at (n, k) = (9, 5): 1 != 0"),
        ("assoc-stirling-vanishing", "nonzero at (n, k) = (9, 5)"),
        ("reciprocal-sum-vs-derangements", "first failure at (n, k) = (9, 5): 0 != 1/3024"),
        ("reciprocal-corollary-corrected", "first failure at (m, k) = (4, 5)"),
    ],
    ("assoc_stirling1", (11, 5)): [
        ("assoc-stirling-recursion", "first failure at (n, k) = (11, 5): 34651 != 34650"),
        ("assoc-stirling-closed-forms", "first failure at (n, k) = (11, 5): 34651 != 34650"),
        ("stirling-alternating-lemma", "first failure at (m, l) = (6, 6): 0 != 1"),
        ("reciprocal-sum-vs-derangements",
         "first failure at (n, k) = (11, 5): 5/48 != 34651/332640"),
        ("reciprocal-corollary-corrected", "first failure at (m, k) = (6, 5)"),
        ("counts-c-vs-inverse-coefficients", "first failure at (n, l) = (8, 7): 1 != 0"),
    ],
    ("assoc_stirling1", (12, 5)): [
        ("assoc-stirling-recursion", "first failure at (n, k) = (12, 5): 866251 != 866250"),
        ("assoc-stirling-closed-forms", "first failure at (n, k) = (12, 5): 866251 != 866250"),
        ("stirling-alternating-lemma", "first failure at (m, l) = (7, 7): 2 != 1"),
        ("reciprocal-sum-vs-derangements",
         "first failure at (n, k) = (12, 5): 125/576 != 866251/3991680"),
        ("reciprocal-corollary-corrected", "first failure at (m, k) = (7, 5)"),
        ("counts-c-vs-inverse-coefficients", "first failure at (n, l) = (9, 8): 1 != 2"),
    ],
    ("build_tables", (30, "E")): [
        ("counts-nonnegative-integral", "negative count in row n = 20: (0, 0, 0, 0, 0, 0, 0, 0, 0, "
         "0, 0, 84250567868935042575, 254023416470897073000, 142210285228800939150, "
         "21029068041476014520, 853240381562579920, 8092532089687120, 11246568351026, "
         "580606256, -1, 0)"),
    ],
    ("_inverse_of_F", (3,)): [
        ("series-inversion-route-agreement", "routes disagree on the log-series"),
        ("series-inverse-two-sided", "g(f(x,y), y) != x"),
        ("series-inverse-integrality", "non-integral count at (n, k) = (3, 3): 1/2"),
        ("gf-inverse-closed-form", "coefficient mismatch"),
    ],
    ("series_exp", (3,)): [
        ("series-exp-log-roundtrip", "log(exp(f)) != f for the connected-count series"),
        ("gf-simple-exponential", "coefficient mismatch"),
        ("gf-quasi-exponential", "coefficient mismatch"),
    ],
    ("series_reverse_x", (3,)): [
        ("series-inversion-route-agreement", "routes disagree on the log-series"),
        ("series-inverse-two-sided", "g(f(x,y), y) != x"),
        ("series-inverse-palindromy", "first failure at (n, l) = (2, 0): 1 != 2"),
        ("gf-integral-identity", "coefficient mismatch"),
        ("gf-inverse-closed-form", "coefficient mismatch"),
    ],
    ("series_compose_shared_y", (3, 3)): [
        ("series-inverse-two-sided", "g(f(x,y), y) != x"),
        ("series-compose-identity", "f(x) != f under identity substitution"),
        ("gf-connected-substitution", "coefficient mismatch"),
        ("gf-quasi-substitution", "coefficient mismatch"),
    ],
}


def _fault_key(args):
    return tuple(a.order if isinstance(a, BivariateSeries) else a for a in args)


def _plant(monkeypatch, fault):
    # replace verify's name with one whose value at the fault's arguments is changed
    name, at = fault
    real, change = getattr(verify, name), FAULT_CHANGES.get(fault, lambda value: value + 1)
    monkeypatch.setattr(
        verify, name,
        lambda *args: change(real(*args)) if _fault_key(args) == at else real(*args),
    )


@pytest.mark.parametrize("fault", PLANTED_FAULTS, ids=lambda f: f"{f[0]}{f[1]}")
def test_planted_fault_is_reported_exactly(monkeypatch, fault):
    # a fresh cache, so the inverse is rebuilt through any planted fault
    monkeypatch.setattr(verify, "_inverse_of_F", cache(verify._inverse_of_F.__wrapped__))
    _plant(monkeypatch, fault)
    report = run_verify(3)
    failed = [(c.name, c.detail) for c in report.checks if c.status == "fail"]
    assert failed == PLANTED_FAULTS[fault]


# The checks that decide a rational identity on integer sides over a scale.
RATIONAL_IDENTITY_CHECKS = (
    "assoc-stirling-closed-forms",
    "stirling-surjection-lemma",
    "reciprocal-sum-recursion",
    "reciprocal-sum-vs-derangements",
    "reciprocal-composition-lemma",
    "reciprocal-corollary-corrected",
)


def test_integer_agreement_builds_no_fraction_on_warm_memos(default_report, monkeypatch):
    # Fractions are built only to render a failure
    built, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    details = [row.detail(12) for row in CHECKS if row.name in RATIONAL_IDENTITY_CHECKS]
    assert details == [None] * len(RATIONAL_IDENTITY_CHECKS)
    assert built == []


def test_verify_reads_combinatorial_numbers_only_through_their_functions():
    # a planted fault in stirling2, assoc_stirling1 or h_value reaches every
    # check only if verify calls them by name and never reads the memos
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    names = {n.id for n in nodes if isinstance(n, ast.Name)}
    names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    names |= {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
    assert names.isdisjoint({"_S2_DIAGS", "_D_DIAGS", "_H_DIAGS", "_s2_diagonals",
                             "_d_diagonals", "_s2_row", "_grow", "combinum"})
    called = {n.func.id for n in nodes if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
    assert {"stirling2", "assoc_stirling1", "h_value"} <= called


# One family's count rows get +1 at (n, k) = (9, 4), and run_verify(12) must
# fail exactly these checks, each with detail "coefficient mismatch".  The E
# fault leaves gf-simple-exponential passing: S is rebuilt from the faulty E
# rows, so S = exp(E) still holds.
PLANTED_TABLE_FAULTS = {
    "E": ["gf-quasi-exponential", "gf-connected-substitution"],
    "S": ["gf-simple-exponential", "gf-quasi-exponential"],
    "A": ["gf-quasi-exponential", "gf-quasi-substitution"],
    "C": ["gf-quasi-exponential", "gf-connected-substitution", "gf-integral-identity"],
    "G": ["gf-inverse-closed-form"],
}


@pytest.mark.parametrize("family", PLANTED_TABLE_FAULTS)
def test_planted_table_fault_is_reported_exactly(monkeypatch, cold_memos, family):
    real = spcounts._count_rows

    def planted(fam, max_n):
        rows = real(fam, max_n)
        if (fam, max_n) != (family, 12):
            return rows
        rows = [list(row) for row in rows]
        rows[9][4] += 1
        return tuple(map(tuple, rows))

    # the cold caches build every family that reads this one from the planted rows
    monkeypatch.setattr(spcounts, "_count_rows", planted)
    report = run_verify(12)
    failed = [(c.name, c.detail) for c in report.checks if c.status == "fail"]
    assert failed == [(name, "coefficient mismatch") for name in PLANTED_TABLE_FAULTS[family]]


def test_planted_faults_cover_every_check():
    # a check that compared a value with itself would have no fault here
    failing = {name for failures in PLANTED_FAULTS.values() for name, _ in failures}
    failing |= {name for names in PLANTED_TABLE_FAULTS.values() for name in names}
    names = [row.name for row in CHECKS]
    assert len(set(names)) == len(names)
    assert failing == {row.name for row in CHECKS if not row.flag}


def test_memo_fault_in_d_fails_the_integral_identity(cold_memos):
    # D(9, 4) + 1 in the diagonal memo reaches C and G alike, but not the
    # series inverse of F that gf-integral-identity integrates
    assoc_stirling1(9, 4)
    combinum._D_DIAGS[5][4] += 1
    failed = [c.name for c in run_verify(12).checks if c.status == "fail"]
    assert failed == [
        "assoc-stirling-recursion", "assoc-stirling-closed-forms", "stirling-alternating-lemma",
        "reciprocal-sum-vs-derangements", "reciprocal-corollary-corrected", "counts-c-duality",
        "gf-integral-identity", "gf-inverse-closed-form",
    ]


def test_memo_fault_in_h_reaches_verify_after_a_warm_report(default_report, cold_memos):
    # H(5, 3) + 1 in the diagonal memo, after the session report has warmed
    # verify's own caches: the H grid of the composition lemma is rebuilt too
    h_value(5, 3)
    combinum._H_DIAGS[2][3] += 1
    failed = [c.name for c in run_verify(12).checks if c.status == "fail"]
    assert failed == [
        "reciprocal-sum-recursion", "reciprocal-sum-vs-derangements", "reciprocal-composition-lemma",
    ]


def test_planted_fault_in_the_row_solver_is_reported_exactly(monkeypatch):
    # exp, log and reversion all solve their rows in powerseries._solve_rows;
    # lagrange_invert and spcounts.egf_exp do not, so sharing the loop hides
    # no fault from the checks that compare against them
    monkeypatch.setattr(verify, "_inverse_of_F", cache(verify._inverse_of_F.__wrapped__))
    real = powerseries._solve_rows
    monkeypatch.setattr(powerseries, "_solve_rows", lambda *args: _one_more_count(real(*args)))
    failed = [c.name for c in run_verify(3).checks if c.status == "fail"]
    assert failed == [
        "series-exp-log-roundtrip", "series-inversion-route-agreement", "series-inverse-two-sided",
        "series-inverse-palindromy", "gf-simple-exponential", "gf-quasi-exponential",
        "gf-integral-identity", "gf-inverse-closed-form",
    ]


def test_negative_e_route_row_is_a_failure_not_an_error(cold_memos, capsys):
    # S2(11, 5) + 1 in the diagonal memo makes e_from_c(40) solve a negative
    # E(11, 3), which its table refuses
    stirling2(11, 5)
    combinum._S2_DIAGS[6][5] += 1
    checks = {c.name: c for c in run_verify(12).checks}
    route = checks["counts-e-route-agreement"]
    assert route.status == "fail"
    assert route.detail.startswith("negative count in row n = 11: (0, 0, 0, -165, 0,")
    assert main(["verify"]) == 1
    assert "FAIL  counts-e-route-agreement" in capsys.readouterr().out


def test_planted_vanishing_e_entry_is_reported_exactly(monkeypatch, cold_memos):
    # E(31, 10) + 1 in the one E row route: e_closed and the E table read it,
    # e_from_c does not, and no other check reads an E, S or A row past 30
    real = spcounts._e_row

    @cache
    def planted(n):
        row = real(n)
        return row[:10] + (row[10] + 1,) + row[11:] if n == 31 else row

    monkeypatch.setattr(spcounts, "_e_row", planted)
    failed = [(c.name, c.detail) for c in run_verify(12).checks if c.status == "fail"]
    assert failed == [
        ("counts-e-route-agreement", "first failure at (n, k) = (31, 10): 0 != 1"),
        ("counts-e-vanishing", "nonzero at (n, k) = (31, 10)"),
    ]


def test_inversion_routes_compare_at_the_full_order():
    row = next(row for row in CHECKS if row.name == "series-inversion-route-agreement")
    assert row.detail(20) is None
    assert row.ranges.format(order=20).startswith("log-series at order 20;")


def test_refused_count_is_a_failure_in_a_printed_report(monkeypatch, cold_memos, capsys):
    # C(3, 1) - 5 makes the C table negative: every row whose computation
    # refuses it, flags included, fails with the refusal as its detail, and
    # spm verify still prints the report and exits 1
    real = spcounts._count_rows

    def planted(fam, max_n):
        rows = real(fam, max_n)
        if fam != "C" or max_n < 3:
            return rows
        rows = [list(row) for row in rows]
        rows[3][1] -= 5
        return tuple(map(tuple, rows))

    monkeypatch.setattr(spcounts, "_count_rows", planted)
    failed = [(c.name, c.detail) for c in run_verify(12).checks if c.status == "fail"]
    # e_from_c refuses the E row it solves, build_tables the C row itself
    solved, planted_row = "(0, -5, 1, 0)", "(0, -4, 1, 0)"
    assert failed == [
        ("counts-e-route-agreement", f"negative count in row n = 3: {solved}"),
        ("gf-quasi-exponential", "coefficient mismatch"),
        ("gf-connected-substitution", "coefficient mismatch"),
        ("gf-integral-identity", "coefficient mismatch"),
        ("counts-nonnegative-integral", f"negative count in row n = 3: {planted_row}"),
        ("simple-count-r2-special-case", f"negative count in row n = 3: {solved}"),
    ]
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  simple-count-r2-special-case" in out
    assert out.endswith("verification: 22 passed, 3 flagged, 6 failed\n")


def test_low_order_config_reported_as_such():
    report = run_verify(3)
    assert report.ok
    series_checks = [c for c in report.checks if c.name.startswith("gf-")]
    assert series_checks
    assert all("order 3" in c.ranges for c in series_checks)


def test_render_summary_line(default_report):
    rendered = default_report.render()
    assert rendered.endswith("flagged, 0 failed\n")
    assert "PASS" in rendered and "FLAG" in rendered


def _product_poly_by_compositions(m, k):
    # the literal sum over compositions of m into k parts of prod (1 + y^j) / (j + 1)
    out = [Fraction(0)] * (m + 1)
    for js in compositions(m, k):
        poly = [Fraction(1)]
        for j in js:
            shifted = [Fraction(0)] * j + poly
            poly = [(a + b) / (j + 1) for a, b in zip(poly + [Fraction(0)] * j, shifted)]
        for a, pa in enumerate(poly):
            out[a] += pa
    return tuple(out)


def test_reciprocal_product_poly_matches_composition_walk():
    # the integer row over its scale L^k
    for m in range(9):
        for k in range(9):
            poly = tuple(Fraction(c, verify._PART_LCM**k) for c in verify._product_row(m, k))
            assert poly == _product_poly_by_compositions(m, k), (m, k)


def test_check_result_fields_are_read_only(default_report):
    check = default_report.checks[0]
    with pytest.raises(AttributeError):
        check.status = "fail"
    with pytest.raises(AttributeError):
        check.extra = 1
    assert default_report.ok
