"""Identity verification suites.

Every identity the library relies on is re-checked here, exactly, over
pinned index ranges.  `CHECKS` is the check table: one `Check` row per
report line, in report order, grouped per area.  A row's `detail(order)`
returns the first failure's text, or None when the identity holds; a grid
check hands its index tuples and the two sides of its identity to
`_first_failure`, a series check hands (description, lhs, rhs) entries to
`_first_mismatch`, and a check of several steps keeps a small helper that
returns only the detail.  `run_verify` walks the table and builds every
result in one loop; a ValueError raised by a row's computation (a count
table or coefficient that refuses a value) is that row's failure.

Rational identities are decided on one integer path: each side is an
integer numerator over a common scale, and the numerators are compared.
Fractions are built only for a failure's detail.  Every combinatorial
number is read through stirling2, assoc_stirling1 and h_value by name,
never from their memos, so a fault planted in one reaches every check.

Four rows are flags: they document printed formula variants that are
contradicted by direct computation and by exhaustive enumeration.  Their
detail is both readings with numeric evidence, and they never fail the run
unless their computation refuses a value.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial
from itertools import product
from math import comb, factorial, lcm
from typing import Callable, NamedTuple

from . import oracle
from .combinum import assoc_stirling1, binomial, double_factorial, h_value, stirling2
from .powerseries import (
    BivariateSeries,
    _composition_sums,
    _lift,
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
from .spcounts import (
    FAMILIES,
    build_tables,
    c_closed,
    count_series,
    e_closed,
    e_from_c,
    e_special,
)

_RANDOM_SEED = 20240814
# every family's table is built to this n and checked for negative entries
_NONNEGATIVITY_MAX_N = 30


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "flagged"
    identity: str
    ranges: str
    detail: str = ""

    def render(self) -> str:
        tag = {"pass": "PASS", "fail": "FAIL", "flagged": "FLAG"}[self.status]
        line = f"{tag}  {self.name}  [{self.identity}; {self.ranges}]"
        if self.detail:
            line += f"  {self.detail}"
        return line


class VerificationReport(NamedTuple):
    checks: tuple[CheckResult, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        failed = sum(1 for c in self.checks if c.status == "fail")
        flagged = sum(1 for c in self.checks if c.status == "flagged")
        passed = len(self.checks) - failed - flagged
        lines.append(
            f"verification: {passed} passed, {flagged} flagged, {failed} failed"
        )
        return "\n".join(lines) + "\n"


class Check(NamedTuple):
    """One report line.  `ranges` may name the series order as {order};
    `detail(order)` returns the first failure's text or None, and for a
    flag the evidence."""

    name: str
    identity: str
    ranges: str
    detail: Callable[[int], str | None]
    flag: bool = False


# Detail formats of a grid check's first failure.
_VALUES = "first failure at ({axes}) = ({at}): {lhs} != {rhs}"
_AT = "first failure at ({axes}) = ({at})"
_NONZERO = "nonzero at ({axes}) = ({at})"


def _first_failure(cases, lhs, rhs, axes="n, k", fmt=_VALUES, scale=None):
    """Detail for the first index tuple `case` on which lhs(*case) and
    rhs(*case) differ, rendered by `fmt` from the axis names, the indices
    and both sides; None when every case agrees.

    A rational identity hands over integer sides and `scale`: scale(*case)
    is their common positive denominator, so the integers decide, and only
    a failure's sides are rendered as Fractions over it."""
    for case in cases:
        a, b = lhs(*case), rhs(*case)
        if a != b:
            if scale:
                a, b = Fraction(a, scale(*case)), Fraction(b, scale(*case))
            return fmt.format(axes=axes, at=", ".join(map(str, case)), lhs=a, rhs=b)
    return None


def _first_mismatch(entries):
    """Description of the first (description, lhs, rhs) entry whose sides
    differ, else None.  Sides are zero-argument functions, called in order,
    so nothing after the first mismatch is computed."""
    return next((desc for desc, lhs, rhs in entries if lhs() != rhs()), None)


def _triangle(first_n: int, last_n: int):
    # (n, k) for first_n <= n <= last_n and 0 <= k <= n, row by row
    return ((n, k) for n in range(first_n, last_n + 1) for k in range(n + 1))


# ---------------------------------------------------------------------------
# combinatorial-number checks
# ---------------------------------------------------------------------------

def _assoc_closed_form(n: int, k: int) -> int:
    # 3^(n-2k) times D(2k, k), D(2k+1, k) and D(2k+2, k), selected by n - 2k
    odd = double_factorial(2 * k + 1)
    return (
        double_factorial(2 * k - 1),
        2 * k * odd,
        (4 * k + 5) * (k + 1) * k * odd,
    )[n - 2 * k]


@cache
def _surjection_inner(k: int, m: int, j: int) -> int:
    # sum_i (-1)^i (m-i)^(k-1) / (i! (j-i)!) as an integer over (k-1)!, for j < k:
    # (k-1)!/j! sum_i (-1)^i C(j, i) (m-i)^(k-1); shared by every n
    return factorial(k - 1) // factorial(j) * sum(
        (-1) ** i * comb(j, i) * (m - i) ** (k - 1) for i in range(j + 1)
    )


def _surjection_total(k: int, n: int, m: int) -> int:
    # sum_j S2(n+1, m-j) sum_i (-1)^i (m-i)^(k-1) / (i! (j-i)!), times (k-1)!
    return sum(stirling2(n + 1, m - j) * _surjection_inner(k, m, j) for j in range(k))


# H is checked for m + k <= 24: its recursion and its D form directly, and
# the reciprocal lemma through H(l, p) with l, p <= 10
_H_CHECK_MAX = 24


@cache
def _lifted_h_grid(h):
    # every H(l, p), l + p <= 24, as integer numerators over their lcm d; keyed
    # on the H function itself, so a replaced h_value gets a grid of its own
    return _lift([[h(l, p) for p in range(_H_CHECK_MAX + 1 - l)]
                  for l in range(_H_CHECK_MAX + 1)])


def _h_recursion_failure(_order: int) -> str | None:
    # over the lifted grid, where H(-1, k-1) = H(-1, k) = 0 at k = n
    h, d = _lifted_h_grid(h_value)
    return _first_failure(
        ((n, k) for n in range(1, _H_CHECK_MAX + 1) for k in range(1, n + 1)),
        lambda n, k: n * h[n - k][k],
        lambda n, k: k * h[n - k - 1][k - 1] + (n - 1) * h[n - k - 1][k] if k < n else 0,
        scale=lambda n, k: d,
    )


# The reciprocal checks cover m, k <= 10, so every part j of a composition
# has j + 1 dividing L = lcm(2..11).
_RECIPROCAL_MAX = 10
_PART_LCM = lcm(*range(2, _RECIPROCAL_MAX + 2))


@cache
def _reciprocal_composition_sums():
    # sums[m][k] = L^k * sum over compositions of m into k parts of
    # prod (1 + y^j_i) / (j_i + 1): the parts (L/(j+1)) (1 + y^j) are integral
    parts = {}
    for j in range(1, _RECIPROCAL_MAX + 1):
        w = _PART_LCM // (j + 1)
        parts[j] = [w] + [0] * (j - 1) + [w]
    return _composition_sums(parts, _RECIPROCAL_MAX)


def _product_row(m: int, k: int) -> list[int]:
    # sum over compositions of m into k parts of prod (1 + y^j_i) / (j_i + 1),
    # times L^k
    return _reciprocal_composition_sums()[m][k][: m + 1] if k <= m else [0] * (m + 1)


def _lemma_row(m: int, k: int) -> list[int]:
    # sum_l y^l sum_p C(k,p) H(l,p) H(m-l,k-p), for m, k <= 10, times d^2,
    # d the denominator of the lifted H grid
    h, _ = _lifted_h_grid(h_value)
    return [sum(binomial(k, p) * h[l][p] * h[m - l][k - p] for p in range(k + 1))
            for l in range(m + 1)]


def _corollary_row(m: int, k: int, top: int) -> list[int]:
    # (k!/top!) sum_l y^l sum_p C(top, l+p) D(l+p, p) D(m-l+k-p, k-p), times
    # top!/k!; top = m+k is the corrected form, top = m-k the printed one
    return [
        sum(
            binomial(top, l + p)
            * assoc_stirling1(l + p, p)
            * assoc_stirling1(m - l + k - p, k - p)
            for p in range(k + 1)
        )
        for l in range(m + 1)
    ]


def _scaled(row: list[int], factor: int) -> list[int]:
    return [v * factor for v in row]


def _composition_lemma_failure(_order: int) -> str | None:
    # both rows over L^k d^2; _AT prints no values, so no scale is needed
    dd = _lifted_h_grid(h_value)[1] ** 2
    return _first_failure(product(range(_RECIPROCAL_MAX + 1), repeat=2),
                          lambda m, k: _scaled(_product_row(m, k), dd),
                          lambda m, k: _scaled(_lemma_row(m, k), _PART_LCM**k), "m, k", _AT)


def _printed_corollary_evidence(_order: int) -> str:
    # The printed variant uses prefactor k!/(m-k)! and binomial top m-k.
    m, k = 2, 1
    printed = Fraction(factorial(k) * _corollary_row(m, k, m - k)[0], factorial(m - k))
    actual = Fraction(_product_row(m, k)[0], _PART_LCM**k)
    return (f"printed form gives constant term {printed}, composition sum gives {actual}; "
            "the corrected form with m+k in both places verifies for all m, k <= 10")


# ---------------------------------------------------------------------------
# power-series checks
# ---------------------------------------------------------------------------

def _random_reversible_series(rng: random.Random, order: int) -> BivariateSeries:
    # Row n gets y-degree at most n - 1: that class is closed under
    # compositional inversion, so the inverse fits the triangular storage.
    rows = [[0], [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)), 0]]
    for n in range(2, order + 1):
        rows.append([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] + [0])
    return BivariateSeries(order, rows)


@cache
def _inverse_of_F(order: int) -> BivariateSeries:
    # series_reverse_x(build_F(order)), shared by the checks that read it
    return series_reverse_x(build_F(order))


def _roundtrip_mismatch(order: int) -> str | None:
    f = count_series("C", order)
    g = series_exp(f)
    u = BivariateSeries.x(order)
    return _first_mismatch([
        ("log(exp(f)) != f for the connected-count series", lambda: series_log(g), lambda: f),
        ("exp(log(g)) != g for the quasi-count series",
         lambda: series_exp(series_log(g)), lambda: g),
        ("log(exp(x)) != x", lambda: series_log(series_exp(u)), lambda: u),
    ])


def _inversion_route_mismatch(order: int) -> str | None:
    # the log-series' coefficient-solving side is the inverse the other checks share
    f = build_F(order)
    entries = [("routes disagree on the log-series", partial(_inverse_of_F, order),
                partial(lagrange_invert, f))]
    rng = random.Random(_RANDOM_SEED)
    for trial in range(5):
        f = _random_reversible_series(rng, min(order, 10))
        entries.append((f"routes disagree on random series #{trial}",
                        partial(series_reverse_x, f), partial(lagrange_invert, f)))
    return _first_mismatch(entries)


def _two_sided_mismatch(order: int) -> str | None:
    f = build_F(order)
    g = _inverse_of_F(order)
    ident = BivariateSeries.x(order)
    return _first_mismatch([
        ("g(f(x,y), y) != x", lambda: series_compose_shared_y(g, f), lambda: ident),
        ("f(g(x,y), y) != x", lambda: series_compose_shared_y(f, g), lambda: ident),
    ])


def _palindromy_failure(order: int) -> str | None:
    g = _inverse_of_F(order)
    return _first_failure(((n, l) for n in range(1, order + 1) for l in range(n)),
                          lambda n, l: count_coefficient(g, n, l),
                          lambda n, l: count_coefficient(g, n, n - 1 - l), "n, l")


def _negative_inverse_count(order: int) -> str | None:
    # min(v, 0) differs from 0 exactly when the count v is negative;
    # count_coefficient refuses a non-integral count
    g = _inverse_of_F(order)
    return _first_failure(_triangle(1, order), lambda n, l: min(count_coefficient(g, n, l), 0),
                          lambda n, l: 0, "n, l", "negative count at ({axes}) = ({at}): {lhs}")


def _compose_identity_mismatch(order: int) -> str | None:
    f = build_F(order)
    return _first_mismatch([
        ("f(x) != f under identity substitution",
         lambda: series_compose_shared_y(f, BivariateSeries.x(order)), lambda: f),
        ("x composed with f != f",
         lambda: series_compose_shared_y(BivariateSeries.x(order), f), lambda: f),
    ])


def _inversion_sign_evidence(_order: int) -> str:
    # Without the alternating sign the n = 2 coefficient comes out negated.
    g = lagrange_invert(build_F(4))
    with_sign = [count_coefficient(g, 2, 0), count_coefficient(g, 2, 1)]
    return (f"with sign: G2 counts {with_sign} (match C(3,1) = C(3,2) = 1); "
            f"without: {[-v for v in with_sign]}")


def _defining_variable_evidence(_order: int) -> str:
    ok = series_compose_shared_y(_inverse_of_F(8), build_F(8)) == BivariateSeries.x(8)
    return ("adopted the reading g(f(x,y), y) = x (y is the rank parameter); "
            f"verified coefficientwise: {'holds' if ok else 'FAILS'}")


# ---------------------------------------------------------------------------
# count-table checks
# ---------------------------------------------------------------------------

def _printed_g(n: int, l: int) -> int:
    # the printed G sum, term by term, sharing no code with spcounts' C rows
    return sum((-1) ** (j + l) * assoc_stirling1(j + l, j) * stirling2(n + j, j + l + 1)
               for j in range(l + 1))


def _coefficients(lhs: BivariateSeries, rhs: BivariateSeries) -> str | None:
    return None if lhs == rhs else "coefficient mismatch"


def _integral_side(order: int) -> BivariateSeries:
    # (1+y) x + y Int G dx
    linear = BivariateSeries(order, [[0], [1, 1]] + [[0] * (n + 1) for n in range(2, order + 1)])
    return series_add(linear, series_mul_y(series_integrate_x(_inverse_of_F(order))))


def _negative_table(_order: int) -> None:
    for family in FAMILIES:
        build_tables(_NONNEGATIVITY_MAX_N, family)  # the constructor refuses negatives


def _r2_evidence(_order: int) -> str:
    return (f"printed variant gives {e_special(4, 3, 2)}; general formula gives {e_closed(4, 3)}; "
            f"triangular inversion gives {e_from_c(4).value(4, 3)}; "
            f"exhaustive enumeration gives {oracle.count_rows('E', 4)[4][3]}")


# ---------------------------------------------------------------------------
# the check table and its driver
# ---------------------------------------------------------------------------

# Rows read module globals only when called, so a name replaced in this
# module reaches every row that uses it.
CHECKS = (
    Check("assoc-stirling-recursion", "D(n,k) = (n-1) D(n-2,k-1) + (n-1) D(n-1,k)",
          "0 <= n, k <= 40",
          lambda _: _first_failure(
              ((n, k) for n in range(1, 41) for k in range(41)), assoc_stirling1,
              lambda n, k: (n - 1) * assoc_stirling1(n - 2, k - 1)
              + (n - 1) * assoc_stirling1(n - 1, k))),
    Check("assoc-stirling-vanishing", "D(n,k) = 0 for n < 2k", "n <= 40",
          lambda _: _first_failure(((n, k) for n in range(41) for k in range(n // 2 + 1, 41)),
                                   assoc_stirling1, lambda n, k: 0, fmt=_NONZERO)),
    Check("assoc-stirling-closed-forms",
          "D(2k,k) = (2k-1)!!; D(2k+1,k) = (2/3)k(2k+1)!!; "
          "D(2k+2,k) = (1/9)(4k+5)(k+1)k(2k+1)!!",
          "0 <= k <= 20",
          lambda _: _first_failure(((2 * k + i, k) for k in range(21) for i in range(3)),
                                   lambda n, k: 3 ** (n - 2 * k) * assoc_stirling1(n, k),
                                   _assoc_closed_form, scale=lambda n, k: 3 ** (n - 2 * k))),
    Check("stirling-alternating-lemma",
          "sum_p (-1)^(l+p) C(m+p, l+p) D(l+p, p) = S2(m+1, m-l+1)", "0 <= l <= m <= 12",
          lambda _: _first_failure(
              ((m, l) for m in range(13) for l in range(m + 1)),
              lambda m, l: sum((-1) ** (l + p) * binomial(m + p, l + p)
                               * assoc_stirling1(l + p, p) for p in range(l + 1)),
              lambda m, l: stirling2(m + 1, m - l + 1), "m, l")),
    Check("stirling-surjection-lemma",
          "S2(n+k, m) = sum_j S2(n+1, m-j) sum_i (-1)^i (m-i)^(k-1) / (i! (j-i)!)",
          "1 <= k <= 8, 0 <= n <= 8, 0 <= m <= n+k",
          lambda _: _first_failure(
              ((k, n, m) for k in range(1, 9) for n in range(9) for m in range(n + k + 1)),
              lambda k, n, m: stirling2(n + k, m) * factorial(k - 1), _surjection_total,
              "k, n, m", scale=lambda k, n, m: factorial(k - 1))),
    Check("reciprocal-sum-recursion", "n H(n-k,k) = k H(n-k-1,k-1) + (n-1) H(n-k-1,k)",
          f"1 <= k <= n <= {_H_CHECK_MAX}", _h_recursion_failure),
    # both sides over n! times the denominator of H(n-k, k)
    Check("reciprocal-sum-vs-derangements", "H(n-k, k) = k!/n! D(n, k)",
          f"0 <= k <= n <= {_H_CHECK_MAX}",
          lambda _: _first_failure(
              _triangle(0, _H_CHECK_MAX),
              lambda n, k: h_value(n - k, k).numerator * factorial(n),
              lambda n, k: factorial(k) * assoc_stirling1(n, k) * h_value(n - k, k).denominator,
              scale=lambda n, k: factorial(n) * h_value(n - k, k).denominator)),
    Check("reciprocal-composition-lemma",
          "sum prod (1+y^j_i)/(j_i+1) = sum_l y^l sum_p C(k,p) H(l,p) H(m-l,k-p)", "m, k <= 10",
          _composition_lemma_failure),
    # both rows over L^k (m+k)!/k!; _AT prints no values, so no scale is needed
    Check("reciprocal-corollary-corrected",
          "composition product = (k!/(m+k)!) sum_l y^l sum_p C(m+k, l+p) D(l+p,p) D(m-l+k-p,k-p)",
          "m, k <= 10",
          lambda _: _first_failure(
              product(range(_RECIPROCAL_MAX + 1), repeat=2),
              lambda m, k: _scaled(_product_row(m, k), factorial(m + k) // factorial(k)),
              lambda m, k: _scaled(_corollary_row(m, k, m + k), _PART_LCM**k),
              "m, k", _AT)),
    Check("reciprocal-corollary-printed-variant",
          "printed prefactor k!/(m-k)! with binomial top m-k", "checked at (m, k) = (2, 1)",
          _printed_corollary_evidence, flag=True),
    Check("series-exp-log-roundtrip", "log(exp(f)) = f and exp(log(g)) = g", "order {order}",
          _roundtrip_mismatch),
    Check("series-inversion-route-agreement", "coefficient solving = explicit inversion formula",
          "log-series at order {order}; 5 seeded random series at order <= 10",
          _inversion_route_mismatch),
    Check("series-inverse-two-sided", "g(f(x,y), y) = x = f(g(x,y), y)", "order {order}",
          _two_sided_mismatch),
    Check("series-inverse-palindromy", "n! [y^l x^n] g = n! [y^(n-1-l) x^n] g", "n <= {order}",
          _palindromy_failure),
    Check("series-inverse-integrality", "all n! [y^l x^n] g are nonnegative integers",
          "n <= {order}", _negative_inverse_count),
    Check("series-compose-identity", "f(x) = f and x(f) = f", "order {order}",
          _compose_identity_mismatch),
    Check("inversion-formula-display-sign",
          "rising-factorial form of the inversion formula omits (-1)^k", "checked at n = 2",
          _inversion_sign_evidence, flag=True),
    Check("inverse-defining-equation-variable", "defining equation printed as g(f(x,y), x) = x",
          "order 8", _defining_variable_evidence, flag=True),
    Check("counts-e-route-agreement", "triangular inversion of C = closed form for E", "n <= 40",
          lambda _: _first_failure(_triangle(1, 40), e_from_c(40).value, e_closed)),
    Check("counts-c-vs-inverse-coefficients", "C(n, l) = G(n-1, l-1)", "2 <= n <= 30",
          lambda _: _first_failure(_triangle(2, 30), c_closed,
                                   lambda n, l: _printed_g(n - 1, l - 1) if l >= 1 else 0,
                                   "n, l")),
    Check("counts-c-duality", "C(n, k) = C(n, n-k)", "1 <= n <= 30",
          lambda _: _first_failure(_triangle(1, 30), c_closed,
                                   lambda n, k: c_closed(n, n - k), fmt=_AT)),
    Check("gf-simple-exponential", "S = exp(E)", "order {order}",
          lambda order: _coefficients(count_series("S", order),
                                      series_exp(count_series("E", order)))),
    Check("gf-quasi-exponential", "A = exp(C)", "order {order}",
          lambda order: _coefficients(count_series("A", order),
                                      series_exp(count_series("C", order)))),
    Check("gf-connected-substitution", "C = E(e^x - 1, y) + x", "order {order}",
          lambda order: _coefficients(
              count_series("C", order),
              series_add(series_compose_shared_y(count_series("E", order), exp_minus_one(order)),
                         BivariateSeries.x(order)))),
    Check("gf-quasi-substitution", "A = S(e^x - 1, y) e^x", "order {order}",
          lambda order: _coefficients(
              count_series("A", order),
              series_mul(series_compose_shared_y(count_series("S", order), exp_minus_one(order)),
                         exp_x(order)))),
    Check("gf-integral-identity", "C = (1+y) x + y Int G dx", "order {order}",
          lambda order: _coefficients(count_series("C", order), _integral_side(order))),
    Check("gf-inverse-closed-form", "closed-form G coefficients = inversion coefficients",
          "order {order}",
          lambda order: _coefficients(count_series("G", order), _inverse_of_F(order))),
    Check("counts-stirling-convolution", "sum_m S2(n, m) E(m, l) = C(n, l)", "2 <= n <= 20",
          lambda _: _first_failure(
              _triangle(2, 20),
              lambda n, l: sum(stirling2(n, m) * e_closed(m, l) for m in range(1, n + 1)),
              c_closed, "n, l")),
    Check("counts-e-vanishing", "E(n, k) = 0 for n >= 2k > 0", "n <= 40",
          lambda _: _first_failure(((n, k) for n in range(1, 41) for k in range(1, n // 2 + 1)),
                                   e_closed, lambda n, k: 0, fmt=_NONZERO)),
    Check("counts-nonnegative-integral", "all table entries are nonnegative integers",
          f"n <= {_NONNEGATIVITY_MAX_N}, all five families", _negative_table),
    Check("simple-count-r2-special-case", "printed r = 2 special case has + on its last term",
          "checked at (n, k) = (4, 3)", _r2_evidence, flag=True),
)


def run_verify(order: int) -> VerificationReport:
    """Run every row of CHECKS in order, the series checks at truncation
    order `order`, and return the assembled report.  A ValueError raised by
    a row's computation is that row's failure, with its message as detail."""
    results = []
    for name, identity, ranges, detail, flag in CHECKS:
        try:
            text = detail(order)
            status = "flagged" if flag else "pass" if text is None else "fail"
        except ValueError as exc:
            text, status = str(exc), "fail"
        results.append(CheckResult(name, status, identity, ranges.format(order=order), text or ""))
    return VerificationReport(tuple(results))
