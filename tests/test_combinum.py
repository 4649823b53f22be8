"""Tests for the exact combinatorial-number layer.

Brute-force oracles live in this file: set partitions enumerated directly
for Stirling numbers, permutations filtered for derangement counts, and
literal composition sums for the reciprocal numbers.
"""

import ast
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import pytest

import spmatroids
from spmatroids import combinum, oracle, spcounts
from oracle_reference import compositions
from spmatroids.combinum import (
    assoc_stirling1,
    binomial,
    double_factorial,
    h_value,
    stirling2,
)


def brute_set_partition_counts(n: int) -> list[int]:
    """Count partitions of [n] by block count via direct enumeration."""
    counts = [0] * (n + 1)

    def rec(remaining, blocks):
        if not remaining:
            counts[len(blocks)] += 1
            return
        first, rest = remaining[0], remaining[1:]
        for i in range(len(blocks)):
            rec(rest, blocks[:i] + [blocks[i] + [first]] + blocks[i + 1:])
        rec(rest, blocks + [[first]])

    rec(list(range(n)), [])
    return counts


def cycle_count(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return cycles


def brute_derangement_counts(n: int) -> list[int]:
    """Count fixed-point-free permutations of [n] by cycle count."""
    counts = [0] * (n + 1)
    for perm in permutations(range(n)):
        if all(perm[i] != i for i in range(n)):
            counts[cycle_count(perm)] += 1
    return counts


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(4, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_double_factorial():
    assert double_factorial(5) == 15
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(7) == 105
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_stirling2_small():
    assert stirling2(4, 2) == 7  # matches brute_set_partition_counts(4)[2]
    assert stirling2(3, 0) == 0
    assert stirling2(0, 0) == 1
    for n in range(12):
        assert stirling2(n, n) == 1


@pytest.mark.parametrize("n", range(10))
def test_stirling2_vs_brute_force(n):
    brute = brute_set_partition_counts(n)
    assert [stirling2(n, k) for k in range(n + 1)] == brute


@pytest.mark.parametrize("n", range(10))
def test_assoc_stirling1_vs_brute_force(n):
    brute = brute_derangement_counts(n)
    assert [assoc_stirling1(n, k) for k in range(n + 1)] == brute


def test_assoc_stirling1_values():
    assert assoc_stirling1(4, 2) == 3  # 3!!, the doubled 2-cycle pairings
    assert assoc_stirling1(5, 2) == 20  # (2/3) k (2k+1)!! at k = 2
    assert assoc_stirling1(6, 2) == 130  # 5 d(4,1) + 5 d(5,2) = 30 + 100
    assert assoc_stirling1(0, 0) == 1


def test_assoc_stirling1_recursion_and_vanishing():
    for n in range(1, 41):
        for k in range(41):
            assert assoc_stirling1(n, k) == (n - 1) * assoc_stirling1(n - 2, k - 1) + (
                n - 1
            ) * assoc_stirling1(n - 1, k)
    for n in range(41):
        for k in range(n // 2 + 1, 41):
            assert assoc_stirling1(n, k) == 0


def test_cold_rows_do_not_recurse():
    # A fresh interpreter with a recursion limit far below the row index:
    # the memo rows must be filled iteratively from the seed rows.
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from math import factorial\n"
        "from spmatroids.combinum import assoc_stirling1, h_value, stirling2\n"
        "sys.setrecursionlimit(60)\n"
        "assert assoc_stirling1(300, 1) == factorial(299)\n"
        "assert assoc_stirling1(300, 3) > 0\n"
        "assert stirling2(300, 2) == 2 ** 299 - 1\n"
        "assert h_value(300, 1) == Fraction(1, 301)\n"
    )
    src = str(Path(spmatroids.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_cold_far_entries_grow_only_a_staircase(cold_memos):
    # an entry far down a short diagonal, or far along a long one, extends
    # only the diagonals up to its own, not the triangle of rows above it
    n = 1100
    pairs = sum(comb(n, a) * factorial(a - 1) * factorial(n - a - 1) for a in range(2, n - 1))
    assert assoc_stirling1(n, 2) == pairs // 2
    assert sum(map(len, combinum._D_DIAGS)) <= 5000
    assert stirling2(n, n - 3) == comb(n, 4) + 10 * comb(n, 5) + 15 * comb(n, 6)
    assert sum(map(len, combinum._S2_DIAGS)) <= 5000
    assert h_value(n, 2) == Fraction(2, factorial(n + 2)) * assoc_stirling1(n + 2, 2)
    assert sum(map(len, combinum._H_DIAGS)) <= 5000


def test_concurrent_cold_growth_matches_serial(cold_memos):
    # four threads on two cores grow the same cold memos in different orders,
    # switching every microsecond; each must read what a lone caller reads
    indices = [(n, k) for n in range(61) for k in range(n + 1)]

    def read(n, k):
        return stirling2(n, k), assoc_stirling1(n, k), h_value(n - k, k)

    serial = {(n, k): read(n, k) for n, k in indices}
    results = []

    def work(seed):
        order = random.Random(seed).sample(indices, len(indices))
        try:
            results.append({(n, k): read(n, k) for n, k in order})
        except IndexError as exc:  # a diagonal shortened under a reader
            results.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rounds in range(60):
            cold_memos()
            threads = [threading.Thread(target=work, args=(4 * rounds + i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results) and len(results) == 240


def test_cold_memos_empties_every_memo(cold_memos):
    # warm every memo, then empty them: a functools cache added to one of
    # these modules is found by its cache_clear with no fixture edit
    for family in spcounts.FAMILIES:
        spcounts.build_tables(8, family)
    stirling2(9, 3), assoc_stirling1(9, 3), h_value(9, 3)
    oracle.count_rows("A", 4)
    for entry in oracle.enumerate_connected(4):  # ranks 2 and 3 reach _marking
        oracle.minor_check(entry.sig)
        oracle.check_basis_exchange(entry.sig, random.Random(4))  # reaches _single_bits
    # the catalog stays warm, so its reverse search builds no label table here
    bases = oracle.enumerate_connected(4)[0].sig.bases
    oracle.parallel_extension(bases, 1, 5), oracle.series_extension(bases, 1, 5)
    caches = [(module, name) for module in (combinum, spcounts, oracle)
              for name, obj in vars(module).items() if hasattr(obj, "cache_clear")]
    assert {(spcounts, "_count_rows"), (spcounts, "_e_row"),
            (oracle, "_level_counts"), (oracle, "_lattice"), (oracle, "_marking"),
            (oracle, "_label_tables"), (oracle, "_move_table"),
            (oracle, "_single_bits")} <= set(caches)
    assert all(getattr(module, name).cache_info().currsize for module, name in caches)
    cold_memos()
    for module, name in caches:
        assert getattr(module, name).cache_info().currsize == 0, name
    assert combinum._S2_DIAGS == combinum._D_DIAGS == [[1]]
    assert combinum._H_DIAGS == [[1]] and type(combinum._H_DIAGS[0][0]) is Fraction


def test_assoc_stirling1_closed_forms():
    for k in range(21):
        assert assoc_stirling1(2 * k, k) == double_factorial(2 * k - 1)
        assert Fraction(assoc_stirling1(2 * k + 1, k)) == Fraction(2, 3) * k * double_factorial(2 * k + 1)
        assert Fraction(assoc_stirling1(2 * k + 2, k)) == (
            Fraction(1, 9) * (4 * k + 5) * (k + 1) * k * double_factorial(2 * k + 1)
        )


def test_h_value_small():
    assert h_value(2, 1) == Fraction(1, 3)
    assert h_value(2, 2) == Fraction(1, 4)
    assert h_value(3, 2) == Fraction(1, 3)  # (1,2) and (2,1), each 1/6
    assert h_value(0, 0) == 1
    assert h_value(0, 3) == 0
    assert h_value(4, 0) == 0
    assert h_value(-1, 0) == 0
    # in range, out of range, and the zeros H(m, 0) that start each diagonal
    assert all(type(h_value(m, k)) is Fraction for m in range(-2, 12) for k in range(-2, 12))


def h_value_compositions(m: int, k: int) -> Fraction:
    """Reference evaluation of h_value by direct composition enumeration."""
    if m < 0 or k < 0:
        return Fraction(0)
    total = Fraction(0)
    for js in compositions(m, k):
        prod = Fraction(1)
        for j in js:
            prod /= j + 1
        total += prod
    return total


def test_h_value_vs_composition_reference():
    for m in range(9):
        for k in range(9):
            assert h_value(m, k) == h_value_compositions(m, k)


def test_h_value_vs_derangements():
    for n in range(25):
        for k in range(n + 1):
            assert h_value(n - k, k) == Fraction(factorial(k), factorial(n)) * assoc_stirling1(n, k)


def _names_in(function):
    # every name and attribute a top-level function of combinum refers to
    tree = ast.parse(Path(combinum.__file__).read_text(encoding="utf-8"))
    node = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function)
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


@pytest.mark.parametrize("function", ["h_value", "_h_step"])
def test_h_reads_no_derangement_number(function):
    # verify's reciprocal-sum-vs-derangements compares two routes only if
    # H's own recursion names nothing of D
    assert _names_in(function).isdisjoint(
        {"_D_DIAGS", "_d_diagonals", "_d_step", "assoc_stirling1"})


def test_compositions():
    assert sorted(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []
    assert list(compositions(2, 3)) == []
