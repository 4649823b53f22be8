"""Tests for the brute-force enumeration oracle."""

import ast
import random
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spmatroids import oracle
from spmatroids.oracle import (
    MatroidSignature,
    check_basis_exchange,
    connected_counts,
    direct_sum,
    dump_catalog,
    enumerate_connected,
    extensions,
    is_simple,
    minor_check,
    parallel_extension,
    quasi_counts,
    rank_of_subset,
    series_extension,
)

U23 = MatroidSignature(3, 2, (3, 5, 6))  # all 2-subsets of {1,2,3}
U12 = MatroidSignature(2, 1, (1, 2))
U24 = MatroidSignature(
    4, 2, tuple(sorted((1 << a) | (1 << b) for a in range(4) for b in range(a + 1, 4)))
)
U13_BASES = frozenset((1, 2, 4))  # three parallel elements


def test_signature_base_cases():
    # U12 seeds the closure; the loop and the coloop are the n = 1 catalog
    assert [e.sig for e in enumerate_connected(2)] == [U12]
    assert [e.sig for e in enumerate_connected(1)] == [
        MatroidSignature(1, 0, (0,)),
        MatroidSignature(1, 1, (1,)),
    ]
    # the triangle: a third element in series with U12
    assert series_extension(frozenset(U12.bases), 2, 3) == frozenset(U23.bases)


def test_four_cycle_labelings_all_give_uniform():
    # Any labeling of the 4-cycle, built by two series moves from U12 at any
    # element, induces the uniform rank-3 matroid.
    all_triples = frozenset(0b1111 & ~(1 << i) for i in range(4))
    for a, b, c, d in permutations((1, 2, 3, 4)):
        triangle = series_extension(frozenset((1 << (a - 1), 1 << (b - 1))), b, c)
        for e in (a, b, c):
            assert series_extension(triangle, e, d) == all_triples


def test_extend_two_cycle():
    u12 = frozenset(U12.bases)
    out = extensions(u12, 3)
    assert len(out) == 4  # a parallel and a series move at each of 2 elements
    # parallel extensions all give the triple edge, series all give triangles
    assert [parallel_extension(u12, e, 3) for e in (1, 2)] == [U13_BASES] * 2
    assert [series_extension(u12, e, 3) for e in (1, 2)] == [frozenset(U23.bases)] * 2
    assert set(out) == {U13_BASES, frozenset(U23.bases)}


def test_extend_label_reuse_rejected():
    with pytest.raises(ValueError):
        extensions(frozenset(U12.bases), 2)


def test_extend_single_edge_terminal():
    assert extensions(frozenset((1,)), 2) == []  # a coloop
    assert extensions(frozenset((0,)), 2) == []  # a loop


def test_subdivided_triple_edge_bases():
    # triple edge {1,2,3}, element 4 in series with 3: bases 13,14,23,24,34
    bases = series_extension(U13_BASES, 3, 4)
    want = {0b0101, 0b1001, 0b0110, 0b1010, 0b1100}
    assert bases == want
    sig = MatroidSignature(4, 2, tuple(sorted(bases)))
    assert rank_of_subset(sig, 0b0011) == 1  # {1, 2} is a parallel class
    assert not is_simple(sig)


def _dual(bases: frozenset[int], ground: int) -> frozenset[int]:
    return frozenset(ground ^ b for b in bases)


SMALL_CATALOG = [e.sig for n in range(1, 6) for e in enumerate_connected(n)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_series_is_dual_of_parallel(data):
    m = data.draw(st.sampled_from(SMALL_CATALOG))
    e = data.draw(st.integers(1, m.ground_size))
    f = data.draw(st.integers(m.ground_size + 1, 8))
    ground = (1 << m.ground_size) - 1
    bases = frozenset(m.bases)
    via_dual = _dual(parallel_extension(_dual(bases, ground), e, f), ground | 1 << (f - 1))
    assert series_extension(bases, e, f) == via_dual


def test_rank_table_matches_rank_of_subset():
    for m in SMALL_CATALOG + [U24, oracle._k4_signature()]:
        table = oracle._rank_table(m)
        assert len(table) == 1 << m.ground_size
        for mask, r in enumerate(table):
            assert r == rank_of_subset(m, mask), (m, mask)


def test_submasks_ascend_over_every_submask():
    for mask in (0, 1, 0b101, 0b101101, 0xFF):
        want = [s for s in range(mask + 1) if s & ~mask == 0]
        assert list(oracle._submasks(mask)) == want


def test_oracle_imports_no_formula_route():
    # The oracle is the independent route: it may not reach the closed
    # forms, the series kernel, the combinatorial numbers or the suites.
    # For `from pkg import name` both pkg and pkg.name count as imported.
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["spmatroids" if node.level else "", node.module]))
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    forbidden = {f"spmatroids.{m}" for m in ("spcounts", "powerseries", "combinum", "verify")}
    assert imported.isdisjoint(forbidden)


def test_mk4_literal():
    mk4 = oracle._k4_signature()
    assert mk4.ground_size == 6 and mk4.rank == 3
    assert len(mk4.bases) == len(set(mk4.bases)) == 16
    # with the literal's edge labels, three edges of K4 form a spanning tree
    # iff they touch all four vertices
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    trees = {
        sum(1 << i for i in triple)
        for triple in combinations(range(6), 3)
        if len({v for i in triple for v in edges[i]}) == 4
    }
    assert set(mk4.bases) == trees
    assert not minor_check(mk4)


def test_connected_counts_row_seven():
    # pinned from the graph-based enumeration this oracle replaced
    assert connected_counts(7)[0] == [0, 1, 301, 2450, 2450, 301, 1, 0]


def test_enumerate_small():
    assert connected_counts(1) == ([1, 1], [0, 1])
    assert connected_counts(3) == ([0, 1, 1, 0], [0, 0, 1, 0])
    c4, e4 = connected_counts(4)
    assert c4 == [0, 1, 6, 1, 0]
    assert e4 == [0, 0, 0, 1, 0]
    assert sum(c4) == 8


def test_enumerate_caps():
    with pytest.raises(ValueError):
        enumerate_connected(9)
    with pytest.raises(ValueError):
        enumerate_connected(0)
    with pytest.raises(ValueError):
        quasi_counts(9)


def test_lossless_level_dedup():
    for n in range(2, 6):
        assert enumerate_connected(n) == enumerate_connected(n, dedup_levels=False)


def test_catalog_rank_multiset_duality():
    for n in range(1, 7):
        c_row, _ = connected_counts(n)
        assert c_row == c_row[::-1]


def test_is_simple():
    assert is_simple(U23)
    assert not is_simple(U12)
    assert not is_simple(MatroidSignature(1, 0, (0,)))  # a loop


def test_rank_of_subset():
    assert rank_of_subset(U23, 0b011) == 2
    assert rank_of_subset(U23, 0) == 0
    assert rank_of_subset(U23, 0b111) == 2


def test_quasi_counts():
    assert quasi_counts(0) == ([1], [1])
    assert quasi_counts(2) == ([1, 3, 1], [0, 0, 1])
    a3, s3 = quasi_counts(3)
    assert s3 == [0, 0, 1, 1]
    assert a3 == [1, 7, 7, 1]


def test_minor_check_identity_cases():
    assert not minor_check(U24)
    assert not minor_check(oracle._k4_signature())
    assert minor_check(U23)


def test_minor_check_on_catalog_and_sums():
    for n in range(1, 6):
        for entry in enumerate_connected(n):
            assert minor_check(entry.sig)
    rng = random.Random(5)
    sigs4 = [e.sig for e in enumerate_connected(4)]
    sigs2 = [e.sig for e in enumerate_connected(2)]
    for s1 in rng.sample(sigs4, 4):
        for s2 in sigs2:
            assert minor_check(direct_sum(s1, s2))


def test_minor_check_catches_planted_minor():
    # U24 plus a coloop still contains a U24 minor.
    coloop = MatroidSignature(1, 1, (1,))
    assert not minor_check(direct_sum(U24, coloop))


def test_basis_exchange_spot_checks():
    rng = random.Random(11)
    for n in range(1, 6):
        for entry in enumerate_connected(n):
            assert check_basis_exchange(entry.sig, rng)


def test_basis_exchange_rejects_non_matroid():
    # {1,2} and {3,4} as "bases" violate exchange.
    fake = MatroidSignature(4, 2, (0b0011, 0b1100))
    rng = random.Random(3)
    assert not check_basis_exchange(fake, rng, trials=200)


def test_dump_catalog_format():
    text = dump_catalog(2)
    lines = text.splitlines()
    assert lines[0] == "1 0 0 -"
    assert lines[1] == "1 1 1 1"
    assert lines[2] == "2 1 0 1,2"
    assert len(lines) == 3


def test_direct_sum():
    s = direct_sum(U12, U23)
    assert s.ground_size == 5 and s.rank == 3
    assert len(s.bases) == 2 * 3
