"""Tests for the brute-force enumeration oracle."""

import ast
import hashlib
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from functools import cache
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference
from oracle_reference import closure, extensions, is_simple, k4_signature, rank_of_subset
from spmatroids import cli, oracle
from spmatroids.oracle import (
    HARD_CAP,
    MatroidSignature,
    check_basis_exchange,
    count_rows,
    direct_sum,
    dump_catalog,
    enumerate_connected,
    minor_check,
    parallel_extension,
    series_extension,
)

U23 = MatroidSignature(3, 2, (3, 5, 6))  # all 2-subsets of {1,2,3}
U12 = MatroidSignature(2, 1, (1, 2))
U24 = MatroidSignature(
    4, 2, tuple(sorted((1 << a) | (1 << b) for a in range(4) for b in range(a + 1, 4)))
)
U13 = (1, 2, 4)  # three parallel elements
U13_BASES = frozenset(U13)


def test_signature_base_cases():
    # U12 seeds the closure; the loop and the coloop are the n = 1 catalog.
    # The catalog holds its bases as bytes, one byte per mask.
    assert [e.sig for e in enumerate_connected(2)] == [MatroidSignature(2, 1, b"\x01\x02")]
    assert [e.sig for e in enumerate_connected(1)] == [
        MatroidSignature(1, 0, b"\x00"),
        MatroidSignature(1, 1, b"\x01"),
    ]
    # the triangle: a third element in series with U12
    assert frozenset(series_extension(U12.bases, 2, 3)) == frozenset(U23.bases)


def test_four_cycle_labelings_all_give_uniform():
    # Any labeling of the 4-cycle, built by two series moves from U12 at any
    # element, induces the uniform rank-3 matroid.
    all_triples = frozenset(0b1111 & ~(1 << i) for i in range(4))
    for a, b, c, d in permutations((1, 2, 3, 4)):
        triangle = series_extension((1 << (a - 1), 1 << (b - 1)), b, c)
        for e in (a, b, c):
            assert frozenset(series_extension(triangle, e, d)) == all_triples


def test_extend_two_cycle():
    u12 = frozenset(U12.bases)
    out = extensions(u12, 3)
    assert len(out) == 4  # a parallel and a series move at each of 2 elements
    # parallel extensions all give the triple edge, series all give triangles
    assert [frozenset(parallel_extension(U12.bases, e, 3)) for e in (1, 2)] == [U13_BASES] * 2
    u23 = frozenset(U23.bases)
    assert [frozenset(series_extension(U12.bases, e, 3)) for e in (1, 2)] == [u23] * 2
    assert set(out) == {U13_BASES, frozenset(U23.bases)}


def test_extend_label_reuse_rejected():
    with pytest.raises(ValueError):
        extensions(frozenset(U12.bases), 2)


def test_extend_single_edge_terminal():
    assert extensions(frozenset((1,)), 2) == []  # a coloop
    assert extensions(frozenset((0,)), 2) == []  # a loop


def test_subdivided_triple_edge_bases():
    # triple edge {1,2,3}, element 4 in series with 3: bases 13,14,23,24,34
    bases = series_extension(U13, 3, 4)
    want = {0b0101, 0b1001, 0b0110, 0b1010, 0b1100}
    assert frozenset(bases) == want
    sig = MatroidSignature(4, 2, tuple(sorted(bases)))
    assert rank_of_subset(sig, 0b0011) == 1  # {1, 2} is a parallel class
    assert not is_simple(sig)


def _dual(bases, ground: int) -> frozenset[int]:
    return frozenset(ground ^ b for b in bases)


SMALL_CATALOG = [e.sig for n in range(1, 6) for e in enumerate_connected(n)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_series_is_dual_of_parallel(data):
    m = data.draw(st.sampled_from(SMALL_CATALOG))
    e = data.draw(st.integers(1, m.ground_size))
    f = data.draw(st.integers(m.ground_size + 1, 8))
    ground = (1 << m.ground_size) - 1
    dual_bases = tuple(_dual(m.bases, ground))
    via_dual = _dual(parallel_extension(dual_bases, e, f), ground | 1 << (f - 1))
    assert frozenset(series_extension(m.bases, e, f)) == via_dual


def test_rank_table_matches_rank_of_subset():
    for m in SMALL_CATALOG + [U24, k4_signature()]:
        table = oracle._rank_lattice(m)[1]
        assert len(table) == 1 << m.ground_size
        for mask, r in enumerate(table):
            assert r == rank_of_subset(m, mask), (m, mask)


def test_submasks_ascend_over_every_submask():
    for mask in (0, 1, 0b101, 0b101101, 0xFF):
        want = [s for s in range(mask + 1) if s & ~mask == 0]
        assert list(oracle_reference.submasks(mask)) == want


def test_rank_table_ignores_the_rank_field():
    # U_{2,4}'s bases under a wrong rank field give U_{2,4}'s rank table
    for rank in (1, 3):
        wrong = MatroidSignature(4, rank, U24.bases)
        assert list(oracle._rank_lattice(wrong)[1]) == oracle_reference.rank_table(wrong)
        assert oracle._rank_lattice(wrong)[1] == oracle._rank_lattice(U24)[1]


def test_rank_table_matches_reference_on_every_catalog_matroid():
    catalog = [e.sig for n in range(1, 8) for e in enumerate_connected(n)]
    assert len(catalog) == 6041
    for m in catalog:
        assert list(oracle._rank_lattice(m)[1]) == oracle_reference.rank_table(m), m


def _uniform(r, n):
    bases = tuple(sorted(sum(1 << i for i in c) for c in combinations(range(n), r)))
    return MatroidSignature(n, r, bases)


def _fano():
    # F7: the lines are {i, i + 1, i + 3} mod 7, and the bases the other triples
    lines = {sum(1 << (i + d) % 7 for d in (0, 1, 3)) for i in range(7)}
    bases = (sum(1 << i for i in c) for c in combinations(range(7), 3))
    return MatroidSignature(7, 3, tuple(sorted(set(bases) - lines)))


def _wheel(spokes):
    # M(W_s): hub 0, rim 1 .. s; the bases are the spanning trees, the
    # s-sets of edges that join every vertex to the hub
    edges = [(0, i) for i in range(1, spokes + 1)]
    edges += [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    bases = []
    for tree in combinations(range(2 * spokes), spokes):
        reached = {0}
        for _ in range(spokes):
            reached |= {v for i in tree if reached & set(edges[i]) for v in edges[i]}
        if len(reached) == spokes + 1:
            bases.append(sum(1 << i for i in tree))
    return MatroidSignature(2 * spokes, spokes, tuple(sorted(bases)))


LOOP = MatroidSignature(1, 0, (0,))
COLOOP = MatroidSignature(1, 1, (1,))


def _with_one_more_element(m):
    # m, its series and parallel extensions at each element, m + loop, m + coloop
    n = m.ground_size
    out = [m, direct_sum(m, LOOP), direct_sum(m, COLOOP)]
    for e in range(1, n + 1):
        par = parallel_extension(m.bases, e, n + 1)
        ser = series_extension(m.bases, e, n + 1)
        out.append(MatroidSignature(n + 1, m.rank, tuple(sorted(par))))
        out.append(MatroidSignature(n + 1, m.rank + 1, tuple(sorted(ser))))
    return out


NOT_SERIES_PARALLEL = [
    case
    for m in (
        _uniform(2, 4), _uniform(2, 5), _uniform(2, 6), _uniform(3, 5),
        _uniform(3, 6), _uniform(4, 7), k4_signature(), _fano(),
    )
    for case in _with_one_more_element(m)
]


def test_minor_search_matches_reference_off_the_series_parallel_class():
    assert len(NOT_SERIES_PARALLEL) == 116
    for m in NOT_SERIES_PARALLEL:
        n, rk = m.ground_size, oracle._rank_lattice(m)[1]
        u24 = oracle._has_u24_minor(n, rk)
        assert u24 == oracle_reference.has_u24_minor(n, rk), m
        if not u24:
            assert oracle._has_mk4_minor(n, rk) == oracle_reference.has_mk4_minor(n, rk), m
        assert not minor_check(m), m


def test_u24_hyperplane_count_matches_point_search():
    # The flat count at (t, c) = (r - 1, 4) against the contraction-point
    # search it replaced, and, where there is no U_{2,4} minor, at
    # (t, c) = (r - 2, 6) against the search over every contraction set.
    # F7* and the wheel W4 are binary of rank 4 with an M(K4) minor: t = 2.
    cases = {
        "catalog n <= 7": [e.sig for n in range(1, 8) for e in enumerate_connected(n)],
        "catalog n = 8": random.Random(8).sample([e.sig for e in enumerate_connected(8)], 300),
        "not series-parallel": NOT_SERIES_PARALLEL,
        "six-label rank 3": _six_label_rank3(),
        "uniform": [_uniform(r, n) for n in range(HARD_CAP + 1) for r in range(n + 1)],
        "binary rank 4": [
            MatroidSignature(7, 4, tuple(sorted(_dual(_fano().bases, 127)))), _wheel(4),
        ],
    }
    with_u24, with_mk4 = {}, {}
    for name, sigs in cases.items():
        with_u24[name] = with_mk4[name] = 0
        for m in sigs:
            n, rk = m.ground_size, oracle._rank_lattice(m)[1]
            got = oracle._has_u24_minor(n, rk)
            assert got == oracle_reference.has_u24_minor_by_points(n, rk), (name, m)
            with_u24[name] += got
            if not got:
                mk4 = oracle._has_mk4_minor(n, rk)
                assert mk4 == oracle_reference.has_mk4_minor(n, rk), (name, m)
                with_mk4[name] += mk4
    # U_{r,n} has a U_{2,4} minor iff 2 <= r <= n - 2: 1+2+3+4+5 of them
    assert with_u24 == {
        "catalog n <= 7": 0, "catalog n = 8": 0, "not series-parallel": 84,
        "six-label rank 3": 30, "uniform": 15, "binary rank 4": 0,
    }
    assert with_mk4 == {
        "catalog n <= 7": 0, "catalog n = 8": 0, "not series-parallel": 32,
        "six-label rank 3": 30, "uniform": 0, "binary rank 4": 2,
    }


def test_minor_check_at_the_cap():
    assert not minor_check(direct_sum(_fano(), COLOOP))
    eight = [e.sig for e in enumerate_connected(HARD_CAP)]
    for m in random.Random(8).sample(eight, 300):
        assert minor_check(m), m
    # built by hand: direct_sum refuses nine elements itself
    nine = MatroidSignature(9, 4, tuple(b | u << 7 for b in _fano().bases for u in U12.bases))
    with pytest.raises(ValueError, match=f"minor_check capped at ground size {HARD_CAP}"):
        minor_check(nine)


@pytest.mark.parametrize("module, forbidden", [
    # The oracle is the independent route: it may not reach the closed
    # forms, the series kernel, the combinatorial numbers or the suites.
    ("oracle", [f"spmatroids.{m}" for m in ("spcounts", "powerseries", "combinum", "verify")]),
    # The series kernel is the Fraction reference: the closed forms and the
    # integer product routes it is checked against, egf_exp's binomial
    # convolution among them, stay outside it.
    ("powerseries",
     [f"spmatroids.{m}" for m in ("spcounts", "combinum", "oracle", "verify")] + ["math.comb"]),
    # The closed forms are checked against the series kernel and the oracle.
    ("spcounts", [f"spmatroids.{m}" for m in ("powerseries", "oracle", "verify")]),
    # The combinatorial numbers stand on nothing in the package.
    ("combinum", [f"spmatroids.{m}" for m in
                  ("powerseries", "spcounts", "oracle", "verify", "oeis", "config", "cli")]),
], ids=["oracle", "powerseries", "spcounts", "combinum"])
def test_independent_route_imports(module, forbidden):
    # For `from pkg import name` both pkg and pkg.name count as imported.
    path = Path(oracle.__file__).with_name(f"{module}.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["spmatroids" if node.level else "", node.module]))
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    assert imported.isdisjoint(forbidden)
    # and in a running process: a fresh interpreter imports the module alone,
    # so neither the package root nor a module it reaches loads a forbidden one
    src = str(path.resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, spmatroids.{module}; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()).isdisjoint(forbidden)


def test_mk4_literal():
    mk4 = k4_signature()
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


BITS_OF = [[1 << i for i in range(6) if m >> i & 1] for m in range(64)]  # six labels


@cache
def _six_label_rank3():
    # every rank-3 matroid on six labels with 16 bases
    triples = [sum(1 << i for i in t) for t in combinations(range(6), 3)]
    matroids = []
    for dependent in combinations(triples, 4):
        bases = tuple(t for t in triples if t not in dependent)
        if oracle_reference.basis_exchange(bases):
            matroids.append(MatroidSignature(6, 3, bases))
    return matroids


def test_mk4_test_is_sixteen_bases_without_a_parallel_pair():
    # The 60 rank-3 matroids on six labels with 16 bases, against the literal
    # canonical form: the least sorted basis tuple over all 720 relabellings.
    relabel = [
        [sum(1 << p[i] for i in range(6) if m >> i & 1) for m in range(64)]
        for p in permutations(range(6))
    ]

    def canonical(bases):
        return min(tuple(sorted(table[b] for b in bases)) for table in relabel)

    mk4 = canonical(k4_signature().bases)
    matroids = _six_label_rank3()
    assert len(matroids) == 60
    with_u24 = wrong_without_precondition = 0
    for m in matroids:
        rk = oracle._rank_lattice(m)[1]
        is_mk4 = canonical(m.bases) == mk4
        no_parallel_pair = all(rk[p] == 2 for p in map(sum, combinations(BITS_OF[63], 2)))
        wrong_without_precondition += no_parallel_pair != is_mk4
        if oracle._has_u24_minor(6, rk):
            with_u24 += 1
            assert not is_mk4
        else:
            assert no_parallel_pair == is_mk4 == oracle._has_mk4_minor(6, rk), m
    assert with_u24 == 30
    assert wrong_without_precondition == 15


def test_connected_counts_row_seven():
    # pinned from the graph-based enumeration this oracle replaced
    assert count_rows("C", 7)[7] == [0, 1, 301, 2450, 2450, 301, 1, 0]


def test_enumerate_small():
    c, e = count_rows("C", 4), count_rows("E", 4)
    assert (c[0], e[0]) == ([0], [0])
    assert (c[1], e[1]) == ([1, 1], [0, 1])
    assert (c[3], e[3]) == ([0, 1, 1, 0], [0, 0, 1, 0])
    c4, e4 = c[4], e[4]
    assert c4 == [0, 1, 6, 1, 0]
    assert e4 == [0, 0, 0, 1, 0]
    assert sum(c4) == 8


def test_enumerate_caps():
    with pytest.raises(ValueError):
        enumerate_connected(9)
    with pytest.raises(ValueError):
        enumerate_connected(0)
    with pytest.raises(ValueError):
        count_rows("A", 9)


def test_count_rows_refuses_unknown_family_and_negative_max_n():
    with pytest.raises(ValueError, match="family 'G'") as refused:
        count_rows("G", 4)
    assert str(oracle.FAMILIES) in str(refused.value)
    for family in ("C", "A"):
        with pytest.raises(ValueError, match="max_n >= 0"):
            count_rows(family, -1)


def test_lossless_level_dedup():
    for n in range(2, 6):
        catalog = {frozenset(e.sig.bases) for e in enumerate_connected(n)}
        assert catalog == closure(n) == closure(n, dedup_levels=False)


def test_reverse_search_emits_each_closure_matroid_once():
    # the generator against the breadth-first closure over label subsets
    assert {frozenset(e.sig.bases) for e in enumerate_connected(2)} == closure(2)
    for n in range(3, 8):
        parents = enumerate_connected(n - 1)
        emitted = [frozenset(e.sig.bases) for e in oracle._reverse_search(parents, n)]
        assert set(emitted) == closure(n), n
        assert len(emitted) == len(set(emitted)), n


def test_catalog_levels_are_in_signature_order():
    # every entry's bases strictly increase, and each level is in (rank, bases) order
    for n in range(1, HARD_CAP + 1):
        level = enumerate_connected(n)
        for entry in level:
            bases = entry.sig.bases
            assert all(a < b for a, b in zip(bases, bases[1:])), entry
        keys = [(e.sig.rank, e.sig.bases) for e in level]
        assert all(a < b for a, b in zip(keys, keys[1:])), n


@pytest.mark.parametrize("n, sha256", [
    (7, "4973c1c82aad7f4d3e0edd5510c31cc2ab6de7470b50c33c6763e6cb7f065f4d"),
    (8, "71270faedd183a490022151e250da4e26c5843ed8f3d29acd1ded569f14c5990"),
])
def test_dump_catalog_digest_is_pinned(n, sha256):
    # pinned from the generator that sorted every extension it built
    assert hashlib.sha256(dump_catalog(n).encode()).hexdigest() == sha256


def test_sorted_tuple_moves_equal_set_moves():
    # every parent with n <= 7 and every e: the same bases as the set-valued
    # moves, written in increasing order when the new label is the top one;
    # the catalog's bytes and the same masks as a tuple give equal bytes
    for n in range(1, 8):
        for entry in enumerate_connected(n):
            bases = entry.sig.bases
            for e in range(1, n + 1):
                for move, set_move in [
                    (parallel_extension, oracle_reference.set_parallel_extension),
                    (series_extension, oracle_reference.set_series_extension),
                ]:
                    got = move(bases, e, n + 1)
                    assert type(got) is bytes and move(tuple(bases), e, n + 1) == got
                    assert frozenset(got) == set_move(frozenset(bases), e, n + 1), (entry, e)
                    assert all(a < b for a, b in zip(got, got[1:])), (entry, e)


def test_catalog_levels_store_bases_as_bytes():
    for n in range(1, HARD_CAP + 1):
        assert all(type(e.sig.bases) is bytes for e in enumerate_connected(n)), n


def test_swap_table_swaps_two_labels_on_every_mask():
    for n in range(2, HARD_CAP + 1):
        for i in range(1, n):
            table = oracle._swap_table(i, n)
            assert len(table) == 256
            for mask in range(1 << n):
                labels = {j + 1 for j in range(n) if mask >> j & 1}
                swapped = {n if j == i else i if j == n else j for j in labels}
                assert table[mask] == sum(1 << (j - 1) for j in swapped), (n, i, mask)


def test_swap_table_moves_a_label_on_every_mask_without_the_other():
    # parallel_extension reads the swap table only on masks with e and without f
    for e in range(1, 9):
        for f in range(1, 9):
            if e != f:
                table = oracle._swap_table(e, f)
                for b in range(256):
                    if b >> (e - 1) & 1 and not b >> (f - 1) & 1:
                        assert table[b] == b & ~(1 << e - 1) | 1 << f - 1, (e, f, b)


def test_connected_count_rows_equal_a_literal_recount(cold_memos):
    # A and S are checked against the set-partition sum over the same recount
    # in test_quasi_counts_match_set_partition_sum
    c, e = oracle_reference.catalog_rows(HARD_CAP)
    assert (count_rows("C", HARD_CAP), count_rows("E", HARD_CAP)) == (c, e)


def test_run_oracle_walks_each_catalog_level_once(monkeypatch, cold_memos):
    walks = Counter()

    class Level(tuple):
        def __iter__(self):
            walks[self[0].sig.ground_size] += 1
            return super().__iter__()

    levels = {n: Level(enumerate_connected(n)) for n in range(1, 8)}
    monkeypatch.setattr(oracle, "_CATALOG", levels)
    text, status = cli.run_oracle(7, True, None)
    assert status == 0 and text.endswith("match enumeration for all four families\n")
    assert walks == {n: 1 for n in range(1, 8)}


def test_simple_flag_matches_rescan():
    for n in range(1, 8):
        for entry in enumerate_connected(n):
            assert entry.simple == is_simple(entry.sig), entry


def test_partners_from_cover_and_miss_masks():
    # U_{1,3} plus 4 in series with 3: {1, 2} is the only parallel pair and
    # {3, 4} the only series pair
    bases = series_extension(U13, 3, 4)
    par, ser = oracle._partners(bases, 4)
    assert par == [0b0010, 0b0001, 0, 0]
    assert ser == [0, 0, 0b1000, 0b0100]


def test_partners_equal_the_one_pass_reference():
    # every catalog entry with n <= 7, loops and coloops included
    for n in range(1, 8):
        for entry in enumerate_connected(n):
            bases = entry.sig.bases
            assert oracle._partners(bases, n) == oracle_reference.partners(bases, n), entry


def test_catalog_rank_multiset_duality():
    for c_row in count_rows("C", 6)[1:]:
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
    a, s = count_rows("A", 3), count_rows("S", 3)
    assert (a[0], s[0]) == ([1], [1])
    assert (a[2], s[2]) == ([1, 3, 1], [0, 0, 1])
    a3, s3 = a[3], s[3]
    assert s3 == [0, 0, 1, 1]
    assert a3 == [1, 7, 7, 1]


def test_quasi_counts_match_set_partition_sum():
    a, s = count_rows("A", HARD_CAP), count_rows("S", HARD_CAP)
    for n in range(HARD_CAP + 1):
        assert (a[n], s[n]) == oracle_reference.quasi_counts(n), n


def test_minor_check_identity_cases():
    assert not minor_check(U24)
    assert not minor_check(k4_signature())
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
    # the call shape of a caller that passes an rng: the rng is never drawn from
    rng = random.Random(11)
    state = rng.getstate()
    for n in range(1, 6):
        for entry in enumerate_connected(n):
            assert check_basis_exchange(entry.sig, rng)
    assert rng.getstate() == state


def test_every_catalog_matroid_up_to_seven_passes_both_checks():
    catalog = [e.sig for n in range(1, 8) for e in enumerate_connected(n)]
    assert len(catalog) == 6041
    for m in catalog:
        assert minor_check(m), m
        assert check_basis_exchange(m), m


FAKE = MatroidSignature(4, 2, (0b0011, 0b1100))  # {1,2} and {3,4} as "bases"


def test_basis_exchange_rejects_non_matroid():
    # {1,2} and {3,4} as "bases" violate exchange.
    rng = random.Random(3)
    assert not check_basis_exchange(FAKE, rng)


def test_basis_exchange_fails_an_empty_basis_tuple_without_a_draw():
    rng = random.Random(0)
    state = rng.getstate()
    assert not check_basis_exchange(MatroidSignature(3, 1, ()), rng)
    assert rng.getstate() == state
    # past HARD_CAP the cap is refused first, again with no draw
    with pytest.raises(ValueError, match=f"check_basis_exchange capped at ground size {HARD_CAP}"):
        check_basis_exchange(MatroidSignature(14, 1, ()), rng)
    assert rng.getstate() == state


def _verdict_without_a_draw(m, seed):
    # check_basis_exchange's verdict, asserting that the rng passed is untouched
    rng = random.Random(seed)
    state = rng.getstate()
    verdict = check_basis_exchange(m, rng)
    assert rng.getstate() == state
    return verdict


def test_basis_exchange_equals_all_pairs_reference():
    sigs = [entry.sig for n in range(1, 7) for entry in enumerate_connected(n)]
    for n in (7, HARD_CAP):  # up to the enumeration cap
        sigs += [e.sig for e in random.Random(n).sample(enumerate_connected(n), 100)]
    sigs.append(FAKE)
    for seed, sig in enumerate(sigs):
        assert _verdict_without_a_draw(sig, seed) == oracle_reference.basis_exchange(sig.bases), sig


def test_basis_exchange_finds_the_needle_a_spot_check_misses():
    # U_{3,7} without the bases {1,2,5}, {2,3,5} and {1,3,7} (masks 19, 22
    # and 69) is no matroid: for B1 = {2,4,5}, B2 = {1,2,3} and e = 4 the
    # only candidates B1 - 4 + 1 and B1 - 4 + 3 are the removed {1,2,5} and
    # {2,3,5}.  Six of its 32 * 32 pairs fail, and a seeded spot check of 40
    # random exchanges passed it at 15 of the seeds 0 to 19.
    triples = {sum(1 << i for i in c) for c in combinations(range(7), 3)}
    needle = MatroidSignature(7, 3, tuple(sorted(triples - {19, 22, 69})))
    assert not oracle_reference.basis_exchange(needle.bases)
    assert not check_basis_exchange(needle)


def _families(max_n):
    # random families of masks on [n]: any sizes, repeats and the empty
    # family, or some of the k-subsets, so that matroids come up often
    def on(n):
        k_sets = st.integers(0, n).map(
            lambda k: sorted(sum(1 << i for i in c) for c in combinations(range(n), k)))
        return st.one_of(
            st.lists(st.integers(0, (1 << n) - 1), max_size=12),
            k_sets.flatmap(lambda sets: st.lists(st.sampled_from(sets), max_size=len(sets) + 2)),
        ).map(lambda bases: MatroidSignature(n, 0, tuple(bases)))
    return st.integers(0, max_n).flatmap(on)


@settings(max_examples=400, deadline=None)
@given(_families(5), st.integers(0, 2**32))
def test_basis_exchange_equals_all_pairs_reference_on_random_families(m, seed):
    assert _verdict_without_a_draw(m, seed) == oracle_reference.basis_exchange(m.bases)


def test_basis_exchange_on_direct_sums_up_to_the_cap():
    # ground size 5 to HARD_CAP: a direct sum of two catalog entries passes
    rng = random.Random(14)
    for ground_size in range(5, HARD_CAP + 1):
        for _ in range(5):
            n1 = rng.randint(1, ground_size - 1)
            m = direct_sum(rng.choice(enumerate_connected(n1)).sig,
                           rng.choice(enumerate_connected(ground_size - n1)).sig)
            assert m.ground_size == ground_size
            assert _verdict_without_a_draw(m, m.rank)
            assert oracle_reference.basis_exchange(m.bases)


def test_basis_exchange_equals_all_pairs_reference_on_direct_sums():
    # seeded direct sums with ground size 5 to HARD_CAP, some with the
    # non-matroid FAKE as a summand: the reference's verdict, no draw
    rng = random.Random(912)

    def pick(n):
        return rng.choice(enumerate_connected(n)).sig

    verdicts = Counter()
    for ground_size in range(5, HARD_CAP + 1):
        for _ in range(6):
            n1 = rng.randint(1, ground_size - 1)
            for m in (direct_sum(pick(n1), pick(ground_size - n1)),
                      direct_sum(FAKE, pick(ground_size - 4))):
                assert m.ground_size == ground_size
                verdict = _verdict_without_a_draw(m, rng.getrandbits(32))
                assert verdict == oracle_reference.basis_exchange(m.bases), m
                verdicts[verdict] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts


@pytest.mark.parametrize("check", [minor_check, check_basis_exchange])
def test_checks_refuse_a_mask_outside_the_ground_set(check):
    for m, bad in ((MatroidSignature(2, 1, b"\x04"), 4),
                   (MatroidSignature(3, 1, (1, 300)), 300),
                   (MatroidSignature(3, 1, (-1, 1)), -1)):
        with pytest.raises(ValueError, match=f"basis mask {bad} lies outside the ground set "
                                             f"of size {m.ground_size}"):
            check(m)


def test_direct_sum_and_basis_exchange_refuse_past_the_cap():
    sevens = enumerate_connected(7)
    with pytest.raises(ValueError, match=f"direct_sum capped at ground size {HARD_CAP}"):
        direct_sum(sevens[0].sig, sevens[-1].sig)
    nine = MatroidSignature(9, 1, tuple(1 << i for i in range(9)))  # U_{1,9}
    with pytest.raises(ValueError, match=f"check_basis_exchange capped at ground size {HARD_CAP}"):
        check_basis_exchange(nine, random.Random(9))


def test_concurrent_cold_basis_exchange_matches_serial(cold_memos):
    # sixteen threads, switching every microsecond, check the same n = 8
    # entries from a cold lattice table: each must read what a lone caller reads
    sigs = [e.sig for e in random.Random(16).sample(enumerate_connected(HARD_CAP), 40)]

    def run(seed):
        rng = random.Random(seed)
        return [check_basis_exchange(m, rng) for m in sigs], rng.getstate()

    serial = [run(seed) for seed in range(16)]
    cold_memos()
    barrier = threading.Barrier(16)
    results = [None] * 16

    def work(seed):
        barrier.wait(timeout=60)
        results[seed] = run(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == serial


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
    # sorted bytes, one per basis, like the catalog's signatures
    assert s.bases == bytes(sorted(a | b << 2 for a in U12.bases for b in U23.bases))
