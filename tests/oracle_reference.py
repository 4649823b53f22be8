"""Reference routes for the oracle tests: the breadth-first closure and the
full excluded-minor search.

Before the reverse-search generator, `spmatroids.oracle` built every
series-parallel matroid on [n] by closing U_{1,2} on every label pair under
parallel and series extensions at every element with every absent label,
deduplicating by basis set.  It is slow (each matroid is reached many times
over every label subset) but obviously complete, so the tests keep it to
check the generator against.  `rank_of_subset` and `is_simple` are the
rescanning definitions the generator's one-pass `simple` flag replaces.

Before the sorted-tuple moves, `parallel_extension` and `series_extension`
took and returned a frozenset of basis masks, and the generator sorted each
result.  `set_parallel_extension` and `set_series_extension` keep those
moves to check the sorted-tuple ones against.

Before the byte-level filters, the oracle's `_partners` filled a cover and
a miss mask per element in one Python pass over the bases.  `partners`
keeps that pass to check the filter-and-fold one against.

Before the rank-lowering search, the excluded-minor test tried every
contraction set K outside every four- or six-element set T, over a rank
table built from the set of every submask of every basis.  `rank_table`,
`has_u24_minor` and `has_mk4_minor` keep that search to check the
oracle's against, and `k4_signature` is the M(K4) literal the tests feed
to both.

Before the hyperplane count, the oracle's U_{2,4} test contracted each
independent set K of r - 2 elements and looked for four points of M/K, no
two parallel.  `has_u24_minor_by_points` keeps that test, with its
`independent_sets` and `points`, to check the oracle's bit-parallel one
against.

Before the labelled product on the block that holds label n, the oracle's
A and S rows summed over every set partition of [n], convolving the C and
E block vectors once per partition.  `set_partitions` and `quasi_counts`
keep that sum, over C and E rows that `catalog_rows` recounts from the
catalog rank by rank.

`compositions` lists the compositions of an integer, for the literal
composition sums that the tests check the dynamic programs of combinum,
powerseries and verify against.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterator

from spmatroids.oracle import (
    MatroidSignature,
    enumerate_connected,
    parallel_extension,
    series_extension,
)


def set_parallel_extension(bases: frozenset[int], e: int, f: int) -> frozenset[int]:
    """Add label f parallel to element e: the bases B and B - e + f for e in B."""
    eb, fb = 1 << (e - 1), 1 << (f - 1)
    return bases | {(b ^ eb) | fb for b in bases if b & eb}


def set_series_extension(bases: frozenset[int], e: int, f: int) -> frozenset[int]:
    """Add label f in series with element e: the bases B + f, and B + e for e
    not in B."""
    eb, fb = 1 << (e - 1), 1 << (f - 1)
    return frozenset([b | fb for b in bases] + [b | eb for b in bases if not b & eb])


def partners(bases, n: int) -> tuple[list[int], list[int]]:
    """Parallel and series partners of each element of [n], as masks, from
    one pass over the bases of a matroid without loops or coloops.

    cover[i] is the union of the bases that contain i, and miss[i] the union
    of the complements of the bases that avoid i.  Then j is parallel to i
    iff no basis holds both, that is j is not in cover[i]; and j is in series
    with i iff every basis that avoids i holds j, that is j is not in miss[i].
    """
    full = (1 << n) - 1
    cover = [0] * n
    miss = [0] * n
    for b in bases:
        out = full ^ b
        for i in range(n):
            if b >> i & 1:
                cover[i] |= b
            else:
                miss[i] |= out
    return [full ^ c for c in cover], [full ^ m for m in miss]


def _ground(bases: frozenset[int]) -> int:
    # The union of the bases: the ground set of a matroid without loops.
    ground = 0
    for b in bases:
        ground |= b
    return ground


def extensions(bases: frozenset[int], label: int) -> list[frozenset[int]]:
    """All one-step parallel and series extensions by `label`, at each element.

    The ground set is read as the union of the bases, which is exact for the
    loopless matroids grown here.  Matroids with fewer than two elements are
    terminal and yield nothing: the closure starts from U_{1,2}, and a lone
    loop or coloop is a separate base case.
    """
    ground = _ground(bases)
    if ground >> (label - 1) & 1:
        raise ValueError(f"label {label} already used")
    if ground.bit_count() < 2:
        return []
    out = []
    for e in range(1, ground.bit_length() + 1):
        if ground >> (e - 1) & 1:
            out.append(frozenset(parallel_extension(tuple(bases), e, label)))
            out.append(frozenset(series_extension(tuple(bases), e, label)))
    return out


def rank_of_subset(m: MatroidSignature, subset_mask: int) -> int:
    """Matroid rank of a subset, as the best overlap with any basis."""
    return max((b & subset_mask).bit_count() for b in m.bases)


def is_simple(m: MatroidSignature) -> bool:
    """True iff the matroid has no loops and no parallel pairs."""
    n = m.ground_size
    singles = [rank_of_subset(m, 1 << i) for i in range(n)]
    if any(r == 0 for r in singles):
        return False
    for i, j in combinations(range(n), 2):
        if rank_of_subset(m, (1 << i) | (1 << j)) == 1:
            return False
    return True


def _grow(level, n: int) -> Iterator[frozenset[int]]:
    # Every extension of every matroid in `level` by every absent label of [n].
    for bases in level:
        ground = _ground(bases)
        for label in range(1, n + 1):
            if not ground >> (label - 1) & 1:
                yield from extensions(bases, label)


def closure(n: int, dedup_levels: bool = True) -> set[frozenset[int]]:
    """Basis sets of every series-parallel matroid on [n], n >= 2.

    Level m holds the matroids whose ground set is some m-subset of [n],
    starting from U_{1,2} on every label pair.  With dedup_levels=True each
    level is deduplicated by basis set; dedup_levels=False expands every
    extension sequence and deduplicates only at the end.
    """
    level = [frozenset((1 << a, 1 << b)) for a, b in combinations(range(n), 2)]
    for _size in range(2, n):
        level = set(_grow(level, n)) if dedup_levels else list(_grow(level, n))
    return set(level)


def submasks(mask: int) -> Iterator[int]:
    """Every submask of `mask`, in increasing order, from 0 to `mask`."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def rank_table(m: MatroidSignature) -> list[int]:
    """Rank of every subset, indexed by mask.

    A subset is independent iff it lies inside some basis; its rank is then
    its size, and a dependent subset has the largest rank of its one-smaller
    subsets.
    """
    independent = {sub for b in m.bases for sub in submasks(b)}
    n = m.ground_size
    rank = [0] * (1 << n)
    for s in range(1, 1 << n):
        if s in independent:
            rank[s] = s.bit_count()
        else:
            rank[s] = max(rank[s & ~(1 << e)] for e in range(n) if s >> e & 1)
    return rank


def has_u24_minor(n: int, rk: list[int]) -> bool:
    if n < 4:
        return False
    full = (1 << n) - 1
    for quad in combinations(range(n), 4):
        tmask = sum(1 << i for i in quad)
        pair_masks = [(1 << a) | (1 << b) for a, b in combinations(quad, 2)]
        for kmask in submasks(full & ~tmask):
            rk_k = rk[kmask]
            if rk[tmask | kmask] - rk_k != 2:
                continue
            if all(rk[p | kmask] - rk_k == 2 for p in pair_masks):
                return True
    return False


def independent_sets(n: int, rk: list[int], size: int) -> list[int]:
    """Masks of the independent sets with `size` elements."""
    return [
        k for k in map(sum, combinations([1 << i for i in range(n)], size))
        if rk[k] == size
    ]


def points(n: int, rk: list[int], k: int, most: int) -> list[int]:
    """One element of each parallel class of non-loops of M/K, as bit
    masks in increasing order, stopping once `most` are found.

    An element i is a non-loop of M/K iff rk(K + i) = rk(K) + 1, and two
    non-loops are parallel in M/K iff together they add only 1 to rk(K).
    """
    one, two = rk[k] + 1, rk[k] + 2
    found = []
    for i in range(n):
        ki = k | 1 << i
        if rk[ki] == one:
            for p in found:
                if rk[ki | p] != two:
                    break
            else:
                found.append(1 << i)
                if len(found) == most:
                    break
    return found


def has_u24_minor_by_points(n: int, rk: list[int]) -> bool:
    """True iff some minor is U_{2,4}.

    Each such minor is M/K restricted to four elements, with K independent
    and |K| = r - 2, so that M/K has rank 2.  The four elements are then
    non-loops of M/K, no two of them parallel, and any four such will do.
    """
    size = rk[-1] - 2
    if n < 4 or size < 0:
        return False
    return any(len(points(n, rk, k, 4)) == 4 for k in independent_sets(n, rk, size))


def has_mk4_minor(n: int, rk: list[int]) -> bool:
    """True iff some minor on six elements is M(K4), given that the matroid
    has no U_{2,4} minor (asked only after `has_u24_minor`).

    Under that precondition a rank-3 minor on six elements is M(K4) iff it
    has exactly 16 bases and no parallel pair.  Without it the test is
    wrong: a four-point line plus two points off it also has 16 bases and no
    parallel pair.
    """
    if n < 6:
        return False
    full = (1 << n) - 1
    for six in combinations(range(n), 6):
        tmask = sum(1 << i for i in six)
        for kmask in submasks(full & ~tmask):
            rk_k = rk[kmask]
            if rk[tmask | kmask] - rk_k != 3:
                continue
            bases = sum(
                1 for a, b, c in combinations(six, 3)
                if rk[1 << a | 1 << b | 1 << c | kmask] - rk_k == 3
            )
            if bases == 16 and all(
                rk[1 << a | 1 << b | kmask] - rk_k == 2 for a, b in combinations(six, 2)
            ):
                return True
    return False


def k4_signature() -> MatroidSignature:
    # M(K4) with edges 1=01, 2=02, 3=03, 4=12, 5=13, 6=23: its bases are the
    # 20 triples of edges except the four triangles 124, 135, 236 and 456.
    return MatroidSignature(6, 3, (
        0b000111, 0b001101, 0b001110, 0b010011, 0b010110, 0b011001, 0b011010, 0b011100,
        0b100011, 0b100101, 0b101001, 0b101010, 0b101100, 0b110001, 0b110010, 0b110100,
    ))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Yield all ordered tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def set_partitions(items: list) -> Iterator[list[list]]:
    """Yield all set partitions of `items` as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def catalog_rows(max_n: int) -> tuple[list[list[int]], list[list[int]]]:
    """(C, E) rows for n = 0 .. max_n: the catalog entries for [n] by rank,
    and the simple ones, each counted on its own; row 0 of both is [0]."""
    c, e = [[0]], [[0]]
    for n in range(1, max_n + 1):
        level = enumerate_connected(n)
        every = Counter(x.sig.rank for x in level)
        simple = Counter(x.sig.rank for x in level if x.simple)
        c.append([every[k] for k in range(n + 1)])
        e.append([simple[k] for k in range(n + 1)])
    return c, e


def quasi_counts(n: int) -> tuple[list[int], list[int]]:
    """(all, simple) quasi series-parallel counts on [n] by rank, summed over
    every set partition of [n] with a connected matroid on each block."""
    c, e = catalog_rows(n)
    a_row = [0] * (n + 1)
    s_row = [0] * (n + 1)
    for part in set_partitions(list(range(1, n + 1))):
        conv_a, conv_s = [1], [1]
        for block in part:
            conv_a = _convolve(conv_a, c[len(block)])
            conv_s = _convolve(conv_s, e[len(block)])
        a_row = [x + y for x, y in zip(a_row, conv_a)]
        s_row = [x + y for x, y in zip(s_row, conv_s)]
    return a_row, s_row
