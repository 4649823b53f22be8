"""Brute-force ground truth by exhaustive basis-set generation.

Series-parallel matroids on labeled ground sets are grown from U_{1,2} by
series and parallel extensions applied to their basis sets (Oxley, *Matroid
Theory*, 2nd ed., section 5.4), over every label subset.  A matroid is its
set of basis masks, so the catalog holds each one exactly once, and counts
per (ground size, rank) are read off it.  Everything here is independent of
the closed formulas, which is the point: the two routes validate each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator

HARD_CAP = 8
DEFAULT_MAX_N = 6


@dataclass(frozen=True)
class MatroidSignature:
    """Canonical matroid on ground set {1..ground_size}: the sorted basis masks.

    Bit i of a mask stands for element i + 1.  Signature equality is matroid
    equality.
    """

    ground_size: int
    rank: int
    bases: tuple[int, ...]


@dataclass(frozen=True)
class CatalogEntry:
    sig: MatroidSignature
    simple: bool


def parallel_extension(bases: frozenset[int], e: int, f: int) -> frozenset[int]:
    """Add label f parallel to element e: the bases B and B - e + f for e in B."""
    eb, fb = 1 << (e - 1), 1 << (f - 1)
    return bases | {(b ^ eb) | fb for b in bases if b & eb}


def series_extension(bases: frozenset[int], e: int, f: int) -> frozenset[int]:
    """Add label f in series with element e: the bases B + f, and B + e for e
    not in B."""
    eb, fb = 1 << (e - 1), 1 << (f - 1)
    return frozenset([b | fb for b in bases] + [b | eb for b in bases if not b & eb])


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
            out.append(parallel_extension(bases, e, label))
            out.append(series_extension(bases, e, label))
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


def _closure(n: int, dedup_levels: bool) -> set[frozenset[int]]:
    # Breadth-first closure over label subsets: level m holds the basis sets
    # of matroids whose ground set is some m-subset of [n], starting from
    # U_{1,2} on every label pair.
    level = [frozenset((1 << a, 1 << b)) for a, b in combinations(range(n), 2)]
    for _size in range(2, n):
        level = set(_grow(level, n)) if dedup_levels else list(_grow(level, n))
    return set(level)


_CATALOG: dict[int, tuple[CatalogEntry, ...]] = {}


def enumerate_connected(n: int, *, dedup_levels: bool = True) -> tuple[CatalogEntry, ...]:
    """Catalog of all series-parallel matroids on ground set {1..n}.

    For n >= 2 these are grown from U_{1,2} on every label pair by parallel
    and series extensions of basis sets at every element, with every absent
    label.  With dedup_levels=True (the default) each level is deduplicated
    by basis set, which is sound because both moves act on the matroid, not
    on one presentation of it; dedup_levels=False expands every extension
    sequence and deduplicates only at the end, as a slower certification of
    that optimization.
    """
    if n < 1:
        raise ValueError("enumerate_connected needs n >= 1")
    if n > HARD_CAP:
        raise ValueError(f"enumeration capped at n = {HARD_CAP}, got {n}")
    if dedup_levels and n in _CATALOG:
        return _CATALOG[n]
    if n == 1:
        sigs = {
            MatroidSignature(1, 0, (0,)),  # single loop
            MatroidSignature(1, 1, (1,)),  # single coloop
        }
    else:
        sigs = [
            MatroidSignature(n, next(iter(bases)).bit_count(), tuple(sorted(bases)))
            for bases in _closure(n, dedup_levels)
        ]
    entries = tuple(
        CatalogEntry(sig, is_simple(sig))
        for sig in sorted(sigs, key=lambda s: (s.rank, s.bases))
    )
    if dedup_levels:
        _CATALOG[n] = entries
    return entries


def connected_counts(n: int) -> tuple[list[int], list[int]]:
    """Per-rank counts over the catalog: (all connected, simple connected)."""
    c_row = [0] * (n + 1)
    e_row = [0] * (n + 1)
    for entry in enumerate_connected(n):
        c_row[entry.sig.rank] += 1
        if entry.simple:
            e_row[entry.sig.rank] += 1
    return c_row, e_row


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


@lru_cache(maxsize=None)
def _block_rank_vectors(b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # (all, simple-only) counts per rank for connected matroids on b elements
    all_v = [0] * (b + 1)
    simple_v = [0] * (b + 1)
    for entry in enumerate_connected(b):
        all_v[entry.sig.rank] += 1
        if entry.simple:
            simple_v[entry.sig.rank] += 1
    return tuple(all_v), tuple(simple_v)


def quasi_counts(n: int) -> tuple[list[int], list[int]]:
    """Counts of (all, simple) quasi series-parallel matroids on [n] by rank.

    Sums over set partitions of [n]: each block carries any connected
    series-parallel matroid on its elements (simple ones only for the
    simple count), and ranks add over blocks.  n = 0 gives the empty
    matroid, counted once at rank 0.
    """
    if n < 0:
        raise ValueError("quasi_counts needs n >= 0")
    if n > HARD_CAP:
        raise ValueError(f"enumeration capped at n = {HARD_CAP}, got {n}")
    if n == 0:
        return [1], [1]
    a_row = [0] * (n + 1)
    s_row = [0] * (n + 1)
    for part in set_partitions(list(range(1, n + 1))):
        conv_a = [1]
        conv_s = [1]
        for block in part:
            vec_a, vec_s = _block_rank_vectors(len(block))
            conv_a = _convolve(conv_a, vec_a)
            conv_s = _convolve(conv_s, vec_s)
        for r, v in enumerate(conv_a):
            a_row[r] += v
        for r, v in enumerate(conv_s):
            s_row[r] += v
    return a_row, s_row


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def direct_sum(m1: MatroidSignature, m2: MatroidSignature) -> MatroidSignature:
    """Direct sum: bases are unions of one basis from each summand."""
    n = m1.ground_size + m2.ground_size
    shift = m1.ground_size
    bases = tuple(
        sorted(b1 | (b2 << shift) for b1 in m1.bases for b2 in m2.bases)
    )
    return MatroidSignature(n, m1.rank + m2.rank, bases)


# ---------------------------------------------------------------------------
# excluded-minor characterization
# ---------------------------------------------------------------------------

def _k4_signature() -> MatroidSignature:
    # M(K4) with edges 1=01, 2=02, 3=03, 4=12, 5=13, 6=23: its bases are the
    # 20 triples of edges except the four triangles 124, 135, 236 and 456.
    return MatroidSignature(6, 3, (
        0b000111, 0b001101, 0b001110, 0b010011, 0b010110, 0b011001, 0b011010, 0b011100,
        0b100011, 0b100101, 0b101001, 0b101010, 0b101100, 0b110001, 0b110010, 0b110100,
    ))


def _canonical_bases(bases: tuple[int, ...], size: int) -> tuple[int, ...]:
    # Minimum over all ground-set bijections of the sorted basis masks.
    import itertools

    best = None
    for perm in itertools.permutations(range(size)):
        mapped = tuple(
            sorted(
                sum(1 << perm[i] for i in range(size) if b >> i & 1)
                for b in bases
            )
        )
        if best is None or mapped < best:
            best = mapped
    return best


_MK4_CANON: tuple[int, ...] | None = None


def _mk4_canon() -> tuple[int, ...]:
    global _MK4_CANON
    if _MK4_CANON is None:
        _MK4_CANON = _canonical_bases(_k4_signature().bases, 6)
    return _MK4_CANON


def _submasks(mask: int) -> Iterator[int]:
    """Every submask of `mask`, in increasing order, from 0 to `mask`."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _rank_table(m: MatroidSignature) -> list[int]:
    """Rank of every subset, indexed by mask.

    A subset is independent iff it lies inside some basis; its rank is then
    its size, and a dependent subset has the largest rank of its one-smaller
    subsets.
    """
    independent = {sub for b in m.bases for sub in _submasks(b)}
    n = m.ground_size
    rank = [0] * (1 << n)
    for s in range(1, 1 << n):
        if s in independent:
            rank[s] = s.bit_count()
        else:
            rank[s] = max(rank[s & ~(1 << e)] for e in range(n) if s >> e & 1)
    return rank


def _has_u24_minor(n: int, rk: list[int]) -> bool:
    if n < 4:
        return False
    full = (1 << n) - 1
    for quad in combinations(range(n), 4):
        tmask = sum(1 << i for i in quad)
        pair_masks = [(1 << a) | (1 << b) for a, b in combinations(quad, 2)]
        for kmask in _submasks(full & ~tmask):
            rk_k = rk[kmask]
            if rk[tmask | kmask] - rk_k != 2:
                continue
            if all(rk[p | kmask] - rk_k == 2 for p in pair_masks):
                return True
    return False


def _has_mk4_minor(n: int, rk: list[int]) -> bool:
    if n < 6:
        return False
    target = _mk4_canon()
    full = (1 << n) - 1
    for six in combinations(range(n), 6):
        tmask = sum(1 << i for i in six)
        for kmask in _submasks(full & ~tmask):
            rk_k = rk[kmask]
            if rk[tmask | kmask] - rk_k != 3:
                continue
            minor_bases = []
            for triple in combinations(six, 3):
                bmask = sum(1 << i for i in triple)
                if rk[bmask | kmask] - rk_k == 3:
                    minor_bases.append(bmask)
            if len(minor_bases) != 16:
                continue
            pos = {e: i for i, e in enumerate(six)}
            local = tuple(
                sorted(
                    sum(1 << pos[i] for i in range(n) if b >> i & 1)
                    for b in minor_bases
                )
            )
            if _canonical_bases(local, 6) == target:
                return True
    return False


def minor_check(m: MatroidSignature) -> bool:
    """True iff the matroid has no minor equal to the rank-2 uniform matroid
    on four elements or to the cycle matroid of the complete graph on four
    vertices.  Every series-parallel matroid and every direct sum of them
    must pass."""
    if m.ground_size > HARD_CAP:
        raise ValueError(f"minor_check capped at ground size {HARD_CAP}")
    n = m.ground_size
    rk = _rank_table(m)
    return not _has_u24_minor(n, rk) and not _has_mk4_minor(n, rk)


def check_basis_exchange(m: MatroidSignature, rng: random.Random, trials: int = 40) -> bool:
    """Randomized spot check of the basis-exchange axiom."""
    bases = m.bases
    base_set = set(bases)
    for _ in range(trials):
        b1 = rng.choice(bases)
        b2 = rng.choice(bases)
        out_bits = b1 & ~b2
        if not out_bits:
            continue
        candidates = [i for i in range(m.ground_size) if out_bits >> i & 1]
        e = rng.choice(candidates)
        stripped = b1 & ~(1 << e)
        in_bits = b2 & ~b1
        swaps = [i for i in range(m.ground_size) if in_bits >> i & 1]
        if not any(stripped | (1 << f) in base_set for f in swaps):
            return False
    return True


# ---------------------------------------------------------------------------
# catalog dump
# ---------------------------------------------------------------------------

def _render_basis(mask: int) -> str:
    labels = [str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
    return "".join(labels) if labels else "-"


def dump_catalog(max_n: int) -> str:
    """One matroid per line: `n rank simple_flag basis1,basis2,...`.

    Bases are sorted label strings; the empty basis renders as `-`.
    """
    lines = []
    for n in range(1, max_n + 1):
        for entry in enumerate_connected(n):
            bases = ",".join(_render_basis(b) for b in entry.sig.bases)
            lines.append(f"{n} {entry.sig.rank} {int(entry.simple)} {bases}")
    return "\n".join(lines) + "\n"
