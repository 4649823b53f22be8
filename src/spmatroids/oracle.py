"""Brute-force ground truth by exhaustive basis-set generation.

Series-parallel matroids on labeled ground sets are built by series and
parallel extensions applied to their basis sets (Oxley, *Matroid Theory*,
2nd ed., section 5.4).  The catalog for [n] comes from the one for [n - 1]
by reverse search (Avis and Fukuda, 1996): label n is added in series or in
parallel at one element of each series or parallel class, and each result
is relabelled by swapping n with every label above the other elements that
lie in a series or parallel pair.  This reaches each matroid exactly once,
so nothing is deduplicated.  A parent's series and parallel classes come
from two masks per element, each one byte-level filter and fold of its
bases, and the pairs and simplicity of each extension follow from them.
A matroid is its sorted basis masks, held in every signature built here
as `bytes`, one byte per basis: `HARD_CAP` <= 8 bounds every ground set,
direct sums included, so each mask is below 256 and its byte exact, and a
level costs one byte per basis instead of a pointer to an int.  Label n is
the top bit, above every mask of the parent, so an extension writes its
bases already in order and only a relabelled copy is sorted, after one
`bytes.translate` through a 256-byte table.  Counts per (ground size,
rank) are read off each catalog level in one pass; the direct-sum families
follow from them by a labelled product.
The excluded-minor test works on byte-per-subset tables: one integer holds
a byte for every subset of the ground set, so the rank table and the minor
test take a few shifts per element instead of a Python loop over subsets.
Both minors are one flat count, a set of rank t - 1 under c flats of rank
t: U_{2,4} is (t, c) = (r - 1, 4), and M(K4) is (r - 2, 6) once U_{2,4} is
excluded, since the matroid is then binary (Tutte) and each rank-3
contraction simplifies into the Fano plane, whose six-point restrictions
are M(K4).
The basis-exchange check reads the same independence lattice and rank
table and is exact: a nonempty family of equal-size bases is a matroid's
iff r(cl(I)) = |I| for every independent I, with cl(I) the elements that
lie in I or make it dependent; cl is one shift, mask and OR per element,
and r(cl(s)) for every subset s one `bytes.translate`.  No pair of bases
is visited and nothing is drawn at random.
Everything here is independent of the closed formulas, which is
the point: the two routes validate each other.
"""

from __future__ import annotations

import random
from functools import cache, reduce
from math import comb
from operator import and_, itemgetter, or_
from typing import Iterator, NamedTuple, Sequence

HARD_CAP = 8  # at most 8, so that every basis mask built here fits a byte
FAMILIES = ("C", "E", "A", "S")  # the families count_rows counts, in report order


class MatroidSignature(NamedTuple):
    """Canonical matroid on ground set {1..ground_size}: the sorted basis masks.

    Bit i of a mask stands for element i + 1.  Every signature built here
    holds `bytes`, one byte per mask, exact because ground sets stop at
    `HARD_CAP` <= 8; the readers take any sequence of int masks.  Between
    signatures whose bases have the same type, signature equality is
    matroid equality.
    """

    ground_size: int
    rank: int
    bases: bytes | tuple[int, ...]


class CatalogEntry(NamedTuple):
    sig: MatroidSignature
    simple: bool


# `bytes.translate` tables over byte masks, built on first use and kept:
# _label_tables(e) gives the masks with e and the masks without e (as
# deletion sets) and the table that adds e; _swap_table(i, j) swaps i and
# j, so on masks with e and without f it replaces e by f.  They depend on
# the labels alone.
@cache
def _label_tables(e: int) -> tuple[bytes, bytes, bytes]:
    bit = 1 << (e - 1)
    return (
        bytes(b for b in range(256) if b & bit),
        bytes(b for b in range(256) if not b & bit),
        bytes(b | bit for b in range(256)),
    )


@cache
def _swap_table(i: int, j: int) -> bytes:
    """The `bytes.translate` table that sends every byte mask to the same
    mask with labels i and j swapped."""
    swap = 1 << (i - 1) | 1 << (j - 1)
    return bytes(b ^ swap if 0 < b & swap < swap else b for b in range(256))


def parallel_extension(bases: Sequence[int], e: int, f: int) -> bytes:
    """Add label f parallel to element e: the bases B and B - e + f for e in B.

    `bases` is any sequence of masks and the result is `bytes`, one byte
    per basis, so f <= 8.  If `bases` is sorted and f lies above every
    element, so is the result: the new masks all hold f and so follow every
    old one, and taking the fixed bit e away from masks that all hold it
    keeps their order.  The map B -> B - e + f is injective, so no basis is
    repeated.  The new masks are one C-level `bytes.translate` through
    kept 256-byte tables, which drops the masks without e and swaps e and
    f in the rest, none of which holds f.
    """
    bases = bytes(bases)
    return bases + bases.translate(_swap_table(e, f), _label_tables(e)[1])


def series_extension(bases: Sequence[int], e: int, f: int) -> bytes:
    """Add label f in series with element e: the bases B + e for e not in B,
    and B + f.

    `bases` is any sequence of masks and the result is `bytes`, one byte
    per basis, so f <= 8.  If `bases` is sorted and f lies above every
    element, so is the result: the first group lies below f and the second
    above it, and adding a fixed bit that no mask of a group holds keeps its
    order.  Both maps are injective and the groups disjoint, so no basis is
    repeated.  Each group is one C-level `bytes.translate` through kept
    256-byte tables.
    """
    with_e, _, add_e = _label_tables(e)
    bases = bytes(bases)
    return bases.translate(add_e, with_e) + bases.translate(_label_tables(f)[2])


def _partners(bases: bytes, n: int) -> tuple[list[int], list[int]]:
    """Parallel and series partners of each element of [n], as masks, for
    the `bytes` bases of a matroid without loops or coloops.

    j is parallel to i iff no basis holds both, so par[i] is the complement
    of the union of the bases that hold i; and j is in series with i iff
    every basis that avoids i holds j, so ser[i] is the intersection of the
    bases that avoid i.  Per element, each is one C-level `bytes.translate`
    that deletes the other bases (kept 256-byte sets) and one
    `functools.reduce` over the rest.
    """
    full = (1 << n) - 1
    par, ser = [], []
    for i in range(1, n + 1):
        with_i, without_i, _ = _label_tables(i)
        par.append(full ^ reduce(or_, bases.translate(None, without_i), 0))
        ser.append(reduce(and_, bases.translate(None, with_i), full))
    return par, ser


def _unions(masks: list[int]) -> tuple[int, list[int]]:
    """The union of all masks, and for each e the union of every mask but
    masks[e], from one prefix and one suffix pass."""
    others = []
    below = 0
    for mask in masks:
        others.append(below)
        below |= mask
    above = 0
    for e in range(len(masks) - 1, -1, -1):
        others[e] |= above
        above |= masks[e]
    return below, others


def _reverse_search(parents, n: int) -> Iterator[CatalogEntry]:
    """Every series-parallel matroid on [n], n >= 3, exactly once, from the
    catalog of [n - 1].

    Label n is added parallel to one element of each parallel class of the
    parent and in series with one element of each series class.  In a
    connected matroid on at least three elements n is never in both a
    parallel and a series pair, and the parent is M with n deleted or
    contracted, so each M in which n lies in some series or parallel pair
    comes once.  Every other matroid is a relabelling: with sp(M) the
    elements in some series or parallel pair, n is swapped with each label f
    above every element of sp(M) - n, and the result M'' is reached only
    from f = max sp(M''), since every connected series-parallel matroid on
    at least two elements has a series or parallel pair.  Relabelling keeps
    rank and simplicity.

    The pairs of M follow from the parent's.  Adding n parallel to e joins
    n to e's parallel class and breaks every series pair at e (a cocircuit
    through e gains n); adding n in series is the dual.  A connected matroid
    on at least two elements is simple iff it has no parallel pair.

    Nothing is sorted but the relabelled copies.  The parent's bases are
    sorted bytes and label n is the top bit, above every parent mask, so
    `parallel_extension` and `series_extension` write M's bases in order,
    each once.  A swap of n with f reorders the masks, so each copy is one
    `bytes.translate` through a kept 256-byte table (`_swap_table`), and
    sorted.
    """
    relabel = [_swap_table(f + 1, n) for f in range(n - 1)]  # labels n and f + 1 swapped
    for (_, rank, bases), _ in parents:
        par, ser = _partners(bases, n - 1)
        par_sp, par_others = _unions(par)
        ser_sp, ser_others = _unions(ser)
        grown = []  # (M, its rank, sp(M) - n, whether M is simple)
        for e in range(n - 1):
            eb = 1 << e
            if not par[e] & (eb - 1):  # e is the least of its parallel class
                m = parallel_extension(bases, e + 1, n)
                grown.append((m, rank, par_sp | eb | ser_others[e], False))
            if not ser[e] & (eb - 1):
                m = series_extension(bases, e + 1, n)
                left = par_others[e] & ~eb  # the parallel pairs that survive without e
                grown.append((m, rank + 1, ser_sp | eb | left, not left))
        for m, rank_m, sp, simple in grown:
            for f in range(sp.bit_length(), n - 1):
                copy = bytes(sorted(m.translate(relabel[f])))
                yield CatalogEntry(MatroidSignature(n, rank_m, copy), simple)
            yield CatalogEntry(MatroidSignature(n, rank_m, m), simple)


_CATALOG: dict[int, tuple[CatalogEntry, ...]] = {}


def enumerate_connected(n: int) -> tuple[CatalogEntry, ...]:
    """Catalog of all connected series-parallel matroids on ground set
    {1..n}, sorted by (rank, bases) and cached per n.  Each signature's
    bases are `bytes`, one byte per mask, which `HARD_CAP` <= 8 keeps exact.

    n = 1 gives the loop and the coloop, and n = 2 gives U_{1,2}.  For
    n >= 3 the catalog is built from the one for n - 1 by reverse search
    (`_reverse_search`), which emits each matroid exactly once, so no
    deduplication is needed, and writes each one's bases already sorted.
    Each parent's series and parallel classes come from two masks per
    element, each a byte-level filter and fold of its bases (`_partners`),
    and each new matroid's pairs and simplicity follow from its parent's.
    The level is then sorted in place by signature, which compares bases
    as bytes, by memcmp.
    """
    if n < 1:
        raise ValueError("enumerate_connected needs n >= 1")
    if n > HARD_CAP:
        raise ValueError(f"enumeration capped at n = {HARD_CAP}, got {n}")
    if n in _CATALOG:
        return _CATALOG[n]
    if n == 1:
        entries = [
            CatalogEntry(MatroidSignature(1, 0, b"\x00"), False),  # single loop
            CatalogEntry(MatroidSignature(1, 1, b"\x01"), True),  # single coloop
        ]
    elif n == 2:
        entries = [CatalogEntry(MatroidSignature(2, 1, b"\x01\x02"), False)]  # U_{1,2}
    else:
        entries = list(_reverse_search(enumerate_connected(n - 1), n))
        # within one n the ground sizes are equal and the bases unique, so
        # the signature order is (rank, bases)
        entries.sort(key=itemgetter(0))
    _CATALOG[n] = tuple(entries)
    return _CATALOG[n]


@cache
def _level_counts(n: int) -> tuple[list[int], list[int]]:
    """The catalog entries for [n] and its simple ones, by rank, from one
    walk of the level, cached per n."""
    every, simple = [0] * (n + 1), [0] * (n + 1)
    for (_, rank, _), is_simple in enumerate_connected(n):
        every[rank] += 1
        simple[rank] += is_simple
    return every, simple


def count_rows(family: str, max_n: int) -> list[list[int]]:
    """Counts by rank on [n] for n = 0 .. max_n of family C, E, A or S.

    C counts every catalog entry by rank and E only the simple ones; row 0
    of both is [0].  Both come from one walk of each catalog level
    (`_level_counts`), shared by all four families.  A and S count direct
    sums of C and of E matroids, so they follow by the labelled product on
    the block that holds label n:

        A_0 = 1,  A_n = sum_{m=1}^{n} C(n-1, m-1) C_m A_{n-m}

    where C_m A_{n-m} multiplies two rank polynomials; S is the same sum
    over E.  n = 0 gives the empty matroid, counted once at rank 0.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown oracle family {family!r}; expected one of {FAMILIES}")
    if max_n < 0:
        raise ValueError(f"count_rows needs max_n >= 0, got {max_n}")
    if family in ("A", "S"):
        blocks = count_rows("C" if family == "A" else "E", max_n)
        rows = [[1]]
        for n in range(1, max_n + 1):
            row = [0] * (n + 1)
            for m in range(1, n + 1):
                weight = comb(n - 1, m - 1)
                for i, b in enumerate(blocks[m]):
                    for j, r in enumerate(rows[n - m]):
                        row[i + j] += weight * b * r
            rows.append(row)
        return rows
    column = 0 if family == "C" else 1
    return [[0]] + [list(_level_counts(n)[column]) for n in range(1, max_n + 1)]


def direct_sum(m1: MatroidSignature, m2: MatroidSignature) -> MatroidSignature:
    """Direct sum: bases are unions of one basis from each summand, as sorted
    `bytes`, so the summands may hold at most `HARD_CAP` elements together."""
    n = m1.ground_size + m2.ground_size
    if n > HARD_CAP:
        raise ValueError(f"direct_sum capped at ground size {HARD_CAP}, got {n}")
    shift = m1.ground_size
    bases = bytes(sorted(b1 | (b2 << shift) for b1 in m1.bases for b2 in m2.bases))
    return MatroidSignature(n, m1.rank + m2.rank, bases)


# ---------------------------------------------------------------------------
# excluded-minor characterization and basis exchange, on the subset lattice
# ---------------------------------------------------------------------------

# the `bytes.translate` table from each byte to its bit length
_BIT_LENGTH = bytes(b.bit_length() for b in range(256))


@cache
def _lattice(n: int) -> tuple[list[tuple[int, int, int]], int, int, int]:
    """The subset lattice of [n] as byte masks, built on first use per n.

    A lattice value is one integer with a byte per subset mask s, at bits
    8s to 8s + 7, so one shift by 8 << i moves every subset's byte onto the
    subset with or without element i.  steps holds one triple
    (8 << i, without, add) per element i: without is 0xFF and add is 2^i
    at the subsets without i, and both are 0 at those with i.  low is
    2^(|s| - 1) at every nonempty s, and ones is 1 and labels is s at
    every s.
    """
    ones = int.from_bytes(b"\x01" * (1 << n), "little")
    steps = []
    for i in range(n):
        without = int.from_bytes((b"\xff" * (1 << i) + bytes(1 << i)) * (1 << (n - 1 - i)), "little")
        steps.append((8 << i, without, without & ones << i))
    low = int.from_bytes(bytes((1 << s.bit_count()) >> 1 for s in range(1 << n)), "little")
    labels = int.from_bytes(bytes(range(1 << n)), "little")
    return steps, low, ones, labels


def _rank_lattice(m: MatroidSignature) -> tuple[int, bytes]:
    """The independent sets of m, as a lattice value, and the rank of every
    subset, indexed by mask, from whole-lattice integer ops.

    The bases are marked 0xFF and closed downward, one shift per element:
    a subset is marked iff it lies in a basis, that is iff it is
    independent, and this marking is the lattice value returned.  Each
    independent nonempty I then gets the byte 2^(|I| - 1), and an upward
    closure ORs into every s the bytes of the independent sets inside it.
    Bit k - 1 of the byte at s is thus set iff s holds an independent k-set,
    so the rank of s, the size of its largest independent subset, is the
    byte's bit length.  Neither the rank field nor any order of the bases is
    read.  The rank table is `bytes`, one rank per subset.  A basis mask
    outside the ground set is refused with a `ValueError`.
    """
    n = m.ground_size
    steps, low, _, _ = _lattice(n)
    size = 1 << n
    marks = bytearray(size)
    try:
        # bytes() refuses a mask outside 0..255, and marks[b] one at or above size
        for b in bytes(m.bases):
            marks[b] = 255
    except (ValueError, IndexError):
        bad = next(b for b in m.bases if not 0 <= b < size)
        raise ValueError(f"basis mask {bad} lies outside the ground set of size {n}") from None
    indep = int.from_bytes(marks, "little")
    for shift, without, _ in steps:
        indep |= indep >> shift & without
    sizes = indep & low
    for shift, without, _ in steps:
        sizes |= (sizes & without) << shift
    return indep, sizes.to_bytes(size, "little").translate(_BIT_LENGTH)


@cache
def _marking(rank: int, byte: int) -> bytes:
    # translation table sending rank to byte and every other value to 0
    return bytes(rank) + bytes((byte,)) + bytes(255 - rank)


def _in_many_flats(n: int, rk: bytes, t: int, c: int) -> bool:
    """True iff some set of rank t - 1 lies in at least c flats of rank t.

    Such a set X holds an independent K of t - 1 elements with the same
    closure, and the rank-t flats F above X are those above K: the sets
    F - cl(K) are the points of M/K, its rank-1 flats, no two parallel.

    Over the whole lattice at once: the rank-t sets are marked 1, and the
    flats among them are those with no one-larger superset of the same rank
    (one shift per element).  A superset sum, again one shift per element,
    counts the rank-t flats above every subset.  A byte never carries: the
    flats of one rank are an antichain, so at most C(8, 4) = 70 of them lie
    above a set, and 70 + 8 - c < 256.  The count reaches c iff the count
    plus 8 - c meets 0xF8.
    """
    if t < 1 or n < c:
        return False
    steps, _, ones, _ = _lattice(n)
    level = int.from_bytes(rk.translate(_marking(t, 1)), "little")
    below = int.from_bytes(rk.translate(_marking(t - 1, 0xF8)), "little")
    grown = 0
    for shift, without, _ in steps:
        grown |= level >> shift & without
    counts = level & ~grown
    for shift, without, _ in steps:
        counts += counts >> shift & without
    return (counts + (8 - c) * ones) & below != 0


def _has_u24_minor(n: int, rk: bytes) -> bool:
    """True iff some minor is U_{2,4}: iff some set of rank r - 2 lies in
    at least four hyperplanes.

    Each U_{2,4} minor is M/K restricted to four elements, with K
    independent and |K| = r - 2 (the reduction of `minor_check`), and M/K
    of rank 2 has one iff it has four points.
    """
    return _in_many_flats(n, rk, rk[-1] - 1, 4)


def _has_mk4_minor(n: int, rk: bytes) -> bool:
    """True iff some minor is M(K4), given that no minor is U_{2,4}
    (`minor_check` asks only after `_has_u24_minor`): iff some set of rank
    r - 3 lies in at least six flats of rank r - 2.

    Each M(K4) minor is M/K restricted to six elements, with K independent
    and |K| = r - 3.  With no U_{2,4} minor M/K is binary (Tutte, 1958), so
    its simplification, of rank 3, is a restriction of the Fano plane F7,
    and every six-point restriction of F7 is M(K4): M/K has an M(K4)
    minor iff it has six points.  Without the precondition the test is
    wrong: a four-point line plus two points off it has six points.
    """
    return _in_many_flats(n, rk, rk[-1] - 2, 6)


def minor_check(m: MatroidSignature) -> bool:
    """True iff the matroid has no minor equal to the rank-2 uniform matroid
    on four elements or to the cycle matroid of the complete graph on four
    vertices.  Every series-parallel matroid and every direct sum of them
    must pass.

    The search lowers the rank first.  Every minor N of M is M/I\\D with I
    independent, D coindependent and |I| = r(M) - r(N) (Oxley, *Matroid
    Theory*, 2nd ed., Lemma 3.3.2), so only contractions by independent
    sets of r(M) - 2 elements (for U_{2,4}) or r(M) - 3 elements (for
    M(K4)) are tried, and each minor is read off a restriction of one.
    """
    if m.ground_size > HARD_CAP:
        raise ValueError(f"minor_check capped at ground size {HARD_CAP}")
    n = m.ground_size
    rk = _rank_lattice(m)[1]
    return not _has_u24_minor(n, rk) and not _has_mk4_minor(n, rk)


def check_basis_exchange(m: MatroidSignature, rng: random.Random | None = None) -> bool:
    """True iff the bases are the basis family of a matroid, decided exactly
    on the subset lattice.

    A down-closed family is the independent sets of a matroid iff, inside
    every set, all maximal independent subsets have one size (Oxley,
    *Matroid Theory*, 2nd ed., ch. 1).  With cl(I) = I + {e : I + e is
    dependent}, that holds iff r(cl(I)) = |I| for every independent I: if
    some independent J larger than I had no e in J - I with I + e
    independent, J would lie in cl(I), so r(cl(I)) >= |J|, and in a matroid
    cl(I) is the closure of I, of rank |I|.  The bases of that matroid are
    the maximal members of the family, which are all of them iff they have
    one size.  So the check passes iff the bases are nonempty, each of the
    rank of the ground set, and r(cl(I)) = |I| for every independent I.  An
    empty basis sequence fails at once.

    The cost is that of `_rank_lattice` (which refuses a mask outside the
    ground set) and, per element, one shift, mask and OR that write cl(s)
    as the byte at every independent s (s itself at every dependent s).
    One C-level `bytes.translate` through the rank table then reads
    r(cl(s)) for every s, and the check is one comparison with the rank
    table.  No pair of bases is visited.

    `rng` is ignored and never drawn from, so its state is unchanged; it is
    accepted so that callers written for the seeded random spot check this
    exact test replaced keep working.
    """
    if m.ground_size > HARD_CAP:
        raise ValueError(f"check_basis_exchange capped at ground size {HARD_CAP}")
    bases = m.bases
    if not bases:
        return False
    n = m.ground_size
    indep, rk = _rank_lattice(m)
    ranks = rk + bytes(256 - len(rk))  # a translate table from masks to ranks
    if bytes(bases).translate(ranks).count(rk[-1]) != len(bases):
        return False  # bases of two sizes
    steps, _, _, closure = _lattice(n)
    for shift, _, add in steps:
        # 2^i at every independent s without i for which s + i is dependent
        closure |= (indep ^ indep >> shift) & add
    return closure.to_bytes(1 << n, "little").translate(ranks) == rk


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
        rendered = [_render_basis(b) for b in range(1 << n)].__getitem__
        for (_, rank, bases), simple in enumerate_connected(n):
            lines.append(f"{n} {rank} {int(simple)} {','.join(map(rendered, bases))}")
    return "\n".join(lines) + "\n"
