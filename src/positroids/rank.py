"""Rank queries certified by non-crossing partitions.

Everything here reduces rank computations to counting arrows of the
decorated permutation. A CW-arrow is the cyclic interval [x, pi(x)], a
CCW-arrow is [x, pi^{-1}(x)]. For a cyclic interval T = [a, b]:

    rank([a,b]) = |I_a ∩ [a,b]| = |[a,b]| - cw([a,b])
    minelts((b,a)) = ccw((b,a)) = d - rank([a,b])

where minelts is the fewest elements a basis can have in the open gap
(b, a). For a union E of s intervals, every non-crossing partition of the
interval indices gives an upper bound on rank(E), and the minimum over all
of them is exact. rank() enumerates the partitions (certificate included),
rank_dp() gets the same value by dynamic programming in O(s^3).

Arrow counts come from the positroid's own ArrowTable (see
positroids.positroid): a query reads one O(n) prefix row per anchor where
one of its gaps starts, built on first use and kept on the Positroid, so a
single-interval query costs O(n) and repeated queries reuse the rows.
rank() and rank_dp() answer queries on positroids with loops or coloops on
the reduction, which is likewise computed once and kept on the Positroid;
witness_basis (positroids.morph) works on the positroid itself. Nothing is
cached at module level, so memory is freed with the positroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add, sub
from typing import Iterable, Iterator

from .cyclic import CyclicInterval, IntervalDecomposition, _checked_subset, decompose, open_interval
from .errors import EnumerationLimitError, ValidationError
from .positroid import ArrowTable, Positroid

__all__ = [
    "DEFAULT_PARTITION_LIMIT",
    "NonCrossingPartition",
    "enumerate_ncp",
    "ArrowTable",
    "arrow_table",
    "cw_count",
    "ccw_count",
    "min_elements",
    "rank_of_interval",
    "natural_bound",
    "bound_for_partition",
    "RankCertificate",
    "rank",
    "rank_dp",
]

DEFAULT_PARTITION_LIMIT = 16


@dataclass(frozen=True)
class NonCrossingPartition:
    """A partition of {1..s} with no two blocks interleaving cyclically.

    Canonical form: every block is an ascending tuple and blocks are sorted
    by their smallest element. Use from_blocks() to canonicalize arbitrary
    input. s = 0 carries the single empty partition.
    """

    s: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        owner: dict[int, int] = {}
        for bi, block in enumerate(self.blocks):
            if not block:
                raise ValidationError("empty block")
            if list(block) != sorted(block):
                raise ValidationError(f"block {block} is not ascending")
            for x in block:
                if not 1 <= x <= self.s:
                    raise ValidationError(f"block element {x} outside 1..{self.s}")
                if x in owner:
                    raise ValidationError(f"element {x} appears in two blocks")
                owner[x] = bi
        if len(owner) != self.s:
            missing = sorted(set(range(1, self.s + 1)) - owner.keys())
            raise ValidationError(f"elements {missing} not covered")
        firsts = [b[0] for b in self.blocks]
        if firsts != sorted(firsts):
            raise ValidationError("blocks must be sorted by smallest element")
        # single left-to-right sweep; each block must sit on top of the stack
        # between its min and its max, otherwise two blocks interleave
        last = {b[-1]: bi for bi, b in enumerate(self.blocks)}
        first = {b[0]: bi for bi, b in enumerate(self.blocks)}
        stack: list[int] = []
        for x in range(1, self.s + 1):
            if x in first:
                stack.append(first[x])
            if not stack or stack[-1] != owner[x]:
                raise ValidationError(f"blocks cross near element {x}")
            if x in last:
                stack.pop()

    @classmethod
    def from_blocks(cls, s: int, blocks: Iterable[Iterable[int]]) -> "NonCrossingPartition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        return cls(s, canon)

    def __str__(self) -> str:
        inner = ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return "{" + inner + "}"


def _raw_ncps(elems: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Non-crossing partitions of an ascending element tuple, as raw blocks.

    The block containing the smallest element is chosen first (growing by
    size, then lexicographically); the runs between its members partition
    independently. Blocks come out sorted by smallest element, so results
    are already canonical. Streams in O(s^2) memory.
    """
    if not elems:
        yield ()
        return
    head, rest = elems[0], elems[1:]
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            block = (head,) + extra
            segments: list[tuple[int, ...]] = []
            cut = block + (None,)
            j = 0
            for t in range(len(extra) + 1):
                seg = []
                while j < len(rest) and (cut[t + 1] is None or rest[j] < cut[t + 1]):
                    if rest[j] > cut[t]:
                        seg.append(rest[j])
                    j += 1
                segments.append(tuple(seg))
            for tail in _segment_products(tuple(segments), 0):
                yield (block,) + tail


def _segment_products(segments: tuple[tuple[int, ...], ...], i: int) -> Iterator[tuple]:
    if i == len(segments):
        yield ()
        return
    for head in _raw_ncps(segments[i]):
        for tail in _segment_products(segments, i + 1):
            yield head + tail


def enumerate_ncp(s: int, *, limit: int = DEFAULT_PARTITION_LIMIT) -> Iterator[NonCrossingPartition]:
    """All non-crossing partitions of {1..s}; Catalan(s) of them in total.

    Deterministic order (first block grows from {1} upward). s = 0 yields
    the single empty partition. Guarded by `limit` since the count explodes.
    """
    if s < 0:
        raise ValidationError("s must be nonnegative")
    if s > limit:
        raise EnumerationLimitError(
            f"enumerating non-crossing partitions of {s} intervals exceeds the "
            f"limit {limit}; rank_dp computes the rank without a certificate"
        )
    for raw in _raw_ncps(tuple(range(1, s + 1))):
        yield NonCrossingPartition(s, raw)


def arrow_table(P: Positroid) -> ArrowTable:
    """The arrow counts of P; their rows are built lazily and kept on P."""
    return P._arrows


def cw_count(P: Positroid, T: CyclicInterval) -> int:
    """Number of CW-arrows [x, pi(x)] contained in T."""
    return arrow_table(P).cw(T)


def ccw_count(P: Positroid, T: CyclicInterval) -> int:
    """Number of CCW-arrows [x, pi^{-1}(x)] contained in T."""
    return arrow_table(P).ccw(T)


def rank_of_interval(P: Positroid, a: int, b: int) -> int:
    """rank([a, b]), as the necklace intersection |I_a ∩ [a,b]|.

    Equals |[a,b]| - cw([a,b]); the tests check that identity everywhere.
    """
    iv = CyclicInterval.span(a, b, P.n)
    return len(P.necklace.at(a) & iv.members)


def min_elements(P: Positroid, b: int, a: int) -> int:
    """Fewest elements a basis can have in the open gap (b, a).

    Equals ccw((b, a)) and also d - rank([a,b]); the tests check both.
    """
    return ccw_count(P, open_interval(b, a, P.n))


def natural_bound(P: Positroid, E: IntervalDecomposition) -> int:
    """d minus the sum of ccw over the gaps of E; 0 when E is empty."""
    if E.s == 0:
        return 0
    table = arrow_table(P)
    return P.d - sum(table.ccw(g) for g in E.gaps())


def bound_for_partition(P: Positroid, E: IntervalDecomposition, ncp: NonCrossingPartition) -> int:
    """Upper bound nbd(E, Π): sum of natural bounds over Π's blocks of intervals."""
    if ncp.s != E.s:
        raise ValidationError(f"partition of {ncp.s} blocks a decomposition with s = {E.s}")
    return sum(natural_bound(P, E.restrict(block)) for block in ncp.blocks)


@dataclass(frozen=True)
class RankCertificate:
    """rank(E) together with the non-crossing partition that attains it.

    `partition` indexes the intervals of `decomposition` and attains the
    minimum; value = sum(per_block_bounds) + coloop_bonus. When the
    positroid has loops or coloops, the query is answered on the reduced
    (fixed-point-free, relabeled) positroid: `reduced` is then True,
    `decomposition` and `partition` refer to the relabeled ground set (see
    reduce() for the label map), and every element of E that is a coloop
    contributes 1 via coloop_bonus. all_bounds, present when requested,
    lists (partition, bound) for every non-crossing partition, sorted by
    block count then lexicographically.
    """

    value: int
    decomposition: IntervalDecomposition
    partition: NonCrossingPartition
    per_block_bounds: tuple[int, ...]
    coloop_bonus: int = 0
    reduced: bool = False
    all_bounds: tuple[tuple[NonCrossingPartition, int], ...] | None = None


def _gap_matrix(P: Positroid, decomp: IntervalDecomposition) -> list[list[int]]:
    """w[i][j] = ccw over the open gap from interval i's end to interval j's start.

    The gap (b, a) is the (a - b - 1) % n elements read from b + 1, so row i
    is one lookup per j into the ccw row anchored just after interval i.
    """
    table = arrow_table(P)
    n = decomp.n
    starts = [a for a, _ in decomp.intervals]
    w = []
    for _, b in decomp.intervals:
        row = table.ccw_row(b % n + 1)
        w.append([row[(a - b - 1) % n] for a in starts])
    return w


def _block_bound(block: tuple[int, ...], w: list[list[int]], d: int) -> int:
    acc = d
    for idx, t in enumerate(block):
        acc -= w[t - 1][block[(idx + 1) % len(block)] - 1]
    return acc


def _strip_fixed(P: Positroid, members: frozenset[int]) -> tuple[Positroid, frozenset[int], int]:
    """Map a rank query onto the loopless/coloopless reduction of P.

    Returns the reduced positroid, the relabeled query set, and the number
    of coloops of P inside the query (each worth one unit of rank). The
    caller has already checked members on P's own ground set.
    """
    reduced_P, relabel = P._reduced
    bonus = len(members & P.perm.black)
    image = frozenset(relabel[x] for x in members if x in relabel)
    return reduced_P, image, bonus


def rank(
    P: Positroid,
    E: Iterable[int],
    *,
    all_bounds: bool = False,
    limit: int = DEFAULT_PARTITION_LIMIT,
) -> RankCertificate:
    """rank(E) as the minimum of nbd(E, Π) over non-crossing partitions Π.

    Every Π is an upper bound and at least one is tight, so the minimum is
    the exact rank. The returned certificate carries the first optimal
    partition in enumeration order. Enumeration is capped at `limit`
    intervals (after reduction); past that use rank_dp, which needs no cap.
    """
    members = _checked_subset(E, P.n)
    bonus = 0
    reduced_flag = False
    if P.perm.fixed_points:
        P, members, bonus = _strip_fixed(P, members)
        reduced_flag = True
    decomp = decompose(members, P.n)
    s = decomp.s
    if s == 0:
        empty = NonCrossingPartition(0, ())
        return RankCertificate(
            value=bonus,
            decomposition=decomp,
            partition=empty,
            per_block_bounds=(),
            coloop_bonus=bonus,
            reduced=reduced_flag,
            all_bounds=((empty, 0),) if all_bounds else None,
        )
    if s > limit:
        raise EnumerationLimitError(
            f"E decomposes into {s} intervals, past the certificate limit {limit}; "
            f"rank_dp computes the value without enumerating partitions"
        )
    w = _gap_matrix(P, decomp)
    d = P.d
    best = 0
    best_raw: tuple[tuple[int, ...], ...] = ()
    collected: list[tuple[NonCrossingPartition, int]] = []
    for raw in _raw_ncps(tuple(range(1, s + 1))):
        bound = sum(_block_bound(block, w, d) for block in raw)
        if not best_raw or bound < best:
            best, best_raw = bound, raw
        if all_bounds:
            collected.append((NonCrossingPartition(s, raw), bound))
    partition = NonCrossingPartition(s, best_raw)
    per_block = tuple(_block_bound(block, w, d) for block in best_raw)
    if all_bounds:
        collected.sort(key=lambda pair: (len(pair[0].blocks), pair[0].blocks))
    return RankCertificate(
        value=best + bonus,
        decomposition=decomp,
        partition=partition,
        per_block_bounds=per_block,
        coloop_bonus=bonus,
        reduced=reduced_flag,
        all_bounds=tuple(collected) if all_bounds else None,
    )


def rank_dp(P: Positroid, E: Iterable[int]) -> int:
    """Same value as rank(...).value, in O(s^3) without touching partitions.

    A non-crossing partition decomposes like a polygon triangulation: the
    block containing interval u is a chain u = j_0 < j_1 < ... < j_k, the
    runs strictly between consecutive chain nodes partition independently,
    and the block pays d minus the gap weights along its cyclic closure.
    The tables are filled bottom-up, with no recursion, so any s runs.
    """
    members = _checked_subset(E, P.n)
    bonus = 0
    if P.perm.fixed_points:
        P, members, bonus = _strip_fixed(P, members)
    decomp = decompose(members, P.n)
    s = decomp.s
    if s == 0:
        return bonus
    # into[j - 1][i - 1] = w[i - 1][j - 1], the gap from interval i's end
    # to interval j's start, so every DP term below reads row slices
    into = list(zip(*_gap_matrix(P, decomp)))
    d = P.d
    # seg_to[v][u] = the least total bound over the non-crossing partitions
    # of intervals u..v, 0 when u > v. Filled for u from s down to 1: an
    # entry reads only ranges that start after u and chain values left of it.
    seg_to = [[0] * (s + 2) for _ in range(s + 1)]
    for u in range(s, 0, -1):
        # chain[j]: cheapest open chain of u's block from u to its current
        # endpoint j, the runs between chain nodes already partitioned; the
        # block's own d and closing edge into u are paid by seg
        chain = [0] * (s + 1)
        closing = into[u - 1]
        for j in range(u, s + 1):
            if j > u:
                steps = map(sub, chain[u:j], into[j - 1][u - 1:j - 1])
                chain[j] = min(map(add, steps, seg_to[j - 1][u + 1:j + 1]))
            blocks = map(sub, chain[u:j + 1], closing[u - 1:j])
            seg_to[j][u] = d + min(map(add, blocks, seg_to[j][u + 1:j + 2]))
    return seg_to[s][1] + bonus
