"""Rank queries certified by non-crossing partitions.

Everything here reduces rank computations to counting arrows of the
decorated permutation. A CW-arrow is the cyclic interval [x, pi(x)], a
CCW-arrow is [x, pi^{-1}(x)]. For a cyclic interval T = [a, b], whose
complement is the open gap (b, a):

    rank([a,b]) = |I_a ∩ [a,b]| = |[a,b]| - cw([a,b]) = d - ccw((b,a))
    minelts((b,a)) = ccw((b,a)) = d - rank([a,b])

where minelts is the fewest elements a basis can have in the open gap
(b, a). For a union E of s intervals, every non-crossing partition of the
interval indices gives an upper bound on rank(E), and the minimum over all
of them is exact. rank() reads it, and a certificate by (bound, nodes) keys,
off one O(s^3) table, which builds its s^2/2 chain steps once and spends the
about s^3/3 remaining additions in C-level min/map; only all_bounds=True
lists partitions, by enumerate_ncp(), which never recurses.

A basis W is proved maximum without computing rank(E) by a primal-dual
certificate. W meets E in at most rank(E) elements, and a block meets W in
d less W's elements in the gaps it closes over; so a partition that closes
only over gaps W meets in their minimum, ccw, elements proves |W ∩ E| =
rank(E) (_maximal). Two partitions have closed-form bounds, all
singletons and one block (_closed_bounds), and W meeting E in either is
proved from those 2s gaps alone; otherwise _maximal counts the gaps in a
band of cyclic diagonals around the main one, widened only when the
band's tight gaps prove nothing. It proves every basis that the search
rank_dp and the witness share tries (positroids.morph._maximum_basis),
each first checked to be a basis by one Gale test, and align_basis's
precondition. The search tries the same sets for both; rank_dp's one
rule, _candidate_first, keeps the table for the interval counts where it
is the cheaper, and rank_dp falls back to it when the search proves
nothing; no witness or alignment builds it.

Every count above is one popcount on the stored necklace masks (Oh, 2011):
since |I_a| = d, ccw((b, a)) = d - |I_a ∩ [a, b]| = |I_a ∩ (b, a)|, the bits
of I_a's mask past [a, b], the mask written twice so that a wrapping arc is
one run of bits (_columns, the one builder of that form). The table's
users, rank(), rank_dp's fallback and bound_for_partition, build the
s x s gap matrix from s masks in O(s^2) shifts and popcounts (_gap_matrix);
natural_bound and _maximal make the same shifts and popcounts for the
diagonals they read only. Nothing is kept, neither per query nor per
anchor; the necklace itself is built once and kept on the Positroid. A
one-interval count (_gap_ccw) is I_a's mask less the arc [a, b]
(cyclic._arc), one popcount.
ArrowTable, the reference the popcounts are tested against, counts the
arrows off pi's images by prefix sums, one row per anchor that arrow_table
builds on demand; no query reads them.
rank_dp, the maximality proof and witness_basis (positroids.morph) work on
P itself, loops and coloops included: E's own intervals over P's own masks
and P's d (see _query). Only rank() reduces, to present its certificate on
reduce(P), which it builds on its first query of a positroid with fixed
points and keeps on the Positroid; E's coloops come back as coloop_bonus.
Nothing is cached at module level, so memory is freed with the positroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, compress
from operator import add, eq, rshift
from typing import Iterable, Iterator

from .cyclic import (
    CyclicInterval,
    IntervalDecomposition,
    _arc,
    _as_tuple,
    _check_element,
    _check_ground,
    _check_ints,
    _check_nonnegative,
    _check_type,
    _checked_subset,
    _mask,
    _mask_intervals,
    _shown,
    _unchecked,
)
from .errors import ContractViolationError, EnumerationLimitError, ValidationError
from .positroid import DecoratedPermutation, Positroid

__all__ = [
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

DEFAULT_PARTITION_LIMIT = 12


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
        _check_nonnegative(self.s, "s")
        _check_type(self.blocks, tuple, "blocks")
        owner: dict[int, int] = {}
        for bi, block in enumerate(self.blocks):
            _check_type(block, tuple, "each block")
            if not block:
                raise ValidationError("empty block")
            for x in block:
                _check_element(x, self.s)
                if x in owner:
                    raise ValidationError(f"element {x} appears in two blocks")
                owner[x] = bi
            if list(block) != sorted(block):
                raise ValidationError(f"block {block} is not ascending")
        if len(owner) != self.s:
            # named by the first and counted: listing them all costs O(s)
            first = next(x for x in range(1, self.s + 1) if x not in owner)
            raise ValidationError(
                f"element {first} not covered, {_shown(self.s - len(owner))} in all"
            )
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
        raw = [_as_tuple(b, "blocks") for b in _as_tuple(blocks, "blocks")]
        for block in raw:
            _check_ints(block, "block elements")
        # an empty block sorts first here and is rejected by the constructor
        canon = tuple(sorted((tuple(sorted(b)) for b in raw), key=lambda b: b[:1]))
        return cls(s, canon)

    def __str__(self) -> str:
        inner = ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return "{" + inner + "}"


def _heads(lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """The blocks of lo..hi that contain lo, by size and then lexicographically."""
    for k in range(hi - lo + 1):
        for extra in combinations(range(lo + 1, hi + 1), k):
            yield (lo,) + extra


def _runs(block: tuple[int, ...], hi: int) -> list[tuple[int, int]]:
    """The nonempty ranges between block's members and after its last one up to hi."""
    return [(x + 1, y - 1) for x, y in zip(block, block[1:] + (hi + 1,)) if y > x + 1]


def _raw_ncps(lo: int, hi: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Non-crossing partitions of the range lo..hi, as raw blocks.

    The head block, the one containing lo, is chosen first in _heads order;
    the runs between its members partition independently, the first run
    varying slowest: a depth-first walk over the ranges left, on an explicit
    stack. Blocks come out sorted by smallest element, so already canonical.
    """
    if lo > hi:
        yield ()
        return
    blocks: list[tuple[int, ...]] = []
    # frame k: block k's heads left to try, its range's end, the ranges after it
    frames = [(_heads(lo, hi), hi, [])]
    while frames:
        heads, end, rest = frames[-1]
        del blocks[len(frames) - 1:]
        block = next(heads, None)
        if block is None:
            frames.pop()
        elif pending := rest + _runs(block, end)[::-1]:
            blocks.append(block)
            a, b = pending.pop()
            frames.append((_heads(a, b), b, pending))
        else:
            yield (*blocks, block)


def enumerate_ncp(s: int, *, limit: int = DEFAULT_PARTITION_LIMIT) -> Iterator[NonCrossingPartition]:
    """All non-crossing partitions of {1..s}; Catalan(s) of them in total.

    Deterministic order (first block grows from {1} upward). s = 0 yields
    the single empty partition. Guarded by `limit` since the count explodes.
    _raw_ncps yields canonical non-crossing blocks, so none is re-checked.
    """
    _check_nonnegative(s, "s")
    _check_ints((limit,), "limit")
    if s > limit:
        raise EnumerationLimitError(
            f"enumerating non-crossing partitions of {_shown(s)} intervals exceeds the "
            f"limit {_shown(limit)}; rank and rank_dp answer without listing them"
        )
    for raw in _raw_ncps(1, s):
        yield _unchecked(NonCrossingPartition, s=s, blocks=raw)


class ArrowTable:
    """Per-anchor prefix counts of CCW-arrows, one O(n) row per anchor on demand.

    A CCW-arrow is the cyclic interval [x, pi^{-1}(x)], and a black fixed
    point is one of its own. Row `ccw_row(a)[L]` counts those whose ends lie
    in the L elements read from a with x before y reading from a: plain
    containment on every proper interval, and `row[n]` = |I_a| = d on the
    full circle. The gap (b, a) completing [a, b] is a prefix of the row
    anchored after b, so rank([a, b]) = d - ccw((b, a)) and cw([a, b]) =
    |[a, b]| - rank([a, b]). The arrow at x = pi(y) ends at y.

    A row is built when its anchor is first asked for and kept in the table,
    which the caller holds: arrow_table makes a new one per call.
    """

    def __init__(self, perm: DecoratedPermutation) -> None:
        _check_type(perm, DecoratedPermutation, "perm")
        self.perm = perm
        self._rows: dict[int, tuple[int, ...]] = {}

    def ccw_row(self, anchor: int) -> tuple[int, ...]:
        n = self.perm.n
        _check_element(anchor, n)
        row = self._rows.get(anchor)
        if row is None:
            black = self.perm.black
            bucket = [0] * (n + 1)  # bucket[p + 1]: arrows whose later end sits at position p
            for y, x in enumerate(self.perm.images, start=1):
                px = (x - anchor) % n
                if y == x:
                    if x in black:
                        bucket[px + 1] += 1
                else:
                    py = (y - anchor) % n
                    if px < py:
                        bucket[py + 1] += 1
            row = self._rows[anchor] = tuple(accumulate(bucket))
        return row


def arrow_table(P: Positroid) -> ArrowTable:
    """The arrow counts of P, a new table whose rows are built as they are
    read; P keeps none of them."""
    _check_type(P, Positroid, "P")
    return ArrowTable(P.perm)


def _gap_ccw(P: Positroid, b: int, a: int) -> int:
    """ccw((b, a)) = |I_a ∩ (b, a)|: I_a's bits off the arc [a, b], one popcount."""
    _check_element(b, P.n)
    _check_element(a, P.n)
    return (P.necklace.masks[a - 1] & ~_arc(a, b, P.n)).bit_count()


def cw_count(P: Positroid, T: CyclicInterval) -> int:
    """Number of CW-arrows [x, pi(x)] in T = [a, b], as |[a,b]| - d + ccw((b, a))."""
    _check_type(P, Positroid, "P")
    _check_type(T, CyclicInterval, "T")
    _check_ground(T.n, P.n)
    return 0 if T.is_empty else len(T) - P.d + _gap_ccw(P, T.b, T.a)


def ccw_count(P: Positroid, T: CyclicInterval) -> int:
    """Number of CCW-arrows [x, pi^{-1}(x)] contained in T."""
    _check_type(P, Positroid, "P")
    _check_type(T, CyclicInterval, "T")
    _check_ground(T.n, P.n)
    if T.is_empty or T.is_full:
        return 0 if T.is_empty else P.d
    # T is the open gap between its neighbours, T.a - 1 and T.b + 1
    return _gap_ccw(P, (T.a - 2) % P.n + 1, T.b % P.n + 1)


def rank_of_interval(P: Positroid, a: int, b: int) -> int:
    """rank([a, b]) = |I_a ∩ [a, b]| = d - ccw((b, a)), one popcount.

    Equals |[a,b]| - cw([a,b]) and |I_a ∩ [a,b]|; the tests check both everywhere.
    """
    _check_type(P, Positroid, "P")
    return P.d - _gap_ccw(P, b, a)


def min_elements(P: Positroid, b: int, a: int) -> int:
    """Fewest elements a basis can have in the open gap (b, a).

    Equals ccw((b, a)) and also d - rank([a,b]); the tests check both.
    """
    _check_type(P, Positroid, "P")
    return _gap_ccw(P, b, a)


def natural_bound(P: Positroid, E: IntervalDecomposition) -> int:
    """d minus the sum of ccw over the gaps of E; 0 when E is empty: the
    one-block bound, read off s gaps (_closed_bounds)."""
    _check_type(P, Positroid, "P")
    _check_type(E, IntervalDecomposition, "E")
    _check_ground(E.n, P.n)
    return _closed_bounds(P, E.intervals, _columns(P, E.intervals))[1] if E.s else 0


def bound_for_partition(P: Positroid, E: IntervalDecomposition, ncp: NonCrossingPartition) -> int:
    """Upper bound nbd(E, Π): sum of natural bounds over Π's blocks of intervals."""
    _check_type(P, Positroid, "P")
    _check_type(E, IntervalDecomposition, "E")
    _check_type(ncp, NonCrossingPartition, "ncp")
    if ncp.s != E.s:
        raise ValidationError(f"partition of {_shown(ncp.s)} blocks a decomposition with s = {E.s}")
    _check_ground(E.n, P.n)
    w = _gap_matrix(P, E.intervals)
    return sum(_block_bound(block, w, P.d) for block in ncp.blocks)


@dataclass(frozen=True)
class RankCertificate:
    """rank(E) together with the non-crossing partition that attains it.

    `partition` indexes the intervals of `decomposition` and is the first
    partition in enumeration order to attain the minimum; it and value =
    sum(per_block_bounds) + coloop_bonus are read off the rank table. When the
    positroid has loops or coloops, the query is answered on the reduced
    (fixed-point-free, relabeled) positroid reduce(P), kept on P after its
    first such query: `reduced` is then True, `decomposition` and
    `partition` refer to the relabeled ground set (see reduce() for the
    label map), and every element of E that is a coloop contributes 1 via
    coloop_bonus. all_bounds, present when requested,
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


def _columns(P: Positroid, intervals: tuple[tuple[int, int], ...]) -> list[int]:
    """For each interval (a, b), I_a written twice and cut to the n bits
    from a - 1, so that bit x - 1 or x + n - 1 stands for x as read from a:
    the gap after any b is then the bits from one shift, b or b + n."""
    n, masks = P.n, P.necklace.masks
    circle = (1 << n) - 1
    return [(masks[a - 1] | masks[a - 1] << n) & circle << a - 1 for a, _ in intervals]


def _gap_matrix(P: Positroid, intervals: tuple[tuple[int, int], ...]) -> list[list[int]]:
    """w[i][j] = ccw((b_i, a_j)) = |I_{a_j} ∩ (b_i, a_j)|, for the intervals
    (a, b) of a decomposition on P's ground set, sorted by start: ccw over
    the open gap from interval i's end to interval j's start.

    Since |I_{a_j}| = d, this is d - |I_{a_j} ∩ [a_j, b_i]|. Column j is
    _columns' mask for a_j. The gap after b_i then starts at bit b_i when
    b_i comes after a_j (j <= i, unless the last interval wraps) and at bit
    b_i + n otherwise, so each entry is one shift and one popcount.
    """
    n, columns = P.n, _columns(P, intervals)
    w = []
    for i, (a, b) in enumerate(intervals):
        # the columns j <= i read b unwrapped, when interval i does not wrap
        k = i + 1 if a <= b else 0
        w.append([(m >> b).bit_count() for m in columns[:k]]
                 + [(m >> b + n).bit_count() for m in columns[k:]])
    return w


def _closed_bounds(
    P: Positroid, intervals: tuple[tuple[int, int], ...], columns: list[int]
) -> tuple[int, int]:
    """The bounds of the two partitions with closed forms, for s >= 1
    intervals and their _columns: (all singletons, s·d less the gaps
    w[i][i], and one block, d less the gaps w[i][i + 1 mod s]), the main and
    +1 cyclic diagonals of _gap_matrix, one shift and popcount per gap. A
    column j <= i reads b_i unwrapped unless interval i wraps, as there: on
    the +1 diagonal only the last row's gap into the first interval does."""
    n, d, s = P.n, P.d, len(intervals)
    low = [b if a <= b else b + n for a, b in intervals]
    high = [b + n for _, b in intervals[:-1]] + low[-1:]
    singletons = s * d - sum(map(int.bit_count, map(rshift, columns, low)))
    block = d - sum(map(int.bit_count, map(rshift, columns[1:] + columns[:1], high)))
    return singletons, block


def _block_bound(block: tuple[int, ...], w: list[list[int]], d: int) -> int:
    acc = d
    for idx, t in enumerate(block):
        acc -= w[t - 1][block[(idx + 1) % len(block)] - 1]
    return acc


def _query(P: Positroid, E: Iterable[int]) -> tuple[tuple[tuple[int, int], ...], int]:
    """E checked on P's ground set: (E's maximal intervals, E's mask).

    P's own intervals need no reduction, loops and coloops included. On any
    positroid I_a is the greedy basis read from a (Oh, 2011), so every
    basis has at least minelts((b, a)) = ccw((b, a)) elements in a gap, and
    every partition's bound caps rank(E): weak duality. The rank theorem
    applied to P makes the least bound rank(E) itself. rank() alone
    reduces, to present its certificate on reduce(P). No gap is counted
    here: the table's users build _gap_matrix, and _maximal counts only
    the gaps its bands reach.
    """
    _check_type(P, Positroid, "P")
    given = _mask(_checked_subset(E, P.n))
    return _mask_intervals(given, P.n), given


def _rank_table(w: list[list[int]], d: int) -> list[list[int]]:
    """seg_to[v][u], the least total bound over the non-crossing partitions
    of intervals u..v (0 when u > v), for the gap matrix w of s intervals.

    A non-crossing partition decomposes like a polygon triangulation: the
    block containing interval u is a chain u = j_0 < j_1 < ... < j_k, the
    runs strictly between consecutive chain nodes partition independently,
    and the block pays d minus the gap weights along its cyclic closure.
    Filled bottom-up in O(s^3), with no recursion, so any s runs. A chain
    step i -> j costs seg_to[j-1][i+1] - w[i-1][j-1] whatever block start
    it serves, so the s^2/2 steps are built once; the about s^3/3 remaining
    additions run inside C-level min/map over lists that are only appended to.
    """
    s = len(w)
    # into[u - 1][i - 1] = w[i - 1][u - 1], the closing gap of a block that
    # starts at u and ends at i
    into = list(zip(*w))
    seg_to = [[0] * (s + 2) for _ in range(s + 1)]
    # back[v] = seg_to[v][v+1], seg_to[v][v], ... down to the latest u: row v
    # read leftwards from its empty end, one entry appended per u
    back = [[0] for _ in range(s + 1)]
    # steps[j] = the steps i -> j for i = j-1 down to the latest u, likewise
    steps = [[] for _ in range(s + 1)]
    # filled for u from s down to 1: an entry reads only ranges that start
    # after u and chain values left of it
    for u in range(s, 0, -1):
        # column u of the steps: seg_to[j-1][u+1] is final, back[j-1]'s last entry
        out = w[u - 1]
        for j in range(u + 1, s + 1):
            steps[j].append(back[j - 1][-1] - out[j - 1])
        # chain[k]: cheapest open chain of u's block from u to u + k, the runs
        # between chain nodes already partitioned; closed[k]: that chain closed
        # into a block, its d and closing edge into u paid
        closing = into[u - 1]
        chain = [0]
        closed = [d - closing[u - 1]]
        seg_to[u][u] = closed[0]
        back[u].append(closed[0])
        for j in range(u + 1, s + 1):
            # reversed() lines both lists up from j's side; map stops at the
            # shorter one, so nothing is sliced
            c = min(map(add, reversed(chain), steps[j]))
            chain.append(c)
            closed.append(d + c - closing[j - 1])
            row = back[j]
            v = min(map(add, reversed(closed), row))
            seg_to[j][u] = v
            row.append(v)
    return seg_to


# the first band of _maximal: the gaps (b_i, a_j) with cyclic offset j - i
# in [-2, 2]; each miss widens the band fourfold, up to all s offsets
_FIRST_WIDTH = 2
_GROWTH = 4


def _maximal(P: Positroid, intervals: tuple[tuple[int, int], ...], W: int) -> bool:
    """Whether the basis W, a mask, meets the union of E's own intervals,
    as _query gives them, in rank(E) elements: whether some non-crossing
    partition of the intervals closes only over gaps that W meets tightly,
    in ccw((b_i, a_j)) elements, the fewest any basis can have there. No
    rank is computed; the caller proves W a basis first.

    A block's intervals are the circle less the gaps it closes over, so W
    meets E in the sum over the blocks of d less W's counts in their gaps,
    and with every gap tight that is the partition's bound: W, which can meet
    E in no more than rank(E) elements, meets it in exactly that many. The
    converse needs the rank theorem: every optimal partition of a maximum
    basis is all tight. So False only says W is not a maximum basis. P's
    own intervals suffice, loops and coloops included: weak duality holds
    on any positroid (see _query), and the theorem is applied to P itself.

    First |W ∩ E| is compared with the two closed-form bounds
    (_closed_bounds): W meets E in at most rank(E) elements and rank(E) in
    at most either bound, so equality with one proves W maximum, and says
    that partition's gaps are all tight, so the verdict is the bands'. Of
    the rank_dp and witness sets tried on perfbench's rank_queries inputs
    (n = 150, seeds 1-5, passes 0-2), that proved 685 of the 717 with
    s = 20-60 (358 by one block, 327 by the singletons alone) and 373 of
    the 420 witness sets with s = 2-8.

    Otherwise the gaps are counted one cyclic diagonal j = i + k (mod s) at
    a time, in a band of offsets k from -_FIRST_WIDTH to _FIRST_WIDTH
    first, each diagonal one C-level map of _gap_matrix's shift and
    popcount over the s columns, its counts compared with W's. Only the tight gaps are kept, as
    bit sets, and _partitioned searches them; when it finds no partition,
    the band widens _GROWTH-fold, counting only the new diagonals. Every gap
    a partition uses was checked tight, so True is sound at any width, and
    the last band is all s^2 gaps, so False is exact. The first band
    proved 29 of the 32 rank_dp sets above left to the bands and 43 of the
    47 witness sets.
    """
    s = len(intervals)
    if not s:
        return True
    n, d = P.n, P.d
    # |W ∩ (b_i, a_j)| = before[j] - |W ∩ [1, b_i]|, plus all d of W when
    # the gap wraps past n: when a_j <= b_i, so j <= i, unless interval i
    # wraps itself and so ends before every start. Such a column reads b_i
    # unwrapped (low); every other one reads b_i + n (high), as in _gap_matrix
    columns = _columns(P, intervals)
    before = [(W & (1 << a - 1) - 1).bit_count() for a, _ in intervals]
    upto = [(W & (1 << b) - 1).bit_count() for _, b in intervals]
    # |W ∩ E|: each [a, b] holds W's members up to b less those before a,
    # plus all d of them when it wraps past n
    met = sum(upto) - sum(before) + d * sum(a > b for a, b in intervals)
    if met in _closed_bounds(P, intervals, columns):
        return True
    hi_shift, hi_less = [b + n for _, b in intervals], upto
    lo_shift = [b if a <= b else b + n for a, b in intervals]
    lo_less = [u - d if a <= b else u for (a, b), u in zip(intervals, upto)]
    columns += columns
    before += before
    tight_from, tight_into = [0] * s, [0] * s
    width, done = _FIRST_WIDTH, set()
    while True:
        fresh = False
        for k in range(-width, width + 1):
            k %= s
            if k in done:
                continue
            done.add(k)
            # row i meets column j = i + k, which is j <= i (low) from row t on
            t = s - k if k else 0
            counts = map(int.bit_count, map(rshift, columns[k:k + s], hi_shift[:t] + lo_shift[t:]))
            tight = map(eq, map(add, counts, hi_less[:t] + lo_less[t:]), before[k:k + s])
            for i in compress(range(s), tight):
                j = (i + k) % s
                tight_from[i] |= 1 << j
                tight_into[j] |= 1 << i
                fresh = True
        if fresh and _partitioned(tight_from, tight_into):
            return True
        if len(done) == s:
            return False
        width = width * _GROWTH or 1


def _partitioned(tight_from: list[int], tight_into: list[int]) -> bool:
    """Whether some non-crossing partition of s intervals closes only over
    tight gaps: bit j of tight_from[i] and bit i of tight_into[j] say the
    gap (b_i, a_j) is tight.

    _rank_table's recursion with booleans in place of minima, over sets
    kept as ints: bit v + 1 of ranges[x] says intervals x..v partition over
    tight gaps (bit x, the empty range, always), and bit j of reach[i] that a
    block's chain steps from i to j over tight gaps, the runs between
    partitioned. A step i -> j does not depend on where the chain started,
    so reach[u] is u and the reach of u's steps; u's block closes at any j
    in reach[u] whose gap (b_j, a_u) is tight, and the ranges from u are
    those from j + 1.
    """
    s = len(tight_from)
    ranges = [1 << x for x in range(s + 1)]
    reach = [0] * s
    for u in range(s - 1, -1, -1):
        r = 1 << u
        # a step u -> j needs the gap (b_u, a_j) tight and u + 1..j - 1 partitioned;
        # a step already reached adds nothing new
        steps = tight_from[u] & ranges[u + 1]
        while steps:
            r |= reach[(steps & -steps).bit_length() - 1]
            steps &= ~r
        reach[u] = r
        closes, v = r & tight_into[u], ranges[u]
        while closes:
            low = closes & -closes
            closes ^= low
            v |= ranges[low.bit_length()]
        ranges[u] = v
    return bool(ranges[0] >> s & 1)


def rank(
    P: Positroid,
    E: Iterable[int],
    *,
    all_bounds: bool = False,
    limit: int = DEFAULT_PARTITION_LIMIT,
) -> RankCertificate:
    """rank(E) as the minimum of nbd(E, Π) over non-crossing partitions Π.

    Every Π is an upper bound and at least one is tight, so the minimum is
    the exact rank, read off the rank table. So is the certificate, the
    first optimal partition in enumeration order, in O(s^3): per range
    lo..hi on its path, key[j] = bound * (s + 1) + nodes is the cheapest end
    of lo's block from node j, and the head steps to the least node
    keeping the key: _heads order. Only all_bounds lists partitions, capped
    by enumerate_ncp's `limit`. Blocks come out canonical, none re-checked.
    On a positroid with loops or coloops, E is checked on P and answered on
    P's kept reduction, relabeled there, plus its coloops (RankCertificate).
    """
    _check_ints((limit,), "limit")
    _check_type(P, Positroid, "P")
    members = _checked_subset(E, P.n)
    bonus, reduced = len(members & P.perm.black), bool(P.perm.fixed_points)
    if reduced:
        # loops lie in no basis and coloops in every one (reduce())
        P, relabel = P._reduction
        members = [relabel[x] for x in members if x in relabel]
    intervals = _mask_intervals(_mask(members), P.n)
    w, d, s = _gap_matrix(P, intervals), P.d, len(intervals)
    listing = all_bounds and list(enumerate_ncp(s, limit=max(limit, 0)))
    seg_to = _rank_table(w, d)
    m = s + 1
    # steps[j - 1][k - j - 1]: key cost of step j -> k, any range
    steps = [[(seg_to[k - 1][j + 1] - w[j - 1][k - 1]) * m + 1 for k in range(j + 1, m)]
             for j in range(1, m)]
    best: list[tuple[int, ...]] = []
    pending = [(1, s)] if s else []
    while pending:
        lo, hi = pending.pop()
        # ends[j]: close at j, step to j + 1, ...; nodes < m: min orders (bound, nodes)
        key, ends = [0] * (hi + 1), [[]] * (hi + 1)
        for j in range(hi, lo - 1, -1):
            ends[j] = [(d - w[j - 1][lo - 1] + seg_to[hi][j + 1]) * m, *map(add, steps[j - 1], key[j + 1:])]
            key[j] = min(ends[j])
        if key[lo] // m != seg_to[hi][lo]:
            raise ContractViolationError(
                f"no partition of intervals {lo}..{hi} attains the rank table's {seg_to[hi][lo]}"
            )
        block, j = [lo], lo
        while step := ends[j].index(key[j]):
            j += step
            block.append(j)
        best.append(tuple(block))
        pending.extend(reversed(_runs(best[-1], hi)))
    return RankCertificate(
        value=seg_to[s][1] + bonus,
        decomposition=_unchecked(IntervalDecomposition, n=P.n, intervals=intervals),
        partition=_unchecked(NonCrossingPartition, s=s, blocks=tuple(best)),
        per_block_bounds=tuple(_block_bound(block, w, d) for block in best),
        coloop_bonus=bonus,
        reduced=reduced,
        all_bounds=tuple(sorted(
            ((ncp, sum(_block_bound(b, w, d) for b in ncp.blocks)) for ncp in listing),
            key=lambda pair: (len(pair[0].blocks), pair[0].blocks),
        )) if listing else None,
    )


def _candidate_first(s: int, d: int) -> bool:
    """Whether rank_dp runs the search (positroids.morph._maximum_basis)
    before the table, for s intervals of E and rank d: at s <= 1, where the
    search returns a necklace member untested, and from 9 intervals on,
    once the table's s^3 steps reach half the d^2 fields of the candidate's
    Gale test. Between, the search costs more than the table, or about as
    much, and a miss pays for both (measured crossovers, 12 queries per
    point, Gale rows packed, the closed-form bounds tried first: s = 8 at
    d = 18, 9 at d = 40, 11 at d = 73, 22-24 at d = 205, 46-48 at d = 497;
    with a miss's table counted too, 13 at d = 73 and 26-28 at d = 205)."""
    return s <= 1 or (s >= 9 and 2 * s ** 3 >= d * d)


def rank_dp(P: Positroid, E: Iterable[int]) -> int:
    """Same value as rank(...).value, without touching partitions.

    Runs on P itself, E's own intervals over P's masks, with no reduction
    and no coloop bonus (see _query). Where _candidate_first says so, the
    search the witness uses runs first (positroids.morph._maximum_basis),
    every set it tries as the witness tries it: I_{a_1} for at most one
    interval, else walker 0's fully morphed set, and the second walk's
    when that is no basis. A basis that some partition closes over tightly
    gives |W ∩ E| as the rank (_maximal), proved after one Gale test of d^2
    fields, nearly always by a closed-form bound read off 2s gaps, else
    from a band of gaps near the diagonal, with no gap matrix. When the search proves nothing, and for the other interval
    counts, where it costs about as much as the table or more, the answer
    is the corner entry of the O(s^3) rank table over E's s x s gap
    matrix."""
    intervals, members = _query(P, E)
    s = len(intervals)
    if _candidate_first(s, P.d):
        from .morph import _maximum_basis  # morph builds on this module

        W = _maximum_basis(P, intervals)
        if W is not None:
            return (W & members).bit_count()
    return _rank_table(_gap_matrix(P, intervals), P.d)[s][1]
