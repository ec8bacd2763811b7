"""Staged basis transformations: interval exchange, mimic, morphs, witnesses.

A morph sequence starts from the necklace member at one interval of E and
repeatedly mimics the necklace member of the next interval inside a shrinking
window, trading excessive elements for missing ones. Tracking where the
mimicking fills all gaps is what lets witness_basis build an actual basis B
with |B ∩ E| = rank(E), following the recursion that proves the rank formula.
One private walker yields the stages, each a mask, its gap status and its
center, and morph_sequence lists them, reading each exchange record off
two consecutive masks: no mimic lists the elements it trades. By the morph
lemma every stage of a walk is compatible with the next center, so a mimic
a walk cannot make is the package's fault, ContractViolationError.

rank_dp and witness_basis share one search for a proved maximum basis
(_maximum_basis), which holds no policy of either: I_{a_1} for at most one
interval, else walker 0's fully morphed set, s - 1 mimics from E's first
interval, else the walk from the interval where walker 0 last made a
basis, found on its kept stages. When it proves nothing, rank_dp reads its
rank table, and the witness goes on to the recursion: it advances all s
walkers lazily, stops at the first gap-free basis and aligns its pieces
without align_basis's checks, both phases of an alignment trading through
one partner search, on an explicit stack up to s levels deep. One proof of
maximality serves every set tried and align_basis's precondition: the set
is a basis, and some non-crossing partition of E closes only over gaps it
meets tightly (rank._maximal): all singletons or one block, whose bounds
have closed forms, else a search over a band of gaps near the diagonal
that widens only on a miss. Neither the search, the recursion nor
align_basis computes rank(E) or builds the rank table or its s x s gap
matrix. Each set built, interval_exchange's result and each gap-free stage
too, is one mask checked once by _is_basis: no bit past n and d members,
then one one-set Gale test, without is_basis's re-check of a caller's
listing.

Inside, every subset is an n-bit int, bit x - 1 standing for x. The
necklace entries are read straight off P.necklace.masks, the form in which
the necklace is stored. A mimic (_trade, the one step that mimic and the
walker read) holds its set rotated right by the window's end d, so that
bit p is the element at position p counted from d + 1: the window (b, d]
is the top bits, compatibility is two AND tests, and a mimic's counts and
moves are bit counts, bit_length and m & -m. A walk's windows all end at
the same d, so it keeps its set rotated from one mimic to the next. An
exchange B - e + f of a basis B can only break the Gale condition at its
anchors in (e, f] (the lemma in _align's docstring), and those anchors are
compared at once by the Positroid's packed Gale test. The public functions
take and return frozensets and convert at that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterable, Iterator

from .cyclic import (
    IntervalDecomposition,
    _arc,
    _as_pair,
    _as_tuple,
    _check_element,
    _check_ground,
    _check_index,
    _check_type,
    _checked_subset,
    _elements,
    _mask,
)
from .errors import ContractViolationError, ValidationError
from .positroid import Positroid
from .rank import _maximal, _query

__all__ = [
    "GapStatus",
    "ExchangeKind",
    "ExchangeRecord",
    "MorphState",
    "interval_exchange",
    "is_compatible",
    "mimic",
    "morph_sequence",
    "align_basis",
    "witness_basis",
]


class GapStatus(Enum):
    GAP_FREE = "gap-free"
    HAS_GAPS = "has-gaps"


class ExchangeKind(Enum):
    BASIS_EXCHANGE = "basis-exchange"
    MIMIC = "mimic"


@dataclass(frozen=True)
class ExchangeRecord:
    """Audit record of one exchange step; removals and additions line up."""

    kind: ExchangeKind
    removed: tuple[int, ...]
    added: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_type(self.removed, tuple, "removed")
        _check_type(self.added, tuple, "added")
        if len(self.removed) != len(self.added):
            raise ValidationError("exchange must remove and add equally many elements")


@dataclass(frozen=True)
class MorphState:
    """One stage of a morph sequence.

    stage 0 is the untouched necklace member (status and window are None);
    stage t >= 1 records the mimic window (b, d], its center c, the exchange
    performed, and whether the result is gap-free, meaning it agrees with
    I_c on all of [c, d]. members need not be a basis; callers test that
    lazily when they care.
    """

    start: int
    stage: int
    members: frozenset[int]
    status: GapStatus | None
    window: tuple[int, int] | None
    center: int | None
    exchange: ExchangeRecord | None


def _rotate(m: int, b: int, n: int) -> int:
    """The mask m rotated right by b: the element x lands on bit (x - b - 1) % n,
    its position counted from b + 1. Rotating by -b undoes it."""
    r = b % n
    return (m >> r | m << (n - r)) & ((1 << n) - 1)


def interval_exchange(P: Positroid, J: Iterable[int], a: int, b: int) -> frozenset[int]:
    """Swap J's content on [a, b] for the necklace member I_a's content there.

    J must be a basis with as many elements in [a, b] as any basis has,
    rank([a, b]) = |I_a ∩ [a, b]|; any other J raises ValidationError. The
    result is then again a basis, as one Gale test of its mask confirms; if
    it is not, the exchange is at fault and ContractViolationError says so.
    """
    _check_type(P, Positroid, "P")
    n = P.n
    _check_element(a, n)
    _check_element(b, n)
    # is_basis checks the listing itself, so a repeated element is refused
    J = _as_tuple(J, "set elements")
    if not P.is_basis(J):
        raise ValidationError("interval_exchange needs a basis")
    arc, Ia, members = _arc(a, b, n), P.necklace.masks[a - 1], _mask(J)
    have, target = (members & arc).bit_count(), (Ia & arc).bit_count()
    if have != target:
        raise ValidationError(
            f"basis meets [{a},{b}] in {have} elements, but the maximum is {target}"
        )
    result = members & ~arc | Ia & arc
    # result equals I_a on [a, b], so it meets the arc in target elements
    if not _is_basis(P, result):
        raise ContractViolationError(f"interval exchange on [{a},{b}] left a non-basis")
    return frozenset(_elements(result))


def _trade(J: int, Ic: int, b: int, c: int, d: int, n: int) -> tuple[int, GapStatus]:
    """The one mimic step, on J rotated right by the window's end d (bit p
    is the element at position p from d + 1) and on Ic = I_c as stored: the
    result, rotated likewise, and its status. The window (b, d] is the bits
    from lo = (b - d) % n up, all n on the full circle, and c's bit pc
    splits it into (b, c) and [c, d]. J must be compatible, J ⊇ I_c on
    (b, c) and J ⊆ I_c on [c, d], or ValidationError. The trade is read off
    J and the result when recorded (_mimic_record)."""
    r = d % n
    Ic = (Ic >> r | Ic << n - r) & (1 << n) - 1
    lo, pc = (b - d) % n, (c - d - 1) % n
    both = J & Ic
    over, missing = J ^ both, Ic ^ both
    arc = (1 << pc) - (1 << lo)
    if missing & arc or over >> pc:
        raise ValidationError(f"set is not compatible with I_{c} in ({b},{d}]; cannot mimic")
    over &= arc
    missing = missing >> pc << pc
    alpha, lack = over.bit_count(), missing.bit_count()
    # the last alpha of the excess leave and the first alpha missing ones in
    # (x - b) % n order join, so one side moves whole; the result agrees
    # with I_c on [c, d] (gap-free) exactly when every missing one joins
    if alpha >= lack:
        for _ in range(alpha - lack):  # the lowest alpha - lack stay
            over &= over - 1
        return J ^ over ^ missing, GapStatus.GAP_FREE
    moved = over
    if alpha and not lo and missing >> n - 1:
        # on the full circle the top bit is b = d itself, which the
        # (x - b) % n order puts first
        missing ^= 1 << n - 1
        moved |= 1 << n - 1
        alpha -= 1
    for _ in range(alpha):
        low = missing & -missing
        missing ^= low
        moved |= low
    return J ^ moved, GapStatus.HAS_GAPS


def _checked_window(P: Positroid, c: int, window: object) -> tuple[int, int]:
    """window as a pair (b, d) of elements, with the center c an element of
    the window (b, d]: read from d + 1, c comes no earlier than b + 1."""
    b, d = _as_pair(window, "window")
    n = P.n
    for x in (b, d, c):
        _check_element(x, n)
    if (c - d - 1) % n < (b - d) % n:
        raise ValidationError(f"center {c} lies outside the window ({b},{d}]")
    return b, d


def is_compatible(P: Positroid, J: Iterable[int], c: int, window: tuple[int, int]) -> bool:
    """True when J ⊇ I_c strictly before c and J ⊆ I_c from c on, inside (b, d]."""
    _check_type(P, Positroid, "P")
    J = _mask(_checked_subset(J, P.n))
    b, d = _checked_window(P, c, window)
    try:
        _trade(_rotate(J, d, P.n), P.necklace.masks[c - 1], b, c, d, P.n)
    except ValidationError:
        return False
    return True


def _mimic_record(n: int, J: int, K: int, b: int) -> ExchangeRecord:
    """The trade of the mimic that took the mask J to K in a window opened
    at b: the removed elements last first and the added ones first first,
    both in the order (x - b) % n that mimic ranks them by."""

    def key(x: int) -> int:
        return (x - b) % n

    return ExchangeRecord(
        ExchangeKind.MIMIC,
        tuple(sorted(_elements(J & ~K), key=key, reverse=True)),
        tuple(sorted(_elements(K & ~J), key=key)),
    )


def mimic(
    P: Positroid, J: Iterable[int], c: int, window: tuple[int, int]
) -> tuple[frozenset[int], GapStatus]:
    """Trade J's biggest excessive elements before c for I_c's first missing
    elements from c on, as many as both sides allow. The excess is ranked in
    the order that starts right after the window's open end b; the missing
    elements are added in (x - b) % n order, which is the same order on a
    proper window but puts b itself first on the full circle (b, b].

    Requires is_compatible(P, J, c, window). The status reports whether the
    result agrees with I_c on all of [c, d] (gap-free) or gaps remain.
    """
    _check_type(P, Positroid, "P")
    J = _mask(_checked_subset(J, P.n))
    b, d = _checked_window(P, c, window)
    K, status = _trade(_rotate(J, d, P.n), P.necklace.masks[c - 1], b, c, d, P.n)
    return frozenset(_elements(_rotate(K, -d, P.n))), status


def _stages(
    P: Positroid, order: tuple[tuple[int, int], ...]
) -> Iterator[tuple[int, GapStatus | None, int | None]]:
    """The morph's stages one at a time, for intervals already rotated to
    start at interval i: (members as a mask, status, center), with no
    status or center at stage 0. Every window ends at b_{s-1}, so the
    members stay rotated right by it from one _trade to the next. A
    _trade that refuses raises ContractViolationError, for morph_sequence,
    the search and the recursion alike: on sorted, maximal intervals every
    stage is compatible with the next center (the morph lemma)."""
    n, masks = P.n, P.necklace.masks
    d = order[-1][1]
    r, circle = d % n, (1 << n) - 1
    J = masks[order[0][0] - 1]
    yield J, None, None
    J = (J >> r | J << n - r) & circle
    try:
        for (_, b), (c, _) in zip(order, order[1:]):
            J, status = _trade(J, masks[c - 1], b, c, d, n)
            yield (J << r | J >> n - r) & circle, status, c
    except ValidationError as exc:
        raise ContractViolationError(f"morph walk failed: {exc}") from exc


def morph_sequence(P: Positroid, E: IntervalDecomposition, i: int) -> list[MorphState]:
    """States J^0 .. J^{s-1} starting from interval i of E.

    The intervals are read cyclically from interval i; J^0 = I_{a_i}, and
    stage t mimics the necklace member of the (t+1)-st interval in that
    order, in the window (b_t, b_s]. Stage t's exchange record is read off
    the masks of stages t - 1 and t (_mimic_record).
    """
    _check_type(P, Positroid, "P")
    _check_type(E, IntervalDecomposition, "E")
    _check_index(i, E.s, "start index")
    _check_ground(E.n, P.n)
    order = E.intervals[i - 1:] + E.intervals[:i - 1]
    states, before = [], None
    for t, (members, status, center) in enumerate(_stages(P, order)):
        window = (order[t - 1][1], order[-1][1]) if t else None
        record = _mimic_record(P.n, before, members, window[0]) if t else None
        states.append(MorphState(i, t, frozenset(_elements(members)), status, window, center, record))
        before = members
    return states


def align_basis(
    P: Positroid,
    B: Iterable[int],
    E: IntervalDecomposition,
    i: int,
    trace: list[ExchangeRecord] | None = None,
) -> frozenset[int]:
    """Exchange B until it agrees with I_{a_i} on the window (b_{i-1}, b_i].

    B must be a basis with |B ∩ E| = rank(E): it is proved maximum by a
    partition of E that closes only over gaps B meets tightly, and no rank
    is computed; any other B raises ValidationError. Single-element
    exchanges preserve that count throughout: first the excess in the gap
    before a_i is flushed (largest first, partners tried in the order
    starting at a_i), then the missing part of I_{a_i} on [a_i, b_i] is
    pulled in. Pass a list as `trace` to receive the exchange records.
    witness_basis aligns its pieces without these checks; its own final
    check covers them.
    """
    _check_type(P, Positroid, "P")
    _check_type(E, IntervalDecomposition, "E")
    if trace is not None:
        _check_type(trace, list, "trace")
    _check_index(i, E.s, "interval index")
    _check_ground(E.n, P.n)
    B = _as_tuple(B, "set elements")
    if not P.is_basis(B):
        raise ValidationError("align_basis needs a basis")
    B, (intervals, members) = _mask(B), _query(P, E.members)
    if not _maximal(P, intervals, B):
        raise ValidationError(
            f"basis meets the set in {(B & members).bit_count()} elements, "
            "fewer than the maximum"
        )
    aligned = _align(P, B, *E.intervals[i - 1], E.intervals[(i - 2) % E.s][1], trace)
    return frozenset(_elements(aligned))


def _exchange_holds(P: Positroid, B: int, e: int, f: int) -> bool:
    """Whether B - e + f is a basis, for a basis B given as a mask, e in B
    and f not in B: the packed Gale test at the anchors in (e, f] only."""
    C = B ^ (1 << (e - 1) | 1 << (f - 1))
    ordered = _elements(C)
    # C's members up to e and up to f: the anchors in (e, f] are
    # ordered[lo:hi], wrapping past the end when f comes before e
    lo, hi = (C & ((1 << e) - 1)).bit_count(), (C & ((1 << f) - 1)).bit_count()
    anchors = range(lo, hi) if e < f else [*range(lo, len(ordered)), *range(hi)]
    return P._gale_holds([ordered], anchors) == 1


def _exchange_first(
    P: Positroid, B: int, x: int, partners: int, r: int, trace: list[ExchangeRecord] | None
) -> int:
    """B with x traded for the first partner, in key order from r + 1, that
    keeps it a basis: x leaves if it is in B and joins otherwise. partners is
    a mask rotated right by r, so the low bits come first."""
    n = P.n
    while partners:
        low = partners & -partners
        partners ^= low
        y = (low.bit_length() + r - 1) % n + 1
        e, f = (x, y) if B >> (x - 1) & 1 else (y, x)
        if _exchange_holds(P, B, e, f):
            if trace is not None:
                trace.append(ExchangeRecord(ExchangeKind.BASIS_EXCHANGE, (e,), (f,)))
            return B ^ (1 << (e - 1) | 1 << (f - 1))
    raise ContractViolationError(f"no exchange partner found for {x}")


def _align(
    P: Positroid, B: int, a_i: int, b_i: int, b_prev: int,
    trace: list[ExchangeRecord] | None,
) -> int:
    """align_basis's exchanges, unchecked, on the mask B, for [a_i, b_i] after
    an interval ending at b_prev.

    Both phases trade through _exchange_first, which tries each partner f
    for e (or e for g) with _exchange_holds, comparing only C = B - e + f's
    anchors in the arc (e, f]. That suffices: C >=_k I_k holds iff every
    prefix Q of the order read from k holds no more members of C than of
    I_k (Oh's Gale characterization, as in Positroid.is_basis). An anchor k
    of C outside (e, f] is neither e, which left, nor f, so k is in B and
    B's condition at k holds; and reading from k reaches e before f, so
    every prefix that holds f holds e too, and |C ∩ Q| <= |B ∩ Q| <=
    |I_k ∩ Q|. Only C's anchors in (e, f] can fail.
    """
    n = P.n
    Ia = P.necklace.masks[a_i - 1]
    # rotated right by a_i - 1, bit p is the element with key (x - a_i) % n
    # = p; [a_i, b_i] is the keys up to own, the gap (b_prev, a_i) those above gap
    r = a_i - 1
    own, gap = (b_i - a_i) % n, (b_prev - a_i) % n
    in_own, in_gap = (2 << own) - 1, ((1 << n) - 1) ^ ((2 << gap) - 1)
    while excess := _rotate(B & ~Ia, r, n) & in_gap:
        e = (excess.bit_length() + r - 1) % n + 1
        B = _exchange_first(P, B, e, _rotate(Ia & ~B, r, n), r, trace)
    while missing := _rotate(Ia & ~B, r, n) & in_own:
        g = ((missing & -missing).bit_length() + r - 1) % n + 1
        B = _exchange_first(P, B, g, _rotate(B & ~Ia, r, n), r, trace)
    # the window (b_prev, b_i] is the gap and [a_i, b_i] together
    if _rotate(B ^ Ia, r, n) & (in_own | in_gap):
        raise ContractViolationError("alignment finished without window agreement")
    return B


def _witness_level(P: Positroid, intervals: tuple[tuple[int, int], ...]) -> list:
    """One level of the morph recursion on s >= 1 sorted, maximal intervals
    (a, b), up to its sub-witnesses: [seed, order, pieces]. Each piece (g, x)
    still needs a basis maximizing the rotated intervals order[g:x], aligned
    and spliced into the seed; with no pieces the seed is the level's answer."""
    s = len(intervals)
    masks = P.necklace.masks
    rotations = [intervals[i:] + intervals[:i] for i in range(s)]
    walkers = [_stages(P, order) for order in rotations]
    seqs = [[next(walker)[0]] for walker in walkers]
    # stage t of every walker before stage t + 1 of any: the first gap-free
    # basis in that order decides, and no later stage is ever built
    for t, i in product(range(1, s), range(s)):
        members, status = next(walkers[i])[:2]
        seqs[i].append(members)
        if status is GapStatus.GAP_FREE and _is_basis(P, members):
            break
    else:
        # every stage kept gaps everywhere, so the fully morphed set is a
        # basis meeting each gap of E minimally: it attains the one-block bound
        # (with s == 1 that is I_{a_1} itself)
        return [seqs[0][s - 1], (), []]

    order, seq = rotations[i], seqs[i]
    n = P.n
    pieces = []  # (g, x): rotated intervals g..x-1
    x = t
    while x > 0:
        # the last stage g < x that already agrees with I_a, a = order[g][0],
        # on the arc from a to the end of order[x - 1]; stage 0 always does
        g, end = x - 1, order[x - 1][1]
        while (seq[g] ^ masks[order[g][0] - 1]) & _arc(order[g][0], end, n):
            g -= 1
        pieces.append((g, x))
        x = g
    pieces.append((t, s))  # the tail the gap-free stage fully filled
    pieces.reverse()  # taken from the end, so spliced in the order found
    return [seq[t], order, pieces]


def _witness_rec(P: Positroid, intervals: tuple[tuple[int, int], ...]) -> int:
    """A basis, as a mask, maximizing the union of the sorted, maximal intervals (a, b).

    The morph recursion, whose depth can reach s, runs on an explicit stack
    of levels. The top level's next piece gets a level of its own, which is
    finished, its own pieces included, before it is aligned and spliced into
    the seed of the level below: the order the recursion takes.
    """
    n = P.n
    stack = [_witness_level(P, intervals)]
    while True:
        seed, order, pieces = stack[-1]
        if pieces:
            g, x = pieces[-1]
            stack.append(_witness_level(P, tuple(sorted(order[g:x]))))
            continue
        stack.pop()
        if seed.bit_count() != P.d:
            raise ContractViolationError("splice changed the set's size")
        if not stack:
            return seed
        below = stack[-1]
        _, order, pieces = below
        g, x = pieces.pop()
        (a, b), b_prev = order[g], order[x - 1][1]
        # each piece is maximal on its own, and its anchor (a, b) follows the
        # interval ending at b_prev; the piece spans the arc [a, b_prev]
        K = _align(P, seed, a, b, b_prev, None)
        arc = _arc(a, b_prev, n)
        below[0] = below[0] & ~arc | K & arc


def witness_basis(P: Positroid, E: Iterable[int]) -> frozenset[int]:
    """A basis B with |B ∩ E| = rank(E).

    Works on P itself, on n-bit masks; loops and coloops need no special
    case. The basis is _maximum_basis's, or, when that search proves
    nothing, the morph recursion's, which must pass the same proof: a tight
    partition, with no rank table built. A construction that fails raises
    ContractViolationError.
    """
    intervals, _ = _query(P, E)
    found = _maximum_basis(P, intervals)
    if found is None:
        found = _witness_rec(P, intervals)
        if not _proved(P, found, intervals):
            raise ContractViolationError(
                f"constructed witness {_elements(found)} is not a basis meeting E in rank(E) elements"
            )
    return frozenset(_elements(found))


def _maximum_basis(P: Positroid, intervals: tuple[tuple[int, int], ...]) -> int | None:
    """A basis, as a mask, proved to meet the union of E's sorted, maximal
    intervals in rank(E) elements, or None: the one search that rank_dp and
    witness_basis share, each deciding for itself what follows a None.

    For s <= 1 it is I_{a_1} (I_1 for an empty E), untested: a necklace
    member is a basis, and rank([a, b]) = |I_a ∩ [a, b]|. Otherwise walker
    0 walks once and its fully morphed set is tried; when that is no basis,
    the walk from _second_start's interval, found on walker 0's kept
    stages. A set is returned only when _proved.
    """
    s, masks = len(intervals), P.necklace.masks
    if s <= 1:
        return masks[intervals[0][0] - 1] if s else masks[0] if P.n else 0
    walk = list(_stages(P, intervals))
    found = walk[-1][0]
    if _is_basis(P, found):
        return found if _maximal(P, intervals, found) else None
    t = _second_start(P, walk)
    *_, (found, _, _) = _stages(P, intervals[t:] + intervals[:t])
    return found if _proved(P, found, intervals) else None


def _second_start(P: Positroid, walk: list) -> int:
    """The last stage t of walker 0, whose stages walk keeps and whose fully
    morphed set is no basis, that is still a basis: the second walk starts
    at interval t. Each stage is Gale-tested at one anchor only, its first
    member from its mimic's center c on, up to the first that fails: on
    perfbench's rank_queries inputs (n = 150, seeds 1-3) that found the
    first non-basis stage of a full test on all 37 misses with s >= 20.
    The second walk's set, which _maximum_basis proves, was a maximum basis
    on 134 of 139 witness misses (seeds 1-6), and on 530 of 554 rank_dp
    misses with s = 20-60 (seeds 1-40, passes 0-4)."""
    for t, (members, _, c) in enumerate(walk[1:], 1):
        anchor = (members & (1 << c - 1) - 1).bit_count() % P.d
        if not P._gale_holds([_elements(members)], (anchor,)):
            return t - 1
    return len(walk) - 1


def _is_basis(P: Positroid, found: int) -> bool:
    """Whether the package's own mask found is a basis: a mask is sorted and
    repeat-free, so no bit past n and d members are all the one-set Gale
    test needs."""
    return (
        not found >> P.n
        and found.bit_count() == P.d
        and P._gale_holds([_elements(found)], range(P.d)) == 1
    )


def _proved(P: Positroid, found: int, intervals: tuple[tuple[int, int], ...]) -> bool:
    """Whether the mask found is proved to meet the union of rank._query's
    intervals of E in rank(E) elements: a basis, rank._maximal by a tight
    partition. The basis test goes first, as _maximal assumes one."""
    return _is_basis(P, found) and _maximal(P, intervals, found)
