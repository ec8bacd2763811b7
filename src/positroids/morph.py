"""Staged basis transformations: interval exchange, mimic, morphs, witnesses.

A morph sequence starts from the necklace member at one interval of E and
repeatedly mimics the necklace member of the next interval inside a shrinking
window, trading excessive elements for missing ones. Tracking where the
mimicking fills all gaps is what lets witness_basis build an actual basis B
with |B ∩ E| = rank(E), following the recursion that proves the rank formula.
One private walker yields the stages: morph_sequence lists them, the witness
advances all s walkers lazily and stops at the first gap-free basis. Its
pieces are aligned without align_basis's checks; the one check of the
construction is witness_basis's final test of its result.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import product, repeat
from operator import mod, sub
from typing import Iterable, Iterator

from .cyclic import (
    CyclicInterval,
    IntervalDecomposition,
    _as_pair,
    _as_tuple,
    _check_ground,
    _check_ints,
    _check_type,
    _checked_subset,
    _intervals_of,
    half_open,
)
from .errors import ContractViolationError, ValidationError
from .positroid import Positroid
from .rank import rank_dp

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


def interval_exchange(P: Positroid, J: Iterable[int], a: int, b: int) -> frozenset[int]:
    """Swap J's content on [a, b] for the necklace member I_a's content there.

    Requires (caller-asserted) that J is a basis with as many elements in
    [a, b] as any basis has. The result is then again a basis; if it is not,
    the precondition was violated and ContractViolationError says so.
    """
    _check_type(P, Positroid, "P")
    iv = CyclicInterval.span(a, b, P.n)
    J = _checked_subset(J, P.n)
    result = (J - iv.members) | (P.necklace.at(a) & iv.members)
    if not P.is_basis(result):
        raise ContractViolationError(
            f"interval exchange on [{a},{b}] left a non-basis; "
            f"the input did not maximize the interval"
        )
    return result


def _positions(S: frozenset[int], b: int, n: int) -> list[int]:
    """S's members as positions (x - b - 1) % n, counted from b + 1, sorted."""
    return sorted(map(mod, map(sub, S, repeat(b + 1)), repeat(n)))


def _window_arcs(
    P: Positroid, J: frozenset[int], c: int, window: tuple[int, int]
) -> tuple[list[int], list[int], bool]:
    """The sorted positions of J's members outside I_c on the arc (b, c) of
    the window (b, d] and of I_c's members outside J on [c, d], and whether J
    is compatible: J ⊇ I_c on (b, c) and J ⊆ I_c on [c, d].

    Counted from b + 1, the window is the positions up to d's, so (b, b] is
    the full circle; (b, c) lies below c's position and [c, d] from it on.
    """
    b, d = window
    if not half_open(b, d, P.n).contains(c):
        raise ValidationError(f"center {c} lies outside the window ({b},{d}]")
    n = P.n
    Ic = P.necklace.at(c)
    extra, lack = _positions(J - Ic, b, n), _positions(Ic - J, b, n)
    pc, past_d = (c - b - 1) % n, (d - b - 1) % n + 1
    k = bisect_left(extra, pc)
    compatible = (not lack or lack[0] >= pc) and k == bisect_left(extra, past_d)
    return extra[:k], lack[:bisect_left(lack, past_d)], compatible


def is_compatible(P: Positroid, J: Iterable[int], c: int, window: tuple[int, int]) -> bool:
    """True when J ⊇ I_c strictly before c and J ⊆ I_c from c on, inside (b, d]."""
    _check_type(P, Positroid, "P")
    return _window_arcs(P, _checked_subset(J, P.n), c, _as_pair(window, "window"))[2]


def _mimic_parts(
    P: Positroid, J: frozenset[int], c: int, window: tuple[int, int]
) -> tuple[tuple[int, ...], tuple[int, ...], frozenset[int], GapStatus]:
    over, missing, compatible = _window_arcs(P, J, c, window)
    b, d = window
    if not compatible:
        raise ValidationError(
            f"set is not compatible with I_{c} in ({b},{d}]; cannot mimic"
        )
    n = P.n
    alpha = min(len(over), len(missing))
    # back from positions to elements: the last alpha of the excess, last
    # first, and the first alpha missing ones in (x - b) % n order, which
    # puts b itself first when the window is the full circle (b, b]
    removed = tuple((p + b) % n + 1 for p in reversed(over[len(over) - alpha:]))
    added = tuple(sorted(((p + b) % n + 1 for p in missing), key=lambda x: (x - b) % n)[:alpha])
    result = (J - set(removed)) | set(added)
    # J ⊆ I_c on [c, d] already and only `added` lands there, so the result
    # agrees with I_c on [c, d] exactly when every missing element was added
    status = GapStatus.GAP_FREE if alpha == len(missing) else GapStatus.HAS_GAPS
    return removed, added, result, status


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
    J = _checked_subset(J, P.n)
    removed, added, result, status = _mimic_parts(P, J, c, _as_pair(window, "window"))
    return result, status


def _stages(P: Positroid, order: tuple[tuple[int, int], ...], i: int) -> Iterator[MorphState]:
    """morph_sequence's states one at a time, for intervals already rotated to start at i."""
    s = len(order)
    members = P.necklace.at(order[0][0])
    yield MorphState(i, 0, members, None, None, None, None)
    for t in range(1, s):
        window = (order[t - 1][1], order[s - 1][1])
        center = order[t][0]
        removed, added, members, status = _mimic_parts(P, members, center, window)
        record = ExchangeRecord(ExchangeKind.MIMIC, removed, added)
        yield MorphState(i, t, members, status, window, center, record)


def morph_sequence(P: Positroid, E: IntervalDecomposition, i: int) -> list[MorphState]:
    """States J^0 .. J^{s-1} starting from interval i of E.

    The intervals are read cyclically from interval i; J^0 = I_{a_i}, and
    stage t mimics the necklace member of the (t+1)-st interval in that
    order, in the window (b_t, b_s].
    """
    _check_type(P, Positroid, "P")
    _check_type(E, IntervalDecomposition, "E")
    _check_ints((i,), "start index")
    _check_ground(E.n, P.n)
    s = E.s
    if not 1 <= i <= s:
        raise ValidationError(f"start index {i} out of range 1..{s}")
    return list(_stages(P, E.intervals[i - 1:] + E.intervals[:i - 1], i))


def align_basis(
    P: Positroid,
    B: Iterable[int],
    E: IntervalDecomposition,
    i: int,
    trace: list[ExchangeRecord] | None = None,
) -> frozenset[int]:
    """Exchange B until it agrees with I_{a_i} on the window (b_{i-1}, b_i].

    B must be a basis with |B ∩ E| = rank(E) (checked). Single-element
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
    _check_ints((i,), "interval index")
    _check_ground(E.n, P.n)
    s = E.s
    if not 1 <= i <= s:
        raise ValidationError(f"interval index {i} out of range 1..{s}")
    B = _checked_subset(B, P.n)
    if not P.is_basis(B):
        raise ValidationError("align_basis needs a basis")
    target = rank_dp(P, E.members)
    if len(B & E.members) != target:
        raise ValidationError(
            f"basis meets the set in {len(B & E.members)} elements, "
            f"but the maximum is {target}"
        )
    return _align(P, B, *E.intervals[i - 1], E.intervals[(i - 2) % s][1], trace)


def _align(
    P: Positroid, B: frozenset[int], a_i: int, b_i: int, b_prev: int,
    trace: list[ExchangeRecord] | None,
) -> frozenset[int]:
    """align_basis's exchanges, unchecked, for [a_i, b_i] after an interval ending at b_prev."""
    n = P.n
    Ia = P.necklace.at(a_i)

    def key(x: int) -> int:
        return (x - a_i) % n

    # read from a_i, [a_i, b_i] is key <= own and the gap (b_prev, a_i) is key > gap
    own, gap = key(b_i), key(b_prev)
    while excess := [x for x in B - Ia if key(x) > gap]:
        e = max(excess, key=key)
        for f in sorted(Ia - B, key=key):
            candidate = (B - {e}) | {f}
            if P.is_basis(candidate):
                if trace is not None:
                    trace.append(ExchangeRecord(ExchangeKind.BASIS_EXCHANGE, (e,), (f,)))
                B = candidate
                break
        else:
            raise ContractViolationError(f"no exchange partner found for {e}")
    while missing := [x for x in Ia - B if key(x) <= own]:
        g = min(missing, key=key)
        for e in sorted(B - Ia, key=key):
            candidate = (B - {e}) | {g}
            if P.is_basis(candidate):
                if trace is not None:
                    trace.append(ExchangeRecord(ExchangeKind.BASIS_EXCHANGE, (e,), (g,)))
                B = candidate
                break
        else:
            raise ContractViolationError(f"no exchange partner found for {g}")
    # the window (b_prev, b_i] is the gap and [a_i, b_i] together
    if any(key(x) <= own or key(x) > gap for x in B ^ Ia):
        raise ContractViolationError("alignment finished without window agreement")
    return B


def _witness_rec(P: Positroid, intervals: tuple[tuple[int, int], ...]) -> frozenset[int]:
    """A basis maximizing the union of the sorted, maximal intervals (a, b)."""
    s = len(intervals)
    if s == 0:
        return P.necklace.at(1) if P.n else frozenset()
    rotations = [intervals[i:] + intervals[:i] for i in range(s)]
    walkers = [_stages(P, order, i + 1) for i, order in enumerate(rotations)]
    seqs = [[next(walker)] for walker in walkers]
    # stage t of every walker before stage t + 1 of any: the first gap-free
    # basis in that order decides, and no later stage is ever built
    for t, i in product(range(1, s), range(s)):
        state = next(walkers[i])
        seqs[i].append(state)
        if state.status is GapStatus.GAP_FREE and P.is_basis(state.members):
            break
    else:
        # every stage kept gaps everywhere, so the fully morphed set is a
        # basis meeting each gap of E minimally: it attains the one-block bound
        # (with s == 1 that is I_{a_1} itself)
        return seqs[0][s - 1].members

    order, seq = rotations[i], seqs[i]
    n = P.n

    def gamma(x: int) -> int:
        # the last stage g < x that already agrees with I_a, a = order[g][0],
        # on the arc from a to the end of order[x - 1]; stage 0 always does
        for g in range(x - 1, -1, -1):
            a = order[g][0]
            span = (order[x - 1][1] - a) % n
            if not any((y - a) % n <= span for y in seq[g].members ^ P.necklace.at(a)):
                return g
        raise ContractViolationError("merge scan failed; stage 0 must always match")

    pieces: list[tuple[int, int]] = []  # (g, x): rotated intervals g..x-1
    x = t
    while x > 0:
        g = gamma(x)
        pieces.append((g, x))
        x = g
    pieces.append((t, s))  # the tail the gap-free stage fully filled

    spliced = seq[t].members
    for g, x in pieces:
        (a, b), b_prev = order[g], order[x - 1][1]
        # each piece is maximal on its own, and its anchor (a, b) follows the
        # interval ending at b_prev; the piece spans the arc [a, b_prev]
        K = _align(P, _witness_rec(P, tuple(sorted(order[g:x]))), a, b, b_prev, None)
        span = (b_prev - a) % n
        spliced = {y for y in spliced if (y - a) % n > span} | {y for y in K if (y - a) % n <= span}
    result = frozenset(spliced)
    if len(result) != P.d:
        raise ContractViolationError("splice changed the set's size")
    return result


def witness_basis(P: Positroid, E: Iterable[int]) -> frozenset[int]:
    """A basis B with |B ∩ E| = rank(E).

    Follows the morph recursion on P itself; loops and coloops need no
    special case. Morph stages are built only up to the first gap-free
    basis, and the pieces are spliced unchecked. The result is then checked,
    the construction's one check, to be a basis meeting E in rank(E)
    elements: a construction that misses that target, or that fails inside
    with a ValidationError, raises ContractViolationError.
    """
    elements = _as_tuple(E, "set elements")
    target = rank_dp(P, elements)  # checks E, so its frozen copy needs no check
    members = frozenset(elements)
    try:
        candidate = _witness_rec(P, _intervals_of(members, P.n).intervals)
    except ValidationError as exc:
        raise ContractViolationError(f"witness construction failed: {exc}") from exc
    if not (P.is_basis(candidate) and len(candidate & members) == target):
        raise ContractViolationError(
            f"constructed witness {sorted(candidate)} is not a basis meeting E "
            f"in rank(E) = {target} elements"
        )
    return candidate
