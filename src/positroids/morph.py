"""Staged basis transformations: interval exchange, mimic, morphs, witnesses.

A morph sequence starts from the necklace member at one interval of E and
repeatedly mimics the necklace member of the next interval inside a shrinking
window, trading excessive elements for missing ones. Tracking where the
mimicking fills all gaps is what lets witness_basis build an actual basis B
with |B ∩ E| = rank(E), following the recursion that proves the rank formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .cyclic import (
    CyclicInterval,
    IntervalDecomposition,
    decompose,
    half_open,
    open_interval,
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
    iv = CyclicInterval.span(a, b, P.n)
    J = frozenset(J)
    result = (J - iv.members) | (P.necklace.at(a) & iv.members)
    if not P.is_basis(result):
        raise ContractViolationError(
            f"interval exchange on [{a},{b}] left a non-basis; "
            f"the input did not maximize the interval"
        )
    return result


def _window_arcs(
    P: Positroid, J: frozenset[int], c: int, window: tuple[int, int]
) -> tuple[frozenset[int], frozenset[int], frozenset[int], bool]:
    """I_c, the arcs (b, c) and [c, d] of the window (b, d], and whether J is
    compatible: J ⊇ I_c on the first arc and J ⊆ I_c on the second."""
    b, d = window
    if not half_open(b, d, P.n).contains(c):
        raise ValidationError(f"center {c} lies outside the window ({b},{d}]")
    Ic = P.necklace.at(c)
    before = open_interval(b, c, P.n).members
    after = CyclicInterval.span(c, d, P.n).members
    return Ic, before, after, (Ic & before) <= J and (J & after) <= Ic


def is_compatible(P: Positroid, J: Iterable[int], c: int, window: tuple[int, int]) -> bool:
    """True when J ⊇ I_c strictly before c and J ⊆ I_c from c on, inside (b, d]."""
    return _window_arcs(P, frozenset(J), c, window)[3]


def _mimic_parts(
    P: Positroid, J: frozenset[int], c: int, window: tuple[int, int]
) -> tuple[tuple[int, ...], tuple[int, ...], frozenset[int], GapStatus]:
    Ic, before, after, compatible = _window_arcs(P, J, c, window)
    b, d = window
    if not compatible:
        raise ValidationError(
            f"set is not compatible with I_{c} in ({b},{d}]; cannot mimic"
        )
    n = P.n
    over = (J - Ic) & before
    missing = (Ic - J) & after
    alpha = min(len(over), len(missing))
    removed = tuple(sorted(over, key=lambda x: (x - b) % n, reverse=True)[:alpha])
    added = tuple(sorted(missing, key=lambda x: (x - b) % n)[:alpha])
    result = (J - set(removed)) | set(added)
    status = GapStatus.GAP_FREE if result & after == Ic & after else GapStatus.HAS_GAPS
    return removed, added, result, status


def mimic(
    P: Positroid, J: Iterable[int], c: int, window: tuple[int, int]
) -> tuple[frozenset[int], GapStatus]:
    """Trade J's biggest excessive elements before c for I_c's first missing
    elements from c on, as many as both sides allow ("biggest"/"first" in the
    order that starts right after the window's open end).

    Requires is_compatible(P, J, c, window). The status reports whether the
    result agrees with I_c on all of [c, d] (gap-free) or gaps remain.
    """
    removed, added, result, status = _mimic_parts(P, frozenset(J), c, window)
    return result, status


def morph_sequence(P: Positroid, E: IntervalDecomposition, i: int) -> list[MorphState]:
    """States J^0 .. J^{s-1} starting from interval i of E.

    The intervals are read cyclically from interval i; J^0 = I_{a_i}, and
    stage t mimics the necklace member of the (t+1)-st interval in that
    order, in the window (b_t, b_s].
    """
    s = E.s
    if not 1 <= i <= s:
        raise ValidationError(f"start index {i} out of range 1..{s}")
    order = [(i - 1 + k) % s for k in range(s)]
    starts = [E.intervals[k][0] for k in order]
    ends = [E.intervals[k][1] for k in order]
    members = P.necklace.at(starts[0])
    states = [MorphState(i, 0, members, None, None, None, None)]
    for t in range(1, s):
        window = (ends[t - 1], ends[s - 1])
        center = starts[t]
        removed, added, members, status = _mimic_parts(P, members, center, window)
        record = ExchangeRecord(ExchangeKind.MIMIC, removed, added)
        states.append(MorphState(i, t, members, status, window, center, record))
    return states


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
    """
    s = E.s
    if not 1 <= i <= s:
        raise ValidationError(f"interval index {i} out of range 1..{s}")
    B = frozenset(B)
    if not P.is_basis(B):
        raise ValidationError("align_basis needs a basis")
    target = rank_dp(P, E.members)
    if len(B & E.members) != target:
        raise ValidationError(
            f"basis meets the set in {len(B & E.members)} elements, "
            f"but the maximum is {target}"
        )
    n = P.n
    a_i, b_i = E.intervals[i - 1]
    b_prev = E.intervals[(i - 2) % s][1]
    Ia = P.necklace.at(a_i)
    gap = open_interval(b_prev, a_i, n).members
    own = CyclicInterval.span(a_i, b_i, n).members

    def key(x: int) -> int:
        return (x - a_i) % n

    def record(e: int, f: int) -> None:
        if trace is not None:
            trace.append(ExchangeRecord(ExchangeKind.BASIS_EXCHANGE, (e,), (f,)))

    while True:
        excess = (B & gap) - Ia
        if not excess:
            break
        e = max(excess, key=key)
        for f in sorted(Ia - B, key=key):
            candidate = (B - {e}) | {f}
            if P.is_basis(candidate):
                record(e, f)
                B = candidate
                break
        else:
            raise ContractViolationError(f"no exchange partner found for {e}")
    while True:
        missing = (Ia & own) - B
        if not missing:
            break
        g = min(missing, key=key)
        for e in sorted(B - Ia, key=key):
            candidate = (B - {e}) | {g}
            if P.is_basis(candidate):
                record(e, g)
                B = candidate
                break
        else:
            raise ContractViolationError(f"no exchange partner found for {g}")
    window = half_open(b_prev, b_i, n).members
    if B & window != Ia & window:
        raise ContractViolationError("alignment finished without window agreement")
    return B


def _witness_rec(P: Positroid, decomp: IntervalDecomposition) -> frozenset[int]:
    """A basis maximizing the union of decomp's intervals."""
    s = decomp.s
    if s == 0:
        return P.necklace.at(1) if P.n else frozenset()
    if s == 1:
        return P.necklace.at(decomp.intervals[0][0])
    seqs = [morph_sequence(P, decomp, i) for i in range(1, s + 1)]
    found: tuple[int, int] | None = None
    for t in range(1, s):
        for i in range(1, s + 1):
            state = seqs[i - 1][t]
            if state.status is GapStatus.GAP_FREE and P.is_basis(state.members):
                found = (i, t)
                break
        if found:
            break
    if found is None:
        # every stage kept gaps everywhere, so the fully morphed set is a
        # basis meeting each gap of E minimally: it attains the one-block bound
        return seqs[0][s - 1].members

    i, t = found
    order = [(i - 1 + k) % s for k in range(s)]
    starts = [decomp.intervals[k][0] for k in order]
    ends = [decomp.intervals[k][1] for k in order]
    seq = seqs[i - 1]
    n = P.n

    def filled(g: int, x: int) -> bool:
        # does J^g already agree with I at rotated start g+1, through end x
        arc = CyclicInterval.span(starts[g], ends[x - 1], n).members
        return seq[g].members & arc == P.necklace.at(starts[g]) & arc

    def gamma(x: int) -> int:
        for g in range(x - 1, -1, -1):
            if filled(g, x):
                return g
        raise ContractViolationError("merge scan failed; stage 0 must always match")

    pieces: list[tuple[int, int]] = []  # (g, x): rotated intervals g+1..x
    x = t
    while x > 0:
        g = gamma(x)
        pieces.append((g, x))
        x = g
    pieces.append((t, s))  # the tail the gap-free stage fully filled

    spliced = set(seq[t].members)
    for g, x in pieces:
        chosen = [order[k] + 1 for k in range(g, x)]
        piece = decomp.restrict(chosen)
        arc = CyclicInterval.span(starts[g], ends[x - 1], n).members
        K = _witness_rec(P, piece)
        anchor = next(
            idx for idx, (aa, _) in enumerate(piece.intervals, start=1) if aa == starts[g]
        )
        K = align_basis(P, K, piece, anchor)
        spliced -= arc
        spliced |= K & arc
    result = frozenset(spliced)
    if len(result) != P.d:
        raise ContractViolationError("splice changed the set's size")
    return result


def witness_basis(P: Positroid, E: Iterable[int]) -> frozenset[int]:
    """A basis B with |B ∩ E| = rank(E).

    Follows the morph recursion on P itself; loops and coloops need no
    special case. The result is checked to be a basis meeting E in rank(E)
    elements: a construction that misses that target, or that fails inside
    with a ValidationError, raises ContractViolationError.
    """
    members = frozenset(E)
    target = rank_dp(P, members)
    try:
        candidate = _witness_rec(P, decompose(members, P.n))
    except ValidationError as exc:
        raise ContractViolationError(f"witness construction failed: {exc}") from exc
    if not (P.is_basis(candidate) and len(candidate & members) == target):
        raise ContractViolationError(
            f"constructed witness {sorted(candidate)} is not a basis meeting E "
            f"in rank(E) = {target} elements"
        )
    return candidate
