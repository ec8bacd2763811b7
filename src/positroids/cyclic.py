"""Cyclic orders, cyclic intervals, and interval decompositions on [n].

The ground set is always {1, ..., n} arranged on a circle. Every notion of
order here is relative to a cut point i: reading clockwise starting at i
gives the linear order i < i+1 < ... < n < 1 < ... < i-1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator

from .errors import ValidationError

__all__ = [
    "position",
    "next_element",
    "prev_element",
    "cyclic_less",
    "cyclic_leq",
    "CyclicInterval",
    "open_interval",
    "half_open",
    "interval_contains",
    "IntervalDecomposition",
    "decompose",
    "gale_leq",
    "parse_set_spec",
    "format_set_spec",
]


def _check_ints(values: Iterable, what: str) -> None:
    """Reject anything but plain ints; bool is an int subclass and rejected too."""
    if not {int}.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) is not int)
        raise ValidationError(f"{what} must be integers, got {bad!r}")


def _check_element(x: int, n: int) -> None:
    if not 1 <= x <= n:
        raise ValidationError(f"element {x} out of range 1..{n}")


def position(x: int, i: int, n: int) -> int:
    """Rank of x in the order that starts at i: position(i, i, n) == 0."""
    _check_element(x, n)
    _check_element(i, n)
    return (x - i) % n


def next_element(x: int, n: int) -> int:
    _check_element(x, n)
    return x % n + 1


def prev_element(x: int, n: int) -> int:
    _check_element(x, n)
    return (x - 2) % n + 1


def cyclic_less(x: int, y: int, i: int, n: int) -> bool:
    """True when x comes strictly before y reading clockwise from i."""
    return position(x, i, n) < position(y, i, n)


def cyclic_leq(x: int, y: int, i: int, n: int) -> bool:
    return position(x, i, n) <= position(y, i, n)


@dataclass(frozen=True)
class CyclicInterval:
    """Closed cyclic interval [a, b] in {1..n}, or the empty interval.

    [a, b] means a, a+1, ..., b with wraparound, so [a, a-1] is the whole
    circle. Emptiness is a separate state (a is None, b is None) rather
    than a degenerate index pair, because every index pair already denotes
    a nonempty set.
    """

    n: int
    a: int | None
    b: int | None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValidationError("n must be nonnegative")
        if (self.a is None) != (self.b is None):
            raise ValidationError("either both or neither endpoint must be None")
        if self.a is not None:
            _check_ints((self.a, self.b), "interval endpoints")
            _check_element(self.a, self.n)
            _check_element(self.b, self.n)

    @classmethod
    def span(cls, a: int, b: int, n: int) -> "CyclicInterval":
        return cls(n, a, b)

    @classmethod
    def empty(cls, n: int) -> "CyclicInterval":
        return cls(n, None, None)

    @classmethod
    def full(cls, n: int) -> "CyclicInterval":
        return cls(n, 1, n)

    @property
    def is_empty(self) -> bool:
        return self.a is None

    @property
    def is_full(self) -> bool:
        return self.a is not None and position(self.b, self.a, self.n) == self.n - 1

    def __len__(self) -> int:
        if self.a is None:
            return 0
        return (self.b - self.a) % self.n + 1

    def contains(self, x: int) -> bool:
        if self.a is None:
            return False
        return position(x, self.a, self.n) <= position(self.b, self.a, self.n)

    def contains_interval(self, other: "CyclicInterval") -> bool:
        if other.n != self.n:
            raise ValidationError("intervals live on different ground sets")
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        pa = position(other.a, self.a, self.n)
        pb = position(other.b, self.a, self.n)
        return pa <= pb <= position(self.b, self.a, self.n)

    def elements(self) -> Iterator[int]:
        """The elements clockwise from a to b: one range, or two if it wraps."""
        if self.a is None:
            return iter(())
        if self.a <= self.b:
            return iter(range(self.a, self.b + 1))
        return chain(range(self.a, self.n + 1), range(1, self.b + 1))

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(self.elements())

    def __str__(self) -> str:
        if self.is_empty:
            return "[]"
        return f"[{self.a},{self.b}]"


def open_interval(b: int, a: int, n: int) -> CyclicInterval:
    """The open interval (b, a): everything strictly between b and a.

    (b, b) is the whole circle minus b, and (b, next(b)) is empty. This is
    the complement of the closed interval [a, b].
    """
    _check_element(b, n)
    _check_element(a, n)
    if a == next_element(b, n):
        return CyclicInterval.empty(n)
    return CyclicInterval.span(next_element(b, n), prev_element(a, n), n)


def half_open(b: int, d: int, n: int) -> CyclicInterval:
    """The half-open interval (b, d]: strictly after b, up to and including d.

    (b, b] is the full circle.
    """
    _check_element(b, n)
    _check_element(d, n)
    return CyclicInterval.span(next_element(b, n), d, n)


def interval_contains(outer: tuple[int, int], inner: tuple[int, int], n: int) -> bool:
    """Containment of closed cyclic intervals given as (a, b) pairs."""
    return CyclicInterval.span(*outer, n).contains_interval(
        CyclicInterval.span(*inner, n)
    )


@dataclass(frozen=True)
class IntervalDecomposition:
    """A subset of {1..n} written as its maximal disjoint cyclic intervals.

    Intervals are stored as (a, b) pairs ordered by increasing left endpoint
    in the plain linear order on 1..n. Maximality means no interval's end
    touches the next interval's start, so consecutive intervals are
    separated by nonempty gaps (unless the set is the whole circle, which
    is stored as the single interval (1, n); that is the one case where the
    "gap" is empty).
    """

    n: int
    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for a, b in self.intervals:
            iv = CyclicInterval.span(a, b, self.n)
            if seen & iv.members:
                raise ValidationError("intervals overlap")
            seen |= iv.members
        if len(self.intervals) > 1:
            for idx, (a, b) in enumerate(self.intervals):
                nxt = self.intervals[(idx + 1) % len(self.intervals)][0]
                if next_element(b, self.n) == nxt:
                    raise ValidationError("adjacent intervals must be merged")
        starts = [a for a, _ in self.intervals]
        if starts != sorted(starts):
            raise ValidationError("intervals must be sorted by left endpoint")

    @property
    def s(self) -> int:
        return len(self.intervals)

    @cached_property
    def members(self) -> frozenset[int]:
        out: set[int] = set()
        for a, b in self.intervals:
            out |= CyclicInterval.span(a, b, self.n).members
        return frozenset(out)

    def interval(self, i: int) -> CyclicInterval:
        """The i-th interval, 1-based."""
        if not 1 <= i <= self.s:
            raise ValidationError(f"interval index {i} out of range 1..{self.s}")
        a, b = self.intervals[i - 1]
        return CyclicInterval.span(a, b, self.n)

    def gap_pairs(self) -> tuple[tuple[int, int], ...]:
        """(b_i, a_{i+1}) endpoint pairs, one per interval, cyclically.

        The i-th entry is the gap following the i-th interval; the last
        entry wraps around to the first interval's start.
        """
        out = []
        for idx, (_, b) in enumerate(self.intervals):
            a_next = self.intervals[(idx + 1) % self.s][0]
            out.append((b, a_next))
        return tuple(out)

    def gaps(self) -> tuple[CyclicInterval, ...]:
        """The open gaps between consecutive intervals."""
        return tuple(open_interval(b, a, self.n) for b, a in self.gap_pairs())

    def restrict(self, which: Iterable[int]) -> "IntervalDecomposition":
        """Decomposition of the union of the chosen intervals (1-based).

        The chosen intervals stay maximal and disjoint, so this just
        re-wraps a subsequence; it never merges.
        """
        idx = sorted(set(which))
        for i in idx:
            if not 1 <= i <= self.s:
                raise ValidationError(f"interval index {i} out of range 1..{self.s}")
        chosen = tuple(self.intervals[i - 1] for i in idx)
        return IntervalDecomposition(self.n, chosen)


def _check_subset(members: Iterable[int], n: int) -> None:
    _check_ints(members, "set elements")
    for x in members:
        _check_element(x, n)


def decompose(members: Iterable[int], n: int) -> IntervalDecomposition:
    """Write a subset of {1..n} as its maximal cyclic intervals."""
    mem = set(members)
    _check_subset(mem, n)
    if not mem:
        return IntervalDecomposition(n, ())
    if len(mem) == n:
        return IntervalDecomposition(n, ((1, n),))
    starts = [x for x in mem if (x - 2) % n + 1 not in mem]
    intervals = []
    for a in sorted(starts):
        b = a
        while b % n + 1 in mem:
            b = b % n + 1
        intervals.append((a, b))
    return IntervalDecomposition(n, tuple(intervals))


def gale_leq(S: Iterable[int], T: Iterable[int], i: int, n: int) -> bool:
    """Componentwise order on equal-size subsets, sorted starting from i.

    S <= T iff after sorting both by position relative to i, every element
    of S is at or before the matching element of T.
    """
    ss = sorted(S, key=lambda x: position(x, i, n))
    tt = sorted(T, key=lambda x: position(x, i, n))
    if len(ss) != len(set(ss)) or len(tt) != len(set(tt)):
        raise ValidationError("arguments must be sets without repeats")
    if len(ss) != len(tt):
        raise ValidationError("sets must have the same size")
    return all(
        position(x, i, n) <= position(y, i, n) for x, y in zip(ss, tt)
    )


_RANGE_RE = re.compile(r"^(\d+)(?:-(\d+))?$")


def parse_set_spec(text: str, n: int) -> frozenset[int]:
    """Parse "1-2,7-10,13" into a subset of {1..n}.

    Ranges are cyclic: with n = 14, "12-2" means {12, 13, 14, 1, 2}. An
    empty string is the empty set.
    """
    text = text.strip()
    if not text:
        return frozenset()
    out: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        m = _RANGE_RE.match(part)
        if not m:
            raise ValidationError(f"cannot parse set term {part!r}")
        a = int(m.group(1))
        b = int(m.group(2)) if m.group(2) else a
        out |= CyclicInterval.span(a, b, n).members
    return frozenset(out)


def format_set_spec(members: Iterable[int], n: int) -> str:
    """Inverse of parse_set_spec, using the maximal-interval decomposition."""
    decomp = decompose(members, n)
    parts = []
    for a, b in decomp.intervals:
        parts.append(str(a) if a == b else f"{a}-{b}")
    return ",".join(parts)
