"""Cyclic orders, cyclic intervals, and interval decompositions on [n].

The ground set is always {1, ..., n} arranged on a circle. Every notion of
order here is relative to a cut point i: reading clockwise starting at i
gives the linear order i < i+1 < ... < n < 1 < ... < i-1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count
from math import log10
from typing import Iterable, Iterator, TypeVar

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


_T = TypeVar("_T")


def _unchecked(cls: type[_T], **fields: object) -> _T:
    """An instance of the frozen dataclass cls holding fields, made without
    running its __post_init__ checks.

    Only constructions that are valid by proof may call it: the conversions
    between validated permutations and necklaces, a reduction, maximal runs
    of a checked set, partitions read off the package's own enumeration and
    a matrix's column matroid. A source test fences the callers.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# an int longer than this is named in messages by its number of digits
_SHOWN_DIGITS = 100


def _shown(x: int) -> str:
    """The int x as a message writes it: its digits, or past _SHOWN_DIGITS
    of them their count, so that no message meets str()'s digit limit."""
    m = abs(x)
    if m < 10 ** _SHOWN_DIGITS:
        return str(x)
    # 10**k <= m < 10**(k + 1), from the bit length give or take one
    k = int((m.bit_length() - 1) * log10(2))
    k += (m >= 10 ** (k + 1)) - (m < 10 ** k)
    return f"<{'negative ' if x < 0 else ''}{k + 1}-digit integer>"


def _check_ints(values: Iterable, what: str) -> None:
    """Reject anything but plain ints; bool is an int subclass and rejected too."""
    if not {int}.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) is not int)
        raise ValidationError(f"{what} must be integers, got {bad!r}")


def _check_distinct(values: tuple, what: str) -> None:
    """Reject a listing that names an element twice, which freezing would
    read as a smaller set; run after _check_ints, so a bool is named as one."""
    if len(set(values)) != len(values):
        x = next(x for i, x in enumerate(values) if x in values[:i])
        raise ValidationError(f"{what} {list(values)} lists {x} twice")


def _as_tuple(values: object, what: str) -> tuple:
    """values as a tuple, or ValidationError when they are not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise ValidationError(f"{what} must be a collection, got {values!r}") from None


def _as_pair(value: object, what: str) -> tuple:
    """value as a 2-tuple, or ValidationError when it is not one."""
    pair = _as_tuple(value, what)
    if len(pair) != 2:
        raise ValidationError(f"{what} must be a pair, got {value!r}")
    return pair


def _check_type(value: object, cls: type, what: str) -> None:
    """Reject anything but an instance of cls, such as a package object."""
    if not isinstance(value, cls):
        raise ValidationError(f"{what} must be a {cls.__name__}, not {type(value).__name__}")


def _check_ground(m: int, n: int) -> None:
    """Reject an argument on {1..m} paired with a positroid on {1..n}."""
    if m != n:
        raise ValidationError(f"argument lives on 1..{_shown(m)}, but the positroid on 1..{_shown(n)}")


def _check_nonnegative(value: int, what: str) -> None:
    """Reject anything but a plain int at least 0, such as a ground-set size."""
    _check_ints((value,), what)
    if value < 0:
        raise ValidationError(f"{what} must be nonnegative")


def _check_element(x: int, n: int) -> None:
    """Reject anything but a plain int in 1..n; bool is rejected too."""
    if type(x) is not int:
        raise ValidationError(f"elements must be integers, got {x!r}")
    if type(n) is not int:
        raise ValidationError(f"n must be an integer, got {n!r}")
    if not 1 <= x <= n:
        raise ValidationError(f"element {_shown(x)} out of range 1..{_shown(n)}")


def _check_index(i: int, s: int, what: str) -> None:
    """Reject anything but a plain int in 1..s, such as a 1-based interval index."""
    _check_ints((i,), what)
    if not 1 <= i <= s:
        raise ValidationError(f"{what} {_shown(i)} out of range 1..{_shown(s)}")


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
        _check_nonnegative(self.n, "n")
        if (self.a is None) != (self.b is None):
            raise ValidationError("either both or neither endpoint must be None")
        if self.a is not None:
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
        _check_type(other, CyclicInterval, "other")
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
    return CyclicInterval.span(*_as_pair(outer, "outer"), n).contains_interval(
        CyclicInterval.span(*_as_pair(inner, "inner"), n)
    )


@dataclass(frozen=True)
class IntervalDecomposition:
    """A subset of {1..n} written as its maximal disjoint cyclic intervals.

    Intervals are stored as (a, b) pairs ordered by increasing left endpoint
    in the plain linear order on 1..n. Maximality means no interval's end
    touches the next interval's start, so consecutive intervals are
    separated by nonempty gaps (unless the set is the whole circle, which
    is stored, and must be written, as the single interval (1, n); that is
    the one case where the "gap" is empty).
    """

    n: int
    intervals: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.n
        _check_nonnegative(n, "n")
        intervals = [_as_pair(iv, "interval") for iv in _as_tuple(self.intervals, "intervals")]
        starts = [a for a, _ in intervals]
        endpoints = starts + [b for _, b in intervals]
        for x in endpoints:
            _check_element(x, n)
        if starts != sorted(starts):
            raise ValidationError("intervals must be sorted by left endpoint")
        if len(intervals) == 1:
            ((a, b),) = intervals
            if a == b % n + 1 and a != 1:
                raise ValidationError(f"the whole circle is written (1, {n}), not ({a}, {b})")
        if len(intervals) > 1:
            # sorted intervals are disjoint iff each fits in the room up to
            # the next start, and maximal iff none fills that room exactly
            lengths = [(b - a) % n + 1 for a, b in intervals]
            room = [(nxt - a) % n for a, nxt in zip(starts, starts[1:] + starts[:1])]
            if any(length > r for length, r in zip(lengths, room)):
                raise ValidationError("intervals overlap")
            if any(length == r for length, r in zip(lengths, room)):
                raise ValidationError("adjacent intervals must be merged")

    @property
    def s(self) -> int:
        return len(self.intervals)

    @cached_property
    def _members_mask(self) -> int:
        """The members as an n-bit mask: the OR of the intervals' arcs."""
        m = 0
        for a, b in self.intervals:
            m |= _arc(a, b, self.n)
        return m

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(_elements(self._members_mask))

    def interval(self, i: int) -> CyclicInterval:
        """The i-th interval, 1-based."""
        _check_index(i, self.s, "interval index")
        return CyclicInterval.span(*self.intervals[i - 1], self.n)

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
        re-wraps a subsequence; it never merges, so the result needs no
        re-check: dropping intervals only widens the gaps between the rest.
        """
        idx = _as_tuple(which, "interval indices")
        # each checked before the set: {1, True} would collapse and hide the bool
        for i in idx:
            _check_index(i, self.s, "interval index")
        chosen = tuple(self.intervals[i - 1] for i in sorted(set(idx)))
        return _unchecked(IntervalDecomposition, n=self.n, intervals=chosen)


def _checked_subset(members: Iterable[int], n: int) -> frozenset[int]:
    """members as a subset of {1..n}, checked before it is frozen: a set
    would collapse {1, True} to whichever came first and hide the bool."""
    elements = _as_tuple(members, "set elements")
    _check_ints(elements, "set elements")
    mem = frozenset(elements)
    if mem:
        _check_element(min(mem), n)
        _check_element(max(mem), n)
    return mem


def decompose(members: Iterable[int], n: int) -> IntervalDecomposition:
    """Write a subset of {1..n} as its maximal cyclic intervals, built
    unchecked: once the subset is checked, its runs are valid by construction."""
    _check_nonnegative(n, "n")
    runs = _mask_intervals(_mask(_checked_subset(members, n)), n)
    return _unchecked(IntervalDecomposition, n=n, intervals=runs)


# bin() digits to the bytes 0 and 1, which compress() reads as flags
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _mask(S: Iterable[int]) -> int:
    """The n-bit int of a set of elements: bit x - 1 stands for x."""
    m = 0
    for x in S:
        m |= 1 << (x - 1)
    return m


def _arc(a: int, b: int, n: int) -> int:
    """The mask of the closed cyclic interval [a, b]; [a, a - 1] is the full circle."""
    below_a, up_to_b = (1 << (a - 1)) - 1, (1 << b) - 1
    return up_to_b ^ below_a if a <= b else ((1 << n) - 1) ^ below_a | up_to_b


def _elements(m: int) -> list[int]:
    """The members of the mask m in increasing order, read in O(n) at C level."""
    return list(compress(count(1), bin(m)[:1:-1].encode().translate(_DIGIT_FLAGS)))


def _mask_intervals(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """The maximal cyclic runs of the n-bit mask m as (start, end) pairs
    sorted by start, the whole circle as (1, n). No mask of n bits is
    built, so a huge n with few members costs only m's bits."""
    if m.bit_count() == n:
        return ((1, n),) if n else ()
    if not m:
        return ()
    # a start's predecessor and an end's successor lie outside m
    starts = _elements(m & ~(m << 1))
    ends = _elements(m & ~(m >> 1))
    if m & 1 and m >> (n - 1):
        # a run through n and 1 neither starts at 1 nor ends at n; it comes last
        del starts[0], ends[-1]
        ends.append(ends.pop(0))
    return tuple(zip(starts, ends))


def gale_leq(S: Iterable[int], T: Iterable[int], i: int, n: int) -> bool:
    """Componentwise order on equal-size subsets, sorted starting from i.

    S <= T iff after sorting both by position relative to i, every element
    of S is at or before the matching element of T.
    """
    S, T = _as_tuple(S, "S"), _as_tuple(T, "T")
    ss = sorted(S, key=lambda x: position(x, i, n))
    tt = sorted(T, key=lambda x: position(x, i, n))
    if len(ss) != len(set(ss)) or len(tt) != len(set(tt)):
        raise ValidationError("arguments must be sets without repeats")
    if len(ss) != len(tt):
        raise ValidationError("sets must have the same size")
    return all(
        position(x, i, n) <= position(y, i, n) for x, y in zip(ss, tt)
    )


# ASCII digits only: a bare \d also matches other scripts' digits, "٣" as 3
_RANGE_RE = re.compile(r"^(\d+)(?:-(\d+))?$", re.ASCII)


def _spec_element(digits: str, n: int) -> int:
    """The element a set term's digits name. More digits than n has are
    refused by their count, before int() would meet its digit limit."""
    significant = digits.lstrip("0")
    if len(significant) > 1 and 10 ** (len(significant) - 1) > n:
        raise ValidationError(f"a {len(significant)}-digit element is out of range 1..{n}")
    try:
        return int(significant or "0")
    except ValueError as exc:  # past int()'s digit limit, with n as long
        raise ValidationError(f"cannot read a {len(significant)}-digit element") from exc


def parse_set_spec(text: str, n: int) -> frozenset[int]:
    """Parse "1-2,7-10,13" into a subset of {1..n}.

    Ranges are cyclic: with n = 14, "12-2" means {12, 13, 14, 1, 2}. An
    empty string is the empty set.
    """
    if type(text) is not str:
        raise ValidationError(f"a set spec must be a string, got {text!r}")
    _check_nonnegative(n, "n")
    text = text.strip()
    if not text:
        return frozenset()
    out: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        m = _RANGE_RE.match(part)
        if not m:
            raise ValidationError(f"cannot parse set term {part!r}")
        a = _spec_element(m.group(1), n)
        b = _spec_element(m.group(2), n) if m.group(2) else a
        out |= CyclicInterval.span(a, b, n).members
    return frozenset(out)


def format_set_spec(members: Iterable[int], n: int) -> str:
    """Inverse of parse_set_spec, using the maximal-interval decomposition."""
    decomp = decompose(members, n)
    parts = []
    for a, b in decomp.intervals:
        parts.append(str(a) if a == b else f"{a}-{b}")
    return ",".join(parts)
