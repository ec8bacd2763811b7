"""Decorated permutations, Grassmann necklaces, and the positroids they define.

A positroid on {1..n} is stored as its decorated permutation pi alone, and
everything is read off pi's images: only pi_inv builds pi^{-1}. The necklace
entry I_k is the set of weak k-exceedances of pi: each pi(i) strictly before
i in the cyclic order starting at k, plus the black fixed points. A necklace
is stored as n-bit masks, entry k - 1 holding I_k with bit x - 1 standing
for x. It is built when first read: I_1 from that definition, then each
I_{k+1} from I_k by the transition rule
I_{k+1} = (I_k minus k) plus pi(k) (Postnikov, arXiv math/0609764 §16–17),
one XOR of two bits, so O(n) big-int steps. permutation_of reads pi(k) back
as the one bit I_{k+1} gains, by bit_length. The entries as frozensets are a
view on the masks, built the first time they are read. d = |I_1| takes O(n)
and no necklace. Membership of an arbitrary d-subset is decided by the
Gale-order test against the necklace (Oh, 2011), so no basis list is ever
materialized unless asked for.

The necklace is kept in two forms, each walked from the permutation and
cached on first use, since each has a caller that reads only it and deriving
one from the other measured slower (CHANGES.md has the timings):
- the necklace itself, `necklace.masks`: the public API, the `necklace` verb,
  the matrix path's comparisons and the witness path;
- the packed rows `_gale_packing`: the one packed Gale test `_gale_holds`,
  which packs the chosen anchors' windows of a batch of sorted sets and
  their floor rows into fixed-width fields of one int each and compares
  every set and anchor with one subtraction. is_basis and the witness path
  (its exchange tests and built sets) pass a batch of one set; the matrix
  path's certificate passes every scanned basis at once, and _gale_holds
  splits such a list into batches of at most _GALE_BATCH_FIELDS fields.
The floor rows themselves, `_floor_rows`, are walked again on each call of
enumerate_bases (n <= 20 by its cap), which costs one C-level comparison per
d-subset with a feasible least member plus O(d^2) per subset that passes it;
a caller that enumerates one positroid many times pays that O(n d) walk each
time.

Inputs are validated once, when a DecoratedPermutation or GrassmannNecklace
is made; code that holds one indexes it with raw (x - k) % n arithmetic.
Objects the package derives from validated ones skip that validation,
because they are valid by proof: necklace_of's necklace and permutation_of's
permutation (the two maps are mutually inverse bijections, Postnikov §16),
and reduce()'s relabeled permutation, which maps the non-fixed points
bijectively to themselves. Every public constructor and from_* method still
checks its input in full.
Everything a Positroid derives lazily (necklace, d, the packed Gale rows
and, once rank() answers on a positroid with loops or coloops, its
reduction) is cached on the Positroid itself and freed with it. Arrow
counts and rank queries live in positroids.rank.
"""

from __future__ import annotations

import sys
from array import array
from bisect import insort
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, combinations, repeat
from operator import ge, mul
from struct import pack
from typing import Callable, Iterable, Iterator, Sequence

from .cyclic import (
    _as_tuple,
    _check_distinct,
    _check_element,
    _check_ints,
    _check_nonnegative,
    _check_type,
    _checked_subset,
    _elements,
    _mask,
    _shown,
    _unchecked,
)
from .errors import EnumerationLimitError, ValidationError

__all__ = [
    "DecoratedPermutation",
    "GrassmannNecklace",
    "Positroid",
    "necklace_of",
    "permutation_of",
    "enumerate_bases",
    "rank_bruteforce",
    "loops_and_coloops",
    "reduce",
]

BASIS_ENUMERATION_CAP = 20

# a packed Gale test of many sets runs in batches of at most this many
# fields; a batch's packed ints, byte strings and slices hold about 34 bytes
# per field, so the certificate of a dense 6 x 20 matrix, 38,760 bases and
# 1.4 million fields, adds about half a megabyte to its peak
_GALE_BATCH_FIELDS = 1 << 14

_COLOR_NAMES = ("white", "black")


def _json_size(obj: dict, key: str) -> int:
    """The JSON object's "n", a plain nonnegative int equal to the number of
    entries of its list obj[key]; that number when "n" is left out."""
    count = len(obj[key])
    n = obj.get("n", count)
    if type(n) is not int or n < 0:
        shown = _shown(n) if type(n) is int else repr(n)
        raise ValidationError(f'"n" must be a nonnegative integer, got {shown}')
    if n != count:
        raise ValidationError(f'"n" is {_shown(n)} but "{key}" has {count} entries')
    return n


@dataclass(frozen=True)
class DecoratedPermutation:
    """A bijection of {1..n} with each fixed point colored white or black.

    n = 0 is allowed as a degenerate case: reduce() yields it when every
    element is fixed, and the JSON {"n": 0, "pi": []} reads as it.
    """

    n: int
    images: tuple[int, ...]
    white: frozenset[int]
    black: frozenset[int]

    def __post_init__(self) -> None:
        _check_nonnegative(self.n, "n")
        _check_type(self.images, tuple, "images")
        _check_type(self.white, frozenset, "white")
        _check_type(self.black, frozenset, "black")
        _check_ints(self.images, "permutation entries")
        _check_ints(self.white | self.black, "colored elements")
        if len(self.images) != self.n:
            raise ValidationError(
                f"one-line notation has {len(self.images)} entries, expected {self.n}"
            )
        if sorted(self.images) != list(range(1, self.n + 1)):
            raise ValidationError("images do not form a permutation of 1..n")
        fixed = {i for i in range(1, self.n + 1) if self.images[i - 1] == i}
        if self.white & self.black:
            raise ValidationError("white and black sets overlap")
        if self.white | self.black != fixed:
            missing = fixed - (self.white | self.black)
            extra = (self.white | self.black) - fixed
            if missing:
                raise ValidationError(f"fixed points {sorted(missing)} lack a color")
            raise ValidationError(f"colored elements {sorted(extra)} are not fixed points")

    @classmethod
    def from_oneline(
        cls,
        images: Iterable[int],
        white: Iterable[int] = (),
        black: Iterable[int] = (),
    ) -> "DecoratedPermutation":
        images = _as_tuple(images, "permutation entries")
        white, black = _as_tuple(white, "white"), _as_tuple(black, "black")
        # before freezing: {1, True} would collapse to {1} and hide the bool
        _check_ints(white + black, "colored elements")
        return cls(len(images), images, frozenset(white), frozenset(black))

    @cached_property
    def _inverse(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return tuple(inv)

    def pi(self, i: int) -> int:
        _check_element(i, self.n)
        return self.images[i - 1]

    def pi_inv(self, j: int) -> int:
        _check_element(j, self.n)
        return self._inverse[j - 1]

    @property
    def fixed_points(self) -> frozenset[int]:
        return self.white | self.black

    def color(self, i: int) -> str:
        _check_element(i, self.n)
        if i in self.white:
            return "white"
        if i in self.black:
            return "black"
        raise ValidationError(f"{i} is not a fixed point")

    def to_json(self) -> dict:
        out: dict = {"n": self.n, "pi": list(self.images)}
        if self.fixed_points:
            out["colors"] = {str(i): self.color(i) for i in sorted(self.fixed_points)}
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "DecoratedPermutation":
        if not isinstance(obj, dict) or not isinstance(obj.get("pi"), list):
            raise ValidationError('permutation JSON must be an object with a "pi" list')
        images = tuple(obj["pi"])
        n = _json_size(obj, "pi")
        colors = obj.get("colors", {})
        if not isinstance(colors, dict):
            raise ValidationError('"colors" must be an object')
        white, black = set(), set()
        for key, value in colors.items():
            # only the form to_json writes, str(i): int() would also read
            # " +1 ", "01" and "1_0"
            try:
                i = int(key)
            except (TypeError, ValueError):
                i = None
            if i is None or key != str(i):
                raise ValidationError(f"color key {key!r} is not an element")
            if value not in _COLOR_NAMES:
                raise ValidationError(f"color of {i} must be white or black, got {value!r}")
            (white if value == "white" else black).add(i)
        return cls(n, images, frozenset(white), frozenset(black))


@dataclass(frozen=True, init=False, repr=False)
class GrassmannNecklace:
    """Cyclic sequence (I_1, ..., I_n) of d-subsets obeying the transition rule:

    if i is in I_i then I_{i+1} = I_i minus i plus one element, otherwise
    I_{i+1} = I_i (indices mod n). Construction validates the rule.

    The necklace is stored as `masks`, I_k at entry k - 1 as an n-bit int
    with bit x - 1 standing for x; equality and hashing compare (n, d,
    masks). `sets` is a view, built from the masks when first read.
    """

    n: int
    d: int
    masks: tuple[int, ...]

    def __init__(self, n: int, d: int, sets: tuple[frozenset[int], ...]) -> None:
        _check_ints((n, d), "n and d")
        if not 0 <= d <= n:
            raise ValidationError(f"need 0 <= d <= n, got n = {n}, d = {d}")
        _check_type(sets, tuple, "sets")
        if len(sets) != n:
            raise ValidationError(f"necklace has {len(sets)} sets, expected {n}")
        for i, I in enumerate(sets, start=1):
            _check_type(I, frozenset, f"I_{i}")
            if len(I) != d:
                raise ValidationError(f"I_{i} has size {len(I)}, expected d = {d}")
        # the entries are checked once each on the union of the sets, which
        # has at most n elements when the transition rule holds
        entries = frozenset().union(*sets)
        _check_ints(entries, "necklace entries")
        lo, hi = (min(entries), max(entries)) if entries else (1, n)
        if lo < 1 or hi > n:
            x = lo if lo < 1 else hi
            i = next(i for i, I in enumerate(sets, start=1) if x in I)
            raise ValidationError(f"I_{i} contains {_shown(x)}, outside 1..{n}")
        # the masks follow the rule as it is checked: a step that drops i
        # gains exactly one element, as the sizes are equal
        m = _mask(sets[0]) if n else 0
        masks = []
        for i in range(1, n + 1):
            masks.append(m)
            cur, nxt = sets[i - 1], sets[i % n]
            lost = cur - nxt
            if lost == {i}:
                (gained,) = nxt - cur
                m ^= 1 << (i - 1) | 1 << (gained - 1)
            elif not lost:
                continue
            elif i not in cur:
                raise ValidationError(
                    f"transition broken at {i}: {i} is missing from I_{i} "
                    f"but I_{i + 1} differs from I_{i}"
                )
            else:
                raise ValidationError(
                    f"transition broken at {i}: I_{i + 1} does not contain I_{i} minus {{{i}}}"
                )
        # the validated frozensets serve as the view
        vars(self).update(n=n, d=d, masks=tuple(masks), sets=sets)

    @cached_property
    def sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(_elements(m)) for m in self.masks)

    def __repr__(self) -> str:
        # members in increasing order, whichever way the view was built
        entries = [f"frozenset({{{str(_elements(m))[1:-1]}}})" if m else "frozenset()"
                   for m in self.masks]
        sets = ", ".join(entries) + ("," if len(entries) == 1 else "")
        return f"GrassmannNecklace(n={self.n}, d={self.d}, sets=({sets}))"

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]], n: int | None = None) -> "GrassmannNecklace":
        raw = [_as_tuple(s, "necklace sets") for s in _as_tuple(sets, "sets")]
        for i, entries in enumerate(raw, start=1):
            # before freezing: {1, True} would collapse to {1} and hide the bool
            _check_ints(entries, f"entries of I_{i}")
            _check_distinct(entries, f"I_{i}")
        frozen = tuple(frozenset(s) for s in raw)
        if n is None:
            n = len(frozen)
        d = len(frozen[0]) if frozen else 0
        return cls(n, d, frozen)

    def at(self, i: int) -> frozenset[int]:
        """I_i with the index wrapping modulo n, so at(n+1) == at(1)."""
        _check_ints((i,), "necklace indices")
        if self.n == 0:
            raise ValidationError("empty necklace has no entries")
        return self.sets[(i - 1) % self.n]

    def to_json(self) -> dict:
        return {"n": self.n, "sets": [_elements(m) for m in self.masks]}

    @classmethod
    def from_json(cls, obj: dict) -> "GrassmannNecklace":
        if not isinstance(obj, dict) or "sets" not in obj:
            raise ValidationError('necklace JSON must be an object with a "sets" list')
        sets = obj["sets"]
        if not isinstance(sets, list) or not all(isinstance(I, list) for I in sets):
            raise ValidationError('"sets" must be a list of lists')
        return cls.from_sets(sets, _json_size(obj, "sets"))


def _first_entry(perm: DecoratedPermutation) -> set[int]:
    """I_1: the black fixed points and every pi(i) < i."""
    members = set(perm.black)
    members.update(j for i, j in enumerate(perm.images, start=1) if j < i)
    return members


def necklace_of(perm: DecoratedPermutation) -> GrassmannNecklace:
    """The necklace I_k = weak k-exceedances of the permutation, as masks.

    j = pi(i) lands in I_k when j comes strictly before i in the cyclic
    order starting at k, or when j is a black fixed point. Only I_1 is read
    off that definition. Moving the cut from k to k+1 changes the relative
    order of k and nothing else, so a fixed point k leaves the set alone,
    and a non-fixed k (always in I_k) leaves it while pi(k) joins: one XOR
    per step, O(n) big-int steps in all. Each step keeps the size and obeys
    the transition rule, so the necklace is built unchecked.
    """
    _check_type(perm, DecoratedPermutation, "perm")
    first = _first_entry(perm)
    m = _mask(first)
    masks = []
    for k, image in enumerate(perm.images, start=1):
        masks.append(m)
        if image != k:
            m ^= 1 << (k - 1) | 1 << (image - 1)
    return _unchecked(GrassmannNecklace, n=perm.n, d=len(first), masks=tuple(masks))


def permutation_of(neck: GrassmannNecklace) -> DecoratedPermutation:
    """The unique decorated permutation whose necklace is the given one.

    Convention: if I_{i+1} = I_i minus {i} plus {j} with j != i then
    pi(i) = j; if i is in I_i and I_{i+1} = I_i then pi(i) = i colored
    black; if i is not in I_i then pi(i) = i colored white. Read off the
    masks, j is the one bit I_{i+1} has and I_i lacks. A validated
    necklace yields a decorated permutation, so it is built unchecked.
    """
    _check_type(neck, GrassmannNecklace, "neck")
    n, masks = neck.n, neck.masks
    images = list(range(1, n + 1))
    white, black = set(), set()
    for i, cur in enumerate(masks, start=1):
        if not cur >> (i - 1) & 1:
            white.add(i)
            continue
        # the necklace obeys the transition rule, so at most one bit is new
        gained = masks[i % n] & ~cur
        if gained:
            images[i - 1] = gained.bit_length()
        else:
            black.add(i)
    return _unchecked(
        DecoratedPermutation,
        n=n, images=tuple(images), white=frozenset(white), black=frozenset(black),
    )


@dataclass(frozen=True)
class Positroid:
    """A positroid, carried by its decorated permutation alone; the necklace,
    d and the reduction are derived from perm when first read, so reduce()
    builds no necklace for the positroid it returns."""

    perm: DecoratedPermutation

    def __post_init__(self) -> None:
        _check_type(self.perm, DecoratedPermutation, "perm")

    @classmethod
    def from_oneline(
        cls,
        images: Iterable[int],
        white: Iterable[int] = (),
        black: Iterable[int] = (),
    ) -> "Positroid":
        return cls(DecoratedPermutation.from_oneline(images, white, black))

    @classmethod
    def from_necklace(cls, neck: GrassmannNecklace) -> "Positroid":
        P = cls(permutation_of(neck))
        # permutation_of inverts necklace_of on a valid necklace, so the
        # validated input is exactly the necklace P would derive
        vars(P).update(necklace=neck, d=neck.d)
        return P

    @classmethod
    def from_json(cls, obj: dict) -> "Positroid":
        return cls(DecoratedPermutation.from_json(obj))

    def to_json(self) -> dict:
        return self.perm.to_json()

    @property
    def n(self) -> int:
        return self.perm.n

    @cached_property
    def d(self) -> int:
        return len(_first_entry(self.perm))

    @cached_property
    def necklace(self) -> GrassmannNecklace:
        return necklace_of(self.perm)

    @cached_property
    def _reduction(self) -> tuple["Positroid", dict[int, int]]:
        # reduce(self), built once: rank() presents every certificate of a
        # positroid with loops or coloops on it
        return reduce(self)

    def _floor_rows(self, kind: Callable = list) -> Iterator:
        # row k-1: I_k read from k, each member written as k plus its position
        # from k (x or x + n), sorted; B >=_k I_k when B read the same way
        # lies at or above this row entry by entry. Rows follow necklace_of's
        # walk without building the necklace: moving the anchor past k keeps
        # every other member's value, so a non-fixed k (the row's first
        # entry) leaves and pi(k) joins, a black fixed point k moves to the
        # end as k + n, and a white one changes nothing. Each row is a new
        # sequence of the given kind, a list or _gale_packing's array
        n, black = self.n, self.perm.black
        row = kind(sorted(_first_entry(self.perm)))
        for k, image in enumerate(self.perm.images, start=1):
            yield row
            if image != k:
                row = row[1:]
                insort(row, image if image > k else image + n)
            elif k in black:
                row = row[1:]
                row.append(k + n)

    @cached_property
    def _gale_packing(self) -> tuple[str, int, tuple[bytes, ...], bytes, int]:
        # (struct code, field bytes, packed floor rows, lift, guards): the
        # narrowest field whose top bit, the guard, lies above every lifted
        # value (all are below 2n); the floor rows in such fields; the lift,
        # d guards then d guards plus n, added to a set listed twice; and the
        # guard bits of d windows, which a test of fewer fields shifts down.
        # The rows are walked as arrays of the field width, each row's bytes
        # its fields, swapped to little-endian on a big-endian host
        n, d = self.n, self.d
        code, width = ("H", 2) if 2 * n < 1 << 15 else ("I", 4) if 2 * n < 1 << 31 else ("Q", 8)
        guard = 1 << (8 * width - 1)
        typecode = next(c for c in "HILQ" if array(c).itemsize == width)
        rows = tuple(map(array.tobytes, self._floor_rows(partial(array, typecode))))
        if sys.byteorder == "big":
            swapped = [array(typecode, raw) for raw in rows]
            for row in swapped:
                row.byteswap()
            rows = tuple(map(array.tobytes, swapped))
        lift = pack(f"<{2 * d}{code}", *[guard] * d, *[guard + n] * d)
        guards = int.from_bytes(lift[:width] * (d * d), "little")
        return code, width, rows, lift, guards

    def _gale_holds(self, sets: Sequence[Sequence[int]], anchors: Sequence[int]) -> int:
        """How many of the sets, from the first, pass B >=_b I_b at every
        anchor b = B[i] with i in anchors: len(sets) iff all of them do.

        Each B is a sorted d-set. Listed twice, each copy as fields of w
        bytes, and lifted by one addition of the packed lift, it becomes
        lifted, whose lifted[i:i + d] is B read cyclically from B[i], each
        element as B[i] plus its position from there, so one sort serves
        every anchor. The chosen windows of every set and their floor rows
        are packed into one int each, with the guard bit 2^(8w - 1) set in
        every window field. Every value lies below the guard, so subtracting
        the floors borrows no field's guard from its neighbour, and it
        clears a field's guard exactly when that member lies below its
        floor: one subtraction and one mask test for a whole batch of at
        most _GALE_BATCH_FIELDS fields (or of one set, if that has more),
        O(d) per set and anchor at C level. The lowest cleared guard lies in
        the first set that fails.
        """
        d = self.d
        code, width, rows, lift, guards = self._gale_packing
        span, fields = d * width, len(anchors) * d
        if not fields:
            return len(sets)
        step = _GALE_BATCH_FIELDS // fields or 1
        for lo in range(0, len(sets), step):
            batch = sets[lo : lo + step]
            m = len(batch)
            raw = pack(f"<{2 * d * m}{code}", *chain.from_iterable(map(mul, batch, repeat(2))))
            lifted = int.from_bytes(raw, "little") + int.from_bytes(lift * m, "little")
            lifted = lifted.to_bytes(len(raw), "little")
            windows = b"".join([
                lifted[(p := b + i * width) : p + span]
                for b in range(0, len(raw), 2 * span) for i in anchors
            ])
            floors = b"".join([rows[B[i] - 1] for B in batch for i in anchors])
            size = m * fields
            if size <= d * d:
                mask = guards >> (d * d - size) * 8 * width
            else:
                mask = int.from_bytes(lift[:width] * size, "little")
            held = (int.from_bytes(windows, "little") - int.from_bytes(floors, "little")) & mask
            if held != mask:
                missing = held ^ mask
                return lo + ((missing & -missing).bit_length() - 1) // (8 * width * fields)
        return len(sets)

    def is_basis(self, B: Iterable[int]) -> bool:
        """Gale-order membership test: B is a basis iff B >=_b I_b for all b in B.

        Sorts B once, then tests all d anchors with one big-int subtraction
        against floor rows packed once per positroid (_gale_holds, a batch
        of one set): O(d log d + d^2), the d^2 part in C-level byte joins and
        int arithmetic.
        """
        listing = _as_tuple(B, "set elements")
        ordered = sorted(_checked_subset(listing, self.n))
        # B is a listing, and freezing it reads a repeated element as a
        # smaller set: refused once its entries are checked
        _check_distinct(listing, "basis")
        if len(ordered) != self.d:
            return False
        return self._gale_holds([ordered], range(self.d)) == 1


def enumerate_bases(P: Positroid) -> Iterator[frozenset[int]]:
    """All bases in lexicographic order, capped at n = 20.

    A basis x_1 < ... < x_d read from its least member x_1 needs no wrap,
    so x_1's own Gale condition is x_t >= row_t of I_{x_1} for each t, and
    an x_1 outside I_{x_1} or whose last floor exceeds n leads no basis.
    For each other x_1, itertools.combinations lists the larger elements'
    (d - 1)-subsets in lex order, and one C-level comparison keeps those at
    or above the rest of x_1's row. Each kept subset is lifted once and
    compared with its other anchors' floors one at a time, stopping at the
    first failure, which beats is_basis's packed test here because most of
    these subsets fail early. The cost is one comparison per d-subset with a
    feasible least member, plus O(d^2) per subset that passes it.
    """
    _check_type(P, Positroid, "P")
    if P.n > BASIS_ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"basis enumeration is capped at n = {BASIS_ENUMERATION_CAP}, got n = {P.n}"
        )
    n, d = P.n, P.d
    if d == 0:
        yield frozenset()
        return
    floors = list(P._floor_rows())
    for first, floor in enumerate(floors, start=1):
        if floor[0] != first or floor[-1] > n:
            continue
        rest = floor[1:]
        for tail in combinations(range(first + 1, n + 1), d - 1):
            if not all(map(ge, tail, rest)):
                continue
            B = (first, *tail)
            lifted = B + tuple(y + n for y in B)
            for i in range(1, d):
                if not all(map(ge, lifted[i : i + d], floors[B[i] - 1])):
                    break
            else:
                yield frozenset(B)


def rank_bruteforce(P: Positroid, E: Iterable[int]) -> int:
    """max |B ∩ E| over all bases B. Exponential; the testing oracle."""
    _check_type(P, Positroid, "P")
    members = _checked_subset(E, P.n)
    return max(len(B & members) for B in enumerate_bases(P))


def loops_and_coloops(P: Positroid) -> tuple[frozenset[int], frozenset[int]]:
    """(loops, coloops) = (white fixed points, black fixed points)."""
    _check_type(P, Positroid, "P")
    return P.perm.white, P.perm.black


def reduce(P: Positroid) -> tuple[Positroid, dict[int, int]]:
    """Delete all loops and coloops, relabeling the survivors 1..m in order.

    Returns the reduced positroid and the old -> new label map (keyed by the
    surviving elements only). The reduced permutation has no fixed points.
    For every subset E of the original ground set:

        rank(P, E) = rank(P', {map[x] for x in E if x survives}) + |E ∩ coloops|

    pi maps the survivors onto themselves without fixing any, so the
    relabeled permutation is built unchecked.
    """
    _check_type(P, Positroid, "P")
    images, fixed = P.perm.images, P.perm.fixed_points
    kept = [x for x in range(1, P.n + 1) if x not in fixed]
    relabel = {old: new for new, old in enumerate(kept, start=1)}
    reduced = tuple(relabel[images[old - 1]] for old in kept)
    perm = _unchecked(
        DecoratedPermutation,
        n=len(kept), images=reduced, white=frozenset(), black=frozenset(),
    )
    return Positroid(perm), relabel
