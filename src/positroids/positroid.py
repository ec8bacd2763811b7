"""Decorated permutations, Grassmann necklaces, and the positroids they define.

A positroid on {1..n} is stored as a decorated permutation pi together with
its derived necklace (I_1, ..., I_n). The necklace entry I_k is the set of
weak k-exceedances of pi: elements j with j strictly before pi^{-1}(j) in
the cyclic order starting at k, plus the black fixed points. The necklace
is built once per construction, in O(n·d): I_1 from that definition, then
each I_{k+1} from I_k by the transition rule I_{k+1} = (I_k minus k) plus
pi(k) (Postnikov, arXiv math/0609764 §16–17). Membership of an arbitrary
d-subset is decided by the Gale-order test against the necklace (Oh, 2011),
so no basis list is ever materialized unless asked for. The test sorts B
once and then makes one O(d) comparison per anchor b in B; enumerating the
bases walks only the subsets that pass their first member's own condition.

Inputs are validated once, when a DecoratedPermutation or GrassmannNecklace
is made; code that holds one indexes it with raw (x - k) % n arithmetic.
Everything a Positroid derives lazily (Gale floors, arrow rows, its
reduction) is cached on the Positroid itself and freed with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import ge
from typing import Iterable, Iterator

from .cyclic import CyclicInterval, _check_ints
from .errors import EnumerationLimitError, ValidationError

__all__ = [
    "DecoratedPermutation",
    "GrassmannNecklace",
    "ArrowTable",
    "Positroid",
    "necklace_of",
    "permutation_of",
    "enumerate_bases",
    "rank_bruteforce",
    "loops_and_coloops",
    "reduce",
]

BASIS_ENUMERATION_CAP = 20

_COLOR_NAMES = ("white", "black")


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
        _check_ints((self.n,), "n")
        if self.n < 0:
            raise ValidationError("n must be nonnegative")
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
        images = tuple(images)
        return cls(len(images), images, frozenset(white), frozenset(black))

    @cached_property
    def _inverse(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return tuple(inv)

    def pi(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValidationError(f"element {i} out of range 1..{self.n}")
        return self.images[i - 1]

    def pi_inv(self, j: int) -> int:
        if not 1 <= j <= self.n:
            raise ValidationError(f"element {j} out of range 1..{self.n}")
        return self._inverse[j - 1]

    @property
    def fixed_points(self) -> frozenset[int]:
        return self.white | self.black

    def color(self, i: int) -> str:
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
        n = obj.get("n", len(images))
        if n != len(images):
            raise ValidationError(f'"n" is {n} but "pi" has {len(images)} entries')
        colors = obj.get("colors", {})
        if not isinstance(colors, dict):
            raise ValidationError('"colors" must be an object')
        white, black = set(), set()
        for key, value in colors.items():
            try:
                i = int(key)
            except (TypeError, ValueError):
                raise ValidationError(f"color key {key!r} is not an element") from None
            if value not in _COLOR_NAMES:
                raise ValidationError(f"color of {i} must be white or black, got {value!r}")
            (white if value == "white" else black).add(i)
        return cls(n, images, frozenset(white), frozenset(black))


@dataclass(frozen=True)
class GrassmannNecklace:
    """Cyclic sequence (I_1, ..., I_n) of d-subsets obeying the transition rule:

    if i is in I_i then I_{i+1} = I_i minus i plus one element, otherwise
    I_{i+1} = I_i (indices mod n). Construction validates the rule.
    """

    n: int
    d: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        _check_ints((self.n, self.d), "n and d")
        if self.n < 0:
            raise ValidationError("n must be nonnegative")
        if len(self.sets) != self.n:
            raise ValidationError(f"necklace has {len(self.sets)} sets, expected {self.n}")
        for i, I in enumerate(self.sets, start=1):
            if len(I) != self.d:
                raise ValidationError(f"I_{i} has size {len(I)}, expected d = {self.d}")
        # the entries are checked once each on the union of the sets, which
        # has at most n elements when the transition rule holds
        entries = frozenset().union(*self.sets)
        _check_ints(entries, "necklace entries")
        lo, hi = (min(entries), max(entries)) if entries else (1, self.n)
        if lo < 1 or hi > self.n:
            x = lo if lo < 1 else hi
            i = next(i for i, I in enumerate(self.sets, start=1) if x in I)
            raise ValidationError(f"I_{i} contains {x}, outside 1..{self.n}")
        for i in range(1, self.n + 1):
            cur = self.sets[i - 1]
            lost = cur - self.sets[i % self.n]
            if not lost or lost == {i}:
                continue
            if i not in cur:
                raise ValidationError(
                    f"transition broken at {i}: {i} is missing from I_{i} "
                    f"but I_{i + 1} differs from I_{i}"
                )
            raise ValidationError(
                f"transition broken at {i}: I_{i + 1} does not contain I_{i} minus {{{i}}}"
            )

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]], n: int | None = None) -> "GrassmannNecklace":
        raw = [tuple(s) for s in sets]
        for i, entries in enumerate(raw, start=1):
            # before freezing: {1, True} would collapse to {1} and hide the bool
            _check_ints(entries, f"entries of I_{i}")
        frozen = tuple(frozenset(s) for s in raw)
        if n is None:
            n = len(frozen)
        d = len(frozen[0]) if frozen else 0
        return cls(n, d, frozen)

    def at(self, i: int) -> frozenset[int]:
        """I_i with the index wrapping modulo n, so at(n+1) == at(1)."""
        if self.n == 0:
            raise ValidationError("empty necklace has no entries")
        return self.sets[(i - 1) % self.n]

    def to_json(self) -> dict:
        return {"n": self.n, "sets": [sorted(I) for I in self.sets]}

    @classmethod
    def from_json(cls, obj: dict) -> "GrassmannNecklace":
        if not isinstance(obj, dict) or "sets" not in obj:
            raise ValidationError('necklace JSON must be an object with a "sets" list')
        sets = obj["sets"]
        if not isinstance(sets, list) or not all(isinstance(I, list) for I in sets):
            raise ValidationError('"sets" must be a list of lists')
        n = obj.get("n", len(sets))
        if n != len(sets):
            raise ValidationError(f'"n" is {n} but "sets" has {len(sets)} entries')
        return cls.from_sets(sets, n)


def necklace_of(perm: DecoratedPermutation) -> GrassmannNecklace:
    """The necklace I_k = weak k-exceedances of the permutation, in O(n·d).

    j lands in I_k when j comes strictly before pi^{-1}(j) in the cyclic
    order starting at k, or when j is a black fixed point. Only I_1 is read
    off that definition. Moving the cut from k to k+1 changes the relative
    order of k and nothing else, so a fixed point k leaves the set alone,
    and a non-fixed k (always in I_k) leaves it while pi(k) joins.
    """
    n = perm.n
    members = set(perm.black)
    members.update(j for j, pre in enumerate(perm._inverse, start=1) if j < pre)
    sets = []
    for k, image in enumerate(perm.images, start=1):
        sets.append(frozenset(members))
        if image != k:
            members.remove(k)
            members.add(image)
    return GrassmannNecklace(n, len(members), tuple(sets))


def permutation_of(neck: GrassmannNecklace) -> DecoratedPermutation:
    """The unique decorated permutation whose necklace is the given one.

    Convention: if I_{i+1} = I_i minus {i} plus {j} with j != i then
    pi(i) = j; if i is in I_i and I_{i+1} = I_i then pi(i) = i colored
    black; if i is not in I_i then pi(i) = i colored white.
    """
    n = neck.n
    images = list(range(1, n + 1))
    white, black = set(), set()
    for i, cur in enumerate(neck.sets, start=1):
        if i not in cur:
            white.add(i)
            continue
        # the necklace obeys the transition rule, so at most one element is new
        gained = neck.sets[i % n] - cur
        if gained:
            (images[i - 1],) = gained
        else:
            black.add(i)
    return DecoratedPermutation(n, tuple(images), frozenset(white), frozenset(black))


class ArrowTable:
    """Per-anchor prefix counts of arrows, one O(n) row per anchor on demand.

    A CW-arrow is the cyclic interval [x, pi(x)], a CCW-arrow is
    [x, pi^{-1}(x)]. An arrow [x, y] is counted in the interval [a, b] when
    both ends lie in the interval and x comes before y reading from the
    anchor a. On every proper interval this is plain containment of the
    arrow; anchoring only matters for the full circle, where it makes
    cw(full) = n - d and ccw(full) = d so that the rank identities of
    positroids.rank stay valid. Singleton arrows of fixed points count
    toward cw when white, ccw when black.

    Row `cw_row(a)[L]` counts the CW-arrows inside the L elements read from
    a (likewise `ccw_row`). A row is built in O(n) the first time its anchor
    is asked for and kept, so a query touching s anchors costs O(s·n) once
    and O(1) per interval afterwards. Each Positroid owns one table.
    """

    def __init__(self, perm: DecoratedPermutation) -> None:
        self.perm = perm
        self._cw_rows: dict[int, tuple[int, ...]] = {}
        self._ccw_rows: dict[int, tuple[int, ...]] = {}

    def _row(self, anchor: int, ends: tuple[int, ...], singletons: frozenset[int]) -> tuple[int, ...]:
        n = self.perm.n
        bucket = [0] * (n + 1)  # bucket[p + 1]: arrows whose later end sits at position p
        for x, y in enumerate(ends, start=1):
            px = (x - anchor) % n
            if y == x:
                if x in singletons:
                    bucket[px + 1] += 1
            else:
                py = (y - anchor) % n
                if px < py:
                    bucket[py + 1] += 1
        return tuple(accumulate(bucket))

    def cw_row(self, anchor: int) -> tuple[int, ...]:
        row = self._cw_rows.get(anchor)
        if row is None:
            row = self._cw_rows[anchor] = self._row(anchor, self.perm.images, self.perm.white)
        return row

    def ccw_row(self, anchor: int) -> tuple[int, ...]:
        row = self._ccw_rows.get(anchor)
        if row is None:
            row = self._ccw_rows[anchor] = self._row(anchor, self.perm._inverse, self.perm.black)
        return row

    def cw(self, T: CyclicInterval) -> int:
        if T.is_empty:
            return 0
        return self.cw_row(T.a)[len(T)]

    def ccw(self, T: CyclicInterval) -> int:
        if T.is_empty:
            return 0
        return self.ccw_row(T.a)[len(T)]


@dataclass(frozen=True)
class Positroid:
    """A positroid, carried by its decorated permutation plus its necklace."""

    perm: DecoratedPermutation
    necklace: GrassmannNecklace

    def __post_init__(self) -> None:
        # Both inputs are already validated, and a necklace obeys the
        # transition rule, so it is the necklace of perm exactly when every
        # step k drops k and gains pi(k), keeps a black fixed point and
        # skips a white one: O(n) membership tests instead of a rebuild.
        perm, sets = self.perm, self.necklace.sets
        n = perm.n
        if self.necklace.n != n:
            raise ValidationError("necklace does not match the permutation")
        for k, image in enumerate(perm.images, start=1):
            cur, nxt = sets[k - 1], sets[k % n]
            if image != k:
                ok = k in cur and image in nxt and image not in cur
            elif k in perm.black:
                ok = k in cur and k in nxt
            else:
                ok = k not in cur
            if not ok:
                raise ValidationError("necklace does not match the permutation")

    @classmethod
    def from_permutation(cls, perm: DecoratedPermutation) -> "Positroid":
        return cls(perm, necklace_of(perm))

    @classmethod
    def from_oneline(
        cls,
        images: Iterable[int],
        white: Iterable[int] = (),
        black: Iterable[int] = (),
    ) -> "Positroid":
        return cls.from_permutation(DecoratedPermutation.from_oneline(images, white, black))

    @classmethod
    def from_necklace(cls, neck: GrassmannNecklace) -> "Positroid":
        return cls(permutation_of(neck), neck)

    @classmethod
    def from_json(cls, obj: dict) -> "Positroid":
        return cls.from_permutation(DecoratedPermutation.from_json(obj))

    def to_json(self) -> dict:
        return self.perm.to_json()

    @property
    def n(self) -> int:
        return self.perm.n

    @property
    def d(self) -> int:
        return self.necklace.d

    @cached_property
    def _arrows(self) -> ArrowTable:
        # one table per positroid; its rows fill in as queries need them
        return ArrowTable(self.perm)

    @cached_property
    def _reduced(self) -> tuple["Positroid", dict[int, int]]:
        return reduce(self)

    @cached_property
    def _gale_floors(self) -> tuple[tuple[int, ...], ...]:
        # row k-1: I_k read from k, each member written as k plus its position
        # from k (x or x + n), sorted; B >=_k I_k when B read the same way
        # lies at or above this row entry by entry
        n = self.n
        return tuple(
            tuple(sorted(x if x >= k else x + n for x in I))
            for k, I in enumerate(self.necklace.sets, start=1)
        )

    def _gale_holds(self, ordered: list[int], start: int = 0) -> bool:
        """B >=_b I_b for every b = ordered[i] with i >= start.

        ordered is B sorted. lifted[i:i + d] is B read cyclically from
        ordered[i], each element as ordered[i] plus its position from there,
        so one sort serves every anchor and each anchor costs one O(d)
        comparison that stops at the first failure.
        """
        n, d, floors = self.n, self.d, self._gale_floors
        lifted = ordered + [x + n for x in ordered]
        for i in range(start, d):
            if not all(map(ge, lifted[i : i + d], floors[ordered[i] - 1])):
                return False
        return True

    def is_basis(self, B: Iterable[int]) -> bool:
        """Gale-order membership test: B is a basis iff B >=_b I_b for all b in B.

        Sorts B once, then one O(d) comparison per anchor b in B against a
        table built once per positroid: O(d log d + d^2) with the d^2 part in
        C-level slice comparisons.
        """
        elements = tuple(B)
        _check_ints(elements, "basis elements")
        ordered = sorted(set(elements))
        if ordered and (ordered[0] < 1 or ordered[-1] > self.n):
            x = ordered[0] if ordered[0] < 1 else ordered[-1]
            raise ValidationError(f"element {x} out of range 1..{self.n}")
        if len(ordered) != self.d:
            return False
        return self._gale_holds(ordered)


def enumerate_bases(P: Positroid) -> Iterator[frozenset[int]]:
    """All bases in lexicographic order, capped at n = 20.

    A basis x_1 < ... < x_d read from its least member x_1 needs no wrap,
    so x_1's own Gale condition is x_t >= row_t of I_{x_1} for each t. The
    subsets are walked depth-first and a prefix is only extended by values
    at or above its next floor (an x_1 whose last floor exceeds n starts no
    walk); each complete subset then takes the one-sort test for its other
    anchors. The cost is O(d^2) per subset that passes x_1's condition,
    not per d-subset.
    """
    if P.n > BASIS_ENUMERATION_CAP:
        raise EnumerationLimitError(
            f"basis enumeration is capped at n = {BASIS_ENUMERATION_CAP}, got n = {P.n}"
        )
    n, d = P.n, P.d
    if d == 0:
        yield frozenset()
        return
    for first, floor in enumerate(P._gale_floors, start=1):
        if floor[0] != first or floor[-1] > n:
            continue
        if d == 1:
            yield frozenset((first,))
            continue
        prefix = [first]
        # walks[t - 1] runs over the candidates for x_{t + 1}; the largest
        # leaves room for the d - t - 1 members after it
        walks = [iter(range(floor[1], n - d + 3))]
        while walks:
            t = len(walks)
            x = next(walks[-1], None)
            if x is None:
                walks.pop()
                continue
            del prefix[t:]
            prefix.append(x)
            if t + 1 < d:
                walks.append(iter(range(max(x + 1, floor[t + 1]), n - d + t + 3)))
            elif P._gale_holds(prefix, 1):
                yield frozenset(prefix)


def rank_bruteforce(P: Positroid, E: Iterable[int]) -> int:
    """max |B ∩ E| over all bases B. Exponential; the testing oracle."""
    members = frozenset(E)
    return max(len(B & members) for B in enumerate_bases(P))


def loops_and_coloops(P: Positroid) -> tuple[frozenset[int], frozenset[int]]:
    """(loops, coloops) = (white fixed points, black fixed points)."""
    return P.perm.white, P.perm.black


def reduce(P: Positroid) -> tuple[Positroid, dict[int, int]]:
    """Delete all loops and coloops, relabeling the survivors 1..m in order.

    Returns the reduced positroid and the old -> new label map (keyed by the
    surviving elements only). The reduced permutation has no fixed points.
    For every subset E of the original ground set:

        rank(P, E) = rank(P', {map[x] for x in E if x survives}) + |E ∩ coloops|
    """
    fixed = P.perm.fixed_points
    kept = [x for x in range(1, P.n + 1) if x not in fixed]
    relabel = {old: new for new, old in enumerate(kept, start=1)}
    images = tuple(relabel[P.perm.pi(old)] for old in kept)
    return Positroid.from_oneline(images), relabel
