"""Realizable matroids from exact rational matrices.

Entries are exact rationals: integers, Fractions or "p/q" strings, never
floating point. Minors are computed over the integers. Each row is scaled by
the positive lcm of its denominators, which changes no minor's sign and no
minor's zero-ness; the rational minor is the integer one divided by the
product of those lcms. Integer minors come from fraction-free (Bareiss)
elimination, whose every division is exact.

One lex-order scan (_lex_minors) yields the minor of every r-subset of
columns. It walks the prefix tree of the subsets: each column prefix is
eliminated once, for all of its extensions, and a prefix whose newest column
lies in the span of the earlier ones yields zeros for its whole subtree. A
subset is a basis iff its minor is nonzero, and the matroid is a positroid
iff every maximal minor is nonnegative, so positroid_from_matrix reads both
off that one scan. Its Grassmann necklace comes from the columns directly:
I_k is the greedy basis of the columns read cyclically from k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb, lcm
from typing import Iterable, Iterator, Sequence

from .cyclic import _check_ints, position
from .errors import (
    ContractViolationError,
    EnumerationLimitError,
    NotAPositroidError,
    ValidationError,
)
from .positroid import (
    BASIS_ENUMERATION_CAP,
    GrassmannNecklace,
    Positroid,
    enumerate_bases,
)

__all__ = [
    "RationalMatrix",
    "BasisCollection",
    "matroid_from_matrix",
    "is_totally_nonnegative",
    "first_negative_minor",
    "necklace_from_bases",
    "positroid_from_matrix",
    "random_tnn_matrix",
]

# C(n, r) cap for scanning all column subsets; past this the scan would not
# finish at desk scale anyway
MINOR_SCAN_CAP = 200_000

# basis-exchange validation is quadratic in the collection size, so it runs
# only for collections at most this big (covers every documented use)
EXCHANGE_VALIDATION_CAP = 600


def _parse_entry(value: object) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError(f"matrix entry {value!r} is not a number")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse matrix entry {value!r}: {exc}") from None
    if isinstance(value, float):
        raise ValidationError(
            f"floating point entry {value!r} rejected; use an integer or a 'p/q' string"
        )
    raise ValidationError(f"cannot read matrix entry {value!r}")


@dataclass(frozen=True)
class RationalMatrix:
    """An r x n matrix of exact rationals, r <= n."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValidationError("matrix rows have unequal lengths")
        if self.r > self.n:
            raise ValidationError(f"matrix has more rows ({self.r}) than columns ({self.n})")

    @property
    def r(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[object]]) -> "RationalMatrix":
        return cls(tuple(tuple(_parse_entry(v) for v in row) for row in rows))

    @classmethod
    def from_json(cls, obj: object) -> "RationalMatrix":
        if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
            raise ValidationError("matrix JSON must be a list of row lists")
        return cls.from_rows(obj)

    def to_json(self) -> list[list[object]]:
        return [
            [int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}" for v in row]
            for row in self.entries
        ]

    def column_submatrix(self, cols: Iterable[int]) -> list[list[Fraction]]:
        """Rows restricted to the 1-based columns, in the given order."""
        idx = self._columns(cols)
        return [[row[c - 1] for c in idx] for row in self.entries]

    def _columns(self, cols: Iterable[int]) -> tuple[int, ...]:
        """The column indices, each checked to be a plain int in 1..n."""
        idx = tuple(cols)
        _check_ints(idx, "column indices")
        for c in idx:
            if not 1 <= c <= self.n:
                raise ValidationError(f"column {c} outside 1..{self.n}")
        return idx


def _integer_columns(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The columns of the rows, each row scaled to integers, and the scale.

    Row i is multiplied by the lcm of its denominators. A minor of the
    scaled columns is the rational minor times the returned scale, the
    product of those positive lcms.
    """
    scaled = []
    scale = 1
    for row in rows:
        m = lcm(*(v.denominator for v in row))
        scaled.append([v.numerator * (m // v.denominator) for v in row])
        scale *= m
    return [list(col) for col in zip(*scaled)], scale


# Fraction-free elimination. A column is a list of integer coordinates; a
# pivot (idx, value, rest) is a reduced column's first nonzero coordinate,
# its value and its other coordinates. Reducing a column by a pivot clears
# and drops coordinate idx. After t reductions every coordinate is a
# (t+1)x(t+1) minor of the columns involved, so dividing by the previous
# pivot's value (Bareiss) is exact, and the last pivot's value is the whole
# minor up to the sign of the order in which coordinates were dropped.

_Pivot = tuple[int, int, list[int]]


def _pivot(v: list[int]) -> _Pivot | None:
    """The pivot of a reduced column; None if it is zero (dependent)."""
    for idx, x in enumerate(v):
        if x:
            return idx, x, v[:idx] + v[idx + 1:]
    return None


def _reduce(v: list[int], pivot: _Pivot, prev: int) -> list[int]:
    """One Bareiss step on v; prev is the value of the pivot before this one."""
    idx, value, rest = pivot
    f = v[idx]
    return [(value * x - f * y) // prev for x, y in zip(v[:idx] + v[idx + 1:], rest)]


class _Independent:
    """Columns added one at a time; each is kept iff independent of those kept."""

    def __init__(self) -> None:
        self.pivots: list[_Pivot] = []
        self.sign = 1

    def add(self, v: list[int]) -> bool:
        prev = 1
        for pivot in self.pivots:
            v = _reduce(v, pivot, prev)
            prev = pivot[1]
        pivot = _pivot(v)
        if pivot is None:
            return False
        self.pivots.append(pivot)
        if pivot[0] & 1:
            self.sign = -self.sign
        return True

    def minor(self) -> int:
        """The determinant of the kept columns in the order added, once square."""
        return self.sign * self.pivots[-1][1] if self.pivots else 1


def _lex_minors(columns: list[list[int]], r: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(cols, integer minor) for every r-subset of the columns, in lex order.

    Depth-first down the prefix tree, with an explicit stack of nodes
    (candidates, next child, prefix, prev, sign): the candidates are the
    columns after the prefix, reduced against it; prev is the prefix's last
    pivot value and sign the parity of its dropped coordinates. A node with
    one column left to choose has one coordinate left per candidate, the
    minor. Raises EnumerationLimitError past MINOR_SCAN_CAP subsets.
    """
    n = len(columns)
    if comb(n, r) > MINOR_SCAN_CAP:
        raise EnumerationLimitError(
            f"scanning C({n},{r}) column subsets exceeds the cap {MINOR_SCAN_CAP}"
        )
    if r == 0:
        yield (), 1
        return
    stack = [(list(enumerate(columns, start=1)), 0, (), 1, 1)]
    while stack:
        cands, i, prefix, prev, sign = stack.pop()
        need = r - len(prefix)
        if need == 1:
            for col, v in cands:
                yield prefix + (col,), sign * v[0]
            continue
        if i > len(cands) - need:
            continue
        stack.append((cands, i + 1, prefix, prev, sign))
        col, v = cands[i]
        pivot = _pivot(v)
        if pivot is None:
            for rest in combinations([c for c, _ in cands[i + 1:]], need - 1):
                yield prefix + (col,) + rest, 0
            continue
        reduced = [(c, _reduce(w, pivot, prev)) for c, w in cands[i + 1:]]
        stack.append((reduced, 0, prefix + (col,), pivot[1], -sign if pivot[0] & 1 else sign))


def maximal_minor(A: RationalMatrix, cols: Iterable[int]) -> Fraction:
    """The minor on the given columns, in the given order (so its sign follows it)."""
    idx = A._columns(cols)
    if len(idx) != A.r:
        raise ValidationError(f"maximal minors take exactly {A.r} columns, got {len(idx)}")
    columns, scale = _integer_columns(A.column_submatrix(idx))
    chosen = _Independent()
    if not all(chosen.add(v) for v in columns):
        return Fraction(0)
    return Fraction(chosen.minor(), scale)


def _rank(columns: list[list[int]]) -> int:
    chosen = _Independent()
    return sum(chosen.add(v) for v in columns)


def row_rank(A: RationalMatrix) -> int:
    return _rank(_integer_columns(A.entries)[0])


def _require_full_row_rank(A: RationalMatrix, columns: list[list[int]]) -> None:
    rank = _rank(columns)
    if rank != A.r:
        raise ValidationError(f"matrix row rank is {rank}, less than the row count {A.r}")


@dataclass(frozen=True)
class BasisCollection:
    """A nonempty family of d-subsets of {1..n} closed under basis exchange.

    The exchange axiom is verified on construction for collections of at
    most EXCHANGE_VALIDATION_CAP bases on at most 20 elements; bigger
    collections are accepted as-is (documented trade-off: the check is
    quadratic in the collection size).
    """

    n: int
    d: int
    bases: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        if not self.bases:
            raise ValidationError("a matroid has at least one basis")
        for B in self.bases:
            if len(B) != self.d:
                raise ValidationError(f"basis {sorted(B)} has size {len(B)}, expected {self.d}")
            for x in B:
                if not 1 <= x <= self.n:
                    raise ValidationError(f"basis element {x} outside 1..{self.n}")
        if self.n <= 20 and len(self.bases) <= EXCHANGE_VALIDATION_CAP:
            self._check_exchange()

    def _check_exchange(self) -> None:
        for B1 in self.bases:
            for B2 in self.bases:
                for x in B1 - B2:
                    if not any((B1 - {x}) | {y} in self.bases for y in B2 - B1):
                        raise ValidationError(
                            f"basis exchange fails: cannot trade {x} out of "
                            f"{sorted(B1)} toward {sorted(B2)}"
                        )

    @classmethod
    def from_sets(cls, bases: Iterable[Iterable[int]], n: int) -> "BasisCollection":
        frozen = frozenset(frozenset(B) for B in bases)
        d = len(next(iter(frozen))) if frozen else 0
        return cls(n, d, frozen)


def matroid_from_matrix(A: RationalMatrix) -> BasisCollection:
    """Bases = column subsets with nonzero maximal minor. Needs full row rank."""
    columns, _ = _integer_columns(A.entries)
    _require_full_row_rank(A, columns)
    bases = frozenset(frozenset(cols) for cols, value in _lex_minors(columns, A.r) if value)
    return BasisCollection(A.n, A.r, bases)


def first_negative_minor(A: RationalMatrix) -> tuple[tuple[int, ...], Fraction] | None:
    """The lexicographically first column subset with a negative minor, if any."""
    columns, scale = _integer_columns(A.entries)
    for cols, value in _lex_minors(columns, A.r):
        if value < 0:
            return cols, Fraction(value, scale)
    return None


def is_totally_nonnegative(A: RationalMatrix) -> bool:
    return first_negative_minor(A) is None


def necklace_from_bases(B: BasisCollection) -> GrassmannNecklace:
    """I_k = the minimal basis in the order that starts at k.

    The minimum is taken lexicographically on position-sorted bases, which
    for a matroid is also the componentwise (greedy) minimum. The necklace
    transition rule holds for any matroid, so to certify a positroid the
    derived necklace's basis filter is compared against the input whenever
    n <= 20; a mismatch raises NotAPositroidError.
    """
    n, bases = B.n, B.bases
    sets = []
    for k in range(1, n + 1):
        best = min(bases, key=lambda S: tuple(sorted(position(x, k, n) for x in S)))
        sets.append(frozenset(best))
    try:
        neck = GrassmannNecklace(n, B.d, tuple(sets))
    except ValidationError as exc:
        raise NotAPositroidError(
            f"collection is not a positroid (nor a matroid): {exc}"
        ) from None
    if n <= 20:
        derived = frozenset(enumerate_bases(Positroid.from_necklace(neck)))
        if derived != bases:
            extra = derived - bases
            missing = bases - derived
            sample = sorted(next(iter(extra or missing)))
            raise NotAPositroidError(
                f"collection is a matroid but not a positroid: its necklace "
                f"generates {len(derived)} bases, input has {len(bases)} "
                f"(first difference: {sample})"
            )
    return neck


def _greedy_necklace(columns: list[list[int]], r: int) -> tuple[frozenset[int], ...]:
    """I_k = the columns kept greedily when they are read cyclically from k."""
    n = len(columns)
    sets = []
    for k in range(n):
        chosen = _Independent()
        members = []
        for c in chain(range(k, n), range(k)):
            if chosen.add(columns[c]):
                members.append(c + 1)
                if len(members) == r:
                    break
        sets.append(frozenset(members))
    return tuple(sets)


def positroid_from_matrix(A: RationalMatrix) -> Positroid:
    """The positroid of a full-row-rank matrix with nonnegative maximal minors.

    One scan of the minors stops at the first negative one and otherwise
    keeps the nonzero subsets. The necklace comes from greedy column choice;
    for n <= BASIS_ENUMERATION_CAP the bases of the resulting positroid are
    compared with the scanned nonzero subsets. A matrix with nonnegative
    minors realizes a positroid, so an invalid necklace or a mismatch means
    a library bug and raises ContractViolationError.
    """
    columns, scale = _integer_columns(A.entries)
    _require_full_row_rank(A, columns)
    nonzero = []
    for cols, value in _lex_minors(columns, A.r):
        if value < 0:
            raise ValidationError(
                f"matrix is not totally nonnegative: minor at columns "
                f"{cols} equals {Fraction(value, scale)}"
            )
        if value:
            nonzero.append(cols)
    sets = _greedy_necklace(columns, A.r)
    try:
        necklace = GrassmannNecklace(A.n, A.r, sets)
    except ValidationError as exc:
        raise ContractViolationError(f"greedy necklace of a TNN matrix is invalid: {exc}") from exc
    P = Positroid.from_necklace(necklace)
    if A.n <= BASIS_ENUMERATION_CAP:
        if frozenset(enumerate_bases(P)) != frozenset(map(frozenset, nonzero)):
            raise ContractViolationError(
                "the necklace of a TNN matrix does not generate its nonzero minors"
            )
    return P


def random_tnn_matrix(
    r: int, n: int, rng: random.Random, ops: int = 12
) -> RationalMatrix:
    """A random full-row-rank r x n matrix with nonnegative maximal minors.

    Built as the first r rows of a product of elementary column operations
    (add a nonnegative multiple of an adjacent column, or scale a column by
    a positive integer), each of which preserves total nonnegativity.
    """
    if not 1 <= r <= n:
        raise ValidationError(f"need 1 <= r <= n, got r = {r}, n = {n}")
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        if kind == 2 or n == 1:
            j = rng.randrange(n)
            scale = rng.randint(1, 3)
            for row in m:
                row[j] *= scale
        else:
            j = rng.randrange(n - 1)
            t = rng.randint(0, 3)
            src, dst = (j, j + 1) if kind == 0 else (j + 1, j)
            for row in m:
                row[dst] += t * row[src]
    return RationalMatrix.from_rows(m[:r])
