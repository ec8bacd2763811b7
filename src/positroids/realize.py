"""Realizable matroids from exact rational matrices.

Entries are exact rationals: integers, Fractions or "p/q" strings, never
floating point or an exponent such as "1e5". Minors are computed over the
integers. Each row is scaled by the positive lcm of its denominators, which
changes no minor's sign and no minor's zero-ness; the rational minor is the
integer one divided by the product of those lcms. Integer minors come from fraction-free (Bareiss)
elimination, whose every division is exact.

One lex-order scan (_lex_minors) yields the minor of every basis, the
r-subsets of columns with a nonzero minor. It walks the prefix tree of the
subsets: each column prefix is eliminated once, for all of its extensions,
and a column that depends on the prefix is dropped with its whole subtree.
The scan is also the row-rank check: its first descent is the greedy column
basis, and it ends empty, within n*r candidate steps, exactly when the rank
is below r. That empty scan is the conversions' row-rank refusal; only the
refusal, to name the rank, and row_rank run the separate elimination _rank;
check --matrix reads both its verdicts off one scan (_signs).

The matroid is a positroid iff every maximal minor is nonnegative, so
positroid_from_matrix reads the bases and their signs off that one scan,
and its Grassmann necklace too, walked by the transition rule from the
first basis the scan yields. It certifies the result at every n without
listing the positroid's bases again: each walked necklace entry must be a
scanned basis, and each scanned basis must pass the positroid's Gale test,
which by Oh's theorem pins the walked necklace to the scan's own (the
proof is in positroid_from_matrix's docstring). The Gale tests run in
batches: the r windows of every scanned basis and their floor rows are
packed into guarded fields, and each batch of at most 2^14 fields
(positroid._GALE_BATCH_FIELDS) takes one big-int subtraction and one mask
test. That is O(r^2) fields per basis at C level, and a few Python steps
per basis and anchor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, inf, lcm
from typing import Iterable, Iterator, Sequence

from .cyclic import (
    _as_tuple,
    _check_distinct,
    _check_ints,
    _check_nonnegative,
    _check_type,
    _checked_subset,
    _shown,
    _unchecked,
)
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
    "maximal_minor",
    "necklace_from_bases",
    "positroid_from_matrix",
    "random_tnn_matrix",
    "row_rank",
]

# a scan of at most this many subsets, C(n, r), always runs; a larger one
# runs while its reductions and listed bases number at most this many, so a
# sparse matrix converts at any size and a dense one is refused in seconds
MINOR_SCAN_CAP = 200_000

# the exchange check is quadratic, so bigger collections, such as repro's
# 624 bases of the demo positroid, are accepted unchecked
EXCHANGE_VALIDATION_CAP = 600


def _parse_entry(value: object) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError(f"matrix entry {value!r} is not a number")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction would expand "1e999999999" into a 10^999999999 integer
        if "e" in value or "E" in value:
            raise ValidationError(
                f"matrix entry {value!r} has an exponent; use an integer, "
                f"a Fraction or a 'p/q' string"
            )
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
        _check_type(self.entries, tuple, "entries")
        for row in self.entries:
            _check_type(row, tuple, "each row")
            for v in row:
                if type(v) not in (Fraction, int):
                    raise ValidationError(
                        f"matrix entry {v!r} must be an int or a Fraction; from_rows parses strings"
                    )
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
        try:
            table = [tuple(row) for row in rows]
        except TypeError:
            raise ValidationError("matrix rows must be iterables of entries") from None
        return cls(tuple(tuple(map(_parse_entry, row)) for row in table))

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
        idx = _as_tuple(cols, "column indices")
        _check_ints(idx, "column indices")
        for c in idx:
            if not 1 <= c <= self.n:
                raise ValidationError(f"column {_shown(c)} outside 1..{self.n}")
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


def _pivot(v: list[int]) -> _Pivot:
    """The pivot of a nonzero reduced column; a zero one has none (dependent)."""
    idx = next(i for i, x in enumerate(v) if x)
    return idx, v[idx], v[:idx] + v[idx + 1:]


def _reduce(v: list[int], pivot: _Pivot, prev: int) -> list[int]:
    """One Bareiss step on v; prev is the value of the pivot before this one."""
    idx, value, rest = pivot
    f = v[idx]
    return [(value * x - f * y) // prev for x, y in zip(v[:idx] + v[idx + 1:], rest)]


def _lex_minors(columns: list[list[int]], r: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(cols, integer minor) for every basis among the columns, in lex order.

    Depth-first down the prefix tree, with an explicit stack of nodes
    (candidates, next child, prefix, prev, sign): the candidates are the
    columns after the prefix, reduced against it, less those in its span,
    which reduce to zero; prev is the prefix's last pivot value and sign the
    parity of its dropped coordinates. A node with one column left to choose
    has one coordinate, the minor, left per candidate.

    The first descent takes the first candidate at every node, so it keeps
    each column independent of those kept before it: the greedy column
    basis. It reaches r columns exactly when the rank is r, so when it
    dead-ends no basis exists and the scan stops there, empty.

    Within MINOR_SCAN_CAP subsets the scan always runs to the end. Past it,
    it counts its work, the candidates each node pivots on or reduces (those
    from its next child on) and the subsets a last-column node yields, and
    raises EnumerationLimitError once that passes the cap: a sparse matrix
    with few bases still converts, a dense one is refused. The first descent
    is r nodes of at most n candidates, so a rank-deficient matrix is
    refused for its rank, not the cap, whenever n*r <= MINOR_SCAN_CAP.
    """
    n = len(columns)
    if r == 0:
        yield (), 1
        return
    limit = MINOR_SCAN_CAP if comb(n, r) > MINOR_SCAN_CAP else inf
    work = 0
    found = False
    stack = [([(c, v) for c, v in enumerate(columns, start=1) if any(v)], 0, (), 1, 1)]
    while stack:
        cands, i, prefix, prev, sign = stack.pop()
        work += len(cands) - i
        if work > limit:
            raise EnumerationLimitError(
                f"scanning C({n},{r}) column subsets: the work passes the cap {MINOR_SCAN_CAP}"
            )
        need = r - len(prefix)
        if i > len(cands) - need:
            if not found:
                # the greedy descent dead-ends: the rank is below r
                return
            continue
        if need == 1:
            found = True
            for col, v in cands:
                yield prefix + (col,), sign * v[0]
            continue
        stack.append((cands, i + 1, prefix, prev, sign))
        col, v = cands[i]
        pivot = _pivot(v)
        reduced = [(c, w) for c, u in cands[i + 1:] if any(w := _reduce(u, pivot, prev))]
        stack.append((reduced, 0, prefix + (col,), pivot[1], -sign if pivot[0] & 1 else sign))


def maximal_minor(A: RationalMatrix, cols: Iterable[int]) -> Fraction:
    """The minor on the given columns, in the given order (so its sign follows it)."""
    _check_type(A, RationalMatrix, "A")
    idx = A._columns(cols)
    if len(idx) != A.r:
        raise ValidationError(f"maximal minors take exactly {A.r} columns, got {len(idx)}")
    columns, scale = _integer_columns([[row[c - 1] for c in idx] for row in A.entries])
    # the one r-subset of r columns, kept in the given order; no basis, minor 0
    value = next((value for _, value in _lex_minors(columns, A.r)), 0)
    return Fraction(value, scale)


def _rank(columns: list[list[int]]) -> int:
    pivots: list[_Pivot] = []
    for v in columns:
        prev = 1
        for pivot in pivots:
            v = _reduce(v, pivot, prev)
            prev = pivot[1]
        if any(v):
            pivots.append(_pivot(v))
    return len(pivots)


def row_rank(A: RationalMatrix) -> int:
    _check_type(A, RationalMatrix, "A")
    return _rank(_integer_columns(A.entries)[0])


def _rank_refusal(A: RationalMatrix, columns: list[list[int]]) -> ValidationError:
    """The error for a matrix whose minor scan is empty: its rank is below r."""
    return ValidationError(f"matrix row rank is {_rank(columns)}, less than the row count {A.r}")


@dataclass(frozen=True)
class BasisCollection:
    """A nonempty family of d-subsets of {1..n} closed under basis exchange.

    The exchange axiom is verified on construction for collections of at
    most EXCHANGE_VALIDATION_CAP bases on at most BASIS_ENUMERATION_CAP
    elements; bigger collections are accepted as-is (documented trade-off:
    the check is quadratic in the collection size). The collections
    matroid_from_matrix returns skip every check: the nonzero maximal minors
    of a matrix are the bases of its column matroid, exact by construction.
    """

    n: int
    d: int
    bases: frozenset[frozenset[int]]

    def __post_init__(self) -> None:
        _check_nonnegative(self.n, "n")
        _check_nonnegative(self.d, "d")
        _check_type(self.bases, frozenset, "bases")
        if not self.bases:
            raise ValidationError("a matroid has at least one basis")
        for B in self.bases:
            _check_type(B, frozenset, "each basis")
            _checked_subset(B, self.n)
            if len(B) != self.d:
                raise ValidationError(f"basis {sorted(B)} has size {len(B)}, expected {self.d}")
        if self.n <= BASIS_ENUMERATION_CAP and len(self.bases) <= EXCHANGE_VALIDATION_CAP:
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
        _check_nonnegative(n, "n")
        listed = [_as_tuple(B, "set elements") for B in _as_tuple(bases, "bases")]
        frozen = frozenset(_checked_subset(B, n) for B in listed)
        for B in listed:
            _check_distinct(B, "basis")
        d = len(next(iter(frozen))) if frozen else 0
        return cls(n, d, frozen)


def matroid_from_matrix(A: RationalMatrix) -> BasisCollection:
    """Bases = column subsets with nonzero maximal minor. Needs full row rank.

    A full-row-rank matrix has a nonzero maximal minor, and the nonzero ones
    satisfy basis exchange, so the collection is built unchecked. An empty
    scan, which ends after its first descent, the greedy column basis, is
    the refusal of a rank-deficient matrix.
    """
    _check_type(A, RationalMatrix, "A")
    columns, _ = _integer_columns(A.entries)
    bases = frozenset(frozenset(cols) for cols, _ in _lex_minors(columns, A.r))
    if not bases:
        raise _rank_refusal(A, columns)
    return _unchecked(BasisCollection, n=A.n, d=A.r, bases=bases)


def _signs(A: RationalMatrix) -> tuple[bool, tuple[tuple[int, ...], Fraction] | None]:
    """(full row rank, the first negative minor) off one scan, which stops
    at that minor: the scan yields a basis exactly when the rank is r."""
    columns, scale = _integer_columns(A.entries)
    full = False
    for cols, value in _lex_minors(columns, A.r):
        full = True
        if value < 0:
            return full, (cols, Fraction(value, scale))
    return full, None


def first_negative_minor(A: RationalMatrix) -> tuple[tuple[int, ...], Fraction] | None:
    """The lexicographically first column subset with a negative minor, if any."""
    _check_type(A, RationalMatrix, "A")
    return _signs(A)[1]


def is_totally_nonnegative(A: RationalMatrix) -> bool:
    return first_negative_minor(A) is None


def necklace_from_bases(B: BasisCollection) -> GrassmannNecklace:
    """I_k = the lex-first basis read from k, found anew at each k.

    With x at bit n - x the lex-first set has the largest mask; reading from
    k rotates each mask left by k - 1 bits. This catches a non-matroid, whose
    minima break the transition rule. The necklace is certified against the
    input whenever n <= BASIS_ENUMERATION_CAP; a mismatch raises
    NotAPositroidError.
    """
    _check_type(B, BasisCollection, "B")
    n, full = B.n, (1 << B.n) - 1
    # the collection checked its members against 1..n
    by_mask = {sum(1 << (n - x) for x in S): S for S in B.bases}
    sets = [by_mask[max(by_mask, key=lambda m: (m << k | m >> (n - k)) & full)] for k in range(n)]
    try:
        neck = GrassmannNecklace(n, B.d, tuple(sets))
    except ValidationError as exc:
        raise NotAPositroidError(
            f"collection is not a positroid (nor a matroid): {exc}"
        ) from None
    # a caller's collection need not be a positroid, so only equality certifies
    # it; a TNN matrix's bases are a positroid's, so Gale tests suffice there
    if n <= BASIS_ENUMERATION_CAP:
        derived = frozenset(enumerate_bases(Positroid.from_necklace(neck)))
        if derived != B.bases:
            sample = sorted(next(iter((derived - B.bases) or (B.bases - derived))))
            raise NotAPositroidError(
                f"collection is a matroid but not a positroid: its necklace "
                f"generates {len(derived)} bases, input has {len(B.bases)} "
                f"(first difference: {sample})"
            )
    return neck


def _transition_walk(
    n: int, first: frozenset[int], bases: frozenset[frozenset[int]]
) -> tuple[frozenset[int], ...]:
    """The necklace of the matroid with these bases and lex-first basis I_1.

    I_k, the lex-first basis read from k, is the greedy one: each element is
    kept iff independent of those kept before it. Read from k+1, k comes
    last, so every other member of I_k is kept again. So I_{k+1} = I_k if k
    is not in I_k, else I_k - k + x for the first x read from k+1 that makes
    a basis (x = k at worst). Every column matroid is a matroid, so this is
    exact; a non-matroid may pass, so necklace_from_bases does not use it.
    """
    sets = []
    current = first
    for k in range(1, n + 1):
        sets.append(current)
        if k in current:
            rest = current - {k}
            order = chain(range(k + 1, n + 1), range(1, k + 1))
            current = next(J for x in order if (J := rest | {x}) in bases)
    return tuple(sets)


def positroid_from_matrix(A: RationalMatrix) -> Positroid:
    """The positroid of a full-row-rank matrix with nonnegative maximal minors.

    One scan of the minors stops at the first negative one and otherwise
    keeps the nonzero subsets, the bases, in lex order. It is also the
    row-rank check: it ends empty after its first descent, the greedy column
    basis, exactly when the rank is below r. _transition_walk reads a
    necklace I'_1..I'_n off the bases, and P is the positroid it determines.
    P is certified at every n by two checks, n set lookups and a packed Gale
    test of every scanned basis, with no listing of P's bases:

    (a) every walked entry I'_k is a scanned basis;
    (b) every scanned basis B passes P's Gale test.

    By Oh's theorem, (b) gives B >=_k I'_k for every scanned B and every k,
    so the Gale-least scanned basis I_k, the column matroid's necklace
    entry, has I_k >=_k I'_k; (a) gives I'_k >=_k I_k. The Gale order on
    d-sets is antisymmetric, so I'_k = I_k: the walk is the scan's necklace,
    and P is the column matroid's positroid envelope (Knutson-Lam-Speyer).
    A TNN matrix's matroid is a positroid (Postnikov), its own envelope, so
    P's bases are exactly the scanned ones. A matrix with nonnegative minors
    thus always passes; an invalid necklace or a failed check means a
    library bug and raises ContractViolationError.

    Check (b) hands every scanned basis to P._gale_holds at once. It packs
    each basis's r windows and their floor rows, r^2 fields, and tests a
    whole batch of at most 2^14 fields with one subtraction and one mask
    test; the lowest cleared guard bit names the first scanned basis that
    fails, the one the error reports.
    """
    _check_type(A, RationalMatrix, "A")
    columns, scale = _integer_columns(A.entries)
    scanned = []
    for cols, value in _lex_minors(columns, A.r):
        if value < 0:
            raise ValidationError(
                f"matrix is not totally nonnegative: minor at columns "
                f"{cols} equals {Fraction(value, scale)}"
            )
        scanned.append(cols)
    if not scanned:
        raise _rank_refusal(A, columns)
    bases = frozenset(map(frozenset, scanned))
    sets = _transition_walk(A.n, frozenset(scanned[0]), bases)
    mismatch = "the necklace of a TNN matrix does not match its nonzero minors"
    try:
        P = Positroid.from_necklace(GrassmannNecklace(A.n, A.r, sets))
    except ValidationError as exc:
        raise ContractViolationError(f"{mismatch}: the walk is no necklace: {exc}") from exc
    for k, entry in enumerate(sets, start=1):
        if entry not in bases:
            raise ContractViolationError(f"{mismatch}: I_{k} = {sorted(entry)} is no scanned basis")
    # the scan yields each basis's columns sorted, as the Gale test reads them
    passed = P._gale_holds(scanned, range(A.r))
    if passed < len(scanned):
        raise ContractViolationError(
            f"{mismatch}: scanned basis {list(scanned[passed])} fails its Gale test"
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
    _check_ints((r, n, ops), "r, n and ops")
    _check_type(rng, random.Random, "rng")
    if not 1 <= r <= n:
        raise ValidationError(f"need 1 <= r <= n, got r = {_shown(r)}, n = {_shown(n)}")
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
