"""The benchmark's own reference computations, run outside the timed region.

Independent of the package under test: the necklace comes straight from its
definition (weak exceedances of the permutation), bases from the Gale-order
test of Oh's theorem against every I_k, ranks from the non-crossing
partition formula evaluated bottom-up on the benchmark's own necklace, and
matrix minors from fraction-free (Bareiss) elimination on integer rows.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from math import lcm


class PositroidOracle:
    """Necklace, basis test and ranks of one decorated permutation."""

    def __init__(self, perm: dict):
        self.n = n = perm["n"]
        self.images = list(perm["pi"])
        colors = perm.get("colors", {})
        self.white = frozenset(int(k) for k, c in colors.items() if c == "white")
        self.black = frozenset(int(k) for k, c in colors.items() if c == "black")
        self.necklace = necklace(self.images, self.black)
        self.d = len(self.necklace[0]) if n else 0
        # row k-1: positions of I_k read from k, ascending
        self._positions = [
            sorted((x - k) % n for x in I) for k, I in enumerate(self.necklace, start=1)
        ]
        self._reduced: PositroidOracle | None = None
        self._relabel: dict[int, int] = {}

    def is_basis(self, B) -> bool:
        """B >= I_k in the Gale order starting at k, for every k (Oh 2011)."""
        members = set(B)
        n = self.n
        if len(members) != self.d or any(not 1 <= x <= n for x in members):
            return False
        for k, ipos in enumerate(self._positions, start=1):
            bpos = sorted((x - k) % n for x in members)
            if any(b < i for b, i in zip(bpos, ipos)):
                return False
        return True

    def bases(self) -> set[frozenset[int]]:
        return {
            frozenset(c) for c in combinations(range(1, self.n + 1), self.d) if self.is_basis(c)
        }

    def interval_rank(self, a: int, b: int) -> int:
        """rank([a, b]) = |I_a ∩ [a, b]|, I_a being greedy from a."""
        return bisect_right(self._positions[a - 1], (b - a) % self.n)

    def rank(self, E) -> int:
        """Exact rank: loops and coloops split off, then the minimum over
        non-crossing partitions of E's intervals of the summed block bounds."""
        members = set(E)
        fixed = self.white | self.black
        bonus = len(members & self.black)
        if not fixed:
            return ncp_min_rank(self, members)
        if self._reduced is None:
            kept = [x for x in range(1, self.n + 1) if x not in fixed]
            self._relabel = {old: new for new, old in enumerate(kept, start=1)}
            images = [self._relabel[self.images[x - 1]] for x in kept]
            self._reduced = PositroidOracle({"n": len(kept), "pi": images})
        if self._reduced.n == 0:
            return bonus
        image = {self._relabel[x] for x in members if x in self._relabel}
        return ncp_min_rank(self._reduced, image) + bonus

    def brute_rank(self, E) -> int:
        members = frozenset(E)
        return max(len(B & members) for B in self.bases())


def necklace(images: list[int], black) -> list[frozenset[int]]:
    """I_k = black fixed points plus every j strictly before pi^{-1}(j) from k."""
    n = len(images)
    inverse = [0] * (n + 1)
    for i, j in enumerate(images, start=1):
        inverse[j] = i
    moved = [(j, inverse[j]) for j in range(1, n + 1) if inverse[j] != j]
    out = []
    for k in range(1, n + 1):
        out.append(frozenset(black).union(j for j, p in moved if (j - k) % n < (p - k) % n))
    return out


def intervals_of(members: set[int], n: int) -> list[tuple[int, int]]:
    """Maximal cyclic intervals (a, b) of a proper nonempty subset of [n]."""
    starts = sorted(x for x in members if (x - 2) % n + 1 not in members)
    out = []
    for a in starts:
        b = a
        while b % n + 1 in members:
            b = b % n + 1
        out.append((a, b))
    return out


def ncp_min_rank(P: PositroidOracle, members: set[int]) -> int:
    """min over non-crossing partitions of the summed natural block bounds.

    P has no fixed points. A block j_0 < ... < j_k of interval indices is
    worth d minus the fewest basis elements in each gap it spans, where the
    gap from interval i's end to interval j's start holds at least
    d - rank([a_j, b_i]) of them. f[u][v] is the best partition of the
    index range u..v and g[u][j] the best open chain of u's block ending
    at j, filled bottom-up by decreasing u.
    """
    n, d = P.n, P.d
    if not members:
        return 0
    if len(members) == n:
        return d
    ivs = intervals_of(members, n)
    s = len(ivs)
    w = [[d - P.interval_rank(ivs[j][0], ivs[i][1]) for j in range(s)] for i in range(s)]
    # f[u][v] for v >= u - 1 (empty range costs 0); index shift by one for u - 1
    f = [[0] * (s + 1) for _ in range(s + 2)]
    for u in range(s - 1, -1, -1):
        g = [0] * s
        for j in range(u + 1, s):
            g[j] = min(g[jp] - w[jp][j] + f[jp + 1][j] for jp in range(u, j))
        for v in range(u, s):
            f[u][v + 1] = min(g[j] + d - w[j][u] + f[j + 1][v + 1] for j in range(u, v + 1))
    return f[0][s]


def integer_rows(rows: list[list[object]]) -> list[list[int]]:
    """Rows scaled by the positive lcm of their denominators: same minor signs."""
    out = []
    for row in rows:
        values = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in values))
        out.append([int(v * scale) for v in values])
    return out


def determinant(m: list[list[int]]) -> int:
    """Bareiss fraction-free elimination; every division is exact."""
    m = [row[:] for row in m]
    k = len(m)
    sign, prev = 1, 1
    for c in range(k - 1):
        if m[c][c] == 0:
            swap = next((r for r in range(c + 1, k) if m[r][c]), None)
            if swap is None:
                return 0
            m[c], m[swap] = m[swap], m[c]
            sign = -sign
        pivot = m[c][c]
        for i in range(c + 1, k):
            mi, lead = m[i], m[i][c]
            for j in range(c + 1, k):
                mi[j] = (mi[j] * pivot - lead * m[c][j]) // prev
        prev = pivot
    return sign * m[k - 1][k - 1]


def _minors(rows: list[list[int]]):
    r, n = len(rows), len(rows[0])
    for cols in combinations(range(n), r):
        yield cols, determinant([[row[c] for c in cols] for row in rows])


def minors_sign_scan(rows: list[list[int]]) -> tuple[bool, bool]:
    """(some maximal minor is negative, some maximal minor is nonzero)."""
    negative = nonzero = False
    for _, value in _minors(rows):
        negative |= value < 0
        nonzero |= value != 0
        if negative and nonzero:
            break
    return negative, nonzero


def nonzero_minor_sets(rows: list[list[int]]) -> set[frozenset[int]]:
    """1-based column sets whose maximal minor is nonzero: the matroid's bases."""
    return {frozenset(c + 1 for c in cols) for cols, value in _minors(rows) if value}
