"""Shared helpers: exhaustive small-instance pools, brute-force oracles,
and a fresh interpreter on the package under test."""

from __future__ import annotations

import importlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path
from typing import Iterator

import positroids
from positroids import (
    DecoratedPermutation,
    Positroid,
    RationalMatrix,
    bound_for_partition,
    decompose,
    enumerate_bases,
    enumerate_ncp,
    natural_bound,
    random_tnn_matrix,
    reduce,
)


def derangements(n: int) -> Iterator[tuple[int, ...]]:
    for p in permutations(range(1, n + 1)):
        if all(p[i - 1] != i for i in range(1, n + 1)):
            yield p


def fixed_point_free_positroids(n: int) -> Iterator[Positroid]:
    for p in derangements(n):
        yield Positroid.from_oneline(p)


def decorated_permutations(n: int) -> Iterator[DecoratedPermutation]:
    """Every decorated permutation of [n]: each fixed point colored both ways."""
    for p in permutations(range(1, n + 1)):
        fixed = [i for i in range(1, n + 1) if p[i - 1] == i]
        for mask in range(1 << len(fixed)):
            white = [f for k, f in enumerate(fixed) if not mask >> k & 1]
            black = [f for k, f in enumerate(fixed) if mask >> k & 1]
            yield DecoratedPermutation.from_oneline(p, white, black)


def decorated_positroids(n: int) -> Iterator[Positroid]:
    for perm in decorated_permutations(n):
        yield Positroid(perm)


def dual(P: Positroid) -> Positroid:
    """The dual positroid, whose bases are the complements of P's: the
    inverse permutation, with loops and coloops swapped."""
    perm = P.perm
    images = [perm.pi_inv(j) for j in range(1, perm.n + 1)]
    return Positroid.from_oneline(images, white=perm.black, black=perm.white)


def rotate(P: Positroid, k: int) -> Positroid:
    """P with every element x relabeled x + k (mod n), colors kept: its
    bases, necklace and ranks are P's shifted by k."""
    n, perm = P.n, P.perm

    def shift(x: int) -> int:
        return (x + k - 1) % n + 1

    images = [0] * n
    for x, y in enumerate(perm.images, start=1):
        images[shift(x) - 1] = shift(y)
    return Positroid.from_oneline(images, white=map(shift, perm.white), black=map(shift, perm.black))


def recursive_ncps(lo: int, hi: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The non-crossing partitions of lo..hi as raw blocks, by the plain
    recursion: the block containing lo by size and then lexicographically,
    then the runs between its members, the first run varying slowest. The
    reference order for enumerate_ncp; it recurses about s levels deep."""
    if lo > hi:
        yield ()
        return
    for k in range(hi - lo + 1):
        for extra in combinations(range(lo + 1, hi + 1), k):
            block = (lo,) + extra
            runs = [(x + 1, y - 1) for x, y in zip(block, block[1:] + (hi + 1,)) if y > x + 1]
            for tail in _run_products(runs):
                yield (block,) + tail


def _run_products(runs: list[tuple[int, int]]) -> Iterator[tuple]:
    if not runs:
        yield ()
        return
    for head in recursive_ncps(*runs[0]):
        for tail in _run_products(runs[1:]):
            yield head + tail


def random_fpf_positroid(n: int, rng: random.Random) -> Positroid:
    while True:
        p = list(range(1, n + 1))
        rng.shuffle(p)
        if all(p[i] != i + 1 for i in range(n)):
            return Positroid.from_oneline(p)


def random_decorated_positroid(n: int, rng: random.Random, fixed: int = 4) -> Positroid:
    """A random permutation of [n] with up to `fixed` extra fixed points, each
    fixed point colored white or black at random."""
    p = list(range(1, n + 1))
    rng.shuffle(p)
    for x in rng.sample(range(1, n + 1), rng.randrange(fixed + 1)):
        j = p.index(x)
        p[x - 1], p[j] = x, p[x - 1]
    black = [x for x in range(1, n + 1) if p[x - 1] == x and rng.random() < 0.5]
    white = [x for x in range(1, n + 1) if p[x - 1] == x and x not in black]
    return Positroid.from_oneline(p, white=white, black=black)


def random_union(n: int, s: int, rng: random.Random) -> frozenset[int]:
    """A subset of [n] made of exactly s maximal cyclic intervals, 2s <= n."""
    cuts = sorted(rng.sample(range(1, n + 1), 2 * s))
    return frozenset(x for k in range(s) for x in range(cuts[2 * k], cuts[2 * k + 1]))


def all_subsets(n: int) -> Iterator[frozenset[int]]:
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            yield frozenset(combo)


def brute_rank_table(P: Positroid) -> dict[frozenset[int], int]:
    """rank of every subset of [n], from one basis enumeration."""
    bases = list(enumerate_bases(P))
    return {E: max(len(B & E) for B in bases) for E in all_subsets(P.n)}


def first_min_by_enumeration(P: Positroid, E) -> tuple[int, tuple, tuple[int, ...]]:
    """(value, blocks, per-block bounds) of the first partition in
    enumerate_ncp order whose bound_for_partition is least, on P's reduction:
    the rank certificate by plain enumeration."""
    Q, relabel = reduce(P)
    D = decompose({relabel[x] for x in E if x in relabel}, Q.n)
    best = min(enumerate_ncp(D.s), key=lambda ncp: bound_for_partition(Q, D, ncp))
    per_block = tuple(natural_bound(Q, D.restrict(block)) for block in best.blocks)
    return sum(per_block) + len(frozenset(E) & P.perm.black), best.blocks, per_block


def head_search_certificate(P: Positroid, E) -> tuple[int, tuple, tuple[int, ...]]:
    """(value, blocks, per-block bounds) of rank(P, E)'s certificate by the
    head-by-head search down the rank table: per range lo..hi, the first
    block containing lo, by size and then lexicographically, whose bound plus
    its runs' table entries reaches the range's entry; then its runs, in
    order, on an explicit stack. It tries up to 2^(s-1) heads per range, so
    it is a reference for s up to about 14, past enumeration's reach. Like
    rank(), it answers on P's reduction, plus E's coloops."""
    rank_module = importlib.import_module("positroids.rank")
    Q, relabel = reduce(P)
    intervals, _ = rank_module._query(Q, [relabel[x] for x in E if x in relabel])
    w = rank_module._gap_matrix(Q, intervals)
    d, bonus = Q.d, len(frozenset(E) & P.perm.black)
    seg_to = rank_module._rank_table(w, d)
    s = len(intervals)

    def bound(block: tuple[int, ...]) -> int:
        return d - sum(w[t - 1][u - 1] for t, u in zip(block, block[1:] + block[:1]))

    best: list[tuple[int, ...]] = []
    pending = [(1, s)] if s else []
    while pending:
        lo, hi = pending.pop()
        heads = ((lo,) + extra for k in range(hi - lo + 1)
                 for extra in combinations(range(lo + 1, hi + 1), k))
        for block in heads:
            runs = [(x + 1, y - 1) for x, y in zip(block, block[1:] + (hi + 1,)) if y > x + 1]
            if bound(block) + sum(seg_to[b][a] for a, b in runs) == seg_to[hi][lo]:
                break
        else:
            raise AssertionError(f"no head of {lo}..{hi} attains {seg_to[hi][lo]}")
        best.append(block)
        pending.extend(reversed(runs))
    return seg_to[s][1] + bonus, tuple(best), tuple(map(bound, best))


def reference_rank_table(w: list[list[int]], d: int) -> list[list[int]]:
    """seg_to[v][u], the least total bound over the non-crossing partitions of
    intervals u..v (0 when u > v), for the gap matrix w of s intervals: the
    chain recurrence of the rank table, every term summed on its own."""
    s = len(w)
    seg_to = [[0] * (s + 2) for _ in range(s + 1)]
    for u in range(s, 0, -1):
        # chain[j]: u's block as an open chain u .. j, the runs between its
        # nodes partitioned
        chain = [0] * (s + 1)
        for j in range(u, s + 1):
            if j > u:
                chain[j] = min(
                    chain[i] - w[i - 1][j - 1] + seg_to[j - 1][i + 1] for i in range(u, j)
                )
            seg_to[j][u] = d + min(
                chain[i] - w[i - 1][u - 1] + seg_to[j][i + 1] for i in range(u, j + 1)
            )
    return seg_to


def dense_rank_deficient_rows(seed: int = 0) -> list[list[int]]:
    """A dense 13 x 30 matrix of row rank 12: twelve rows of random ints
    1-9 and row 13 = row 1 + row 2. C(30, 13) is past the minor scan's
    subset cap, and every 13-subset of columns is singular."""
    rng = random.Random(seed)
    rows = [[rng.randint(1, 9) for _ in range(30)] for _ in range(12)]
    rows.append([x + y for x, y in zip(rows[0], rows[1])])
    return rows


def seeded_tnn_matrices(seed: int = 2024, count: int = 220):
    """Seeded full-row-rank TNN matrices with n <= 9, each row scaled by a
    positive rational (which keeps every minor's sign); the stream
    test_realize's basis-collection comparison draws."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        A = random_tnn_matrix(rng.randint(1, n), n, rng, ops=rng.randint(0, 14))
        scales = [Fraction(rng.randint(1, 5), rng.randint(1, 7)) for _ in A.entries]
        yield RationalMatrix.from_rows([[v * c for v in row] for row, c in zip(A.entries, scales)])


def run_fresh(args, log=None, timeout=120):
    """A fresh interpreter, under this one's -O flags, with the package
    these tests imported first on its path, the installed one included,
    and POSITROID_LOG set to `log` (unset for None). Past `timeout`
    seconds it raises subprocess.TimeoutExpired, so a hang fails fast."""
    env = {key: val for key, val in os.environ.items() if key != "POSITROID_LOG"}
    src = str(Path(positroids.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if log is not None:
        env["POSITROID_LOG"] = log
    optimize = ["-O"] * sys.flags.optimize
    return subprocess.run(
        [sys.executable, *optimize, *args], capture_output=True, text=True, env=env, timeout=timeout
    )
