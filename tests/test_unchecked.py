"""Constructions built without re-validation equal their validated twins.

necklace_of, permutation_of, reduce, the interval decompositions and the
non-crossing partitions the package reads off its own enumeration, and
matroid_from_matrix's basis collections skip their constructors' checks
because they are valid by proof. Each is rebuilt here through the public,
validating constructor, exhaustively on small ground sets, and compared
with an independent expectation.
"""

import random
from itertools import combinations

import pytest

from positroids import (
    BasisCollection,
    DecoratedPermutation,
    GrassmannNecklace,
    IntervalDecomposition,
    NonCrossingPartition,
    decompose,
    Positroid,
    enumerate_ncp,
    matroid_from_matrix,
    maximal_minor,
    necklace_of,
    permutation_of,
    rank,
    reduce,
)
from positroids import realize

from helpers import (
    all_subsets,
    decorated_permutations,
    decorated_positroids,
    fixed_point_free_positroids,
    random_decorated_positroid,
    seeded_tnn_matrices,
)

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430)
# decorated permutations of 1..n, OEIS A000522
DECORATED_COUNTS = (1, 2, 5, 16, 65, 326, 1957)


def validated_perm(perm: DecoratedPermutation) -> DecoratedPermutation:
    return DecoratedPermutation(perm.n, perm.images, perm.white, perm.black)


def exceedance_necklace(perm: DecoratedPermutation) -> tuple[frozenset[int], ...]:
    """I_k straight from its definition: the black fixed points and every j
    that comes strictly before pi^{-1}(j) reading from k."""
    n = perm.n
    inverse = {j: i for i, j in enumerate(perm.images, start=1)}
    return tuple(
        frozenset(j for j in range(1, n + 1)
                  if j in perm.black or (j - k) % n < (inverse[j] - k) % n)
        for k in range(1, n + 1)
    )


def rule_necklaces(n: int):
    """Every tuple of sets on 1..n obeying the transition rule, enumerated
    from I_1 by the rule alone: if i is in I_i, I_{i+1} drops i and gains
    any element outside the rest (possibly i again); otherwise it equals I_i.
    The rule at i = n must lead back to I_1."""
    if n == 0:
        yield ()
        return
    for d in range(n + 1):
        for first in combinations(range(1, n + 1), d):
            stack = [(frozenset(first),)]
            while stack:
                sets = stack.pop()
                i, cur = len(sets), sets[-1]
                if i not in cur:
                    nxt = [cur]
                else:
                    rest = cur - {i}
                    nxt = [rest | {j} for j in range(1, n + 1) if j not in rest]
                for following in nxt:
                    if i < n:
                        stack.append(sets + (following,))
                    elif following == sets[0]:
                        yield sets


@pytest.mark.parametrize("n", range(7))
def test_permutation_necklace_round_trip_and_reduce(n):
    count = 0
    for perm in decorated_permutations(n):
        count += 1
        neck = necklace_of(perm)
        assert neck == GrassmannNecklace(neck.n, neck.d, neck.sets)
        assert neck.sets == exceedance_necklace(perm)
        back = permutation_of(neck)
        assert back == validated_perm(back) == perm
        reduced, relabel = reduce(Positroid(perm))
        assert reduced.perm == validated_perm(reduced.perm)
        kept = sorted(set(range(1, n + 1)) - perm.fixed_points)
        assert relabel == {old: new for new, old in enumerate(kept, start=1)}
        assert reduced.perm.images == tuple(
            kept.index(perm.images[old - 1]) + 1 for old in kept
        )
    assert count == DECORATED_COUNTS[n]


def assert_twin_necklaces(perm: DecoratedPermutation) -> None:
    """necklace_of's mask-born necklace and the validating constructor's,
    fed the definition's frozensets, are one necklace on every reading."""
    n = perm.n
    born = necklace_of(perm)
    sets = exceedance_necklace(perm)
    checked = GrassmannNecklace(n, len(sets[0]) if n else 0, sets)
    assert born == checked and checked == born
    assert hash(born) == hash(checked)
    assert born.sets == checked.sets == sets
    for k in range(1, 2 * n + 1):
        assert born.at(k) == checked.at(k) == sets[(k - 1) % n]
    assert born.to_json() == checked.to_json() == {"n": n, "sets": [sorted(I) for I in sets]}
    assert repr(born) == repr(checked)
    assert permutation_of(born) == permutation_of(checked) == perm
    P = Positroid(perm)
    Q = Positroid.from_necklace(P.necklace)
    assert Q == P
    assert vars(Q)["d"] == P.d == born.d


@pytest.mark.parametrize("n", range(7))
def test_mask_born_and_validated_necklaces_agree(n):
    for perm in decorated_permutations(n):
        assert_twin_necklaces(perm)


def test_mask_born_and_validated_necklaces_agree_seeded():
    rng = random.Random(2020)
    for _ in range(50):
        n = rng.randrange(100, 401)
        assert_twin_necklaces(random_decorated_positroid(n, rng, fixed=rng.randrange(9)).perm)


@pytest.mark.parametrize("n", range(6))
def test_every_valid_necklace_through_permutation_of(n):
    seen = set()
    for sets in rule_necklaces(n):
        d = len(sets[0]) if sets else 0
        neck = GrassmannNecklace(n, d, sets)
        perm = permutation_of(neck)
        assert perm == validated_perm(perm)
        assert necklace_of(perm) == neck
        seen.add(perm)
    # the rule's necklaces and the decorated permutations are in bijection
    assert len(seen) == DECORATED_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_intervals_and_restrictions(n):
    for members in all_subsets(n):
        D = decompose(members, n)
        assert D == IntervalDecomposition(n, D.intervals)
        assert D.members == members
        for k in range(D.s + 1):
            for which in combinations(range(1, D.s + 1), k):
                # indices in any order and repeated pick the same intervals
                R = D.restrict(which[::-1] + which)
                assert R == IntervalDecomposition(n, R.intervals)
                assert R.intervals == tuple(D.intervals[i - 1] for i in which)


@pytest.mark.parametrize("s", range(9))
def test_enumerated_partitions(s):
    partitions = list(enumerate_ncp(s))
    assert all(p == NonCrossingPartition(s, p.blocks) for p in partitions)
    assert len(set(partitions)) == CATALAN[s]


@pytest.mark.parametrize("n", range(7))
def test_rank_certificates(n):
    # a certificate is built on the reduction, which is fixed-point free; so
    # the fixed-point-free positroids with n <= 6 and all their subsets reach
    # every certificate that n <= 6 can, and the decorated ones with n <= 4
    # check the reduction's path
    pool = decorated_positroids(n) if n <= 4 else fixed_point_free_positroids(n)
    for P in pool:
        for E in all_subsets(n):
            # all bounds only where they stay few
            cert = rank(P, E, all_bounds=n <= 4)
            ncp = cert.partition
            assert ncp == NonCrossingPartition(ncp.s, ncp.blocks)
            assert ncp.s == cert.decomposition.s
            for p, _ in cert.all_bounds or ():
                assert p == NonCrossingPartition(p.s, p.blocks)


def test_matroid_from_matrix_equals_the_validated_collection():
    for A in seeded_tnn_matrices():
        got = matroid_from_matrix(A)
        assert got == BasisCollection.from_sets(got.bases, A.n)
        assert (got.n, got.d) == (A.n, A.r)
        assert got.bases == {
            frozenset(cols)
            for cols in combinations(range(1, A.n + 1), A.r)
            if maximal_minor(A, cols)
        }


def test_matroid_from_matrix_skips_the_exchange_check(monkeypatch):
    calls = []
    check = BasisCollection._check_exchange
    monkeypatch.setattr(
        realize.BasisCollection, "_check_exchange", lambda self: calls.append(1) or check(self)
    )
    A = next(A for A in seeded_tnn_matrices() if A.r > 1)
    bases = matroid_from_matrix(A)
    assert calls == []
    BasisCollection.from_sets(bases.bases, A.n)
    assert calls == [1]
