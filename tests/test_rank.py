import gc
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import (
    CyclicInterval,
    EnumerationLimitError,
    NonCrossingPartition,
    Positroid,
    ValidationError,
    arrow_table,
    bound_for_partition,
    ccw_count,
    cw_count,
    decompose,
    enumerate_ncp,
    min_elements,
    natural_bound,
    open_interval,
    rank,
    rank_bruteforce,
    rank_dp,
    rank_of_interval,
    witness_basis,
)
from helpers import all_subsets, decorated_positroids

E4 = frozenset({1, 2, 3, 8, 9, 10})
E5 = frozenset({1, 2, 7, 8, 9, 10, 13})


class TestNonCrossingPartition:
    def test_canonicalization(self):
        p = NonCrossingPartition.from_blocks(4, [(4, 3), (2,), (1,)])
        assert p.blocks == ((1,), (2,), (3, 4))
        assert str(p) == "{{1},{2},{3,4}}"

    def test_crossing_rejected(self):
        with pytest.raises(ValidationError):
            NonCrossingPartition.from_blocks(4, [(1, 3), (2, 4)])
        # nesting is fine
        NonCrossingPartition.from_blocks(4, [(1, 4), (2, 3)])

    def test_coverage_checked(self):
        with pytest.raises(ValidationError):
            NonCrossingPartition.from_blocks(3, [(1, 2)])
        with pytest.raises(ValidationError):
            NonCrossingPartition.from_blocks(2, [(1, 2), (2,)])
        with pytest.raises(ValidationError):
            NonCrossingPartition.from_blocks(2, [(1,), (4,)])

    def test_empty(self):
        assert NonCrossingPartition.from_blocks(0, []).blocks == ()


class TestEnumerateNCP:
    def test_catalan_counts(self):
        for s, catalan in enumerate((1, 1, 2, 5, 14, 42)):
            assert sum(1 for _ in enumerate_ncp(s)) == catalan

    def test_all_valid_and_distinct(self):
        seen = set(enumerate_ncp(6))
        assert len(seen) == 132

    def test_deterministic_order(self):
        got = [p.blocks for p in enumerate_ncp(3)]
        assert got == [
            ((1,), (2,), (3,)),
            ((1,), (2, 3)),
            ((1, 2), (3,)),
            ((1, 3), (2,)),
            ((1, 2, 3),),
        ]

    def test_limits(self):
        with pytest.raises(EnumerationLimitError, match="rank_dp"):
            list(enumerate_ncp(17))
        assert sum(1 for _ in enumerate_ncp(5, limit=5)) == 42
        with pytest.raises(ValidationError):
            list(enumerate_ncp(-1))


class TestArrowCounts:
    def test_reference_cw(self, ref_positroid):
        P = ref_positroid
        assert cw_count(P, CyclicInterval.span(1, 2, 14)) == 1
        assert cw_count(P, CyclicInterval.span(7, 10, 14)) == 0
        assert cw_count(P, CyclicInterval.span(13, 13, 14)) == 0

    def test_reference_ccw(self, ref_positroid):
        P = ref_positroid
        expected = {
            (2, 7): 1, (10, 13): 1, (13, 1): 0, (10, 1): 2,
            (2, 13): 5, (13, 7): 1, (3, 8): 2, (4, 7): 0, (10, 2): 2,
        }
        for (b, a), value in expected.items():
            assert ccw_count(P, open_interval(b, a, 14)) == value, (b, a)

    def test_full_circle(self, ref_positroid):
        P = ref_positroid
        full = CyclicInterval.full(14)
        assert cw_count(P, full) == P.n - P.d
        assert ccw_count(P, full) == P.d
        assert cw_count(P, CyclicInterval.empty(14)) == 0
        assert ccw_count(P, CyclicInterval.empty(14)) == 0

    def test_fixed_point_conventions(self):
        P = Positroid.from_oneline((1, 3, 4, 2, 5), white=(1,), black=(5,))
        assert cw_count(P, CyclicInterval.span(1, 1, 5)) == 1   # loop: clockwise only
        assert ccw_count(P, CyclicInterval.span(1, 1, 5)) == 0
        assert cw_count(P, CyclicInterval.span(5, 5, 5)) == 0   # coloop: the reverse
        assert ccw_count(P, CyclicInterval.span(5, 5, 5)) == 1

    def test_rows_match_brute_force_containment(self):
        # every interval of every decorated positroid with n <= 6, the full
        # circle read from each anchor included
        for n in range(1, 7):
            for P in decorated_positroids(n):
                images = P.perm.images
                inverse = {y: x for x, y in enumerate(images, start=1)}
                for a in range(1, n + 1):
                    for b in range(1, n + 1):
                        T = CyclicInterval.span(a, b, n)
                        pos = {x: (x - a) % n for x in T.members}
                        cw = sum(
                            x in P.perm.white if images[x - 1] == x
                            else images[x - 1] in pos and pos[x] < pos[images[x - 1]]
                            for x in pos
                        )
                        ccw = sum(
                            x in P.perm.black if inverse[x] == x
                            else inverse[x] in pos and pos[x] < pos[inverse[x]]
                            for x in pos
                        )
                        assert (cw_count(P, T), ccw_count(P, T)) == (cw, ccw), (P.perm, a, b)
                        if T.is_full:
                            assert (cw, ccw) == (n - P.d, P.d)

    def test_interval_identities_everywhere(self, ref_positroid):
        # rank([a,b]) == |[a,b]| - cw([a,b]) == |I_a cap [a,b]| and
        # minelts((b,a)) == d - rank([a,b]), for every interval of the
        # reference positroid and of every decorated positroid with n <= 5
        pool = [P for n in range(1, 6) for P in decorated_positroids(n)]
        for P in pool + [ref_positroid]:
            for a in range(1, P.n + 1):
                for b in range(1, P.n + 1):
                    iv = CyclicInterval.span(a, b, P.n)
                    rk = rank_of_interval(P, a, b)
                    assert rk == len(iv) - cw_count(P, iv)
                    assert rk == len(P.necklace.at(a) & iv.members)
                    assert min_elements(P, b, a) == P.d - rk


class TestCaches:
    def test_one_interval_query_builds_one_row(self, ref_positroid):
        P = Positroid.from_oneline(ref_positroid.perm.images)
        rank_dp(P, {3, 4, 5})
        assert len(arrow_table(P)._ccw_rows) == 1 and not arrow_table(P)._cw_rows
        rank_dp(P, E4)  # two gaps, starting after 3 and after 10
        assert sorted(arrow_table(P)._ccw_rows) == [4, 6, 11]

    def test_positroid_is_freed_after_queries(self):
        # nothing at module level keeps a queried positroid alive
        P = Positroid.from_oneline((1, 3, 4, 2, 6, 5, 7), white=(1,), black=(7,))
        E = {1, 2, 5, 7}
        rank_dp(P, E)
        rank(P, E)
        witness_basis(P, E)
        ref = weakref.ref(P)
        del P
        gc.collect()
        assert ref() is None


class TestIntervalRank:
    def test_reference_values(self, ref_positroid):
        assert rank_of_interval(ref_positroid, 1, 3) == 2
        assert rank_of_interval(ref_positroid, 8, 10) == 3
        assert min_elements(ref_positroid, 3, 8) == 2
        assert min_elements(ref_positroid, 10, 1) == 2

    def test_interval_rank_is_brute_force(self, ref_positroid):
        # the interval [8,10] really is maximized by a basis with 3 elements
        assert rank_bruteforce(ref_positroid, {8, 9, 10}) == 3


class TestBounds:
    def test_natural_bound(self, ref_positroid):
        assert natural_bound(ref_positroid, decompose(E4, 14)) == 3
        assert natural_bound(ref_positroid, decompose(E5, 14)) == 5
        assert natural_bound(ref_positroid, decompose((), 14)) == 0

    def test_bound_for_partition(self, ref_positroid):
        E = decompose(E5, 14)
        values = {
            ((1, 2, 3),): 5,
            ((1,), (2, 3)): 6,
            ((1, 2), (3,)): 5,
            ((1, 3), (2,)): 6,
            ((1,), (2,), (3,)): 6,
        }
        for blocks, expected in values.items():
            ncp = NonCrossingPartition.from_blocks(3, blocks)
            assert bound_for_partition(ref_positroid, E, ncp) == expected

    def test_partition_size_must_match(self, ref_positroid):
        with pytest.raises(ValidationError):
            bound_for_partition(
                ref_positroid, decompose(E5, 14), NonCrossingPartition.from_blocks(2, [(1, 2)])
            )

    def test_every_bound_is_above_rank(self, ref_positroid):
        E = decompose(E5, 14)
        true_rank = rank_bruteforce(ref_positroid, E5)
        for ncp in enumerate_ncp(3):
            assert bound_for_partition(ref_positroid, E, ncp) >= true_rank


class TestRank:
    def test_reference_rank(self, ref_positroid):
        cert = rank(ref_positroid, E4)
        assert cert.value == 3
        assert cert.partition.blocks == ((1, 2),)
        assert cert.per_block_bounds == (3,)
        assert not cert.reduced
        assert cert.coloop_bonus == 0

    def test_all_bounds_order(self, ref_positroid):
        cert = rank(ref_positroid, E5, all_bounds=True)
        assert cert.value == 5
        got = [(p.blocks, v) for p, v in cert.all_bounds]
        assert got == [
            (((1, 2, 3),), 5),
            (((1,), (2, 3)), 6),
            (((1, 2), (3,)), 5),
            (((1, 3), (2,)), 6),
            (((1,), (2,), (3,)), 6),
        ]

    def test_edge_sets(self, ref_positroid):
        assert rank(ref_positroid, ()).value == 0
        assert rank(ref_positroid, range(1, 15)).value == 7
        assert rank(ref_positroid, {9}).value == 1

    def test_certificate_is_consistent(self, ref_positroid):
        cert = rank(ref_positroid, E5)
        assert cert.value == sum(cert.per_block_bounds) + cert.coloop_bonus
        assert bound_for_partition(ref_positroid, cert.decomposition, cert.partition) == cert.value

    def test_limit(self, ref_positroid):
        with pytest.raises(EnumerationLimitError, match="rank_dp"):
            rank(ref_positroid, {1, 3, 5, 7, 9, 11, 13}, limit=6)
        # rank_dp has no such cap
        assert rank_dp(ref_positroid, {1, 3, 5, 7, 9, 11, 13}) == rank_bruteforce(
            ref_positroid, {1, 3, 5, 7, 9, 11, 13}
        )

    def test_with_fixed_points(self):
        P = Positroid.from_oneline((1, 3, 4, 2, 5), white=(1,), black=(5,))
        for E in all_subsets(5):
            expected = rank_bruteforce(P, E)
            cert = rank(P, E)
            assert cert.value == expected, E
            assert rank_dp(P, E) == expected, E
        cert = rank(P, {1, 2, 5})
        assert cert.reduced
        assert cert.coloop_bonus == 1

    def test_all_coloops(self):
        P = Positroid.from_oneline((1, 2, 3), black=(1, 2, 3))
        assert rank(P, {1, 3}).value == 2
        assert rank_dp(P, {1, 3}) == 2
        assert rank(P, ()).value == 0

    def test_all_loops(self):
        P = Positroid.from_oneline((1, 2, 3), white=(1, 2, 3))
        assert rank(P, {1, 2, 3}).value == 0
        assert rank_dp(P, {2}) == 0


DECORATED = Positroid.from_oneline((1, 3, 4, 2, 5), white=(1,), black=(5,))
QUERIES = {
    "rank": lambda P, E: rank(P, E).value,
    "rank_dp": rank_dp,
    "witness_basis": witness_basis,
}


class TestQueryValidation:
    """Every query checks E on P's own ground set, fixed points or not."""

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("E", [{99}, {0, 2}, {6}])
    def test_out_of_range_with_fixed_points(self, query, E):
        with pytest.raises(ValidationError, match=r"out of range 1\.\.5"):
            QUERIES[query](DECORATED, E)

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("E", [{True, 2}, {2.0}, {"a"}])
    @pytest.mark.parametrize("fixed", [True, False])
    def test_non_int_elements(self, query, E, fixed, ref_positroid):
        P = DECORATED if fixed else ref_positroid
        with pytest.raises(ValidationError, match="must be integers"):
            QUERIES[query](P, E)


@settings(deadline=None, max_examples=120)
@given(st.sets(st.integers(1, 14)))
def test_rank_dp_matches_enumeration_on_reference(members):
    P = Positroid.from_oneline((2, 8, 6, 7, 9, 4, 5, 14, 13, 3, 10, 11, 1, 12))
    assert rank_dp(P, members) == rank(P, members).value


def test_wrapping_decomposition_rank(ref_positroid):
    # a set whose first interval wraps past n
    E = {13, 14, 1, 5, 6}
    assert rank(ref_positroid, E).value == rank_bruteforce(ref_positroid, E)
    assert rank_dp(ref_positroid, E) == rank(ref_positroid, E).value


def test_rank_dp_runs_in_bounded_stack_depth():
    # the uniform positroid U(60, 240), pi(i) = i + 60: every 60 elements
    # form a basis, so the 120 odd elements (s = 120 intervals) have rank 60
    n, d = 240, 60
    P = Positroid.from_oneline(tuple((i + d - 1) % n + 1 for i in range(1, n + 1)))
    E = range(1, n + 1, 2)
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        value = rank_dp(P, E)
    finally:
        sys.setrecursionlimit(limit)
    assert value == d
