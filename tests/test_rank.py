import gc
import hashlib
import importlib
import json
import random
import sys
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import (
    ContractViolationError,
    CyclicInterval,
    EnumerationLimitError,
    NonCrossingPartition,
    Positroid,
    RankCertificate,
    ValidationError,
    align_basis,
    arrow_table,
    bound_for_partition,
    ccw_count,
    cw_count,
    decompose,
    enumerate_bases,
    enumerate_ncp,
    min_elements,
    natural_bound,
    open_interval,
    rank,
    rank_bruteforce,
    rank_dp,
    rank_of_interval,
    reduce,
    witness_basis,
)
from positroids.cli import main
from helpers import (
    all_subsets,
    decorated_positroids,
    first_min_by_enumeration,
    head_search_certificate,
    random_decorated_positroid,
    random_fpf_positroid,
    random_union,
    recursive_ncps,
    reference_rank_table,
)

RANK_MODULE = importlib.import_module("positroids.rank")
MORPH_MODULE = importlib.import_module("positroids.morph")
POSITROID_MODULE = importlib.import_module("positroids.positroid")
CYCLIC_MODULE = importlib.import_module("positroids.cyclic")

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

    def test_uncovered_elements_are_named_by_the_first(self):
        # the refusal names the first uncovered element and counts the rest,
        # so a large s costs no list of its members
        with pytest.raises(ValidationError, match="element 3 not covered, 2 in all"):
            NonCrossingPartition(4, ((1,), (2,)))
        with pytest.raises(ValidationError) as caught:
            NonCrossingPartition(200000, ())
        assert len(str(caught.value)) < 200

    @pytest.mark.parametrize(
        "blocks, message",
        [
            (((1, 2), ()), "empty block"),
            (((2, 1),), "not ascending"),
            (((2,), (1,)), "sorted by smallest element"),
        ],
    )
    def test_direct_construction_is_not_canonicalized(self, blocks, message):
        # from_blocks sorts; the constructor only checks
        with pytest.raises(ValidationError, match=message):
            NonCrossingPartition(2, blocks)

    @pytest.mark.parametrize("s, blocks", [(2, ((1.0, 2),)), (1, ((True,),)), (True, ((1,),))])
    def test_non_int_data_rejected(self, s, blocks):
        # 1.0 == 1 and True == 1 would pass every range and cover check
        with pytest.raises(ValidationError, match="integers"):
            NonCrossingPartition(s, blocks)


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

    def test_order_matches_the_recursive_reference(self):
        for s in range(11):
            assert [p.blocks for p in enumerate_ncp(s)] == list(recursive_ncps(1, s)), s

    def test_streams_past_the_recursion_limit(self):
        # the enumeration keeps its ranges on an explicit stack, so s = 1000
        # (past Python's default recursion limit) yields its first partition
        first = next(enumerate_ncp(1000, limit=1000))
        assert first.blocks == tuple((x,) for x in range(1, 1001))

    def test_limits(self):
        with pytest.raises(EnumerationLimitError, match="rank_dp"):
            list(enumerate_ncp(17))
        assert sum(1 for _ in enumerate_ncp(5, limit=5)) == 42
        with pytest.raises(ValidationError):
            list(enumerate_ncp(-1))

    @pytest.mark.parametrize("s", [2.5, True, "2"])
    def test_non_int_s_rejected(self, s):
        with pytest.raises(ValidationError, match="integers"):
            list(enumerate_ncp(s))


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

    @pytest.mark.parametrize("count", [cw_count, ccw_count])
    def test_another_ground_set_refused(self, ref_positroid, count):
        # [16, 18] does not exist on the 14-element ground set; the empty
        # interval of another ground set is refused too
        with pytest.raises(ValidationError, match="1..20"):
            count(ref_positroid, CyclicInterval.span(16, 18, 20))
        with pytest.raises(ValidationError, match="1..10"):
            count(ref_positroid, CyclicInterval.empty(10))

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
    def test_queries_keep_no_rows(self, ref_positroid):
        # queries read the necklace masks and leave P holding only them and
        # d: no arrow rows, no frozenset view, and a reduced positroid only
        # once rank() has answered on a P with loops or coloops
        P = Positroid.from_oneline(ref_positroid.perm.images)
        D = Positroid.from_oneline((1, 3, 4, 2, 6, 5, 7), white=(1,), black=(7,))
        for Q, E in ((P, {3, 4, 5}), (P, E4), (P, E5), (D, {1, 2, 5, 7}), (D, {3, 6})):
            rank_dp(Q, E)
            rank(Q, E, all_bounds=True)
            reduced = {"_reduction"} if Q is D else set()
            assert vars(Q).keys() == {"perm", "d", "necklace"} | reduced, (Q.perm, E)
            assert "sets" not in vars(Q.necklace)
        # an arrow table is the caller's: a new one per call, its rows built
        # as they are read and kept in it, never on P
        table = arrow_table(P)
        assert table is not arrow_table(P)
        assert vars(table).keys() == {"perm", "_rows"} and table._rows == {}
        table.ccw_row(4)
        table.ccw_row(11)
        assert sorted(table._rows) == [4, 11]
        assert vars(P).keys() == {"perm", "d", "necklace"}

    def test_arrow_rows_count_arrows_by_definition(self):
        # ccw_row(a)[L]: the arrows [x, pi^{-1}(x)] with both ends among the
        # first L elements read from a, x first, plus the black fixed points
        # there, on every decorated positroid with n <= 6
        count = 0
        for n in range(1, 7):
            for P in decorated_positroids(n):
                inverse = {y: x for x, y in enumerate(P.perm.images, start=1)}
                table = arrow_table(P)
                for a in range(1, n + 1):
                    pos = {x: (x - a) % n for x in range(1, n + 1)}
                    ends = [
                        pos[inverse[x]] for x in range(1, n + 1)
                        if (x in P.perm.black if inverse[x] == x else pos[x] < pos[inverse[x]])
                    ]
                    expected = tuple(sum(p < L for p in ends) for L in range(n + 1))
                    assert table.ccw_row(a) == expected, (P.perm, a)
                count += 1
        assert count == 2 + 5 + 16 + 65 + 326 + 1957

    def test_interval_counts_read_the_masks_only(self, ref_positroid):
        P = Positroid.from_oneline(ref_positroid.perm.images)
        assert rank_of_interval(P, 1, 3) == 2
        assert min_elements(P, 3, 8) == 2
        assert cw_count(P, CyclicInterval.span(7, 10, 14)) == 0
        # ccw_count agrees with the CCW row anchored at the interval's start,
        # on a proper interval, one that wraps and the full circle
        rows = arrow_table(P)
        for a, b in ((4, 7), (12, 2), (5, 4)):
            T = CyclicInterval.span(a, b, 14)
            assert ccw_count(P, T) == rows.ccw_row(a)[len(T)], (a, b)
        assert ccw_count(P, CyclicInterval.full(14)) == P.d == 7
        # each count is one popcount on a necklace mask
        assert vars(P).keys() == {"perm", "d", "necklace"}
        assert "sets" not in vars(P.necklace)

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

    def test_natural_bound_is_the_one_block_bound(self):
        # natural_bound reads the +1 cyclic diagonal alone; bound_for_partition
        # reads the same block off the full gap matrix: every decorated
        # (P, E) with n <= 6, then seeded n = 150 queries up to s = 60
        def one_block(D):
            return NonCrossingPartition.from_blocks(D.s, [range(1, D.s + 1)] if D.s else [])

        queries = 0
        for n in range(7):
            for P in decorated_positroids(n):
                for E in all_subsets(n):
                    D = decompose(E, n)
                    assert natural_bound(P, D) == bound_for_partition(P, D, one_block(D)), (P.perm, sorted(E))
                    queries += 1
        rng = random.Random(150)
        for s in (1, 2, 8, 30, 60):
            P = random_decorated_positroid(150, rng, fixed=8)
            D = decompose(random_union(150, s, rng), 150)
            assert D.s == s and natural_bound(P, D) == bound_for_partition(P, D, one_block(D))
        assert queries == 136873

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

    def test_natural_bound_refuses_another_ground_set(self, ref_positroid):
        # on n = 10 the gaps would be read off the 14-element arrow rows
        with pytest.raises(ValidationError, match="1..10"):
            natural_bound(ref_positroid, decompose({9, 10, 1, 2, 5}, 10))
        with pytest.raises(ValidationError, match="1..20"):
            natural_bound(ref_positroid, decompose({3, 4, 16, 17}, 20))

    def test_bound_for_partition_refuses_another_ground_set(self, ref_positroid):
        ncp = NonCrossingPartition.from_blocks(2, [(1, 2)])
        with pytest.raises(ValidationError, match="1..20"):
            bound_for_partition(ref_positroid, decompose({3, 4, 16, 17}, 20), ncp)

    def test_every_bound_is_above_rank(self, ref_positroid):
        E = decompose(E5, 14)
        true_rank = rank_bruteforce(ref_positroid, E5)
        for ncp in enumerate_ncp(3):
            assert bound_for_partition(ref_positroid, E, ncp) >= true_rank

    def test_least_bound_is_the_rank_on_decorated_positroids(self):
        # the rank theorem on P itself, loops and coloops in place: the least
        # bound over the partitions of E's own intervals is the brute-force
        # rank; an empty E has one empty partition, of bound 0
        pairs = 0
        for n in range(6):
            for P in decorated_positroids(n):
                for members in all_subsets(n):
                    E = decompose(members, n)
                    least = min(bound_for_partition(P, E, ncp) for ncp in enumerate_ncp(E.s))
                    assert least == rank_bruteforce(P, members), (P.perm, sorted(members))
                    pairs += 1
        assert pairs == 11625


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
        # limit caps only the Catalan(s) listing of all_bounds; a plain
        # certificate answers at any s, the same whatever the limit
        E = {1, 3, 5, 7, 9, 11, 13}
        cert = rank(ref_positroid, E, limit=6)
        assert cert == rank(ref_positroid, E, limit=7)
        assert cert.value == rank_dp(ref_positroid, E) == rank_bruteforce(ref_positroid, E)
        with pytest.raises(EnumerationLimitError, match="rank_dp"):
            rank(ref_positroid, E, all_bounds=True, limit=6)
        assert len(rank(ref_positroid, E, all_bounds=True, limit=7).all_bounds) == 429
        # a listing refuses s > max(limit, 0): the empty set lists its one
        # partition even under a negative limit
        assert len(rank(ref_positroid, (), all_bounds=True, limit=-1).all_bounds) == 1
        with pytest.raises(EnumerationLimitError):
            rank(ref_positroid, {1}, all_bounds=True, limit=0)

    def test_default_limit_refuses_thirteen_intervals(self):
        # Catalan(13) = 742,900 partitions: the listing is refused with the
        # cap named, while the plain certificate answers
        P = Positroid.from_oneline(tuple(range(2, 27)) + (1,))
        E = range(1, 26, 2)
        with pytest.raises(EnumerationLimitError, match="13 intervals exceeds the limit 12"):
            rank(P, E, all_bounds=True)
        cert = rank(P, E)
        assert cert.decomposition.s == 13
        assert cert.value == rank_dp(P, E) == 1

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
    @pytest.mark.parametrize("E", [{True, 2}, {2.0}, {"a"}, [1, True], [True, 1]])
    @pytest.mark.parametrize("fixed", [True, False])
    def test_non_int_elements(self, query, E, fixed, ref_positroid):
        P = DECORATED if fixed else ref_positroid
        with pytest.raises(ValidationError, match="must be integers"):
            QUERIES[query](P, E)


def small_d_positroid(n: int, rng: random.Random) -> Positroid:
    """Up to two increasing cycles, every other element a loop: d <= 2, so
    many partitions tie for the least bound."""
    owner = [rng.choice((0, 1, 1, 1, 2, 2, 2)) for _ in range(n)]
    images = list(range(1, n + 1))
    for c in (1, 2):
        cycle = [x for x in range(1, n + 1) if owner[x - 1] == c]
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            images[x - 1] = y
    return Positroid.from_oneline(images, white=[x for x in range(1, n + 1) if images[x - 1] == x])


class TestOneEngine:
    """rank() reads its certificate off the rank table; plain enumeration
    of the partitions is the reference it must match, ties included."""

    @staticmethod
    def certificate(P, E):
        cert = rank(P, E)
        return cert.value, cert.partition.blocks, cert.per_block_bounds

    def test_first_minimum_on_every_small_decorated_positroid(self):
        for n in range(6):
            for P in decorated_positroids(n):
                for E in all_subsets(n):
                    assert self.certificate(P, E) == first_min_by_enumeration(P, E), (P.perm, E)

    def test_first_minimum_where_ties_are_common(self):
        rng = random.Random(2024)
        ties = 0
        for trial in range(800):
            n = rng.randint(8, 12)
            P = small_d_positroid(n, rng)
            assert P.d <= 2
            if trial % 2:
                E = frozenset(x for x in range(1, n + 1) if rng.random() < 0.5)
            else:  # about every other element: more intervals
                E = frozenset(x for x in range(1, n + 1) if x % 2 != (rng.random() < 0.15))
            expected = first_min_by_enumeration(P, E)
            assert self.certificate(P, E) == expected, (P.perm, sorted(E))
            bounds = rank(P, E, all_bounds=True).all_bounds
            ties += sum(v == sum(expected[2]) for _, v in bounds) > 1
        assert ties > 50

    def test_walk_checks_the_table(self, monkeypatch, capsys, tmp_path, ref_positroid):
        build = RANK_MODULE._rank_table

        def one_lower(w, d):
            seg_to = build(w, d)
            seg_to[len(w)][1] -= 1
            return seg_to

        monkeypatch.setattr(RANK_MODULE, "_rank_table", one_lower)
        with pytest.raises(ContractViolationError, match="attains"):
            rank(ref_positroid, E5)
        perm = tmp_path / "perm.json"
        perm.write_text(json.dumps(ref_positroid.to_json()))
        assert main(["rank", "--perm", str(perm), "--set", "1-3,8-10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: no partition")

    def test_enumeration_only_for_all_bounds(self, monkeypatch, ref_positroid):
        def refuse(lo, hi):
            raise AssertionError("partitions enumerated")

        monkeypatch.setattr(RANK_MODULE, "_raw_ncps", refuse)
        assert rank(ref_positroid, E5).value == 5
        with pytest.raises(AssertionError, match="enumerated"):
            rank(ref_positroid, E5, all_bounds=True)

    def test_certificate_past_catalan_reach(self):
        # s = 16 and s = 32, where Catalan(s) is 35 million and 5.5e16
        # partitions. In U(2, 4s) every block is worth 2, so the one block of
        # all s intervals is the only optimum: the last of the 2^(s-1) heads
        # in enumeration order, which the key read-off reaches directly
        d = 2
        for n in (64, 128):
            s = n // 4
            P = Positroid.from_oneline(tuple((i + d - 1) % n + 1 for i in range(1, n + 1)))
            E = [x for x in range(1, n + 1) if (x - 1) % 4 < 2]
            cert = rank(P, E)
            assert cert.decomposition.s == s
            assert cert.partition.blocks == (tuple(range(1, s + 1)),)
            assert cert.value == cert.per_block_bounds[0] == rank_dp(P, E) == 2

    def test_odd_elements_certify_quickly(self):
        # E the odd elements of a random fixed-point-free positroid: s = n/2
        # intervals, where a head-by-head search takes seconds to minutes on
        # some seeds (tests/helpers.head_search_certificate)
        for n in (40, 48, 56):
            for seed in (1, 2, 3):
                P = random_fpf_positroid(n, random.Random(seed))
                E = range(1, n + 1, 2)
                start = time.perf_counter()
                cert = rank(P, E)
                elapsed = time.perf_counter() - start
                assert elapsed <= 1.0, (n, seed, elapsed)
                assert cert.decomposition.s == n // 2
                assert cert.value == sum(cert.per_block_bounds) == rank_dp(P, E), (n, seed)
                NonCrossingPartition(cert.partition.s, cert.partition.blocks)

    def test_matches_the_head_search_past_enumeration(self):
        # up to s = 14, where enumeration's Catalan(14) = 2.7 million
        # partitions per query is out of reach; every other query is on a
        # d <= 2 positroid, where many partitions tie
        rng = random.Random(1717)
        sizes, trials = set(), 0
        while trials < 400:
            if trials % 2:
                n = rng.randint(30, 90)
                P = random_decorated_positroid(n, rng)
                E = random_union(n, rng.randint(4, 14), rng)
            else:
                n = rng.randint(16, 32)
                P = small_d_positroid(n, rng)
                E = frozenset(x for x in range(1, n + 1) if x % 2 != (rng.random() < 0.15))
            cert = rank(P, E)
            if cert.decomposition.s > 14:
                continue
            trials += 1
            sizes.add(cert.decomposition.s)
            got = cert.value, cert.partition.blocks, cert.per_block_bounds
            assert got == head_search_certificate(P, E), (P.perm, sorted(E))
        assert max(sizes) == 14 and len(sizes) >= 10


class TestRankTable:
    """Every entry of the table rank() and rank_dp() read, not only the corner."""

    def test_every_entry_is_a_rank_on_small_decorated_positroids(self):
        # seg_to[v][u] is the rank of intervals u..v of E, on P's own
        # labels and masks, loops and coloops included: no reduction
        for n in range(6):
            for P in decorated_positroids(n):
                for E in all_subsets(n):
                    intervals, _ = RANK_MODULE._query(P, E)
                    assert intervals == decompose(E, n).intervals
                    seg_to = RANK_MODULE._rank_table(RANK_MODULE._gap_matrix(P, intervals), P.d)
                    runs = [CyclicInterval.span(a, b, n).members for a, b in intervals]
                    for v in range(1, len(runs) + 1):
                        for u in range(1, v + 2):
                            union = frozenset().union(*runs[u - 1:v])
                            assert seg_to[v][u] == rank_bruteforce(P, union), (P.perm, sorted(E), u, v)

    def test_every_entry_matches_the_per_term_recurrence(self):
        rng = random.Random(4711)
        sizes = set()
        for k in range(40):
            P = random_decorated_positroid(150, rng)
            E = random_union(150, 1 + k * 59 // 39, rng)
            w = RANK_MODULE._gap_matrix(P, RANK_MODULE._query(P, E)[0])
            # the gap matrix read off P's masks is counted by P's own CCW
            # rows: w[i][j] = ccw((b_i, a_j))
            decomp, d = decompose(E, 150), P.d
            rows, m = arrow_table(P), P.n
            assert w == [[rows.ccw_row(b % m + 1)[(a - b - 1) % m] for a, _ in decomp.intervals]
                         for _, b in decomp.intervals], (P.perm, decomp)
            seg_to = RANK_MODULE._rank_table(w, d)
            assert seg_to == reference_rank_table(w, d), (P.perm, decomp)
            sizes.add(decomp.s)
        assert max(sizes) > 50 and min(sizes) <= 2


def reduced_reference(P, E) -> RankCertificate:
    """rank(P, E, all_bounds=True) computed the way the reduction defines it:
    E's image on reduce(P), its gap weights counted by the reduction's CCW
    rows, every partition's bound listed, and the first least one in
    enumeration order taken as the certificate."""
    Q, relabel = reduce(P)
    decomp = decompose({relabel[x] for x in E if x in relabel}, Q.n)
    rows, m = arrow_table(Q), Q.n
    w = [[rows.ccw_row(b % m + 1)[(a - b - 1) % m] for a, _ in decomp.intervals]
         for _, b in decomp.intervals]

    def bound(block):
        return Q.d - sum(w[t - 1][u - 1] for t, u in zip(block, block[1:] + block[:1]))

    bounds = [(ncp, sum(map(bound, ncp.blocks))) for ncp in enumerate_ncp(decomp.s)]
    best, value = min(bounds, key=lambda pair: pair[1])
    bonus = len(frozenset(E) & P.perm.black)
    return RankCertificate(
        value=value + bonus,
        decomposition=decomp,
        partition=best,
        per_block_bounds=tuple(map(bound, best.blocks)),
        coloop_bonus=bonus,
        reduced=bool(P.perm.fixed_points),
        all_bounds=tuple(sorted(bounds, key=lambda pair: (len(pair[0].blocks), pair[0].blocks))),
    )


class TestOwnLabels:
    """rank() answers on the reduction kept on P, rank_dp on P's own labels
    and necklace masks; the reduction's arrow rows are the reference they
    must equal, field by field."""

    def test_every_small_decorated_query_is_the_reduced_one(self):
        for n in range(6):
            for P in decorated_positroids(n):
                for E in all_subsets(n):
                    expected = reduced_reference(P, E)
                    assert rank(P, E, all_bounds=True) == expected, (P.perm, sorted(E))
                    assert rank_dp(P, E) == expected.value, (P.perm, sorted(E))

    def test_seeded_larger_decorated_queries_are_the_reduced_ones(self):
        # n 6-9 with up to 4 fixed points; every third set is all elements
        # but a few, so runs of fixed points also fold across n and 1
        rng = random.Random(3131)
        for _ in range(700):
            n = rng.randint(6, 9)
            P = random_decorated_positroid(n, rng)
            if rng.random() < 1 / 3:
                E = frozenset(range(1, n + 1)) - set(rng.sample(range(1, n + 1), rng.randint(0, 2)))
            else:
                E = frozenset(x for x in range(1, n + 1) if rng.random() < 0.5)
            expected = reduced_reference(P, E)
            assert rank(P, E, all_bounds=True) == expected, (P.perm, sorted(E))
            assert rank_dp(P, E) == expected.value, (P.perm, sorted(E))

    def test_many_queries_retain_no_memory(self):
        # 300 queries on one n = 400 positroid keep nothing past the
        # necklace masks (44 KB here); one CCW row of n + 1 ints kept per
        # anchor read, and a kept reduced positroid, came to 1.26 MB
        rng = random.Random(404)
        P = random_decorated_positroid(400, rng, fixed=20)
        assert P.perm.white and P.perm.black
        queries = [random_union(400, 8, rng) for _ in range(300)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            values = [rank_dp(P, E) for E in queries]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert set(vars(P)) <= {"perm", "d", "necklace", "_gale_packing"}
        assert "necklace" in vars(P) and "sets" not in vars(P.necklace)
        assert retained < 1 << 20, retained
        assert len(values) == 300 and max(values) <= P.d


class TestReduction:
    """rank() answers a decorated query on reduce(P), built once and kept on
    P; rank_dp and the witness path never reduce."""

    def test_certificates_are_pinned(self):
        # every decorated (P, E) with n <= 5, all bounds listed: the digest
        # of the certificates' reprs, in decorated_positroids/all_subsets order
        digest, count = hashlib.sha256(), 0
        for n in range(6):
            for P in decorated_positroids(n):
                for E in all_subsets(n):
                    digest.update(repr(rank(P, E, all_bounds=True)).encode())
                    count += 1
        assert count == 1 + 2 * 2 + 5 * 4 + 16 * 8 + 65 * 16 + 326 * 32
        assert digest.hexdigest() == (
            "1a087fe6409fd98e33f7a4c77e5d4740fabe6c2d3b2af5f72850c129fcd0b95b"
        )

    def test_reduce_runs_once_per_positroid(self, monkeypatch):
        calls = []
        build = POSITROID_MODULE.reduce
        monkeypatch.setattr(POSITROID_MODULE, "reduce", lambda P: calls.append(P) or build(P))
        P = Positroid.from_oneline((1, 3, 4, 2, 6, 5, 7), white=(1,), black=(7,))
        for E in ({1, 2, 5, 7}, {3, 6}, {2, 3, 4}, set()):
            rank_dp(P, E)
            W = witness_basis(P, E)
            if E:
                align_basis(P, W, decompose(E, 7), 1)
        assert calls == []
        rng = random.Random(100)
        for _ in range(100):
            E = frozenset(x for x in range(1, 8) if rng.random() < 0.5)
            assert rank(P, E).value == rank_dp(P, E), sorted(E)
        assert calls == [P]
        assert rank(Positroid.from_oneline((2, 3, 1)), {1}).value == 1
        assert calls == [P]


class TestCandidateFirst:
    """rank_dp proves the witness candidate maximal by a tight partition and
    falls back to the table's corner; with the crossover at 0 every query
    takes the candidate path, which must give the table's value."""

    @pytest.fixture
    def candidate_always(self, monkeypatch):
        monkeypatch.setattr(RANK_MODULE, "_candidate_first", lambda s, d: True)

    @staticmethod
    def corner(P, E):
        w = RANK_MODULE._gap_matrix(P, RANK_MODULE._query(P, E)[0])
        return RANK_MODULE._rank_table(w, P.d)[len(w)][1]

    def test_tight_partition_says_yes_exactly_on_maximum_bases(self):
        # every basis W of every decorated positroid with n <= 5, against
        # every E, on E's own intervals: some partition closes over W's
        # tight gaps only iff W meets E in rank(E) elements
        triples = 0
        for n in range(6):
            for P in decorated_positroids(n):
                bases = [sum(1 << x - 1 for x in B) for B in enumerate_bases(P)]
                for E in all_subsets(n):
                    intervals, members = RANK_MODULE._query(P, E)
                    top = max((W & members).bit_count() for W in bases)
                    for W in bases:
                        tight = RANK_MODULE._maximal(P, intervals, W)
                        assert tight == ((W & members).bit_count() == top), (P.perm, sorted(E), W)
                        triples += 1
        assert triples == 40525

    def test_a_basis_short_of_the_rank_is_refused(self, ref_positroid):
        # I_4 is a basis meeting E4 in 2 < rank(E4) = 3 elements; the witness
        # meets it in 3
        intervals, members = RANK_MODULE._query(ref_positroid, E4)
        short = sum(1 << x - 1 for x in ref_positroid.necklace.at(4))
        best = sum(1 << x - 1 for x in witness_basis(ref_positroid, E4))
        assert (short & members).bit_count() == 2 and (best & members).bit_count() == 3
        assert not RANK_MODULE._maximal(ref_positroid, intervals, short)
        assert RANK_MODULE._maximal(ref_positroid, intervals, best)

    def test_every_small_decorated_query_takes_the_tables_value(self, candidate_always):
        for n in range(6):
            for P in decorated_positroids(n):
                for E in all_subsets(n):
                    assert rank_dp(P, E) == self.corner(P, E), (P.perm, sorted(E))

    def test_seeded_large_queries_take_the_tables_value(self, candidate_always):
        rng = random.Random(3000)
        sizes = set()
        for n, s in ((100, 20), (150, 60), (250, 40), (400, 100), (600, 150), (1000, 300)):
            P = random_decorated_positroid(n, rng, fixed=n // 20)
            E = random_union(n, s, rng)
            assert rank_dp(P, E) == self.corner(P, E), (n, s)
            sizes.add(decompose(E, n).s)
        assert max(sizes) == 300

    def test_one_interval_takes_its_necklace_member(self, monkeypatch):
        # s <= 1 on every decorated positroid with n <= 6: the search's
        # untested I_{a_1} (I_1 for an empty set) gives the rank, with no
        # gap matrix and no Gale rows packed
        matrices = []
        build = RANK_MODULE._gap_matrix
        monkeypatch.setattr(
            RANK_MODULE, "_gap_matrix", lambda P, intervals: matrices.append(intervals) or build(P, intervals)
        )
        queries = 0
        for n in range(7):
            for P in decorated_positroids(n):
                for E in all_subsets(n):
                    intervals = decompose(E, n).intervals
                    if len(intervals) > 1:
                        continue
                    expected = rank_of_interval(P, *intervals[0]) if intervals else 0
                    assert rank_dp(P, E) == expected, (P.perm, sorted(E))
                    queries += 1
                assert "_gale_packing" not in vars(P), P.perm
        assert matrices == [] and queries == 70859

    def test_small_queries_build_no_gale_packing(self):
        # a fresh positroid packs no Gale rows where rank_dp reads the table
        # only, nor at one interval, whose necklace member it takes
        # untested: one interval, 8 intervals, 12 intervals against d = 74
        # and 20 against d = 205, where 2s^3 < d^2
        rng = random.Random(77)
        for s, n in ((1, 400), (8, 150), (12, 150), (20, 400)):
            P = random_decorated_positroid(n, rng)
            E = random_union(n, s, rng)
            assert len(RANK_MODULE._query(P, E)[0]) == s and (s < 9 or 2 * s ** 3 < P.d ** 2)
            assert rank_dp(P, E) == rank(P, E).value
            assert "_gale_packing" not in vars(P)

    def test_large_queries_take_the_candidate(self, monkeypatch):
        tables = []
        build = RANK_MODULE._rank_table
        monkeypatch.setattr(RANK_MODULE, "_rank_table", lambda w, d: tables.append(d) or build(w, d))
        rng = random.Random(5)
        P = random_decorated_positroid(150, rng)
        E = random_union(150, 40, rng)
        value = rank_dp(P, E)
        assert tables == [] and "_gale_packing" in vars(P)
        assert value == rank(P, E).value and len(tables) == 1


class TestSecondCandidate:
    """When walker 0's candidate is no basis, rank_dp, like the witness,
    tries the walk from the interval where walker 0 stopped making bases,
    found on walker 0's kept stages (morph._second_start), before the
    table, at every s the search runs for."""

    @pytest.fixture
    def seconds(self, monkeypatch):
        """The stage each second walk starts from, one entry per search."""
        calls, start = [], MORPH_MODULE._second_start
        monkeypatch.setattr(
            MORPH_MODULE, "_second_start", lambda P, walk: calls.append(start(P, walk)) or calls[-1]
        )
        return calls

    @pytest.fixture
    def walks(self, monkeypatch):
        """The interval orders morph._stages walks, one entry per walk."""
        calls, stages = [], MORPH_MODULE._stages
        monkeypatch.setattr(MORPH_MODULE, "_stages", lambda P, order: calls.append(order) or stages(P, order))
        return calls

    @pytest.fixture
    def gap_matrices(self, monkeypatch):
        calls, build = [], RANK_MODULE._gap_matrix
        monkeypatch.setattr(
            RANK_MODULE, "_gap_matrix", lambda P, intervals: calls.append(intervals) or build(P, intervals)
        )
        return calls

    @staticmethod
    def seeded(n, s, seed):
        rng = random.Random(seed)
        P = random_decorated_positroid(n, rng)
        return P, random_union(n, s, rng)

    @staticmethod
    def fully_morphed(P, order):
        *_, (found, *_) = MORPH_MODULE._stages(P, order)
        return found

    def test_every_small_decorated_query_takes_the_tables_value(self, monkeypatch, seconds):
        # the search forced at any s: the 36 queries with n <= 6 whose
        # walker-0 candidate is no basis take the second candidate, and the
        # value is the table's whichever path answers
        monkeypatch.setattr(RANK_MODULE, "_candidate_first", lambda s, d: True)
        queries = 0
        for n in range(7):
            for P in decorated_positroids(n):
                for E in all_subsets(n):
                    assert rank_dp(P, E) == TestCandidateFirst.corner(P, E), (P.perm, sorted(E))
                    queries += 1
        assert (queries, len(seconds)) == (136873, 36)

    @pytest.mark.parametrize("seed, stop", [(17, 20), (39, 23), (55, 12)])
    def test_a_seeded_miss_is_proved_by_the_second(self, seconds, walks, gap_matrices, seed, stop):
        # n = 150, s = 30: walker 0's stages are bases up to stage stop - 1;
        # the one-anchor test stops there too, and the walk from interval
        # stop - 1 is proved maximum with no gap matrix, walker 0 walked once
        P, E = self.seeded(150, 30, seed)
        intervals, _ = RANK_MODULE._query(P, E)
        stages = list(MORPH_MODULE._stages(P, intervals))
        assert [MORPH_MODULE._is_basis(P, m) for m, *_ in stages] == [True] * stop + [False] * (30 - stop)
        assert MORPH_MODULE._second_start(P, stages) == stop - 1
        seconds.clear()
        walks.clear()
        value = rank_dp(P, E)
        walk = intervals[stop - 1:] + intervals[:stop - 1]
        assert seconds == [stop - 1] and walks == [intervals, walk] and gap_matrices == []
        assert value == rank(P, E).value

    def test_a_second_miss_falls_back_to_the_table(self, seconds, walks, gap_matrices):
        # n = 60, s = 20, d = 29: the second candidate is no basis either,
        # so rank_dp builds the table's one gap matrix, having walked walker
        # 0 once and the second walk once
        P, E = self.seeded(60, 20, 124)
        intervals, _ = RANK_MODULE._query(P, E)
        assert (len(intervals), P.d) == (20, 29)
        t = MORPH_MODULE._second_start(P, list(MORPH_MODULE._stages(P, intervals)))
        walk = intervals[t:] + intervals[:t]
        assert t and not MORPH_MODULE._is_basis(P, self.fully_morphed(P, walk))
        seconds.clear()
        walks.clear()
        value = rank_dp(P, E)
        assert seconds == [t] and walks == [intervals, walk] and gap_matrices == [intervals]
        assert value == rank(P, E).value

    def test_a_miss_with_few_intervals_is_proved_by_the_second(self, seconds, walks, gap_matrices):
        # n = 150, s = 20, d = 74, few intervals for so large a d: the
        # candidate is tried (2s^3 >= d^2) and is no basis, and the second
        # walk, from stage 13, is proved maximum with no gap matrix
        P, E = self.seeded(150, 20, 4)
        intervals, _ = RANK_MODULE._query(P, E)
        assert (len(intervals), P.d) == (20, 74)
        assert not MORPH_MODULE._is_basis(P, self.fully_morphed(P, intervals))
        walks.clear()
        value = rank_dp(P, E)
        walk = intervals[13:] + intervals[:13]
        assert seconds == [13] and walks == [intervals, walk] and gap_matrices == []
        assert value == rank(P, E).value


def full_tight_sets(P, intervals, W):
    """(tight_from, tight_into) over all s^2 gaps: bit j of tight_from[i]
    and bit i of tight_into[j] when the basis W meets the gap (b_i, a_j) in
    the gap matrix's w[i][j] elements, W's members there counted one by one."""
    n, s = P.n, len(intervals)
    w = RANK_MODULE._gap_matrix(P, intervals)
    tight_from, tight_into = [0] * s, [0] * s
    for i, (_, b) in enumerate(intervals):
        for j, (a, _) in enumerate(intervals):
            gap = [(b + k - 1) % n + 1 for k in range(1, (a - b - 1) % n + 1)]
            if sum(W >> x - 1 & 1 for x in gap) == w[i][j]:
                tight_from[i] |= 1 << j
                tight_into[j] |= 1 << i
    return tight_from, tight_into


class TestBands:
    """_maximal counts the gaps one cyclic diagonal at a time, in a band
    around the diagonal that widens only when its tight gaps prove nothing;
    the last band holds every gap, so the answer is the full matrix's."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """(tight_from, tight_into, found) for each _partitioned call, the sets copied."""
        calls = []
        search = RANK_MODULE._partitioned

        def recording(tight_from, tight_into):
            found = search(tight_from, tight_into)
            calls.append((list(tight_from), list(tight_into), found))
            return found

        monkeypatch.setattr(RANK_MODULE, "_partitioned", recording)
        return calls

    def test_every_first_band_gives_the_full_answer(self, monkeypatch):
        # the 40,525 (P, E, basis) triples with n <= 5 once more, the search
        # started from the diagonal alone, from offsets -1..1 and from all s,
        # with the closed-form bounds tried first and, so that every verdict
        # comes from the bands, with that check off: no count of W's meets -1
        closed = RANK_MODULE._closed_bounds
        triples = 0
        for n in range(6):
            for P in decorated_positroids(n):
                bases = [sum(1 << x - 1 for x in B) for B in enumerate_bases(P)]
                for E in all_subsets(n):
                    intervals, members = RANK_MODULE._query(P, E)
                    top = max((W & members).bit_count() for W in bases)
                    for bounds in (closed, lambda P, intervals, columns: (-1, -1)):
                        monkeypatch.setattr(RANK_MODULE, "_closed_bounds", bounds)
                        for first in (0, 1, len(intervals)):
                            monkeypatch.setattr(RANK_MODULE, "_FIRST_WIDTH", first)
                            for W in bases:
                                tight = RANK_MODULE._maximal(P, intervals, W)
                                assert tight == ((W & members).bit_count() == top), (P.perm, sorted(E), W, first)
                    triples += len(bases)
        assert triples == 40525

    @pytest.mark.parametrize("E, singletons, block", [(E4, 5, 3), ({1, 5}, 2, 4)])
    def test_a_closed_form_bound_proves_with_no_band(self, ref_positroid, searches, E, singletons, block):
        # the witness meets E in rank(E) elements, the one-block bound for
        # E4 and the all-singletons bound, alone, for {1, 5}: _maximal
        # proves it from that bound, with no _partitioned search
        P = ref_positroid
        intervals, members = RANK_MODULE._query(P, E)
        W = sum(1 << x - 1 for x in witness_basis(P, E))
        assert RANK_MODULE._closed_bounds(P, intervals, RANK_MODULE._columns(P, intervals)) == (singletons, block)
        assert (W & members).bit_count() == min(singletons, block) == rank(P, E).value
        searches.clear()
        assert RANK_MODULE._maximal(P, intervals, W)
        assert searches == []

    def test_a_maximum_basis_proved_only_by_a_wider_band(self, searches):
        # n = 40, s = 8: the witness, a maximum basis, has no all-tight
        # partition over the gaps of offset -2..2; the next band, offsets
        # -8..8, holds all 64 gaps and proves it
        rng = random.Random(112)
        P = random_decorated_positroid(40, rng)
        E = random_union(40, 8, rng)
        intervals, members = RANK_MODULE._query(P, E)
        W = sum(1 << x - 1 for x in witness_basis(P, E))
        assert len(intervals) == 8 and (W & members).bit_count() == rank(P, E).value
        searches.clear()
        assert RANK_MODULE._maximal(P, intervals, W)
        assert [found for *_, found in searches] == [False, True]
        assert searches[0][:2] != searches[1][:2] == full_tight_sets(P, intervals, W)

    def test_a_basis_short_of_the_rank_widens_to_every_gap(self, monkeypatch, searches):
        # a necklace member meeting E in fewer than rank(E) elements, the
        # search started from the diagonal alone: it widens through offsets
        # -1..1, -4..4 and -16..16, which holds all 900 gaps, and says no
        # with every tight gap in hand
        rng = random.Random(35)
        P = random_decorated_positroid(150, rng)
        E = random_union(150, 30, rng)
        intervals, members = RANK_MODULE._query(P, E)
        target = rank(P, E).value
        W = next(m for m in P.necklace.masks if (m & members).bit_count() < target)
        monkeypatch.setattr(RANK_MODULE, "_FIRST_WIDTH", 0)
        assert len(intervals) == 30
        assert not RANK_MODULE._maximal(P, intervals, W)
        assert len(searches) >= 2 and not any(found for *_, found in searches)
        assert searches[-1][:2] == full_tight_sets(P, intervals, W)


class TestChecksOnce:
    """A query set is checked once; internal calls pass it along."""

    @pytest.fixture
    def set_checks(self, monkeypatch):
        seen = []
        check = CYCLIC_MODULE._check_ints

        def counting(values, what):
            seen.append(what)
            return check(values, what)

        monkeypatch.setattr(CYCLIC_MODULE, "_check_ints", counting)
        return lambda: seen.count("set elements")

    @pytest.mark.parametrize("fixed", [False, True])
    def test_one_interval(self, set_checks, fixed, ref_positroid):
        P = DECORATED if fixed else ref_positroid
        E = [2, 3, 4]
        rank(P, E)
        assert set_checks() == 1
        rank_dp(P, E)
        assert set_checks() == 2
        witness_basis(P, E)  # E once; its result is the package's own mask
        assert set_checks() == 3


@settings(deadline=None, max_examples=120)
@given(st.sets(st.integers(1, 14)))
def test_rank_dp_matches_enumeration_on_reference(members):
    P = Positroid.from_oneline((2, 8, 6, 7, 9, 4, 5, 14, 13, 3, 10, 11, 1, 12))
    assert rank_dp(P, members) == first_min_by_enumeration(P, members)[0]


def test_wrapping_decomposition_rank(ref_positroid):
    # a set whose first interval wraps past n
    E = {13, 14, 1, 5, 6}
    assert rank(ref_positroid, E).value == rank_bruteforce(ref_positroid, E)
    assert rank_dp(ref_positroid, E) == rank(ref_positroid, E).value


# Queries where no cyclic segmentation, a partition whose every block is a
# cyclically consecutive run of intervals, attains the rank: its least bound
# is one above it. Fields: one-line pi, white, black, E and rank; the first
# query's certificate, for one, is {{1}, {2, 4}, {3}} on its four intervals.
# Found by these searches:
# - every fixed-point-free pi of [8], E the odd or the even elements: all 16
#   of 29,666 queries;
# - with rng = Random(3), 300 times n = rng.choice([9, 10, 11, 12]) and
#   P = random_fpf_positroid(n, rng), every E with s >= 4: all 35 of 136,640;
# - the same with random_decorated_positroid: 20 of 28,430, all on one
#   positroid with a coloop, of which three are kept;
# - with rng = Random(3), 40,000 draws of random_decorated_positroid(n, rng),
#   n = rng.randint(9, 12), and E = random_union(n, rng.randint(4, n // 2),
#   rng): the three of 7 on positroids with loops.
NON_SEGMENT_QUERIES = [
    ((3, 1, 2, 7, 8, 5, 6, 4), (), (), (2, 4, 6, 8), 3),
    ((3, 1, 2, 8, 7, 5, 6, 4), (), (), (2, 4, 6, 8), 3),
    ((4, 1, 2, 7, 8, 5, 6, 3), (), (), (2, 4, 6, 8), 3),
    ((4, 1, 2, 8, 7, 5, 6, 3), (), (), (2, 4, 6, 8), 3),
    ((4, 5, 2, 3, 1, 8, 6, 7), (), (), (1, 3, 5, 7), 3),
    ((4, 5, 2, 3, 8, 1, 6, 7), (), (), (1, 3, 5, 7), 3),
    ((5, 4, 2, 3, 1, 8, 6, 7), (), (), (1, 3, 5, 7), 3),
    ((5, 4, 2, 3, 8, 1, 6, 7), (), (), (1, 3, 5, 7), 3),
    ((8, 1, 6, 7, 4, 5, 2, 3), (), (), (1, 3, 5, 7), 3),
    ((8, 1, 6, 7, 4, 5, 3, 2), (), (), (1, 3, 5, 7), 3),
    ((8, 1, 7, 6, 4, 5, 2, 3), (), (), (1, 3, 5, 7), 3),
    ((8, 1, 7, 6, 4, 5, 3, 2), (), (), (1, 3, 5, 7), 3),
    ((8, 5, 6, 3, 4, 1, 2, 7), (), (), (2, 4, 6, 8), 3),
    ((8, 5, 6, 3, 4, 2, 1, 7), (), (), (2, 4, 6, 8), 3),
    ((8, 6, 5, 3, 4, 1, 2, 7), (), (), (2, 4, 6, 8), 3),
    ((8, 6, 5, 3, 4, 2, 1, 7), (), (), (2, 4, 6, 8), 3),
    ((3, 10, 1, 2, 11, 5, 12, 6, 8, 9, 7, 4), (), (), (2, 5, 6, 7, 9, 11, 12), 6),
    ((3, 10, 1, 2, 11, 5, 12, 6, 8, 9, 7, 4), (), (), (3, 5, 6, 7, 9, 11, 12), 6),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 3, 7, 9), 3),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 3, 7, 10), 3),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 4, 7, 9), 3),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 4, 7, 10), 3),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 5, 7, 9), 3),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 5, 7, 10), 3),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 3, 5, 7, 9), 4),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 3, 5, 7, 10), 4),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 3, 6, 7, 9), 4),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 3, 6, 7, 10), 4),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 3, 7, 9, 10), 3),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 4, 5, 7, 9), 4),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 4, 5, 7, 10), 4),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 4, 6, 7, 9), 4),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 4, 6, 7, 10), 4),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 4, 7, 9, 10), 3),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 5, 7, 9, 10), 3),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 3, 5, 7, 9, 10), 4),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 3, 6, 7, 9, 10), 4),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 4, 5, 7, 9, 10), 4),
    ((4, 6, 7, 3, 2, 5, 11, 1, 10, 9, 8), (), (), (1, 4, 6, 7, 9, 10), 4),
    ((11, 10, 8, 6, 7, 4, 5, 9, 2, 1, 3), (), (), (1, 3, 5, 8), 3),
    ((11, 10, 8, 6, 7, 4, 5, 9, 2, 1, 3), (), (), (1, 3, 5, 9), 3),
    ((11, 10, 8, 6, 7, 4, 5, 9, 2, 1, 3), (), (), (1, 3, 6, 8), 3),
    ((11, 10, 8, 6, 7, 4, 5, 9, 2, 1, 3), (), (), (1, 3, 6, 9), 3),
    ((11, 10, 8, 6, 7, 4, 5, 9, 2, 1, 3), (), (), (3, 5, 8, 11), 3),
    ((11, 10, 8, 6, 7, 4, 5, 9, 2, 1, 3), (), (), (3, 5, 9, 11), 3),
    ((11, 10, 8, 6, 7, 4, 5, 9, 2, 1, 3), (), (), (3, 6, 8, 11), 3),
    ((11, 10, 8, 6, 7, 4, 5, 9, 2, 1, 3), (), (), (3, 6, 9, 11), 3),
    ((11, 10, 8, 6, 7, 4, 5, 9, 2, 1, 3), (), (), (1, 3, 5, 8, 9), 3),
    ((11, 10, 8, 6, 7, 4, 5, 9, 2, 1, 3), (), (), (1, 3, 6, 8, 9), 3),
    ((11, 10, 8, 6, 7, 4, 5, 9, 2, 1, 3), (), (), (3, 5, 8, 9, 11), 3),
    ((11, 10, 8, 6, 7, 4, 5, 9, 2, 1, 3), (), (), (3, 6, 8, 9, 11), 3),
    ((12, 1, 9, 10, 11, 5, 6, 8, 3, 7, 2, 4), (), (8,), (1, 3, 4, 6, 11), 4),
    ((12, 1, 9, 10, 11, 5, 6, 8, 3, 7, 2, 4), (), (8,),
     (1, 3, 4, 6, 9, 11), 5),
    ((12, 1, 9, 10, 11, 5, 6, 8, 3, 7, 2, 4), (), (8,),
     (1, 3, 4, 6, 8, 9, 10, 11), 6),
    ((4, 10, 3, 11, 8, 9, 6, 7, 2, 5, 12, 1), (3,), (), (1, 3, 5, 7, 9, 11), 3),
    ((9, 2, 8, 12, 5, 6, 4, 7, 1, 3, 10, 11), (2, 6), (5,),
     (1, 3, 5, 7, 9, 11), 5),
    ((1, 10, 6, 8, 4, 5, 7, 9, 2, 12, 3, 11), (1, 7), (), (1, 3, 5, 7, 9, 11), 3),
]


@pytest.mark.parametrize("images, white, black, E, value", NON_SEGMENT_QUERIES)
def test_rank_needs_a_non_consecutive_block(images, white, black, E, value):
    P = Positroid.from_oneline(images, white=white, black=black)
    cert = rank(P, E)
    assert cert.value == rank_bruteforce(P, E) == rank_dp(P, E) == value
    assert cert.value == sum(cert.per_block_bounds) + cert.coloop_bonus
    s = cert.partition.s

    def cyclic_run(block):
        return any(set(block) == {(b + k - 1) % s + 1 for k in range(len(block))} for b in block)

    assert not all(map(cyclic_run, cert.partition.blocks))


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


@pytest.mark.parametrize("limit", ["x", 2.5, True])
def test_limit_must_be_an_int(ref_positroid, limit):
    with pytest.raises(ValidationError, match="limit must be integers"):
        rank(ref_positroid, E4, limit=limit)
    with pytest.raises(ValidationError, match="limit must be integers"):
        list(enumerate_ncp(2, limit=limit))
