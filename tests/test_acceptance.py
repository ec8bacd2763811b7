"""Acceptance gate: eleven checks, one verdict line each.

The verdict lines are echoed in a terminal section after the run. Checks 6-8
share their instances: the exhaustive and randomized oracle sweeps record
every (positroid, subset, rank) triple they verify, and the dynamic-program
cross-check replays all of them.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations

from conftest import ACCEPTANCE_LINES
from helpers import (
    all_subsets,
    brute_rank_table,
    decorated_positroids,
    dual,
    first_min_by_enumeration,
    fixed_point_free_positroids,
    random_decorated_positroid,
    random_fpf_positroid,
    random_union,
    rotate,
)

from positroids import (
    BasisCollection,
    CyclicInterval,
    GapStatus,
    Positroid,
    RationalMatrix,
    align_basis,
    decompose,
    enumerate_bases,
    enumerate_ncp,
    gale_leq,
    interval_exchange,
    is_totally_nonnegative,
    matroid_from_matrix,
    mimic,
    morph_sequence,
    necklace_of,
    permutation_of,
    rank,
    rank_dp,
    witness_basis,
)

REF_PI = (2, 8, 6, 7, 9, 4, 5, 14, 13, 3, 10, 11, 1, 12)
A_ROWS = ((1, 0, -3, -1), (0, 1, 4, 0))

# (positroid, subset, verified rank) triples accumulated by checks 6 and 7,
# replayed by check 8; brute tables kept for the property suites of check 9
SMALL_RECORDS: list[tuple[Positroid, frozenset[int], int]] = []
RANDOM_RECORDS: list[tuple[Positroid, frozenset[int], int]] = []
BRUTE_TABLES: dict[Positroid, dict[frozenset[int], int]] = {}

_POOL: list[Positroid] | None = None


def small_pool() -> list[Positroid]:
    """Every fixed-point-free positroid on 2..6 elements (321 instances)."""
    global _POOL
    if _POOL is None:
        _POOL = [P for n in range(2, 7) for P in fixed_point_free_positroids(n)]
    return _POOL


@contextmanager
def criterion(num: int, desc: str, limit: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        ACCEPTANCE_LINES.append(f"FAIL criterion {num}: {desc} -- {exc}")
        raise
    elapsed = time.perf_counter() - t0
    if limit is not None and elapsed >= limit:
        ACCEPTANCE_LINES.append(
            f"FAIL criterion {num}: {desc} -- took {elapsed:.2f}s, limit {limit:.0f}s"
        )
        raise AssertionError(f"criterion {num} exceeded {limit:.0f}s ({elapsed:.2f}s)")
    ACCEPTANCE_LINES.append(f"PASS criterion {num}: {desc} ({elapsed:.2f}s)")


def test_criterion_1_reference_necklace():
    with criterion(1, "reference necklace entries", limit=1.0):
        neck = necklace_of(Positroid.from_oneline(REF_PI).perm)
        expected = {
            1: {1, 3, 4, 5, 10, 11, 12},
            3: {3, 4, 5, 8, 10, 11, 12},
            6: {6, 7, 8, 9, 10, 11, 12},
            7: {4, 7, 8, 9, 10, 11, 12},
            9: {4, 5, 9, 10, 11, 12, 14},
            13: {3, 4, 5, 10, 11, 13, 14},
        }
        for k, members in expected.items():
            assert neck.at(k) == frozenset(members), k


def test_criterion_2_two_interval_rank():
    with criterion(2, "two-interval rank with both bounds", limit=1.0):
        P = Positroid.from_oneline(REF_PI)
        cert = rank(P, {1, 2, 3, 8, 9, 10}, all_bounds=True)
        assert cert.value == 3
        bounds = {p.blocks: v for p, v in cert.all_bounds}
        assert bounds == {((1,), (2,)): 5, ((1, 2),): 3}


def test_criterion_3_three_interval_bounds():
    with criterion(3, "three-interval bounds in listing order", limit=1.0):
        P = Positroid.from_oneline(REF_PI)
        cert = rank(P, {1, 2, 7, 8, 9, 10, 13}, all_bounds=True)
        assert cert.value == 5
        assert [v for _, v in cert.all_bounds] == [5, 6, 5, 6, 6]


def test_criterion_4_matrix_matroid():
    with criterion(4, "matrix matroid and nonnegativity", limit=1.0):
        A = RationalMatrix.from_rows(A_ROWS)
        assert matroid_from_matrix(A).bases == frozenset(
            frozenset(s) for s in ({1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4})
        )
        assert is_totally_nonnegative(A)


def test_criterion_5_exchange_walks():
    with criterion(5, "interval exchange, mimic and alignment chains", limit=1.0):
        P = Positroid.from_oneline(REF_PI)
        out = interval_exchange(P, {1, 4, 7, 8, 10, 11, 13}, 13, 2)
        assert out == {4, 7, 8, 10, 11, 13, 14}

        J11, status = mimic(P, P.necklace.at(2), 7, (4, 10))
        assert J11 == {2, 3, 4, 7, 10, 11, 12}
        assert status is GapStatus.HAS_GAPS
        J21, status = mimic(P, P.necklace.at(7), 2, (10, 4))
        assert J21 == P.necklace.at(7)
        assert status is GapStatus.HAS_GAPS

        trace = []
        out = align_basis(
            P, {1, 3, 6, 7, 10, 11, 14}, decompose({1, 2, 3, 4, 6, 7}, 14), 1, trace
        )
        assert out == {1, 3, 4, 7, 10, 11, 12}
        assert [(r.removed, r.added) for r in trace] == [((14,), (12,)), ((6,), (4,))]


def test_criterion_6_exhaustive_oracle():
    with criterion(6, "rank matches brute force, all instances n <= 6", limit=60.0):
        count = 0
        for P in small_pool():
            table = brute_rank_table(P)
            BRUTE_TABLES[P] = table
            for E, expected in table.items():
                assert rank(P, E).value == expected, (P.perm.images, sorted(E))
                SMALL_RECORDS.append((P, E, expected))
                count += 1
        assert count == sum(2 ** P.n for P in small_pool())


def test_criterion_7_randomized_oracle():
    with criterion(7, "rank matches brute force, 500 random n in 7..9", limit=120.0):
        rng = random.Random(90125)
        for _ in range(500):
            n = rng.randint(7, 9)
            P = random_fpf_positroid(n, rng)
            bases = list(enumerate_bases(P))
            for _ in range(50):
                E = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
                expected = max(len(B & E) for B in bases)
                assert rank(P, E).value == expected, (P.perm.images, sorted(E))
                RANDOM_RECORDS.append((P, E, expected))


def test_criterion_8_dynamic_program():
    with criterion(8, "interval dynamic program and certificates agree everywhere", limit=60.0):
        assert SMALL_RECORDS and RANDOM_RECORDS
        for P, E, expected in SMALL_RECORDS + RANDOM_RECORDS:
            assert rank_dp(P, E) == expected, (P.perm.images, sorted(E))
            # the certificate read off the table is the first optimal
            # partition in enumeration order, with the same per-block bounds
            cert = rank(P, E)
            if cert.decomposition.s <= 10:
                got = (cert.value, cert.partition.blocks, cert.per_block_bounds)
                assert got == first_min_by_enumeration(P, E), (P.perm.images, sorted(E))
        rng = random.Random(5150)
        produced = 0
        while produced < 100:
            P = random_fpf_positroid(24, rng)
            E = frozenset(i for i in range(1, 25) if rng.random() < 0.5)
            if decompose(E, 24).s > 10:
                continue
            assert rank_dp(P, E) == first_min_by_enumeration(P, E)[0], (P.perm.images, sorted(E))
            produced += 1


def _prop_necklace_roundtrip(pool):
    for P in pool:
        neck = necklace_of(P.perm)  # construction re-checks the necklace axiom
        assert permutation_of(neck) == P.perm, P.perm.images


def _prop_gale_order_laws():
    for n, d in ((5, 2), (6, 3)):
        subsets = [frozenset(c) for c in combinations(range(1, n + 1), d)]
        for i in (1, (n // 2) + 1):
            for S in subsets:
                assert gale_leq(S, S, i, n)
            for S in subsets:
                for T in subsets:
                    if gale_leq(S, T, i, n) and gale_leq(T, S, i, n):
                        assert S == T
                    for U in subsets:
                        if gale_leq(S, T, i, n) and gale_leq(T, U, i, n):
                            assert gale_leq(S, U, i, n)


def _prop_exchange_closure(pool):
    for P in pool:
        # constructor proves the exchange axiom for every enumerated family
        BasisCollection.from_sets(enumerate_bases(P), P.n)


def _prop_semimodularity(pool):
    for P in pool:
        if P.n > 5:
            continue
        table = {E: rank_dp(P, E) for E in all_subsets(P.n)}
        for E in table:
            for F in table:
                assert table[E | F] + table[E & F] <= table[E] + table[F], (
                    P.perm.images, sorted(E), sorted(F),
                )


def _prop_necklace_sharing(pool):
    for P in pool:
        n = P.n
        for a in range(1, n + 1):
            Ia = P.necklace.at(a)
            for b in range(1, n + 1):
                if a == b:
                    continue
                iv = CyclicInterval.span(b, a - 1 if a > 1 else n, n)
                assert Ia & iv.members <= P.necklace.at(b), (P.perm.images, a, b)


def _morph_states_by_start(P, E):
    decomp = decompose(E, P.n)
    if decomp.s < 2:
        return None, None
    return decomp, [morph_sequence(P, decomp, i) for i in range(1, decomp.s + 1)]


def _gaps_through(chain, t):
    return all(chain[u].status is GapStatus.HAS_GAPS for u in range(1, t + 1))


def _prop_morph_sharing(pool):
    # sharing carries over to morph stages: unconditionally after one stage,
    # and at deeper stages as long as every stage so far still has gaps (a
    # gap-free stage ends the walk, so nothing is claimed past one)
    for P in pool:
        n = P.n
        for E in all_subsets(n):
            decomp, chains = _morph_states_by_start(P, E)
            if decomp is None:
                continue
            s = decomp.s
            starts = [decomp.intervals[k][0] for k in range(s)]
            for i in range(s):
                a_i, a_next = starts[i], starts[(i + 1) % s]
                iv = CyclicInterval.span(a_next, a_i - 1 if a_i > 1 else n, n)
                nxt = chains[(i + 1) % s]
                for t in range(1, s):
                    if t > 1 and not (_gaps_through(chains[i], t) and _gaps_through(nxt, t - 1)):
                        continue
                    lhs = chains[i][t].members & iv.members
                    rhs = nxt[t - 1].members & iv.members
                    assert lhs <= rhs, (P.perm.images, sorted(E), i + 1, t)


def _prop_stagewise_membership(pool):
    # if every earlier stage of every start is a basis with gaps, the next
    # stage is again a basis (the h = 1 case is unconditional)
    for P in pool:
        for E in all_subsets(P.n):
            decomp, chains = _morph_states_by_start(P, E)
            if decomp is None:
                continue
            s = decomp.s
            for h in range(1, s):
                hyp = all(
                    P.is_basis(chain[t].members)
                    and chain[t].status is GapStatus.HAS_GAPS
                    for chain in chains
                    for t in range(1, h)
                )
                if hyp:
                    for chain in chains:
                        assert P.is_basis(chain[h].members), (
                            P.perm.images, sorted(E), chain[0].start, h,
                        )


def _prop_witness(pool):
    for P in pool:
        table = BRUTE_TABLES.get(P) or brute_rank_table(P)
        for E, expected in table.items():
            W = witness_basis(P, E)
            assert P.is_basis(W), (P.perm.images, sorted(E))
            assert len(W & E) == expected, (P.perm.images, sorted(E))


def test_criterion_9_property_suites():
    with criterion(9, "property suites (order, necklace, exchange, morphs, witness)"):
        pool = small_pool()
        _prop_necklace_roundtrip(pool)
        _prop_gale_order_laws()
        _prop_exchange_closure(pool)
        _prop_semimodularity(pool)
        _prop_necklace_sharing(pool)
        _prop_morph_sharing(pool)
        _prop_stagewise_membership(pool)
        _prop_witness(pool)


def test_criterion_10_partition_counts():
    with criterion(10, "non-crossing partition counts match Catalan numbers"):
        catalan = (1, 1, 2, 5, 14, 42, 132, 429, 1430)
        for s, expected in enumerate(catalan):
            assert sum(1 for _ in enumerate_ncp(s)) == expected, s


def _duality_exhaustive():
    # every (decorated positroid, subset) pair with n <= 6. The pool of each
    # n is closed under duality and rotation, so each side's values are
    # computed once and the identities compare table entries. Rotating by 1
    # generates every rotation, so invariance under it covers them all
    for n in range(7):
        ground = frozenset(range(1, n + 1))
        subsets = list(all_subsets(n))
        tables = {
            P: {E: (rank_dp(P, E), rank(P, E).value, P.is_basis(E)) for E in subsets}
            for P in decorated_positroids(n)
        }
        for P, table in tables.items():
            dual_table, rotated_table = tables[dual(P)], tables[rotate(P, 1)]
            for E, (r, value, basis) in table.items():
                rest = ground - E
                r_star, value_star, basis_star = dual_table[rest]
                assert r_star == len(rest) - P.d + r, (P.perm, sorted(E))
                assert value_star == len(rest) - P.d + value, (P.perm, sorted(E))
                assert basis_star == basis, (P.perm, sorted(E))
                shifted = frozenset(x % n + 1 for x in E)
                assert rotated_table[shifted][:2] == (r, value), (P.perm, sorted(E))


def _duality_seeded():
    # 200 seeded decorated positroids with n in 100..400, where brute force
    # cannot reach: the dual and a rotation read other necklaces and arrows
    rng = random.Random(1108)
    outcomes = set()
    for _ in range(200):
        n = rng.randrange(100, 401)
        P = random_decorated_positroid(n, rng, fixed=rng.randrange(9))
        k = rng.randrange(1, n)
        Q, R = dual(P), rotate(P, k)
        ground = frozenset(range(1, n + 1))

        def shift(E):
            return frozenset((x + k - 1) % n + 1 for x in E)

        small = random_union(n, rng.randrange(1, 13), rng)
        large = random_union(n, rng.randrange(13, 41), rng)
        for E in (small, large):
            rest, r = ground - E, rank_dp(P, E)
            assert rank_dp(Q, rest) == len(rest) - P.d + r, (P.perm, sorted(E))
            assert rank_dp(R, shift(E)) == r, (P.perm, sorted(E), k)
            value = rank(P, E).value
            assert rank(Q, rest).value == len(rest) - P.d + value, (P.perm, sorted(E))
            assert rank(R, shift(E)).value == value, (P.perm, sorted(E), k)
        W = witness_basis(P, small)
        e, f = rng.choice(sorted(W)), rng.choice(sorted(ground - W))
        for B in (W, W - {e} | {f}, frozenset(rng.sample(sorted(ground), P.d))):
            basis = P.is_basis(B)
            assert Q.is_basis(ground - B) == basis, (P.perm, sorted(B))
            outcomes.add(basis)
    assert outcomes == {True, False}


def test_criterion_11_decorated_duality():
    with criterion(11, "decorated positroids: duality and rotation identities", limit=90.0):
        _duality_exhaustive()
        _duality_seeded()
