import pytest

import hashlib
import importlib
import random
import sys

from positroids import (
    ContractViolationError,
    CyclicInterval,
    ExchangeKind,
    ExchangeRecord,
    GapStatus,
    IntervalDecomposition,
    Positroid,
    ValidationError,
    align_basis,
    decompose,
    enumerate_bases,
    half_open,
    interval_exchange,
    is_compatible,
    mimic,
    morph,
    morph_sequence,
    open_interval,
    rank,
    rank_bruteforce,
    rank_dp,
    witness_basis,
)
from positroids.positroid import _elements, _mask
from helpers import all_subsets, decorated_positroids, dual, random_decorated_positroid, random_union

E4 = frozenset({1, 2, 3, 8, 9, 10})

# n = 6 queries (one-line pi, white, black, E) whose walker-0 candidate, the
# fully morphed set, misses rank(E), so the witness tries the second walk,
# which proves its set; on the first, rank(E) = 2 and the candidate
# {2, 4, 6} is not a basis
REJECTED_CANDIDATES = [
    ((1, 5, 6, 3, 4, 2), (1,), (), frozenset({2, 4, 6})),
    ((2, 5, 6, 3, 4, 1), (), (), frozenset({2, 4, 6})),
    ((1, 6, 5, 4, 3, 2), (), (1, 4), frozenset({2, 4, 6})),
    ((4, 5, 2, 3, 6, 1), (), (), frozenset({1, 3, 5})),
    ((5, 4, 3, 2, 1, 6), (3, 6), (), frozenset({1, 3, 5})),
]


def _rejected(k):
    images, white, black, E = REJECTED_CANDIDATES[k]
    return Positroid.from_oneline(images, white=white, black=black), E


def _deep_query(n):
    """pi = [n, 1, ..., n - 1] with E the odd elements: the morph recursion
    nests s = n / 2 levels deep on it."""
    return Positroid.from_oneline([n, *range(1, n)]), range(1, n + 1, 2)


@pytest.fixture
def recursion_calls(monkeypatch):
    """The interval tuples witness_basis hands to the morph recursion."""
    calls = []
    recursion = morph._witness_rec
    monkeypatch.setattr(
        morph, "_witness_rec", lambda P, intervals: calls.append(intervals) or recursion(P, intervals)
    )
    return calls


@pytest.fixture
def walks(monkeypatch):
    """The interval orders morph._stages walks, one entry per walk started."""
    calls, stages = [], morph._stages
    monkeypatch.setattr(morph, "_stages", lambda P, order: calls.append(order) or stages(P, order))
    return calls


@pytest.fixture
def gap_matrices(monkeypatch):
    """The interval tuples rank._gap_matrix, the rank table's s x s input,
    is built for."""
    rank_module = importlib.import_module("positroids.rank")
    calls, build = [], rank_module._gap_matrix
    monkeypatch.setattr(
        rank_module, "_gap_matrix", lambda P, intervals: calls.append(intervals) or build(P, intervals)
    )
    return calls


@pytest.fixture
def basis_tests(monkeypatch):
    """The listings passed to Positroid.is_basis, and the number of sets in
    each batch passed to Positroid._gale_holds, is_basis's own batches too."""
    calls = {"is_basis": [], "_gale_holds": []}
    is_basis, gale = Positroid.is_basis, Positroid._gale_holds
    monkeypatch.setattr(
        Positroid, "is_basis", lambda self, B: calls["is_basis"].append(B) or is_basis(self, B)
    )
    monkeypatch.setattr(
        Positroid,
        "_gale_holds",
        lambda self, sets, anchors: calls["_gale_holds"].append(len(sets)) or gale(self, sets, anchors),
    )
    return calls


class TestExchangeRecord:
    def test_lengths_must_match(self):
        ExchangeRecord(ExchangeKind.MIMIC, (5,), (7,))
        with pytest.raises(ValidationError):
            ExchangeRecord(ExchangeKind.MIMIC, (5, 6), (7,))


class TestIntervalExchange:
    def test_reference(self, ref_positroid):
        out = interval_exchange(ref_positroid, {1, 4, 7, 8, 10, 11, 13}, 13, 2)
        assert out == {4, 7, 8, 10, 11, 13, 14}

    def test_identity_on_necklace_member(self, ref_positroid):
        I8 = ref_positroid.necklace.at(8)
        assert interval_exchange(ref_positroid, I8, 8, 10) == I8

    def test_nonmaximizing_input_detected(self):
        P = Positroid.from_oneline((3, 4, 2, 1))
        # {3,4} carries nothing on [1,2] even though bases with two elements
        # there exist: the caller's input breaks the precondition
        with pytest.raises(ValidationError, match="maximum is 2"):
            interval_exchange(P, {3, 4}, 1, 2)

    def test_non_basis_refused(self, ref_positroid):
        with pytest.raises(ValidationError, match="needs a basis"):
            interval_exchange(ref_positroid, {1, 2, 3, 4, 5, 6, 7}, 1, 2)

    def test_only_the_callers_set_goes_through_is_basis(self, ref_positroid, basis_tests):
        # the result is the package's own mask: one Gale test, no is_basis
        J = (1, 4, 7, 8, 10, 11, 13)
        assert interval_exchange(ref_positroid, J, 13, 2) == {4, 7, 8, 10, 11, 13, 14}
        assert basis_tests == {"is_basis": [J], "_gale_holds": [1, 1]}

    def test_a_non_basis_result_is_a_contract_violation(self, ref_positroid, monkeypatch):
        gale = Positroid._gale_holds

        def result_fails(self, sets, anchors):
            return 0 if sets == [[4, 7, 8, 10, 11, 13, 14]] else gale(self, sets, anchors)

        monkeypatch.setattr(Positroid, "_gale_holds", result_fails)
        with pytest.raises(ContractViolationError, match=r"exchange on \[13,2\] left a non-basis"):
            interval_exchange(ref_positroid, {1, 4, 7, 8, 10, 11, 13}, 13, 2)


class TestCompatibility:
    def test_reference_true(self, ref_positroid):
        I2 = ref_positroid.necklace.at(2)
        assert is_compatible(ref_positroid, I2, 7, (4, 10))

    def test_excess_after_center(self, ref_positroid):
        # 6 sits in [2,6] but not in I_2
        assert not is_compatible(ref_positroid, {6}, 2, (1, 6))

    def test_missing_before_center(self, ref_positroid):
        # I_7 holds 4 strictly before 7, the empty set does not
        assert not is_compatible(ref_positroid, (), 7, (2, 10))

    def test_center_must_be_inside_window(self, ref_positroid):
        with pytest.raises(ValidationError):
            is_compatible(ref_positroid, (), 3, (4, 10))


class TestMimic:
    def test_reference_exchange(self, ref_positroid):
        I2 = ref_positroid.necklace.at(2)
        result, status = mimic(ref_positroid, I2, 7, (4, 10))
        assert result == {2, 3, 4, 7, 10, 11, 12}
        assert status is GapStatus.HAS_GAPS

    def test_reference_no_move(self, ref_positroid):
        I7 = ref_positroid.necklace.at(7)
        result, status = mimic(ref_positroid, I7, 2, (10, 4))
        assert result == I7
        assert status is GapStatus.HAS_GAPS

    def test_incompatible_rejected(self, ref_positroid):
        with pytest.raises(ValidationError, match="cannot mimic"):
            mimic(ref_positroid, {6}, 2, (1, 6))

    def test_gap_free_when_target_reached(self, ref_positroid):
        I7 = ref_positroid.necklace.at(7)
        result, status = mimic(ref_positroid, I7, 7, (4, 10))
        assert result == I7
        assert status is GapStatus.GAP_FREE

    def test_full_circle_window_adds_b_first(self):
        # (2, 2] is the whole circle and I_1 = {1, 2} lacks both from J;
        # one slot is free, and the (x - b) % n order puts b = 2 before 1
        P = Positroid.from_oneline((1, 2, 3), white=(3,), black=(1, 2))
        result, status = mimic(P, {3}, 1, (2, 2))
        assert result == {2}
        assert status is GapStatus.HAS_GAPS


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except ValidationError as exc:
        return "error", str(exc)


def _set_arcs(P, c, window):
    """I_c and the arcs (b, c) and [c, d] of the window (b, d], as member sets."""
    b, d = window
    if not half_open(b, d, P.n).contains(c):
        raise ValidationError(f"center {c} lies outside the window ({b},{d}]")
    return P.necklace.at(c), open_interval(b, c, P.n).members, CyclicInterval.span(c, d, P.n).members


def _set_compatible(P, J, c, window):
    Ic, before, after = _set_arcs(P, c, window)
    return (Ic & before) <= J and (J & after) <= Ic


def _set_mimic_parts(P, J, c, window):
    Ic, before, after = _set_arcs(P, c, window)
    b, d = window
    n = P.n
    if not _set_compatible(P, J, c, window):
        raise ValidationError(f"set is not compatible with I_{c} in ({b},{d}]; cannot mimic")
    over = (J - Ic) & before
    missing = (Ic - J) & after
    alpha = min(len(over), len(missing))
    removed = tuple(sorted(over, key=lambda x: (x - b) % n, reverse=True)[:alpha])
    added = tuple(sorted(missing, key=lambda x: (x - b) % n)[:alpha])
    result = (J - set(removed)) | set(added)
    status = GapStatus.GAP_FREE if result & after == Ic & after else GapStatus.HAS_GAPS
    return removed, added, result, status


def _mask_mimic_parts(P, J, c, window):
    """morph._trade, the one mimic step, which works on masks rotated right
    by the window's end d, read with sets after morph._checked_window, and
    the trade morph._mimic_record reads off its input and result."""
    n = P.n
    b, d = morph._checked_window(P, c, window)
    result, status = morph._trade(morph._rotate(_mask(J), d, n), P.necklace.masks[c - 1], b, c, d, n)
    result = morph._rotate(result, -d, n)
    record = morph._mimic_record(n, _mask(J), result, b)
    return record.removed, record.added, frozenset(_elements(result)), status


class TestWindowArcs:
    def test_position_space_matches_member_sets(self):
        # every decorated positroid with n <= 4, every J, center and window,
        # the full-circle windows (b, b] included: is_compatible, mimic and
        # _trade give the set-based reference's values and messages
        for n in range(1, 5):
            cases = [(c, (b, d)) for c in range(1, n + 1)
                     for b in range(1, n + 1) for d in range(1, n + 1)]
            for P in decorated_positroids(n):
                for J in all_subsets(n):
                    for case in cases:
                        args = (P, J, *case)
                        assert _outcome(is_compatible, *args) == _outcome(_set_compatible, *args), args
                        parts = _outcome(_set_mimic_parts, *args)
                        assert _outcome(_mask_mimic_parts, *args) == parts, args
                        if parts[0] == "ok":
                            parts = ("ok", parts[1][2:])
                        assert _outcome(mimic, *args) == parts, args


class TestMorphSequence:
    def test_two_interval_reference_start_one(self, ref_positroid):
        E = decompose({2, 3, 4, 7, 8, 9, 10}, 14)
        states = morph_sequence(ref_positroid, E, 1)
        assert len(states) == 2
        s0, s1 = states
        assert (s0.start, s0.stage) == (1, 0)
        assert s0.members == ref_positroid.necklace.at(2)
        assert s0.status is None and s0.window is None and s0.exchange is None
        assert (s1.stage, s1.window, s1.center) == (1, (4, 10), 7)
        assert s1.exchange.removed == (5,)
        assert s1.exchange.added == (7,)
        assert s1.exchange.kind is ExchangeKind.MIMIC
        assert s1.members == {2, 3, 4, 7, 10, 11, 12}
        assert s1.status is GapStatus.HAS_GAPS

    def test_two_interval_reference_start_two(self, ref_positroid):
        E = decompose({2, 3, 4, 7, 8, 9, 10}, 14)
        states = morph_sequence(ref_positroid, E, 2)
        s1 = states[1]
        assert (s1.window, s1.center) == ((10, 4), 2)
        assert s1.exchange.removed == ()
        assert s1.members == ref_positroid.necklace.at(7)
        assert s1.status is GapStatus.HAS_GAPS

    def test_exhaustive_small_sequences_are_pinned(self):
        # every decorated positroid with n <= 5, every nonempty E and every
        # start i: the digest of the morph sequences' reprs, exchange
        # records included, in decorated_positroids/all_subsets order
        digest, count = hashlib.sha256(), 0
        for n in range(6):
            for P in decorated_positroids(n):
                for E in all_subsets(n):
                    if E:
                        D = decompose(E, n)
                        for i in range(1, D.s + 1):
                            digest.update(repr(morph_sequence(P, D, i)).encode())
                            count += 1
        assert (count, digest.hexdigest()) == (
            14600, "1973c749297bad59aaa53012f032397818ea79a5c379bd1c151cdfd1b862072d"
        )

    def test_single_interval(self, ref_positroid):
        E = decompose({8, 9, 10}, 14)
        states = morph_sequence(ref_positroid, E, 1)
        assert len(states) == 1
        assert states[0].members == ref_positroid.necklace.at(8)

    def test_start_out_of_range(self, ref_positroid):
        E = decompose(E4, 14)
        with pytest.raises(ValidationError):
            morph_sequence(ref_positroid, E, 3)
        with pytest.raises(ValidationError):
            morph_sequence(ref_positroid, E, 0)

    def test_stage_one_is_always_a_basis(self, ref_positroid):
        # the first mimic of a morph can never leave the matroid
        for members in ({1, 2, 3, 8, 9, 10}, {2, 3, 4, 7, 8, 9, 10},
                        {1, 2, 7, 8, 9, 10, 13}, {5, 6, 11, 12}, {1, 6, 9, 13}):
            E = decompose(members, 14)
            for i in range(1, E.s + 1):
                states = morph_sequence(ref_positroid, E, i)
                if len(states) > 1:
                    assert ref_positroid.is_basis(states[1].members), (members, i)


class TestAlignBasis:
    def test_reference_chain(self, ref_positroid):
        E = decompose({1, 2, 3, 4, 6, 7}, 14)
        trace: list[ExchangeRecord] = []
        out = align_basis(ref_positroid, {1, 3, 6, 7, 10, 11, 14}, E, 1, trace)
        assert out == {1, 3, 4, 7, 10, 11, 12}
        assert [(r.removed, r.added) for r in trace] == [((14,), (12,)), ((6,), (4,))]
        assert all(r.kind is ExchangeKind.BASIS_EXCHANGE for r in trace)

    def test_needs_a_basis(self, ref_positroid):
        E = decompose(E4, 14)
        with pytest.raises(ValidationError, match="basis"):
            align_basis(ref_positroid, {1, 2, 3}, E, 1)

    def test_needs_a_maximizer(self):
        P = Positroid.from_oneline((3, 4, 2, 1))
        E = decompose({2, 3}, 4)
        with pytest.raises(ValidationError, match="maximum"):
            align_basis(P, {2, 4}, E, 1)
        assert align_basis(P, {2, 3}, E, 1) == {2, 3}

    def test_maximum_proved_without_a_rank(self, monkeypatch):
        # on the n = 400, s = 60 query whose walker-0 candidate misses, the
        # precondition is one tight check: no basis search and no rank table
        rank_module = importlib.import_module("positroids.rank")
        rng = random.Random(52)
        P = random_decorated_positroid(400, rng)
        members = random_union(400, 60, rng)
        E = decompose(members, 400)
        W = witness_basis(P, members)
        calls = []
        for module, name in ((morph, "_maximum_basis"), (rank_module, "_rank_table")):
            f = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, f=f, name=name: calls.append(name) or f(*args))
        out = align_basis(P, W, E, 1)
        assert calls == []
        assert P.is_basis(out) and len(out & members) == len(W & members) == 149
        short = P.necklace.at(1)
        assert len(short & members) == 66
        with pytest.raises(ValidationError, match="66 elements, fewer than the maximum"):
            align_basis(P, short, E, 1)

    def test_window_agreement_and_count_preserved(self, ref_positroid):
        P = ref_positroid
        for members in (E4, {1, 2, 7, 8, 9, 10, 13}, {2, 3, 4, 7, 8, 9, 10}):
            E = decompose(members, 14)
            B = witness_basis(P, members)
            target = len(B & E.members)
            for i in range(1, E.s + 1):
                out = align_basis(P, B, E, i)
                assert P.is_basis(out)
                assert len(out & E.members) == target
                a_i, b_i = E.intervals[i - 1]
                b_prev = E.intervals[(i - 2) % E.s][1]
                window = half_open(b_prev, b_i, 14).members
                assert out & window == P.necklace.at(a_i) & window


class TestExchangeLemma:
    def test_anchors_in_the_exchanged_arc_decide(self):
        # every basis B, e in B and f outside it, n <= 6: B - e + f tested
        # only at its anchors in (e, f] is a basis exactly when the
        # enumeration lists it
        checked, outcomes = 0, set()
        for n in range(7):
            for P in decorated_positroids(n):
                bases = set(enumerate_bases(P))
                for B in bases:
                    for e in B:
                        for f in set(range(1, n + 1)) - B:
                            expected = (B - {e}) | {f} in bases
                            assert morph._exchange_holds(P, _mask(B), e, f) == expected, (P.perm, B, e, f)
                            checked += 1
                            outcomes.add(expected)
        assert (checked, outcomes) == (102_096, {True, False})


class TestWitnessDuality:
    """The complement of a witness is a basis of the dual positroid, and it
    meets the complement of E in r*([n] - E) = |[n] - E| - d + r(E)
    elements: a check through another necklace, at sizes where brute force
    cannot go."""

    def test_dual_bases_are_the_complements(self):
        for n in range(7):
            for P in decorated_positroids(n):
                ground = frozenset(range(1, n + 1))
                Q = dual(P)
                assert set(enumerate_bases(Q)) == {ground - B for B in enumerate_bases(P)}, P.perm
                assert dual(Q) == P

    @staticmethod
    def _check(P, E):
        ground = frozenset(range(1, P.n + 1))
        rest = ground - frozenset(E)
        Q = dual(P)
        r_star = len(rest) - P.d + rank_dp(P, E)
        assert rank_dp(Q, rest) == r_star, (P.perm, sorted(E))
        co_witness = ground - witness_basis(P, E)
        assert Q.is_basis(co_witness), (P.perm, sorted(E))
        assert len(co_witness & rest) == r_star, (P.perm, sorted(E))

    def test_exhaustive_small(self):
        for n in range(6):
            for P in decorated_positroids(n):
                for E in all_subsets(n):
                    self._check(P, E)

    def test_seeded_large(self):
        rng = random.Random(2026)
        for _ in range(60):
            n = rng.randrange(100, 401)
            P = random_decorated_positroid(n, rng, fixed=rng.randrange(9))
            self._check(P, random_union(n, rng.randrange(1, 33), rng))


# each call is valid on the reference positroid as long as `extra` is empty
MORPH_ENTRY_POINTS = {
    "interval_exchange": lambda P, extra: interval_exchange(
        P, [1, 4, 7, 8, 10, 11, 13, *extra], 13, 2
    ),
    "is_compatible": lambda P, extra: is_compatible(P, [*P.necklace.at(2), *extra], 7, (4, 10)),
    "mimic": lambda P, extra: mimic(P, [*P.necklace.at(2), *extra], 7, (4, 10)),
    "align_basis": lambda P, extra: align_basis(
        P, [*P.necklace.at(2), *extra], decompose({2, 3, 4, 5}, 14), 1
    ),
}


@pytest.mark.parametrize("entry", MORPH_ENTRY_POINTS)
@pytest.mark.parametrize("extra", ["x", 99, 2.0])
def test_set_arguments_are_checked(ref_positroid, entry, extra):
    # 2.0 == 2 lands on a member of the set or of the exchanged interval, so
    # freezing the set before the check would hide it
    MORPH_ENTRY_POINTS[entry](ref_positroid, ())
    with pytest.raises(ValidationError):
        MORPH_ENTRY_POINTS[entry](ref_positroid, (extra,))


@pytest.mark.parametrize("entry", ["interval_exchange", "align_basis"])
def test_a_repeated_basis_element_is_refused(ref_positroid, entry):
    # the caller's basis goes to is_basis as listed, so a member named twice
    # is refused and not read as the smaller set
    with pytest.raises(ValidationError, match="lists 10 twice"):
        MORPH_ENTRY_POINTS[entry](ref_positroid, (10,))


class TestWitness:
    def test_reference(self, ref_positroid):
        W = witness_basis(ref_positroid, E4)
        assert W == {1, 3, 4, 5, 10, 11, 12}
        assert len(W & E4) == 3

    def test_three_interval_set(self, ref_positroid):
        E = frozenset({1, 2, 7, 8, 9, 10, 13})
        W = witness_basis(ref_positroid, E)
        assert ref_positroid.is_basis(W)
        assert len(W & E) == 5

    def test_edge_sets(self, ref_positroid):
        P = ref_positroid
        assert P.is_basis(witness_basis(P, ()))
        full = witness_basis(P, range(1, 15))
        assert P.is_basis(full) and len(full) == 7

    def test_exhaustive_small(self):
        # every decorated permutation of [n], 0 <= n <= 5, every subset:
        # rank, rank_dp and the witness all attain the brute-force rank, with
        # the loops and coloops left in place for the witness
        for n in range(6):
            for P in decorated_positroids(n):
                for E in all_subsets(n):
                    expected = rank_bruteforce(P, E)
                    assert rank(P, E).value == expected, (P.perm, E)
                    assert rank_dp(P, E) == expected, (P.perm, E)
                    W = witness_basis(P, E)
                    assert P.is_basis(W), (P.perm, E)
                    assert len(W & E) == expected, (P.perm, E)

    def test_exhaustive_small_outputs_are_pinned(self, recursion_calls, basis_tests):
        # every witness for every decorated (P, E) with n <= 6, one "x,y,z"
        # line each, in decorated_positroids and all_subsets order, as a
        # SHA-256 digest: the construction's search order, pieces, alignments
        # and splices fix each returned basis. On the 36 queries whose
        # walker-0 candidate misses, the second walk proves its set, so the
        # morph recursion never runs; no set the witness builds goes through
        # is_basis
        h = hashlib.sha256()
        queries = 0
        for n in range(7):
            for P in decorated_positroids(n):
                for E in all_subsets(n):
                    h.update((",".join(map(str, sorted(witness_basis(P, E)))) + "\n").encode())
                    queries += 1
        assert (queries, h.hexdigest()) == (
            136873, "0bd9d2e49f18a0a5a17b79ca6a42d3d688a5833f9d5e6c2c6d66d31d495fb2c2"
        )
        assert len(recursion_calls) == 0 and basis_tests["is_basis"] == []

    def test_deep_morph_recursion_needs_no_interpreter_stack(self):
        # witness_basis takes walker 0's candidate on the deep query, so the
        # recursion is called directly: it runs its s = n / 2 levels on an
        # explicit stack and finishes with only 100 frames to spare above
        # this one
        n = 240
        P, E = _deep_query(n)
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            W = _elements(morph._witness_rec(P, decompose(E, n).intervals))
        finally:
            sys.setrecursionlimit(limit)
        assert P.is_basis(W)
        assert len(set(W) & set(E)) == rank_dp(P, E) == n // 2

    def test_deep_query_takes_one_gale_test(self, recursion_calls, basis_tests):
        # the candidate's s - 1 mimics test nothing; the final check is the
        # one Gale test, and it accepts
        n = 240
        P, E = _deep_query(n)
        W = witness_basis(P, E)
        assert basis_tests == {"is_basis": [], "_gale_holds": [1]} and recursion_calls == []
        assert len(W & set(E)) == n // 2

    def test_readme_query_takes_the_candidate(self, ref_positroid, recursion_calls, basis_tests):
        assert witness_basis(ref_positroid, E4) == {1, 3, 4, 5, 10, 11, 12}
        assert recursion_calls == []
        assert basis_tests == {"is_basis": [], "_gale_holds": [1]}

    def test_empty_set_takes_I1(self, ref_positroid, recursion_calls, basis_tests):
        # a necklace member is a basis, so I_1 is returned with no Gale test
        assert witness_basis(ref_positroid, ()) == ref_positroid.necklace.at(1)
        assert recursion_calls == []
        assert basis_tests == {"is_basis": [], "_gale_holds": []}

    def test_a_piece_over_two_intervals_steps_back(self, recursion_calls):
        # the candidate misses, and the top level's first piece found, (0, 2),
        # spans two intervals: its start is found by stepping back from stage 1
        P = Positroid.from_oneline(
            [5, 9, 10, 12, 7, 6, 11, 13, 2, 3, 8, 4, 1, 14], black=(6,), white=(14,)
        )
        E = frozenset({1, 5, 7, 13})
        intervals = decompose(E, P.n).intervals
        *_, (candidate, *_) = morph._stages(P, intervals)
        assert _elements(candidate) == [1, 5, 6, 8, 9, 13] and not P.is_basis(_elements(candidate))
        assert morph._witness_level(P, intervals)[2] == [(2, 4), (0, 2)]
        W = witness_basis(P, E)
        assert W == {5, 6, 8, 9, 10, 13} and len(recursion_calls) == 1
        assert W in set(enumerate_bases(P)) and len(W & E) == rank_bruteforce(P, E) == 2

    @pytest.mark.parametrize(
        "found",
        [
            {4, 6, 7},  # an element past n = 6
            {4, 6, 70001},  # an element past any 16-bit field
            {3, 4, 5, 6},  # d + 1 members
            {4, 6},  # d - 1 members
            {3, 4, 5},  # a basis meeting E in 1 < rank(E) = 2 elements
            {2, 3, 6},  # d members, 2 of them in E, but no basis
        ],
    )
    def test_every_guard_refuses_a_bad_construction(self, monkeypatch, found):
        # the candidate {2, 4, 6} is not a basis and the second walk is
        # turned off, so the patched recursion's mask is checked next; each
        # fails one guard, and the refusal is a ContractViolationError, never
        # the Gale kernel's IndexError or struct.error
        monkeypatch.setattr(morph, "_second_start", lambda P, walk: 0)
        monkeypatch.setattr(morph, "_witness_rec", lambda P, intervals: _mask(found))
        with pytest.raises(ContractViolationError, match="is not a basis meeting E"):
            witness_basis(*_rejected(0))

    def test_a_basis_missing_the_target_is_no_witness(self, ref_positroid, monkeypatch, recursion_calls):
        # I_4 is a basis but meets E4 in 2 < rank(E4) = 3 elements: as walker
        # 0's candidate, the first walk built, it must be passed over
        stages, walks = morph._stages, []

        def candidate_is_I4(P, order):
            walks.append(order)
            if len(walks) == 1:
                yield P.necklace.masks[3], None, None
            else:
                yield from stages(P, order)

        monkeypatch.setattr(morph, "_stages", candidate_is_I4)
        assert witness_basis(ref_positroid, E4) == {1, 3, 4, 5, 10, 11, 12}
        assert len(recursion_calls) == 1

    def test_rejected_candidate_example(self):
        P, E = _rejected(0)
        *_, (candidate, *_) = morph._stages(P, decompose(E, P.n).intervals)
        assert _elements(candidate) == [2, 4, 6] and not P.is_basis(_elements(candidate))
        assert rank_dp(P, E) == 2

    @pytest.mark.parametrize("k", range(len(REJECTED_CANDIDATES)))
    def test_rejected_candidate_runs_the_recursion_once(self, monkeypatch, recursion_calls, k):
        # with the second walk turned off, the miss goes to the recursion
        monkeypatch.setattr(morph, "_second_start", lambda P, walk: 0)
        P, E = _rejected(k)
        *_, (candidate, *_) = morph._stages(P, decompose(E, P.n).intervals)
        assert not (
            P.is_basis(_elements(candidate)) and len(E.intersection(_elements(candidate))) == rank_dp(P, E)
        )
        W = witness_basis(P, E)
        assert len(recursion_calls) == 1
        assert P.is_basis(W) and len(W & E) == rank_bruteforce(P, E)

    @pytest.mark.parametrize("k", range(len(REJECTED_CANDIDATES)))
    def test_rejected_candidate_is_proved_by_the_second_walk(self, walks, recursion_calls, k):
        # walker 0 walks once, the second walk from the interval where it
        # last made a basis proves its set, and the recursion never runs
        P, E = _rejected(k)
        intervals = decompose(E, P.n).intervals
        W = witness_basis(P, E)
        assert len(walks) == 2 and walks[0] == intervals != walks[1]
        assert recursion_calls == [] and morph._proved(P, _mask(W), (intervals, _mask(E)))
        assert P.is_basis(W) and len(W & E) == rank_bruteforce(P, E)

    @pytest.mark.parametrize("k", range(len(REJECTED_CANDIDATES)))
    def test_rejected_candidate_builds_a_table_only_in_rank_dp(self, monkeypatch, walks, recursion_calls, k):
        # the candidate is no basis, so rank_dp, made to try the search at
        # any s, walks what the witness walks, walker 0 and the second walk,
        # and proves the second walk's basis with no table. With the second
        # walk turned off, both walks miss: rank_dp falls back to one rank
        # table, and the witness runs the recursion, proves its basis by a
        # tight partition and builds no table
        rank_module = importlib.import_module("positroids.rank")
        tables = []
        build = rank_module._rank_table
        monkeypatch.setattr(rank_module, "_rank_table", lambda w, d: tables.append(d) or build(w, d))
        monkeypatch.setattr(rank_module, "_candidate_first", lambda s, d: True)
        P, E = _rejected(k)
        intervals = decompose(E, P.n).intervals
        assert rank_dp(P, E) == rank_bruteforce(P, E)
        searched = list(walks)
        assert tables == [] and len(searched) == 2 and searched[0] == intervals != searched[1]
        witness_basis(P, E)
        assert tables == [] and walks == searched * 2 and recursion_calls == []
        monkeypatch.setattr(morph, "_second_start", lambda P, walk: 0)
        walks.clear()
        assert rank_dp(P, E) == rank_bruteforce(P, E)
        assert len(tables) == 1 and walks == [intervals, intervals]
        W = witness_basis(P, E)
        assert len(tables) == 1 and recursion_calls == [intervals]
        assert P.is_basis(W) and len(W & E) == rank_bruteforce(P, E)

    def test_a_candidate_hit_builds_no_gap_matrix(self, ref_positroid, monkeypatch, gap_matrices):
        # the deep query's candidate proves itself at s = 120, and so does
        # the README query's with the candidate forced first at s = 2:
        # rank_dp, the witness and its alignment count gaps in bands only
        rank_module = importlib.import_module("positroids.rank")
        for forced, (P, E) in ((False, _deep_query(240)), (True, (ref_positroid, E4))):
            if forced:
                monkeypatch.setattr(rank_module, "_candidate_first", lambda s, d: True)
            W = witness_basis(P, E)
            assert rank_dp(P, E) == len(W & set(E))
            assert len(align_basis(P, W, decompose(E, P.n), 1) & set(E)) == len(W & set(E))
        assert gap_matrices == []

    @pytest.mark.parametrize("k", range(len(REJECTED_CANDIDATES)))
    def test_rejected_candidate_builds_one_gap_matrix(self, monkeypatch, gap_matrices, k):
        # with the search forced first, the second walk proves the basis
        # and no gap matrix is built; with the second walk turned off, the
        # candidate's miss costs rank_dp the table's one gap matrix, over
        # E's own intervals
        rank_module = importlib.import_module("positroids.rank")
        monkeypatch.setattr(rank_module, "_candidate_first", lambda s, d: True)
        P, E = _rejected(k)
        assert rank_dp(P, E) == rank_bruteforce(P, E)
        assert gap_matrices == []
        monkeypatch.setattr(morph, "_second_start", lambda P, walk: 0)
        assert rank_dp(P, E) == rank_bruteforce(P, E)
        assert gap_matrices == [decompose(E, P.n).intervals]

    def test_seeded_large_miss_builds_no_table(self, monkeypatch, walks, recursion_calls):
        # at n = 400 and s = 60 walker 0's candidate is no basis; the second
        # walk's basis is proved by a tight partition, with no rank table
        # built and no recursion
        rank_module = importlib.import_module("positroids.rank")
        rng = random.Random(52)
        P = random_decorated_positroid(400, rng)
        E = random_union(400, 60, rng)
        intervals = decompose(E, 400).intervals
        *_, (candidate, *_) = morph._stages(P, intervals)
        assert not morph._is_basis(P, candidate)
        tables = []
        build = rank_module._rank_table
        monkeypatch.setattr(rank_module, "_rank_table", lambda w, d: tables.append(d) or build(w, d))
        walks.clear()
        W = witness_basis(P, E)
        assert tables == [] and recursion_calls == [] and len(walks) == 2
        assert morph._proved(P, _mask(W), (intervals, _mask(E)))
        assert P.is_basis(W) and len(W & E) == rank_dp(P, E)

    def test_with_fixed_points(self):
        P = Positroid.from_oneline((1, 3, 4, 2, 5), white=(1,), black=(5,))
        for E in all_subsets(5):
            W = witness_basis(P, E)
            assert P.is_basis(W)
            assert len(W & E) == rank_bruteforce(P, E)

    def test_missed_target_is_a_contract_violation(self, monkeypatch):
        # the candidate {2, 4, 6} is not a basis and the second walk is
        # turned off, so the recursion runs; its mask here is {1, 2, 3}, and
        # the loop 1 lies in no basis either
        calls = []
        monkeypatch.setattr(morph, "_second_start", lambda P, walk: 0)
        monkeypatch.setattr(morph, "_witness_rec", lambda P, intervals: calls.append(1) or _mask({1, 2, 3}))
        with pytest.raises(ContractViolationError, match=r"witness \[1, 2, 3\] is not a basis"):
            witness_basis(*_rejected(0))
        assert calls == [1]

    def test_failure_inside_is_a_contract_violation(self, monkeypatch):
        # the candidate misses, the second walk is turned off, and a mimic
        # of the recursion's own walks then refuses
        recursion, trade, inside = morph._witness_rec, morph._trade, []

        def broken(J, Ic, b, c, d, n):
            if inside:
                raise ValidationError(f"set is not compatible with I_{c}")
            return trade(J, Ic, b, c, d, n)

        monkeypatch.setattr(morph, "_second_start", lambda P, walk: 0)
        monkeypatch.setattr(
            morph, "_witness_rec", lambda P, intervals: inside.append(1) or recursion(P, intervals)
        )
        monkeypatch.setattr(morph, "_trade", broken)
        with pytest.raises(ContractViolationError, match="morph walk failed: set is not compatible"):
            witness_basis(*_rejected(0))
        assert inside == [1]

    def test_failure_in_the_candidate_is_a_contract_violation(
        self, ref_positroid, monkeypatch, recursion_calls
    ):
        def broken(J, Ic, b, c, d, n):
            raise ValidationError(f"set is not compatible with I_{c}")

        monkeypatch.setattr(morph, "_trade", broken)
        with pytest.raises(ContractViolationError, match="morph walk failed: set is not"):
            witness_basis(ref_positroid, E4)
        assert recursion_calls == []


class TestSearchOrder:
    """The one search for a proved maximum basis (morph._maximum_basis):
    I_{a_1} for at most one interval, then walker 0's fully morphed set,
    then the second walk, then, for the witness, the morph recursion."""

    @pytest.fixture
    def proofs(self, monkeypatch):
        """The masks handed to the tight-partition proof."""
        calls, prove = [], morph._maximal
        monkeypatch.setattr(morph, "_maximal", lambda P, query, W: calls.append(W) or prove(P, query, W))
        return calls

    def test_one_interval_takes_its_necklace_member_untested(
        self, ref_positroid, basis_tests, proofs, recursion_calls
    ):
        # s <= 1: I_{a_1}, or I_1 for an empty set, with no Gale test and no
        # tight-partition proof, wrapping intervals and loops included
        dec = Positroid.from_oneline((1, 3, 4, 2, 5), white=(1,), black=(5,))
        queries = [
            (ref_positroid, set(), 1), (ref_positroid, {3, 4, 5}, 3), (ref_positroid, {13, 14, 1, 2}, 13),
            (ref_positroid, set(range(1, 15)), 1), (dec, {1, 2}, 1), (dec, {5, 1}, 5), (dec, set(), 1),
        ]
        found = [witness_basis(P, E) for P, E, _ in queries]
        assert basis_tests == {"is_basis": [], "_gale_holds": []}
        assert proofs == [] and recursion_calls == []
        for (P, E, a), W in zip(queries, found):
            assert W == P.necklace.at(a)
            assert P.is_basis(W) and len(W & E) == rank_bruteforce(P, E), (P.perm, sorted(E))

    def test_where_both_walks_miss_the_recursion_runs(self, recursion_calls):
        # dec14.json with E = {1, 5, 7, 13}, and Random(124) at n = 60, s = 20:
        # neither walker 0's set nor the second walk's is proved, so the
        # recursion runs once, and its set passes the same proof
        dec14 = Positroid.from_oneline(
            [5, 9, 10, 12, 7, 6, 11, 13, 2, 3, 8, 4, 1, 14], black=(6,), white=(14,)
        )
        rng = random.Random(124)
        P60 = random_decorated_positroid(60, rng)
        for P, E in ((dec14, {1, 5, 7, 13}), (P60, random_union(60, 20, rng))):
            intervals = decompose(E, P.n).intervals
            walk = list(morph._stages(P, intervals))
            t = morph._second_start(P, walk)
            *_, (second, *_) = morph._stages(P, intervals[t:] + intervals[:t])
            query = intervals, _mask(E)
            assert not morph._proved(P, walk[-1][0], query)
            assert not morph._proved(P, second, query)
            recursion_calls.clear()
            W = witness_basis(P, E)
            assert recursion_calls == [intervals]
            assert morph._proved(P, _mask(W), query)

    def test_the_recursion_alone_is_proved_on_every_small_query(self):
        # no witness with n <= 6 reaches the recursion any more, so it is
        # run directly on every decorated (P, E) with n <= 6 and s >= 1
        queries = 0
        for n in range(1, 7):
            for P in decorated_positroids(n):
                for E in all_subsets(n):
                    intervals = decompose(E, n).intervals
                    if intervals:
                        W = morph._witness_rec(P, intervals)
                        assert morph._proved(P, W, (intervals, _mask(E))), (P.perm, sorted(E))
                        queries += 1
        assert queries == 134501


class TestGroundSetAndIndices:
    """A decomposition on another ground set, or an index that is not a plain
    int, is refused before any stage or exchange is computed."""

    def test_morph_sequence_refuses_another_ground_set(self, ref_positroid):
        with pytest.raises(ValidationError, match="1..20"):
            morph_sequence(ref_positroid, decompose({16, 17}, 20), 1)

    def test_align_basis_refuses_another_ground_set(self, ref_positroid):
        with pytest.raises(ValidationError, match="1..10"):
            align_basis(ref_positroid, ref_positroid.necklace.at(2), decompose({2, 3, 4, 5}, 10), 1)

    def test_morph_sequence_refuses_a_bool_index(self, ref_positroid):
        with pytest.raises(ValidationError, match="integers"):
            morph_sequence(ref_positroid, decompose(E4, 14), True)

    def test_align_basis_refuses_a_float_index(self, ref_positroid):
        args = (ref_positroid, ref_positroid.necklace.at(2), decompose({2, 3, 4, 5}, 14))
        assert align_basis(*args, 1) == ref_positroid.necklace.at(2)
        with pytest.raises(ValidationError, match="integers"):
            align_basis(*args, 1.0)


class TestLazyWitness:
    def test_no_public_reentry(self, ref_positroid, monkeypatch):
        # the candidate of each of these queries is proved maximal by a
        # tight partition, so the witness builds no rank table; rank_dp, the
        # public morph entry points and IntervalDecomposition.restrict do not
        # run at all
        calls = {"rank_dp": 0, "_rank_table": 0, "morph_sequence": 0, "align_basis": 0, "restrict": 0}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        for name in ("morph_sequence", "align_basis"):
            monkeypatch.setattr(morph, name, counted(name, getattr(morph, name)))
        # every rank table, rank_dp's and rank()'s too, is built here
        rank_module = importlib.import_module("positroids.rank")
        for name in ("rank_dp", "_rank_table"):
            monkeypatch.setattr(rank_module, name, counted(name, getattr(rank_module, name)))
        monkeypatch.setattr(
            IntervalDecomposition, "restrict", counted("restrict", IntervalDecomposition.restrict)
        )
        rng = random.Random(60)
        P60 = random_decorated_positroid(60, rng)
        queries = [(ref_positroid, E4), (ref_positroid, {1, 2, 7, 8, 9, 10, 13})]
        queries += [(P60, random_union(60, s, rng)) for s in (3, 6, 9)]
        for P, E in queries:
            before = dict(calls)
            W = witness_basis(P, E)
            assert P.is_basis(W)
            assert {k: calls[k] - before[k] for k in calls} == {
                "rank_dp": 0, "_rank_table": 0, "morph_sequence": 0, "align_basis": 0, "restrict": 0
            }, (P.perm, sorted(E))

    def test_seeded_deep_recursion(self):
        # large n and many intervals, which the exhaustive small sweep never
        # reaches: every witness is a basis attaining rank_dp
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randrange(40, 151)
            P = random_decorated_positroid(n, rng)
            E = random_union(n, rng.randrange(1, 13), rng)
            W = witness_basis(P, E)
            assert P.is_basis(W), (P.perm, sorted(E))
            assert len(W & E) == rank_dp(P, E), (P.perm, sorted(E))
