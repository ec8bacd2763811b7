import pytest

from positroids import (
    ContractViolationError,
    ExchangeKind,
    ExchangeRecord,
    GapStatus,
    Positroid,
    ValidationError,
    align_basis,
    decompose,
    half_open,
    interval_exchange,
    is_compatible,
    mimic,
    morph,
    morph_sequence,
    rank,
    rank_bruteforce,
    rank_dp,
    witness_basis,
)
from helpers import all_subsets, decorated_positroids

E4 = frozenset({1, 2, 3, 8, 9, 10})


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
        # there exist, so the swap cannot produce a basis
        with pytest.raises(ContractViolationError):
            interval_exchange(P, {3, 4}, 1, 2)


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

    def test_with_fixed_points(self):
        P = Positroid.from_oneline((1, 3, 4, 2, 5), white=(1,), black=(5,))
        for E in all_subsets(5):
            W = witness_basis(P, E)
            assert P.is_basis(W)
            assert len(W & E) == rank_bruteforce(P, E)

    def test_missed_target_is_a_contract_violation(self, ref_positroid, monkeypatch):
        # {1..7} is not a basis of the reference positroid
        monkeypatch.setattr(morph, "_witness_rec", lambda P, decomp: frozenset(range(1, 8)))
        with pytest.raises(ContractViolationError, match="not a basis"):
            witness_basis(ref_positroid, E4)

    def test_failure_inside_is_a_contract_violation(self, ref_positroid, monkeypatch):
        def broken(P, decomp):
            raise ValidationError("element 0 out of range")

        monkeypatch.setattr(morph, "_witness_rec", broken)
        with pytest.raises(ContractViolationError, match="witness construction failed"):
            witness_basis(ref_positroid, E4)
