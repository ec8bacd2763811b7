from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from positroids import (
    CyclicInterval,
    IntervalDecomposition,
    Positroid,
    ValidationError,
    cyclic_leq,
    cyclic_less,
    decompose,
    format_set_spec,
    gale_leq,
    half_open,
    interval_contains,
    mimic,
    min_elements,
    open_interval,
    parse_set_spec,
    position,
)
from positroids.cyclic import next_element, prev_element


def test_position_basics():
    assert position(5, 5, 14) == 0
    assert position(6, 5, 14) == 1
    assert position(4, 5, 14) == 13
    with pytest.raises(ValidationError):
        position(0, 1, 14)
    with pytest.raises(ValidationError):
        position(15, 1, 14)


def test_neighbors_wrap():
    assert next_element(14, 14) == 1
    assert prev_element(1, 14) == 14
    assert next_element(3, 14) == 4


def test_cyclic_less():
    # in the order starting at 14: 14 < 1 < ... < 13
    assert cyclic_less(14, 8, 14, 14)
    assert not cyclic_less(1, 13, 9, 14)
    assert cyclic_leq(7, 7, 3, 14)
    assert not cyclic_less(7, 7, 3, 14)


class TestCyclicInterval:
    def test_plain_span(self):
        iv = CyclicInterval.span(3, 6, 14)
        assert list(iv.elements()) == [3, 4, 5, 6]
        assert len(iv) == 4
        assert iv.contains(5)
        assert not iv.contains(7)

    def test_wrapping_span(self):
        iv = CyclicInterval.span(12, 2, 14)
        assert list(iv.elements()) == [12, 13, 14, 1, 2]
        assert iv.contains(1)
        assert not iv.contains(3)
        # every span on up to 7 elements reads as the clockwise walk a..b
        for n in range(1, 8):
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    walk = [a]
                    while walk[-1] != b:
                        walk.append(next_element(walk[-1], n))
                    iv = CyclicInterval.span(a, b, n)
                    assert list(iv.elements()) == walk, (n, a, b)
                    assert iv.members == set(walk) and len(iv) == len(walk)

    def test_singleton_and_full(self):
        assert len(CyclicInterval.span(9, 9, 14)) == 1
        full = CyclicInterval.span(5, 4, 14)
        assert full.is_full
        assert len(full) == 14
        assert CyclicInterval.full(14).members == full.members

    def test_empty_is_distinct(self):
        e = CyclicInterval.empty(14)
        assert e.is_empty
        assert len(e) == 0
        assert not e.contains(1)
        assert str(e) == "[]"
        assert str(CyclicInterval.span(1, 2, 3)) == "[1,2]"
        # no index pair denotes the empty set
        for a in range(1, 15):
            for b in range(1, 15):
                assert len(CyclicInterval.span(a, b, 14)) > 0

    def test_mixed_none_rejected(self):
        with pytest.raises(ValidationError):
            CyclicInterval(14, 3, None)

    @pytest.mark.parametrize("a, b", [(True, 3), (2, 3.0), ("1", 3)])
    def test_non_int_endpoints_rejected(self, a, b):
        with pytest.raises(ValidationError, match="must be integers"):
            CyclicInterval.span(a, b, 5)

    def test_containment(self):
        assert interval_contains((13, 7), (4, 6), 14)
        assert not interval_contains((7, 10), (9, 13), 14)
        assert interval_contains((5, 4), (11, 2), 14)  # full contains wrap
        wrap = CyclicInterval.span(12, 2, 14)
        assert wrap.contains_interval(CyclicInterval.span(13, 1, 14))
        assert wrap.contains_interval(CyclicInterval.empty(14))
        assert not CyclicInterval.empty(14).contains_interval(wrap)

    def test_containment_across_ground_sets_refused(self):
        with pytest.raises(ValidationError, match="different ground sets"):
            CyclicInterval.span(1, 2, 5).contains_interval(CyclicInterval.span(1, 2, 6))


def test_open_interval():
    assert open_interval(3, 8, 14).members == {4, 5, 6, 7}
    assert open_interval(13, 1, 14).members == {14}
    assert open_interval(7, 8, 14).is_empty
    # (b, b) is everything except b
    assert open_interval(5, 5, 14).members == set(range(1, 15)) - {5}


def test_half_open():
    assert half_open(4, 10, 14).members == {5, 6, 7, 8, 9, 10}
    assert half_open(10, 4, 14).members == {11, 12, 13, 14, 1, 2, 3, 4}
    assert half_open(9, 9, 14).is_full


@settings(deadline=None)
@given(st.integers(2, 20), st.data())
def test_open_interval_complements_closed(n, data):
    a = data.draw(st.integers(1, n))
    b = data.draw(st.integers(1, n))
    closed = CyclicInterval.span(a, b, n).members
    opened = open_interval(b, a, n).members
    assert closed | opened == set(range(1, n + 1))
    assert closed & opened == set()


class TestDecompose:
    def test_three_intervals(self):
        d = decompose({1, 2, 7, 8, 9, 10, 13}, 14)
        assert d.intervals == ((1, 2), (7, 10), (13, 13))
        assert d.s == 3
        assert d.members == {1, 2, 7, 8, 9, 10, 13}

    def test_wrapping_interval(self):
        assert decompose({1, 4}, 4).intervals == ((4, 1),)
        assert decompose({14, 1, 2, 8}, 14).intervals == ((8, 8), (14, 2))

    @pytest.mark.parametrize("members", [{True}, {True, 2}, {2.0}, {"a"}])
    def test_non_int_members_rejected(self, members):
        with pytest.raises(ValidationError, match="must be integers"):
            decompose(members, 5)

    def test_empty_and_full(self):
        assert decompose((), 14).s == 0
        assert decompose((), 14).members == frozenset()
        assert decompose(range(1, 15), 14).intervals == ((1, 14),)

    def test_every_subset_is_its_maximal_runs(self):
        # decompose reads the runs off the set's mask; the reference walks
        # the set from each start
        for n in range(10):
            for m in range(1 << n):
                mem = {x for x in range(1, n + 1) if m >> (x - 1) & 1}
                expected = []
                for a in sorted(x for x in mem if (x - 2) % n + 1 not in mem):
                    b = a
                    while b % n + 1 in mem:
                        b = b % n + 1
                    expected.append((a, b))
                if n and len(mem) == n:
                    expected = [(1, n)]
                D = decompose(mem, n)
                assert D.intervals == tuple(expected), (n, sorted(mem))
                assert IntervalDecomposition(n, D.intervals).members == mem

    def test_gap_pairs(self):
        d = decompose({1, 2, 7, 8, 9, 10, 13}, 14)
        assert d.gap_pairs() == ((2, 7), (10, 13), (13, 1))
        gaps = d.gaps()
        assert [g.members for g in gaps] == [{3, 4, 5, 6}, {11, 12}, {14}]

    def test_restrict(self):
        d = decompose({1, 2, 7, 8, 9, 10, 13}, 14)
        assert d.restrict([1, 3]).intervals == ((1, 2), (13, 13))
        assert d.restrict([2]).intervals == ((7, 10),)
        with pytest.raises(ValidationError):
            d.restrict([4])

    def test_invalid_constructions(self):
        with pytest.raises(ValidationError):
            IntervalDecomposition(14, ((1, 3), (3, 5)))  # overlap
        with pytest.raises(ValidationError):
            IntervalDecomposition(14, ((1, 3), (4, 5)))  # adjacent, not maximal
        with pytest.raises(ValidationError):
            IntervalDecomposition(14, ((7, 10), (1, 2)))  # unsorted

    @pytest.mark.parametrize("intervals, message", [
        (((1, 3), (3, 5)), "overlap"),
        (((2, 3), (5, 2)), "overlap"),  # the last interval wraps onto the first
        (((2, 2), (2, 4)), "overlap"),  # same start
        (((1, 3), (4, 5)), "adjacent"),
        (((3, 4), (6, 2)), "adjacent"),  # wraps up to the element before 3
        (((4, 5), (1, 2)), "sorted"),
        (((1, 2.0),), "integers"),
        (((None, None),), "integers"),
        (((0, 2),), "out of range"),
        (((5, 7),), "out of range"),
        (((3, 2),), r"whole circle is written \(1, 6\)"),  # the circle from 3
    ])
    def test_invalid_construction_messages(self, intervals, message):
        with pytest.raises(ValidationError, match=message):
            IntervalDecomposition(6, intervals)

    def test_endpoint_check_matches_member_sets(self):
        # the O(s) check from endpoints accepts exactly the sorted tuples of
        # disjoint intervals that leave a gap after each one (s > 1), and
        # the whole circle only as (1, n)
        for n in range(1, 6):
            pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
            for s in range(4):
                for intervals in product(pairs, repeat=s):
                    arcs = [CyclicInterval.span(a, b, n).members for a, b in intervals]
                    union = frozenset().union(*arcs)
                    valid = (
                        sum(map(len, arcs)) == len(union)
                        and [a for a, _ in intervals] == sorted(a for a, _ in intervals)
                        and (s < 2 or all(b % n + 1 not in union for _, b in intervals))
                        and (len(union) < n or intervals == ((1, n),))
                    )
                    try:
                        IntervalDecomposition(n, intervals)
                    except ValidationError:
                        assert not valid, (n, intervals)
                    else:
                        assert valid, (n, intervals)


@settings(deadline=None)
@given(st.integers(1, 16), st.data())
def test_decompose_roundtrip(n, data):
    members = data.draw(st.sets(st.integers(1, n)))
    d = decompose(members, n)
    assert d.members == members
    # each stored interval is maximal: the element before each start is absent
    if d.members != set(range(1, n + 1)):
        for a, b in d.intervals:
            assert prev_element(a, n) not in members
            assert next_element(b, n) not in members


@settings(deadline=None)
@given(st.integers(1, 16), st.data())
def test_set_spec_roundtrip(n, data):
    members = data.draw(st.sets(st.integers(1, n)))
    spec = format_set_spec(members, n)
    assert parse_set_spec(spec, n) == members


def test_parse_set_spec():
    assert parse_set_spec("1-3,8-10", 14) == {1, 2, 3, 8, 9, 10}
    assert parse_set_spec("12-2", 14) == {12, 13, 14, 1, 2}
    assert parse_set_spec("", 14) == frozenset()
    assert parse_set_spec(" 4 , 7-8 ", 14) == {4, 7, 8}
    with pytest.raises(ValidationError):
        parse_set_spec("1-", 14)
    with pytest.raises(ValidationError):
        parse_set_spec("0-3", 14)
    with pytest.raises(ValidationError):
        parse_set_spec("1;3", 14)


def test_parse_set_spec_reads_ascii_digits_only():
    # \d alone would read the Arabic-Indic digit three as 3
    with pytest.raises(ValidationError, match="cannot parse set term"):
        parse_set_spec("\u0663", 14)
    with pytest.raises(ValidationError, match="cannot parse set term"):
        parse_set_spec("1-\u0663", 14)


def test_parse_set_spec_refuses_a_long_element_before_reading_it():
    # 5,000 digits is past int()'s 4,300-digit limit; the digit count alone
    # refuses it, and leading zeros do not count
    with pytest.raises(ValidationError, match="5000-digit element is out of range 1..14"):
        parse_set_spec("9" * 5000, 14)
    with pytest.raises(ValidationError, match="out of range 1..14"):
        parse_set_spec("2-" + "9" * 5000, 14)
    with pytest.raises(ValidationError, match="2-digit element is out of range 1..9"):
        parse_set_spec("10", 9)
    assert parse_set_spec("0" * 5000 + "3", 14) == {3}
    # an n as long lets the count through, and int() refusing is refused too
    with pytest.raises(ValidationError, match="cannot read a 5000-digit element"):
        parse_set_spec("9" * 5000, 10 ** 5000)


def test_format_set_spec():
    assert format_set_spec({1, 2, 3, 8, 9, 10}, 14) == "1-3,8-10"
    assert format_set_spec({13}, 14) == "13"
    assert format_set_spec((), 14) == ""


class TestGale:
    def test_reference_comparison(self):
        I6 = {6, 7, 8, 9, 10, 11, 12}
        assert gale_leq(I6, {6, 7, 10, 11, 12, 1, 4}, 6, 14)
        assert not gale_leq({6, 7, 10, 11, 12, 1, 4}, I6, 6, 14)

    def test_validation(self):
        with pytest.raises(ValidationError):
            gale_leq({1, 2}, {3}, 1, 4)

    def test_repeats_rejected(self):
        with pytest.raises(ValidationError, match="without repeats"):
            gale_leq([1, 1], [1, 2], 1, 4)

    @settings(deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_partial_order_laws(self, n, data):
        d = data.draw(st.integers(1, n))
        subset = st.sets(st.integers(1, n), min_size=d, max_size=d)
        i = data.draw(st.integers(1, n))
        S = data.draw(subset)
        T = data.draw(subset)
        U = data.draw(subset)
        assert gale_leq(S, S, i, n)  # reflexive
        if gale_leq(S, T, i, n) and gale_leq(T, S, i, n):  # antisymmetric
            assert S == T
        if gale_leq(S, T, i, n) and gale_leq(T, U, i, n):  # transitive
            assert gale_leq(S, U, i, n)


_P3 = Positroid.from_oneline((2, 3, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: position("a", 1, 3),
        lambda: open_interval("a", 1, 3),
        lambda: min_elements(_P3, "a", 2),
        lambda: mimic(_P3, {1}, "a", (1, 2)),
        lambda: gale_leq({"a"}, {1}, 1, 3),
        lambda: _P3.perm.pi("a"),
        lambda: _P3.perm.pi_inv(True),
        lambda: CyclicInterval("x", 1, 1),
        lambda: IntervalDecomposition("x", ((1, 1),)),
        lambda: decompose({1}, "x"),
        lambda: next_element(1.5, 3),
        lambda: cyclic_less(True, 2, 1, 3),
        lambda: decompose(set(), -1),
    ],
    ids=[
        "position", "open_interval", "min_elements", "mimic", "gale_leq", "pi", "pi_inv",
        "interval-n", "decomposition-n", "decompose-n", "next_element", "cyclic_less",
        "negative-n",
    ],
)
def test_elements_and_sizes_are_plain_ints(call):
    with pytest.raises(ValidationError):
        call()
