import hashlib
import random
import re
import struct
import sys
from dataclasses import fields
from itertools import combinations
from typing import Iterator

import pytest

from positroids import (
    DecoratedPermutation,
    EnumerationLimitError,
    GrassmannNecklace,
    Positroid,
    ValidationError,
    arrow_table,
    enumerate_bases,
    loops_and_coloops,
    necklace_of,
    permutation_of,
    rank,
    rank_bruteforce,
    rank_dp,
    reduce,
    witness_basis,
)
from positroids import positroid as positroid_module
from positroids.positroid import _mask
from helpers import (
    all_subsets,
    decorated_permutations,
    decorated_positroids,
    fixed_point_free_positroids,
    random_union,
    rotate,
)

# JSON values of "n" that are no plain nonnegative int
BAD_JSON_SIZES = ["2", None, -1, 2.5, True]

REF_NECKLACE = (
    {1, 3, 4, 5, 10, 11, 12},
    {2, 3, 4, 5, 10, 11, 12},
    {3, 4, 5, 8, 10, 11, 12},
    {4, 5, 6, 8, 10, 11, 12},
    {5, 6, 7, 8, 10, 11, 12},
    {6, 7, 8, 9, 10, 11, 12},
    {4, 7, 8, 9, 10, 11, 12},
    {4, 5, 8, 9, 10, 11, 12},
    {4, 5, 9, 10, 11, 12, 14},
    {4, 5, 10, 11, 12, 13, 14},
    {3, 4, 5, 11, 12, 13, 14},
    {3, 4, 5, 10, 12, 13, 14},
    {3, 4, 5, 10, 11, 13, 14},
    {1, 3, 4, 5, 10, 11, 14},
)


class TestDecoratedPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValidationError):
            DecoratedPermutation.from_oneline((1, 1, 3))
        with pytest.raises(ValidationError):
            DecoratedPermutation.from_oneline((2, 3))

    def test_fixed_points_need_colors(self):
        with pytest.raises(ValidationError):
            DecoratedPermutation.from_oneline((1, 3, 2))
        p = DecoratedPermutation.from_oneline((1, 3, 2), white=(1,))
        assert p.color(1) == "white"
        with pytest.raises(ValidationError):
            p.color(2)

    def test_colors_must_be_fixed_points(self):
        with pytest.raises(ValidationError):
            DecoratedPermutation.from_oneline((2, 1), black=(1,))
        with pytest.raises(ValidationError):
            DecoratedPermutation.from_oneline((1, 2), white=(1, 2), black=(2,))

    def test_inverse(self):
        p = DecoratedPermutation.from_oneline((2, 8, 6, 7, 9, 4, 5, 14, 13, 3, 10, 11, 1, 12))
        assert p.pi(2) == 8
        assert p.pi_inv(8) == 2
        assert [p.pi_inv(j) for j in range(1, 15)] == [13, 1, 10, 6, 7, 3, 4, 2, 5, 11, 12, 14, 9, 8]

    def test_json_roundtrip(self):
        p = DecoratedPermutation.from_oneline((1, 3, 2, 4), white=(1,), black=(4,))
        obj = p.to_json()
        assert obj == {"n": 4, "pi": [1, 3, 2, 4], "colors": {"1": "white", "4": "black"}}
        assert DecoratedPermutation.from_json(obj) == p
        plain = DecoratedPermutation.from_oneline((2, 1))
        assert "colors" not in plain.to_json()
        assert DecoratedPermutation.from_json({"pi": [2, 1]}) == plain

    @pytest.mark.parametrize("images", [(1, "2"), (2.0, 1), (True, 2), (2, False)])
    def test_entries_must_be_plain_ints(self, images):
        with pytest.raises(ValidationError, match="integers"):
            DecoratedPermutation.from_oneline(images)

    def test_colors_and_n_must_be_plain_ints(self):
        with pytest.raises(ValidationError, match="integers"):
            DecoratedPermutation.from_oneline((1, 2), white=(1.0,), black=(2,))
        with pytest.raises(ValidationError, match="integers"):
            DecoratedPermutation(2.0, (2, 1), frozenset(), frozenset())

    def test_json_validation(self):
        with pytest.raises(ValidationError):
            DecoratedPermutation.from_json({"pi": 3})
        with pytest.raises(ValidationError):
            DecoratedPermutation.from_json({"pi": [1], "colors": ["1"]})
        with pytest.raises(ValidationError):
            DecoratedPermutation.from_json({"n": 3, "pi": [2, 1]})
        with pytest.raises(ValidationError):
            DecoratedPermutation.from_json({"pi": [1, 3, 2], "colors": {"1": "grey"}})
        with pytest.raises(ValidationError):
            DecoratedPermutation.from_json({"pi": [1, 3, 2], "colors": {"x": "white"}})
        with pytest.raises(ValidationError):
            DecoratedPermutation.from_json({"no": "pi"})

    @pytest.mark.parametrize("key", [" +1 ", "+1", "01", "1_0"])
    def test_json_color_keys_are_canonical(self, key):
        # int() would read the first three as 1 and "1_0" as 10, each in
        # place of the key it replaces here; only str(i), the form to_json
        # writes, names an element
        pi = list(range(1, 11))
        canonical = {str(i): "black" for i in pi}
        assert DecoratedPermutation.from_json({"pi": pi, "colors": canonical}).black == set(pi)
        colors = {k: c for k, c in canonical.items() if k != str(int(key))} | {key: "black"}
        with pytest.raises(ValidationError, match=re.escape(f"color key {key!r} is not an element")):
            DecoratedPermutation.from_json({"pi": pi, "colors": colors})

    @pytest.mark.parametrize("n", BAD_JSON_SIZES)
    def test_json_n_must_be_a_nonnegative_int(self, n):
        # "2", null, -1 and 2.5 were once reported as a length mismatch
        with pytest.raises(ValidationError, match=re.escape(f'"n" must be a nonnegative integer, got {n!r}')):
            DecoratedPermutation.from_json({"n": n, "pi": [1], "colors": {"1": "black"}})


class TestNecklace:
    def test_reference_necklace(self, ref_positroid):
        for k, expected in enumerate(REF_NECKLACE, start=1):
            assert ref_positroid.necklace.at(k) == expected
        assert ref_positroid.necklace.at(15) == REF_NECKLACE[0]  # index wraps

    def test_identity_colorings(self):
        allwhite = necklace_of(DecoratedPermutation.from_oneline((1, 2, 3), white=(1, 2, 3)))
        assert allwhite.d == 0
        assert all(I == frozenset() for I in allwhite.sets)
        allblack = necklace_of(DecoratedPermutation.from_oneline((1, 2, 3), black=(1, 2, 3)))
        assert allblack.d == 3
        assert all(I == {1, 2, 3} for I in allblack.sets)

    def test_transition_rule_enforced(self):
        sets = [set(I) for I in REF_NECKLACE]
        sets[1] = set(REF_NECKLACE[0])  # I_2 must drop element 1; keep it instead
        with pytest.raises(ValidationError):
            GrassmannNecklace.from_sets(sets, 14)
        with pytest.raises(ValidationError):  # unequal sizes
            GrassmannNecklace.from_sets(({1, 2}, {2}, {2, 3}), 3)
        with pytest.raises(ValidationError):  # out of range
            GrassmannNecklace.from_sets(({4}, {4}, {4}), 3)

    @pytest.mark.parametrize(
        "sets", [([1, "2"], [2, 1]), ([1, 2.0], [2, 1]), ([True, 2], [2, 1]), ([1, 2], [2, True])]
    )
    def test_entries_must_be_plain_ints(self, sets):
        with pytest.raises(ValidationError, match="integers"):
            GrassmannNecklace.from_sets(sets, 2)

    @pytest.mark.parametrize("sets, named", [
        (([1, 1], [2, 2]), r"I_1 \[1, 1\] lists 1 twice"),
        (([1, 2, 2], [2, 1]), r"I_1 \[1, 2, 2\] lists 2 twice"),
        (([1, 2], [2, 1, 1]), r"I_2 \[2, 1, 1\] lists 1 twice"),
        # the int check runs first, so a bool next to its twin is named a bool
        (([1, True], [2, 1]), "integers, got True"),
    ])
    def test_repeated_entry_rejected(self, sets, named):
        # frozen, [1, 2, 2] would read as the smaller set {1, 2}
        with pytest.raises(ValidationError, match=named):
            GrassmannNecklace.from_sets(sets, 2)

    def test_direct_construction_checks_entries(self):
        with pytest.raises(ValidationError, match="integers"):
            GrassmannNecklace(2, 1, (frozenset({"1"}), frozenset({"1"})))
        with pytest.raises(ValidationError, match="outside"):
            GrassmannNecklace(2, 1, (frozenset({0}), frozenset({0})))
        with pytest.raises(ValidationError, match="d <= n"):  # d = 3 with no sets to check
            GrassmannNecklace(0, 3, ())

    def test_empty_necklace_has_no_entries(self):
        with pytest.raises(ValidationError, match="no entries"):
            GrassmannNecklace(0, 0, ()).at(1)

    def test_json_shape_checked(self):
        with pytest.raises(ValidationError):
            GrassmannNecklace.from_json({"sets": [1, 2]})
        with pytest.raises(ValidationError):
            GrassmannNecklace.from_json({"sets": "12"})

    def test_black_fixed_point_transition_allowed(self):
        # I_i can stay put even when i is a member: that is a coloop
        neck = GrassmannNecklace.from_sets(({1, 2}, {1, 2}, {1, 2}), 3)
        assert neck.d == 2
        perm = permutation_of(neck)
        assert perm.images == (1, 2, 3)
        assert perm.black == {1, 2}
        assert perm.white == {3}

    def test_rotation_necklace(self):
        neck = GrassmannNecklace.from_sets(({1, 2}, {2, 3}, {3, 1}), 3)
        assert permutation_of(neck).images == (3, 1, 2)

    def test_repr_lists_members_in_order(self):
        # the same text whichever way the entries were built: frozenset([9, 1])
        # iterates 9 first, frozenset([1, 9]) 1 first
        rising = Positroid.from_oneline([3, 4, 5, 6, 7, 8, 9, 1, 2]).necklace
        falling = GrassmannNecklace.from_sets([sorted(I, reverse=True) for I in rising.sets], 9)
        assert list(falling.at(9)) == [9, 1]
        expected = "GrassmannNecklace(n=9, d=2, sets=({}))".format(
            ", ".join(f"frozenset({{{k}, {k + 1}}})" for k in range(1, 9)) + ", frozenset({1, 9})"
        )
        assert repr(rising) == repr(falling) == expected
        assert repr(GrassmannNecklace.from_sets([[1]])) == (
            "GrassmannNecklace(n=1, d=1, sets=(frozenset({1}),))"
        )
        assert repr(GrassmannNecklace(1, 0, (frozenset(),))) == (
            "GrassmannNecklace(n=1, d=0, sets=(frozenset(),))"
        )
        assert repr(GrassmannNecklace(0, 0, ())) == "GrassmannNecklace(n=0, d=0, sets=())"

    def test_json_roundtrip(self, ref_positroid):
        neck = ref_positroid.necklace
        again = GrassmannNecklace.from_json(neck.to_json())
        assert again == neck
        with pytest.raises(ValidationError):
            GrassmannNecklace.from_json({"n": 2, "sets": [[1]]})

    @pytest.mark.parametrize("n", BAD_JSON_SIZES)
    def test_json_n_must_be_a_nonnegative_int(self, n):
        with pytest.raises(ValidationError, match=re.escape(f'"n" must be a nonnegative integer, got {n!r}')):
            GrassmannNecklace.from_json({"n": n, "sets": [[1]]})


class TestRotation:
    """helpers.rotate against brute force: the rotated positroid's bases are
    P's shifted by k, and its necklace, read off those bases, is P's
    necklace shifted by k."""

    def test_bases_and_necklace_rotate(self):
        for n in range(7):
            for P in decorated_positroids(n):
                bases = set(enumerate_bases(P))
                for k in range(n):
                    def shift(x):
                        return (x + k - 1) % n + 1

                    Q = rotate(P, k)
                    rotated = set(enumerate_bases(Q))
                    assert rotated == {frozenset(map(shift, B)) for B in bases}, (P.perm, k)
                    for j in range(1, n + 1):
                        # I_j is the basis that is least read from j
                        least = min(rotated, key=lambda B: sorted((x - j) % n for x in B))
                        assert least == frozenset(map(shift, P.necklace.at((j - k - 1) % n + 1)))
                        assert Q.necklace.at(j) == least, (P.perm, k, j)


def weak_exceedance_necklace(perm: DecoratedPermutation) -> list[frozenset[int]]:
    """I_k straight from the definition, with no transition rule."""
    n = perm.n
    inverse = {y: x for x, y in enumerate(perm.images, start=1)}
    return [
        frozenset(
            j
            for j in range(1, n + 1)
            if j in perm.black or (inverse[j] != j and (j - k) % n < (inverse[j] - k) % n)
        )
        for k in range(1, n + 1)
    ]


class TestNecklaceOf:
    def test_matches_weak_exceedance_definition(self):
        # every decorated permutation with n <= 6, loops and coloops included
        count = 0
        for n in range(7):
            for perm in decorated_permutations(n):
                assert list(necklace_of(perm).sets) == weak_exceedance_necklace(perm), perm
                count += 1
        assert count == 1 + 2 + 5 + 16 + 65 + 326 + 1957  # sum_k n!/k!, OEIS A000522

    def test_reference(self, ref_positroid):
        assert list(ref_positroid.necklace.sets) == weak_exceedance_necklace(ref_positroid.perm)


class TestOneLineOnly:
    def test_no_inverse_is_built(self, ref_positroid):
        # necklace, d, Gale rows, queries, witnesses, bases and arrow rows
        # are all read off pi's images; only pi_inv builds pi^{-1}
        decorated = ((1, 3, 4, 2, 6, 5, 7), (1,), (7,))
        for images, white, black in ((ref_positroid.perm.images, (), ()), decorated):
            P = Positroid.from_oneline(images, white=white, black=black)
            E = {1, 2, 5, 7}
            rank(P, E)
            rank_dp(P, E)
            witness_basis(P, E)
            assert P.is_basis(sorted(P.necklace.at(2)))
            bases = list(enumerate_bases(P))
            arrow_table(P).ccw_row(3)
            Q = Positroid.from_necklace(P.necklace)
            assert Q.perm == P.perm and list(enumerate_bases(Q)) == bases
            assert "_inverse" not in vars(P.perm) and "_inverse" not in vars(Q.perm)
            assert [P.perm.pi_inv(P.perm.pi(i)) for i in range(1, P.n + 1)] == list(
                range(1, P.n + 1)
            )
            assert "_inverse" in vars(P.perm)


class TestPermNecklaceRoundtrip:
    def test_reference(self, ref_positroid):
        assert permutation_of(ref_positroid.necklace) == ref_positroid.perm

    def test_color_recovery(self):
        perm = DecoratedPermutation.from_oneline((1, 3, 2, 4, 6, 5), white=(1,), black=(4,))
        assert permutation_of(necklace_of(perm)) == perm

    def test_exhaustive_small(self):
        for P in decorated_positroids(4):
            assert permutation_of(necklace_of(P.perm)) == P.perm


def necklace_positions(P: Positroid) -> list[list[int]]:
    """Row k - 1: the positions of I_k's members read from k, sorted."""
    return [sorted((x - k) % P.n for x in P.necklace.at(k)) for k in range(1, P.n + 1)]


def gale_reference(P: Positroid, B, positions=None) -> bool:
    """Oh's theorem read literally: |B| = d and B >=_k I_k for every k in 1..n."""
    B, n = frozenset(B), P.n
    if len(B) != P.d:
        return False
    for k, ipos in enumerate(positions or necklace_positions(P), start=1):
        bpos = sorted([(x - k) % n for x in B])
        if any(bp < ip for bp, ip in zip(bpos, ipos)):
            return False
    return True


def random_decorated_positroid(n: int, fixed: int, rng: random.Random) -> Positroid:
    """pi fixes `fixed` random elements, each colored at random, and moves the rest."""
    points = rng.sample(range(1, n + 1), fixed)
    moved = [x for x in range(1, n + 1) if x not in points]
    while True:
        targets = moved[:]
        rng.shuffle(targets)
        if all(a != b for a, b in zip(moved, targets)):
            break
    images = list(range(1, n + 1))
    for a, b in zip(moved, targets):
        images[a - 1] = b
    black = [x for x in points if rng.random() < 0.5]
    white = [x for x in points if x not in black]
    return Positroid.from_oneline(images, white, black)


class TestPositroid:
    def test_perm_is_the_only_field(self):
        assert [f.name for f in fields(Positroid)] == ["perm"]

    @pytest.mark.parametrize("perm", [[2, 3, 1], None, "231"])
    def test_perm_must_be_a_decorated_permutation(self, perm):
        with pytest.raises(ValidationError, match="DecoratedPermutation"):
            Positroid(perm)

    def test_everything_is_derived_from_the_permutation(self):
        # every decorated permutation with n <= 6, loops and coloops included
        for n in range(7):
            for perm in decorated_permutations(n):
                neck = necklace_of(perm)
                P = Positroid(perm)
                assert P.necklace == neck
                assert P.d == neck.d
                assert P.necklace.masks == tuple(map(_mask, neck.sets))
                assert list(P._floor_rows()) == [
                    sorted(x if x >= k else x + n for x in I)
                    for k, I in enumerate(neck.sets, start=1)
                ]
                assert Positroid.from_necklace(neck).perm == perm

    def test_necklace_is_built_only_when_read(self, ref_positroid):
        P = Positroid.from_oneline((1, 3, 4, 2, 5), white=(1,), black=(5,))
        Q = Positroid.from_json(ref_positroid.to_json())
        assert (P.d, Q.d) == (2, 7)
        assert "necklace" not in vars(P) and "necklace" not in vars(Q)
        # the Gale test reads floor rows only
        assert Q.is_basis(REF_NECKLACE[0]) and not Q.is_basis(range(1, 8))
        assert "necklace" not in vars(Q)
        # rank queries read the necklace's masks: no frozenset view and no
        # per-anchor rows; rank() keeps the reduction it answers on
        assert rank_dp(P, {2, 4, 5}) == 2
        assert vars(P).keys() == {"perm", "d", "necklace"}
        assert rank(P, {3}).value == 1
        assert rank(P, {2, 4, 5}, all_bounds=True).value == 2
        assert vars(P).keys() == {"perm", "d", "necklace", "_reduction"}
        assert "sets" not in vars(P.necklace)
        # the witness reads the masks too
        assert P.is_basis(witness_basis(P, {2, 4, 5}))
        assert Q.is_basis(witness_basis(Q, {1, 2, 9, 13}))
        assert "sets" not in vars(P.necklace) and "sets" not in vars(Q.necklace)
        assert P.necklace is P.necklace
        # reading the view builds it once and keeps it
        assert P.necklace.sets is P.necklace.sets
        assert "sets" in vars(P.necklace)

    def test_round_trip_builds_no_frozenset(self):
        # from_oneline, the necklace round trip and rank_dp, as a caller that
        # converts and queries does: the necklace stays masks throughout
        rng = random.Random(20)
        pool = [*decorated_positroids(4)]
        pool += [random_decorated_positroid(n, 6, rng) for n in (50, 100, 200, 400)]
        for P in pool:
            Q = Positroid.from_necklace(P.necklace)
            assert vars(Q)["d"] == P.d
            rank_dp(Q, range(1, P.n + 1, 2))
            assert Q.perm == P.perm
            assert "sets" not in vars(P.necklace), P.perm

    def test_from_necklace_keeps_the_necklace(self):
        for P in decorated_positroids(4):
            Q = Positroid.from_necklace(P.necklace)
            assert Q == P
            assert Q.necklace is P.necklace

    def test_json_roundtrip(self, ref_positroid):
        assert Positroid.from_json(ref_positroid.to_json()) == ref_positroid

    def test_basis_membership(self, ref_positroid):
        assert ref_positroid.is_basis({1, 4, 7, 8, 10, 11, 13})
        assert ref_positroid.is_basis({4, 7, 8, 10, 11, 13, 14})
        assert not ref_positroid.is_basis({1, 2, 3, 4, 5, 6, 7})
        assert not ref_positroid.is_basis({1, 4})  # wrong size
        assert ref_positroid.is_basis(REF_NECKLACE[0])
        with pytest.raises(ValidationError):
            ref_positroid.is_basis({0, 1, 2, 3, 4, 5, 6})

    def test_necklace_members_are_bases(self, ref_positroid):
        for k in range(1, 15):
            assert ref_positroid.is_basis(ref_positroid.necklace.at(k))

    def test_out_of_range_raises_whatever_the_size(self, ref_positroid):
        for B in ({0}, {1, 15}, {15}, {-1, 1, 2, 3, 4, 5, 6, 7}):
            with pytest.raises(ValidationError, match="out of range"):
                ref_positroid.is_basis(B)

    @pytest.mark.parametrize("B", [{True}, {1.0}, {"a"}, [1, "a"], (2, None)])
    def test_non_integer_elements_are_refused(self, B):
        P = Positroid.from_oneline([2, 3, 1])
        assert P.d == 1
        with pytest.raises(ValidationError, match="must be integers"):
            P.is_basis(B)

    @pytest.mark.parametrize("B", [[1, 1, 2], [1, 2, 2], (1, 3, 3), [2, 2], [4, 1, 4]])
    def test_a_repeated_element_is_refused(self, B):
        # a basis is a d-element listing: a repeated element is no smaller set
        P = Positroid.from_oneline([3, 4, 1, 2])
        assert P.d == 2
        with pytest.raises(ValidationError, match="lists [0-9]+ twice"):
            P.is_basis(B)

    def test_matches_the_gale_reference_on_every_subset(self):
        # every anchor k in 1..n in the reference, only k in B in the code
        checked = 0
        for n in range(7):
            for perm in decorated_permutations(n):
                P = Positroid(perm)
                for B in all_subsets(n):
                    assert P.is_basis(B) == gale_reference(P, B), (perm, sorted(B))
                    checked += 1
        assert checked == 136_873

    def test_matches_the_gale_reference_at_n150(self):
        rng = random.Random(150)
        outcomes = set()
        for fixed in (0, 12):
            P = random_decorated_positroid(150, fixed, rng)
            positions = necklace_positions(P)
            ground = range(1, P.n + 1)
            for k in ground:
                I = P.necklace.at(k)
                assert P.is_basis(I) and gale_reference(P, I, positions), k
                outside = [y for y in ground if y not in I]
                B = (I - {rng.choice(sorted(I))}) | {rng.choice(outside)}
                expected = gale_reference(P, B, positions)
                assert P.is_basis(B) == expected, (k, sorted(B))
                outcomes.add(expected)
        assert outcomes == {True, False}


def gale_at(P: Positroid, ordered: list[int], i: int) -> bool:
    """B >=_b I_b at the one anchor b = ordered[i], by positions read from b."""
    b, n = ordered[i], P.n
    bpos = sorted((x - b) % n for x in ordered)
    ipos = sorted((x - b) % n for x in P.necklace.at(b))
    return all(p >= q for p, q in zip(bpos, ipos))


def first_failure(P: Positroid, batch: list[list[int]], anchors) -> int:
    """The index of the first set in the batch that fails at one of the
    anchors, each set and anchor tested alone; len(batch) if none fails."""
    failing = (j for j, B in enumerate(batch) if not all(gale_at(P, B, i) for i in anchors))
    return next(failing, len(batch))


def placements(passing: list, failing) -> Iterator[tuple[int, list]]:
    """(index, batch): the failing set first, in the middle and last among
    the passing ones, so a borrow into a passing neighbour would show."""
    for j in sorted({0, len(passing) // 2, len(passing)}):
        yield j, passing[:j] + [failing] + passing[j:]


class TestPackedGale:
    """Positroid._gale_holds packs the chosen anchors' windows and floor rows
    of a batch of sets into guarded fields and compares them with one
    subtraction: on every anchor subset it must agree with comparing those
    anchors one at a time, and on a batch it must name the first set that
    fails as testing each set alone does."""

    def test_every_anchor_subset_up_to_n6(self):
        checked = 0
        for n in range(7):
            for P in decorated_positroids(n):
                d = P.d
                for B in combinations(range(1, n + 1), d):
                    ordered = list(B)
                    each = [gale_at(P, ordered, i) for i in range(d)]
                    assert P.is_basis(B) == all(each), (P.perm, B)
                    for k in range(d + 1):
                        for anchors in combinations(range(d), k):
                            expected = all(each[i] for i in anchors)
                            assert P._gale_holds([ordered], anchors) == expected, (P.perm, B, anchors)
                            checked += 1
        assert checked == 316_205

    def test_seeded_bases_and_one_swap_neighbours(self):
        # necklace members and witnesses are bases; one swap away from them
        # lies either side of the test, with members near n lifted close to 2n
        rng = random.Random(1400)
        outcomes = set()
        for _ in range(8):
            n = rng.randrange(100, 401)
            P = random_decorated_positroid(n, rng.randrange(9), rng)
            d, ground = P.d, range(1, n + 1)
            for _ in range(3):
                I = P.necklace.at(rng.randrange(1, n + 1))
                W = witness_basis(P, random_union(n, rng.randrange(1, 17), rng))
                for B in (I, W):
                    e = rng.choice(sorted(B))
                    f = rng.choice([y for y in ground if y not in B])
                    for C in (B, (B - {e}) | {f}):
                        ordered = sorted(C)
                        each = [gale_at(P, ordered, i) for i in range(d)]
                        assert P.is_basis(C) == all(each), (P.perm, ordered)
                        anchors = sorted(rng.sample(range(d), rng.randrange(d + 1)))
                        expected = all(each[i] for i in anchors)
                        assert P._gale_holds([ordered], anchors) == expected, (P.perm, ordered)
                        outcomes.add(all(each))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("byteorder", ["little", "big"])
    def test_packed_rows_are_the_floor_rows_little_endian(self, monkeypatch, byteorder):
        # each packed row is its floor row in little-endian fields, the
        # array's bytes swapped when the host reports big-endian order: on a
        # host of the other order the swap gives big-endian fields instead
        order = "<" if byteorder == sys.byteorder else ">"
        monkeypatch.setattr(positroid_module.sys, "byteorder", byteorder)
        rng = random.Random(431)
        cases = [P for n in range(7) for P in decorated_positroids(n)]
        cases += [random_decorated_positroid(n, n // 10, rng) for n in (11, 150, 300, 1000)]
        for P in cases:
            code, _, rows, *_ = P._gale_packing
            assert rows == tuple(struct.pack(f"{order}{P.d}{code}", *row) for row in P._floor_rows()), P.perm

    @pytest.mark.parametrize("n,code", [(16383, "H"), (16384, "I")])
    def test_field_width_follows_n(self, n, code):
        # 2n < 2^15 leaves the 16-bit field's top bit free for the guard; one
        # more element needs 32-bit fields. Members near n lift close to 2n.
        rng = random.Random(n)
        moving = [1, 2, 3, *range(n - 4, n + 1)]
        while True:
            targets = rng.sample(moving, len(moving))
            if all(a != b for a, b in zip(moving, targets)):
                break
        images = list(range(1, n + 1))
        for a, b in zip(moving, targets):
            images[a - 1] = b
        white = [x for x in range(1, n + 1) if x not in moving]
        P = Positroid.from_oneline(images, white=white)
        assert P._gale_packing[0] == code
        assert P._gale_packing[2] == tuple(struct.pack(f"<{P.d}{code}", *row) for row in P._floor_rows())
        outcomes = set()
        for B in combinations(sorted([*moving, 4, n - 5]), P.d):
            ordered = list(B)
            each = [gale_at(P, ordered, i) for i in range(P.d)]
            assert P.is_basis(B) == all(each), B
            for k in range(1, P.d):
                for anchors in combinations(range(P.d), k):
                    assert P._gale_holds([ordered], anchors) == all(each[i] for i in anchors)
            outcomes.add(all(each))
        assert outcomes == {True, False}
        # a batch of the passing sets with each failing one placed among them
        sets = [list(B) for B in combinations(sorted([*moving, 4, n - 5]), P.d)]
        passing = [B for B in sets if P.is_basis(B)]
        failing = [B for B in sets if not P.is_basis(B)]
        assert P._gale_holds(passing, range(P.d)) == len(passing)
        for F in failing:
            for j, batch in placements(passing, F):
                assert P._gale_holds(batch, range(P.d)) == j, (F, j)

    def test_a_batch_names_its_first_failing_set_up_to_n6(self):
        rng = random.Random(6)
        checked = 0
        for n in range(1, 7):
            for P in decorated_positroids(n):
                d = P.d
                sets = [list(B) for B in combinations(range(1, n + 1), d)]
                passing = [B for B in sets if P.is_basis(B)]
                failing = [B for B in sets if not P.is_basis(B)]
                assert P._gale_holds(passing, range(d)) == len(passing)
                # a random anchor subset, under which a non-basis may pass
                some = sorted(rng.sample(range(d), rng.randrange(d + 1)))
                for F in failing:
                    for j, batch in placements(passing, F):
                        assert P._gale_holds(batch, range(d)) == j, (P.perm, F, j)
                        expected = first_failure(P, batch, some)
                        assert P._gale_holds(batch, some) == expected, (P.perm, F, some)
                        checked += 1
        assert checked > 40_000

    @pytest.mark.parametrize("anchors", [range(3), [1]])
    def test_a_failing_set_first_and_last_in_a_batch(self, anchors):
        # passing sets fill several batches of _GALE_BATCH_FIELDS fields; the
        # one failing set is placed at each batch's first and last slot
        P = Positroid.from_oneline([2, 3, 4, 1, 6, 7, 5, 9, 10, 8])
        assert P.d == 3
        passing = [list(B) for B in combinations(range(1, 11), 3) if P.is_basis(B)]
        failing = next(list(B) for B in combinations(range(1, 11), 3)
                       if first_failure(P, [list(B)], anchors) == 0)
        step = positroid_module._GALE_BATCH_FIELDS // (len(anchors) * 3)
        count = 2 * step + 5
        filler = (passing * (count // len(passing) + 1))[:count]
        assert P._gale_holds(filler, anchors) == count
        for j in (0, step - 1, step, 2 * step - 1, 2 * step, count):
            batch = filler[:j] + [failing] + filler[j:]
            assert P._gale_holds(batch, anchors) == j, j

    @pytest.mark.parametrize("anchors", [range(3), [0]])
    def test_every_batch_size_down_to_one_set(self, monkeypatch, anchors):
        # a cap below one set's fields still lets a batch hold that one set,
        # and no batch packs more sets than the cap's fields allow
        P = Positroid.from_oneline([3, 5, 1, 6, 2, 4])
        d, per_set = P.d, len(anchors) * P.d
        sets = [list(B) for B in combinations(range(1, 7), d)]
        passing = [B for B in sets if first_failure(P, [B], anchors)]
        failing = [B for B in sets if not first_failure(P, [B], anchors)]
        assert d == 3 and passing and failing
        P._gale_packing
        listed = []  # the kernel packs each batch's sets, listed twice, once

        def counted(fmt, *values):
            listed.append(len(values) // (2 * d))
            return struct.pack(fmt, *values)

        monkeypatch.setattr(positroid_module, "pack", counted)
        for cap in (1, per_set, 2 * per_set, 7 * per_set - 1):
            monkeypatch.setattr(positroid_module, "_GALE_BATCH_FIELDS", cap)
            listed.clear()
            assert P._gale_holds(passing, anchors) == len(passing)
            assert sum(listed) == len(passing)
            assert max(listed) == max(1, cap // per_set)
            for F in failing:
                for j in range(len(passing) + 1):
                    batch = passing[:j] + [F] + passing[j:]
                    assert P._gale_holds(batch, anchors) == j, (cap, F, j)


# each case's bases in enumeration order, one "x,y,z" line each, as a SHA-256
# digest: the repro demo (n = 14), random_decorated_positroid(20, Random(0))
# and (20, Random(1)) from helpers, and the positroid of the sparse 6 x 20
# matrix random_tnn_matrix(6, 20, Random(1), ops=400), with 175 bases
PINNED_ENUMERATIONS = [
    ((2, 8, 6, 7, 9, 4, 5, 14, 13, 3, 10, 11, 1, 12), (), (), 624,
     "83acebb94d8f2e4bc6872fbd999635994aa93424c9c6addfeb7436805ec648de"),
    ((11, 19, 3, 4, 1, 18, 12, 17, 15, 10, 6, 8, 5, 20, 7, 16, 9, 2, 14, 13), (3, 4), (10, 16),
     8929, "6a0b56aee37cddd85579888f16848e8d97db8d04103678dfb55f94a2014c91de"),
    ((12, 6, 18, 4, 10, 1, 17, 8, 9, 7, 11, 14, 15, 13, 2, 20, 16, 3, 19, 5), (4, 11, 19), (8, 9),
     1622, "c3d8260b9d1077c37fcd5732aeb30132861522754c80c838f57fd968e4eb26c5"),
    ((7, 1, 2, 8, 3, 4, 9, 5, 10, 11, 12, 13, 6, 14, 15, 16, 17, 18, 19, 20), range(14, 21), (),
     175, "c8f1326193f4a5856897da2ad54abfcb572849d93c7d6c0a4216653e72c5fc49"),
]


class TestEnumerateBases:
    def test_matrix_positroid(self):
        neck = GrassmannNecklace.from_sets(({1, 2}, {2, 3}, {3, 4}, {2, 4}), 4)
        P = Positroid.from_necklace(neck)
        expected = {frozenset(B) for B in ({1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4})}
        assert set(enumerate_bases(P)) == expected

    def test_uniform_shift_gives_uniform_matroid(self):
        # pi(i) = i + d: every d-subset is a basis
        n, d = 7, 3
        images = tuple((i - 1 + d) % n + 1 for i in range(1, n + 1))
        P = Positroid.from_oneline(images)
        assert P.d == d
        from math import comb

        assert sum(1 for _ in enumerate_bases(P)) == comb(n, d)

    def test_matches_the_gale_reference_in_lex_order(self):
        # every decorated permutation up to n = 6 and a seeded sample of
        # those at n = 7, where all 13,700 take about 10 s
        perms = [perm for n in range(7) for perm in decorated_permutations(n)]
        perms += random.Random(7).sample(list(decorated_permutations(7)), 1500)
        extremes = set()
        for perm in perms:
            P = Positroid(perm)
            n = P.n
            expected = [
                frozenset(c)
                for c in combinations(range(1, n + 1), P.d)
                if gale_reference(P, c)
            ]
            assert list(enumerate_bases(P)) == expected, perm
            if n and P.d in (0, n):
                extremes.add(P.d == n)
        # all loops (d = 0) and all coloops (d = n) are both among them
        assert extremes == {False, True}

    @pytest.mark.parametrize(
        "images, white, black, count, digest", PINNED_ENUMERATIONS,
        ids=["demo_n14", "seed0_n20", "seed1_n20", "sparse_6x20"],
    )
    def test_pinned_lex_order(self, images, white, black, count, digest):
        h = hashlib.sha256()
        bases = 0
        for B in enumerate_bases(Positroid.from_oneline(images, white, black)):
            h.update((",".join(map(str, sorted(B))) + "\n").encode())
            bases += 1
        assert (bases, h.hexdigest()) == (count, digest)

    def test_cap(self):
        P = Positroid.from_oneline(tuple(range(2, 22)) + (1,))
        assert P.n == 21
        with pytest.raises(EnumerationLimitError):
            next(enumerate_bases(P))

    def test_brute_rank(self, ref_positroid):
        assert rank_bruteforce(ref_positroid, {1, 2, 3, 8, 9, 10}) == 3
        assert rank_bruteforce(ref_positroid, range(1, 15)) == 7


class TestReduce:
    def test_no_fixed_points_is_identity_map(self, ref_positroid):
        P, relabel = reduce(ref_positroid)
        assert P == ref_positroid
        assert relabel == {x: x for x in range(1, 15)}

    def test_mixed(self):
        P = Positroid.from_oneline((1, 3, 4, 2, 5), white=(1,), black=(5,))
        assert loops_and_coloops(P) == (frozenset({1}), frozenset({5}))
        inner, relabel = reduce(P)
        assert relabel == {2: 1, 3: 2, 4: 3}
        assert inner.perm.images == (2, 3, 1)
        assert inner.d == P.d - 1

    def test_rank_identity_under_reduction(self):
        P = Positroid.from_oneline((1, 3, 4, 2, 5), white=(1,), black=(5,))
        inner, relabel = reduce(P)
        coloops = P.perm.black
        for E in all_subsets(5):
            image = {relabel[x] for x in E if x in relabel}
            assert rank_bruteforce(P, E) == rank_bruteforce(inner, image) + len(E & coloops)

    def test_everything_fixed(self):
        P = Positroid.from_oneline((1, 2, 3), black=(1, 3), white=(2,))
        inner, relabel = reduce(P)
        assert inner.n == 0
        assert relabel == {}


@pytest.mark.parametrize("E", [{9}, {0}, {True}, {1.0}])
def test_rank_bruteforce_checks_its_set(E):
    with pytest.raises(ValidationError):
        rank_bruteforce(Positroid.from_oneline((2, 3, 1)), E)


def test_loops_never_in_necklace_coloops_always():
    for P in decorated_positroids(4):
        loops, coloops = loops_and_coloops(P)
        for k in range(1, P.n + 1):
            I = P.necklace.at(k)
            assert not (loops & I)
            assert coloops <= I


def test_fixture_counts():
    assert sum(1 for _ in fixed_point_free_positroids(4)) == 9
    assert sum(1 for _ in fixed_point_free_positroids(5)) == 44
