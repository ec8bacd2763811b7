import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from positroids import (
    BasisCollection,
    ContractViolationError,
    EnumerationLimitError,
    NotAPositroidError,
    Positroid,
    RationalMatrix,
    ValidationError,
    enumerate_bases,
    first_negative_minor,
    is_totally_nonnegative,
    matroid_from_matrix,
    maximal_minor,
    necklace_from_bases,
    positroid_from_matrix,
    random_tnn_matrix,
    row_rank,
)
from positroids import GrassmannNecklace, realize
from positroids.positroid import _GALE_BATCH_FIELDS, BASIS_ENUMERATION_CAP
from positroids.cli import main

from helpers import (
    decorated_positroids,
    dense_rank_deficient_rows,
    rotate,
    seeded_tnn_matrices,
)

A_ROWS = ((1, 0, -3, -1), (0, 1, 4, 0))

ENTRIES = (0, 1, -1, 2, -2, 3, -3, "1/2", "-2/3")

# a column index that is not a plain int in 1..4, for the 2x4 A_ROWS
BAD_COLUMNS = [(-1, 2), (0, 2), (True, 2), (1, 5), (1.0, 2)]


def leibniz(rows):
    """Determinant as the signed sum over permutations, in Fractions."""
    k = len(rows)
    total = Fraction(0)
    for p in permutations(range(k)):
        inversions = sum(p[i] > p[j] for i in range(k) for j in range(i + 1, k))
        term = Fraction(-1 if inversions % 2 else 1)
        for i in range(k):
            term *= Fraction(rows[i][p[i]])
        total += term
    return total


def reference_refusal(A, sets):
    """The message positroid_from_matrix raises when its walk returns the
    valid necklace sets, from checks written out one scanned basis at a
    time: B passes at b when, read from b, its t-th member comes no earlier
    than I_b's; None if every check passes."""
    mismatch = "the necklace of a TNN matrix does not match its nonzero minors"
    columns, _ = realize._integer_columns(A.entries)
    scanned = [cols for cols, _ in realize._lex_minors(columns, A.r)]
    bases = set(map(frozenset, scanned))
    for k, entry in enumerate(sets, start=1):
        if entry not in bases:
            return f"{mismatch}: I_{k} = {sorted(entry)} is no scanned basis"
    for cols in scanned:
        for b in cols:
            read = sorted((x - b) % A.n for x in cols)
            floor = sorted((x - b) % A.n for x in sets[b - 1])
            if any(p < q for p, q in zip(read, floor)):
                return f"{mismatch}: scanned basis {list(cols)} fails its Gale test"
    return None


def seeded_matrices(seed, count):
    """Random matrices with r <= 4, n <= 8, zero and repeated columns included."""
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.randint(1, 4)
        n = rng.randint(r, 8)
        rows = [[rng.choice(ENTRIES) for _ in range(n)] for _ in range(r)]
        if rng.random() < 0.4:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        if n > 1 and rng.random() < 0.4:
            src, dst = rng.sample(range(n), 2)
            for row in rows:
                row[dst] = row[src]
        yield RationalMatrix.from_rows(rows)


class TestRationalMatrix:
    def test_entry_parsing(self):
        A = RationalMatrix.from_rows([["1/3", 1, Fraction(5, 2)], [0, "2/7", -4]])
        assert A.entries[0][0] == Fraction(1, 3)
        assert A.entries[1][2] == Fraction(-4)
        assert (A.r, A.n) == (2, 3)

    def test_bad_entries_rejected(self):
        with pytest.raises(ValidationError, match="floating point"):
            RationalMatrix.from_rows([[0.5]])
        with pytest.raises(ValidationError):
            RationalMatrix.from_rows([[True]])
        with pytest.raises(ValidationError):
            RationalMatrix.from_rows([["1/0"]])
        with pytest.raises(ValidationError):
            RationalMatrix.from_rows([["abc"]])

    @pytest.mark.parametrize("entry", ["1e5", "2E-3", "-3.5e2"])
    def test_exponent_entries_rejected(self, entry):
        # Fraction would expand the exponent into a 10^|e| integer, so a
        # 13-byte "1e999999999" would take minutes and hundreds of MB
        with pytest.raises(ValidationError, match="exponent.*'p/q' string") as info:
            RationalMatrix.from_rows([[entry]])
        assert repr(entry) in str(info.value)

    def test_plain_string_entries_still_parse(self):
        A = RationalMatrix.from_rows([["1/2", "-2/3", "0.5"]])
        assert A.entries == ((Fraction(1, 2), Fraction(-2, 3), Fraction(1, 2)),)

    def test_constructor_takes_parsed_entries_only(self):
        with pytest.raises(ValidationError, match="from_rows parses strings"):
            RationalMatrix((("1/2",),))

    def test_shape_checks(self):
        with pytest.raises(ValidationError, match="unequal"):
            RationalMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValidationError, match="more rows"):
            RationalMatrix.from_rows([[1], [2]])

    def test_json_roundtrip(self):
        A = RationalMatrix.from_rows([["1/3", 1], [0, "-2/7"]])
        assert A.to_json() == [["1/3", 1], [0, "-2/7"]]
        assert RationalMatrix.from_json(A.to_json()) == A
        with pytest.raises(ValidationError):
            RationalMatrix.from_json({"rows": []})

    def test_column_submatrix_order_matters(self):
        A = RationalMatrix.from_rows(A_ROWS)
        assert A.column_submatrix([3, 1]) == [[Fraction(-3), Fraction(1)],
                                              [Fraction(4), Fraction(0)]]

    @pytest.mark.parametrize("cols", BAD_COLUMNS)
    def test_column_submatrix_rejects_bad_columns(self, cols):
        with pytest.raises(ValidationError, match="column"):
            RationalMatrix.from_rows(A_ROWS).column_submatrix(cols)


class TestMinors:
    def test_reference_minors(self):
        A = RationalMatrix.from_rows(A_ROWS)
        values = [maximal_minor(A, cols) for cols in combinations(range(1, 5), 2)]
        assert values == [1, 4, 0, 3, 1, 4]

    def test_exact_fractions(self):
        A = RationalMatrix.from_rows([["1/3", 1, 0], [0, "2/7", "5/2"]])
        assert maximal_minor(A, (1, 2)) == Fraction(2, 21)
        assert is_totally_nonnegative(A)

    def test_wrong_column_count(self):
        A = RationalMatrix.from_rows(A_ROWS)
        with pytest.raises(ValidationError):
            maximal_minor(A, (1, 2, 3))

    @pytest.mark.parametrize("cols", BAD_COLUMNS)
    def test_bad_columns_rejected(self, cols):
        with pytest.raises(ValidationError, match="column"):
            maximal_minor(RationalMatrix.from_rows(A_ROWS), cols)

    def test_sign_follows_column_order(self):
        A = RationalMatrix.from_rows(A_ROWS)
        assert maximal_minor(A, (1, 3)) == 4
        assert maximal_minor(A, (3, 1)) == -4

    def test_every_minor_matches_leibniz(self):
        # the scan lists exactly the subsets with a nonzero minor, in lex
        # order; maximal_minor answers every subset, zeros included
        rng = random.Random(11)
        for A in seeded_matrices(3, 150):
            columns, scale = realize._integer_columns(A.entries)
            scanned = list(realize._lex_minors(columns, A.r))
            expected = {
                cols: value
                for cols in combinations(range(1, A.n + 1), A.r)
                if (value := leibniz(A.column_submatrix(cols)))
            }
            assert [cols for cols, _ in scanned] == list(expected), A
            for cols, value in scanned:
                assert Fraction(value, scale) == expected[cols], (A, cols)
            for cols in combinations(range(1, A.n + 1), A.r):
                assert maximal_minor(A, cols) == expected.get(cols, 0), (A, cols)
                shuffled = rng.sample(cols, len(cols))
                assert maximal_minor(A, shuffled) == leibniz(A.column_submatrix(shuffled))

    @pytest.mark.parametrize("rows", [
        # column 2 is zero: its subtree dies at the root
        [[1, 0, 2, 1, 0], [0, 0, 1, 3, 1], [2, 0, 0, 1, 1]],
        # column 4 repeats column 1: it dies under the prefix (1,)
        [[1, 2, 0, 1, 3], [0, 1, 1, 0, 2], [1, 0, 2, 1, 1]],
        # column 4 = column 1 + column 2: it dies under the prefix (1, 2)
        [[1, 0, 2, 1, 3], [0, 1, 1, 1, 2], [1, 1, 0, 2, 1]],
        # all three at once, in a 3x7
        [[1, 0, 0, 1, 1, 2, 0], [0, 1, 0, 0, 1, 1, 1], [2, 1, 0, 2, 3, 0, 1]],
    ])
    def test_dependent_columns_leave_the_scan(self, rows):
        A = RationalMatrix.from_rows(rows)
        columns, _ = realize._integer_columns(A.entries)
        scanned = list(realize._lex_minors(columns, A.r))
        bases = [cols for cols, _ in scanned]
        subsets = list(combinations(range(1, A.n + 1), A.r))
        assert bases == [cols for cols in subsets if leibniz(A.column_submatrix(cols))]
        assert {frozenset(cols) for cols in bases} == matroid_from_matrix(A).bases
        assert all(value for _, value in scanned)
        dependent = set(subsets) - set(bases)
        assert dependent
        for cols in dependent:
            assert maximal_minor(A, cols) == Fraction(0)

    @pytest.mark.parametrize("cols", [(1, 2), (2, 1), (1, 1), (3, 3)])
    def test_singular_and_repeated_columns_have_minor_zero(self, cols):
        # columns 1 and 2 are parallel; a repeated column is its own span
        A = RationalMatrix.from_rows([[1, 2, 3], [2, 4, 7]])
        assert maximal_minor(A, cols) == 0
        assert maximal_minor(A, (1, 3)) == 1

    def test_row_rank(self):
        assert row_rank(RationalMatrix.from_rows(A_ROWS)) == 2
        assert row_rank(RationalMatrix.from_rows([[1, 2], [2, 4]])) == 1
        assert row_rank(RationalMatrix.from_rows([[0, 0, 0]])) == 0


class TestNonnegativity:
    def test_reference_matrix_is_tnn(self):
        assert is_totally_nonnegative(RationalMatrix.from_rows(A_ROWS))
        assert first_negative_minor(RationalMatrix.from_rows(A_ROWS)) is None

    def test_sign_flip_detected(self):
        B = RationalMatrix.from_rows(((1, 0, -3, -1), (0, -1, 4, 0)))
        cols, value = first_negative_minor(B)
        assert cols == (1, 2)
        assert value == Fraction(-1)
        assert not is_totally_nonnegative(B)

    def test_lex_first_witness(self):
        # (1,2) is fine, (1,3) is the first negative pair
        C = RationalMatrix.from_rows(((1, 0, 1), (0, 1, -1)))
        cols, value = first_negative_minor(C)
        assert cols == (1, 3)
        assert value == Fraction(-1)

    def test_exact_rational_witness(self):
        # minors (1,2) = 1/3, (1,3) = 3/10, (1,4) = 0, (2,3) = -2/9
        rows = [["1/2", 0, "1/3", 0], [0, "2/3", "3/5", 0]]
        assert first_negative_minor(RationalMatrix.from_rows(rows)) == ((2, 3), Fraction(-2, 9))

    def test_witness_matches_brute_force(self):
        for A in seeded_matrices(5, 150):
            expected = next(
                (
                    (cols, value)
                    for cols in combinations(range(1, A.n + 1), A.r)
                    if (value := leibniz(A.column_submatrix(cols))) < 0
                ),
                None,
            )
            assert first_negative_minor(A) == expected, A

    def test_cli_prints_the_rational_witness(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([["1/2", 0, "1/3", 0], [0, "2/3", "3/5", 0]]))
        code = main(["check", "--matrix", str(path)])
        obj = json.loads(capsys.readouterr().out)
        assert code == 1
        assert obj["negative_minor"] == {"columns": [2, 3], "value": "-2/9"}


class TestBasisCollection:
    def test_from_sets(self):
        B = BasisCollection.from_sets([{1, 2}, {2, 3}], n=3)
        assert B.d == 2 and B.n == 3

    def test_basic_validation(self):
        with pytest.raises(ValidationError):
            BasisCollection.from_sets([], n=3)
        with pytest.raises(ValidationError):
            BasisCollection.from_sets([{1, 2}, {3}], n=3)
        with pytest.raises(ValidationError):
            BasisCollection.from_sets([{0, 1}], n=3)

    def test_repeated_element_rejected(self):
        # frozen, [1, 1, 2] would read as the basis {1, 2} of a rank-2 collection
        with pytest.raises(ValidationError, match=r"basis \[1, 1, 2\] lists 1 twice"):
            BasisCollection.from_sets([[1, 1, 2], [2, 3, 3]], 3)
        with pytest.raises(ValidationError, match=r"basis \[2, 3, 3\] lists 3 twice"):
            BasisCollection.from_sets([[1, 2, 3], [2, 3, 3]], 3)
        with pytest.raises(ValidationError, match="integers, got True"):
            BasisCollection.from_sets([[1, True]], 3)

    def test_exchange_axiom_enforced(self):
        with pytest.raises(ValidationError, match="exchange"):
            BasisCollection.from_sets([{1, 2}, {3, 4}], n=4)

    def test_exchange_axiom_passes(self):
        BasisCollection.from_sets([{1, 2}, {1, 4}, {2, 3}, {3, 4}], n=4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: BasisCollection.from_sets([{True}], 2),
        lambda: BasisCollection.from_sets([{1.0}], 2),
        lambda: BasisCollection.from_sets([{"a"}], 2),
        lambda: BasisCollection.from_sets([{1}], "x"),
        lambda: BasisCollection(2, 1, frozenset({frozenset({1.0})})),
        lambda: RationalMatrix.from_rows([1, 2]),
        lambda: random_tnn_matrix("2", 3, random.Random(0)),
    ],
    ids=["bool", "float", "str", "str-n", "constructor", "flat-rows", "str-r"],
)
def test_malformed_collection_and_matrix_arguments(call):
    with pytest.raises(ValidationError):
        call()


class TestMatroidFromMatrix:
    def test_reference_bases(self):
        B = matroid_from_matrix(RationalMatrix.from_rows(A_ROWS))
        assert B.bases == frozenset(
            frozenset(s) for s in ({1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4})
        )

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValidationError, match="row rank"):
            matroid_from_matrix(RationalMatrix.from_rows([[1, 2], [2, 4]]))


class TestNecklaceFromBases:
    def test_reference(self):
        B = matroid_from_matrix(RationalMatrix.from_rows(A_ROWS))
        neck = necklace_from_bases(B)
        assert neck.sets == (
            frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4}), frozenset({2, 4})
        )

    def test_positroid_roundtrip(self, ref_positroid):
        bases = BasisCollection.from_sets(enumerate_bases(ref_positroid), n=14)
        assert necklace_from_bases(bases) == ref_positroid.necklace

    def test_non_positroid_matroid_rejected(self):
        # one parallel class {1,3}, another {2,4}: a matroid, but its Gale
        # minima generate extra bases like {1,3}
        B = BasisCollection.from_sets([{1, 2}, {1, 4}, {2, 3}, {3, 4}], n=4)
        with pytest.raises(NotAPositroidError, match="but not a positroid"):
            necklace_from_bases(B)

    def test_non_matroid_rejected(self):
        # past 20 elements the exchange axiom is not checked on construction;
        # the minima of these two bases break the necklace transition rule
        B = BasisCollection.from_sets([{1, 2}, {3, 4}], n=21)
        with pytest.raises(NotAPositroidError, match="nor a matroid"):
            necklace_from_bases(B)

    def test_every_small_decorated_positroid(self):
        for n in range(6):
            for P in decorated_positroids(n):
                bases = BasisCollection.from_sets(enumerate_bases(P), n)
                assert necklace_from_bases(bases) == P.necklace, P.perm


class TestPositroidFromMatrix:
    def test_reference(self):
        P = positroid_from_matrix(RationalMatrix.from_rows(A_ROWS))
        assert P.perm.images == (3, 4, 2, 1)
        assert P.n == 4 and P.d == 2

    def test_bases_agree_with_matrix(self):
        A = RationalMatrix.from_rows(A_ROWS)
        P = positroid_from_matrix(A)
        assert frozenset(enumerate_bases(P)) == matroid_from_matrix(A).bases

    def test_negative_minor_rejected(self):
        bad = RationalMatrix.from_rows(((1, 0, -3, -1), (0, -1, 4, 0)))
        with pytest.raises(ValidationError, match="minor"):
            positroid_from_matrix(bad)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValidationError, match="row rank"):
            positroid_from_matrix(RationalMatrix.from_rows([[1, 1], [1, 1]]))

    def test_rank_check_runs_before_the_cap(self):
        # C(30, 13) is past the scan cap, but the rank is 12
        rows = [[int(i == j) for j in range(30)] for i in range(12)]
        rows.append(rows[0])
        A = RationalMatrix.from_rows(rows)
        for convert in (positroid_from_matrix, matroid_from_matrix):
            with pytest.raises(ValidationError, match="row rank is 12, less than the row count"):
                convert(A)

    def test_the_scan_is_the_only_elimination(self, monkeypatch):
        # full row rank is read off a nonempty scan; the separate elimination
        # runs only to name the rank in a refusal
        calls = []
        rank = realize._rank
        monkeypatch.setattr(realize, "_rank", lambda columns: calls.append(1) or rank(columns))
        for A in seeded_tnn_matrices(count=60):
            positroid_from_matrix(A)
            matroid_from_matrix(A)
        assert calls == []
        for convert in (positroid_from_matrix, matroid_from_matrix):
            with pytest.raises(ValidationError, match="row rank is 1, less than the row count 2"):
                convert(RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6]]))
        assert len(calls) == 2

    def test_a_dense_rank_deficient_matrix_ends_after_one_descent(self, monkeypatch):
        # every 13-subset is singular and C(30, 13) is past the cap, but the
        # greedy descent dead-ends at once, after at most n*r reductions
        A = RationalMatrix.from_rows(dense_rank_deficient_rows())
        assert comb(30, 13) > realize.MINOR_SCAN_CAP
        assert row_rank(A) == 12
        for convert in (positroid_from_matrix, matroid_from_matrix):
            with pytest.raises(ValidationError, match="row rank is 12, less than the row count 13"):
                convert(A)
        calls = 0
        reduce = realize._reduce

        def counted(*args):
            nonlocal calls
            calls += 1
            return reduce(*args)

        monkeypatch.setattr(realize, "_reduce", counted)
        assert first_negative_minor(A) is None
        assert 0 < calls <= A.n * A.r
        assert is_totally_nonnegative(A)

    def test_matches_the_basis_collection_path(self):
        rng = random.Random(2024)
        loops = coloops = 0
        for _ in range(220):
            n = rng.randint(1, 9)
            A = random_tnn_matrix(rng.randint(1, n), n, rng, ops=rng.randint(0, 14))
            # a positive rational row scale keeps every minor's sign
            scales = [Fraction(rng.randint(1, 5), rng.randint(1, 7)) for _ in A.entries]
            A = RationalMatrix.from_rows(
                [[v * c for v in row] for row, c in zip(A.entries, scales)]
            )
            P = positroid_from_matrix(A)
            assert P == Positroid.from_necklace(necklace_from_bases(matroid_from_matrix(A)))
            loops += bool(P.perm.white)
            coloops += bool(P.perm.black)
        assert loops > 20 and coloops > 20
        # the benchmark's shapes: dense 3x10 and 5x16, sparse 5x14
        for r, n, ops in ((3, 10, 400), (5, 16, 400), (5, 14, 13)):
            A = random_tnn_matrix(r, n, rng, ops=ops)
            P = positroid_from_matrix(A)
            assert P == Positroid.from_necklace(necklace_from_bases(matroid_from_matrix(A)))

    def test_bases_past_the_recheck_are_the_nonzero_minors(self):
        # past BASIS_ENUMERATION_CAP no re-check runs, so the necklace walked
        # off the scan alone must give exactly the nonzero minors
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(21, 40)
            A = random_tnn_matrix(rng.randint(1, 3), n, rng, ops=rng.randint(0, 400))
            P = positroid_from_matrix(A)
            assert n > BASIS_ENUMERATION_CAP
            columns, _ = realize._integer_columns(A.entries)
            # the scan lists the bases only, so the subsets it leaves out are
            # checked too
            scanned = {cols for cols, _ in realize._lex_minors(columns, A.r)}
            for cols in combinations(range(1, n + 1), A.r):
                assert P.is_basis(cols) == (cols in scanned), (A, cols)

    def test_failed_recheck_is_a_contract_violation(self, monkeypatch):
        # a walk that returns a valid necklace of another positroid with the
        # same (n, d) is refused, past n = 20 too: an entry that is no basis
        # (U(2, 4)'s {1, 4} on A_ROWS, the rotated necklace at n = 24) or a
        # basis outside the walked positroid (the constant necklace I_1, whose
        # only basis is I_1)
        A = RationalMatrix.from_rows(A_ROWS)
        A24 = random_tnn_matrix(3, 24, random.Random(1), ops=400)
        P24 = positroid_from_matrix(A24)
        for matrix, sets, reason in (
            (A, Positroid.from_oneline([3, 4, 1, 2]).necklace.sets, "no scanned basis"),
            (A, (frozenset({1, 2}),) * 4, "fails its Gale test"),
            (A24, rotate(P24, 1).necklace.sets, "no scanned basis"),
            (A24, P24.necklace.sets[:1] * 24, "fails its Gale test"),
        ):
            monkeypatch.setattr(realize, "_transition_walk", lambda n, first, bases: sets)
            with pytest.raises(ContractViolationError, match="nonzero minors") as info:
                positroid_from_matrix(matrix)
            assert reason in str(info.value)

    def test_scanned_bases_are_the_enumerated_bases(self):
        # Postnikov's theorem, which the runtime certificate takes as given:
        # the positroid's whole basis list is exactly the nonzero minors
        rng = random.Random(17)
        shapes = [(rng.randint(1, 4), rng.randint(4, 20), rng.randint(0, 400)) for _ in range(12)]
        # the benchmark's shapes: 4x12, dense 3x10, 5x14 and dense 5x16; and
        # a sparse 6x20 at the enumeration cap
        shapes += [(4, 12, 150), (3, 10, 1500), (5, 14, 150), (5, 16, 3000), (6, 20, 400)]
        dense = []
        for r, n, ops in shapes:
            A = random_tnn_matrix(r, n, rng, ops=ops)
            scanned = matroid_from_matrix(A).bases
            assert frozenset(enumerate_bases(positroid_from_matrix(A))) == scanned, (A, ops)
            if len(scanned) == comb(n, A.r):
                dense.append((A.r, n))
        assert {(3, 10), (5, 16)} <= set(dense)
        for A in seeded_tnn_matrices(count=60):
            assert frozenset(enumerate_bases(positroid_from_matrix(A))) == matroid_from_matrix(A).bases

    def test_every_other_necklace_is_refused(self, monkeypatch):
        # soundness of the certificate: whatever valid necklace of the same
        # (n, d) the walk returns in place of the true one is refused
        necklaces = {}
        for n in range(7):
            for P in decorated_positroids(n):
                necklaces.setdefault((n, P.d), []).append(P.necklace.sets)
        refused = 0
        for A in seeded_tnn_matrices(seed=5, count=60):
            if A.n > 6:
                continue
            true = positroid_from_matrix(A).necklace.sets
            for sets in necklaces[A.n, A.r]:
                if sets == true:
                    continue
                monkeypatch.setattr(realize, "_transition_walk", lambda n, first, bases: sets)
                with pytest.raises(ContractViolationError, match="nonzero minors") as info:
                    positroid_from_matrix(A)
                # the batched certificate names what a check of one scanned
                # basis at a time would name, in the same words
                assert str(info.value) == reference_refusal(A, sets), (A, sets)
                refused += 1
            monkeypatch.undo()
        assert refused == 3066

    def test_a_failing_basis_in_the_last_batch_is_named(self, monkeypatch):
        # all C(16, 6) = 8008 subsets of this matrix are bases, 36 fields each
        # in the certificate, so they fill several batches. The substituted
        # necklace is U(6, 16)'s with I_11 moved off {11..16}: its positroid
        # has every 6-set but that one, the last one scanned.
        A = random_tnn_matrix(6, 16, random.Random(2), ops=3000)
        assert len(matroid_from_matrix(A).bases) == comb(16, 6)
        assert comb(16, 6) * 36 > 4 * _GALE_BATCH_FIELDS
        sets = tuple(frozenset((k + t - 1) % 16 + 1 for t in range(6)) for k in range(1, 17))
        assert positroid_from_matrix(A).necklace.sets == sets
        sets = sets[:10] + (frozenset({1, 11, 12, 13, 14, 15}),) + sets[11:]
        wrong = Positroid.from_necklace(GrassmannNecklace(16, 6, sets))
        assert sum(1 for _ in enumerate_bases(wrong)) == comb(16, 6) - 1
        assert not wrong.is_basis(range(11, 17))
        monkeypatch.setattr(realize, "_transition_walk", lambda n, first, bases: sets)
        with pytest.raises(ContractViolationError) as info:
            positroid_from_matrix(A)
        assert str(info.value) == reference_refusal(A, sets)
        assert str(info.value).endswith("scanned basis [11, 12, 13, 14, 15, 16] fails its Gale test")

    def test_invalid_greedy_necklace_is_a_contract_violation(self, monkeypatch):
        A = RationalMatrix.from_rows(A_ROWS)
        sets = (frozenset({1, 2}), frozenset({1, 3}), frozenset({3, 4}), frozenset({2, 4}))
        monkeypatch.setattr(realize, "_transition_walk", lambda n, first, bases: sets)
        with pytest.raises(ContractViolationError, match="necklace"):
            positroid_from_matrix(A)


class TestRandomTnn:
    def test_seeded_instances(self):
        rng = random.Random(7)
        for r, n in ((1, 3), (2, 4), (2, 5), (3, 6), (3, 7)):
            A = random_tnn_matrix(r, n, rng)
            assert (A.r, A.n) == (r, n)
            assert row_rank(A) == r
            assert is_totally_nonnegative(A)
            P = positroid_from_matrix(A)
            assert frozenset(enumerate_bases(P)) == matroid_from_matrix(A).bases

    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(ValidationError, match="need 1 <= r <= n"):
            random_tnn_matrix(3, 2, random.Random(0))

    def test_deterministic_for_fixed_seed(self):
        A1 = random_tnn_matrix(2, 5, random.Random(42))
        A2 = random_tnn_matrix(2, 5, random.Random(42))
        assert A1 == A2


def test_minor_scan_cap(monkeypatch):
    # C(30, 13) is past the cap, but this matrix has one basis, so the scan's
    # work, not the subset count, decides: it converts
    A = random_tnn_matrix(13, 30, random.Random(0), ops=4)
    assert is_totally_nonnegative(A)
    assert len(matroid_from_matrix(A).bases) == 1
    assert positroid_from_matrix(A).d == 13
    # a dense matrix past the cap is refused once its work passes the cap;
    # a lower cap keeps the refusal quick
    monkeypatch.setattr(realize, "MINOR_SCAN_CAP", 500)
    dense = random_tnn_matrix(4, 14, random.Random(0), ops=400)
    assert comb(14, 4) > realize.MINOR_SCAN_CAP
    for scan in (is_totally_nonnegative, matroid_from_matrix, positroid_from_matrix):
        with pytest.raises(EnumerationLimitError, match="the cap 500"):
            scan(dense)
    # within the cap the scan runs to the end, whatever its work
    monkeypatch.setattr(realize, "MINOR_SCAN_CAP", comb(14, 4))
    assert positroid_from_matrix(dense) == Positroid.from_necklace(
        necklace_from_bases(matroid_from_matrix(dense))
    )


def test_dense_refusal_bounds_its_reductions(monkeypatch):
    # a refused scan does at most the cap's worth of Bareiss reductions, the
    # step whose cost grows with r, so the refusal time does not grow with
    # the subset count
    calls = 0
    reduce = realize._reduce

    def counted(*args):
        nonlocal calls
        calls += 1
        return reduce(*args)

    monkeypatch.setattr(realize, "_reduce", counted)
    monkeypatch.setattr(realize, "MINOR_SCAN_CAP", 2000)
    dense = random_tnn_matrix(10, 24, random.Random(0), ops=5000)
    with pytest.raises(EnumerationLimitError, match="the cap 2000"):
        positroid_from_matrix(dense)
    assert 0 < calls <= realize.MINOR_SCAN_CAP
