import hashlib
import importlib
import io
import json
import logging
import random
from pathlib import Path

import pytest

from positroids import (
    ContractViolationError, Positroid, ValidationError, morph, random_tnn_matrix, rank_dp, repro,
    witness_basis,
)
from positroids.cli import main
from positroids.cyclic import _mask

from helpers import dense_rank_deficient_rows, run_fresh

# the package binds `rank` to the function, so the module is looked up by name
RANK_MODULE = importlib.import_module("positroids.rank")
CLI_MODULE = importlib.import_module("positroids.cli")

REF_PI = [2, 8, 6, 7, 9, 4, 5, 14, 13, 3, 10, 11, 1, 12]
MATRIX_A = [[1, 0, -3, -1], [0, 1, 4, 0]]


@pytest.fixture
def ref_perm_file(tmp_path):
    path = tmp_path / "perm.json"
    path.write_text(json.dumps({"n": 14, "pi": REF_PI}))
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "mtx.json"
    path.write_text(json.dumps(MATRIX_A))
    return str(path)


@pytest.fixture
def colored_perm_file(tmp_path):
    path = tmp_path / "colored.json"
    path.write_text(
        json.dumps({"n": 5, "pi": [1, 3, 4, 2, 5], "colors": {"1": "white", "5": "black"}})
    )
    return str(path)


@pytest.fixture
def cycle_file(tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"pi": [2, 3, 1]}))
    return str(path)


@pytest.fixture
def dec6_file(tmp_path):
    path = tmp_path / "dec6.json"
    path.write_text(json.dumps({"n": 6, "pi": [1, 5, 6, 3, 4, 2], "colors": {"1": "white"}}))
    return str(path)


@pytest.fixture
def dec14_file(tmp_path):
    path = tmp_path / "dec14.json"
    path.write_text(json.dumps({
        "n": 14, "pi": [5, 9, 10, 12, 7, 6, 11, 13, 2, 3, 8, 4, 1, 14],
        "colors": {"6": "black", "14": "white"},
    }))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_text(capsys, argv):
    code = main(argv + ["--text"])
    return code, capsys.readouterr().out.splitlines()


class TestNecklaceVerb:
    def test_json(self, capsys, ref_perm_file):
        code, obj = run_json(capsys, ["necklace", "--perm", ref_perm_file])
        assert code == 0
        assert obj["n"] == 14 and obj["d"] == 7
        assert obj["sets"][0] == [1, 3, 4, 5, 10, 11, 12]
        assert obj["sets"][13] == [1, 3, 4, 5, 10, 11, 14]
        assert len(obj["sets"]) == 14

    def test_text(self, capsys, ref_perm_file):
        code, lines = run_text(capsys, ["necklace", "--perm", ref_perm_file])
        assert code == 0
        assert lines[0] == "I_1 = {1,3,4,5,10,11,12}"
        assert len(lines) == 14


class TestPermVerb:
    def test_roundtrip_via_necklace_file(self, capsys, ref_perm_file, tmp_path):
        _, neck = run_json(capsys, ["necklace", "--perm", ref_perm_file])
        neck_file = tmp_path / "neck.json"
        neck_file.write_text(json.dumps({"n": neck["n"], "sets": neck["sets"]}))
        code, obj = run_json(capsys, ["perm", "--necklace", str(neck_file)])
        assert code == 0
        assert obj["pi"] == REF_PI

    @pytest.mark.parametrize("sets, colors", [
        ([[1, 2], [2, 3], [3, 4], [2, 4]], None),
        ([[2, 4], [2, 4], [3, 4], [2, 4]], {"1": "white", "4": "black"}),
    ], ids=["readme", "white-1-black-4"])
    def test_necklace_round_trip_gives_back_the_sets(self, capsys, tmp_path, sets, colors):
        # necklace -> permutation -> necklace: the README necklace, then one
        # whose 1 is a white and 4 a black fixed point; the stored masks are
        # read as sets and the sets as masks
        neck = tmp_path / "neck.json"
        neck.write_text(json.dumps({"n": 4, "sets": sets}))
        code, perm = run_json(capsys, ["perm", "--necklace", str(neck)])
        assert code == 0 and perm.get("colors") == colors
        back = tmp_path / "back.json"
        back.write_text(json.dumps(perm))
        code, obj = run_json(capsys, ["necklace", "--perm", str(back)])
        assert code == 0 and obj["sets"] == sets

    def test_text_mentions_fixed_points(self, capsys, colored_perm_file):
        code, lines = run_text(capsys, ["perm", "--perm", colored_perm_file])
        assert code == 0
        assert lines[0] == "pi = [1, 3, 4, 2, 5]"
        assert any("loops" in ln and "[1]" in ln for ln in lines)
        assert any("coloops" in ln and "[5]" in ln for ln in lines)


class TestBasesVerb:
    def test_json(self, capsys, matrix_file):
        code, obj = run_json(capsys, ["bases", "--matrix", matrix_file])
        assert code == 0
        assert obj["count"] == 5
        assert sorted(map(tuple, obj["bases"])) == [
            (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)
        ]

    @pytest.mark.parametrize("fixture, bases", [
        ("cycle_file", [[1], [2], [3]]),
        # the loop 1 lies in no basis and the coloop 5 in all
        ("colored_perm_file", [[2, 5], [3, 5], [4, 5]]),
    ], ids=["cycle", "loop-and-coloop"])
    def test_perm_lists_every_basis_in_lex_order(self, capsys, request, fixture, bases):
        code, obj = run_json(capsys, ["bases", "--perm", request.getfixturevalue(fixture)])
        assert code == 0
        assert obj["bases"] == bases and obj["count"] == len(bases)

    def test_cap_is_an_input_error(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        n = 21
        big.write_text(json.dumps({"n": n, "pi": list(range(2, n + 1)) + [1]}))
        code = main(["bases", "--perm", str(big)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err


class TestRankVerb:
    def test_reference_query(self, capsys, ref_perm_file):
        code, obj = run_json(capsys, ["rank", "--perm", ref_perm_file, "--set", "1-3,8-10"])
        assert code == 0
        assert obj["rank"] == 3
        assert obj["set"] == "1-3,8-10"
        assert obj["intervals"] == [[1, 3], [8, 10]]
        assert obj["partition"] == [[1, 2]]
        assert obj["per_block_bounds"] == [3]
        assert "bounds" not in obj and "witness" not in obj

    def test_witness_and_bounds(self, capsys, ref_perm_file):
        code, obj = run_json(
            capsys,
            ["rank", "--perm", ref_perm_file, "--set", "1-3,8-10", "--all-bounds", "--witness"],
        )
        assert code == 0
        assert obj["witness"] == [1, 3, 4, 5, 10, 11, 12]
        assert obj["bounds"]["{{1,2}}"] == 3
        assert obj["bounds"]["{{1},{2}}"] == 5

    @pytest.mark.parametrize("fixture, spec, expected", [
        ("ref_perm_file", "1-3,8-10", {
            "set": "1-3,8-10", "rank": 3, "intervals": [[1, 3], [8, 10]],
            "partition": [[1, 2]], "per_block_bounds": [3],
            "witness": [1, 3, 4, 5, 10, 11, 12],
        }),
        ("colored_perm_file", "1-2,5", {
            "set": "5-2", "rank": 2, "intervals": [[1, 1]], "partition": [[1]],
            "per_block_bounds": [1], "reduced": True, "coloop_bonus": 1,
            "witness": [2, 5],
        }),
    ])
    def test_witness_json(self, capsys, request, fixture, spec, expected):
        path = request.getfixturevalue(fixture)
        code, obj = run_json(capsys, ["rank", "--perm", path, "--set", spec, "--witness"])
        assert code == 0
        assert obj == expected

    @pytest.mark.parametrize("fixture, spec, E, value", [
        # walker 0's fully morphed {2, 4, 6} is no basis, so the witness
        # comes from the second walk, proved by a tight partition
        ("dec6_file", "2,4,6", {2, 4, 6}, 2),
        # both walks miss, and the recursion's first piece spans two
        # intervals of the set
        ("dec14_file", "1,5,7,13", {1, 5, 7, 13}, 2),
        # an empty set's witness is I_1, returned untested
        ("colored_perm_file", "", set(), 0),
    ], ids=["second-walk", "recursion", "empty"])
    def test_witness_is_a_maximum_basis(self, capsys, request, fixture, spec, E, value):
        path = request.getfixturevalue(fixture)
        code, obj = run_json(capsys, ["rank", "--perm", path, "--set", spec, "--witness"])
        assert code == 0 and obj["rank"] == value
        P = Positroid.from_json(json.loads(Path(path).read_text()))
        W = set(obj["witness"])
        assert P.is_basis(W) and len(W & E) == value
        if not E:
            assert W == P.necklace.at(1) == {2, 5}

    def test_witness_builds_one_rank_table(self, capsys, ref_perm_file, monkeypatch):
        # the one table is the certificate's: witness_basis proves its basis,
        # the candidate or the morph recursion's, by a tight partition and
        # builds none
        tables = []
        build = RANK_MODULE._rank_table
        monkeypatch.setattr(RANK_MODULE, "_rank_table", lambda w, d: tables.append(d) or build(w, d))
        code = main(["rank", "--perm", ref_perm_file, "--set", "1-3,8-10", "--witness"])
        assert code == 0 and len(tables) == 1
        capsys.readouterr()
        P = Positroid.from_oneline(REF_PI)
        assert witness_basis(P, {1, 2, 3, 8, 9, 10}) == {1, 3, 4, 5, 10, 11, 12}
        assert len(tables) == 1

    def test_witness_missing_its_target_exits_2(self, capsys, tmp_path, monkeypatch):
        # walker 0's candidate {2, 4, 6} is not a basis here and the second
        # walk is turned off, so the recursion runs; it builds masks, and
        # this one is {1, 2, 3}, holding the loop 1
        path = tmp_path / "dec6.json"
        path.write_text(json.dumps({"n": 6, "pi": [1, 5, 6, 3, 4, 2], "colors": {"1": "white"}}))
        calls = []
        monkeypatch.setattr(morph, "_second_start", lambda P, walk: 0)
        monkeypatch.setattr(morph, "_witness_rec", lambda P, intervals: calls.append(1) or _mask({1, 2, 3}))
        code = main(["rank", "--perm", str(path), "--set", "2,4,6", "--witness"])
        assert code == 2 and calls == [1]
        assert "internal error:" in capsys.readouterr().err

    def test_witness_short_of_the_certificate_exits_2(self, capsys, ref_perm_file, monkeypatch):
        # the table and the witness's tight partition prove the rank
        # independently; a witness meeting the set in fewer elements than the
        # certificate's rank is reported as an internal error
        monkeypatch.setattr(CLI_MODULE, "witness_basis", lambda P, E: P.necklace.at(4))
        code = main(["rank", "--perm", ref_perm_file, "--set", "1-3,8-10", "--witness"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("internal error:") and "not rank 3" in captured.err

    def test_empty_set(self, capsys, ref_perm_file):
        code, obj = run_json(capsys, ["rank", "--perm", ref_perm_file, "--set", ""])
        assert code == 0
        assert obj["rank"] == 0

    def test_empty_ground_set_witness(self, capsys, tmp_path):
        path = tmp_path / "n0.json"
        path.write_text(json.dumps({"n": 0, "pi": []}))
        code, obj = run_json(capsys, ["rank", "--perm", str(path), "--set", "", "--witness"])
        assert code == 0
        assert obj["rank"] == 0
        assert obj["witness"] == []

    def test_reduced_output(self, capsys, colored_perm_file):
        code, obj = run_json(capsys, ["rank", "--perm", colored_perm_file, "--set", "1,2,5"])
        assert code == 0
        assert obj["reduced"] is True
        assert obj["coloop_bonus"] == 1

    def test_reduced_intervals_are_relabeled(self, capsys, dec14_file):
        # with the coloop 6 and the loop 14 in the set, rank answers on the
        # reduction: 13-14 and 1 become the interval [12, 1] there, and the
        # coloop is counted on top of the partition's bound
        code, obj = run_json(capsys, ["rank", "--perm", dec14_file, "--set", "1,5-7,13-14"])
        assert code == 0
        assert (obj["reduced"], obj["coloop_bonus"], obj["intervals"], obj["rank"]) == (
            True, 1, [[5, 6], [12, 1]], 3
        )

    def test_out_of_range_set(self, capsys, ref_perm_file):
        code = main(["rank", "--perm", ref_perm_file, "--set", "1-15"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["\u0663", "9" * 5000])
    def test_unreadable_set_term(self, capsys, ref_perm_file, spec):
        # a non-ASCII digit, and an element past int()'s digit limit: one
        # error line, exit 1, no traceback
        code = main(["rank", "--perm", ref_perm_file, "--set", spec])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error:") and "Traceback" not in err

    def test_partition_cap(self, capsys, tmp_path):
        # 13 and 17 intervals: past the default cap of 12, which bounds only
        # the listing of every partition, so the plain certificate answers
        for n in (26, 34):
            pi = list(range(2, n + 1)) + [1]
            big = tmp_path / f"n{n}.json"
            big.write_text(json.dumps({"n": n, "pi": pi}))
            spec = ",".join(str(k) for k in range(1, n, 2))
            code, obj = run_json(capsys, ["rank", "--perm", str(big), "--set", spec])
            assert code == 0
            assert len(obj["intervals"]) == n // 2
            assert obj["rank"] == rank_dp(Positroid.from_oneline(pi), range(1, n, 2)) == 1
            for argv in (["rank", "--all-bounds"], ["bounds"]):
                code = main(argv + ["--perm", str(big), "--set", spec])
                captured = capsys.readouterr()
                assert code == 1
                assert captured.out == ""
                [line] = captured.err.splitlines()
                assert line.startswith("error: ") and "rank_dp" in line
                assert f"{n // 2} intervals exceeds the limit 12" in line

    def test_raised_limit(self, capsys, ref_perm_file):
        # --limit-s governs only --all-bounds: seven intervals certify under
        # --limit-s 4 and list their Catalan(7) = 429 bounds only under 7
        spec = ",".join(str(k) for k in range(1, 14, 2))
        argv = ["rank", "--perm", ref_perm_file, "--set", spec]
        code, obj = run_json(capsys, argv + ["--limit-s", "4"])
        assert code == 0
        assert obj["rank"] == 6
        code = main(argv + ["--limit-s", "4", "--all-bounds"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        code, obj = run_json(capsys, argv + ["--limit-s", "7", "--all-bounds"])
        assert code == 0
        assert obj["rank"] == 6
        assert len(obj["bounds"]) == 429


class TestBoundsVerb:
    def test_reference_order(self, capsys, ref_perm_file):
        code, obj = run_json(capsys, ["bounds", "--perm", ref_perm_file, "--set", "1-2,7-10,13"])
        assert code == 0
        assert obj["s"] == 3
        assert obj["rank"] == 5
        assert list(obj["bounds"].items()) == [
            ("{{1,2,3}}", 5),
            ("{{1},{2,3}}", 6),
            ("{{1,2},{3}}", 5),
            ("{{1,3},{2}}", 6),
            ("{{1},{2},{3}}", 6),
        ]

    def test_reduced_bounds_add_the_coloop_bonus(self, capsys, colored_perm_file):
        argv = ["bounds", "--perm", colored_perm_file, "--set", "1-2,5"]
        code, obj = run_json(capsys, argv)
        assert code == 0 and obj["reduced"] is True
        assert min(obj["bounds"].values()) + obj["coloop_bonus"] == obj["rank"]
        code, lines = run_text(capsys, argv)
        assert code == 0
        assert "(loops and coloops were stripped first; 1 coloops counted)" in lines
        low = min(int(ln.rsplit(" = ", 1)[1]) for ln in lines if ln.startswith("nbd "))
        assert lines[-1] == f"minimum + coloops (= rank) = {low} + 1 = {obj['rank']}"


class TestMorphTraceVerb:
    def test_json_states(self, capsys, ref_perm_file):
        code, states = run_json(
            capsys, ["morph-trace", "--perm", ref_perm_file, "--set", "2-4,7-10"]
        )
        assert code == 0
        assert len(states) == 2
        assert states[0]["stage"] == 0
        assert states[0]["members"] == [2, 3, 4, 5, 10, 11, 12]
        assert states[1]["exchange"] == {"kind": "mimic", "removed": [5], "added": [7]}
        assert states[1]["status"] == "has-gaps"
        assert states[1]["window"] == [4, 10]

    def test_text_anchor_label(self, capsys, ref_perm_file):
        code, lines = run_text(
            capsys, ["morph-trace", "--perm", ref_perm_file, "--set", "2-4,7-10"]
        )
        assert code == 0
        assert lines[0] == "stage 0: start from I_2 = {2,3,4,5,10,11,12}"
        assert "mimic I_7 in (4,10]" in lines[1]

    def test_second_start(self, capsys, ref_perm_file):
        code, lines = run_text(
            capsys,
            ["morph-trace", "--perm", ref_perm_file, "--set", "2-4,7-10", "--start", "2"],
        )
        assert code == 0
        assert lines[0].startswith("stage 0: start from I_7")
        assert "no move" in lines[1]

    def test_stdout_is_pinned(self, capsys, dec14_file):
        # each exchange record is read off two consecutive stages' masks;
        # the JSON of every stage, byte for byte
        code = main(["morph-trace", "--perm", dec14_file, "--set", "1,5,7,13"])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9efe1ffbc1677314fabd900d2512c9e684eea719c6ea53de86c0115cbea440e8"
        )

    def test_empty_set(self, capsys, ref_perm_file):
        code, states = run_json(capsys, ["morph-trace", "--perm", ref_perm_file, "--set", ""])
        assert code == 0
        assert states == []

    def test_bad_start(self, capsys, ref_perm_file):
        code = main(["morph-trace", "--perm", ref_perm_file, "--set", "1-3", "--start", "2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_a_refused_mimic_exits_2(self, capsys, ref_perm_file, monkeypatch):
        # every stage of a checked input is compatible, so a mimic the walk
        # cannot make is the package's fault, not the input's
        def broken(J, Ic, b, c, d, n):
            raise ValidationError(f"set is not compatible with I_{c}")

        monkeypatch.setattr(morph, "_trade", broken)
        code = main(["morph-trace", "--perm", ref_perm_file, "--set", "2-4,7-10"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("internal error: morph walk failed: set is not compatible with I_7")


class TestFromMatrixVerb:
    def test_reference(self, capsys, matrix_file):
        code, obj = run_json(capsys, ["from-matrix", "--matrix", matrix_file])
        assert code == 0
        assert obj["pi"] == [3, 4, 2, 1]

    def test_zero_column_is_a_loop(self, capsys, tmp_path):
        # a zero column leaves the minor scan at its root
        path = tmp_path / "zerocol.json"
        path.write_text(json.dumps([[1, 0, 1, 0], [0, 0, 1, 1]]))
        code, obj = run_json(capsys, ["from-matrix", "--matrix", str(path)])
        assert code == 0
        assert obj["pi"] == [4, 2, 1, 3] and obj["colors"] == {"2": "white"}

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(MATRIX_A)))
        code, obj = run_json(capsys, ["from-matrix", "--matrix", "-"])
        assert code == 0
        assert obj["pi"] == [3, 4, 2, 1]

    @pytest.mark.parametrize(
        "r, n, seed, ops", [(8, 24, 1, 400), (6, 16, 2, 3000)], ids=["sparse-8x24", "dense-6x16"]
    )
    def test_matrices_past_the_subset_cap_convert_and_check(self, tmp_path, r, n, seed, ops):
        # the sparse 8 x 24: C(24, 8) is past the scan's subset cap, so it
        # converts under the work cap, certified by Gale tests at n > 20; the
        # dense 6 x 16: all C(16, 6) = 8008 subsets are bases, so its Gale
        # certificate runs in many batches. Each verb runs in a fresh
        # interpreter under a time limit.
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(random_tnn_matrix(r, n, random.Random(seed), ops=ops).to_json()))
        proc = run_fresh(["-m", "positroids.cli", "from-matrix", "--matrix", str(path)], timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["n"] == n
        proc = run_fresh(["-m", "positroids.cli", "check", "--matrix", str(path)], timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "valid": True, "kind": "matrix", "rows": r, "columns": n,
            "full_row_rank": True, "totally_nonnegative": True,
        }

    def test_exponent_entry_is_refused_before_it_expands(self, tmp_path):
        # Fraction would expand 1e999999999 to a billion-digit integer; a
        # fresh interpreter under a time limit shows it is refused first
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps([["1e999999999"]]))
        proc = run_fresh(["-m", "positroids.cli", "from-matrix", "--matrix", str(path)], timeout=10)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_negative_matrix(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([[1, 0, -3, -1], [0, -1, 4, 0]]))
        code = main(["from-matrix", "--matrix", str(bad)])
        assert code == 1
        assert "minor" in capsys.readouterr().err


class TestCheckVerb:
    def test_perm_ok(self, capsys, ref_perm_file):
        code, obj = run_json(capsys, ["check", "--perm", ref_perm_file])
        assert code == 0
        assert obj == {
            "valid": True, "kind": "permutation", "n": 14, "d": 7,
            "loops": [], "coloops": [],
        }

    def test_decorated_perm_names_its_loops_and_coloops(self, capsys, colored_perm_file):
        code, obj = run_json(capsys, ["check", "--perm", colored_perm_file])
        assert code == 0
        assert obj == {
            "valid": True, "kind": "permutation", "n": 5, "d": 2,
            "loops": [1], "coloops": [5],
        }

    def test_readme_necklace_ok(self, capsys, tmp_path):
        path = tmp_path / "neck.json"
        path.write_text(json.dumps({"n": 4, "sets": [[1, 2], [2, 3], [3, 4], [2, 4]]}))
        code, obj = run_json(capsys, ["check", "--necklace", str(path)])
        assert code == 0
        assert obj["valid"] is True and obj["pi"] == [3, 4, 2, 1]

    def test_necklace_ok(self, capsys, tmp_path, ref_perm_file):
        _, neck = run_json(capsys, ["necklace", "--perm", ref_perm_file])
        neck_file = tmp_path / "neck.json"
        neck_file.write_text(json.dumps({"n": 14, "sets": neck["sets"]}))
        code, obj = run_json(capsys, ["check", "--necklace", str(neck_file)])
        assert code == 0
        assert obj["valid"] is True
        assert obj["pi"] == REF_PI

    def test_matrix_ok(self, capsys, matrix_file):
        code, obj = run_json(capsys, ["check", "--matrix", matrix_file])
        assert code == 0
        assert obj["full_row_rank"] is True
        assert obj["totally_nonnegative"] is True

    def test_uncolored_fixed_point(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3, "pi": [1, 3, 2]}))
        code, obj = run_json(capsys, ["check", "--perm", str(bad)])
        assert code == 1
        assert obj["valid"] is False
        assert "error" in obj

    def test_negative_matrix_reports_witness(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([[1, 0, -3, -1], [0, -1, 4, 0]]))
        code, obj = run_json(capsys, ["check", "--matrix", str(bad)])
        assert code == 1
        assert obj["valid"] is False
        assert obj["negative_minor"] == {"columns": [1, 2], "value": "-1"}

    def test_dense_rank_deficient_matrix(self, capsys, tmp_path):
        # C(30, 13) is past the scan cap, but the scan ends after the greedy
        # descent: a verdict, not an error
        path = tmp_path / "deficient.json"
        path.write_text(json.dumps(dense_rank_deficient_rows()))
        code = main(["check", "--matrix", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out) == {
            "valid": False, "kind": "matrix", "rows": 13, "columns": 30,
            "full_row_rank": False, "totally_nonnegative": True,
        }
        assert captured.err == ""

    @pytest.mark.parametrize(
        "rows, verdict",
        [
            (MATRIX_A, (True, True)),
            ([[1, 0, -3, -1], [0, -1, -4, 0]], (True, False)),
            (dense_rank_deficient_rows(), (False, True)),
        ],
    )
    def test_matrix_verdicts_take_one_scan(self, capsys, tmp_path, monkeypatch, rows, verdict):
        # full row rank is a nonempty minor scan, so the separate
        # elimination realize._rank never runs, and the scan runs once
        realize = importlib.import_module("positroids.realize")
        scans, eliminations = [], []
        scan, eliminate = realize._lex_minors, realize._rank
        monkeypatch.setattr(realize, "_lex_minors", lambda c, r: scans.append(r) or scan(c, r))
        monkeypatch.setattr(realize, "_rank", lambda c: eliminations.append(c) or eliminate(c))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(rows))
        code, obj = run_json(capsys, ["check", "--matrix", str(path)])
        assert (obj["full_row_rank"], obj["totally_nonnegative"]) == verdict
        assert code == (0 if all(verdict) else 1)
        assert len(scans) == 1 and eliminations == []

    def test_exactly_one_input(self, capsys, ref_perm_file, matrix_file):
        code = main(["check", "--perm", ref_perm_file, "--matrix", matrix_file])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err
        code = main(["check"])
        assert code == 1

    def test_broken_necklace(self, capsys, tmp_path):
        # I_2 keeps 1 even though 1 is in I_1, so no transition produces it
        bad = tmp_path / "badneck.json"
        bad.write_text(json.dumps({"n": 3, "sets": [[1, 2], [1, 3], [2, 3]]}))
        code, obj = run_json(capsys, ["check", "--necklace", str(bad)])
        assert code == 1
        assert obj["valid"] is False


class TestReproVerb:
    def test_all_checks_pass(self, capsys):
        code, results = run_json(capsys, ["repro"])
        assert code == 0
        assert len(results) >= 25
        assert all(r["ok"] for r in results)

    def test_text_summary(self, capsys):
        code, lines = run_text(capsys, ["repro"])
        assert code == 0
        assert all(ln.startswith("ok") or "checks passed" in ln for ln in lines)
        assert "all" in lines[-1] and "checks passed" in lines[-1]

    def test_failures_are_reported(self, capsys, monkeypatch):
        def wrong():
            repro._eq(1, 2, "one is two")

        def crash():
            raise KeyError("boom")

        checks = [("fine", lambda: None), ("wrong", wrong), ("crash", crash)]
        monkeypatch.setattr(repro, "_CHECKS", checks)
        assert [(r.name, r.ok, r.detail) for r in repro.run_all()] == [
            ("fine", True, ""),
            ("wrong", False, "one is two: got 1, expected 2"),
            ("crash", False, "KeyError: 'boom'"),
        ]
        code, results = run_json(capsys, ["repro"])
        assert code == 2
        assert [r["ok"] for r in results] == [True, False, False]
        code, lines = run_text(capsys, ["repro"])
        assert code == 2
        assert lines == [
            "ok   fine",
            "FAIL wrong: one is two: got 1, expected 2",
            "FAIL crash: KeyError: 'boom'",
            "1/3 checks passed",
        ]


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code = main(["necklace", "--perm", "/nonexistent/nowhere.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["necklace", "--perm", str(bad)])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b"\xff[]", b"[" * 200000 + b"]" * 200000, b'{"pi": [' + b"7" * 5000 + b"]}"],
        ids=["undecodable", "deeply-nested", "long-integer"],
    )
    def test_malformed_file(self, capsys, tmp_path, content):
        # bad bytes, nesting past the decoder's recursion limit and an int
        # past the digit limit are refused like any other invalid JSON
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code = main(["necklace", "--perm", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "not valid JSON" in line
        code, obj = run_json(capsys, ["check", "--perm", str(bad)])
        assert code == 1
        assert obj["valid"] is False

    def test_no_input_given(self, capsys):
        code = main(["necklace"])
        assert code == 1
        assert "no positroid given" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb",
        [["necklace"], ["perm"], ["bases"], ["rank", "--set", "1"], ["bounds", "--set", "1"],
         ["morph-trace", "--set", "1"], ["check"]],
        ids=lambda verb: verb[0],
    )
    def test_two_inputs_refused(self, capsys, ref_perm_file, matrix_file, verb):
        # every verb that reads a positroid takes exactly one input file
        code = main(verb + ["--perm", ref_perm_file, "--matrix", matrix_file])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "exactly one" in line

    def test_contract_violation_exit_code(self, capsys, monkeypatch):
        def boom(args):
            raise ContractViolationError("wires crossed")

        monkeypatch.setitem(main.__globals__["_COMMANDS"], "repro", boom)
        code = main(["repro"])
        assert code == 2
        assert "internal error:" in capsys.readouterr().err

    def test_caught_errors_are_logged_at_debug(self, capsys, caplog, monkeypatch):
        def boom(args):
            raise ContractViolationError("wires crossed")

        monkeypatch.setitem(main.__globals__["_COMMANDS"], "repro", boom)
        caplog.set_level(logging.DEBUG, logger="positroids")
        assert main(["necklace"]) == 1
        assert capsys.readouterr().err.startswith("error: no positroid given")
        assert main(["repro"]) == 2
        assert capsys.readouterr().err.startswith("internal error: wires crossed")
        records = [r for r in caplog.records if r.name == "positroids"]
        assert [(r.levelno, r.exc_info[0]) for r in records] == [
            (logging.DEBUG, ValidationError),
            (logging.DEBUG, ContractViolationError),
        ]

    @pytest.mark.parametrize("pi", [[1, "2"], [2.0, 1], [True, 2]])
    def test_non_integer_permutation_entry(self, capsys, tmp_path, pi):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pi": pi}))
        code = main(["necklace", "--perm", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and "must be integers" in captured.err

    @pytest.mark.parametrize("sets", [[[1, 1], [2, 2]], [[1, 2, 2], [2, 1]]])
    def test_repeated_necklace_entry(self, capsys, tmp_path, sets):
        # read as sets, these were once a valid d = 1 necklace and two black
        # fixed points
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "sets": sets}))
        code, obj = run_json(capsys, ["check", "--necklace", str(bad)])
        assert code == 1
        assert obj["valid"] is False
        assert "I_1" in obj["error"] and "twice" in obj["error"]

    def test_non_integer_necklace_entry(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sets": [[1, "2"], [2, 1]]}))
        code, obj = run_json(capsys, ["check", "--necklace", str(bad)])
        assert code == 1
        assert obj["valid"] is False
        assert "must be integers" in obj["error"]
        code = main(["necklace", "--necklace", str(bad)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("verb, option, content", [
        ("necklace", "--perm", {"n": "2", "pi": [2, 1]}),
        ("perm", "--necklace", {"n": "2", "sets": [[1], [2]]}),
    ])
    def test_non_integer_json_size(self, capsys, tmp_path, verb, option, content):
        # once reported as a length mismatch: "n" is 2 but ... has 2 entries
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        code = main([verb, option, str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: \"n\" must be a nonnegative integer, got '2'"
        ]

    def test_unknown_verb(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_json_text_mutually_exclusive(self, ref_perm_file):
        with pytest.raises(SystemExit):
            main(["necklace", "--perm", ref_perm_file, "--json", "--text"])


class TestStartUp:
    """Each CLI process imports what its verb runs and nothing more."""

    def test_import_leaves_repro_and_logging_unloaded(self):
        bare = run_fresh(["-c", "import sys; print('logging' in sys.modules)"])
        proc = run_fresh([
            "-c",
            "import sys, positroids.cli; "
            "print('positroids.repro' in sys.modules, 'logging' in sys.modules)",
        ])
        assert bare.returncode == proc.returncode == 0
        # logging stays out unless a bare interpreter already loads it
        assert proc.stdout.split() == ["False", bare.stdout.strip()]

    def test_debug_log_reaches_stderr(self):
        proc = run_fresh(["-m", "positroids.cli", "necklace"], log="debug")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "DEBUG:positroids:necklace failed" in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error: no positroid given")

    @pytest.mark.parametrize("log", [None, "basic_format", "Info", "nonsense"])
    def test_repro_runs_under_any_log_setting(self, log):
        # only the five level names configure logging; basic_format, a
        # logging attribute but no level, means warning like any other value
        proc = run_fresh(["-m", "positroids.cli", "repro", "--text"], log=log)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1].startswith("all ")
        assert "Traceback" not in proc.stderr


DEMOS = Path(__file__).resolve().parents[1] / "demos"


class TestPinnedOutputs:
    """The stdout of every demo and of repro, text and JSON, byte for byte:
    a SHA-256 digest each. Each is deterministic, under any hash seed."""

    @pytest.mark.parametrize("args, digest", [
        ([str(DEMOS / "01_necklaces_and_permutations.py")],
         "33c31cffa40f797a1ba13b75fe56777a80f1370870718e0a92d1aa4f448dd72f"),
        ([str(DEMOS / "02_rank_certificates.py")],
         "e0752de574ca7a3063076527afa6e13716cd3d2612a76054f8e34c71f00fabf4"),
        ([str(DEMOS / "03_morphs_and_witnesses.py")],
         "1598cecf8759a00846f09ba828c310286fcc5da0b40759590bac8934da5e34c2"),
        ([str(DEMOS / "04_matrices_to_positroids.py")],
         "25a73554e5963ccc70bc2f3795217df397e08b89cacc33e460da8f81b17a614f"),
        (["-m", "positroids.cli", "repro", "--text"],
         "24c1014729eb4310f9a894e6eb17bc4fb346df39924878723a49c1828097b392"),
        (["-m", "positroids.cli", "repro"],
         "0fc7964f76408efab0975b0a0b14b6302b3ccaea5a2a111b7e6ef6157b103602"),
    ], ids=["demo-01", "demo-02", "demo-03", "demo-04", "repro-text", "repro-json"])
    def test_stdout_is_pinned(self, args, digest):
        proc = run_fresh(args)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
