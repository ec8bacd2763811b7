import io
import json

import pytest

from positroids import ContractViolationError, morph
from positroids.cli import main

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

    def test_witness_missing_its_target_exits_2(self, capsys, ref_perm_file, monkeypatch):
        monkeypatch.setattr(morph, "_witness_rec", lambda P, decomp: frozenset(range(1, 8)))
        code = main(["rank", "--perm", ref_perm_file, "--set", "1-3,8-10", "--witness"])
        assert code == 2
        assert "internal error:" in capsys.readouterr().err

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

    def test_out_of_range_set(self, capsys, ref_perm_file):
        code = main(["rank", "--perm", ref_perm_file, "--set", "1-15"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_partition_cap(self, capsys, tmp_path):
        n = 34
        big = tmp_path / "n34.json"
        big.write_text(json.dumps({"n": n, "pi": list(range(2, n + 1)) + [1]}))
        spec = ",".join(str(k) for k in range(1, n, 2))
        code = main(["rank", "--perm", str(big), "--set", spec])
        err = capsys.readouterr().err
        assert code == 1
        assert "rank_dp" in err

    def test_raised_limit(self, capsys, ref_perm_file):
        spec = ",".join(str(k) for k in range(1, 14, 2))
        code = main(["rank", "--perm", ref_perm_file, "--set", spec, "--limit-s", "4"])
        assert code == 1
        capsys.readouterr()
        code, obj = run_json(
            capsys, ["rank", "--perm", ref_perm_file, "--set", spec, "--limit-s", "7"]
        )
        assert code == 0
        assert obj["rank"] == 6


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

    def test_empty_set(self, capsys, ref_perm_file):
        code, states = run_json(capsys, ["morph-trace", "--perm", ref_perm_file, "--set", ""])
        assert code == 0
        assert states == []

    def test_bad_start(self, capsys, ref_perm_file):
        code = main(["morph-trace", "--perm", ref_perm_file, "--set", "1-3", "--start", "2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFromMatrixVerb:
    def test_reference(self, capsys, matrix_file):
        code, obj = run_json(capsys, ["from-matrix", "--matrix", matrix_file])
        assert code == 0
        assert obj["pi"] == [3, 4, 2, 1]

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(MATRIX_A)))
        code, obj = run_json(capsys, ["from-matrix", "--matrix", "-"])
        assert code == 0
        assert obj["pi"] == [3, 4, 2, 1]

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

    def test_no_input_given(self, capsys):
        code = main(["necklace"])
        assert code == 1
        assert "no positroid given" in capsys.readouterr().err

    def test_contract_violation_exit_code(self, capsys, monkeypatch):
        def boom(args):
            raise ContractViolationError("wires crossed")

        monkeypatch.setitem(main.__globals__["_COMMANDS"], "repro", boom)
        code = main(["repro"])
        assert code == 2
        assert "internal error:" in capsys.readouterr().err

    @pytest.mark.parametrize("pi", [[1, "2"], [2.0, 1], [True, 2]])
    def test_non_integer_permutation_entry(self, capsys, tmp_path, pi):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pi": pi}))
        code = main(["necklace", "--perm", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and "must be integers" in captured.err

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

    def test_unknown_verb(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_json_text_mutually_exclusive(self, ref_perm_file):
        with pytest.raises(SystemExit):
            main(["necklace", "--perm", ref_perm_file, "--json", "--text"])
