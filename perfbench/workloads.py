"""The four workloads: seeded inputs, the operations timed on them, and checks.

A workload runs in passes. Each pass is one fresh process: `generate`
makes the pass's inputs from (seed, pass index) with the benchmark's own
generators, `build` imports the package and turns them into the objects the
program receives, the returned operations are timed one after another in a
closed loop (one caller, the next operation starts when the previous one
returned), and `check` compares every outcome with the benchmark's own
oracle afterwards. An outcome is ("ok", value) or ("error", exception).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path
from typing import Callable

import gen
from oracle import PositroidOracle, determinant, integer_rows, intervals_of, nonzero_minor_sets

Op = tuple[str, Callable[[], object]]

# the 14-element demo positroid of the package documentation
DEMO_PERMUTATION = [2, 8, 6, 7, 9, 4, 5, 14, 13, 3, 10, 11, 1, 12]


def _oneline_args(perm: dict) -> tuple[list[int], list[int], list[int]]:
    colors = perm.get("colors", {})
    white = [int(k) for k, c in colors.items() if c == "white"]
    black = [int(k) for k, c in colors.items() if c == "black"]
    return perm["pi"], white, black


def _error(outcome) -> str | None:
    if outcome[0] == "error":
        exc = outcome[1]
        return f"raised {type(exc).__name__}: {exc}"
    return None


class RankQueries:
    """Rank certificates, DP ranks and witness bases on shared positroids.

    Per pass: four decorated positroids with n = 150 (5% fixed points, split
    into loops and coloops), 29 queries each, interleaved as rank at
    s = 1..8, rank_dp at s = 10, 20, 40, 60, 60, 60 and seven times 30, and
    witness_basis at s = 1..8, where s counts the query's maximal cyclic
    intervals. The first query on a positroid pays for reduce and
    arrow_table. One n = 10 positroid with a loop and a coloop adds 9 small
    queries that are checked against brute force over bases.

    One size and a fixed mix keep the latency distribution the same from
    seed to seed. The slowest group, rank_dp at s = 60, is a tenth of all
    ops, so the tail percentile falls inside it. The rank_dp queries at
    s = 30 cost about as much as the median op, and a fifth of all ops sit
    there, so the median falls inside that group.
    """

    name = "rank_queries"
    n = 150
    positroids = 4
    rank_s = (1, 2, 3, 4, 5, 6, 7, 8)
    dp_s = (10, 30, 20, 30, 40, 30, 60, 30, 60, 30, 60, 30, 30)
    witness_s = (1, 2, 3, 4, 5, 6, 7, 8)
    pass_seconds = 2.6

    def generate(self, seed: int, pass_index: int) -> dict:
        rng = gen.rng_for(self.name, seed, pass_index)
        positroids = []
        kinds = (("rank", self.rank_s), ("rank_dp", self.dp_s), ("witness", self.witness_s))
        for _ in range(self.positroids):
            perm = gen.decorated_permutation(rng, self.n)
            queries = []
            for i in range(max(len(sizes) for _, sizes in kinds)):
                for kind, sizes in kinds:
                    if i < len(sizes):
                        queries.append([kind, gen.query_set(rng, self.n, sizes[i])])
            positroids.append({"perm": perm, "queries": queries})
        perm = gen.decorated_permutation(rng, 10, fixed_share=0.2)
        queries = [[kind, gen.query_set(rng, 10, s)] for s in (1, 2, 3)
                   for kind in ("rank", "rank_dp", "witness")]
        positroids.append({"perm": perm, "queries": queries})
        return {"positroids": positroids}

    @staticmethod
    def op_count(inputs: dict) -> int:
        return sum(len(item["queries"]) for item in inputs["positroids"])

    def build(self, inputs: dict, in_process: bool, workdir: Path) -> tuple[list[Op], list]:
        from positroids import Positroid, rank, rank_dp, witness_basis

        calls = {"rank": rank, "rank_dp": rank_dp, "witness": witness_basis}
        ops: list[Op] = []
        built = []
        for item in inputs["positroids"]:
            P = Positroid.from_oneline(*_oneline_args(item["perm"]))
            built.append(P)
            for kind, members in item["queries"]:
                E = frozenset(members)
                ops.append((kind, lambda f=calls[kind], P=P, E=E: f(P, E)))
        return ops, built

    def check(self, inputs: dict, built: list, outcomes: list) -> list[str | None]:
        from positroids import rank_dp

        verdicts = []
        it = iter(outcomes)
        for item, P in zip(inputs["positroids"], built):
            O = PositroidOracle(item["perm"])
            for kind, members in item["queries"]:
                outcome = next(it)
                verdicts.append(_error(outcome) or self._check_one(O, P, kind, members, outcome[1], rank_dp))
        return verdicts

    @staticmethod
    def _check_one(O, P, kind, members, value, rank_dp) -> str | None:
        E = frozenset(members)
        expected = O.brute_rank(E) if O.n <= 10 else O.rank(E)
        if kind == "rank":
            if value.value != expected:
                return f"rank certificate says {value.value}, oracle {expected}"
            if sum(value.per_block_bounds) + value.coloop_bonus != value.value:
                return "certificate blocks do not add up to its value"
            if rank_dp(P, E) != value.value:
                return "rank and rank_dp disagree"
        elif kind == "rank_dp":
            if value != expected:
                return f"rank_dp says {value}, oracle {expected}"
        elif not O.is_basis(value):
            return "witness is not a basis of the oracle's necklace"
        elif len(value & E) != expected:
            return f"witness meets E in {len(value & E)}, rank is {expected}"
        return None


class BuildConvert:
    """Construction and conversion on distinct positroids, so caches miss.

    Per pass: twelve decorated positroids, three with n = 50, four each with
    n = 100 and 200, and one with n = 400. Each operation is
    Positroid.from_oneline, a from_necklace round trip and one
    single-interval rank_dp on the round-tripped positroid. An op's cost
    follows n closely, and the counts put the median inside the n = 100 group
    and the tail percentile inside the n = 200 group.
    """

    name = "build_convert"
    sizes = (50, 100, 200, 400, 50, 100, 200, 50, 100, 200, 100, 200)
    pass_seconds = 2.7

    def generate(self, seed: int, pass_index: int) -> dict:
        rng = gen.rng_for(self.name, seed, pass_index)
        items = []
        for n in self.sizes:
            items.append({"perm": gen.decorated_permutation(rng, n),
                          "interval": gen.query_set(rng, n, 1)})
        return {"items": items}

    @staticmethod
    def op_count(inputs: dict) -> int:
        return len(inputs["items"])

    def build(self, inputs: dict, in_process: bool, workdir: Path) -> tuple[list[Op], None]:
        from positroids import Positroid, rank_dp

        def convert(images, white, black, E):
            P = Positroid.from_oneline(images, white, black)
            Q = Positroid.from_necklace(P.necklace)
            return P, Q, rank_dp(Q, E)

        ops: list[Op] = []
        for item in inputs["items"]:
            args = _oneline_args(item["perm"]) + (frozenset(item["interval"]),)
            ops.append(("convert", lambda args=args: convert(*args)))
        return ops, None

    def check(self, inputs: dict, built, outcomes: list) -> list[str | None]:
        verdicts = []
        for item, outcome in zip(inputs["items"], outcomes):
            verdicts.append(_error(outcome) or self._check_one(item, *outcome[1]))
        return verdicts

    @staticmethod
    def _check_one(item: dict, P, Q, value) -> str | None:
        images, white, black = _oneline_args(item["perm"])
        O = PositroidOracle(item["perm"])
        if list(P.perm.images) != images or P.perm.white != set(white) or P.perm.black != set(black):
            return "from_oneline changed the permutation"
        if list(P.necklace.sets) != O.necklace:
            return "necklace differs from the oracle's"
        if Q.perm != P.perm:
            return "permutation did not survive the necklace round trip"
        expected = O.rank(item["interval"])
        if value != expected:
            return f"rank_dp says {value}, oracle {expected}"
        return None


class MatrixRealize:
    """Exact matrices to positroids; a quarter are not TNN and must be refused.

    Per pass 16 matrices, one of each shape with a negative minor: 4x12
    (2 TNN), 3x10 (5 TNN), 5x14 (5 TNN) and 5x16 (none TNN). The 3x10 ones
    are dense (all C(10,3) minors positive, so the basis and necklace code
    works on many bases, at a nearly fixed cost); the others are sparse, so
    their cost is the scan over all column subsets, which varies with the
    matrix. The counts put the median inside the dense 3x10 group and the
    tail percentile inside the 5x14 TNN group, the slowest. A 5x16 TNN
    matrix takes nearly twice as long as a 5x14 one, so accepting one is
    left to the baseline sweep of the traced run.
    """

    name = "matrix_realize"
    plan = (
        ((4, 12), False, (True, True, False)),
        ((3, 10), True, (True, True, True, True, True, False)),
        ((5, 14), False, (True, True, True, True, True, False)),
        ((5, 16), False, (False,)),
    )
    pass_seconds = 3.0

    def generate(self, seed: int, pass_index: int) -> dict:
        rng = gen.rng_for(self.name, seed, pass_index)
        items = []
        for (r, n), dense, kinds in self.plan:
            for tnn in kinds:
                make = gen.tnn_matrix if tnn else gen.non_tnn_matrix
                items.append({"rows": make(rng, r, n, dense), "tnn": tnn})
        return {"items": items}

    @staticmethod
    def op_count(inputs: dict) -> int:
        return len(inputs["items"])

    def build(self, inputs: dict, in_process: bool, workdir: Path) -> tuple[list[Op], None]:
        from positroids import RationalMatrix, positroid_from_matrix

        ops: list[Op] = []
        for item in inputs["items"]:
            A = RationalMatrix.from_json(item["rows"])
            ops.append(("from_matrix", lambda A=A: positroid_from_matrix(A)))
        return ops, None

    @staticmethod
    def subsets(inputs: dict) -> int:
        """Column subsets whose minor one scan must see, summed over the matrices."""
        return sum(comb(len(it["rows"][0]), len(it["rows"])) for it in inputs["items"])

    def check(self, inputs: dict, built, outcomes: list) -> list[str | None]:
        from positroids import ValidationError

        verdicts = []
        for item, (status, value) in zip(inputs["items"], outcomes):
            if not item["tnn"]:
                ok = status == "error" and isinstance(value, ValidationError)
                verdicts.append(None if ok else f"non-TNN matrix gave {status} {value!r}")
                continue
            if status == "error":
                verdicts.append(_error((status, value)))
                continue
            bases = PositroidOracle(value.to_json()).bases()
            ok = bases == nonzero_minor_sets(integer_rows(item["rows"]))
            verdicts.append(None if ok else "positroid bases differ from the nonzero minors")
        return verdicts


def format_spec(members: list[int], n: int) -> str:
    """The CLI's set syntax, "a-b,c", built from the maximal cyclic intervals."""
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in intervals_of(set(members), n))


class CliVerbs:
    """Sequential `python -m positroids.cli` processes on benchmark-written files.

    Per pass: three rounds of six verbs: rank --witness on the 14-element
    demo, rank on an n = 100 decorated positroid, from-matrix on a sparse
    4x12 matrix, necklace at n = 200, check on a non-TNN 4x12 matrix (exit 1
    expected) and repro. Set-up is the median time to start an interpreter
    and import positroids.cli, which every call pays before its verb runs.
    """

    name = "cli_verbs"
    subprocess_ops = True  # peak RSS is that of the CLI processes
    rounds = 3
    pass_seconds = 4.4

    def generate(self, seed: int, pass_index: int) -> dict:
        rng = gen.rng_for(self.name, seed, pass_index)
        demo_set = gen.query_set(rng, 14, 3)
        pos100 = gen.decorated_permutation(rng, 100)
        set100 = gen.query_set(rng, 100, 6)
        return {
            "files": {
                "demo.json": {"n": 14, "pi": DEMO_PERMUTATION},
                "pos100.json": pos100,
                "pos200.json": gen.decorated_permutation(rng, 200),
                "tnn.json": gen.tnn_matrix(rng, 4, 12, False),
                "bad.json": gen.non_tnn_matrix(rng, 4, 12, False),
            },
            "verbs": [
                ["rank_witness", ["rank", "--perm", "demo.json", "--set", format_spec(demo_set, 14), "--witness"], demo_set],
                ["rank", ["rank", "--perm", "pos100.json", "--set", format_spec(set100, 100)], set100],
                ["from-matrix", ["from-matrix", "--matrix", "tnn.json"], None],
                ["necklace", ["necklace", "--perm", "pos200.json"], None],
                ["check", ["check", "--matrix", "bad.json"], None],
                ["repro", ["repro"], None],
            ],
        }

    def op_count(self, inputs: dict) -> int:
        return len(inputs["verbs"]) * self.rounds

    def build(self, inputs: dict, in_process: bool, workdir: Path) -> tuple[list[Op], None]:
        files = inputs["files"]
        for name, content in files.items():
            (workdir / name).write_text(json.dumps(content))
        verbs = [
            (label, [str(workdir / a) if a in files else a for a in argv])
            for label, argv, _ in inputs["verbs"] * self.rounds
        ]
        if in_process:  # main() calls in this process, for the traced run
            from positroids import cli

            def call(argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
                return code, out.getvalue(), 0.0

            return [(label, lambda argv=argv: call(argv)) for label, argv in verbs], None
        return [(label, lambda argv=argv: run_cli(argv)) for label, argv in verbs], None

    def check(self, inputs: dict, built, outcomes: list) -> list[str | None]:
        verbs = inputs["verbs"] * self.rounds
        files = inputs["files"]
        verdicts = []
        for (label, argv, members), outcome in zip(verbs, outcomes):
            if outcome[0] == "error":
                verdicts.append(_error(outcome))
                continue
            code, stdout, _ = outcome[1]
            try:
                obj = json.loads(stdout)
            except json.JSONDecodeError:
                verdicts.append(f"{label}: stdout is not JSON (exit {code})")
                continue
            verdicts.append(self._check_one(label, code, obj, members, files))
        return verdicts

    @staticmethod
    def _check_one(label: str, code: int, obj, members, files: dict) -> str | None:
        expect_code = 1 if label == "check" else 0
        if code != expect_code:
            return f"{label}: exit {code}, expected {expect_code}"
        if label in ("rank_witness", "rank"):
            perm = files["demo.json" if label == "rank_witness" else "pos100.json"]
            O = PositroidOracle(perm)
            keys = {"set", "rank", "intervals", "partition", "per_block_bounds"}
            if not keys <= obj.keys():
                return f"{label}: JSON lacks {sorted(keys - obj.keys())}"
            expected = O.rank(members)
            if obj["rank"] != expected:
                return f"{label}: rank {obj['rank']}, oracle {expected}"
            if sum(obj["per_block_bounds"]) + obj.get("coloop_bonus", 0) != expected:
                return f"{label}: per-block bounds do not add up to the rank"
            if label == "rank_witness":
                W = set(obj.get("witness", ()))
                if not O.is_basis(W) or len(W & set(members)) != expected:
                    return "rank_witness: witness is not a maximizing basis"
            return None
        if label == "from-matrix":
            if not {"n", "pi"} <= obj.keys():
                return "from-matrix: JSON lacks n or pi"
            bases = PositroidOracle(obj).bases()
            if bases != nonzero_minor_sets(integer_rows(files["tnn.json"])):
                return "from-matrix: positroid bases differ from the nonzero minors"
            return None
        if label == "necklace":
            expected = [sorted(I) for I in PositroidOracle(files["pos200.json"]).necklace]
            if obj.get("sets") != expected or obj.get("n") != 200:
                return "necklace: sets differ from the oracle's"
            return None
        if label == "check":
            if obj.get("valid") is not False or obj.get("totally_nonnegative") is not False:
                return "check: non-TNN matrix not reported invalid"
            cols = obj.get("negative_minor", {}).get("columns", [])
            rows = integer_rows(files["bad.json"])
            if len(cols) != len(rows) or determinant([[row[c - 1] for c in cols] for row in rows]) >= 0:
                return "check: reported minor is not negative"
            return None
        if not isinstance(obj, list) or not obj or not all(
            isinstance(r, dict) and r.keys() == {"name", "ok", "detail"} and r["ok"] for r in obj
        ):
            return "repro: not every check passed"
        return None


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """One CLI process; returns (exit code, stdout, its peak RSS in MB)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "positroids.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=cli_env(Path(__file__).resolve().parent.parent),
    )
    try:
        stdout = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout.decode(), usage.ru_maxrss / 1024


def import_probe(root: Path) -> float:
    """Wall time of a fresh interpreter that imports positroids.cli and exits."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import positroids.cli"],
        env=cli_env(root),
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


WORKLOADS = {w.name: w for w in (RankQueries(), BuildConvert(), MatrixRealize(), CliVerbs())}
