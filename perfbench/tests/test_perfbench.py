"""Tests of the benchmark itself: seeded inputs, oracle, tracer, metric names.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _digest(workload: str, seed: int) -> str:
    inputs = WORKLOADS[workload].generate(seed, 1)
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    here = _digest(workload, 7)
    code = f"import test_perfbench as t; print(t._digest({workload!r}, 7))"
    env = dict(os.environ, PYTHONHASHSEED="123", PYTHONPATH=str(HERE))
    other = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.strip()
    assert here == other
    assert _digest(workload, 8) != here


def _outcomes(wl, inputs, tmp_path):
    ops, built = wl.build(inputs, True, tmp_path)
    outcomes = []
    for _, fn in ops:
        try:
            outcomes.append(("ok", fn()))
        except Exception as exc:
            outcomes.append(("error", exc))
    return ops, built, outcomes


def _corrupt(workload: str, label: str, value):
    if workload == "rank_queries":
        if label == "rank_dp":
            return value + 1
        if label == "witness":
            return frozenset(sorted(value)[1:])
        return value
    if workload == "build_convert":
        P, Q, r = value
        return P, Q, r + 1
    if workload == "cli_verbs":
        code, stdout, rss = value
        return code, stdout.replace('"rank": ', '"rank": 1', 1), rss
    return value


@pytest.mark.parametrize("workload", ["rank_queries", "build_convert", "matrix_realize", "cli_verbs"])
def test_oracle_accepts_real_answers_and_flags_a_corrupted_one(workload, tmp_path):
    wl = WORKLOADS[workload]
    inputs = wl.generate(3, 0)
    ops, built, outcomes = _outcomes(wl, inputs, tmp_path)
    assert wl.check(inputs, built, outcomes) == [None] * len(ops)

    if workload == "matrix_realize":
        # claim a positroid for a matrix with a negative minor
        index = next(i for i, item in enumerate(inputs["items"]) if not item["tnn"])
        bad = ("ok", outcomes[index - 1][1])
    else:
        labels = {"rank_queries": "rank_dp", "build_convert": "convert", "cli_verbs": "rank"}
        index = next(i for i, (label, _) in enumerate(ops) if label == labels[workload])
        bad = ("ok", _corrupt(workload, ops[index][0], outcomes[index][1]))
    corrupted = outcomes[:index] + [bad] + outcomes[index + 1:]
    verdicts = wl.check(inputs, built, corrupted)
    assert [i for i, v in enumerate(verdicts) if v] == [index]


def test_oracle_flags_a_witness_that_misses_the_rank(tmp_path):
    wl = WORKLOADS["rank_queries"]
    inputs = wl.generate(3, 0)
    ops, built, outcomes = _outcomes(wl, inputs, tmp_path)
    index = next(i for i, (label, _) in enumerate(ops) if label == "witness")
    bad = ("ok", _corrupt("rank_queries", "witness", outcomes[index][1]))
    verdicts = wl.check(inputs, built, outcomes[:index] + [bad] + outcomes[index + 1:])
    assert [i for i, v in enumerate(verdicts) if v] == [index]


def test_oracle_counts_an_unexpected_exception_as_a_failure(tmp_path):
    wl = WORKLOADS["build_convert"]
    inputs = wl.generate(3, 0)
    ops, built, outcomes = _outcomes(wl, inputs, tmp_path)
    outcomes[2] = ("error", RecursionError("maximum recursion depth exceeded"))
    verdicts = wl.check(inputs, built, outcomes)
    assert [i for i, v in enumerate(verdicts) if v] == [2]


def test_oracle_rank_matches_brute_force_on_decorated_positroids():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 8)
        P = oracle.PositroidOracle(gen.decorated_permutation(rng, n, rng.choice([0.0, 0.3])))
        E = {x for x in range(1, n + 1) if rng.random() < 0.5}
        assert P.rank(E) == P.brute_rank(E)


def _leibniz(m):
    k = len(m)
    total = Fraction(0)
    for perm in permutations(range(k)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        prod = Fraction(sign)
        for i, j in enumerate(perm):
            prod *= m[i][j]
        total += prod
    return total


def test_bareiss_determinant_matches_leibniz_formula():
    rng = random.Random(6)
    for _ in range(200):
        k = rng.randint(1, 4)
        m = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
        assert oracle.determinant(m) == _leibniz(m)


@pytest.mark.parametrize("dense", [True, False])
def test_generated_matrices_have_the_intended_minor_signs(dense):
    rng = random.Random(9)
    for r, n in ((3, 10), (4, 12)):
        rows = oracle.integer_rows(gen.tnn_matrix(rng, r, n, dense))
        values = [v for _, v in oracle._minors(rows)]
        assert min(values) >= 0 and max(values) > 0
        if dense:
            assert min(values) > 0
        bad = oracle.integer_rows(gen.non_tnn_matrix(rng, r, n, dense))
        assert oracle.minors_sign_scan(bad) == (True, True)


def test_query_sets_have_exactly_s_intervals():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(2, 60)
        s = rng.randint(1, n // 2)
        members = gen.query_set(rng, n, s)
        assert len(oracle.intervals_of(set(members), n)) == s


def test_patch_restores_every_binding_and_reports_missing_names():
    modules = tracer.package_modules()
    before = [dict(vars(m)) for m in modules]
    from positroids import Positroid

    method = vars(Positroid)["from_oneline"]
    tr = tracer.Tracer()
    patch = tracer.Patch(tracer.TRACED + (("rank", "no_such_function"),), tr.factory)
    try:
        # the package re-exports rank(), which hides the submodule attribute
        morph, rank = sys.modules["positroids.morph"], sys.modules["positroids.rank"]
        assert morph.rank_dp is rank.rank_dp
        assert morph.rank_dp.__wrapped__ is not None
        P = Positroid.from_oneline([2, 3, 1])
        morph.witness_basis(P, {1})
    finally:
        patch.restore()
    assert patch.missing == {"rank.no_such_function": "positroids.rank does not bind no_such_function"}
    assert [dict(vars(m)) for m in modules] == before
    assert vars(Positroid)["from_oneline"] is method
    witness = tr.totals["morph.witness_basis"]
    assert witness[0] == 1 and witness[1] >= witness[2] > 0
    # rank_dp ran inside witness_basis, so it is a child span
    child = next(s for s in tr.spans if s[2] == "rank.rank_dp")
    parent = next(s for s in tr.spans if s[0] == child[1])
    assert parent[2] == "morph.witness_basis"
    top_level = sum(end - start for _, parent, _, start, end in tr.spans if parent == 0)
    assert abs(tr.self_total() - top_level) < 1e-9


class _OneOp:
    """A workload of five ops, each a traced package call, optionally followed
    by busy work in a function the tracer does not wrap."""

    name = "one_op"

    def __init__(self, untraced_s: float):
        self.untraced_s = untraced_s

    def generate(self, seed, pass_index):
        return {}

    def build(self, inputs, in_process, workdir):
        from positroids import Positroid

        def op():
            P = Positroid.from_oneline(list(range(2, 61)) + [1])
            _spin(self.untraced_s)
            return P

        return [("op", op)] * 5, None

    def check(self, inputs, built, outcomes):
        return [None if status == "ok" else "raised" for status, _ in outcomes]


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.mark.parametrize("untraced_s, accounted", [(0.0, True), (0.02, False)])
def test_accounted_ratio_drops_when_time_escapes_the_traced_functions(monkeypatch, tmp_path,
                                                                      untraced_s, accounted):
    monkeypatch.setitem(worker.WORKLOADS, "one_op", _OneOp(untraced_s))
    traced = worker.trace({"workload": "one_op", "seed": 0, "pass": 0}, tmp_path)
    assert traced["failures"] == [] and traced["totals"]["positroid.from_oneline"][0] == 5
    assert (run.accounted_ratio(traced) >= 0.95) is accounted


def test_metric_names_are_well_formed_and_declared():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    for key, produced in (("end_to_end", run.end_to_end_metrics()), ("per_layer", run.per_layer_metrics())):
        declared = [(m["name"], m["unit"]) for m in SPEC[key]]
        assert produced == declared
        assert all(pattern.fullmatch(name) and len(name) <= 64 for name, _ in produced)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_workload_reasons_state_the_tail_percentile_and_sample_count():
    for w in SPEC["workloads"]:
        wl = WORKLOADS[w["name"]]
        count = run.passes_for(wl.name, SPEC["run_seconds"]) * wl.op_count(wl.generate(0, 0))
        assert f"p{run.tail_percentile(count)} of {count} ops" in w["why"]
