"""Seeded queries at scale, each in a fresh interpreter under a time limit
(helpers.run_fresh), so that a hang fails its test fast instead of
stalling the suite. On each, the witness is a basis, and its count in E,
rank_dp and, where it is asked for, the certificate's rank agree on a
pinned value."""

import json
from pathlib import Path

import pytest

from helpers import run_fresh

# this directory, where the child imports helpers from
TESTS = str(Path(__file__).resolve().parent)

# the child binds P and E by `setup`, then prints the facts as JSON
SCRIPT = """\
import json, random, sys
sys.path.insert(0, sys.argv[1])
from helpers import random_decorated_positroid, random_union
from positroids import Positroid, align_basis, decompose, rank, rank_dp, witness_basis
{setup}
W = witness_basis(P, E)
facts = {{
    "s": decompose(E, P.n).s, "d": P.d, "basis": P.is_basis(W),
    "witness": len(W & E), "rank_dp": rank_dp(P, E),
}}
{extra}
print(json.dumps(facts))
"""

RANK = 'facts["rank"] = rank(P, E).value'


def seeded(n, s, seed):
    return (
        f"rng = random.Random({seed})\n"
        f"P = random_decorated_positroid({n}, rng)\n"
        f"E = random_union({n}, {s}, rng)"
    )


QUERIES = {
    # rank_dp proves the witness candidate maximal by a tight partition at
    # s = 90, or falls back to the rank table when it cannot
    "n300-s90": (
        "rng = random.Random(5)\n"
        "P = random_decorated_positroid(300, rng)\n"
        "cuts = sorted(rng.sample(range(1, 301), 180))\n"
        "E = frozenset(x for k in range(90) for x in range(cuts[2 * k], cuts[2 * k + 1]))",
        RANK, 20,
        {"s": 90, "d": 137, "basis": True, "witness": 137, "rank_dp": 137, "rank": 137},
    ),
    # walker 0's candidate is no basis, so the witness takes the second
    # walk and proves it by a tight partition; align_basis proves the
    # witness maximum the same way and, at each of the 60 intervals (16 of
    # them make exchanges), keeps a basis and its count
    "n400-s60": (
        seeded(400, 60, 52),
        RANK + "\nD = decompose(E, P.n)\n"
        'facts["aligned"] = sorted({(P.is_basis(A), len(A & E))'
        " for A in (align_basis(P, W, D, i) for i in range(1, 61))})",
        20,
        {
            "s": 60, "d": 201, "basis": True, "witness": 149, "rank_dp": 149, "rank": 149,
            "aligned": [[True, 149]],
        },
    ),
    # both walks miss, so the witness runs the morph recursion
    "n60-s20": (
        seeded(60, 20, 124), RANK, 20,
        {"s": 20, "d": 29, "basis": True, "witness": 26, "rank_dp": 26, "rank": 26},
    ),
    # d = 74: walker 0's set is no basis, and rank_dp, like the witness,
    # proves the second walk's set with no table
    "n150-s20": (
        seeded(150, 20, 4), RANK, 20,
        {"s": 20, "d": 74, "basis": True, "witness": 72, "rank_dp": 72, "rank": 72},
    ),
    # rank_dp and the witness prove the candidate from a band of gaps near
    # the diagonal, with no s x s gap matrix; the certificate's table must
    # give the same rank
    "n1000-s300": (
        seeded(1000, 300, 1000), RANK, 30,
        {"s": 300, "d": 489, "basis": True, "witness": 488, "rank_dp": 488, "rank": 488},
    ),
    # pi = [n, 1, ..., n - 1] with E the odd elements nests the morph
    # recursion s = n / 2 levels; its candidate proves itself, so neither
    # rank_dp nor the witness builds the O(s^3) table
    "deep-n400": (
        "P = Positroid.from_oneline([400, *range(1, 400)])\nE = frozenset(range(1, 401, 2))",
        "", 20,
        {"s": 200, "d": 399, "basis": True, "witness": 200, "rank_dp": 200},
    ),
}


@pytest.mark.parametrize("setup, extra, timeout, expected", QUERIES.values(), ids=QUERIES)
def test_seeded_query_agrees_at_scale(setup, extra, timeout, expected):
    proc = run_fresh(["-c", SCRIPT.format(setup=setup, extra=extra), TESTS], timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected
