"""Seeded input generators owned by the benchmark.

Nothing here imports the package under test, so a change to the program
cannot change the inputs. Every generator returns plain JSON-able data
(lists, ints, "p/q" strings) and draws only from the `random.Random` it is
given; `rng_for` derives that generator from the workload, the seed and the
pass index, so the same arguments always give byte-identical inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle import integer_rows, minors_sign_scan


def rng_for(workload: str, seed: int, pass_index: int) -> random.Random:
    # str seeds hash with sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{pass_index}")


def decorated_permutation(rng: random.Random, n: int, fixed_share: float = 0.05) -> dict:
    """A random decorated permutation of [n] with about `fixed_share` fixed points.

    The fixed points are split between white (loops) and black (coloops);
    every other element moves. Returned in the CLI's JSON shape.
    """
    count = round(n * fixed_share)
    if n - count == 1:  # a single moving element cannot be deranged
        count -= 1
    fixed = rng.sample(range(1, n + 1), count)
    white, black = sorted(fixed[: count // 2]), sorted(fixed[count // 2 :])
    moving = [x for x in range(1, n + 1) if x not in set(fixed)]
    while True:
        targets = moving[:]
        rng.shuffle(targets)
        if all(a != b for a, b in zip(moving, targets)):
            break
    images = list(range(1, n + 1))
    for a, b in zip(moving, targets):
        images[a - 1] = b
    out: dict = {"n": n, "pi": images}
    colors = {str(x): "white" for x in white} | {str(x): "black" for x in black}
    if colors:
        out["colors"] = dict(sorted(colors.items(), key=lambda kv: int(kv[0])))
    return out


def query_set(rng: random.Random, n: int, s: int) -> list[int]:
    """A subset of [n] with exactly s maximal cyclic intervals (needs 2s <= n).

    2s distinct cut points split the circle into 2s nonempty arcs, and every
    other arc is taken, so intervals and gaps alternate.
    """
    if not 1 <= s <= n // 2:
        raise ValueError(f"cannot place {s} separated intervals on {n} elements")
    cuts = sorted(rng.sample(range(n), 2 * s))
    members: list[int] = []
    for k in range(s):
        members.extend(range(cuts[2 * k] + 1, cuts[2 * k + 1] + 1))
    return members


def _fraction_json(value: Fraction) -> object:
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def tnn_matrix(rng: random.Random, r: int, n: int, dense: bool) -> list[list[object]]:
    """A full-row-rank r x n matrix with every maximal minor nonnegative.

    Starts from [I_r | 0] and applies positive adjacent-column operations:
    adding a positive multiple of a column to its neighbour keeps every
    maximal minor a sum of nonnegative ones. Then each row is scaled by a
    positive 1/q, which scales every minor by a positive factor.

    dense: r left-to-right sweeps over all columns, which makes every
    maximal minor positive (all C(n, r) subsets are bases). Otherwise one
    operation on each adjacent pair, in random order and direction, which
    leaves a sparse matrix with few bases, whose cost is the minor scan.
    Touching every pair once keeps that cost about the same from matrix to
    matrix; operations at random places let it vary threefold.
    """
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(r)]
    if dense:
        steps = [(j, j + 1) for _ in range(r) for j in range(n - 1)]
    else:
        places = list(range(n - 1))
        rng.shuffle(places)
        steps = [(j, j + 1) if rng.random() < 0.5 else (j + 1, j) for j in places]
    for src, dst in steps:
        t = rng.randint(1, 3)
        for row in m:
            row[dst] += t * row[src]
    for row in m:
        q = rng.randint(1, 4)
        row[:] = [v / q for v in row]
    return [[_fraction_json(v) for v in row] for row in m]


def non_tnn_matrix(rng: random.Random, r: int, n: int, dense: bool) -> list[list[object]]:
    """A full-row-rank r x n matrix with at least one negative maximal minor.

    A TNN matrix with one entry negated; the benchmark's own determinant
    scan confirms the negative minor and the full rank before it is used.
    """
    while True:
        rows = tnn_matrix(rng, r, n, dense)
        i, j = rng.randrange(r), rng.randrange(n)
        value = Fraction(rows[i][j])
        if value == 0:
            continue
        rows[i][j] = _fraction_json(-value)
        has_negative, has_nonzero = minors_sign_scan(integer_rows(rows))
        if has_negative and has_nonzero:
            return rows
