"""One benchmark pass in a fresh process; prints its result as one JSON line.

    python3 perfbench/worker.py '{"mode": ..., "workload": ..., "seed": ..., "pass": ...}'

Modes:
  bench   untraced closed loop: per-op latencies, set-up, peak RSS, and the
          time of fixed reference work run between the ops
  trace   the same loop with spans around the package's public functions
  memory  tracemalloc peak of every call the workload makes directly
  sweep   the baseline sizes, untraced (min of k), traced and under tracemalloc

run.py starts it with PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import gc
import json
import logging
import math
import resource
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import gen
import tracer
from workloads import WORKLOADS, import_probe

ROOT = Path(__file__).resolve().parent.parent
WITNESS_LABELS = ("witness", "rank_witness")
# reference_work() runs between ops at most this often, and this often after them
REF_EVERY_S = 0.02
REF_FINAL = 5
# an op's host speed is the median of this many reference runs nearest to it
REF_NEAREST = 5
# reported times are scaled to a host on which reference_work(), run between
# ops, takes this long (about its median on an unloaded 2-vCPU x86-64 VM)
REF_NOMINAL_S = 0.0015

# ROADMAP baseline sizes: case -> (call, size, untraced runs k, traced count reported)
SWEEP = {
    "from_oneline_n100": ("from_oneline", (100,), 3, "cyclic.position"),
    "from_oneline_n400": ("from_oneline", (400,), 3, "cyclic.position"),
    "rank_dp_n400_s107": ("rank_dp", (400, 107), 3, None),
    "rank_n30_s10": ("rank", (30, 10), 3, None),
    "rank_n30_s12": ("rank", (30, 12), 1, None),
    "from_matrix_4x12": ("positroid_from_matrix", (4, 12), 3, "realize.maximal_minor"),
    "from_matrix_5x16": ("positroid_from_matrix", (5, 16), 3, "realize.maximal_minor"),
}


def reference_work() -> int:
    """Fixed pure-Python work that never touches the package: dict and
    frozenset churn, exact fractions, a sort. Its time, taken between the
    ops, tracks the speed the shared host gives this process."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(1500):
        key = (i * 7919) % 211
        counts[key] = counts.get(key, 0) + i
        acc += len(frozenset((key, i & 15)))
    rows = [[Fraction((i + 1) ** (j + 1) + i * j, j + 2) for j in range(6)] for i in range(6)]
    for k in range(5):
        for i in range(k + 1, 6):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return acc + len(sorted((v % 17, v, str(v)) for v in counts.values()))


def _timed_reference(clock) -> tuple[float, float]:
    t0 = clock()
    reference_work()
    return t0, clock() - t0


def run_ops(ops, reference: bool = False) -> tuple[list, list[float], float, float, list[float] | None]:
    """Closed loop over the ops: (outcomes, latencies, first-op monotonic time,
    wall, per-op reference time).

    With `reference`, reference_work() runs before an op whenever REF_EVERY_S
    has passed since it last ran, and REF_FINAL more times after the loop.
    Its runs are timed on their own and left out of the wall time. Each op
    gets the median time of the REF_NEAREST runs closest to its midpoint: the
    host's speed while it ran. Without `reference` that list is None."""
    clock = time.perf_counter
    outcomes, latencies, midpoints = [], [], []
    refs: list[tuple[float, float]] = []  # (start, seconds)
    last_ref = -math.inf
    first = time.monotonic()
    start = clock()
    for _, fn in ops:
        if reference and clock() - last_ref >= REF_EVERY_S:
            refs.append(_timed_reference(clock))
            last_ref = clock()
        t0 = clock()
        try:
            outcome = ("ok", fn())
        except Exception as exc:  # a crash is a failed op, the loop goes on
            outcome = ("error", exc)
        latencies.append(clock() - t0)
        midpoints.append(t0 + latencies[-1] / 2)
        outcomes.append(outcome)
    wall = clock() - start - sum(seconds for _, seconds in refs)
    if not reference:
        return outcomes, latencies, first, wall, None
    refs += [_timed_reference(clock) for _ in range(REF_FINAL)]
    local = []
    for mid in midpoints:
        nearest = sorted(refs, key=lambda ref: abs(ref[0] - mid))[:REF_NEAREST]
        local.append(statistics.median(seconds for _, seconds in nearest))
    return outcomes, latencies, first, wall, local


def failures(verdicts: list) -> list[str]:
    return [v for v in verdicts if v is not None]


def bench(spec: dict, workdir: Path) -> dict:
    wl = WORKLOADS[spec["workload"]]
    t0 = time.monotonic()
    inputs = wl.generate(spec["seed"], spec["pass"])
    gen_s = time.monotonic() - t0
    ops, built = wl.build(inputs, spec.get("in_process", False), workdir)
    outcomes, latencies, first, wall, op_refs = run_ops(ops, reference=True)
    setup_ref_s = op_refs[0]
    if getattr(wl, "subprocess_ops", False):
        rss_mb = max((o[1][2] for o in outcomes if o[0] == "ok"), default=0.0)
        # set-up is the interpreter start and import every CLI call pays
        probes = [(_timed_reference(time.perf_counter)[1], import_probe(ROOT)) for _ in range(5)]
        setup_ref_s = statistics.median(ref for ref, _ in probes)
        setup_s = statistics.median(probe for _, probe in probes)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = None
    return {
        "first_op": first,
        "gen_s": gen_s,
        "setup_s": setup_s,
        "latencies": latencies,
        "wall_s": wall,
        "rss_mb": rss_mb,
        "op_ref_s": op_refs,
        "setup_ref_s": setup_ref_s,
        "attempted": len(ops),
        "failures": failures(wl.check(inputs, built, outcomes)),
    }


class _CountWarnings(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def trace(spec: dict, workdir: Path) -> dict:
    """Spans cover building the inputs' objects and the ops; the check runs after.

    The loop's own time, between one op's return and the next op's call, is
    timed directly, so loop wall = self time of the spans in the loop + that
    time + program time that ran outside every span."""
    wl = WORKLOADS[spec["workload"]]
    inputs = wl.generate(spec["seed"], spec["pass"])
    tr = tracer.Tracer()
    warnings = _CountWarnings()
    morph_log = logging.getLogger(f"{tracer.PACKAGE}.morph")
    morph_log.addHandler(warnings)
    patch = tracer.Patch(tracer.TRACED + (tracer.CLI_MAIN,), tr.factory)
    main_busy: dict[str, float] = {}
    witness_ops = witness_is_basis = 0  # and the is_basis calls those ops made
    try:
        start = tr.clock()
        ops, built = wl.build(inputs, True, workdir)
        ops_start = tr.clock()
        build_self = tr.self_total()
        outcomes = []
        cli_totals = tr.totals.setdefault(tracer.metric_name(tracer.CLI_MAIN), [0, 0.0, 0.0])
        basis_totals = tr.totals.setdefault("positroid.is_basis", [0, 0.0, 0.0])
        loop_s = 0.0
        returned = tr.clock()
        for label, fn in ops:
            busy_before, calls_before = cli_totals[1], basis_totals[0]
            called = tr.clock()
            loop_s += called - returned
            try:
                outcomes.append(("ok", fn()))
            except Exception as exc:  # a crash is a failed op, the loop goes on
                outcomes.append(("error", exc))
            returned = tr.clock()
            main_busy[label] = main_busy.get(label, 0.0) + cli_totals[1] - busy_before
            if label in WITNESS_LABELS:
                witness_ops += 1
                witness_is_basis += basis_totals[0] - calls_before
        end = tr.clock()
        loop_s += end - returned
    finally:
        patch.restore()
        morph_log.removeHandler(warnings)
    bad = failures(wl.check(inputs, built, outcomes))
    (workdir / "spans.json").write_text(json.dumps({
        "workload": wl.name,
        "seed": spec["seed"],
        "totals": tr.totals,
        "missing": patch.missing,
        "dropped_spans": tr.dropped_spans,
        "spans": tr.spans,
    }))
    return {
        "totals": tr.totals,
        "missing": patch.missing,
        "build_s": ops_start - start,
        "build_self_s": build_self,
        "ops_wall_s": end - ops_start,
        "ops_self_s": tr.self_total() - build_self,
        "loop_s": loop_s,
        "main_busy": main_busy,
        "witness_ops": witness_ops,
        "witness_is_basis": witness_is_basis,
        "fallback_warnings": warnings.count,
        "attempted": len(ops),
        "failures": bad,
        "subsets": getattr(wl, "subsets", lambda _: 0)(inputs),
    }


def memory(spec: dict, workdir: Path) -> dict:
    wl = WORKLOADS[spec["workload"]]
    inputs = wl.generate(spec["seed"], spec["pass"])
    probe = tracer.MemoryProbe()
    patch = tracer.Patch(tracer.DIRECT, probe.factory)
    tracemalloc.start()
    try:  # probes go in before build, whose closures bind the functions
        ops, built = wl.build(inputs, True, workdir)
        outcomes = run_ops(ops)[0]
    finally:
        tracemalloc.stop()
        patch.restore()
    return {
        "peaks_kb": probe.peaks_kb,
        "missing": patch.missing,
        "attempted": len(ops),
        "failures": failures(wl.check(inputs, built, outcomes)),
    }


def sweep(spec: dict, workdir: Path) -> dict:
    """ROADMAP baseline sizes: seconds (min of k distinct inputs), peak and spans."""
    import positroids as pkg

    rng = gen.rng_for("sweep", spec["seed"], 0)

    def make(call: str, size: tuple):
        """A fresh input each time, so no cache is warm. The function is looked
        up when called, so the traced run sees the wrapped one."""
        if call == "from_oneline":
            images = gen.decorated_permutation(rng, size[0], 0.0)["pi"]
            return lambda: pkg.Positroid.from_oneline(images)
        if call == "positroid_from_matrix":
            A = pkg.RationalMatrix.from_json(gen.tnn_matrix(rng, *size, False))
            return lambda: pkg.positroid_from_matrix(A)
        n, s = size
        P = pkg.Positroid.from_oneline(gen.decorated_permutation(rng, n, 0.0)["pi"])
        E = frozenset(gen.query_set(rng, n, s))
        return lambda: getattr(pkg, call)(P, E)

    out = {}
    for name, (call_name, size, k, _) in SWEEP.items():
        times = []
        for _ in range(k):
            call = make(call_name, size)
            gc.collect()
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        call = make(call_name, size)
        tracemalloc.start()
        t = tracemalloc.get_traced_memory()[0]
        call()
        peak_kb = (tracemalloc.get_traced_memory()[1] - t) / 1024
        tracemalloc.stop()
        call = make(call_name, size)
        tr = tracer.Tracer()
        patch = tracer.Patch(tracer.TRACED, tr.factory)
        try:
            call()
        finally:
            patch.restore()
        out[name] = {"s": min(times), "peak_kb": peak_kb, "totals": tr.totals, "missing": patch.missing}
    return out


MODES = {"bench": bench, "trace": trace, "memory": memory, "sweep": sweep}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import positroids

    src = (ROOT / "src").resolve()
    if src not in Path(positroids.__file__).resolve().parents:
        print(f"positroids imported from {positroids.__file__}, not from {src}", file=sys.stderr)
        return 2
    workdir = Path(spec["workdir"])
    print(json.dumps(MODES[spec["mode"]](spec, workdir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
