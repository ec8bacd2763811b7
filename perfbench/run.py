"""Benchmark of the positroids package, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the workload untraced. Its inputs come in passes drawn
from (seed, pass index); every pass runs REPEATS times, each time in a fresh
worker process (perfbench/worker.py), interleaved with the other passes,
and every op keeps its fastest time. The number of passes follows from
--seconds, so the sample count, and with it the tail percentile, is fixed
for a given --seconds. Every time is scaled by the host's speed, measured in
the same worker with fixed reference work between the ops (see
bench_metrics). It prints the end-to-end metrics.

--trace 1 runs pass 0 untraced, traced and under tracemalloc, plus the
baseline-size sweep, and prints the per-layer metrics. A metric whose
function the package no longer defines is printed with value null and the
reason under "missing". Spans go to .perfbench/trace-<workload>-<seed>.json.

Every outcome is checked against the benchmark's own oracle, and the last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
from worker import REF_NOMINAL_S, SWEEP
from workloads import WORKLOADS, import_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
# a run must end within 180 s; a worker that would pass this is killed
BUDGET_S = 170.0
REPEATS = 2

CLI_LABELS = ("rank_witness", "rank", "from-matrix", "necklace", "check", "repro")


def end_to_end_metrics() -> list[tuple[str, str]]:
    return [
        ("setup_s", "s"),
        ("throughput_ops_s", "1/s"),
        ("latency_p50_ms", "ms"),
        ("latency_tail_ms", "ms"),
        ("peak_rss_mb", "MB"),
        ("ok_ratio", "ratio"),
    ]


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for target in tracer.TRACED:
        name = tracer.metric_name(target)
        out += [(f"{name}.calls", "count"), (f"{name}.busy_s", "s"), (f"{name}.self_s", "s")]
    out += [(f"{tracer.metric_name(t)}.peak_kb", "KiB") for t in tracer.DIRECT]
    out += [("cli.import_s", "s"), ("cli.main.self_s", "s")]
    out += [(f"cli.main.{label}.busy_s", "s") for label in CLI_LABELS]
    out += [
        ("realize.maximal_minor.per_subset", "ratio"),
        ("positroid.is_basis.per_witness", "ratio"),
        ("morph.witness_basis.fallback_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.loop_s", "s"),
        ("trace.accounted_ratio", "ratio"),
        ("trace.build_s", "s"),
        ("trace.build_traced_ratio", "ratio"),
    ]
    for case, (_, _, _, counted) in SWEEP.items():
        out += [(f"sweep.{case}.s", "s"), (f"sweep.{case}.peak_kb", "KiB")]
        if counted:
            out.append((f"sweep.{case}.{counted.split('.')[1]}_calls", "count"))
    return out


def passes_for(workload: str, seconds: int) -> int:
    """Distinct input sets per run; each is run REPEATS times. A workload's
    pass_seconds is one worker's whole time for a pass on an unloaded host:
    start, build, ops and check."""
    return max(2, round(seconds / (REPEATS * WORKLOADS[workload].pass_seconds)))


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least 10 of `count` samples above it."""
    return max(q for q in range(1, 100) if count - math.ceil(q * count / 100) >= 10)


def nearest_rank(values: list[float], q: int) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered) / 100) - 1]


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + BUDGET_S
        OUT_DIR.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
        self.attempted = 0
        self.failures: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def spawn(self, mode: str, pass_index: int = 0, in_process: bool = False) -> tuple[dict, float]:
        """Run one worker; returns its result and the monotonic time it was started.

        `in_process` makes the CLI workload call main() in the worker instead
        of starting processes."""
        spec = {"mode": mode, "workload": self.workload, "seed": self.seed, "pass": pass_index,
                "workdir": str(self.workdir), "in_process": in_process}
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, self.deadline - started),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if "attempted" in result:
            self.attempted += result["attempted"]
            self.failures += result["failures"]
        return result, started


def bench_metrics(run: Runner, seconds: int) -> dict:
    """Each pass runs REPEATS times, interleaved with the other passes; every
    op keeps its fastest time, since on a shared host interference only ever
    adds time.

    Every time is first divided by the host's slowdown while it ran: the time
    of the benchmark's fixed reference work, run between the worker's ops
    (see worker.run_ops), over REF_NOMINAL_S. The host's speed drifts by a
    third within seconds, and the package's code slows with it; the slowdown
    taken in the same process at the same moment removes most of that drift."""
    passes = passes_for(run.workload, seconds)
    setups = [[] for _ in range(passes)]
    walls = [[] for _ in range(passes)]
    rss = [[] for _ in range(passes)]
    fastest: list[list[float] | None] = [None] * passes
    for _ in range(REPEATS):
        for k in range(passes):
            res, started = run.spawn("bench", k)
            latencies = [t * REF_NOMINAL_S / ref for t, ref in zip(res["latencies"], res["op_ref_s"])]
            setup = res["setup_s"]
            if setup is None:
                setup = res["first_op"] - started - res["gen_s"]
            setups[k].append(setup * REF_NOMINAL_S / res["setup_ref_s"])
            walls[k].append(res["wall_s"] * sum(latencies) / sum(res["latencies"]))
            rss[k].append(res["rss_mb"])
            fastest[k] = latencies if fastest[k] is None else list(map(min, fastest[k], latencies))
    latencies = [t for per_pass in fastest for t in per_pass]
    failed = len(run.failures)
    return {
        "setup_s": statistics.median(min(s) for s in setups),
        "throughput_ops_s": len(latencies) / sum(min(w) for w in walls),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": nearest_rank(latencies, tail_percentile(len(latencies))) * 1000,
        "peak_rss_mb": statistics.median(statistics.median(r) for r in rss),
        "ok_ratio": 1 - failed / run.attempted,
    }


def accounted_ratio(traced: dict) -> float:
    """(self time of the spans in the op loop + the loop's own time) / loop wall.

    Both parts are measured, so program time that runs outside every traced
    function, and tracing cost outside the spans, pull it below 1."""
    return (traced["ops_self_s"] + traced["loop_s"]) / traced["ops_wall_s"]


def trace_metrics(run: Runner) -> tuple[dict, dict]:
    """Per-layer values, and the reason for every metric reported as missing."""
    untraced, _ = run.spawn("bench", 0, in_process=True)
    traced, _ = run.spawn("trace", 0)
    peaks, _ = run.spawn("memory", 0)
    sweep, _ = run.spawn("sweep")

    values: dict[str, float] = {}
    missing: dict[str, str] = {}
    totals = traced["totals"]
    for target in tracer.TRACED:
        name = tracer.metric_name(target)
        for i, suffix in enumerate(("calls", "busy_s", "self_s")):
            if name in traced["missing"]:
                missing[f"{name}.{suffix}"] = traced["missing"][name]
            else:
                values[f"{name}.{suffix}"] = totals.get(name, [0, 0.0, 0.0])[i]
    for target in tracer.DIRECT:
        name = tracer.metric_name(target)
        if name in peaks["missing"]:
            missing[f"{name}.peak_kb"] = peaks["missing"][name]
        else:
            values[f"{name}.peak_kb"] = peaks["peaks_kb"][name]

    values["cli.import_s"] = statistics.median(import_probe(ROOT) for _ in range(3))
    main_name = tracer.metric_name(tracer.CLI_MAIN)
    if main_name in traced["missing"]:
        missing["cli.main.self_s"] = traced["missing"][main_name]
    values["cli.main.self_s"] = totals.get(main_name, [0, 0.0, 0.0])[2]
    for label in CLI_LABELS:
        values[f"cli.main.{label}.busy_s"] = traced["main_busy"].get(label, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def calls(name: str) -> int:
        return totals.get(name, [0])[0]

    witnesses = traced["witness_ops"]
    values["realize.maximal_minor.per_subset"] = ratio(calls("realize.maximal_minor"), traced["subsets"])
    values["positroid.is_basis.per_witness"] = ratio(traced["witness_is_basis"], witnesses)
    values["morph.witness_basis.fallback_ratio"] = ratio(traced["fallback_warnings"], witnesses)
    values["trace.overhead_ratio"] = traced["ops_wall_s"] / untraced["wall_s"]
    values["trace.wall_s"] = traced["ops_wall_s"]
    values["trace.loop_s"] = traced["loop_s"]
    values["trace.accounted_ratio"] = accounted_ratio(traced)
    values["trace.build_s"] = traced["build_s"]
    values["trace.build_traced_ratio"] = ratio(traced["build_self_s"], traced["build_s"])

    for case, (_, _, _, counted) in SWEEP.items():
        values[f"sweep.{case}.s"] = sweep[case]["s"]
        values[f"sweep.{case}.peak_kb"] = sweep[case]["peak_kb"]
        if counted:
            metric = f"sweep.{case}.{counted.split('.')[1]}_calls"
            if counted in sweep[case]["missing"]:
                missing[metric] = sweep[case]["missing"][counted]
            else:
                values[metric] = sweep[case]["totals"].get(counted, [0])[0]
    log = json.loads((run.workdir / "spans.json").read_text())
    log["sweep"] = sweep
    (OUT_DIR / f"trace-{run.workload}-{run.seed}.json").write_text(json.dumps(log))
    return values, missing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "positroids" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'positroids'}", file=sys.stderr)
        return 2
    # workers and the processes they start share one CPU, so the reference
    # work between ops runs where the ops run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Runner(args.workload, args.seed)
    try:
        if args.trace:
            values, missing = trace_metrics(run)
            units = per_layer_metrics()
        else:
            values, missing = bench_metrics(run, args.seconds), {}
            units = end_to_end_metrics()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()

    for failure in run.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    metrics = {}
    for name, unit in units:
        if name in missing:
            metrics[name] = {"value": None, "unit": unit, "missing": missing[name]}
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
