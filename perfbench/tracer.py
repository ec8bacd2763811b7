"""Spans around the package's public functions, installed from outside.

`patch` replaces each listed function at every attribute of the package's
modules that binds it (so `morph.rank_dp` and `rank.rank_dp` both go
through the wrapper and calls between layers nest), and puts the originals
back on `restore()`. A listed name the package no longer binds is reported
in `missing` with the reason, never silently measured as zero.

Two wrapper factories use that mechanism: `Tracer` times nested spans
(calls, inclusive busy time, self time = busy minus child spans, plus a
bounded log of raw spans with parent ids), and `MemoryProbe` records the
tracemalloc peak of calls made directly by the benchmark.
"""

from __future__ import annotations

import importlib
import itertools
import pkgutil
import time
import tracemalloc
from typing import Callable

PACKAGE = "positroids"

# (module, attribute) for every traced function; "Class.method" names a method
TRACED = (
    ("cyclic", "decompose"),
    ("cyclic", "position"),
    ("positroid", "Positroid.from_oneline"),
    ("positroid", "Positroid.from_necklace"),
    ("positroid", "necklace_of"),
    ("positroid", "permutation_of"),
    ("positroid", "Positroid.is_basis"),
    ("positroid", "reduce"),
    ("positroid", "enumerate_bases"),
    ("rank", "arrow_table"),
    ("rank", "rank"),
    ("rank", "rank_dp"),
    ("morph", "witness_basis"),
    ("morph", "morph_sequence"),
    ("morph", "align_basis"),
    ("realize", "positroid_from_matrix"),
    ("realize", "matroid_from_matrix"),
    ("realize", "first_negative_minor"),
    ("realize", "maximal_minor"),
    ("realize", "necklace_from_bases"),
    ("realize", "row_rank"),
    ("repro", "run_all"),
)

# functions the workloads call directly; only these get a memory peak
DIRECT = (
    ("positroid", "Positroid.from_oneline"),
    ("positroid", "Positroid.from_necklace"),
    ("rank", "rank"),
    ("rank", "rank_dp"),
    ("morph", "witness_basis"),
    ("realize", "positroid_from_matrix"),
)

CLI_MAIN = ("cli", "main")

# raw span records kept for the trace file; aggregates never stop counting
MAX_SPANS = 20_000


def metric_name(target: tuple[str, str]) -> str:
    module, attr = target
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def package_modules() -> list:
    package = importlib.import_module(PACKAGE)
    names = [f"{PACKAGE}.{info.name}" for info in pkgutil.iter_modules(package.__path__)]
    return [package] + [importlib.import_module(name) for name in sorted(names)]


class Patch:
    """Wrappers installed for a set of targets; `restore()` undoes them."""

    def __init__(self, targets, factory: Callable[[str, Callable], Callable]):
        self.missing: dict[str, str] = {}
        self._undo: list[tuple[object, str, object]] = []
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in package_modules()}
        try:
            for target in targets:
                self._install(modules, target, factory)
        except BaseException:
            self.restore()
            raise

    def _install(self, modules: dict, target: tuple[str, str], factory) -> None:
        name = metric_name(target)
        module_name, attr = target
        module = modules.get(module_name)
        if module is None:
            self.missing[name] = f"{PACKAGE}.{module_name} does not exist"
            return
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or method not in vars(cls):
                self.missing[name] = f"{PACKAGE}.{module_name}.{attr} is not defined"
                return
            original = vars(cls)[method]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(factory(name, original.__func__))
            else:
                wrapped = factory(name, original)
            self._set(cls, method, wrapped)
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing[name] = f"{PACKAGE}.{module_name} does not bind {attr}"
            return
        wrapped = factory(name, original)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def _set(self, owner: object, key: str, value: object) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


class Tracer:
    """Nested timing spans, aggregated per name as they close."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.totals: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.dropped_spans = 0
        self._active: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, child time, id]
        self._ids = itertools.count(1)

    def self_total(self) -> float:
        """Self time of every span closed so far; with no span open, their wall time."""
        return sum(t[2] for t in self.totals.values())

    def factory(self, name: str, fn: Callable) -> Callable:
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        active, stack, clock = self._active, self._stack, self.clock
        active.setdefault(name, 0)

        def span(*args, **kwargs):
            parent = stack[-1][3] if stack else 0
            frame = [name, 0.0, 0.0, next(self._ids)]
            stack.append(frame)
            active[name] += 1
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                totals[0] += 1
                totals[2] += duration - frame[2]
                active[name] -= 1
                if not active[name]:  # recursion: busy counts the outermost call
                    totals[1] += duration
                if stack:
                    stack[-1][2] += duration
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[3], parent, name, frame[1], end))
                else:
                    self.dropped_spans += 1

        span.__wrapped__ = fn
        return span


class MemoryProbe:
    """tracemalloc peak above the starting level, per outermost direct call."""

    def __init__(self) -> None:
        self.peaks_kb: dict[str, float] = {}
        self._depth = 0

    def factory(self, name: str, fn: Callable) -> Callable:
        self.peaks_kb.setdefault(name, 0.0)

        def probe(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 1024
                self.peaks_kb[name] = max(self.peaks_kb[name], peak)
                self._depth -= 1

        probe.__wrapped__ = fn
        return probe
