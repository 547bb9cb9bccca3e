"""Span recording for traced benchmark jobs, and the arithmetic that
turns the recorded spans into per-layer metrics.

A traced job installs a Tracer before it imports the package.  Every
module of the package is instrumented right after it executes, so a
name another module imports by value (``from .gf2 import rank_ints``)
already refers to the wrapper, and the import-time call
``limit_interval(40)`` in ``codes`` is recorded.  A final sweep rebinds
any name that still holds an original.  Spans stay in memory and are
written once, when the job ends.  No file of the package is edited.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import math
import sys
import time
import types
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "hypercube_codes"
LAYERS = ("cli", "codes", "cube", "extremal", "hypergraph", "basisprob", "gf2")

# rank_ints runs about a million times in one layered construction; a span
# per call would cost more than the call.  It is kept as one counter and
# one running total.  Generator functions are counted the same way: a
# span would close before the caller iterates.
COUNTED = frozenset({"gf2.rank_ints"})

# Per-call facts the metrics need, from the bound arguments and result.
INFO = {
    "codes.layer_words": lambda args, result: args["assignment"].weight,
    "codes.layered_basis_code": lambda args, result: len(args["layers"]),
    "cube.max_subcube_count": lambda args, result: [args["code"].n, args["d"]],
    "extremal.max_basis_subsets": lambda args, result: [args["k"], args["d"]],
    "hypergraph.lagrangian": lambda args, result: result.restarts_used,
}

LAYER_WORDS_MAX_R = 18


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span in the same job, or -1
    leaf_s: float    # time of counted calls made directly inside this span
    info: object
    job: str


class Tracer:
    """Wraps the public functions of the package layers for one job."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}
        self._stack: list[int] = []
        self._wrapped: dict = {}
        self._wrappers: set = set()

    def install(self) -> None:
        sys.meta_path.insert(0, _InstrumentingFinder(self))

    def sweep(self) -> None:
        """Rebind originals left in any loaded module of the package."""
        for name, module in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                self.instrument(module)

    def instrument(self, module) -> None:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType) \
                    or value in self._wrappers:
                continue
            package, _, layer = value.__module__.rpartition(".")
            if package != PACKAGE or layer not in LAYERS:
                continue
            wrapper = self._wrapped.get(value)
            if wrapper is None:
                wrapper = self._wrap(value, f"{layer}.{value.__name__}")
            setattr(module, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job, "spans": self.spans,
                       "counters": self.counters}, fh)

    def _wrap(self, fn, name: str):
        if name in COUNTED or inspect.isgeneratorfunction(fn):
            wrapper = self._counting(fn, name)
        else:
            wrapper = self._spanning(fn, name)
        functools.update_wrapper(wrapper, fn)
        self._wrapped[fn] = wrapper
        self._wrappers.add(wrapper)
        return wrapper

    def _spanning(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = INFO.get(name)
        signature = inspect.signature(fn) if info else None

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[5] = info(bound.arguments, result)
            return result
        return wrapper

    def _counting(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tally = self.counters.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tally[0] += 1
                tally[1] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed
        return wrapper


class _InstrumentingFinder(importlib.abc.MetaPathFinder):
    """Finds package modules as usual and instruments each one as soon
    as its body has run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if not name.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_instrument(module):
            exec_module(module)
            self.tracer.instrument(module)
        spec.loader.exec_module = exec_and_instrument
        return spec


def load_trace(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    job = data["job"]
    return {"job": job,
            "spans": [Span(*record, job) for record in data["spans"]],
            "counters": data["counters"]}


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the part of [lo, hi] covered by the union of intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    child spans cover, minus counted calls made directly inside it."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered(s.start, s.end, kids) - s.leaf_s
            for s, kids in zip(spans, children)]


def outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in `names` with no ancestor named in `names`, so that
    nested calls are not counted twice."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one workload from the traces of its jobs.
    The metrics measured outside the spans (cli.import_s,
    cli.numpy_import_s, trace.overhead_s) are added by the caller."""
    def time_in(*names):
        return sum(s.end - s.start for t in traces
                   for s in outermost(t["spans"], set(names)))

    def named(name):
        return [s for t in traces for s in t["spans"] if s.name == name]

    def ratio(num, den):
        return num / den if den else 0.0

    own = defaultdict(float)
    for t in traces:
        for s, seconds in zip(t["spans"], self_times(t["spans"])):
            own[s.name.partition(".")[0]] += seconds
        for name, (_, seconds) in t["counters"].items():
            own[name.partition(".")[0]] += seconds
    m = {f"{layer}.self_s": own[layer] for layer in LAYERS}

    draws = named("codes.layer_words")
    per_r = defaultdict(float)
    for s in draws:
        per_r[s.info] += s.end - s.start
    m["codes.layered_s"] = time_in("codes.layered_basis_code")
    for r in range(1, LAYER_WORDS_MAX_R + 1):
        m[f"codes.layer_words_s.r{r}"] = per_r[r]
    m["codes.layer_draws"] = len(draws)
    kept = sum(s.info for s in named("codes.layered_basis_code"))
    m["codes.layer_keep_ratio"] = ratio(kept, len(draws))
    m["codes.residue_s"] = time_in("codes.best_residue_subcode")
    m["codes.save_s"] = time_in("codes.save_code")
    m["codes.load_s"] = time_in("codes.load_code")
    m["codes.hitting_set_s"] = time_in("codes.subcube_hitting_set")

    calls, seconds = 0, 0.0
    for t in traces:
        c, s = t["counters"].get("gf2.rank_ints", (0, 0.0))
        calls += c
        seconds += s
    m["gf2.rank_calls"] = calls
    m["gf2.rank_s"] = seconds

    scanned = sum(math.comb(n, d) << (n - d)
                  for n, d in (s.info for s in named("cube.max_subcube_count")))
    m["cube.scan_s"] = time_in("cube.max_subcube_count")
    m["cube.subcubes_scanned"] = scanned
    m["cube.subcubes_per_s"] = ratio(scanned, m["cube.scan_s"])
    m["cube.hitting_s"] = time_in("cube.verify_hitting")
    m["cube.search_s"] = time_in("cube.max_code_search")

    subset_calls = 0
    distinct = 0
    for t in traces:
        pairs = [tuple(s.info) for s in t["spans"]
                 if s.name == "extremal.max_basis_subsets"]
        subset_calls += len(pairs)
        distinct += len(set(pairs))
    m["extremal.basis_subsets_s"] = time_in("extremal.max_basis_subsets")
    m["extremal.basis_subsets_calls"] = subset_calls
    m["extremal.basis_subsets_distinct_ratio"] = ratio(distinct, subset_calls)
    m["extremal.partition_s"] = time_in("extremal.max_partition_product_sum")
    m["extremal.bounds_table_s"] = time_in("extremal.list_size_bounds_table")

    m["hypergraph.basis_build_s"] = time_in("hypergraph.basis_hypergraph")
    m["hypergraph.lagrangian_s"] = time_in("hypergraph.lagrangian")
    m["hypergraph.lagrangian_restarts"] = sum(
        s.info for s in named("hypergraph.lagrangian"))

    m["basisprob.s"] = time_in("basisprob.uniform_basis_probability",
                               "basisprob.limit_interval",
                               "basisprob.limit_constant")
    return m
