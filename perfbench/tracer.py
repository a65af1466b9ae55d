"""Out-of-process tracer for the infinisel layers.

The tracer lives outside the package and changes no file in it. For each
traced function it replaces every module-level binding of that function
object across the loaded ``infinisel.*`` modules, because call sites import
functions by name and patching only the defining module would miss them.
Each call records a span: name, start, end, parent (from a per-thread
stack), thread id and thread CPU time, plus exact counts derived from the
call's arguments and return value. Spans stay in memory until the run
writes them out. A traced function that no longer exists is reported as an
absent layer.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


def _cache_blocks(a) -> str:
    blocks = [name for name, flag in (
        ("mi", a["need_mi_matrix"]), ("spearman", a["need_spearman"]),
        ("relevance", a["need_relevance"]),
    ) if flag]
    return "-".join(blocks) or "std"


def _cache_counts(a, result) -> dict[str, int]:
    m = a["dataset"].m
    pairs = m * (m + 1) // 2
    return {
        "measures.mi_pairs": pairs * bool(a["need_mi_matrix"]) + m * bool(a["need_relevance"]),
        "measures.spearman_pairs": pairs * bool(a["need_spearman"]),
    }


def _mrmr_counts(a, result) -> dict[str, int]:
    # Label relevance for every feature, then after each of the first k-1
    # picks one MI per feature still unselected.
    m, k = a["dataset"].m, a["k"]
    return {"mrmr.mi_evals": m + sum(m - 1 - step for step in range(k - 1))}


def _fit_counts(a, result) -> dict[str, int]:
    epochs = len(result.objective_history) - 1
    return {
        "evaluation.train_linear.epochs": epochs,
        "evaluation.train_linear.cap_hits": int(epochs == a["epochs"]),
    }


def _load_counts(a, result) -> dict[str, int]:
    n, m = result.values.shape
    return {"dataset.load_csv.cells": n * (m + (result.labels is not None))}


@dataclass(frozen=True)
class Layer:
    """A traced function: span ``name``, where it is defined, how to name
    the span's detail and which counts to derive from a call."""

    name: str
    module: str
    attr: str
    counts: Callable | None = None
    detail: Callable | None = None


LAYERS = (
    Layer("dataset.load_csv", "infinisel.dataset", "load_csv", counts=_load_counts),
    Layer("dataset.scale", "infinisel.dataset", "fit_scaler"),
    Layer("dataset.scale", "infinisel.dataset", "FeatureScaler.apply"),
    Layer("dataset.scale", "infinisel.dataset", "preprocess"),
    Layer("measures.cache", "infinisel.measures", "build_measure_cache",
          counts=_cache_counts, detail=_cache_blocks),
    Layer("mrmr.select", "infinisel.mrmr", "mrmr_select", counts=_mrmr_counts),
    Layer("evaluation.train_linear", "infinisel.evaluation", "train_linear", counts=_fit_counts),
    Layer("evaluation.cross_validate", "infinisel.evaluation", "cross_validate"),
    Layer("adjacency.build", "infinisel.adjacency", "build_adjacency"),
    Layer("scoring.spectral_radius", "infinisel.scoring", "spectral_radius"),
    Layer("scoring.energy", "infinisel.scoring", "energy_scores"),
)

# Per-layer metrics with their units, in report order.
METRICS = {
    "dataset.load_csv.s": "s",
    "dataset.load_csv.calls": "count",
    "dataset.load_csv.cells": "count",
    "dataset.scale.s": "s",
    "measures.cache.s": "s",
    "measures.cache.mi.s": "s",
    "measures.cache.spearman.s": "s",
    "measures.cache.spearman-relevance.s": "s",
    "measures.cache.calls": "count",
    "measures.mi_pairs": "count",
    "measures.spearman_pairs": "count",
    "measures.mi_pairs_per_s": "1/s",
    "mrmr.select.s": "s",
    "mrmr.mi_evals": "count",
    "evaluation.train_linear.s": "s",
    "evaluation.train_linear.calls": "count",
    "evaluation.train_linear.epochs": "count",
    "evaluation.train_linear.cap_hits": "count",
    "evaluation.cross_validate.s": "s",
    "adjacency.build.s": "s",
    "adjacency.build.calls": "count",
    "scoring.spectral_radius.s": "s",
    "scoring.spectral_radius.calls": "count",
    "scoring.energy.s": "s",
    "scoring.energy.calls": "count",
    "measures.cache.wait_s": "s",
    "mrmr.select.wait_s": "s",
    "evaluation.train_linear.wait_s": "s",
    "trace.overhead_s": "s",
}
WAIT_LAYERS = ("measures.cache", "mrmr.select", "evaluation.train_linear")


@dataclass
class Span:
    id: int
    name: str
    detail: str | None
    parent: int | None
    thread: int
    pass_index: int
    nested: bool  # inside another span of the same layer
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0
    counts: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return dict(vars(self))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.pass_index = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: Layer, fn):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if layer.counts or layer.detail:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            stack = tracer._stack()
            span = Span(
                next(tracer._ids), layer.name,
                layer.detail(bound.arguments) if layer.detail else None,
                stack[-1].id if stack else None, threading.get_ident(), tracer.pass_index,
                any(s.name == layer.name for s in stack),
            )
            stack.append(span)
            cpu0 = time.thread_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu = time.thread_time() - cpu0
                stack.pop()
                tracer.spans.append(span)
            if layer.counts:
                span.counts = layer.counts(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "infinisel" or name.startswith("infinisel.")
        ]
        for layer in LAYERS:
            owner = sys.modules.get(layer.module)
            *path, attr = layer.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(f"{layer.module}.{layer.attr}")
                continue
            wrapper = self._wrap(layer, original)
            for holder in ([owner] if path else []) + modules:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, name, value))
                        setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, value in reversed(self._undo):
            setattr(holder, name, value)
        self._undo.clear()


def pass_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """(times, counts) summed over the outermost spans of each layer in one
    pass. Counts must repeat exactly between passes; times need not."""
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    for span in spans:
        if span.nested:
            continue
        wall = span.end - span.start
        keys = [span.name] + ([f"{span.name}.{span.detail}"] if span.detail else [])
        for key in keys:
            times[f"{key}.s"] = times.get(f"{key}.s", 0.0) + wall
        if span.name in WAIT_LAYERS:
            key = f"{span.name}.wait_s"
            times[key] = times.get(key, 0.0) + wall - span.cpu
        counts[f"{span.name}.calls"] = counts.get(f"{span.name}.calls", 0) + 1
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value
    mi_spans = [s for s in spans if s.detail == "mi" and not s.nested]
    mi_s = sum(s.end - s.start for s in mi_spans)
    if mi_s > 0.0:
        times["measures.mi_pairs_per_s"] = sum(s.counts["measures.mi_pairs"] for s in mi_spans) / mi_s
    return times, counts


def layer_report(per_pass: list[tuple[dict, dict]], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics: the median over passes of each time, and each
    count (identical in every pass). Layers not exercised read 0."""
    report = {name: 0.0 for name in METRICS}
    for key in {k for times, _ in per_pass for k in times}:
        if key in report:
            report[key] = statistics.median(times.get(key, 0.0) for times, _ in per_pass)
    for key, value in per_pass[0][1].items():
        if key in report:
            report[key] = value
    report["trace.overhead_s"] = overhead_s
    return report
