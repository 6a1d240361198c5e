"""Span recorder that instruments tuckervar from outside the package.

A span is made by wrapping one public function on every module attribute
that binds it: ``fit.py`` binds ``nnm_estimate`` and ``solve`` by name and
``solver.py`` binds ``unfold`` and ``procrustes``, so patching only the
defining module would miss those calls. Each span records its name, start,
end and parent; all spans of one operation share the operation's id. Spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# layer (the defining module) -> public functions wrapped; a span is named
# "<layer>.<function>".
TARGETS = {
    "tensor": ("unfold", "fold", "mode_product", "kronecker", "tucker_reconstruct"),
    "var": ("build_design", "predict_one_step", "simulate", "mse"),
    "initialization": ("nnm_estimate", "svt", "select_ranks", "hosvd", "build_laplacians"),
    "solver": (
        "solve",
        "palm_step",
        "compute_step_sizes",
        "prox_core",
        "procrustes",
        "update_u",
        "objective",
        "convergence_metrics",
    ),
    "fit": ("fit_design", "fit_panel"),
    "storage": (
        "read_panel_csv",
        "write_panel_csv",
        "atomic_write_text",
        "save_model",
        "load_model",
        "save_diagnostics",
    ),
    "benchmark": ("make_scenario", "error_curve", "rolling_eval"),
}

# fields of a return value kept on its span
_ATTRS = {
    "initialization.nnm_estimate": lambda r: {"iterations": r.iterations, "converged": r.converged},
    "solver.solve": lambda r: {"iterations": r.iterations},
}


class Tracer:
    """Collects spans while an operation is being recorded; a no-op otherwise."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [op, name, start, end, parent index, attrs]
        self._stack: list[int] = []
        self.op: int | None = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [self.op, name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if self.op is None:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def recording(self, op: int):
        """Record every span opened inside the block under operation ``op``."""
        self.op = op
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None

    def wrap(self, name: str, fn):
        extract = _ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extract is not None:
                span[5] = extract(result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for op, name, start, end, parent, attrs in self.spans:
                record = {"op": op, "name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")


def instrument(tracer: Tracer, modules: list) -> callable:
    """Wrap every binding of each function in :data:`TARGETS` across
    ``modules``; returns a function that puts the originals back."""
    by_layer = {module.__name__.rpartition(".")[2]: module for module in modules}
    patched = []
    for layer, names in TARGETS.items():
        for fname in names:
            original = getattr(by_layer[layer], fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))

    def restore() -> None:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)

    return restore


class OpSummary:
    """Per-name totals of one operation's spans."""

    def __init__(self) -> None:
        self.total = defaultdict(float)  # inclusive seconds
        self.self_time = defaultdict(float)  # seconds not covered by child spans
        self.calls = defaultdict(int)
        self.durations = defaultdict(list)
        self.attrs = defaultdict(list)
        self.child_calls = defaultdict(int)  # (parent name, child name) -> calls


def summarize(spans: list[list]) -> dict[int, OpSummary]:
    """Group spans by operation; a span's self time is its duration minus the
    durations of its direct children."""
    covered = [0.0] * len(spans)
    for op, name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[int, OpSummary] = defaultdict(OpSummary)
    for index, (op, name, start, end, parent, attrs) in enumerate(spans):
        s = out[op]
        duration = end - start
        s.total[name] += duration
        s.self_time[name] += duration - covered[index]
        s.calls[name] += 1
        s.durations[name].append(duration)
        if attrs:
            s.attrs[name].append(attrs)
        if parent >= 0:
            s.child_calls[(spans[parent][1], name)] += 1
    return dict(out)


def _attr_sum(key: str, span: str):
    return lambda s: float(sum(a[key] for a in s.attrs[span]))


def _attr_mean(key: str, span: str):
    return lambda s: (
        float(statistics.fmean(a[key] for a in s.attrs[span])) if s.attrs[span] else 0.0
    )


def _total(span: str):
    return lambda s: s.total[span]


def _self(span: str):
    return lambda s: s.self_time[span]


def _calls(span: str):
    return lambda s: float(s.calls[span])


def _median_ms(span: str):
    return lambda s: 1e3 * statistics.median(s.durations[span]) if s.durations[span] else 0.0


CLI_SUBCOMMANDS = ("simulate", "fit", "forecast", "eval", "rank_select", "bench")

# per-layer metric -> (unit, value of one traced operation)
PER_LAYER = {
    "fit.fit_panel_s": ("s", _total("fit.fit_panel")),
    "initialization.nnm_s": ("s", _total("initialization.nnm_estimate")),
    "initialization.nnm_iters": ("count", _attr_sum("iterations", "initialization.nnm_estimate")),
    "initialization.nnm_converged_frac": (
        "fraction",
        _attr_mean("converged", "initialization.nnm_estimate"),
    ),
    "initialization.svt_calls": ("count", _calls("initialization.svt")),
    "initialization.svt_s": ("s", _total("initialization.svt")),
    "initialization.nnm_self_s": ("s", _self("initialization.nnm_estimate")),
    "initialization.select_ranks_s": ("s", _total("initialization.select_ranks")),
    "initialization.hosvd_s": ("s", _total("initialization.hosvd")),
    "initialization.build_laplacians_s": ("s", _total("initialization.build_laplacians")),
    "solver.solve_s": ("s", _total("solver.solve")),
    "solver.sweeps": ("count", _attr_sum("iterations", "solver.solve")),
    "solver.sweep_ms": ("ms", _median_ms("solver.palm_step")),
    "solver.step_sizes_s": ("s", _total("solver.compute_step_sizes")),
    "solver.prox_core_s": ("s", _total("solver.prox_core")),
    "solver.procrustes_s": ("s", _total("solver.procrustes")),
    "solver.update_u_s": ("s", _total("solver.update_u")),
    "solver.gradient_self_s": ("s", _self("solver.palm_step")),
    "solver.objective_s": ("s", _total("solver.objective")),
    "solver.objective_calls": ("count", _calls("solver.objective")),
    "solver.convergence_metrics_s": ("s", _total("solver.convergence_metrics")),
    "tensor.unfold_calls": ("count", _calls("tensor.unfold")),
    "tensor.fold_calls": ("count", _calls("tensor.fold")),
    "tensor.mode_product_calls": ("count", _calls("tensor.mode_product")),
    "tensor.kronecker_calls": ("count", _calls("tensor.kronecker")),
    "tensor.unfold_s": ("s", _total("tensor.unfold")),
    "tensor.fold_s": ("s", _total("tensor.fold")),
    "var.simulate_s": ("s", _total("var.simulate")),
    "var.build_design_s": ("s", _total("var.build_design")),
    "var.predict_one_step_calls": ("count", _calls("var.predict_one_step")),
    "var.predict_one_step_s": ("s", _total("var.predict_one_step")),
    "storage.read_panel_csv_s": ("s", _total("storage.read_panel_csv")),
    "storage.read_panel_csv_calls": ("count", _calls("storage.read_panel_csv")),
    "storage.write_panel_csv_s": ("s", _total("storage.write_panel_csv")),
    "storage.save_model_s": ("s", _total("storage.save_model")),
    "storage.load_model_s": ("s", _total("storage.load_model")),
    "storage.save_diagnostics_s": ("s", _total("storage.save_diagnostics")),
    "benchmark.error_curve_s": ("s", _total("benchmark.error_curve")),
    "benchmark.make_scenario_s": ("s", _total("benchmark.make_scenario")),
    "benchmark.cells": (
        "count",
        lambda s: float(s.child_calls[("benchmark.error_curve", "fit.fit_design")]),
    ),
}
for _sub in CLI_SUBCOMMANDS:
    PER_LAYER[f"cli.{_sub}_s"] = ("s", _total(f"cli.{_sub}"))
    # the subcommand's time outside every traced library call
    PER_LAYER[f"cli.{_sub}.self_s"] = ("s", _self(f"cli.{_sub}"))
