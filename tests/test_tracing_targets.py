"""The benchmark's tracer wraps functions by name; each must still exist, or
a traced run would fail at start-up, and each stage of a fit must run through
the function the tracer wraps, or its per-layer metric would read 0."""

import importlib
import importlib.util
import time
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = [
        f"{layer}.{name}"
        for layer, names in load_tracing().TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"tuckervar.{layer}"), name, None))
    ]
    assert missing == []


def test_a_traced_fit_records_every_stage():
    tracing = load_tracing()
    tv = importlib.import_module("tuckervar")
    modules = [tv] + [importlib.import_module(f"tuckervar.{layer}") for layer in tracing.TARGETS]
    spec = tv.ScenarioSpec(m=8, p=2, ranks=(2, 2, 2), superdiag=(2.0, 1.5), noise_scale=0.5)
    panel = tv.simulate(tv.make_scenario(spec, 0).w, 0.25 * np.eye(8), length=400, seed=3)

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, modules)
    try:
        with tracer.recording(0):
            report = tv.fit_panel(panel, 2, tv.StdgrConfig(c=2.0))
    finally:
        restore()

    assert report.ranks_selected
    recorded = {span[1] for span in tracer.spans}
    missing = [
        f"{layer}.{name}"
        for layer in ("initialization", "solver")
        for name in tracing.TARGETS[layer]
        if f"{layer}.{name}" not in recorded
    ]
    assert missing == []
    summary = tracing.summarize(tracer.spans)[0]
    metric = {name: value(summary) for name, (_, value) in tracing.PER_LAYER.items()}
    # a reweighted least-squares step of the NNM takes no SVT
    assert (
        metric["initialization.svt_calls"]
        == metric["initialization.nnm_iters"] - report.nnm.reweighted_steps
    )
    assert report.nnm.reweighted_steps > 0
    assert metric["initialization.nnm_iters"] == report.nnm.iterations


def test_the_lag_moments_are_formed_inside_build_design(monkeypatch):
    """``var.build_design_s`` holds the one pass over the panel, so the
    initializer's spans hold none of it."""
    tracing = load_tracing()
    tv = importlib.import_module("tuckervar")
    var = importlib.import_module("tuckervar.var")
    modules = [tv] + [importlib.import_module(f"tuckervar.{layer}") for layer in tracing.TARGETS]
    spec = tv.ScenarioSpec(m=8, p=2, ranks=(2, 2, 2), superdiag=(2.0, 1.5), noise_scale=0.5)
    panel = tv.simulate(tv.make_scenario(spec, 0).w, 0.25 * np.eye(8), length=400, seed=3)
    times, products = [], var._lagged_products

    def spy(*args):
        times.append(time.perf_counter())
        return products(*args)

    monkeypatch.setattr(var, "_lagged_products", spy)
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, modules)
    try:
        with tracer.recording(0):
            tv.fit_panel(panel, 2, tv.StdgrConfig(c=2.0))
    finally:
        restore()

    spans = [span for span in tracer.spans if span[1] == "var.build_design"]
    assert len(spans) == 1 and len(times) == 1
    assert spans[0][2] <= times[0] <= spans[0][3]


def test_a_traced_rank_select_records_the_initializer(tmp_path, capsys):
    """``rank-select`` runs the fit's start: its NNM, rank selection and
    HOSVD each record a span."""
    tracing = load_tracing()
    tv = importlib.import_module("tuckervar")
    cli = importlib.import_module("tuckervar.cli")
    layers = [importlib.import_module(f"tuckervar.{layer}") for layer in tracing.TARGETS]
    modules = [tv, cli] + layers
    spec = tv.ScenarioSpec(m=8, p=2, ranks=(2, 2, 2), superdiag=(2.0, 1.5), noise_scale=0.5)
    panel = tv.simulate(tv.make_scenario(spec, 0).w, 0.25 * np.eye(8), length=400, seed=3)
    path = str(tmp_path / "panel.csv")
    tv.storage.write_panel_csv(path, panel)

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, modules)
    try:
        with tracer.recording(0):
            assert cli.main(["rank-select", "--input", path, "--p", "2"]) == cli.EXIT_OK
    finally:
        restore()

    recorded = [span[1] for span in tracer.spans]
    stages = ("nnm_estimate", "select_ranks", "hosvd")
    assert [recorded.count(f"initialization.{name}") for name in stages] == [1, 1, 1]
