"""The benchmark's tracer wraps functions by name; each must still exist, or
a traced run would fail at start-up, and each stage of a fit must run through
the function the tracer wraps, or its per-layer metric would read 0."""

import importlib
import importlib.util
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
