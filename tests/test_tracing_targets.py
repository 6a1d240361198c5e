"""The benchmark's tracer wraps functions by name; each must still exist, or
a traced run would fail at start-up."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_resolves():
    missing = [
        f"{layer}.{name}"
        for layer, names in load_targets().items()
        for name in names
        if not callable(getattr(importlib.import_module(f"tuckervar.{layer}"), name, None))
    ]
    assert missing == []
