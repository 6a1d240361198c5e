"""File formats: CSV panels, JSON model container, JSONL diagnostics.

Panels are CSV with a header row of variable names and one time step per
row. Each data row holds one decimal number per variable: a cell may be
padded with spaces or tabs, quoted, or use ``_`` between digits (anything
Python's ``float`` accepts), blank lines are skipped, and NaN, infinities,
empty cells and comment lines are rejected. The whole panel is parsed in one
``np.loadtxt`` call; a file that call cannot return as a valid panel is
rescanned row by row only to name the bad row. Models are a single JSON
document holding dims, ranks, a config echo and every array flattened in
i1-fastest (column-major) order with full decimal round-trip precision. All
writes are whole-file atomic.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import os
import tempfile

import numpy as np

from .initialization import LaplacianSet
from .solver import FitResult, StdgrConfig
from .tensor import TuckerFactors

__all__ = [
    "PanelFormatError",
    "read_panel_csv",
    "write_panel_csv",
    "atomic_write_text",
    "model_document",
    "save_model",
    "load_model",
    "diagnostics_lines",
    "save_diagnostics",
]

MODEL_FORMAT = "tuckervar-model"
MODEL_VERSION = 1


class PanelFormatError(ValueError):
    """Raised when a panel CSV cannot be parsed."""


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_panel_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Parse a panel CSV; raises :class:`PanelFormatError` naming the
    offending row on malformed input, missing values or non-finite entries,
    and naming the file when its bytes are not text in the locale's encoding
    or a cell exceeds the ``csv`` module's field size limit.

    The data rows are parsed in one ``np.loadtxt`` call. A file that call
    cannot return as a valid panel is read again row by row, which names the
    first bad row."""
    try:
        return _read_panel_block(path) or _read_panel_rows(path)
    except UnicodeDecodeError as exc:
        raise PanelFormatError(f"{path}: not {exc.encoding} text") from None
    except csv.Error as exc:
        raise PanelFormatError(f"{path}: {exc}") from None


def _read_panel_block(path: str) -> tuple[list[str], np.ndarray] | None:
    """The panel, or None when any check fails (the row-by-row parser then
    decides what is wrong)."""
    try:
        with open(path, newline="") as handle:
            names = [name.strip() for name in next(csv.reader(handle), [])]
            first = next(handle, "")
            # loadtxt warns on input without data, so a header-only file (or
            # a blank first data line) goes to the row-by-row parser
            if not names or not all(names) or not first.strip():
                return None
            panel = np.loadtxt(
                itertools.chain([first], handle), delimiter=",", ndmin=2, comments=None
            )
    except (ValueError, csv.Error):
        return None
    if panel.shape[1] != len(names) or not np.isfinite(panel).all():
        return None
    return names, panel


def _read_panel_rows(path: str) -> tuple[list[str], np.ndarray]:
    """Row-by-row parser: slow, but names the first bad row."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelFormatError(f"{path}: empty file, expected a header row")
        names = [name.strip() for name in header]
        if not names or any(not name for name in names):
            raise PanelFormatError(f"{path}: header row must name every variable")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise PanelFormatError(
                    f"{path}: row {line_no} has {len(row)} fields, expected {len(names)}"
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise PanelFormatError(f"{path}: row {line_no} contains a non-numeric field")
            if not all(np.isfinite(values)):
                raise PanelFormatError(f"{path}: row {line_no} contains a non-finite value")
            rows.append(values)
    if not rows:
        raise PanelFormatError(f"{path}: no data rows")
    return names, np.asarray(rows, dtype=float)


def write_panel_csv(path: str, panel: np.ndarray, names: list[str] | None = None) -> None:
    panel = np.asarray(panel, dtype=float)
    if panel.ndim != 2:
        raise ValueError("panel must be a (T, m) array")
    if names is None:
        names = [f"y{i + 1}" for i in range(panel.shape[1])]
    if len(names) != panel.shape[1]:
        raise ValueError("one name per variable required")
    lines = [",".join(names)]
    lines.extend(",".join(map(repr, row)) for row in panel.tolist())
    atomic_write_text(path, "\n".join(lines) + "\n")


def _flat(arr: np.ndarray) -> list[float]:
    """Flatten with the first index varying fastest (column-major)."""
    return [float(v) for v in np.asarray(arr, dtype=float).ravel(order="F")]


def _unflat(values, shape) -> np.ndarray:
    return np.asarray(values, dtype=float).reshape(shape, order="F")


def model_document(
    factors: TuckerFactors,
    laplacians: LaplacianSet,
    cfg: StdgrConfig,
    extra: dict | None = None,
) -> dict:
    """JSON-serializable model container."""
    m = factors.a1.shape[0]
    p = factors.a3.shape[0]
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "m": int(m),
        "p": int(p),
        "ranks": list(factors.ranks),
        # the ranks are echoed at the top level, as fitted
        "config": {k: v for k, v in dataclasses.asdict(cfg).items() if k != "ranks"},
        "core": {"dims": list(factors.core.shape), "values": _flat(factors.core)},
        "a1": {"rows": int(factors.a1.shape[0]), "cols": int(factors.a1.shape[1]), "values": _flat(factors.a1)},
        "a2": {"rows": int(factors.a2.shape[0]), "cols": int(factors.a2.shape[1]), "values": _flat(factors.a2)},
        "a3": {"rows": int(factors.a3.shape[0]), "cols": int(factors.a3.shape[1]), "values": _flat(factors.a3)},
        "laplacians": {
            "epsilon": laplacians.epsilon,
            "l1": {"n": int(laplacians.l1.shape[0]), "values": _flat(laplacians.l1)},
            "l2": {"n": int(laplacians.l2.shape[0]), "values": _flat(laplacians.l2)},
            "l3": {"n": int(laplacians.l3.shape[0]), "values": _flat(laplacians.l3)},
        },
    }
    if extra:
        doc.update(extra)
    return doc


def save_model(path: str, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def load_model(path: str) -> dict:
    """Read a model container back; arrays are rebuilt as numpy objects under
    the keys ``core_tensor``, ``factors`` and ``laplacian_matrices``."""
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
    dims = tuple(doc["core"]["dims"])
    doc["core_tensor"] = _unflat(doc["core"]["values"], dims)
    factors = []
    for key in ("a1", "a2", "a3"):
        spec = doc[key]
        factors.append(_unflat(spec["values"], (spec["rows"], spec["cols"])))
    doc["factors"] = TuckerFactors(core=doc["core_tensor"], a1=factors[0], a2=factors[1], a3=factors[2])
    laps = []
    for key in ("l1", "l2", "l3"):
        spec = doc["laplacians"][key]
        laps.append(_unflat(spec["values"], (spec["n"], spec["n"])))
    doc["laplacian_matrices"] = LaplacianSet(
        l1=laps[0], l2=laps[1], l3=laps[2], epsilon=doc["laplacians"]["epsilon"]
    )
    return doc


def diagnostics_lines(result: FitResult, meta: dict | None = None) -> list[str]:
    """One JSON record per line: a meta record, then per-iteration records
    with the iteration index, objective value and the seven relative block
    changes."""
    head = {
        "record": "meta",
        "iterations": result.iterations,
        "converged": result.converged,
        "init_core_clipped": result.init_core_clipped,
        "objective_initial": float(result.objective_trace[0]),
    }
    if meta:
        head.update(meta)
    lines = [json.dumps(head)]
    for k in range(result.iterations):
        lines.append(
            json.dumps(
                {
                    "record": "iteration",
                    "k": k + 1,
                    "objective": float(result.objective_trace[k + 1]),
                    "lambda": [float(v) for v in result.lambdas[k]],
                }
            )
        )
    return lines


def save_diagnostics(path: str, result: FitResult, meta: dict | None = None) -> None:
    atomic_write_text(path, "\n".join(diagnostics_lines(result, meta)) + "\n")
