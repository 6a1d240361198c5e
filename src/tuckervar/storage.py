"""File formats: CSV panels, JSON model container, JSONL diagnostics.

Panels are CSV with a header row of variable names and one time step per
row. Each data row holds one decimal number per variable: a cell may be
padded with spaces or tabs, quoted, or use ``_`` between digits (anything
Python's ``float`` accepts), blank lines are skipped, and NaN, infinities,
empty cells and comment lines are rejected. The whole panel is parsed in one
``np.loadtxt`` call; a file that call cannot return as a valid panel is
rescanned row by row only to name the bad row.

``write_panel_csv`` writes only panels that ``read_panel_csv`` returns
unchanged, and puts a binary companion ``<path>.tvcache`` beside each: a tag,
the SHA-256 of the CSV bytes and the array as an ``.npy`` payload. A read
hashes the CSV and takes the array from the companion when the digest
matches and the array passes the parser's checks; in every other case it
parses the CSV. A read never writes a companion, and deleting one is always
safe. Models are a single JSON document holding dims, ranks, a config echo
and every array flattened in i1-fastest (column-major) order with full
decimal round-trip precision. All writes are whole-file atomic.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import locale
import math
import os
import tempfile

import numpy as np

from .initialization import LaplacianSet
from .solver import FitResult, StdgrConfig
from .tensor import TuckerFactors
from .var import _require_number

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
CACHE_SUFFIX = ".tvcache"
_CACHE_TAG = b"tvcache\x01"


class PanelFormatError(ValueError):
    """Raised when a panel CSV cannot be parsed."""


def atomic_write_text(path: str, text: str) -> None:
    _atomic_write(path, "w", text)


def _atomic_write(path: str, mode: str, data) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, mode) as handle:
            handle.write(data)
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

    A panel this module wrote comes from its companion file while the CSV
    bytes still match the companion's digest. Otherwise the data rows are
    parsed in one ``np.loadtxt`` call, and a file that call cannot return as
    a valid panel is read again row by row, which names the first bad row."""
    try:
        return _read_panel_cached(path) or _read_panel_block(path) or _read_panel_rows(path)
    except UnicodeDecodeError as exc:
        raise PanelFormatError(f"{path}: not {exc.encoding} text") from None
    except csv.Error as exc:
        raise PanelFormatError(f"{path}: {exc}") from None


def _read_panel_cached(path: str) -> tuple[list[str], np.ndarray] | None:
    """The panel from the companion file, or None unless the CSV bytes match
    its digest, the header is one the writer accepts and the array passes
    every check the block parser applies."""
    try:
        with open(path + CACHE_SUFFIX, "rb") as handle:
            stamp = handle.read(len(_CACHE_TAG) + 32)
            with open(path, "rb") as source:
                header = source.readline()
                digest = hashlib.sha256(header)
                digest.update(source.read())
            if stamp != _CACHE_TAG + digest.digest() or not header.endswith(b"\n"):
                return None
            if np.lib.format.read_magic(handle) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
            if dtype != np.dtype(float) or fortran_order or len(shape) != 2:
                return None
            names = header[:-1].decode(locale.getpreferredencoding(False)).split(",")
            if not all(map(_plain_name, names)) or shape[0] < 1 or shape[1] != len(names):
                return None
            # a truncated or overlong payload fails the reshape
            panel = np.fromfile(handle, dtype=float).reshape(shape)
    except (OSError, ValueError):
        return None
    return (names, panel) if np.isfinite(panel).all() else None


def _plain_name(name) -> bool:
    """Whether the header parser returns this variable name unchanged."""
    return (
        isinstance(name, str)
        and name == name.strip() != ""
        and not any(c in name for c in ',"\r\n')
        and len(name) <= csv.field_size_limit()
    )


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
    """Write a panel CSV that :func:`read_panel_csv` returns bit-exactly, then
    its companion ``path + CACHE_SUFFIX``. Raises ``ValueError`` for a panel
    or names the reader would refuse or change."""
    panel = np.ascontiguousarray(panel, dtype=float)
    if panel.ndim != 2 or 0 in panel.shape:
        raise ValueError("panel must be a (T, m) array with at least one row and one column")
    if not np.isfinite(panel).all():
        raise ValueError("panel entries must be finite")
    if names is None:
        names = [f"y{i + 1}" for i in range(panel.shape[1])]
    if len(names) != panel.shape[1]:
        raise ValueError("one name per variable required")
    bad = [name for name in names if not _plain_name(name)]
    if bad:
        raise ValueError(
            "variable names must be non-empty, unpadded, within the csv field limit"
            f" and free of commas, quotes and line breaks: {bad[0]!r:.60}"
        )
    companion = io.BytesIO()
    companion.write(_CACHE_TAG + _write_csv(path, panel, names))
    np.lib.format.write_array(companion, panel, version=(1, 0), allow_pickle=False)
    _atomic_write(path + CACHE_SUFFIX, "wb", companion.getbuffer())


def _write_csv(path: str, panel: np.ndarray, names: list[str]) -> bytes:
    """Write the CSV and return the SHA-256 of its bytes. The text is freed
    on return, before the companion is built: holding both raised the peak
    RSS of a CLI run by ~9 MiB at 20000 x 30."""
    lines = [",".join(names)]
    lines.extend(",".join(map(repr, row)) for row in panel.tolist())
    data = ("\n".join(lines) + "\n").encode(locale.getpreferredencoding(False))
    _atomic_write(path, "wb", data)
    return hashlib.sha256(data).digest()


def _flat(arr: np.ndarray) -> list[float]:
    """Flatten with the first index varying fastest (column-major)."""
    return [float(v) for v in np.asarray(arr, dtype=float).ravel(order="F")]


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
        # the ranks are echoed at the top level, as fitted, and epsilon
        # under "laplacians"
        "config": {
            k: v for k, v in dataclasses.asdict(cfg).items() if k not in ("ranks", "epsilon")
        },
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
    the keys ``core_tensor``, ``factors`` and ``laplacian_matrices``.

    Raises ``ValueError`` naming the key when one that the rebuild reads is
    missing or mistyped, or when ``m``, ``p``, ``ranks``, a Laplacian size
    or the scaler disagrees with the arrays."""
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a {MODEL_FORMAT} file")
    core = _stored_array(path, doc, "core", ("dims",))
    if core.ndim != 3:
        raise ValueError(f"{path}: 'core' must be a third-order tensor")
    factors = [_stored_array(path, doc, key, ("rows", "cols")) for key in ("a1", "a2", "a3")]
    m, p = factors[0].shape[0], factors[2].shape[0]
    if factors[1].shape[0] != m:
        raise ValueError(f"{path}: 'a1' and 'a2' must have the same number of rows")
    for k, a in enumerate(factors, start=1):
        if a.shape[1] != core.shape[k - 1]:
            raise ValueError(
                f"{path}: 'a{k}' has {a.shape[1]} columns, core dim {k} is {core.shape[k - 1]}"
            )
    # compared as JSON text, so that 2.0 or true does not pass for 2
    for key, want in (("m", m), ("p", p), ("ranks", list(core.shape))):
        if key not in doc or json.dumps(doc[key]) != json.dumps(want):
            raise ValueError(
                f"{path}: '{key}' must be {want}, as the arrays give, got {doc.get(key)!r}"
            )
    laplacians = doc.get("laplacians")
    if not isinstance(laplacians, dict):
        raise ValueError(f"{path}: 'laplacians' must be an object")
    laps = [_stored_array(path, laplacians, key, ("n", "n")) for key in ("l1", "l2", "l3")]
    for key, lap, n in zip(("l1", "l2", "l3"), laps, (m, m, p)):
        if lap.shape[0] != n:
            raise ValueError(f"{path}: Laplacian '{key}' is {lap.shape[0]}-square, expected {n}")
    epsilon = _require_number(f"{path}: 'laplacians.epsilon'", laplacians.get("epsilon"), 0)
    scaler = doc.get("scaler")
    if scaler:
        for key in ("mean", "std"):
            values = _finite_floats(scaler.get(key)) if isinstance(scaler, dict) else None
            if values is None or values.size != m:
                raise ValueError(f"{path}: 'scaler.{key}' must hold {m} finite numbers")
        if min(scaler["std"]) <= 0:
            raise ValueError(f"{path}: 'scaler.std' must be positive")
    doc["core_tensor"] = core
    doc["factors"] = TuckerFactors(core=core, a1=factors[0], a2=factors[1], a3=factors[2])
    doc["laplacian_matrices"] = LaplacianSet(l1=laps[0], l2=laps[1], l3=laps[2], epsilon=epsilon)
    return doc


def _finite_floats(values) -> np.ndarray | None:
    """``values`` as a float array if it is a JSON list of numbers that are
    finite as floats, else None."""
    if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
        return None
    try:
        array = np.asarray(values, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    return array if np.isfinite(array).all() else None


def _stored_array(path: str, parent: dict, key: str, shape_keys: tuple[str, ...]) -> np.ndarray:
    """The array that a model file stores under ``parent[key]``: a flat
    ``values`` list in i1-fastest order and its shape, read from the fields
    ``shape_keys`` (``dims`` holds the whole shape). Raises ``ValueError``
    naming the key when a field is missing, mistyped or inconsistent."""
    spec = parent.get(key)
    if not isinstance(spec, dict) or not all(k in spec for k in shape_keys + ("values",)):
        raise ValueError(
            f"{path}: '{key}' must be an object with fields {list(shape_keys)} and 'values'"
        )
    shape = spec["dims"] if shape_keys == ("dims",) else [spec[k] for k in shape_keys]
    if not isinstance(shape, list) or not all(type(d) is int and d >= 1 for d in shape):
        raise ValueError(
            f"{path}: the shape of '{key}' must be positive integers, got {shape!r}"
        )
    values = _finite_floats(spec["values"])
    if values is None or values.size != math.prod(shape):
        raise ValueError(
            f"{path}: '{key}' must hold {math.prod(shape)} finite numbers for its shape {shape}"
        )
    return values.reshape(shape, order="F")


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
