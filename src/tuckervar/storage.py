"""File formats: CSV panels, JSON models and truth files, JSONL fit records.

Panels are CSV with a header row of variable names and one time step per
row. Each data row holds one decimal number per variable: a cell may be
padded with spaces or tabs, quoted, or use ``_`` between digits (anything
Python's ``float`` accepts), blank lines are skipped, and NaN, infinities,
empty cells and comment lines are rejected. The whole panel is parsed in one
``np.loadtxt`` call; a file that call cannot return as a valid panel is
rescanned row by row only to name the bad row. A bad panel or model is a
``PanelFormatError``, which ``var`` defines and raises for a panel too large.

``write_panel_csv`` writes only panels that ``read_panel_csv`` returns
unchanged, each number as ``'% .16e'`` formats it (17 significant digits,
which read back to the same double), and puts a binary companion
``<path>.tvcache`` beside each: a tag,
the SHA-256 of the CSV bytes and the array as an ``.npy`` payload. A read
hashes the CSV and takes the array from the companion when the digest
matches and the array passes the parser's checks; in every other case it
parses the CSV. A read never writes a companion, and deleting one is always
safe. The writer formats, writes and hashes the rows a block at a time,
each block with one vectorized numpy routine and each row that routine
flags (one holding a nonzero number outside (1e-6, 1e17)) per cell, and a
companion read hashes the CSV in fixed-size blocks, so writing or reading a
panel holds one block of rows beyond the array, never the whole CSV text or
bytes. The reader accepts any decimal text, so CSVs written with other
digits, such as the shortest ``repr`` of earlier versions, still read.

A model is a single JSON document holding what ``forecast`` and ``eval``
read (dims, ranks, the core and factor arrays flattened in i1-fastest
(column-major) order with full decimal round-trip precision, and the scaler
of a standardized fit) plus the config the fit used. The graph Laplacians
act only inside the solve and are not stored; how the fit went is recorded
only in the diagnostics JSONL, built from a ``FitReport`` alone, so a
library fit writes the same record as ``tuckervar fit``. Version-1 files,
which stored the Laplacians and the solver's outcome too, still load. The
truth file of a simulated panel holds its scenario and the transition tensor
drawn, flattened like a model's arrays. All writes are whole-file atomic,
with the mode ``open`` gives; a failed one names the path, not the temp file.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import itertools
import json
import locale
import math
import os
import tempfile

import numpy as np

from .benchmark import Scenario, ScenarioSpec
from .fit import FitReport
from .solver import StdgrConfig
from .tensor import TuckerFactors
from .var import PRNG_ALGORITHM, PanelFormatError, spectral_radius

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
    "save_truth",
]

MODEL_FORMAT = "tuckervar-model"
MODEL_VERSION = 2
CACHE_SUFFIX = ".tvcache"
_CACHE_TAG = b"tvcache\x01"
# numbers formatted per CSV write (whole rows, at least one) and bytes read
# per digest update: they bound what a panel write or a companion read holds
# beyond the array
_BLOCK_CELLS = 1 << 14
_HASH_BLOCK = 1 << 20


def atomic_write_text(path: str, text: str) -> None:
    with _atomic_file(path) as handle:
        handle.write(text.encode(locale.getpreferredencoding(False)))


@contextlib.contextmanager
def _atomic_file(path: str):
    """A binary handle on a temp file beside ``path``, with the mode ``open``
    gives: renamed over ``path`` when the block succeeds, deleted when it
    raises. An ``OSError`` is raised again with ``path`` as its filename."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as handle:
            umask = os.umask(0)  # mkstemp makes the file 0600; read the umask, restore it
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield handle
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
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
                digest = _sha256_rest(hashlib.sha256(header), source)
            if stamp != _CACHE_TAG + digest or not header.endswith(b"\n"):
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


def _sha256_rest(digest, source) -> bytes:
    """Feed the rest of ``source`` to ``digest`` one block at a time."""
    block = bytearray(_HASH_BLOCK)
    view = memoryview(block)
    while size := source.readinto(block):
        digest.update(view[:size])
    return digest.digest()


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
    or names the reader would refuse or change.

    Each number is written as ``'% .16e'`` formats it: a space or ``-``, 17
    significant digits and a signed exponent, 23 characters within
    exponent +-99, so a 20000 x 30 panel is a 14.4 MB CSV beside a 4.8 MB
    companion. Formatting goes a block of rows at a time, in one set of work
    arrays per write; the write peaks at about 2.9 MiB of traced allocations
    beyond the array at that size."""
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
    digest = _write_csv(path, panel, names)
    with _atomic_file(path + CACHE_SUFFIX) as handle:
        handle.write(_CACHE_TAG + digest)
        np.lib.format.write_array(handle, panel, version=(1, 0), allow_pickle=False)


def _write_csv(path: str, panel: np.ndarray, names: list[str]) -> bytes:
    """Write the CSV and return the SHA-256 of its bytes. The rows are
    formatted, written and hashed a block of about ``_BLOCK_CELLS`` numbers
    at a time, so the text of the whole panel is never held."""
    encoding = locale.getpreferredencoding(False)
    step = max(1, _BLOCK_CELLS // panel.shape[1])
    work = _cell_work(min(step, len(panel)) * panel.shape[1])
    digest = hashlib.sha256()
    with _atomic_file(path) as handle:

        def write(data) -> None:
            handle.write(data)
            digest.update(data)

        write((",".join(names) + "\n").encode(encoding))
        for start in range(0, len(panel), step):
            rows = panel[start : start + step]
            words, flagged = _fixed_cells(rows, work)
            done = 0
            for i in np.flatnonzero(flagged).tolist():
                write(words[done:i])
                write((",".join(map(_CELL.__mod__, rows[i].tolist())) + "\n").encode(encoding))
                done = i + 1
            write(words[done:])
    return digest.digest()


# Every cell is written as ``_CELL`` formats it: 17 significant digits, which
# read back to the same double, in 23 characters for exponents within +-99.
# The vectorized formatter below emits the same bytes for a row whose nonzero
# cells lie in (1e-6, 1e17), as six 4-byte words per cell
# (sign, digit, point, digit | 4 digits | 4 | 4 | 3 digits, e | exponent sign,
# 2 digits, separator), each looked up in a table of ASCII bytes.
_CELL = "% .16e"


def _ascii_words(*columns) -> np.ndarray:
    """Rows of four ASCII codes, given as columns, as native 4-byte words."""
    return np.column_stack(columns).astype(np.uint8).view(np.uint32).ravel()


def _digits(width: int) -> np.ndarray:
    """The ASCII digits of 0 .. 10**width - 1, zero-padded, one row each."""
    digit = np.arange(ord("0"), ord("9") + 1)
    rows = digit[:, None]
    for _ in range(width - 1):
        rows = np.column_stack([np.repeat(digit, len(rows)), np.tile(rows, (10, 1))])
    return rows


_PAIRS = np.tile(_digits(2), (2, 1))
# by 100 * sign bit + the leading two digits
_HEAD = _ascii_words(
    np.repeat([ord(" "), ord("-")], 100), _PAIRS[:, 0], np.full(200, ord(".")), _PAIRS[:, 1]
)
_FOUR = _ascii_words(_digits(4))
_LAST = _ascii_words(_digits(3), np.full(1000, ord("e")))
# by 2 * (exponent + 6) + 1 at a row's last cell
_EXPONENTS = np.repeat(np.arange(-6, 17), 2)
_TAIL = _ascii_words(
    np.where(_EXPONENTS < 0, ord("-"), ord("+")),
    _PAIRS[np.abs(_EXPONENTS)],
    np.tile([ord(","), ord("\n")], 23),
)
# 10**k for k = 0 .. 22, each exact
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])


def _split(a: np.ndarray, high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Dekker's split of each double into two halves of at most 26
    significant bits, whose products are exact, written to ``high`` and
    ``low``; returns ``high``."""
    np.multiply(a, 134217729.0, out=high)  # c = (2**27 + 1) a
    np.subtract(high, a, out=low)
    np.subtract(high, low, out=high)  # c - (c - a)
    np.subtract(a, high, out=low)
    return high


_POW10_HIGH = _split(_POW10, np.empty_like(_POW10), np.empty_like(_POW10))


def _cell_work(cells: int) -> tuple:
    """Work arrays for :func:`_fixed_cells` of ``cells`` numbers: seven
    float64, three int64, four int32 and three bool rows and the words. One
    write formats every block in the same arrays, so that no block
    allocates (and faults in) block-sized temporaries of its own."""
    return (
        np.empty((7, cells)),
        np.empty((3, cells), np.int64),
        np.empty((4, cells), np.int32),
        np.empty((3, cells), bool),
        np.empty((cells, 6), np.uint32),
    )


def _scaled(a: np.ndarray, e: np.ndarray, work: tuple) -> np.ndarray:
    """a * 10**(16 - e) rounded half to even to int64, exactly, for
    0 <= 16 - e <= 22 and a product of at least 10**16 - 1/2: the product is
    hi + lo with no rounding error (Dekker, Numer. Math. 18, 1971), and hi,
    a double above 2**53, is an even integer, so rounding lo half to even
    rounds hi + lo half to even. ``work`` holds six float and two int64
    arrays of a's shape, the second of which receives the result."""
    a_high, a_low, p_low, p_high, hi, lo, index, n = work
    _split(a, a_high, a_low)
    np.subtract(16, e, out=index)
    np.take(_POW10, index, out=p_low, mode="clip")  # 0 <= index <= 22
    np.take(_POW10_HIGH, index, out=p_high, mode="clip")
    np.multiply(a, p_low, out=hi)
    p_low -= p_high  # exact, as the halves sum to the power
    np.multiply(a_high, p_high, out=lo)
    lo -= hi
    lo += np.multiply(a_high, p_low, out=a_high)
    lo += np.multiply(a_low, p_high, out=p_high)
    lo += np.multiply(a_low, p_low, out=a_low)
    np.copyto(n, hi, casting="unsafe")
    np.copyto(index, np.rint(lo, out=lo), casting="unsafe")  # |lo| <= ulp(hi) / 2 < 100
    n += index
    return n


def _fixed_cells(rows: np.ndarray, work: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The CSV bytes of a (k, m) block, one ``_CELL`` per number and a
    comma or line break after it, as a (k, m, 6) array of 4-byte words, and
    a (k,) flag set on each row whose words are not its bytes: one that holds
    a nonzero number outside (1e-6, 1e17), where 10**(16 - e) is not an
    exact double, or one whose exponent the logarithm misjudged. The words
    and every block-sized intermediate live in ``work`` from
    :func:`_cell_work` (allocated for this block when None), so the result
    is overwritten by the next block formatted in the same work arrays."""
    *groups, words = work or _cell_work(rows.size)
    floats, ints, digits, bools = ([a[: rows.size].reshape(rows.shape) for a in g] for g in groups)
    words = words[: rows.size].reshape(rows.shape + (6,))
    a, e, (zero, off, mask) = floats.pop(0), ints.pop(0), bools
    np.abs(rows, out=a)
    np.equal(a, 0, out=zero)
    # zero and a cell out of range (the double 1e-6 is below 10**-6) go
    # through the tables as 1.0; zero is then written as such, and the
    # other flags its row
    np.logical_or(np.less_equal(a, 1e-6, out=off), np.greater_equal(a, 1e17, out=mask), out=off)
    np.copyto(a, 1.0, where=off)
    off ^= zero
    # e = floor(log10 a), which the logarithm can miss by one next to a power
    # of ten, leaving the 17 digits out of [10**16, 10**17): the row is then
    # flagged. Only a double within 5e-17 relative below a power of ten could
    # round into range from the wrong side, and none lies in range; nor does
    # one round up to a power of ten at 17 digits (it would be flagged).
    np.copyto(e, np.floor(np.log10(a, out=floats[0]), out=floats[0]), casting="unsafe")
    np.clip(e, -6, 16, out=e)
    n = _scaled(a, e, (*floats, *ints))
    off |= np.less(n, 10**16, out=mask)
    off |= np.greater_equal(n, 10**17, out=mask)
    flagged = off.any(axis=1)
    np.copyto(n, 0, where=zero)
    np.copyto(e, 0, where=zero)
    # n = high * 10**9 + low, both below 2**31; the digit arithmetic runs in
    # int32, and x % k as x - (x // k) k, as a division by a constant is
    # several times faster than a remainder
    high, low, index, spare = digits
    np.copyto(high, np.floor_divide(n, 10**9, out=ints[0]), casting="unsafe")
    ints[0] *= 10**9
    np.copyto(low, np.subtract(n, ints[0], out=n), casting="unsafe")

    def remainder(x: np.ndarray, k: int) -> None:
        """index = x % k."""
        np.subtract(x, np.multiply(np.floor_divide(x, k, out=spare), k, out=spare), out=index)

    def put(word: int, table: np.ndarray) -> None:
        np.take(table, index, out=words[..., word], mode="clip")  # indices are in range

    np.floor_divide(high, 10**6, out=index)
    np.add(index, 100, out=index, where=np.signbit(rows, out=mask))
    put(0, _HEAD)
    np.floor_divide(high, 100, out=index)
    remainder(index, 10**4)
    put(1, _FOUR)
    remainder(high, 100)
    index *= 100
    index += np.floor_divide(low, 10**7, out=spare)
    put(2, _FOUR)
    np.floor_divide(low, 1000, out=index)
    remainder(index, 10**4)
    put(3, _FOUR)
    remainder(low, 1000)
    put(4, _LAST)
    e += 6
    e *= 2
    e[:, -1] += 1
    np.take(_TAIL, e, out=words[..., 5], mode="clip")
    return words, flagged


def _flat(arr) -> list[float]:
    """Flatten with the first index varying fastest (column-major)."""
    return np.ravel(arr, order="F").tolist()


def model_document(
    factors: TuckerFactors, cfg: StdgrConfig, scaler: dict | None = None
) -> dict:
    """JSON-serializable model container: dims, the fitted ranks, the config
    the fit used (less its ``ranks``, echoed at the top level as fitted), the
    core and factor arrays and, when given, the ``scaler`` mapping of
    per-variable ``mean`` and ``std``."""
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "m": int(factors.a1.shape[0]),
        "p": int(factors.a3.shape[0]),
        "ranks": list(factors.ranks),
        "config": {k: v for k, v in dataclasses.asdict(cfg).items() if k != "ranks"},
        "core": {"dims": list(factors.core.shape), "values": _flat(factors.core)},
    }
    for key, a in (("a1", factors.a1), ("a2", factors.a2), ("a3", factors.a3)):
        doc[key] = {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "values": _flat(a)}
    if scaler is not None:
        doc["scaler"] = {key: _flat(scaler[key]) for key in ("mean", "std")}
    return doc


def save_model(path: str, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def load_model(path: str) -> dict:
    """Read what ``forecast`` and ``eval`` use from a model container:
    ``{"factors": TuckerFactors, "scaler": {"mean": array, "std": array}}``,
    with ``scaler`` None when the file has none. Keys that are not read, such
    as the config echo or a version-1 file's Laplacians, are ignored.

    Raises ``PanelFormatError`` for a file that is not JSON text, that lacks
    or mistypes a key that is read (naming it), or whose ``m``, ``p``,
    ``ranks`` or scaler disagrees with the arrays."""
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except (ValueError, RecursionError) as exc:  # not JSON text, or nested too deep
            raise PanelFormatError(f"{path}: not a {MODEL_FORMAT} file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise PanelFormatError(f"{path}: not a {MODEL_FORMAT} file")
    core = _stored_array(path, doc, "core")
    if core.ndim != 3:
        raise PanelFormatError(f"{path}: 'core' must be a third-order tensor")
    factors = [_stored_array(path, doc, key) for key in ("a1", "a2", "a3")]
    m, p = factors[0].shape[0], factors[2].shape[0]
    if factors[1].shape[0] != m:
        raise PanelFormatError(f"{path}: 'a1' and 'a2' must have the same number of rows")
    for k, a in enumerate(factors, start=1):
        if a.shape[1] != core.shape[k - 1]:
            raise PanelFormatError(
                f"{path}: 'a{k}' has {a.shape[1]} columns, core dim {k} is {core.shape[k - 1]}"
            )
    # compared as JSON text, so that 2.0 or true does not pass for 2
    for key, want in (("m", m), ("p", p), ("ranks", list(core.shape))):
        if key not in doc or json.dumps(doc[key]) != json.dumps(want):
            raise PanelFormatError(
                f"{path}: '{key}' must be {want}, as the arrays give, got {doc.get(key)!r}"
            )
    scaler = None
    if "scaler" in doc:
        if not isinstance(doc["scaler"], dict):
            raise PanelFormatError(
                f"{path}: 'scaler' must be an object with fields 'mean' and 'std'"
            )
        scaler = {key: _finite_floats(doc["scaler"].get(key)) for key in ("mean", "std")}
        for key, values in scaler.items():
            if values is None or values.size != m:
                raise PanelFormatError(f"{path}: 'scaler.{key}' must hold {m} finite numbers")
        if scaler["std"].min() <= 0:
            raise PanelFormatError(f"{path}: 'scaler.std' must be positive")
    return {
        "factors": TuckerFactors(core=core, a1=factors[0], a2=factors[1], a3=factors[2]),
        "scaler": scaler,
    }


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


def _stored_array(path: str, doc: dict, key: str) -> np.ndarray:
    """The array that a model file stores under ``doc[key]``: a flat
    ``values`` list in i1-fastest order and its shape, the field ``dims`` for
    the core and ``rows`` and ``cols`` for a factor. Raises ``PanelFormatError``
    naming the key when a field is missing, mistyped or inconsistent."""
    shape_keys = ("dims",) if key == "core" else ("rows", "cols")
    spec = doc.get(key)
    if not isinstance(spec, dict) or not all(k in spec for k in shape_keys + ("values",)):
        raise PanelFormatError(
            f"{path}: '{key}' must be an object with fields {list(shape_keys)} and 'values'"
        )
    shape = spec["dims"] if key == "core" else [spec["rows"], spec["cols"]]
    if not isinstance(shape, list) or not all(type(d) is int and d >= 1 for d in shape):
        raise PanelFormatError(
            f"{path}: the shape of '{key}' must be positive integers, got {shape!r}"
        )
    values = _finite_floats(spec["values"])
    if values is None or values.size != math.prod(shape):
        raise PanelFormatError(
            f"{path}: '{key}' must hold {math.prod(shape)} finite numbers for its shape {shape}"
        )
    return values.reshape(shape, order="F")


def diagnostics_lines(report: FitReport, n_train: int) -> list[str]:
    """The fit record, one JSON object per line: a meta record (how the solver
    and the initializer ended, the ranks, ``n_train``, the rows of the fitted
    panel, and the spectral radius of the estimate), then one record per
    sweep with its objective value and the relative changes of the four
    blocks (G, A1, A2, A3)."""
    result, nnm = report.result, report.nnm
    head = {
        "record": "meta",
        "iterations": result.iterations,
        "converged": result.converged,
        "init_core_clipped": result.init_core_clipped,
        "objective_initial": float(result.objective_trace[0]),
        "ranks": list(report.ranks),
        "ranks_selected": report.ranks_selected,
        "n_train": int(n_train),
        "nnm_iterations": nnm.iterations,
        "nnm_reweighted_steps": nnm.reweighted_steps,
        "nnm_converged": nnm.converged,
        "nnm_stop": nnm.stop,
        "lambda_nn": nnm.lambda_nn,
        "spectral_radius": spectral_radius(report.w_hat),
    }
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


def save_diagnostics(path: str, report: FitReport, n_train: int) -> None:
    atomic_write_text(path, "\n".join(diagnostics_lines(report, n_train)) + "\n")


def save_truth(path: str, spec: ScenarioSpec, scenario: Scenario, seed: int) -> None:
    """Write the scenario, seed and generator behind a simulated panel, and
    the transition tensor ``w`` it drew, flattened i1-fastest."""
    truth = {
        "format": "tuckervar-truth",
        "m": spec.m,
        "p": spec.p,
        "ranks": list(spec.ranks),
        "superdiag_used": list(scenario.superdiag_used),
        "rescale_count": scenario.rescale_count,
        "noise_scale": spec.noise_scale,
        "seed": seed,
        "prng": PRNG_ALGORITHM,
        "w": _flat(scenario.w),
    }
    atomic_write_text(path, json.dumps(truth, indent=1) + "\n")
