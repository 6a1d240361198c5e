"""The panel CSV reader: the one-call block parse must agree with the
row-by-row parser, which names the bad row, on every file, and a read through
the binary companion must return exactly what the parse of the CSV bytes
returns. The writer, which works a block of rows at a time, must give the
bytes of one whole-panel join, leave earlier files intact when it fails, and
hold only about one block beyond the array."""

import csv
import hashlib
import io
import locale
import os
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tuckervar import storage
from tuckervar.storage import (
    _BLOCK_CELLS,
    _HASH_BLOCK,
    CACHE_SUFFIX,
    PanelFormatError,
    _read_panel_cached,
    _read_panel_rows,
    read_panel_csv,
    write_panel_csv,
)

SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def read_strict(reader, path):
    """Read with every warning raised as an error, so none can escape."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return reader(str(path))


def outcome(reader, path):
    try:
        names, panel = read_strict(reader, path)
    except PanelFormatError as exc:
        return ("error", str(exc))
    return ("panel", names, panel.shape, panel.tobytes())


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072e-310, 1.7976931348623157e308, -1.7976931348623157e308]),
)


PANELS = st.tuples(st.integers(1, 12), st.integers(1, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=FINITE)
)


class TestRoundTrip:
    @SEEDED
    @given(panel=PANELS)
    def test_write_then_read_is_bit_exact(self, tmp_path_factory, panel):
        path = tmp_path_factory.mktemp("panel") / "p.csv"
        write_panel_csv(str(path), panel)
        names, back = read_strict(read_panel_csv, path)
        assert names == [f"y{i + 1}" for i in range(panel.shape[1])]
        assert back.shape == panel.shape
        assert np.array_equal(back, panel)
        assert back.tobytes() == panel.tobytes()  # keeps the sign of -0.0
        assert outcome(read_panel_csv, path) == outcome(_read_panel_rows, path)

    def test_one_by_one(self, tmp_path):
        path = tmp_path / "p.csv"
        write_panel_csv(str(path), np.array([[-0.0]]))
        names, back = read_strict(read_panel_csv, path)
        assert names == ["y1"] and back.shape == (1, 1) and np.signbit(back[0, 0])


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a,b\r\n1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
        ("a,b\n1,2\n\n3,4\n", [[1, 2], [3, 4]]),
        ("a,b\n\n1,2\n", [[1, 2]]),
        ('a,b\n"1",2\n3,"4.5"\n', [[1, 2], [3, 4.5]]),
        ("a,b\n 1 , 2\n\t3\t,4 \n", [[1, 2], [3, 4]]),
        ("a,b\n1_0,2\n", [[10, 2]]),
        (" a , b \n1,2", [[1, 2]]),
        ("a\n1\n2\n", [[1], [2]]),
    ],
    ids=["crlf", "blank-line", "blank-after-header", "quoted", "padded", "underscore", "no-final-newline", "one-column"],
)
def test_parses_as_row_by_row(tmp_path, text, expected):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    names, panel = read_strict(read_panel_csv, path)
    assert names == ["a", "b"][: panel.shape[1]]
    assert np.array_equal(panel, np.asarray(expected, dtype=float))
    assert outcome(read_panel_csv, path) == outcome(_read_panel_rows, path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a,b\n1,2\n#3,4\n", "row 3 contains a non-numeric field"),
        ("a,b\n1,2\n3,4,5\n6,7\n", "row 3 has 3 fields, expected 2"),
        ("a,b\n1,2,3\n4,5,6\n", "row 2 has 3 fields, expected 2"),
        ("a,b,c\n1,2\n3,4\n", "row 2 has 2 fields, expected 3"),
        ("a,b\n1,2\n3,nan\n", "row 3 contains a non-finite value"),
        ("a,b\n1,2\n3,4\n-inf,5\n", "row 4 contains a non-finite value"),
        ("a,b\n1e999,2\n", "row 2 contains a non-finite value"),
        ("a,b\n1,,2\n", "row 2 has 3 fields, expected 2"),
        ("a,b\n1,\n", "row 2 contains a non-numeric field"),
        ("a,b\n1,2\n \n", "row 3 has 1 fields, expected 2"),
        ("a,b\n", "no data rows"),
        ("a,b\n\n\n", "no data rows"),
        ("", "empty file, expected a header row"),
        ("a,,c\n1,2,3\n", "header row must name every variable"),
        ("a, \n1,2\n", "header row must name every variable"),
        ("\n1,2\n", "header row must name every variable"),
    ],
    ids=[
        "hash-row",
        "ragged",
        "wider-than-header",
        "narrower-than-header",
        "nan",
        "inf",
        "overflow",
        "empty-cell",
        "trailing-comma",
        "blank-cells",
        "header-only",
        "header-and-blank-lines",
        "empty-file",
        "blank-header-name",
        "space-header-name",
        "blank-header-row",
    ],
)
def test_raises_as_row_by_row(tmp_path, text, message):
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    with pytest.raises(PanelFormatError) as caught:
        read_strict(read_panel_csv, path)
    assert str(caught.value) == f"{path}: {message}"
    assert outcome(read_panel_csv, path) == outcome(_read_panel_rows, path)


@pytest.mark.parametrize(
    "data",
    [b"a,b\n1,2\n\xff,3\n", b"\xffa,b\n1,2\n", b"a,b\n" + b"1,2\n" * 30000 + b"\xff,3\n"],
    ids=["in-data", "in-header", "past-the-first-read"],
)
def test_undecodable_bytes_raise_a_format_error(tmp_path, data):
    path = tmp_path / "p.csv"
    path.write_bytes(data)
    with pytest.raises(PanelFormatError, match="not .* text"):
        read_strict(read_panel_csv, path)
    assert str(path) in outcome(read_panel_csv, path)[1]


CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(
        ["1", "-0", ".5", "1.", "1e5", "1e999", "nan", "inf", "1_0", '"2"', " 3 ", "", " ", "#4", "0x1", "1 2", "\t5"]
    ),
)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n \n"])


@SEEDED
@given(
    header=st.sampled_from(["a,b\n", "a\n", "a,b,c\r\n", "a,\n", '"a,b",c\n']),
    rows=st.lists(st.tuples(st.lists(CELLS, min_size=1, max_size=4), LINE_ENDS), max_size=6),
)
def test_any_file_reads_as_row_by_row(tmp_path_factory, header, rows):
    path = tmp_path_factory.mktemp("panel") / "p.csv"
    path.write_bytes((header + "".join(",".join(cells) + end for cells, end in rows)).encode())
    assert outcome(read_panel_csv, path) == outcome(_read_panel_rows, path)


def companion(path):
    return path.parent / (path.name + CACHE_SUFFIX)


def forge_companion(path, payload, digest=None, allow_pickle=False):
    """A companion holding ``payload`` under the digest of the CSV on disk
    (or the given one), as the writer lays it out."""
    buffer = io.BytesIO()
    buffer.write(b"tvcache\x01" + (digest or hashlib.sha256(path.read_bytes()).digest()))
    np.lib.format.write_array(buffer, payload, version=(1, 0), allow_pickle=allow_pickle)
    companion(path).write_bytes(buffer.getvalue())


def replace_with_directory(path):
    os.unlink(path)
    os.mkdir(path)


class TestCompanion:
    @SEEDED
    @given(panel=PANELS)
    def test_reads_bit_exact_with_and_without_companion(self, tmp_path_factory, panel):
        path = tmp_path_factory.mktemp("panel") / "p.csv"
        write_panel_csv(str(path), panel)
        assert _read_panel_cached(str(path)) is not None  # the read below is a hit
        hit = outcome(read_panel_csv, path)
        assert hit == ("panel", [f"y{i + 1}" for i in range(panel.shape[1])], panel.shape, panel.tobytes())
        os.unlink(companion(path))
        assert outcome(read_panel_csv, path) == hit == outcome(_read_panel_rows, path)

    def test_companion_sits_beside_the_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        write_panel_csv(str(path), np.ones((3, 2)), names=["a", "b"])
        assert sorted(os.listdir(tmp_path)) == ["p.csv", "p.csv" + CACHE_SUFFIX]
        data = companion(path).read_bytes()
        assert data[8:40] == hashlib.sha256(path.read_bytes()).digest()
        row = b" 1.0000000000000000e+00, 1.0000000000000000e+00\n"
        assert path.read_bytes() == b"a,b\n" + 3 * row

    def test_names_come_from_the_header(self, tmp_path):
        path = tmp_path / "p.csv"
        write_panel_csv(str(path), np.eye(2), names=["alpha", "b\u00e9ta"])
        assert read_strict(_read_panel_cached, path)[0] == ["alpha", "b\u00e9ta"]
        assert outcome(read_panel_csv, path) == outcome(_read_panel_rows, path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data.replace(b"1.5", b"1.25", 1),
            lambda data: data + b"7.0,8.0\n",
            lambda data: b"a,b\n9,10\n",
            lambda data: b"a,b\n9,nan\n",
            lambda data: b"a,b\n",
            lambda data: data.replace(b"x,y", b"x,z"),
            lambda data: data.replace(b"\n", b"\r\n"),
        ],
        ids=["one-digit", "row-appended", "replaced", "replaced-bad", "header-only", "renamed", "crlf"],
    )
    def test_edited_csv_reads_as_the_parse_of_its_bytes(self, tmp_path, edit):
        path = tmp_path / "p.csv"
        write_panel_csv(str(path), np.array([[1.5, 2.5], [3.5, 4.5]]), names=["x", "y"])
        before = companion(path).read_bytes()
        path.write_bytes(edit(path.read_bytes()))
        assert _read_panel_cached(str(path)) is None
        assert outcome(read_panel_csv, path) == outcome(_read_panel_rows, path)
        assert companion(path).read_bytes() == before

    @pytest.mark.parametrize(
        "damage",
        [
            lambda path, panel: companion(path).write_bytes(companion(path).read_bytes()[:-3]),
            lambda path, panel: companion(path).write_bytes(companion(path).read_bytes()[:50]),
            lambda path, panel: companion(path).write_bytes(companion(path).read_bytes()[:20]),
            lambda path, panel: companion(path).write_bytes(companion(path).read_bytes() + b"\0" * 8),
            lambda path, panel: companion(path).write_bytes(b"garbage" * 20),
            lambda path, panel: companion(path).write_bytes(b""),
            lambda path, panel: forge_companion(path, panel, digest=bytes(32)),
            lambda path, panel: forge_companion(path, np.hstack([panel, panel])),
            lambda path, panel: forge_companion(path, panel[:, :1].copy()),
            lambda path, panel: forge_companion(path, np.where(panel > 2, np.nan, panel)),
            lambda path, panel: forge_companion(path, np.where(panel > 2, -np.inf, panel)),
            lambda path, panel: forge_companion(path, panel.astype(object), allow_pickle=True),
            lambda path, panel: forge_companion(path, np.minimum(panel, 1).astype(np.float32)),
            lambda path, panel: forge_companion(path, panel.astype(">f8")),
            lambda path, panel: forge_companion(path, np.asfortranarray(panel)),
            lambda path, panel: forge_companion(path, panel.ravel()),
            lambda path, panel: forge_companion(path, panel[:0]),
            lambda path, panel: forge_companion(path, panel[None]),
            lambda path, panel: replace_with_directory(companion(path)),
        ],
        ids=[
            "truncated-payload",
            "truncated-header",
            "truncated-digest",
            "trailing-bytes",
            "garbage",
            "empty",
            "stale-digest",
            "wrong-width-wide",
            "wrong-width-narrow",
            "nan-payload",
            "inf-payload",
            "pickled-object",
            "float32",
            "big-endian",
            "fortran-order",
            "one-dimensional",
            "no-rows",
            "three-dimensional",
            "directory",
        ],
    )
    def test_bad_companion_falls_back_to_the_parse(self, tmp_path, damage):
        path = tmp_path / "p.csv"
        panel = np.array([[1.5, 2.5], [3.5, 4.5], [-0.0, 1e300]])
        write_panel_csv(str(path), panel)
        damage(path, panel)
        assert _read_panel_cached(str(path)) is None
        assert outcome(read_panel_csv, path) == outcome(_read_panel_rows, path)
        assert outcome(read_panel_csv, path)[3] == panel.tobytes()

    @pytest.mark.parametrize(
        "text",
        ["a,b\n1,2\n", 'a,"b"\n1,2\n', " a ,b\n1,2\n", "a,b\r\n1,2\r\n", "a,bc"],
        ids=["plain", "quoted-name", "padded-name", "crlf", "no-newline"],
    )
    def test_companion_needs_a_header_the_writer_writes(self, tmp_path, text):
        """A companion with the right digest still needs a header the writer
        could have written."""
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        forge_companion(path, np.array([[5.0, 6.0]]))
        hit = _read_panel_cached(str(path))
        if text.startswith("a,b\n"):
            assert hit[0] == ["a", "b"] and hit[1].tobytes() == np.array([[5.0, 6.0]]).tobytes()
        else:
            assert hit is None
            assert outcome(read_panel_csv, path) == outcome(_read_panel_rows, path)

    @pytest.mark.parametrize(
        "text", ["a,b\n1,2\n", "a,b\n1,nan\n", "", "a,b\n"], ids=["valid", "bad-row", "empty", "header-only"]
    )
    def test_read_never_creates_a_companion(self, tmp_path, text):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        outcome(read_panel_csv, path)
        assert os.listdir(tmp_path) == ["p.csv"]

    def test_missing_csv_raises_os_error_even_with_a_companion(self, tmp_path):
        path = tmp_path / "p.csv"
        write_panel_csv(str(path), np.ones((2, 2)))
        os.unlink(path)
        with pytest.raises(FileNotFoundError):
            read_panel_csv(str(path))


class TestWriterRefusesWhatTheReaderWould:
    @pytest.mark.parametrize(
        "names",
        [["a,b"], ['"q'], ['a"b'], ["a\nb"], ["a\r"], [" a"], ["a\t"], ["a\x1c"], [""], [3], ["a" * (csv.field_size_limit() + 1)]],
        ids=["comma", "leading-quote", "inner-quote", "newline", "carriage-return", "padded", "tab", "separator", "empty", "not-a-string", "oversized"],
    )
    def test_bad_name(self, tmp_path, names):
        path = tmp_path / "p.csv"
        with pytest.raises(ValueError, match="variable names"):
            write_panel_csv(str(path), np.ones((2, 1)), names=names)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "panel",
        [[[1.0, np.nan]], [[np.inf, 1.0]], [[1.0, -np.inf]], np.ones((0, 2)), np.ones((2, 0)), np.ones(3), np.ones((1, 1, 1))],
        ids=["nan", "inf", "minus-inf", "no-rows", "no-columns", "one-dimensional", "three-dimensional"],
    )
    def test_bad_panel(self, tmp_path, panel):
        with pytest.raises(ValueError):
            write_panel_csv(str(tmp_path / "p.csv"), panel)
        assert os.listdir(tmp_path) == []

    @SEEDED
    @given(names=st.lists(st.text(max_size=6), min_size=1, max_size=3))
    def test_any_name_is_refused_or_read_back_unchanged(self, tmp_path_factory, names):
        directory = tmp_path_factory.mktemp("panel")
        path = directory / "p.csv"
        panel = np.arange(2.0 * len(names)).reshape(2, len(names))
        try:
            write_panel_csv(str(path), panel, names=names)
        except ValueError:
            assert os.listdir(directory) == []
            return
        assert read_strict(read_panel_csv, path)[0] == names
        os.unlink(companion(path))
        assert outcome(read_panel_csv, path) == ("panel", names, panel.shape, panel.tobytes())


def joined_csv(panel, names):
    """The CSV bytes as one join over the whole panel: the reference the
    block writer must match byte for byte."""
    lines = [",".join(names)]
    lines.extend(",".join("% .16e" % v for v in row) for row in panel.tolist())
    return ("\n".join(lines) + "\n").encode(locale.getpreferredencoding(False))


def flagged_rows(monkeypatch):
    """Record, for each block the writer formats from here on, the rows the
    vectorized formatter flagged for the per-cell one."""
    flagged = []
    formatter = storage._fixed_cells

    def spy(rows, *work):
        words, flags = formatter(rows, *work)
        flagged.append(np.flatnonzero(flags).tolist())
        return words, flags

    monkeypatch.setattr(storage, "_fixed_cells", spy)
    return flagged


def cell_calls(monkeypatch):
    """Record every number the writer formats with ``'% .16e'`` from here on."""
    calls = []

    class Counting(str):
        def __mod__(self, value):
            calls.append(value)
            return str.__mod__(self, value)

    monkeypatch.setattr(storage, "_CELL", Counting(storage._CELL))
    return calls


def npy_bytes(panel):
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, panel, version=(1, 0), allow_pickle=False)
    return buffer.getvalue()


ROW_COUNTS = {
    "1": lambda block: 1,
    "B-1": lambda block: block - 1,
    "B": lambda block: block,
    "B+1": lambda block: block + 1,
    "2B+1": lambda block: 2 * block + 1,
}


# a panel drawn at random and the extremes put in its last cells: the wide
# panel sends nearly every block to the per-cell formatter, the in-range one
# none
SCALES = {
    "wide": (
        lambda rng, shape: rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape),
        [-0.0, 5e-324, -1.7976931348623157e308, 1.0],
    ),
    "in-range": (
        lambda rng, shape: rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-6, 17, shape),
        [-0.0, 1.0000000000000002e-06, -9.999999999999998e16, 0.0],
    ),
}


class TestBlockWriter:
    """The CSV is written a block of rows at a time; its bytes must not show
    where one block ends, whichever formatter took each block."""

    @pytest.mark.parametrize("rows", list(ROW_COUNTS))
    @pytest.mark.parametrize("m", [1, 30])
    def test_same_bytes_as_one_join(self, tmp_path, monkeypatch, m, rows):
        self.check_same_bytes(tmp_path, monkeypatch, m, rows, "wide")

    @pytest.mark.parametrize("rows", list(ROW_COUNTS))
    @pytest.mark.parametrize("m", [1, 30])
    def test_in_range_panel_same_bytes_as_one_join(self, tmp_path, monkeypatch, m, rows):
        self.check_same_bytes(tmp_path, monkeypatch, m, rows, "in-range")

    @staticmethod
    def check_same_bytes(tmp_path, monkeypatch, m, rows, scale):
        block = max(1, _BLOCK_CELLS // m)
        length = ROW_COUNTS[rows](block)
        rng = np.random.default_rng(length * m)
        draw, extremes = SCALES[scale]
        panel = draw(rng, (length, m))
        panel.flat[-min(4, panel.size) :] = extremes[: panel.size]
        names = ["béta"] + [f"y{i + 2}" for i in range(m - 1)]
        path = tmp_path / "p.csv"
        flagged = flagged_rows(monkeypatch)
        write_panel_csv(str(path), panel, names=names)
        data = path.read_bytes()
        assert data == joined_csv(panel, names)
        assert len(flagged) == -(-length // block)
        if scale == "in-range":
            assert flagged == [[]] * len(flagged)
        stored = companion(path).read_bytes()
        assert stored[:8] == b"tvcache\x01"
        assert stored[8:40] == hashlib.sha256(data).digest()
        assert stored[40:] == npy_bytes(panel)
        assert sorted(os.listdir(tmp_path)) == ["p.csv", "p.csv" + CACHE_SUFFIX]


SIGNED_IN_RANGE = st.tuples(
    st.one_of(st.floats(1e-6, 1e17, exclude_min=True, exclude_max=True), st.just(0.0)),
    st.booleans(),
).map(lambda pair: -pair[0] if pair[1] else pair[0])

IN_RANGE_PANELS = st.tuples(st.integers(1, 12), st.integers(1, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=SIGNED_IN_RANGE)
)


def near(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


# every power of ten the tables take and its neighbours (1e-6 itself is the
# double just below 10**-6), the largest double below 1e17, exact ties at the
# 17th digit (2**50 + j/4 and 2**49 + j/8 end in 25, 75, 125, ...), and exact
# binary fractions
EDGES = (
    [x for k in range(-6, 18) for x in near(float(f"1e{k}")) if 1e-6 < x < 1e17]
    + [9.999999999999998e16, 1.0000000000000002e-06, 0.0]
    + [2.0**50 + j / 4 for j in range(1, 400)]
    + [2.0**49 + j / 8 for j in range(1, 400)]
    + [2.0**j for j in range(-19, 57)]
    + [k / 4096 for k in range(1, 8192)]
)


def checked_flags(rows):
    """The rows of a block that the vectorized formatter flags, after
    checking that the words of every other row are its ``'% .16e'`` bytes."""
    words, flagged = storage._fixed_cells(rows)
    assert flagged.shape == (len(rows),)
    for row, row_words, flag in zip(rows.tolist(), words, flagged.tolist()):
        if not flag:
            assert row_words.tobytes() == (",".join("% .16e" % v for v in row) + "\n").encode()
    return np.flatnonzero(flagged).tolist()


def misjudged(x):
    """Whether numpy's floor(log10 |x|), clipped to the tables' exponents
    -6 .. 16, misses the exponent of a nonzero in-range ``x``."""
    exponent = int(("% .16e" % x).split("e")[1])
    return x != 0 and np.clip(np.floor(np.log10(abs(x))), -6, 16) != exponent


class TestFixedWidthCells:
    """The vectorized formatter emits the bytes of ``'% .16e'`` cell for
    cell, and a row it cannot place goes to the per-cell formatter alone."""

    @SEEDED
    @given(panel=IN_RANGE_PANELS)
    def test_in_range_panels_read_back_bit_exact(self, tmp_path_factory, panel):
        # only a misjudged exponent flags an in-range row
        for i in checked_flags(panel):
            assert any(map(misjudged, panel[i].tolist()))
        path = tmp_path_factory.mktemp("panel") / "p.csv"
        names = [f"y{i + 1}" for i in range(panel.shape[1])]
        write_panel_csv(str(path), panel)
        assert path.read_bytes() == joined_csv(panel, names)
        hit = outcome(read_panel_csv, path)
        assert hit == ("panel", names, panel.shape, panel.tobytes())
        os.unlink(companion(path))
        assert outcome(read_panel_csv, path) == hit == outcome(_read_panel_rows, path)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_edges_match_the_per_cell_format(self, sign):
        column = sign * np.array(EDGES)[:, None]
        flagged = checked_flags(column)
        values = column[:, 0].tolist()
        assert flagged == [i for i, v in enumerate(values) if misjudged(v)]
        # each lies one ulp below a power of ten
        for i in flagged:
            power = float(f"1e{int(('% .16e' % values[i]).split('e')[1]) + 1}")
            assert np.nextafter(abs(values[i]), np.inf) == power

    def test_exact_powers_of_ten(self):
        powers = np.array([[float(f"1e{k}") for k in range(17)]])
        expected = ",".join(f" 1.0000000000000000e+{k:02d}" for k in range(17)) + "\n"
        words, flagged = storage._fixed_cells(powers)
        assert flagged.tolist() == [False]
        assert words.tobytes() == expected.encode()

    @pytest.mark.parametrize(
        "value", [1e-6, -1e-6, 5e-324, 2.2250738585072014e-308, 1e17, -1e17, 1e300]
    )
    def test_out_of_range_cell_is_refused(self, value):
        assert checked_flags(np.array([[1.0, value], [0.5, -0.0]])) == [0]

    @pytest.mark.parametrize("value", [5e-324, 1e300])
    def test_one_cell_sends_its_row_alone_to_the_fallback(self, tmp_path, monkeypatch, value):
        block = _BLOCK_CELLS // 30
        panel = SCALES["in-range"][0](np.random.default_rng(8), (3 * block, 30))
        panel[block + 7, 11] = value
        path = tmp_path / "p.csv"
        flagged = flagged_rows(monkeypatch)
        calls = cell_calls(monkeypatch)
        write_panel_csv(str(path), panel)
        assert flagged == [[], [7], []]
        assert calls == panel[block + 7].tolist()
        names = [f"y{i + 1}" for i in range(30)]
        assert path.read_bytes() == joined_csv(panel, names)
        assert outcome(read_panel_csv, path) == ("panel", names, panel.shape, panel.tobytes())
        os.unlink(companion(path))
        assert outcome(read_panel_csv, path)[3] == panel.tobytes()

    def test_tiny_cells_send_only_their_rows_to_the_fallback(self, tmp_path, monkeypatch):
        panel = np.random.default_rng(9).standard_normal((20000, 30))
        assert np.abs(panel).min() > 1e-6  # no draw of its own goes to the fallback
        block = _BLOCK_CELLS // 30
        rows = [5, 3 * block + 100, 20000 - 2]
        panel[rows, [0, 17, 29]] = 1e-7
        path = tmp_path / "p.csv"
        calls = cell_calls(monkeypatch)
        write_panel_csv(str(path), panel)
        assert calls == panel[rows].ravel().tolist()
        assert path.read_bytes() == joined_csv(panel, [f"y{i + 1}" for i in range(30)])


class FailingDigest:
    """A digest whose third update, the second row block, raises; it records
    the directory's files at that moment."""

    def __init__(self, directory):
        self.directory, self.updates, self.seen = directory, 0, None

    def update(self, data):
        self.updates += 1
        if self.updates == 3:
            self.seen = sorted(os.listdir(self.directory))
            raise RuntimeError("interrupted")


class TestInterruptedWrite:
    def test_failure_after_a_row_block_leaves_the_earlier_files(self, tmp_path, monkeypatch):
        path = tmp_path / "p.csv"
        write_panel_csv(str(path), np.array([[1.5, 2.5], [3.5, 4.5]]), names=["x", "y"])
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        failing = FailingDigest(tmp_path)
        monkeypatch.setattr(storage, "hashlib", types.SimpleNamespace(sha256=lambda: failing))
        panel = np.random.default_rng(3).standard_normal((2 * (_BLOCK_CELLS // 2) + 1, 2))
        with pytest.raises(RuntimeError, match="interrupted"):
            write_panel_csv(str(path), panel, names=["x", "y"])
        assert any(name.startswith(".tmp-") and name.endswith("~") for name in failing.seen)
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


class TestBlockwiseHash:
    def test_edit_past_the_first_hash_block_is_seen(self, tmp_path):
        path = tmp_path / "p.csv"
        panel = np.random.default_rng(4).standard_normal((2500, 30))
        write_panel_csv(str(path), panel)
        data = path.read_bytes()
        assert len(data) > 1.2 * _HASH_BLOCK
        # the leading digit of the first number on the first row that starts
        # after the first hash block
        at = data.index(b"\n", _HASH_BLOCK) + 1
        at += data[at] == ord("-")
        edited = data[:at] + bytes([ord("1") + (data[at] == ord("1"))]) + data[at + 1 :]
        path.write_bytes(edited)
        assert _read_panel_cached(str(path)) is None
        edited_read = outcome(read_panel_csv, path)
        assert edited_read == outcome(_read_panel_rows, path)
        assert edited_read[3] != panel.tobytes()


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


class TestBoundedMemory:
    """Writing a panel or reading it through its companion holds about one
    block beyond the array, not the whole CSV text or bytes."""

    def test_write_holds_a_fraction_of_the_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        panel = np.random.default_rng(5).standard_normal((20000, 30))
        peak, _ = traced_peak(lambda: write_panel_csv(str(path), panel))
        assert peak <= path.stat().st_size / 4

    def test_companion_read_holds_one_block_beyond_the_array(self, tmp_path):
        path = tmp_path / "p.csv"
        panel = np.random.default_rng(6).standard_normal((20000, 30))
        write_panel_csv(str(path), panel)
        assert _read_panel_cached(str(path)) is not None
        peak, (_, read) = traced_peak(lambda: read_panel_csv(str(path)))
        assert read.tobytes() == panel.tobytes()
        assert peak <= panel.nbytes + 2 * 2**20
