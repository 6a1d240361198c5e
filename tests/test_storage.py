"""The panel CSV reader: the one-call block parse must agree with the
row-by-row parser, which names the bad row, on every file."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tuckervar.storage import PanelFormatError, _read_panel_rows, read_panel_csv, write_panel_csv

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


class TestRoundTrip:
    @SEEDED
    @given(
        panel=st.tuples(st.integers(1, 12), st.integers(1, 5)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=FINITE)
        )
    )
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
