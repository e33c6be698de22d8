"""Round trips and rejections of the one CSV convention (nvbath.table)."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvbath import table

HEADER = ("x", "y")

finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
comment = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
    max_size=20,
).map(str.strip)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=60, deadline=None)
@example(comments=["# x = 1"], rows=[(-0.0, 5e-324), (-2.2250738585072014e-308, 0.1)])
@given(
    comments=st.lists(comment, max_size=3),
    rows=st.lists(st.tuples(finite, finite), min_size=1, max_size=8),
)
def test_round_trip_is_bit_identical(tmp_path_factory, comments, rows):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    table.write(path, comments, HEADER, list(zip(*rows)))
    assert b"\r" not in path.read_bytes()
    back_comments, header, back = table.read(path, [HEADER])
    assert back_comments == comments
    assert header == HEADER
    assert [tuple(map(_bits, r)) for r in back] == [
        tuple(map(_bits, r)) for r in rows
    ]


def test_text_column_written_as_is(tmp_path):
    path = tmp_path / "t.csv"
    table.write(path, ["note"], ("name", "value"), [("C", "T_Ze"), (0.1, 2)])
    assert path.read_text() == "# note\nname,value\nC,0.10000000000000001\nT_Ze,2\n"


def test_header_only_when_no_rows(tmp_path):
    path = tmp_path / "t.csv"
    table.write(path, [], HEADER, [])
    assert path.read_text() == "x,y\n"


@pytest.mark.parametrize(
    "n_rows", [0, 1, table._BLOCK_ROWS, 2 * table._BLOCK_ROWS + 3]
)
def test_blocks_match_row_by_row_formatting(tmp_path, n_rows):
    specials = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1]
    floats = np.resize(np.array(specials), n_rows) * np.resize([1.0, -1.0], n_rows)
    columns = (
        tuple(f"c{i}" for i in range(n_rows)),
        tuple(i % 3 == 0 for i in range(n_rows)),
        np.arange(n_rows, dtype=np.int64) - 7,
        floats,
    )
    path = tmp_path / "t.csv"
    table.write(path, ["blocks"], ("name", "flag", "index", "value"), columns)
    expected = "# blocks\nname,flag,index,value\n" + "".join(
        "%s,%.17g,%.17g,%.17g\n" % row for row in zip(*columns)
    )
    assert path.read_text() == expected


@pytest.mark.parametrize(
    "columns, match",
    [
        (([1.0, 2.0],), "2 header names but 1 columns"),
        (([1.0], [2.0], [3.0]), "2 header names but 3 columns"),
        (([1.0, 2.0], [3.0]), r"columns differ in length: \[2, 1\]"),
        # Rows passed where columns are expected have the wrong width.
        ([(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)], "2 header names but 3 columns"),
    ],
)
def test_rejects_bad_shape(tmp_path, columns, match):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=match):
        table.write(path, [], HEADER, columns)
    assert not path.exists()


def test_write_holds_one_block_in_memory(tmp_path):
    n_rows = 175_001
    columns = (np.linspace(8.5, 8.7, n_rows), np.sin(np.arange(n_rows) * 1e-3))
    tracemalloc.start()
    try:
        table.write(tmp_path / "t.csv", [], HEADER, columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "text, match",
    [
        ("x,y\n1,nan\n", "line 2: expected 2 finite"),
        ("# c\nx,y\n1,2\n-inf,2\n", "line 4: expected 2 finite"),
        ("x,y\n1,2,3\n", "line 2: expected 2 finite"),
        ("x,y\n1\n", "line 2: expected 2 finite"),
        ("x,z\n1,2\n", "line 1: expected header 'x,y'"),
        ("# only a comment\n", "missing header"),
        ("x,y\n\n", "no data rows"),
    ],
)
def test_rejects_malformed(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(table.TableFormatError, match=match) as info:
        table.read(path, [HEADER])
    assert str(path) in str(info.value)
    assert isinstance(info.value, ValueError)
