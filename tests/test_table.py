"""Round trips and rejections of the one CSV convention (nvbath.table)."""

import struct

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
    table.write(path, comments, HEADER, rows)
    assert b"\r" not in path.read_bytes()
    back_comments, header, back = table.read(path, [HEADER])
    assert back_comments == comments
    assert header == HEADER
    assert [tuple(map(_bits, r)) for r in back] == [
        tuple(map(_bits, r)) for r in rows
    ]


def test_text_column_written_as_is(tmp_path):
    path = tmp_path / "t.csv"
    table.write(path, ["note"], ("name", "value"), [("C", 0.1), ("T_Ze", 2)])
    assert path.read_text() == "# note\nname,value\nC,0.10000000000000001\nT_Ze,2\n"


def test_header_only_when_no_rows(tmp_path):
    path = tmp_path / "t.csv"
    table.write(path, [], HEADER, [])
    assert path.read_text() == "x,y\n"


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
