"""Round trips and rejections of the one CSV convention (nvbath.table)."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvbath import _dtoa, table

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
    "n_rows, text",
    [
        pytest.param(n, True, id=str(n))
        for n in (0, 1, table._BLOCK_ROWS, 2 * table._BLOCK_ROWS + 3)
    ]
    # All numeric: every block goes through the kernel, the last one short.
    + [pytest.param(2 * table._BLOCK_ROWS + 3, False, id="numeric")],
)
def test_blocks_match_row_by_row_formatting(tmp_path, n_rows, text):
    specials = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1]
    floats = np.resize(np.array(specials), n_rows) * np.resize([1.0, -1.0], n_rows)
    columns = (
        tuple(i % 3 == 0 for i in range(n_rows)),
        np.arange(n_rows, dtype=np.int64) - 7,
        floats,
    )
    header = ("flag", "index", "value")
    if text:
        columns = (tuple(f"c{i}" for i in range(n_rows)), *columns)
        header = ("name", *header)
    else:
        columns += (np.linspace(-3e4, 1e-4, n_rows, dtype=np.float32),)
        header += ("single",)
    path = tmp_path / "t.csv"
    table.write(path, ["blocks"], header, columns)
    specs = ["%s" if text and j == 0 else "%.17g" for j in range(len(columns))]
    line = ",".join(specs) + "\n"
    expected = f"# blocks\n{','.join(header)}\n" + "".join(
        line % row for row in zip(*columns)
    )
    # Compared as lines: pytest reports a mismatch between lists at once.
    assert path.read_text().split("\n") == expected.split("\n")


def _percent(block) -> str:
    rows, width = block.shape
    line = ",".join(["%.17g"] * width) + "\n"
    return (line * rows) % tuple(block.ravel().tolist())


def _assert_kernel_matches(block):
    got, want = _dtoa.format_block(block).split("\n"), _percent(block).split("\n")
    assert len(got) == len(want)
    assert [pair for pair in zip(got, want) if pair[0] != pair[1]][:3] == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=50))
def test_kernel_matches_percent_on_any_double(rows):
    _assert_kernel_matches(np.array(rows, dtype=np.float64))


_RNG = np.random.default_rng(2026)
_POWERS = np.array([float(f"1e{k}") for k in range(-5, 18)])
_POWERS_AND_NEIGHBOURS = np.concatenate(
    [_POWERS, np.nextafter(_POWERS, 0), np.nextafter(_POWERS, np.inf)]
)
_EDGES = np.array([1e-4, 1e16])


def _spectrum_shaped(n_rows):
    """A field grid and an amplitude column about 97 % exact zeros, with
    +-0, tiny, huge, nan and +-inf cells sprinkled in."""
    rng = np.random.default_rng(n_rows)
    amplitude = np.zeros(n_rows)
    lines = rng.random(n_rows) < 0.03
    amplitude[lines] = rng.standard_normal(lines.sum())
    specials = [-0.0, 3e-7, -2.5e-300, 4e17, -1e308, np.nan, np.inf, -np.inf]
    amplitude[rng.choice(n_rows, len(specials), replace=False)] = specials
    return np.column_stack([8.4 + 2e-6 * np.arange(n_rows), amplitude])


_BLOCK_CELLS = 2 * table._BLOCK_ROWS


@pytest.mark.parametrize(
    "values",
    [
        # Odd M / 4 in [2**50, 2**51): ten times it ends in .5, a tie that
        # must round half to even.
        (_RNG.integers(2**52, 2**53, 20_000) | 1) / 4.0,
        _POWERS_AND_NEIGHBOURS,
        np.concatenate([_EDGES, np.nextafter(_EDGES, 0), np.nextafter(_EDGES, np.inf)]),
        np.array([0.0, -0.0]),
        _RNG.integers(0, 2**64, 400_000, dtype=np.uint64).view(np.float64),
        _spectrum_shaped(table._BLOCK_ROWS).ravel(),
        # Nothing enters the digit pipeline.
        np.resize([0.0, 5e-324, -1e-5, 1e16, -1e300, np.nan, np.inf], _BLOCK_CELLS),
        # One fast cell among zeros, and its negation among theirs.
        np.where(np.arange(_BLOCK_CELLS) == 4321, -0.125, 0.0),
        # The widest fast cell at every exponent, up to 23 characters.
        -(1.2345678901234567 * 10.0 ** np.arange(-4, 16)),
        # 24-character '%' cells, the longest ``%.17g`` writes, among zeros.
        np.array([-2.2250738585072014e-308, 0.0, -1.2345678901234567e-100, -0.0]),
    ],
    ids=[
        "ties",
        "powers_of_ten",
        "range_edges",
        "zeros",
        "random_bits",
        "spectrum_shaped",
        "no_fast_cell",
        "one_fast_cell",
        "widest_fast",
        "longest_percent",
    ],
)
def test_kernel_matches_percent_on_crafted_values(values):
    cells = np.concatenate([values, -values])
    # One column, whose every separator is LF, then two and three; the block
    # starts with the set's first cell, and a short last row is refilled
    # from the start.
    for width in (1, 2, 3):
        block = np.resize(cells, -(-cells.size // width) * width)
        _assert_kernel_matches(block.reshape(-1, width))


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_kernel_corrects_a_log10_one_ulp_off(monkeypatch, direction):
    # At and next to a power of ten, floor(log10) then misses the exponent
    # by one, below or above; the exact comparison must repair it.
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: np.nextafter(log10(a), direction))
    _assert_kernel_matches(_POWERS_AND_NEIGHBOURS.reshape(-1, 1))


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
    dense = (np.linspace(8.5, 8.7, n_rows), np.sin(np.arange(n_rows) * 1e-3))
    for columns in (dense, tuple(_spectrum_shaped(n_rows).T)):
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
