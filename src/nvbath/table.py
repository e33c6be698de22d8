"""The CSV convention of every table nvbath writes or reads.

``# `` comment lines, one header row of column names, one row per record,
LF endings, UTF-8. Text cells are written as they are and numbers as
``%.17g``, which reads back bit-identical. A row read back must hold exactly
one finite number per header column; blank lines are skipped.

:func:`write` takes the table as columns, the form every caller holds, and
writes ``_BLOCK_ROWS`` rows at a time. A table of fewer rows, or a block
with a text cell, is formatted by one ``%`` per block, so the per-cell loop
runs in C. The blocks of a longer all-numeric table go through
:func:`nvbath._dtoa.format_block`, which spells ``%.17g`` in numpy with the
same bytes. Only the cells in 1e-4 <= |v| < 1e16 enter its digit pipeline
(exact, by Dekker's two-product); zeros are written as ``0`` and ``-0``
without it, and the rest by ``%`` per cell.
"""

from __future__ import annotations

import math

import numpy as np


class TableFormatError(ValueError):
    """A table file breaks the convention; the message names path and line."""


def _spec(value) -> str:
    return "%s" if isinstance(value, str) else "%.17g"


def cell(value) -> str:
    """One value as the convention writes it."""
    return _spec(value) % (value,)


# Rows formatted per block. A ``%`` block's cells, tuple and text take about
# 0.5 MB, a kernel block of two columns under 1 MB. A table of fewer rows
# stays on ``%``. On 3 columns (2 cores, numpy 2.4.6), ``%`` is faster up to
# about 90 rows (3 rows: 4 us, against 100 us), the two are even to about
# 150, and from 500 rows on ``%`` takes 2.5-3.8 times as long. No workload
# writes 150-4095 rows, so the threshold stays.
_BLOCK_ROWS = 4096


def write(path, comments, header, columns) -> None:
    """Write comment lines, the header and one line per row of ``columns``.

    ``columns`` holds one sequence (a list, tuple or numpy array) per header
    name, all of one length, or is empty for a table without rows; anything
    else raises ``ValueError``. Each column's format follows from its first
    value. Rows are written ``_BLOCK_ROWS`` at a time, so memory stays at
    one block. In a table of at least ``_BLOCK_ROWS`` rows, a block whose
    cells are all bool, integer or float goes through
    :func:`nvbath._dtoa.format_block`. Any other block's cells are
    interleaved into one flat list and formatted by one ``%``.
    """
    width = len(columns)
    if width and width != len(header):
        raise ValueError(f"{len(header)} header names but {width} columns")
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    n_rows = lengths[0] if lengths else 0
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.writelines(f"# {comment}\n" for comment in comments)
        fh.write(",".join(header) + "\n")
        if not n_rows:
            return
        line = ",".join(_spec(column[0]) for column in columns) + "\n"
        kernel = None
        if n_rows >= _BLOCK_ROWS:
            # Imported here, so only a run that writes a long table builds
            # the kernel's lookup tables.
            from nvbath import _dtoa

            kernel = _dtoa.format_block
        for start in range(0, n_rows, _BLOCK_ROWS):
            parts = [column[start : start + _BLOCK_ROWS] for column in columns]
            if kernel:
                block = np.column_stack(parts)
                if block.dtype.kind in "biuf":
                    fh.write(kernel(block.astype(np.float64, copy=False)))
                    continue
            flat = [None] * (len(parts[0]) * width)
            for j, part in enumerate(parts):
                # .tolist() hands dtoa plain Python scalars, not numpy ones.
                flat[j::width] = part.tolist() if hasattr(part, "tolist") else part
            fh.write((line * len(parts[0])) % tuple(flat))


def read(path, headers, record=lambda *values: values):
    """Read a table whose header is one of ``headers`` (tuples of names).

    Returns ``(comments, header, rows)``: the comment texts without the
    ``#``, the matched header, and ``record(*floats)`` of every row. A
    missing or unexpected header, a row that is not one finite number per
    column or that ``record`` rejects with ``ValueError``, and a table
    without rows raise :class:`TableFormatError`.
    """
    expected = " or ".join(repr(",".join(h)) for h in headers)
    comments, rows, header = [], [], None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line.startswith("#"):
                comments.append(line[1:].strip())
            elif line and header is None:
                header = tuple(c.strip() for c in line.split(","))
                if header not in headers:
                    raise TableFormatError(
                        f"{path}: line {lineno}: expected header {expected}, "
                        f"got {line!r}"
                    )
            elif line:
                try:
                    values = tuple(map(float, line.split(",")))
                    if not (
                        len(values) == len(header) and all(map(math.isfinite, values))
                    ):
                        raise ValueError(
                            f"expected {len(header)} finite numbers, got {line!r}"
                        )
                    rows.append(record(*values))
                except ValueError as exc:
                    raise TableFormatError(f"{path}: line {lineno}: {exc}") from None
    if header is None:
        raise TableFormatError(f"{path}: missing header line {expected}")
    if not rows:
        raise TableFormatError(f"{path}: no data rows")
    return comments, header, rows
