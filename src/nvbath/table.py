"""The CSV convention of every table nvbath writes or reads.

``# `` comment lines, one header row of column names, one row per record,
LF endings, UTF-8. Text cells are written as they are and numbers as
``%.17g``, which reads back bit-identical. A row read back must hold exactly
one finite number per header column; blank lines are skipped.

:func:`write` takes the table as columns, the form every caller holds, and
formats a block of rows with one ``%``, so the per-cell loop runs in C.
"""

from __future__ import annotations

import math


class TableFormatError(ValueError):
    """A table file breaks the convention; the message names path and line."""


def _spec(value) -> str:
    return "%s" if isinstance(value, str) else "%.17g"


def cell(value) -> str:
    """One value as the convention writes it."""
    return _spec(value) % (value,)


# Rows formatted per ``%``: a block's cells, tuple and text take about 0.5 MB.
_BLOCK_ROWS = 4096


def write(path, comments, header, columns) -> None:
    """Write comment lines, the header and one line per row of ``columns``.

    ``columns`` holds one sequence (a list, tuple or numpy array) per header
    name, all of one length, or is empty for a table without rows; anything
    else raises ``ValueError``. Each column's format follows from its first
    value. Rows are written ``_BLOCK_ROWS`` at a time: the block's cells are
    interleaved into one flat list and formatted by one ``%``, so memory
    stays at one block.
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
        for start in range(0, n_rows, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, n_rows - start)
            flat = [None] * (rows * width)
            for j, column in enumerate(columns):
                part = column[start : start + rows]
                # .tolist() hands dtoa plain Python scalars, not numpy ones.
                flat[j::width] = part.tolist() if hasattr(part, "tolist") else part
            fh.write((line * rows) % tuple(flat))


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
