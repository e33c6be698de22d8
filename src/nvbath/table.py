"""The CSV convention of every table nvbath writes or reads.

``# `` comment lines, one header row of column names, one row per record,
LF endings, UTF-8. Text cells are written as they are and numbers as
``%.17g``, which reads back bit-identical. A row read back must hold exactly
one finite number per header column; blank lines are skipped.
"""

from __future__ import annotations

import math
from itertools import chain


class TableFormatError(ValueError):
    """A table file breaks the convention; the message names path and line."""


def _spec(value) -> str:
    return "%s" if isinstance(value, str) else "%.17g"


def cell(value) -> str:
    """One value as the convention writes it."""
    return _spec(value) % (value,)


def write(path, comments, header, rows) -> None:
    """Write comment lines, the header and one line per row tuple.

    Rows are streamed; each column's format follows from its value in the
    first row.
    """
    rows = iter(rows)
    first = next(rows, None)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.writelines(f"# {comment}\n" for comment in comments)
        fh.write(",".join(header) + "\n")
        if first is not None:
            line = ",".join(map(_spec, first)) + "\n"
            fh.writelines(map(line.__mod__, chain((first,), rows)))


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
