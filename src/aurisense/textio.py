"""Text tables: the one path between the package's ASCII files and arrays.

Every ASCII reader (OBJ, PLY, AP template, dataset and values CSV) reads
its file with ``read_lines`` and parses its body rows with ``table``;
every ASCII writer formats its body rows with ``format_rows``.

Parse rule: a file is UTF-8 text, split into lines at ``\n``, ``\r\n`` or
``\r`` and counted from 1; lines are stripped, and blank lines and, in
formats that have them, ``#`` comment lines are skipped.  A body row is a
fixed number of cells of one dtype, split on whitespace or on a
separator, optionally after one string label cell.

Line-number contract: a fault in one row, or a byte that is not UTF-8,
raises the caller's ``AurisenseError`` subclass with ``.line`` set to
that line; a fault of the whole file, such as a truncated body, carries
``line=None``.
"""

from __future__ import annotations

import json
from itertools import repeat

import numpy as np


def _split_lines(text: str) -> list:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_lines(path, error, comment: str | None = None):
    """The kept rows of a UTF-8 text file and their 1-based line numbers.

    Rows are stripped; blank rows and, when ``comment`` is given, rows
    starting with it are dropped.  Returns ``(rows, lines)``: a list of
    str and an int array.  A byte that is not UTF-8 raises ``error`` naming
    its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_split_lines(data[:exc.start].decode("utf-8")))
        raise error(f"byte {data[exc.start]:#04x} is not UTF-8 text; only ASCII "
                    f"files are read", line=line) from None
    rows = list(map(str.strip, _split_lines(text)))
    keep = np.fromiter(map(bool, rows), bool, len(rows))
    if comment is not None:
        keep &= ~np.fromiter(map(str.startswith, rows, repeat(comment)), bool, len(rows))
    return np.array(rows, dtype=object)[keep].tolist(), np.flatnonzero(keep) + 1


def require(ok, lines, error, message: str) -> None:
    """Raise ``error(message)`` naming the line of the first row where ``ok``
    is False."""
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    if bad.size:
        raise error(message, line=int(lines[bad[0]]))


def token_counts(rows, sep: str | None = None) -> np.ndarray:
    """Number of cells in each row: whitespace-split tokens, or
    ``sep``-separated fields."""
    if sep is None:
        return np.fromiter(map(len, map(str.split, rows)), np.int64, len(rows))
    return np.fromiter(map(str.count, rows, repeat(sep)), np.int64, len(rows)) + 1


def table(rows, lines, ncols: int, dtype, error, sep: str | None = None,
          label: bool = False):
    """Parse ``rows`` as an ``(n, ncols)`` array of ``dtype``.

    Cells are split on whitespace, or on ``sep``.  With ``label`` each row
    starts with one more cell, a string label, and ``(labels, array)`` is
    returned.  A row with the wrong cell count, or a cell that does not
    convert, raises ``error`` naming the first such row's line.
    """
    width = ncols + label
    require(token_counts(rows, sep) == width, lines, error,
            f"expected {width} cells in the row")
    cells = (" " if sep is None else sep).join(rows).split(sep)
    labels = cells[::width] if label else None
    if label:
        del cells[::width]
    try:
        values = np.array(cells, dtype=dtype).reshape(len(rows), ncols)
    except (ValueError, OverflowError):
        # find the row at fault; the values are never taken from here
        kind = "an integer" if np.dtype(dtype).kind in "iu" else "a number"
        for i in range(len(rows)):
            try:
                np.array(cells[i * ncols:(i + 1) * ncols], dtype=dtype)
            except (ValueError, OverflowError):
                raise error(f"a cell is not {kind} in {rows[i][:80]!r}",
                            line=int(lines[i])) from None
        raise
    return (labels, values) if label else values


def format_rows(values, labels=None, sep: str = " ") -> str:
    """One text row per row of the 2-D ``values``: each cell is the ``repr``
    of its Python number (for floats the shortest form that reads back
    exactly), joined by ``sep`` after ``str(label)`` when ``labels`` is
    given."""
    rows = map(sep.join, (map(repr, row) for row in np.asarray(values).tolist()))
    if labels is not None:
        rows = map(sep.join, zip(map(str, labels), rows))
    return "".join(f"{row}\n" for row in rows)


def write_report_json(path, obj: dict) -> None:
    """Canonical JSON (sorted keys, 2-space indent, trailing newline)."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
