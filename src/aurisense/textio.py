"""Text tables: the one path between the package's ASCII files and arrays.

The OBJ, AP template, dataset and values CSV readers read their file with
``read_lines`` and parse its body rows with ``table``.  The PLY reader
reads the tables of a file that ``plain_lines`` accepts straight from the
file with ``file_table``, with no string per row; there line n is row n,
so a row's line is the header's length plus its place in the body.  Any
other PLY file, or one whose tables do not read, takes ``read_lines`` and
``table``, which alone find the line of a row that does not parse.
Every ASCII writer writes its body rows with ``write_rows``.

Parse rule: a file is UTF-8 text, split into lines at ``\n``, ``\r\n`` or
``\r`` and counted from 1; lines are stripped, and blank lines and, in
formats that have them, ``#`` comment lines are skipped.  A body row is a
fixed number of cells of one dtype, split on any run of whitespace or on a
separator, optionally after one string label cell.  The cells of all rows
are read by ``np.loadtxt`` in one pass, with comments and quoting off, so
a cell is an ASCII decimal number (``nan`` and ``inf`` included for
floats, and no fraction or exponent for integers): ``1#2``, ``1_0`` and
non-ASCII digits such as ``١``, which Python's ``float`` and ``int``
accept, are faults, and so is ``1.5`` in an integer table, which some
numpy versions read as 1 with only a warning.  Only when that read
fails are the rows counted and read one at a time to find the row at
fault.

Line-number contract: a fault in one row, or a byte that is not UTF-8,
raises the caller's ``AurisenseError`` subclass with ``.line`` set to
that line; a fault of the whole file, such as a truncated body, carries
``line=None``.

Writer: each cell is written as the ``repr`` of its Python number (for a
float the shortest text that reads back exactly).  A table is written in
blocks of ``_WRITE_ROWS`` rows, each spelled by one ``%`` format of a row
template repeated once per row, so the text held at once stays one block's.
"""

from __future__ import annotations

import json
import re
import warnings
from itertools import compress, repeat

import numpy as np

_WRITE_ROWS = 4096  # rows per block of ``write_rows``
# a newline, then a line of nothing but the ASCII whitespace that
# ``str.strip`` removes, ended by a newline or, if it is not empty, by the
# end of the text; the leading newline lets a search skip from line to line
_BLANK_LINE = re.compile(rb"\n(?:[\t\x0b\x0c\x1c-\x1f ]*\n|[\t\x0b\x0c\x1c-\x1f ]+\Z)")


def _split_lines(text: str) -> list:
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


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
    if comment is None:
        keep = list(map(bool, rows))
    else:
        keep = [bool(row) and not row.startswith(comment) for row in rows]
    lines = np.flatnonzero(np.fromiter(keep, bool, len(keep))) + 1
    return list(compress(rows, keep)), lines


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
          label: bool = False, wide=None, short=None):
    """Parse ``rows`` as an ``(n, ncols)`` array of ``dtype``.

    Cells are split on whitespace, or on ``sep``, and all rows are read by
    ``np.loadtxt`` in one pass.  With ``label`` each row starts with one
    more cell, a string label, and ``(labels, array)`` is returned.  A row
    with the wrong cell count, or a cell that does not convert, raises
    ``error`` naming the first such row's line; ``wide`` and ``short``,
    ``(error, message)`` pairs, are raised instead for a row with too many
    or too few cells.
    """
    body = rows
    if label:
        if sep is None:  # [label, rest, ""] or [label, ""]
            parts, rest = [row.split(None, 1) + [""] for row in rows], 1
        else:  # (label, sep, rest)
            parts, rest = list(map(str.partition, rows, repeat(sep))), 2
        labels = [p[0] for p in parts]
        body = [p[rest] for p in parts]
    values = _read(body, ncols, dtype, sep)
    if values is not None:
        return (labels, values) if label else values
    # the one-pass read failed: count and read the rows one at a time
    width = ncols + label
    kind = "an integer" if np.dtype(dtype).kind in "iu" else "a number"
    for i, count in enumerate(token_counts(rows, sep)):
        line = int(lines[i])
        if count != width:
            fault, message = ((wide if count > width else short)
                              or (error, f"expected {width} cells in the row"))
            raise fault(message, line=line)
        if _read(body[i:i + 1], ncols, dtype, sep) is None:
            raise error(f"a cell is not {kind} in {rows[i][:80]!r}", line=line)
    raise error(f"the rows do not read as a table of {width} cells")


def file_table(path, skiprows: int, nrows: int, ncols: int, dtype):
    """The ``(nrows, ncols)`` array of ``dtype`` on the ``nrows`` lines of
    the file at ``path`` after its first ``skiprows``, read straight from
    the file, or None if they are not one; for lines ``plain_lines`` accepts."""
    return _read(path, ncols, dtype, skiprows=skiprows, nrows=nrows)


def plain_lines(data: bytes):
    """The number of lines of the text ``data`` when each of them is a row
    as ``read_lines`` keeps it, at its own line number, else None: ASCII,
    no ``\r``, and no blank or whitespace-only line but the empty one after
    a final newline."""
    first = data[:data.find(b"\n") + 1 or len(data)]
    if (not data.isascii() or b"\r" in data or _BLANK_LINE.match(b"\n" + first)
            or _BLANK_LINE.search(data)):
        return None
    return data.count(b"\n") + bool(data and not data.endswith(b"\n"))


def _read(body, ncols: int, dtype, sep=None, skiprows: int = 0, nrows=None):
    """The ``(nrows, ncols)`` array of the cells of ``body``, or None if
    they are not one: ``body`` is a list of rows, all of them read, or a
    file path, whose ``nrows`` lines after the first ``skiprows`` are read."""
    if nrows is None:
        nrows = len(body)
        if not all(body):  # np.loadtxt would skip a blank row
            return None
    if not nrows:
        return np.empty((0, ncols), dtype)
    # numpy 1.23 to 2.x read an integer cell such as '1.5' as a float and
    # truncate it, with only a DeprecationWarning: that cell is a fault
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.loadtxt(body, dtype, delimiter=sep, comments=None,
                                quotechar=None, ndmin=2, skiprows=skiprows,
                                max_rows=nrows, encoding="utf-8")
        except (ValueError, OverflowError, DeprecationWarning):
            return None
    return values if values.shape == (nrows, ncols) else None


def write_rows(fh, columns, labels=None, sep: str = " ") -> None:
    """Write to ``fh`` the rows of the side-by-side ``columns``, 1-D or 2-D
    arrays of one length, as ``format_rows`` spells them, ``_WRITE_ROWS``
    rows at a time: the text in memory is one block's, not the table's."""
    for lo in range(0, len(columns[0]), _WRITE_ROWS):
        block = slice(lo, lo + _WRITE_ROWS)
        fh.write(format_rows(np.column_stack([c[block] for c in columns]),
                             None if labels is None else labels[block], sep))


def format_rows(values, labels=None, sep: str = " ") -> str:
    """One text row per row of the 2-D ``values``: each cell is the ``str``
    of its Python number, which is its ``repr`` (for floats the shortest
    form that reads back exactly), joined by ``sep`` after ``str(label)``
    when ``labels`` is given.  All rows are spelled by one ``%`` format."""
    values = np.asarray(values)
    if labels is not None:
        values = np.column_stack([np.asarray(labels, object), values.astype(object)])
    n, ncols = values.shape
    row = sep.replace("%", "%%").join(["%s"] * ncols) + "\n"
    return row * n % tuple(values.ravel().tolist())


def write_report_json(path, obj: dict) -> None:
    """Canonical JSON (sorted keys, 2-space indent, trailing newline)."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
