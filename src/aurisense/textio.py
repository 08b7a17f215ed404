"""Text tables: the one path between the package's ASCII files and arrays.

The OBJ, AP template, dataset and values CSV readers read their file with
``read_lines`` and parse its body rows with ``table``.  The PLY reader
reads its header rows from an open text handle, where a header fault is
raised at its line, and each table from that same handle with
``file_table``, with no string kept per row.  Only when a table does not
read or a byte is not UTF-8 does it take ``read_lines``, and run ``table``,
which alone finds the line of a row that does not parse, on the body rows.
A row that reads but breaks a later check is named by ``require``, and a
label that repeats an earlier row's by ``require_unique``; the PLY reader,
which keeps no line list, passes ``require`` a ``FileLines``.
Every ASCII writer writes its body rows with ``write_rows``.

Parse rule: a file is UTF-8 text, less one leading byte-order mark (a
U+FEFF anywhere else is text, which no cell or keyword matches), split
into lines at ``\n``, ``\r\n`` or ``\r`` and counted from 1; lines are
stripped, and blank lines and, in formats that have them, ``#`` comment
lines are skipped.  A body row is a fixed number of cells of one dtype,
split on any run of whitespace or on a separator, optionally after one
string label cell.  The cells of all rows are read by ``np.loadtxt`` in
one pass, with comments and quoting off, so a cell is an ASCII decimal
number (``nan`` and ``inf`` included for floats, and no fraction or
exponent for integers): ``1#2``, ``1_0`` and non-ASCII digits such as
``١``, which Python's ``float`` and ``int`` accept, are faults, and so is
``1.5`` in an integer table, which some numpy versions read as 1 with only
a warning.  Only when that read fails are the rows counted and read one at
a time to find the row at fault.

Line-number contract: a fault in one row, or a byte that is not UTF-8,
raises the caller's ``AurisenseError`` subclass with ``.line`` set to
that line; a fault of the whole file, such as a truncated body, carries
``line=None``.

Writer: each cell is written as the ``repr`` of its Python number (for a
float the shortest text that reads back exactly).  A table is written in
blocks of ``_WRITE_ROWS`` rows, so the text held at once stays one block's.
A block of integers >= 0 with no labels is spelled by array passes over its
cells' decimal digits; any other block by one ``%`` format of a row
template repeated once per row.
"""

from __future__ import annotations

import json
import warnings
from itertools import compress, repeat

import numpy as np

_WRITE_ROWS = 4096  # rows per block of ``write_rows``


def _split_lines(text: str) -> list:
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def read_lines(path, error, comment: str | None = None):
    """The kept rows of a UTF-8 text file and their 1-based line numbers.

    A leading byte-order mark is dropped.  Rows are stripped; blank rows
    and, when ``comment`` is given, rows starting with it are dropped.
    Returns ``(rows, lines)``: a list of
    str and an int array.  A byte that is not UTF-8 raises ``error`` naming
    its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        data = exc.object  # the bytes after a leading byte-order mark
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


def require_unique(labels, lines, error) -> None:
    """Raise ``error`` naming the line of the first label that repeats an
    earlier one."""
    seen = set()
    for label, line in zip(labels, lines):
        if label in seen:
            raise error(f"the row repeats the label '{label}'", line=int(line))
        seen.add(label)


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


def file_table(fh, nrows: int, ncols: int, dtype):
    """The ``(nrows, ncols)`` array of ``dtype`` on the next ``nrows`` rows
    of the open text handle ``fh``, blank lines skipped as ``read_lines``
    skips them, or None if they are not one.  Reads nothing past them."""
    return _read(fh, ncols, dtype, nrows=nrows)


class FileLines:
    """The line numbers of the rows of a file from its ``first`` kept row
    on, as ``read_lines(path, error)`` counts them; the file is read only
    when one is looked up, which ``require`` does as it raises."""

    def __init__(self, path, error, first: int):
        self.path, self.error, self.first = path, error, first

    def __getitem__(self, i):
        return read_lines(self.path, self.error)[1][self.first + i]


def _read(body, ncols: int, dtype, sep=None, nrows=None):
    """The ``(nrows, ncols)`` array of the cells of ``body``, or None if
    they are not one: ``body`` is a list of rows, all of them read, or an
    open text handle, whose next ``nrows`` rows are read."""
    if nrows is None:
        nrows = len(body)
        if not all(body):  # np.loadtxt would skip a blank row
            return None
    if not nrows:
        return np.empty((0, ncols), dtype)
    # numpy 1.23 to 2.x read an integer cell such as '1.5' as a float and
    # truncate it, with only a DeprecationWarning: that cell is a fault.
    # Its UserWarnings, on a blank line not counted towards ``max_rows`` or
    # on no data, are not: the shape below decides
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        warnings.simplefilter("ignore", UserWarning)
        try:
            values = np.loadtxt(body, dtype, delimiter=sep, comments=None,
                                quotechar=None, ndmin=2, max_rows=nrows,
                                encoding="utf-8")
        except (ValueError, OverflowError, DeprecationWarning):
            return None
    return values if values.shape == (nrows, ncols) else None


def write_rows(fh, columns, labels=None, sep: str = " ") -> None:
    """Write to ``fh`` the rows of the side-by-side ``columns``, 1-D or 2-D
    arrays of one length, as ``format_rows`` spells them, ``_WRITE_ROWS``
    rows at a time: the text in memory is one block's, not the table's.
    A block of integers >= 0 with no labels is spelled by ``_whole_rows``."""
    for lo in range(0, len(columns[0]), _WRITE_ROWS):
        block = slice(lo, lo + _WRITE_ROWS)
        values = np.column_stack([c[block] for c in columns])
        if labels is None and values.dtype.kind in "iu" and values.min() >= 0:
            fh.write(_whole_rows(values, sep))
        else:
            fh.write(format_rows(values, None if labels is None else labels[block], sep))


def _whole_rows(values, sep: str) -> str:
    """``format_rows(values, sep=sep)`` of a 2-D array of integers >= 0, by
    array passes: repeated ``divmod`` puts each cell's digits right-aligned
    in a field of NULs as wide as the largest cell, ``sep`` follows each cell
    but a row's last, which ``\\n`` follows, and the NULs are dropped."""
    width = len(str(values.max()))
    tail = sep.encode()
    cells = np.zeros(values.shape + (width + len(tail),), np.uint8)
    cells[..., width - 1] = ord("0")  # the one digit of a 0
    for k in range(width - 1, -1, -1):
        rest, digit = np.divmod(values, 10)
        np.copyto(cells[..., k], digit + ord("0"), casting="unsafe", where=values > 0)
        values = rest
    cells[..., width:] = np.frombuffer(tail, np.uint8)
    cells[:, -1, width:] = 0
    cells[:, -1, width] = ord("\n")
    return cells.tobytes().replace(b"\0", b"").decode()


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
    """Canonical JSON (sorted keys, 2-space indent, trailing newline).  A NaN
    or infinite float raises ``ValueError``: strict JSON has no token for it."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
