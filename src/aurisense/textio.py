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
Every ASCII writer writes its body rows with ``write_rows``, and every JSON
file is written by ``write_report_json``.

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

Writers: ``write_rows`` writes every table row, and each cell as the
``repr`` of its Python number (for a float the shortest text that reads
back exactly).  A table is written in blocks of whole rows of about
``_SLICE`` cells, so the text held at once stays one block's.  A block of
float16, float32 or float64 cells, labelled or not, is spelled by array
passes: Schubfach's shortest correctly rounded digits on uint64 arrays,
then one layout template per cell (notation, decimal-point place, digit
count) masks a fixed field of those digits, and the NULs between the kept
bytes are dropped; a subnormal, infinite or NaN cell takes its ``repr`` in
its own field.  Each pass drops its result once nothing reads it, and the
digit and template gathers land in the block's fields and index buffer, so
the kernel holds at most about 18 arrays of a word a cell at once.  A block
of integers >= 0 with no labels is spelled by table lookup: each cell's
base-10**4 digits index one cached table of the 10 000 four-byte groups,
each group in a uint32 lane followed by a separator lane, and the same
NUL-dropping pass ends the block.  Any other table, and a separator the
fields cannot hold, raises ``ValueError`` before a row is written.

``write_report_json`` writes the bytes of ``json.dumps(obj, indent=2,
sort_keys=True, allow_nan=False)`` and a newline, whose pure-Python encoder
(the one ``json`` runs with ``indent``) costs a generator step per token.
The items of a list, or the values of a dict, that are all plain
(numbers, bools and None) are spelled by one call of json's C encoder,
whose text is split at ``", "``, which no plain token holds; all strings,
and dict keys, by ``encode_basestring_ascii``; and the items of any other
list or dict one at a time.  A key that is not a ``str`` raises
``TypeError`` where ``json`` would coerce it.
"""

from __future__ import annotations

import functools
import json
import warnings
from itertools import compress, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

# cells per block of ``write_rows``, which bounds the text and temporaries
# held at once (about 1.9 MB traced at 8192, of which the float kernel's
# temporaries are 1.2 MB).  Of 4096, 8192 and 16384, 8192
# wrote the ear-fine contour PLY (22 801 x 4 floats, 45 000 face rows) and a
# 4 800 x 13 cohort CSV fastest, in alternating runs on one CPU of a 2-vCPU
# Xeon with glibc's mmap threshold raised, as earlier large arrays raise it
_SLICE = 8192


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
    """Write to ``fh`` one text row per row of the side-by-side ``columns``,
    1-D or 2-D arrays of one length: the ``repr`` of each cell's Python
    number, joined by ``sep`` after ``str(label)`` when ``labels`` is given.
    Rows go in blocks of whole rows of about ``_SLICE`` cells, so the text in
    memory is one block's.  Cells are float16, float32 or float64, spelled by
    ``_float_fields``, or integers >= 0 with no labels, spelled by
    ``_whole_rows`` from the 4-digit groups of ``_group_table``; any other
    cells, no columns, or a ``sep`` of over 3 bytes or holding a NUL or a
    line break raise ``ValueError`` before a row is written."""
    head = np.column_stack([c[:0] for c in columns])
    n, ncols = len(columns[0]), head.shape[1]
    tail = sep.encode()
    if len(tail) > 3 or b"\0" in tail or "\n" in sep or "\r" in sep:
        raise ValueError(f"the separator {sep!r} is over 3 bytes or holds a NUL or a line break")
    whole = (head.dtype.kind in "iu" and labels is None
             and min(np.min(c, initial=0) for c in columns) >= 0)
    if not ncols or not (whole or head.dtype.kind == "f" and head.itemsize <= 8):
        raise ValueError(f"cannot write {ncols} {head.dtype} cells a row"
                         f"{'' if labels is None else ' with labels'}: only floats of up to "
                         f"64 bits, or integers >= 0 with no labels")
    rows = max(1, _SLICE // ncols)
    if not whole:
        ends = np.full(ncols, int.from_bytes(tail, "little") << 40, _LANE)
        ends[-1] = ord("\n") << 40
        ends = np.tile(ends, min(rows, n))
        fields = np.empty((ends.size, _FIELD), _LANE)
        labelled = "%s" + sep.replace("%", "%%") + "%s\n"
    for lo in range(0, n, rows):
        values = np.column_stack([c[lo:lo + rows] for c in columns])
        if whole:
            fh.write(_whole_rows(values, sep))
            continue
        x = values.astype(np.float64, copy=False).ravel()
        out = fields[:x.size]
        _float_fields(x, out)
        out[:, 5] |= ends[:x.size]
        text = out.tobytes().translate(None, b"\0").decode()
        if labels is not None:
            cells = [None] * (2 * len(values))
            cells[::2] = labels[lo:lo + rows]
            cells[1::2] = text.split("\n")[:-1]
            text = labelled * len(values) % tuple(cells)
        fh.write(text)


def _whole_rows(values, sep: str) -> str:
    """The rows ``write_rows`` writes of a 2-D array of integers >= 0, by
    table lookup: each cell is split into as many base-10**4 groups as the
    largest cell has, each group's uint32 lane is looked up in
    ``_group_table``, a lane holding ``sep``, or ``\\n`` after a row's last
    cell, follows the cell, and the NULs are dropped.  A group after a
    nonzero one is spelled as four digits, the first nonzero one with its
    leading zeros as NULs, and a zero group before that as no byte, unless
    it is the cell's last (the cell 0)."""
    groups = -(-len(str(values.max())) // 4)
    if values.dtype != np.uint64:  # int64 holds 10**4 and every table index
        values = values.astype(np.int64, copy=False)
    lanes = np.empty(values.shape + (groups + 1,), "<u4")
    lanes[..., groups] = int.from_bytes(sep.encode(), "little")
    lanes[:, -1, groups] = ord("\n")
    table = _group_table()
    rest = values
    for k in range(groups - 1, 0, -1):  # the groups after the first, last group first
        high = rest // 10 ** 4
        # the table row: 2 after a nonzero higher group, else 1 in the last
        # lane and 0 in the others; the entry, group + 10**4 * row, is
        # rest - (high - row) * 10**4, which uint64 wraps back into range
        row = np.add(high > 0, rest > 0 if k < groups - 1 else True, dtype=rest.dtype)
        lanes[..., k] = np.take(table, rest - (high - row) * 10 ** 4)
        rest = high
    lanes[..., 0] = np.take(table, rest + (groups == 1) * 10 ** 4)  # row 1 if also the last
    return lanes.tobytes().translate(None, b"\0").decode()


@functools.cache
def _group_table():
    """The uint32 lanes of the 10 000 base-10**4 groups 0..9999, four ASCII
    bytes each, built on first use, in three rows of one table: with their
    leading zeros as NULs and 0 as no byte (row 0), the same with 0 as
    ``0`` (row 1), and as four digits (row 2)."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), "<u2")  # "00".."99"
    lanes = np.empty((3, 100, 100, 2), "<u2")
    lanes[..., 0] = pairs[:, None]
    lanes[..., 1] = pairs
    decimals = lanes.view(np.uint8).reshape(3, 10 ** 4, 4)
    for place, below in enumerate([1000, 100, 10]):  # the leading zeros of rows 0 and 1
        decimals[:2, :below, place] = 0
    decimals[0, 0, 3] = 0
    return lanes.reshape(-1).view("<u4")


# The float writer.  Each cell fills a field of 48 bytes, six little-endian
# uint64 lanes: [sign, "0.000", D0, "."], the digits D1..D16 each followed
# by ".", and ["e", exponent sign, exponent digits, sep].  A layout template
# is a byte mask over the field that keeps the bytes of one (notation,
# decimal-point place, digit count); the NULs it leaves are then dropped.
_FIELD = 6     # uint64 lanes per cell
_LANE = np.dtype("<u8")
_M32 = np.uint64(2 ** 32 - 1)
_M52 = np.uint64(2 ** 52 - 1)
_M63 = np.uint64(2 ** 63 - 1)
_ONE = np.uint64(0x3FF0000000000000)  # the bits of 1.0
_QUADS = 20                           # table index of the first 4-digit group
_EXPS = _QUADS + 10 ** 4              # table index of exponent -308


def _flog2pow10(e):
    """floor(e * log2(10)) by integer arithmetic, as Java's Schubfach takes
    it; exact for the |e| <= 324 used here."""
    return e * 913124641741 >> 38


@functools.cache
def _float_tables():
    """The float writer's tables, built on its first call: Schubfach's
    126-bit g = floor(10**-k * 2**-r) + 1, r = floor(log2(10**-k)) - 125, as
    63-bit halves for k = -324..292; the lane contents (sign and first digit,
    4-digit groups, exponents); each 4-digit group's place of its last
    nonzero digit; and the 396 layout masks, keyed (decimal-point place
    clipped to -4..17, digit count)."""
    g = []
    for k in range(-324, 293):
        r = _flog2pow10(-k) - 125
        num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
        g.append((num << max(-r, 0)) // (den << max(r, 0)) + 1)
    g1 = np.array([x >> 63 for x in g], np.uint64)
    g0 = np.array([x & (2 ** 63 - 1) for x in g], np.uint64)
    digits = np.arange(10 ** 4)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = np.full((10 ** 4, 8), ord("."), np.uint8)
    quads[:, ::2] = digits + ord("0")
    heads = [b"%c0.000%c." % (sign, digit) for sign in b"\0-" for digit in b"0123456789"]
    exps = [b"e%c%s%02d\0\0\0" % (43 + 2 * (e < 0), b"%d" % (abs(e) // 100) if abs(e) >= 100
                                   else b"\0", abs(e) % 100) for e in range(-308, 309)]
    lanes = np.frombuffer(b"".join(heads) + quads.tobytes() + b"".join(exps), _LANE)
    places = np.zeros(len(lanes), np.uint8)
    places[_QUADS:_EXPS] = np.where(digits != 0, np.arange(1, 5), 0).max(axis=1)
    masks = np.zeros((22, 18, 8 * _FIELD), np.uint8)
    for point in range(-4, 18):
        for n in range(1, 18):
            keep = [0] + [6 + 2 * i for i in range(n)]  # the sign, digits D0..D(n-1)
            if point in (-4, 17):  # exponent notation: "1e+16", "1.5e-05"
                keep += [7] * (n > 1) + [40, 41, 42, 43, 44]
            elif point <= 0:       # "0.001"
                keep += list(range(1, 3 - point))
            else:                  # "12.5", "100.0": zeros up to the point, and one after
                keep += [6 + 2 * i for i in range(n, point + 1)] + [5 + 2 * point]
            masks[point + 4, n, keep] = 0xFF
    return g1, g0, lanes, places, masks.reshape(-1, 8 * _FIELD).view(_LANE)


def _float_fields(x, out) -> None:
    """Write into the ``(N, 6)`` lanes ``out`` the fields of the float64
    cells ``x``: the digits of ``_shortest`` masked by each cell's layout
    template.  A zero is spelled ``0.0``.  A subnormal, infinite or NaN cell
    takes its ``repr``: ``_shortest`` reads normal numbers only (Java's
    Schubfach spells 5e-324 as 4.9E-324)."""
    g1, g0, lanes, places, masks = _float_tables()
    bits = x.view(np.uint64)
    size = bits & _M63
    normal = (size >> 52) - 1 < 2046
    zero = size == 0
    np.copyto(size, _ONE, where=~normal)
    digits, point = _shortest(size, g1, g0)
    del size
    digits[zero] = 0  # 1.0 has the point of 0.0
    high = digits // 10 ** 8
    first = high // 10 ** 8
    index = np.empty((len(x), _FIELD), np.int64)
    index[:, 0] = (bits >> 63).view(np.int64) * 10 + first
    eights = np.empty((len(x), 2), np.int64)  # D1..D8 and D9..D16
    eights[:, 0] = high - first * 10 ** 8
    eights[:, 1] = digits - high * 10 ** 8
    del digits, high, first
    fours = eights // 10 ** 4
    index[:, 1:5:2] = fours + _QUADS
    index[:, 2:5:2] = eights - fours * 10 ** 4 + _QUADS
    del eights, fours
    index[:, 5] = point + (_EXPS + 307)  # the exponent point - 1 from -308
    # the digit count: one more than the place of the last nonzero digit
    last = np.take(places, index[:, 1:5])
    last = (last + np.array([0, 4, 8, 12], np.uint8)) * (last > 0)
    count = np.maximum(np.maximum(last[:, 0], last[:, 1]), np.maximum(last[:, 2], last[:, 3])) + 1
    key = (np.clip(point, -4, 17) + 4) * 18 + count
    # every index is in range: mode "clip" gathers straight into ``out``,
    # where the default mode would gather into a copy first
    np.take(lanes, index, out=out, mode="clip")
    template = index.view(_LANE)
    np.take(masks, key, axis=0, out=template, mode="clip")
    out &= template
    for i in np.flatnonzero(~normal & ~zero):
        text = repr(float(x[i])).encode()
        field = out[i].view(np.uint8)
        field[:] = 0
        field[:len(text)] = np.frombuffer(text, np.uint8)


def _shortest(bits, g1, g0):
    """The shortest decimals that read back as the positive normal float64
    numbers of ``bits``, nearest to them and even on a tie, as ``(digits,
    point)``: int64 arrays, each number being 0.D0D1..D16 * 10**point with
    ``digits`` = D0D1..D16, trailing zeros included.

    This is Schubfach (R. Giulietti, "The Schubfach way to render doubles",
    2020) as in its Java implementation, on uint64 arrays: the products of
    the 126-bit g with the scaled significand cp are exact 128-bit products
    built from 32-bit halves, and those of the bounds cp -+ 2**s are made
    from them by adding -+g * 2**s.  Java's test of s >= 100 is left out:
    for a normal number s >= 2**52."""
    e = (bits >> 52).view(np.int64)
    t = bits & _M52
    c = t | (_M52 + 1)
    q = e - 1075
    asym = (t == 0) & (e > 1)  # a power of two: the gap below is half the gap above
    k = (q * 661971961083 - asym * 274743187321) >> 41  # floor(log10(2**q)), or of 3/4 of it
    h = (q + _flog2pow10(-k) + 2).view(np.uint64)  # 1 to 4
    del e, t, q
    g1, g0 = np.take(g1, k + 324), np.take(g0, k + 324)
    cp = c << (h + 2)
    ch, cl = cp >> 32, cp & _M32
    y1, y0 = _mulhi(g1 >> 32, g1 & _M32, ch, cl), g1 * cp
    x1, x0 = _mulhi(g0 >> 32, g0 & _M32, ch, cl), g0 * cp
    del cp, ch, cl
    vb = _round_odd(y1, y0, x1)
    shift = h + 1
    del h
    vbr = _bound(y1, y0, x1, x0, g1, g0, shift, np.add, np.less)
    shift -= asym  # below a power of two the lower bound is cp - 2**h
    vbl = _bound(y1, y0, x1, x0, g1, g0, shift, np.subtract, np.greater)
    del y1, y0, x1, x0, g1, g0, shift
    odd = c & 1  # an odd significand excludes its bounds
    vbl += odd
    vbr -= odd
    s = vb >> 2
    s4 = s << 2
    uin, win = vbl <= s4, s4 + 4 <= vbr
    tie = (vb & 3) + (s & 1) > 2  # s + 1 is nearer, or as near and even
    f = s + (tie ^ ((tie ^ win) & (uin != win)))
    sp10 = s // 10 * 10
    wpin = (sp10 << 2) + 40 <= vbr
    f = np.where((vbl <= sp10 << 2) != wpin, sp10 + wpin * np.uint64(10), f)
    short = f < 10 ** 16  # f has 16 or 17 digits: scale it to 17
    f += f * 9 * short
    return f.view(np.int64), k + 17 - short


def _bound(y1, y0, x1, x0, g1, g0, shift, op, carry):
    """Java's rop of g * (cp -+ 2**shift), rounded as ``_round_odd`` rounds,
    from the words (y1, y0) and (x1, x0) of g1 * cp and g0 * cp: ``op`` is
    ``np.add`` or ``np.subtract`` and ``carry`` the matching ``np.less`` or
    ``np.greater``, which finds the carry or borrow out of the low word."""
    down = 64 - shift
    y0s, y1s = g1 << shift, g1 >> down
    op(y0, y0s, out=y0s)
    op(y1, y1s, out=y1s)
    op(y1s, carry(y0s, y0), out=y1s)
    x0s, x1s = g0 << shift, g0 >> down
    op(x0, x0s, out=x0s)
    op(x1, x1s, out=x1s)
    op(x1s, carry(x0s, x0), out=x1s)
    del down, x0s
    return _round_odd(y1s, y0s, x1s)


def _mulhi(ah, al, bh, bl):
    """The high word of (ah * 2**32 + al) * (bh * 2**32 + bl), both factors
    below 2**63, from their 32-bit halves."""
    t = al * bh + ((al * bl) >> 32)
    u = ah * bl + (t & _M32)
    return ah * bh + (t >> 32) + (u >> 32)


def _round_odd(y1, y0, x1):
    """Java's rop: g * cp / 2**127 rounded to odd, g = g1 * 2**63 + g0, from
    the words (y1, y0) of g1 * cp and the high word x1 of g0 * cp."""
    z = y0 >> 1
    z += x1
    r = z >> 63
    r += y1
    z &= _M63
    z += _M63
    z >>= 63
    r |= z
    return r


def write_report_json(path, obj: dict) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``
    and a newline, by ``_json_text``.  The whole text is built before the
    file is opened: a NaN or infinite float raises ``ValueError`` (strict
    JSON has no token for it), and a dict key that is not a ``str``, which
    ``json`` would coerce, raises ``TypeError``."""
    text = _json_text(obj, "") + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# json's C encoder of plain values, built once where ``JSONEncoder.encode``
# builds one on each call; ``_PLAIN.encode`` stands in without the C module
_PLAIN = json.JSONEncoder(allow_nan=False)
_C_PLAIN = c_make_encoder and c_make_encoder(None, _PLAIN.default, encode_basestring_ascii, None,
                                             ": ", ", ", False, False, False)
_PLAIN_TYPES = {int, float, bool, type(None)}


def _json_text(obj, indent: str) -> str:
    """The text ``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``
    gives ``obj`` where its first line starts with ``indent``."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        try:
            keys = sorted(obj)
            heads = list(map(encode_basestring_ascii, keys))
        except TypeError:
            raise TypeError("JSON object keys must be str") from None
        items = _json_items(list(map(obj.__getitem__, keys)), inner)
        return ("{\n" + inner + (",\n" + inner).join(map(": ".join, zip(heads, items)))
                + "\n" + indent + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[\n" + inner + (",\n" + inner).join(_json_items(obj, inner)) + "\n" + indent + "]"
    return _json_plain([obj])[0]


def _json_items(values, indent: str) -> list:
    """The text of each item of the list or tuple ``values``, as
    ``_json_text`` spells it: all plain items by one C-encoder call, all
    strings by ``encode_basestring_ascii``, and the items of any other list
    one at a time."""
    types = set(map(type, values))
    if types <= _PLAIN_TYPES:
        return _json_plain(values)
    if types == {str}:
        return list(map(encode_basestring_ascii, values))
    return [_json_text(v, indent) for v in values]


def _json_plain(values) -> list:
    """The JSON token of each plain value of the list or tuple ``values``, by
    one call of json's C encoder; any other value raises as ``json.dumps``
    does."""
    if not values:
        return []
    text = "".join(_C_PLAIN(values, 0)) if _C_PLAIN else _PLAIN.encode(values)
    return text[1:-1].split(", ")
