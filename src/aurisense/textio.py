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

Writers: each cell is written as the ``repr`` of its Python number (for a
float the shortest text that reads back exactly).  A table is written in
blocks of ``_WRITE_ROWS`` rows, so the text held at once stays one block's.
A block of float16, float32 or float64 cells, labelled or not, is spelled
by array passes over slices of whole rows of about ``_SLICE`` cells:
Schubfach's shortest correctly rounded digits on uint64 arrays, then one
layout template per cell (notation, decimal-point place, digit count)
masks a fixed field of those digits, and the NULs between the kept bytes
are dropped from each slice as it is filled; a subnormal, infinite or NaN
cell takes its ``repr`` in its own field.  A block of integers >= 0 with no
labels is spelled by array passes over its cells' decimal digits; any other
block by one ``%`` format of a row template repeated once per row.

``write_report_json`` writes the bytes of ``json.dumps(obj, indent=2,
sort_keys=True, allow_nan=False)`` and a newline, whose pure-Python encoder
(the one ``json`` runs with ``indent``) costs a generator step per token.
It spells the plain values of a list or a dict (numbers, bools and None)
by one call of json's C encoder and splits its text at ``", "``, which no
plain token holds, and strings and dict keys by ``encode_basestring_ascii``;
only containers are spelled one at a time.  A key that is not a ``str``
raises ``TypeError`` where ``json`` would coerce it.
"""

from __future__ import annotations

import functools
import json
import operator
import warnings
from itertools import compress, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

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
    A block of integers >= 0 with no labels is spelled by ``_whole_rows``,
    and a block of floats by ``format_rows``'s ``_float_rows``."""
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
    return cells.tobytes().translate(None, b"\0").decode()


def format_rows(values, labels=None, sep: str = " ") -> str:
    """One text row per row of the 2-D ``values``: each cell is the ``str``
    of its Python number, which is its ``repr`` (for floats the shortest
    form that reads back exactly), joined by ``sep`` after ``str(label)``
    when ``labels`` is given.  Float16, float32 and float64 cells are spelled
    by ``_float_rows`` when ``sep`` fits its field (at most 3 bytes, no NUL,
    and no line break if there are labels); all other rows by one ``%``
    format."""
    values = np.asarray(values)
    n, ncols = values.shape
    tail = sep.encode()
    if (values.dtype.kind == "f" and values.itemsize <= 8 and ncols
            and len(tail) <= 3 and b"\0" not in tail and (labels is None or "\n" not in sep)):
        text = _float_rows(values, tail)
        if labels is None:
            return text
        cells = [None] * (2 * n)
        cells[::2] = labels
        cells[1::2] = text.split("\n")[:-1]
        return ("%s" + sep.replace("%", "%%") + "%s\n") * n % tuple(cells)
    if labels is not None:
        values = np.column_stack([np.asarray(labels, object), values.astype(object)])
        ncols += 1
    row = sep.replace("%", "%%").join(["%s"] * ncols) + "\n"
    return row * n % tuple(values.ravel().tolist())


# The float writer.  Each cell fills a field of 48 bytes, six little-endian
# uint64 lanes: [sign, "0.000", D0, "."], the digits D1..D16 each followed
# by ".", and ["e", exponent sign, exponent digits, sep].  A layout template
# is a byte mask over the field that keeps the bytes of one (notation,
# decimal-point place, digit count); the NULs it leaves are then dropped.
_SLICE = 4096  # cells per kernel pass: its uint64 temporaries stay in cache
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


def _float_rows(values, tail: bytes) -> str:
    """``format_rows(values, sep=tail.decode())`` of a 2-D float array, by
    array passes: ``_float_fields`` fills the fields of whole rows, about
    ``_SLICE`` cells at a time, ``tail`` follows each cell but a row's last,
    which ``\\n`` follows, and each slice's NULs are dropped as it is filled,
    so one slice's fields are held at a time."""
    n, ncols = values.shape
    rows = max(1, _SLICE // ncols)
    ends = np.full(ncols, int.from_bytes(tail, "little") << 40, _LANE)
    ends[-1] = ord("\n") << 40
    ends = np.tile(ends, min(rows, n))
    fields = np.empty((ends.size, _FIELD), _LANE)
    text = []
    for lo in range(0, n, rows):
        x = values[lo:lo + rows].astype(np.float64).ravel()
        out = fields[:x.size]
        _float_fields(x, out)
        out[:, 5] |= ends[:x.size]
        text.append(out.tobytes().translate(None, b"\0"))
    return b"".join(text).decode()


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
    digits, point = _shortest(np.where(normal, size, _ONE), g1, g0)
    digits[zero] = 0  # 1.0 has the point of 0.0
    high = digits // 10 ** 8
    first = high // 10 ** 8
    index = np.empty((len(x), _FIELD), np.intp)
    index[:, 0] = (bits >> 63).view(np.int64) * 10 + first
    eights = np.empty((len(x), 2), np.int64)  # D1..D8 and D9..D16
    eights[:, 0] = high - first * 10 ** 8
    eights[:, 1] = digits - high * 10 ** 8
    fours = eights // 10 ** 4
    index[:, 1:5:2] = fours + _QUADS
    index[:, 2:5:2] = eights - fours * 10 ** 4 + _QUADS
    index[:, 5] = point + (_EXPS + 307)  # the exponent point - 1 from -308
    # the digit count: one more than the place of the last nonzero digit
    last = np.take(places, index[:, 1:5])
    last = (last + np.array([0, 4, 8, 12], np.uint8)) * (last > 0)
    count = np.maximum(np.maximum(last[:, 0], last[:, 1]), np.maximum(last[:, 2], last[:, 3])) + 1
    key = (np.clip(point, -4, 17) + 4) * 18 + count
    np.bitwise_and(np.take(lanes, index), np.take(masks, key, axis=0), out=out)
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
    g1, g0 = np.take(g1, k + 324), np.take(g0, k + 324)
    cp = c << (h + 2)
    ch, cl = cp >> 32, cp & _M32
    y1, y0 = _mulhi(g1 >> 32, g1 & _M32, ch, cl), g1 * cp
    x1, x0 = _mulhi(g0 >> 32, g0 & _M32, ch, cl), g0 * cp
    vb = _round_odd(y1, y0, x1)
    shift = h + 1
    down = 64 - shift
    d1, d0 = g1 << shift, g0 << shift
    ry0, rx0 = y0 + d1, x0 + d0
    vbr = _round_odd(y1 + (g1 >> down) + (ry0 < y0), ry0, x1 + (g0 >> down) + (rx0 < x0))
    shift -= asym  # below a power of two the lower bound is cp - 2**h
    down += asym
    d1, d0 = g1 << shift, g0 << shift
    ly0, lx0 = y0 - d1, x0 - d0
    vbl = _round_odd(y1 - (g1 >> down) - (ly0 > y0), ly0, x1 - (g0 >> down) - (lx0 > x0))
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


def _mulhi(ah, al, bh, bl):
    """The high word of (ah * 2**32 + al) * (bh * 2**32 + bl), both factors
    below 2**63, from their 32-bit halves."""
    t = al * bh + ((al * bl) >> 32)
    u = ah * bl + (t & _M32)
    return ah * bh + (t >> 32) + (u >> 32)


def _round_odd(y1, y0, x1):
    """Java's rop: g * cp / 2**127 rounded to odd, g = g1 * 2**63 + g0, from
    the words (y1, y0) of g1 * cp and the high word x1 of g0 * cp."""
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


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
_NESTED = (str, dict, list, tuple)


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
    ``_json_text`` spells it: plain items by one C-encoder call, strings by
    ``encode_basestring_ascii``, and only the containers one at a time."""
    types = set(map(type, values))
    if types <= _PLAIN_TYPES:
        return _json_plain(values)
    if types == {str}:
        return list(map(encode_basestring_ascii, values))
    nested = list(map(isinstance, values, repeat(_NESTED)))
    plain = iter(_json_plain(list(compress(values, map(operator.not_, nested)))))
    return [_json_text(v, indent) if n else next(plain) for v, n in zip(values, nested)]


def _json_plain(values) -> list:
    """The JSON token of each plain value of the list or tuple ``values``, by
    one call of json's C encoder; any other value raises as ``json.dumps``
    does."""
    if not values:
        return []
    text = "".join(_C_PLAIN(values, 0)) if _C_PLAIN else _PLAIN.encode(values)
    return text[1:-1].split(", ")
