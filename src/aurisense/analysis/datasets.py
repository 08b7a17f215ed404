"""Dataset CSV format and JSON report writing.

CSV layout: optional ``#``-prefixed comment lines, then a header
``label,AP1,...,APN``, then one row per dataset with a label and N decimal
floats; the contour values file is the one-column case ``label,value``.
Labels are unique in both: a row whose label repeats an earlier row's
exactly is a fault (``S01-l`` after ``S01-L`` is not).
Floats are written with ``repr`` so identical data reproduces
byte-identical files.  The writer writes only what the reader reads back
as it was, and raises ``ValueError`` before it opens the file for anything
else: each cell is finite, and each label is a ``str`` of UTF-8 text that
holds no ``,``, ``\\n`` or ``\\r`` and starts with neither ``#`` nor
whitespace.  Reading follows the parse rule and line-number contract of
``aurisense.textio``: blank and ``#`` lines are skipped, and
a bad header or row raises ``DatasetFormatError`` naming its line.
"""

from __future__ import annotations

import re

import numpy as np

from ..errors import DatasetFormatError
from ..textio import read_lines, require, require_unique, table, write_report_json, write_rows

__all__ = ["read_dataset_csv", "write_dataset_csv", "write_report_json"]

_BAD_START = re.compile(r",[#\s]")  # a label after "," that starts with "#" or whitespace


def write_dataset_csv(path, labels, rows, comments=()) -> None:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] != len(labels):
        raise ValueError("rows must be (M, N) with one label per row")
    if not np.isfinite(rows).all():
        raise ValueError("rows hold a NaN or infinite cell, which the reader rejects")
    text = ",".join(labels)
    text.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
    if ("\n" in text or "\r" in text or text.count(",") > max(len(labels) - 1, 0)
            or _BAD_START.search("," + text)):
        raise ValueError("a label holds ',', '\\n' or '\\r', or starts with '#' or "
                         "whitespace: the reader would not read it back")
    n = rows.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write("label," + ",".join(f"AP{i + 1}" for i in range(n)) + "\n")
        write_rows(fh, [rows], labels=labels, sep=",")


def read_dataset_csv(path):
    """Parse a dataset CSV; returns (labels, rows).

    Raises ``DatasetFormatError`` naming the line of the first malformed
    row, row with a ``nan`` or ``inf`` cell, or repeat of a label.
    """
    rows, lines = read_lines(path, DatasetFormatError, comment="#")
    if not rows:
        raise DatasetFormatError("file has no header")
    header = rows[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise DatasetFormatError("header must be 'label,<column>,...'", line=int(lines[0]))
    if len(rows) < 2:
        raise DatasetFormatError("file has no data rows")
    labels, values = table(rows[1:], lines[1:], len(header) - 1, np.float64,
                           DatasetFormatError, sep=",", label=True)
    require(np.isfinite(values).all(axis=1), lines[1:], DatasetFormatError, "non-finite cell")
    require_unique(labels, lines[1:], DatasetFormatError)
    return labels, values
