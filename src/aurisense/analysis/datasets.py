"""Dataset CSV format and JSON report writing.

CSV layout: optional ``#``-prefixed comment lines, then a header
``label,AP1,...,APN``, then one row per dataset with a label and N decimal
floats; the contour values file is the one-column case ``label,value``.
Floats are written with ``repr`` so identical data reproduces
byte-identical files.  Reading follows the parse rule and line-number
contract of ``aurisense.textio``: blank and ``#`` lines are skipped, and
a bad header or row raises ``DatasetFormatError`` naming its line.
"""

from __future__ import annotations

import numpy as np

from ..errors import DatasetFormatError
from ..textio import format_rows, read_lines, table, write_report_json

__all__ = ["read_dataset_csv", "write_dataset_csv", "write_report_json"]


def write_dataset_csv(path, labels, rows, comments=()) -> None:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] != len(labels):
        raise ValueError("rows must be (M, N) with one label per row")
    n = rows.shape[1]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write("label," + ",".join(f"AP{i + 1}" for i in range(n)) + "\n")
        fh.write(format_rows(rows, labels=labels, sep=","))


def read_dataset_csv(path):
    """Parse a dataset CSV; returns (labels, rows).

    Raises ``DatasetFormatError`` naming the file line of the first
    malformed row.
    """
    rows, lines = read_lines(path, DatasetFormatError, comment="#")
    if not rows:
        raise DatasetFormatError("file has no header")
    header = rows[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise DatasetFormatError("header must be 'label,<column>,...'", line=int(lines[0]))
    if len(rows) < 2:
        raise DatasetFormatError("file has no data rows")
    return table(rows[1:], lines[1:], len(header) - 1, np.float64, DatasetFormatError,
                 sep=",", label=True)
