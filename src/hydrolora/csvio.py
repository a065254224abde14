"""The one CSV format of every dataset this package writes.

A header line, then one line per row; ``\\n`` line ends; UTF-8.  Numbers are
written as ``repr`` of the Python int or float; text fields are quoted exactly
as ``csv.writer`` quotes them.

A file is built column by column.  Each column is a pair (table, index) of one
of two kinds: a lookup (``text``), whose row r holds ``table[index[r]]``, a
field formatted once per table entry; or numbers (``floats``, table None), one
per row, each written as ``repr``.
"""

from __future__ import annotations

import contextlib
import csv
import sys
from types import SimpleNamespace

import numpy as np

_ROWS_PER_WRITE = 1 << 13  # rows formatted at a time, which bounds the memory of the strings


def text(values, index=None):
    """A column of ``values`` as ``csv.writer`` writes them (numbers as ``repr``);
    row r holds ``values[index[r]]``, by default ``values[r]``."""
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")  # writerow returns the line
    table = np.array([writer.writerow([value, ""])[:-2] for value in values], dtype=object)
    return table, np.arange(len(table)) if index is None else index


def floats(values):
    """A column of numbers written as ``repr(float(value))``."""
    return None, np.asarray(values, dtype=np.float64)


def write_csv(path, header: str, columns) -> None:
    """Write ``header`` and then the rows of ``columns`` to ``path``, or to
    stdout when ``path`` is None."""
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", encoding="utf-8", newline="")) as handle:
        handle.write(header + "\n")
        for lo in range(0, len(columns[0][1]), _ROWS_PER_WRITE):
            part = slice(lo, lo + _ROWS_PER_WRITE)
            fields = [list(map(repr, index[part].tolist())) if table is None else table[index[part]].tolist()
                      for table, index in columns]
            handle.write("\n".join(map(",".join, zip(*fields))) + "\n")
