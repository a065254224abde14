"""The one CSV format of every dataset this package writes.

A header line, then one line per row; ``\\n`` line ends; UTF-8.  Numbers are
written as ``repr`` of the Python int or float; text fields are quoted exactly
as ``csv.writer`` quotes them.

A file is built column by column.  Each column is a pair (table, index) of one
of three kinds: a lookup (``text``), whose row r holds ``table[index[r]]``, a
field formatted once per table entry; numbers (``floats``, table None), one
per row, each written as ``repr``; or a function (table callable) that
returns the fields of a block of ``index``, called a write block at a time.
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
    table = np.array([repr(value) if type(value) in (int, float) else writer.writerow([value, ""])[:-2]
                      for value in values], dtype=object)
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
            fields = [_fields(table, index[part]) for table, index in columns]
            handle.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _fields(table, index) -> list[str]:
    """One write block of a column."""
    if table is None:
        return list(map(repr, index.tolist()))
    return table(index) if callable(table) else table[index].tolist()
