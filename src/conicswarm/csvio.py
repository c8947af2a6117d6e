"""Numeric CSV input: one header line, then rows of numbers.

``read_numeric_csv`` reads every numeric table the program takes in: the
regression and mixture data files and swarm files. It parses all data rows
in one ``np.loadtxt`` pass, whose float conversion gives the bits of
Python's ``float`` on each cell. Cells may be quoted, lines may end in
``\\n``, ``\\r\\n`` or ``\\r``, and blank and whitespace-only lines are
skipped.
"""

from __future__ import annotations

import csv

import numpy as np

__all__ = ["read_numeric_csv"]

#: the dialect of the data rows, for ``np.loadtxt``
_DIALECT = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)


def read_numeric_csv(path, expected_header=None) -> tuple[list[str], np.ndarray]:
    """The header fields and the float array of the rows below them, shape
    ``(rows, len(header))``; it may have no rows.

    Raises ``ValueError`` naming the path for an empty file or a header whose
    stripped fields are not ``expected_header`` (when given), and naming the
    path and the 1-based line for a row with another field count than the
    header or a non-numeric cell.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        lines = fh.read().split("\n")
    if not first:
        raise ValueError(f"{path}: empty file")
    header = next(csv.reader([first]))
    if expected_header is not None and [h.strip() for h in header] != expected_header:
        raise ValueError(f"{path}: expected header {expected_header}, got {header}")
    data = [line for line in lines if line.strip()]
    if not data:
        return header, np.empty((0, len(header)))
    try:
        rows = np.loadtxt(data, **_DIALECT)
    except ValueError as exc:
        raise _row_error(path, lines, len(header), str(exc)) from exc
    if rows.shape[1] != len(header):
        raise _row_error(path, lines, len(header),
                         f"expected {len(header)} fields, got {rows.shape[1]}")
    return header, rows


def _row_error(path, lines, width: int, reason: str) -> ValueError:
    """The error naming the first data line with a field count other than
    ``width`` or a cell that ``float`` rejects; ``lines`` start at line 2.
    Names the path alone with ``reason`` if no line fails those checks."""
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        fields = next(csv.reader([line]))
        if len(fields) != width:
            return ValueError(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
        try:
            [float(v) for v in fields]
        except ValueError as cell:
            return ValueError(f"{path}:{lineno}: non-numeric cell ({cell})")
    return ValueError(f"{path}: {reason}")
