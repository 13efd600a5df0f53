"""The file format every stage shares: CSV tables and JSON sidecars.

A table is one header row plus data rows in the default `csv` dialect. Floats
are written as `repr(float(v))`, so a value read back is the value written,
bit for bit. Readers report problems as `ValidationError`s that name the file
and the line (and, for a cell, the column).
"""

from __future__ import annotations

import csv
import json

from .errors import ValidationError


def read_table(path, header_ok, header_error, rows_name="data rows"):
    """Read a CSV table; return (header, [(line_no, row), ...]).

    `header_ok(header)` says whether the header is acceptable; if it is not,
    the error is `path: header_error`. Every data row must have as many cells
    as the header, and there must be at least one (else `path: no rows_name`).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        if not header_ok(header):
            raise ValidationError(f"{path}: {header_error}")
        rows = list(enumerate(reader, start=2))
    for line_no, row in rows:
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}"
            )
    if not rows:
        raise ValidationError(f"{path}: no {rows_name}")
    return header, rows


def parse_floats(path, line_no, columns, cells) -> list[float]:
    """Parse numeric cells; the error names the path, line and column."""
    values = []
    for column, cell in zip(columns, cells):
        try:
            values.append(float(cell))
        except ValueError:
            raise ValidationError(
                f"{path}: line {line_no}, column '{column}': not a number: {cell!r}"
            ) from None
    return values


def parse_int(path, line_no, column, cell) -> int:
    """Parse an integral numeric cell ("48" or "48.0", not "48.9")."""
    (value,) = parse_floats(path, line_no, (column,), (cell,))
    if not value.is_integer():
        raise ValidationError(
            f"{path}: line {line_no}, column '{column}': not an integer: {cell!r}"
        )
    return int(value)


def write_table(path, header, rows) -> None:
    """Write a CSV table; float cells (numpy's included) as `repr(float(v))`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
        )


def write_json(path, payload) -> None:
    """Write a JSON document with sorted keys, indent 2 and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
