"""The file format every stage shares: CSV tables and JSON documents.

A table is one header row plus data rows in the default `csv` dialect. Floats
are written as `repr(float(v))`, so a value read back is the value written,
bit for bit. Readers report problems as `ValidationError`s that name the file
and the line (and, for a cell, the column).
"""

from __future__ import annotations

import csv
import json
import math

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


def parse_floats(path, line_no, columns, cells, finite=False) -> list[float]:
    """Parse numeric cells, refusing nan and inf with `finite`; errors name line and column."""
    values = []
    for column, cell in zip(columns, cells):
        try:
            value = float(cell)
        except ValueError:
            value = None
        if value is None or finite and not math.isfinite(value):
            kind = "a finite number" if finite else "a number"
            where = f"{path}: line {line_no}, column '{column}'"
            raise ValidationError(f"{where}: not {kind}: {cell!r}")
        values.append(value)
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


def read_json_object(path) -> dict:
    """Read a JSON document whose top level is an object."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    return payload


def _finite_or_null(value):
    """`value` with every non-finite float in it, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, payload) -> None:
    """Write strict JSON, sorted keys, indent 2, trailing newline; NaN and ±inf become null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
