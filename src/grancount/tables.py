"""The file format every stage shares: CSV tables and JSON documents.

A table is one header row plus data rows in the default `csv` dialect. Floats
are written as `repr(float(v))`, so a value read back is the value written,
bit for bit. `read_table` parses a table's numeric cells with one numpy
conversion, which reads a cell as `float` does; only if it fails does a
per-cell pass run, to name the first bad cell (by row, then column). Readers
report problems as `ValidationError`s naming the file, line and column.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .errors import ValidationError


def read_table(path, header_ok, header_error, numeric, rows_name="data rows", *, finite=False):
    """Read a CSV table; return (header, [(line_no, row), ...], values).

    `header_ok(header)` says whether the header is acceptable; if it is not,
    the error is `path: header_error`. Every data row must have as many cells
    as the header, and there must be at least one (else `path: no rows_name`).
    `values` is the float64 matrix of each row's `numeric` slice of cells; a cell
    that is not a number (with `finite`, not a finite one) is an error, and so is
    a line the `csv` module cannot split, such as one with a cell past its field
    limit (131,072 characters).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file")
            if not header_ok(header):
                raise ValidationError(f"{path}: {header_error}")
            rows = list(enumerate(reader, start=2))
        except csv.Error as exc:  # a cell past the field limit, say
            raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    for line_no, row in rows:
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}"
            )
    if not rows:
        raise ValidationError(f"{path}: no {rows_name}")
    cells = [row[numeric] for _, row in rows]
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        values = None
    if values is None or finite and not np.isfinite(values).all():
        for (line_no, _), row in zip(rows, cells):
            for column, cell in zip(header[numeric], row):
                try:
                    if math.isfinite(float(cell)) or not finite:
                        continue
                except ValueError:
                    pass
                kind = "a finite number" if finite else "a number"
                where = f"{path}: line {line_no}, column '{column.strip()}'"
                raise ValidationError(f"{where}: not {kind}: {cell!r}")
        values = np.array([[float(cell) for cell in row] for row in cells])  # numpy stricter than float
    return header, rows, values


def integer_column(path, header, rows, j, values) -> np.ndarray:
    """Cell `j` of the rows, parsed as `values`, in int64; "48.9" or a cell past int64 is an error."""
    bad = np.flatnonzero(~((np.trunc(values) == values) & (np.abs(values) < 2.0**63)))
    if bad.size:
        line_no, row = rows[bad[0]]
        where = f"{path}: line {line_no}, column '{header[j].strip()}'"
        raise ValidationError(f"{where}: not an integer: {row[j]!r}")
    return values.astype(np.int64)


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
