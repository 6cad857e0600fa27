"""File formats for the command-line tools.

Datasets are UTF-8 CSV with a mandatory header: ``t1,...,tk`` for
inter-failure spacings or ``x1,...,xk`` for raw component lifetimes (the
latter are converted on load by sorting each row and differencing). LF and
CRLF line endings are both accepted; the decimal separator is ``.``.
Parameter files are JSON objects with keys ``theta``, ``lambda``, ``model``,
``k`` and, for the ssk model only, ``s``; unknown keys are rejected.
"""

from __future__ import annotations

import csv
import json
import math
import re
from typing import IO, Iterable

import numpy as np

from .errors import DataFileError, NonPositiveLifetime
from .model import ModelKind, ModelSpec, Params, SpacingsMatrix, spacings_from_lifetimes

__all__ = [
    "format_float",
    "json_dumps",
    "write_dataset",
    "read_dataset",
    "read_params_file",
]

_HEADER_RE = re.compile(r"^([tx])(\d+)$")
# Rows formatted per write: large enough to amortise the call, small enough
# that the block's text stays a few hundred kB.
_WRITE_BLOCK_ROWS = 4096


def format_float(value: float) -> str:
    """17 significant digits: parses back to the identical float64."""
    return format(float(value), ".17g")


def json_dumps(obj) -> str:
    """JSON text with floats at full precision (see :func:`format_float`)."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no NaN or Infinity; null is the portable stand-in.
        return format_float(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {json_dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(json_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_dataset(spacings, stream: IO[str]) -> None:
    """Write spacings as CSV with a t1..tk header and lossless numbers."""
    data = spacings.data if isinstance(spacings, SpacingsMatrix) else np.asarray(spacings)
    k = data.shape[1]
    stream.write(",".join(f"t{j + 1}" for j in range(k)) + "\n")
    # One %-format per block of rows; "%.17g" spells each value as format_float does.
    line = ",".join(["%.17g"] * k) + "\n"
    for start in range(0, len(data), _WRITE_BLOCK_ROWS):
        block = data[start : start + _WRITE_BLOCK_ROWS]
        stream.write(line * len(block) % tuple(block.ravel().tolist()))


def _parse_header(cells: list[str]) -> str | None:
    """Return 'spacings' or 'lifetimes' if cells are a valid header, else None."""
    kinds = set()
    for pos, cell in enumerate(cells, start=1):
        m = _HEADER_RE.match(cell.strip().lower())
        if m is None or int(m.group(2)) != pos:
            return None
        kinds.add(m.group(1))
    if len(kinds) != 1:
        return None
    return "spacings" if kinds.pop() == "t" else "lifetimes"


def _parse_rows(rows: Iterable[list[str]], k: int, first_data_row: int) -> np.ndarray:
    parsed = []
    for offset, cells in enumerate(rows):
        row_no = first_data_row + offset
        if len(cells) != k:
            raise DataFileError(
                f"row {row_no}: expected {k} columns, got {len(cells)}"
            )
        values = []
        for col, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise DataFileError(
                    f"row {row_no}, column {col}: {cell!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise DataFileError(
                    f"row {row_no}, column {col}: {cell!r} is not finite"
                )
            if value <= 0:
                raise NonPositiveLifetime(
                    f"row {row_no}, column {col}: value must be > 0 (got {cell})",
                    row=row_no,
                    col=col,
                )
            values.append(value)
        parsed.append(values)
    if not parsed:
        raise DataFileError("dataset contains a header but no data rows")
    return np.array(parsed)


def read_dataset(stream: IO[str], assume_lifetimes: bool = False) -> SpacingsMatrix:
    """Parse a dataset stream into spacings.

    The header decides the mode. ``assume_lifetimes`` admits headerless
    legacy files, treating every row (including the first) as raw lifetimes;
    combining it with an explicit ``t``-header is rejected as contradictory.
    """
    rows = [cells for cells in csv.reader(stream) if cells]
    if not rows:
        raise DataFileError("dataset is empty")
    mode = _parse_header(rows[0])
    if mode is None:
        if not assume_lifetimes:
            raise DataFileError(
                "first row is not a t1..tk or x1..xk header; "
                "pass the lifetimes override for headerless legacy files"
            )
        data_rows, k, first = rows, len(rows[0]), 1
        mode = "lifetimes"
    else:
        if mode == "spacings" and assume_lifetimes:
            raise DataFileError(
                "file has a t1..tk spacings header; the lifetimes override contradicts it"
            )
        data_rows, k, first = rows[1:], len(rows[0]), 2
    values = _parse_rows(data_rows, k, first)
    if mode == "lifetimes":
        return spacings_from_lifetimes(values)
    return SpacingsMatrix(values)


_PARAMS_KEYS = {"theta", "lambda", "model", "k", "s"}


def read_params_file(stream: IO[str]) -> tuple[ModelSpec, Params]:
    """Parse a JSON parameter file into a validated (ModelSpec, Params) pair."""
    try:
        obj = json.load(stream)
    except json.JSONDecodeError as exc:
        raise DataFileError(f"parameter file is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DataFileError("parameter file must be a JSON object")
    unknown = set(obj) - _PARAMS_KEYS
    if unknown:
        raise DataFileError(f"parameter file has unknown keys: {sorted(unknown)}")
    for key in ("theta", "lambda", "model", "k"):
        if key not in obj:
            raise DataFileError(f"parameter file is missing required key {key!r}")
    try:
        kind = ModelKind(obj["model"])
    except ValueError:
        raise DataFileError(
            f"model must be 'kim-kvam' or 'ssk', got {obj['model']!r}"
        ) from None
    k = obj["k"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise DataFileError(f"k must be an integer, got {k!r}")
    if kind is ModelKind.SSK:
        if "s" not in obj:
            raise DataFileError("ssk model requires key 's'")
        s = obj["s"]
        if not isinstance(s, int) or isinstance(s, bool):
            raise DataFileError(f"s must be an integer, got {s!r}")
        spec = ModelSpec.ssk(k, s)
    else:
        if "s" in obj:
            raise DataFileError("key 's' is only valid for the ssk model")
        spec = ModelSpec.kim_kvam(k)
    lam = obj["lambda"]
    if not isinstance(lam, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in lam):
        raise DataFileError("lambda must be an array of numbers")
    if len(lam) != k - 1:
        raise DataFileError(f"lambda must hold k-1 = {k - 1} values, got {len(lam)}")
    theta = obj["theta"]
    if not isinstance(theta, (int, float)) or isinstance(theta, bool):
        raise DataFileError(f"theta must be a number, got {theta!r}")
    return spec, Params(float(theta), tuple(float(v) for v in lam))
