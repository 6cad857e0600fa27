"""File formats for the command-line tools.

Datasets are UTF-8 CSV with a mandatory header: ``t1,...,tk`` for
inter-failure spacings or ``x1,...,xk`` for raw component lifetimes (the
latter are converted on load by sorting each row and differencing). LF,
CRLF and CR line endings are accepted; the decimal separator is ``.``.
Data lines are read in chunks of about 1 MB. numpy's C reader parses a chunk
of plain unquoted numbers, finite and > 0, k to a line, with no tied
lifetimes; any other chunk and the rest of the file go to a per-cell
``float()`` parser, which alone words errors. An error's "row" is the
1-based file line its record starts on, header and blank lines counted.
Parameter files are JSON objects with keys ``theta``, ``lambda``, ``model``,
``k`` and, for the ssk model only, ``s``; unknown keys are rejected.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
from typing import IO, Iterable

import numpy as np

from .errors import DataFileError, DuplicateLifetime, LoadShareError, NonPositiveLifetime
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
_CHUNK_CHARS = 1 << 20  # characters of data lines per chunk for numpy's C reader


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


def _parse_rows(lines: Iterable[str], before: int, n_before: int, k: int, lifetimes: bool) -> list:
    """Per-cell parse of the csv records in ``lines`` (after file line ``before`` and data row
    ``n_before``); errors cite a record's first file line, and ties wait for every cell."""
    reader, start = csv.reader(lines), before + 1
    parsed, tie = [], None
    for cells in reader:
        row, start = start, before + reader.line_num + 1
        if not cells:
            continue
        if len(cells) != k:
            raise DataFileError(f"row {row}: expected {k} columns, got {len(cells)}")
        values = []
        for col, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise DataFileError(f"row {row}, column {col}: {cell!r} is not a number") from None
            if not math.isfinite(value):
                raise DataFileError(f"row {row}, column {col}: {cell!r} is not finite")
            if value <= 0:
                raise NonPositiveLifetime(f"row {row}, column {col}: value must be > 0 "
                                          f"(got {cell})", row=row, col=col)
            values.append(value)
        if lifetimes and tie is None and len(set(values)) < k:
            tie = row, n_before + len(parsed) + 1, min(v for v in values if values.count(v) > 1)
        parsed.append(values)
    if tie is not None:
        row, system, value = tie
        raise DuplicateLifetime(f"row {row}: system {system} contains the lifetime {value} twice; "
                                "tied failures give a zero spacing", row=row)
    return parsed


def _fast_block(lines: list[str], k: int, convert) -> np.ndarray | None:
    """Spacings of a chunk read by numpy's C reader; None if the per-cell parser must read it."""
    text = "".join(lines)
    # loadtxt warns on a chunk of blank lines, and strips the separators \x1c-\x1f
    # around a number as whitespace where float() rejects them.
    if text.isspace() or any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        return convert(block).data if block.shape[1] == k else None
    except (ValueError, LoadShareError):  # the per-cell parser words the fault
        return None


def read_dataset(stream: IO[str], assume_lifetimes: bool = False) -> SpacingsMatrix:
    """Parse a dataset stream into spacings.

    The header decides the mode. ``assume_lifetimes`` admits headerless
    legacy files, treating every row (including the first) as raw lifetimes;
    combining it with an explicit ``t``-header is rejected as contradictory.
    """
    head = []  # the lines the header search reads: data, if there is no header
    first = next(filter(None, csv.reader(head.append(line) or line for line in stream)), None)
    if first is None:
        raise DataFileError("dataset is empty")
    k, mode = len(first), _parse_header(first)
    if mode is None and not assume_lifetimes:
        raise DataFileError("first row is not a t1..tk or x1..xk header; "
                            "pass the lifetimes override for headerless legacy files")
    if mode == "spacings" and assume_lifetimes:
        raise DataFileError("file has a t1..tk spacings header; "
                            "the lifetimes override contradicts it")
    convert = SpacingsMatrix if mode == "spacings" else spacings_from_lifetimes
    blocks, lines, line = [], *((head, 0) if mode is None else ([], len(head)))
    while lines := lines + stream.readlines(_CHUNK_CHARS):
        block = _fast_block(lines, k, convert)
        if block is None:
            rest, n_before = itertools.chain(lines, stream), sum(map(len, blocks))
            values = _parse_rows(rest, line, n_before, k, convert is spacings_from_lifetimes)
            blocks += [convert(values).data] if values else []
            break
        blocks.append(block)
        lines, line = [], line + len(lines)
    if not blocks:
        raise DataFileError("dataset contains a header but no data rows")
    return SpacingsMatrix(np.concatenate(blocks))


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
