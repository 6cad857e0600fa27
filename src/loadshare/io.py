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
On that path each cell is checked once, and the file is copied once, to join its chunks.

Datasets are written with each value as ``"%.17g"`` spells it, which parses
back to the same float64. A numpy kernel spells a block of values at a time
where that format uses fixed notation, [1e-4, 1e17). It is exact, not
approximate: with p = 16 - floor(log10 x), 10**p is an exact double, and
Dekker's error-free product gives x * 10**p as a + err with no rounding, so
the integer part N and the fraction are exact. N in [10**16, 10**17) proves
the decimal exponent, and a fraction other than exactly 1/2 fixes the
rounding of the 17th digit. Every value the kernel does not certify this way
(exponent notation, exact ties, a misjudged exponent next to a power of ten,
and nan, infinities, zeros and negatives in an ndarray) is spelled by
:func:`format_float`, so the bytes are ``"%.17g"``'s whichever path a value
takes.

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

from .errors import (DataFileError, DuplicateLifetime, InvalidModel, InvalidParams,
                     LoadShareError, NonPositiveLifetime)
from .model import ModelKind, ModelSpec, Params, SpacingsMatrix, spacings_from_lifetimes

__all__ = [
    "format_float",
    "json_dumps",
    "write_dataset",
    "read_dataset",
    "read_params_file",
]

_HEADER_RE = re.compile(r"^([tx])(\d+)$")
# Rows formatted per write: large enough to amortise the numpy calls, small enough
# that the block's 32-byte text rows stay a few hundred kB.
_WRITE_BLOCK_ROWS = 4096
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64 (see _halves)
_WORD = np.dtype("<u8")  # 8 text bytes, the first in the low byte
_ZEROS = 0x3030303030303030  # the word b"00000000"
_DOTS = 0x2E2E2E2E2E2E2E2E  # the word b"........"
_ONES = 0x0101010101010101  # 8 bytes of numpy True
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


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: ``hi + lo == v`` exactly, each with at most 26 significant bits."""
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


def _digits8(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each ``v < 10**8`` as byte values 0-9 of a word, first digit in
    the low byte: the halves, quarters and eighths are split lane by lane, dividing by 100 and
    10 as multiplications and shifts that are exact for lanes below 10**4 and 100."""
    q = v // 10000
    x = q | (v - q * 10000) << 32
    q = (x * 10486) >> 20 & 0x0000007F0000007F
    x = q | (x - q * 100) << 16
    q = (x * 103) >> 10 & 0x000F000F000F000F
    return q | (x - q * 10) << 8


def _fixed_rows(x: np.ndarray, prefix: np.ndarray):
    """Text rows of the values ``x`` that ``"%.17g"`` prints in fixed notation.

    Returns ``(text, keep, ok)``: 32-byte rows as 4 words each, the 0/1 bytes of each row
    that belong to the value's text, and which values are certified (see :func:`write_dataset`);
    the rows of the others hold nothing of use. Byte 31 of every row is left for a separator.
    ``prefix[j]`` is the row mask of bytes 0..j-1.
    """
    fixed = (x >= 1e-4) & (x < 1e17)
    xs = np.where(fixed, x, 1.0)
    p = np.clip(16.0 - np.floor(np.log10(xs)), 0.0, 20.0).astype(np.intp)
    scale = np.array([float(10**j) for j in range(21)]).take(p)  # 10**p, exact below 10**23
    # Dekker's product: a + err == xs * scale exactly, a the rounded product.
    a = xs * scale
    (xh, xl), (sh, sl) = _halves(xs), _halves(scale)
    err = xl * sl - (((a - xh * sh) - xl * sh) - xh * sl)
    low = np.floor(err)
    frac = err - low
    integral = a >= 1e16  # above 2**53, so a is an integer
    n = np.where(integral, a, 0.0).astype(np.int64) + low.astype(np.int64)
    digits = n + (frac > 0.5)
    ok = fixed & integral & (n >= 10**16) & (digits < 10**17) & (frac != 0.5)
    digits[~ok] = 10**16
    e = np.where(ok, 16 - p, 0)
    # Row bytes 0-23: "0000000" and the 17 digits; the point goes before byte s.
    digits = digits.astype(np.uint64)
    head = digits // 10**8
    mid, tail = _digits8(head % 10**8), _digits8(digits - head * 10**8)
    text = np.stack([_ZEROS + (head // 10**8 << 56), mid + _ZEROS, tail + _ZEROS,
                     np.zeros_like(mid)], axis=1, dtype=_WORD)
    # Row byte of the last nonzero digit, from the highest set bit of its word.
    last = np.where(tail != 0, 16 + (np.frexp(tail.astype(float))[1] - 1) // 8,
                    np.where(mid != 0, 8 + (np.frexp(mid.astype(float))[1] - 1) // 8, 7))
    s = e + 8
    shifted = text.ravel() << 8  # row byte j moves to j + 1
    shifted[1:] |= text.ravel()[:-1] >> 56
    before, upto = prefix.take(s, axis=0), prefix.take(s + 1, axis=0)
    text &= before
    text |= shifted.reshape(text.shape) & ~upto
    text |= (upto ^ before) & _DOTS
    # Keep from the integer part's first digit; up to the last nonzero digit, or the point.
    end = np.where(last >= s, last + 2, s)
    keep = prefix.take(end, axis=0) & ~prefix.take(7 + np.minimum(e, 0), axis=0) & _ONES
    return text, keep.astype(_WORD, copy=False), ok


def write_dataset(spacings, stream: IO[str]) -> None:
    """Write spacings as CSV with a t1..tk header and lossless numbers.

    Every value is written as ``"%.17g"`` writes it (see :func:`format_float`), a block of
    rows at a time. ``"%.17g"`` prints x in fixed notation exactly when its decimal exponent
    E, after rounding to 17 significant digits, is in [-4, 16]. For x in [1e-4, 1e17) the
    block kernel takes p = 16 - floor(log10 x), clipped to [0, 20], so 10**p is an exact
    double. Veltkamp's split cuts x and 10**p into halves of at most 26 bits, whose four
    products are exact, and Dekker's sums recover the rounding error of a = fl(x * 10**p):
    a + err == x * 10**p exactly (round to nearest, and nothing overflows or underflows in
    this range). a is an integer once it is at least 1e16 > 2**53, so N = a + floor(err) is
    the exact floor of x * 10**p. x >= 1e-4 and p <= 20 make err a multiple of 2**-46, so
    its fraction err - floor(err) is a double and exact as well. A value is certified when
    10**16 <= N, the fraction is not exactly 1/2, and D = N + (fraction > 1/2) < 10**17;
    then E = 16 - p and D is the 17 digits. (D reaches 10**17 only for x within 5e-18 below
    a power of ten, where no double lies in this range; such a value would fall back.)
    Values not certified take ``format_float`` one by one: exponent notation, exact ties
    (where ``"%.17g"`` rounds half to even), a floor(log10 x) off by one next to a power of
    ten, and, in an ndarray, nan, infinities, zeros and negatives. The bytes are the same
    either way.
    """
    data = spacings.data if isinstance(spacings, SpacingsMatrix) else np.asarray(spacings, float)
    k = data.shape[1]
    stream.write(",".join(f"t{j + 1}" for j in range(k)) + "\n")
    # prefix[j]: a 32-byte row whose bytes 0..j-1 are 0xFF, as 4 words.
    windows = np.lib.stride_tricks.sliding_window_view(np.repeat(np.uint8([255, 0]), 32), 32)
    prefix = windows[::-1].copy().view(_WORD)
    seps = np.resize(np.where(np.arange(k) < k - 1, ord(","), ord("\n")).astype(np.uint64),
                     min(len(data), _WRITE_BLOCK_ROWS) * k) << 56
    for start in range(0, len(data), _WRITE_BLOCK_ROWS):
        values = data[start : start + _WRITE_BLOCK_ROWS].ravel()
        text, keep, ok = _fixed_rows(values, prefix)
        text[:, 3] |= seps[: len(values)]
        keep[:, 3] |= 1 << 56
        chars, kept = text.view(np.uint8), keep.view(bool)
        slow = np.flatnonzero(~ok)
        if slow.size:
            spelled = np.array([format_float(v) for v in values[slow].tolist()], dtype="S31")
            chars[slow, :31] = spelled.view(np.uint8).reshape(-1, 31)
            kept[slow, :31] = chars[slow, :31] != 0
        stream.write(chars[kept].tobytes().decode("ascii"))


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
    if k < 2:
        raise DataFileError(f"dataset has {k} column; a system needs at least 2 components")
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
    # Every block holds spacings that SpacingsMatrix or spacings_from_lifetimes checked.
    return SpacingsMatrix._adopt(np.concatenate(blocks))


_PARAMS_KEYS = {"theta", "lambda", "model", "k", "s"}


def read_params_file(stream: IO[str]) -> tuple[ModelSpec, Params]:
    """Parse a JSON parameter file into a validated (ModelSpec, Params) pair.

    This judges the JSON; ModelSpec judges k and s (null is none), Params theta and lambda.
    """
    text = stream.read()  # outside the try: the opener words a decoding fault
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFileError(f"parameter file is not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise DataFileError(f"parameter file has an unreadable number: {exc}") from None
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
    try:
        spec = ModelSpec(kind, obj["k"], obj.get("s"))
        lam = obj["lambda"]
        if not isinstance(lam, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in lam):
            raise DataFileError("lambda must be an array of numbers")
        if len(lam) != spec.k - 1:
            raise DataFileError(f"lambda must hold k-1 = {spec.k - 1} values, got {len(lam)}")
        theta = obj["theta"]
        if not isinstance(theta, (int, float)) or isinstance(theta, bool):
            raise DataFileError(f"theta must be a number, got {theta!r}")
        return spec, Params(float(theta), tuple(float(v) for v in lam))
    except (InvalidModel, InvalidParams) as exc:
        raise DataFileError(str(exc)) from None
    except OverflowError:  # an integer too large for float64
        raise DataFileError("theta and lambda must lie within the float64 range") from None
