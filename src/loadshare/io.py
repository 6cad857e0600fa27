"""File formats for the command-line tools.

Datasets are UTF-8 CSV with a mandatory header: ``t1,...,tk`` for
inter-failure spacings or ``x1,...,xk`` for raw component lifetimes (the
latter are converted on load by sorting each row and differencing). LF,
CRLF and CR line endings are accepted; the decimal separator is ``.``.
Data lines are read in chunks of about 192k characters, whole lines. A numpy
kernel reads a chunk whose lines all hold k cells of the form
``digits[.digits][(e|E)[+|-]digits]`` (``5.`` and ``.5`` too), padded by ASCII
spaces or tabs, ending in LF, CRLF or CR: it converts each cell exactly, as
``float()`` does (see :func:`read_dataset`). Any other chunk (another byte, a
blank line, a CR amid LF line ends, a ragged row, a value not finite and > 0, a
tie) goes alone to a per-cell ``float()`` parser, which words cell errors and
reads on only to end a quoted record; the kernel takes the next chunk. An
error's "row" is the 1-based file line its record starts on, header and blank
lines counted; the first tie is raised after the last cell. Each chunk gives a
checked block of spacings: :func:`read_dataset` joins them into one matrix;
:func:`read_stats` folds each into the sums its model reads, of t before the
switch and of t*t and log t after it (:func:`model._fold`), so memory stays O(chunk).

The writer is :mod:`loadshare.writer`; its :func:`write_dataset` is bound here too, and
the parse kernel takes its error-free product and word tables.

Parameter files are JSON objects with keys ``theta``, ``lambda``, ``model``,
``k`` and, for the ssk model only, ``s``; unknown keys are rejected.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import math
import re
from typing import IO, Callable, Iterator

import numpy as np

from .errors import (DataFileError, DuplicateLifetime, InvalidModel,
                     InvalidParams, NonPositiveLifetime)
from .model import (ModelSpec, Params, SpacingsMatrix, SufficientStats, _fold, _stats,
                    spacings_from_lifetimes)
from .writer import _PREFIX, _TENS, _WORD, _product, write_dataset

__all__ = ["write_dataset", "read_dataset", "read_stats", "read_params_file"]

_HEADER_RE = re.compile(r"^([tx])(\d+)$")
_PREFIX_T = np.ascontiguousarray(_PREFIX.T)  # _PREFIX_T[w, j]: word w of _PREFIX[j]
_DIGITS_T = np.uint64(0x0F0F0F0F0F0F0F0F) & ~_PREFIX_T  # the low 4 bits of the bytes from j on
_CHUNK_CHARS = 3 << 16  # characters of whole data lines per chunk for the parse kernel
# The parse kernel (see read_dataset): the rank of each byte of a cell that is not a digit, in
# the order they come (pad 0, point 1, e 2, sign 3, separator 4, CR 5; -1 outside the
# grammar), the exponents q of its table of 10**q, and half an ulp of 1 less its margin.
_RANK = np.array([" \t..eE+-,\n\r\r".find(chr(b)) // 2 for b in range(256)], np.int8)
_Q_MIN, _Q_MAX = -290, 288
_HALF_ULP = 2.0**-53 * (1 - 2.0**-32)
_EXPONENT = np.uint64(0x7FF0000000000000)  # the exponent bits of a float64


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


def _parse_rows(lines: list[str], more: IO[str], line: int, k: int) -> tuple[np.ndarray, list, int]:
    """The n x k floats of the csv records that start in ``lines``, the chunk after file line
    ``line`` (read on in ``more`` only to end a quoted record), each record's first file line,
    and the lines read. Cell errors cite that line, in file order; a csv fault its own line."""
    reader, start, values, rows = csv.reader(itertools.chain(lines, more)), line + 1, [], []
    try:
        for cells in reader:
            row, start = start, line + reader.line_num + 1
            if cells and len(cells) != k:
                raise DataFileError(f"row {row}: expected {k} columns, got {len(cells)}")
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
            rows += [row] * bool(cells)
            if reader.line_num >= len(lines):
                break
    except csv.Error as exc:  # a field past csv's size limit; a NUL byte before Python 3.11
        raise DataFileError(f"line {line + reader.line_num}: {exc}") from None
    return np.array(values).reshape(-1, k), rows, reader.line_num


@functools.cache
def _powers(q: int) -> tuple[float, float]:
    """p1 = fl(10**q) and p2 = fl(10**q - p1), by int / int, which rounds correctly."""
    num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
    a, b = (num / den).as_integer_ratio()
    return a / b, (num * b - a * den) / (den * b)


def _integers(words: np.ndarray, first: np.ndarray, end: np.ndarray, dot) -> tuple:
    """The integers spelled by text bytes [first, end) of ``words`` (the text as aligned words),
    leaving out the point at ``dot`` where dot >= 0, and whether each fits (its first digit in the
    window, below 10**19). The window: the 1-3 words of text before ``end``, as rows, the bytes up
    to the point moved up one and those before the first digit set to 0, read 8 digits at a time."""
    width = max(1, min(3, (int((end - first).max()) + 7) // 8))
    start = end - 8 * width  # the text byte of row byte 0
    lead = 8 * width - (end - first) + (dot >= 0)  # row bytes before the first digit
    row, tmp, mask = np.empty((3, width, len(end)), np.uint64)
    for w in range(width + 1):
        np.take(words[w:], start >> 3, out=row[w] if w < width else tmp[-1], mode="clip")
    tmp[:-1] = row[1:]
    shift = ((start & 7) << 3).astype(np.uint64)
    row >>= shift
    tmp <<= np.uint64(64) - shift
    row |= tmp
    moved = dot - start + 1  # row bytes up to the point, at most 8 * width
    if np.minimum(np.maximum(moved, 0, out=moved), 8 * width, out=moved).any():
        np.left_shift(row, np.uint64(8), out=tmp)  # every byte moved up one, across words too
        np.right_shift(row[:-1], np.uint64(56), out=mask[1:])
        tmp[1:] |= mask[1:]
        np.take(_PREFIX_T[:width], moved, axis=1, out=mask, mode="clip")
        tmp ^= row
        tmp &= mask
        row ^= tmp
    row &= np.take(_DIGITS_T[:width], lead, axis=1, out=mask, mode="clip")
    row *= np.uint64(2561)  # 10 * digit + the next digit, in the odd bytes
    row >>= np.uint64(8)
    row &= np.uint64(0x00FF00FF00FF00FF)
    row *= np.uint64(100 * 65536 + 1)  # 100 * pair + the next pair, in the odd 16-bit lanes
    row >>= np.uint64(16)
    row &= np.uint64(0x0000FFFF0000FFFF)
    row *= np.uint64(10000 * 2**32 + 1)  # 10**4 * quad + the next quad, in the high half
    row >>= np.uint64(32)
    fits = (start <= first + (dot == first)) & (row[0] < np.uint64(10 ** (27 - 8 * width)))
    for w in range(1, width):
        row[0] *= np.uint64(10**8)
        row[0] += row[w]
    return row[0] * fits, fits


def _scaled(n: np.ndarray, q: np.ndarray) -> tuple:
    """fl(n * 10**q) for n < 10**19, and which values are certified.

    If every N of a chunk is below 2**53 and every |q| at most 22, N and 10**|q| are doubles
    and one multiplication or division rounds correctly. Otherwise, for q in [-290, 288], a
    table holds p1 = fl(10**q) and p2 = fl(10**q - p1), so p1 + p2 is 10**q to 2**-106, and
    n1 = fl(N) and the integer n2 = N - n1 split N exactly. Veltkamp's halves and Dekker's
    sums give a + err == n1 * p1 exactly, and t = err + (n1 * p2 + n2 * p1) leaves out only
    n2 * p2, the error of p1 + p2 and three roundings: N * 10**q is within 2**-101 |a| of
    a + t (nothing overflows or underflows in this range). With 2**E <= a < 2**(E+1) and
    h = 2**(E-53), half an ulp of a, r = fl(a + t) and res = (a - r) + t (a - r is exact by
    Sterbenz's lemma) give N * 10**q - r to within 2**-46 h. r is kept when |res| <
    h (1 - 2**-32) and r > 2**E: then r's neighbours lie at least 2h away on either side
    (below the power of two 2**E the next double is only h away), so N * 10**q rounds to r,
    as ``float()`` rounds it. Every other cell takes ``float()`` one at a time: more than 19
    significant digits, q outside the table, a value within 2**-32 h of a rounding boundary
    (exact ties too, which round half to even), and one that rounds to 2**E or below. That
    last guard keeps the argument short, but no cell of the grammar needs it: without it, a
    value could be misread only within 2**-46 h of a midpoint just below 2**E, where the
    doubles are h apart, not 2h. Over every binade the table reaches, the decimals with
    N < 10**19 nearest those midpoints are either midpoints themselves, whose a + t lands on
    the side ``float()`` rounds to, or at least 2**-23 h away; a test enumerates them.
    """
    n1 = n.astype(float)
    if n.max() < np.uint64(2**53) and -22 <= q.min() and q.max() <= 22:
        return n1 * _TENS[np.maximum(q, 0)] / _TENS[np.maximum(-q, 0)], True
    # The table's rows for the chunk's span of q; a q outside [_Q_MIN, _Q_MAX] is not certified.
    lo, hi = (min(max(int(v), _Q_MIN), _Q_MAX) for v in (q.min(), q.max()))
    table = zip(*map(_powers, range(lo, hi + 1)))
    scratch = np.empty((8, len(n)))
    p1, p2 = (np.take(row, q - lo, out=out, mode="clip") for row, out in zip(table, scratch[6:]))
    a, t = _product(n1, p1, scratch[:6])
    p2 *= n1  # t = err + (n1*p2 + n2*p1), with n2 = n - n1 exact
    p1 *= (n - n1.astype(np.uint64)).view(np.int64)
    p2 += p1
    t += p2
    r = a + t
    base = (a.view(np.uint64) & _EXPONENT).view(float)  # 2**E, the bottom of a's binade
    a -= r
    a += t  # r's residual (a - r) + t
    return r, (q >= _Q_MIN) & (q <= _Q_MAX) & (np.abs(a) < base * _HALF_ULP) & (r > base)


def _fast_block(text: str, k: int) -> np.ndarray | None:
    """The n x k floats of a chunk of whole lines by the parse kernel, or None for the per-cell
    parser. The kernel (grammar in the module docstring) reads a cell as N, its mantissa digits
    without the point, and q, its exponent less its fraction digits: the cell is N * 10**q
    exactly, and :func:`_scaled` rounds it as ``float()`` does."""
    if "\n" not in text:  # CR line ends, or one line
        text = text.replace("\r", "\n")
    if not text.isascii() or text.endswith("\r"):  # a CR line end would pass for a CRLF below
        return None
    # 24 bytes first, so that every row of _integers starts in the buffer, and whole words.
    raw = b"0" * 24 + text.encode() + (b"" if text.endswith("\n") else b"\n")
    size, c = len(raw), np.frombuffer(raw + bytes(16 - len(raw) % 8), np.uint8)
    pos = np.flatnonzero((c[:size] - np.uint8(48)) >= 10)  # the tokens: every byte but a digit
    rank = _RANK[c[pos]]
    if (low := rank.min()) < 0:  # a byte outside the grammar
        return None
    sep = np.flatnonzero(rank == 4)
    ends = pos[sep]
    lf = c[ends] == 10
    if len(sep) % k or not lf[k - 1 :: k].all() or lf.sum() * k != len(sep):
        return None
    skip = lf & (c[ends - 1] == 13)  # the tokens between a cell's text and its separator
    if np.count_nonzero(skip) != np.count_nonzero(rank == 5):  # a CR that does not start a CRLF
        return None
    first = np.append(0, sep[:-1] + 1)  # a cell's first token, after its pads
    starts, ends = np.append(24, ends[:-1] + 1), ends - skip
    if low == 0:  # pads (the only bytes of a cell below b"!") are trimmed from a cell's ends
        trimmed = starts, ends
        while (lead := (c[starts] <= 32) & (starts < ends)).any():
            starts = starts + lead
        while (trail := (c[ends - 1] <= 32) & (starts < ends)).any():
            ends = ends - trail
        first, skip = first + (starts - trimmed[0]), skip + (trimmed[1] - ends)
    dot = rank[first] == 1  # the rest of a cell's tokens, in rank order
    exp = rank[at := first + dot] == 2
    sign = exp & (rank[at + exp] == 3)
    mend = np.where(exp, pos[at], ends)  # the mantissa's end
    if (at + exp + sign + skip != sep).any() or (mend - starts - dot < 1).any():
        return None
    if exp.any() and ((sign & (pos[at + exp] != mend + 1)) | exp & (ends - mend - sign < 2)).any():
        return None
    point = np.where(dot, pos[first], -1)
    n, ok = _integers(c.view(_WORD), starts, mend, point)
    q = np.where(dot, point + 1 - mend, 0)  # less the fraction digits
    if (e := np.flatnonzero(exp)).size:  # the exponent digits follow the e and the sign
        x, fits = _integers(c.view(_WORD), mend[e] + 1 + sign[e], ends[e], -1)
        q[e] += np.minimum(x, np.uint64(9999)).astype(np.int64) * np.where(c[mend[e] + 1] == 45, -1, 1)
        ok[e] &= fits
    values, certified = _scaled(n, q)
    for i in np.flatnonzero(~(ok & certified)).tolist():
        values[i] = float(raw[starts[i] : ends[i]])
    return values.reshape(-1, k)


def _blocks(stream: IO[str], assume_lifetimes: bool) -> Iterator[np.ndarray]:
    """The checked spacings of a dataset stream, a chunk at a time (see the module docstring).
    The first tie waits for the last cell: any bad cell in the file is reported before it."""
    head = []  # the lines the header search reads: data, if there is no header
    try:
        first = next(filter(None, csv.reader(head.append(line) or line for line in stream)), None)
    except csv.Error as exc:  # see _parse_rows
        raise DataFileError(f"line {len(head)}: {exc}") from None
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
    # The file line before the chunk, and the systems before it.
    line, text = (0, "".join(head)) if mode is None else (len(head), "")
    systems, tie = 0, None
    while text := text + stream.read(_CHUNK_CHARS):
        text += "" if text.endswith("\n") else stream.readline()  # whole lines
        block = None  # a bad cell or a tie sends the chunk to the per-cell parser
        if (values := _fast_block(text, k)) is not None:
            with contextlib.suppress(NonPositiveLifetime, DuplicateLifetime):
                block, used = convert(values).data, len(values)  # the kernel's rows are lines
        if block is None:
            lines = io.StringIO(text, newline="").readlines()
            values, rows, used = _parse_rows(lines, stream, line, k)
            try:
                block = convert(values).data if len(values) else values
            except DuplicateLifetime as exc:  # named by its file line and its system in the file
                row, block = rows[exc.row - 1], values[:0]
                rest = str(exc).removeprefix(f"system {exc.row}")
                tie = tie or DuplicateLifetime(f"row {row}: system {systems + exc.row}{rest}", row=row)
        line, systems, text = line + used, systems + len(values), ""
        yield block
    if not systems:
        raise DataFileError("dataset contains a header but no data rows")
    if tie is not None:
        raise tie


def read_dataset(stream: IO[str], assume_lifetimes: bool = False) -> SpacingsMatrix:
    """Parse a dataset stream into spacings.

    The header decides the mode. ``assume_lifetimes`` admits headerless
    legacy files, treating every row (including the first) as raw lifetimes;
    combining it with an explicit ``t``-header is rejected as contradictory.
    This joins the checked blocks of spacings, one a chunk (see the module docstring). Every
    cell reads as ``float()`` reads it; :func:`_fast_block` and :func:`_scaled` hold the proof.
    """
    # Every block holds spacings that SpacingsMatrix or spacings_from_lifetimes checked.
    return SpacingsMatrix._adopt(np.concatenate(list(_blocks(stream, assume_lifetimes))))


def read_stats(stream: IO[str], spec_for: Callable[[int], ModelSpec],
               assume_lifetimes: bool = False) -> SufficientStats:
    """``sufficient_stats(spec_for(k), read_dataset(stream))`` to the bit, folding each block
    as it is read (:func:`model._fold`), so no n x k matrix is held. If ``spec_for(k)`` raises
    on the first block's k, the rest of the file is read first: a data fault comes before it."""
    blocks = _blocks(stream, assume_lifetimes)
    block = next(blocks)
    try:
        spec = spec_for(block.shape[1])
    except Exception:
        for _ in blocks:
            pass
        raise
    n, sums = len(block), _fold(block, spec)
    for block in blocks:
        n, sums = n + len(block), _fold(block, spec, sums)
    return _stats(spec, n, sums)


_PARAMS_KEYS = {"theta", "lambda", "model", "k", "s"}


def read_params_file(stream: IO[str]) -> tuple[ModelSpec, Params]:
    """Parse a JSON parameter file into a validated (ModelSpec, Params) pair.

    This judges the JSON; ModelSpec the model, k and s (null is none), Params theta and lambda.
    """
    import json  # only a parameter file is JSON
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
        spec = ModelSpec(obj["model"], obj["k"], obj.get("s"))
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
