"""The dataset writer: CSV with a ``t1,...,tk`` header and lossless numbers.

Datasets are written with each value as ``"%.17g"`` spells it (:func:`model.format_float`),
which parses back to the same float64; a numpy kernel spells the values where that format
uses fixed notation, exactly (see :func:`_fixed_rows`). This module imports nothing of the
reader, so ``simulate`` compiles only the file code it runs; :mod:`loadshare.io` takes
:func:`_product` and the word tables from here.
"""

from __future__ import annotations

import codecs
from typing import IO, Iterable

import numpy as np

from .model import SpacingsMatrix, format_float

__all__ = ["write_dataset"]

# Values per slice of whole rows (one row if k is larger); the writer holds 144 bytes a value of
# buffers, 1.2 MB. It writes the text of _WRITE_PIECE values at a time, which the heap serves.
_WRITE_BLOCK_VALUES = 2**13
_WRITE_PIECE = 1024
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64 (see _product)
_WORD = np.dtype("<u8")  # 8 text bytes, the first in the low byte
_DOTS = 0x2E2E2E2E2E2E2E2E  # the word b"........"
_ONES = 0x0101010101010101  # 8 bytes of numpy True
# _PREFIX[j]: a 32-byte row whose bytes 0..j-1 are 0xFF, as 4 words.
_PREFIX = np.array([[255] * j + [0] * (32 - j) for j in range(33)], np.uint8).view(_WORD)
_POINT = (_PREFIX[1:] ^ _PREFIX[:-1]) & _DOTS  # _POINT[j]: a row with "." at byte j
_TENS = np.array([float(10**q) for q in range(23)])  # the powers of ten that are exact doubles


def _product(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's error-free product: a = fl(x * y) and err with ``a + err == x * y`` exactly where
    nothing overflows or underflows. Veltkamp's split cuts x and y into halves of at most 26
    significant bits, whose four products are exact. The six rows of ``out`` are a, err and
    scratch."""
    a, err, xh, xl, yh, yl = out
    np.multiply(x, y, out=a)
    for v, hi, lo in ((x, xh, xl), (y, yh, yl)):  # hi = c - (c - v) with c = _SPLIT * v
        np.multiply(v, _SPLIT, out=hi)
        np.subtract(hi, v, out=lo)
        hi -= lo
        np.subtract(v, hi, out=lo)
    np.multiply(xh, yh, out=err)  # err = xl*yl - (((a - xh*yh) - xl*yh) - xh*yl)
    np.subtract(a, err, out=err)
    yh *= xl
    err -= yh
    xh *= yl
    err -= xh
    xl *= yl
    np.subtract(xl, err, out=err)
    return a, err


def _fixed_rows(x: np.ndarray, work: np.ndarray, text: np.ndarray, keep: np.ndarray,
                quads: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Text rows of the values ``x`` that ``"%.17g"`` prints in fixed notation: ``text`` gets
    32-byte rows as 4 words each and ``keep`` the 0/1 bytes of each row that belong to the
    value's text. Returns which values are certified (below); the rows of the others hold
    nothing of use. Byte 31 of every row is left for a separator. ``work`` is scratch, 10
    float64 rows of len(x), the last for two rows of flags. ``quads[q]`` is the text "%04d" of
    q as a 4-byte word, ``last[q]`` the index in it of its last nonzero digit, or -99.

    ``"%.17g"`` prints x in fixed notation exactly when its decimal exponent E, after rounding
    to 17 significant digits, is in [-4, 16]. For x in [1e-4, 1e17) this kernel takes
    p = 16 - floor(log10 x), clipped to [0, 20], so 10**p is an exact double, and
    :func:`_product` gives a + err == x * 10**p exactly (nothing overflows or underflows in
    this range). N = a + floor(err) is the exact floor of x * 10**p where a is above 2**53, so
    an integer, and below 10**16 elsewhere. x >= 1e-4 and p <= 20 make err a multiple of
    2**-46, so its fraction err - floor(err) is exact too. A value is certified when
    10**16 <= N, the fraction is not exactly 1/2, and D = N + (fraction > 1/2) < 10**17; then
    E = 16 - p and D is the 17 digits. (D reaches 10**17 only for x within 5e-18 below a power
    of ten, where no double lies in this range; such a value would fall back.) Values not
    certified take ``format_float`` one by one: exponent notation, exact ties (where
    ``"%.17g"`` rounds half to even), a floor(log10 x) off by one next to a power of ten, and,
    in an ndarray, nan, infinities, zeros and negatives. The bytes are the same either way.
    """
    ints, (ok, flag) = work.view(np.int64), work[9].view(bool)[: 2 * len(x)].reshape(2, -1)
    xs, tens, p = work[6], work[7], ints[8]
    np.logical_and(np.greater_equal(x, 1e-4, out=ok), np.less(x, 1e17, out=flag), out=ok)  # fixed
    np.fmin(np.fmax(x, 1e-4, out=xs), 1e17, out=xs)  # finite and > 0 where x is not fixed
    np.floor(np.log10(xs, out=tens), out=tens)
    np.minimum(np.maximum(np.subtract(16.0, tens, out=tens), 0.0, out=tens), 20.0, out=tens)
    np.copyto(p, tens, casting="unsafe")
    a, err = _product(xs, np.take(_TENS, p, out=tens, mode="clip"), work[:6])  # a + err == xs * 10**p
    frac = np.subtract(err, np.floor(err, out=work[2]), out=err)  # exact, as is floor(err)
    np.copyto(ints[6:8], work[0:3:2], casting="unsafe")  # a and floor(err)
    n = np.add(*ints[6:8], out=ints[6])  # the floor of xs * 10**p from 10**16 on
    digits = np.add(n, np.greater(frac, 0.5, out=flag), out=ints[0])
    ok &= np.greater_equal(n, 10**16, out=flag)
    ok &= np.less(digits, 10**17, out=flag)
    ok &= np.not_equal(frac, 0.5, out=flag)
    s = np.subtract(24, p, out=p)  # E + 8: the point goes before row byte s
    groups, spare = ints[:5], ints[7]  # the 17 digits as the first one and four groups of 4
    for group in groups[:0:-1]:  # from the last; the first digit ends in groups[0]
        np.floor_divide(digits, 10**4, out=spare)
        np.subtract(digits, np.multiply(spare, 10**4, out=group), out=group)
        digits, spare = spare, digits
    lanes, spelled = text.view(quads.dtype), work[5:8].view(quads.dtype).ravel()[: groups.size]
    text[:, 0], text[:, 3] = quads[0], 0  # row bytes 0-23: "0000000" and the 17 digits
    lanes[:, 1:6] = np.take(quads, groups, out=spelled.reshape(groups.shape), mode="clip").T
    # Keep up to the last nonzero digit, row byte 4 * (group + 1) + last, or up to the point.
    spelled = np.take(last, groups, out=spelled.view(last.dtype).reshape(groups.shape), mode="clip")
    spelled += np.arange(4, 24, 4, dtype=last.dtype)[:, None]
    end = np.max(spelled, axis=0, out=ints[0])
    np.less(end, s, out=flag)
    np.copyto(np.add(end, 2, out=end), s, where=flag)
    shifted = ints[1:5].view(_WORD).reshape(text.shape)
    shifted.view(np.uint8).ravel()[1:] = text.view(np.uint8).ravel()[:-1]  # row byte j to j + 1
    shifted |= np.take(_PREFIX[1:], s, axis=0, out=keep, mode="clip")  # keep is scratch until the end
    shifted ^= keep  # the bytes after the point
    shifted |= np.take(_POINT, s, axis=0, out=keep, mode="clip")
    text &= np.take(_PREFIX, s, axis=0, out=keep, mode="clip")
    text |= shifted
    lead = np.subtract(np.minimum(s, 8, out=s), 1, out=s)  # the first digit, or the 0 before "."
    np.take(_PREFIX, end, axis=0, out=keep, mode="clip")
    keep ^= np.take(_PREFIX, lead, axis=0, out=shifted, mode="clip")
    keep &= _ONES
    return ok


def write_dataset(spacings, stream: IO[str]) -> None:
    """Write spacings as CSV with a t1..tk header and lossless numbers.

    Every value is written as ``"%.17g"`` writes it (see :func:`model.format_float`), a slice
    of rows at a time; :func:`_fixed_rows` holds the proof that the bytes are the same.
    """
    data = spacings.data if isinstance(spacings, SpacingsMatrix) else np.asarray(spacings, float)
    _write_blocks((data,), data.shape[1], stream)


def _write_blocks(blocks: Iterable[np.ndarray], k: int, stream: IO[str]) -> None:
    """:func:`write_dataset` of the rows of ``blocks``, (rows, k) arrays of any length, every
    block written as it comes. The header goes first. Each block is cut into slices of
    ``max(1, _WRITE_BLOCK_VALUES // k)`` whole rows, so the kernel's buffers, allocated once for
    one slice and held, stay about 1.2 MB at any k; a short slice uses their front."""
    stream.write(",".join(f"t{j + 1}" for j in range(k)) + "\n")
    seps = np.where(np.arange(k) < k - 1, ord(","), ord("\n")).astype(np.uint64) << 56
    n = np.arange(10**4, dtype=np.uint32)  # the tables of _fixed_rows, built here, not at import
    quads = (n // 1000 | n // 100 % 10 << 8 | n // 10 % 10 << 16 | n % 10 << 24 | 0x30303030).astype("<u4")
    last = np.where(n, 3 - (n % 10 == 0) - (n % 100 == 0) - (n % 1000 == 0), -99).astype(np.int32)
    step = max(1, _WRITE_BLOCK_VALUES // max(k, 1))
    work, words = np.empty(10 * step * k), np.empty((2, step * k, 4), _WORD)
    for block in (b[lo : lo + step] for b in blocks for lo in range(0, len(b), step)):
        values = block.ravel()
        text, keep = words[:, : len(values)]
        ok = _fixed_rows(values, work[: 10 * len(values)].reshape(10, -1), text, keep, quads, last)
        text.reshape(*block.shape, 4)[:, :, 3] |= seps
        keep[:, 3] |= 1 << 56
        chars, kept = text.view(np.uint8), keep.view(bool)
        slow = np.flatnonzero(~ok)  # the values that format_float spells
        spelled = np.array([format_float(v) for v in values[slow].tolist()], dtype="S31")
        chars[slow, :31] = spelled.view(np.uint8).reshape(-1, 31)
        kept[slow, :31] = chars[slow, :31] != 0
        for lo in range(0, len(values), _WRITE_PIECE):
            stream.write(codecs.ascii_decode(chars[lo : lo + _WRITE_PIECE][kept[lo : lo + _WRITE_PIECE]])[0])
