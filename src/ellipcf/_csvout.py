"""CSV text of float64 blocks, byte-identical to Python's '%.17g'.

cells() lays a (rows, cols) block out as 40-byte cells: each holds its
value's characters in order, with zero bytes among and after them, and ends
in ',' or, in the last column, '\\n'; join() drops the zero bytes.  For
1e-4 <= |x| < 1e17 the text is fixed notation, built in numpy:

- Digits.  D = round-half-even(|x| 10^k), k = 16 - E, is the value's
  17-digit significand, E = floor(log10|x|).  10^k is an exact double
  (k <= 22), and Dekker's two-product splits |x| 10^k exactly into
  hi + lo; hi is an even integer (it is above 2^53), so D = hi + rint(lo).
  log10 only estimates E: k moves until 1e16 <= D < 1e17.  That test is
  exact, since D reaches a power of ten from below only for a double
  within 5e-17 (relative) below one, and below 10^-4..10^17 the nearest lie
  8e-17 or more away.
- Text.  Byte 0 holds the sign and bytes 1..5 the "0.000" lead of E < 0.
  Digit j of D sits at byte 6 + 2j, from a table of four-digit words, and
  the byte after it takes the decimal point when the point follows it.
  Per-(E, significant digits) byte masks keep the digits shown and add
  the point, the lead and the ','.

Every other value (exponent notation, subnormals, +-0, nan, inf) is
formatted by Python's own '%.17g', one template per block; its text is at
most 24 bytes.
"""

from __future__ import annotations

import os
import sys
from typing import Iterable

import numpy as np

_U8, _U64 = np.dtype("u1"), np.dtype("<u8")

# v = 1000 a + 100 b + 10 c + d, 0 <= v < 10^4: _DIGITS4[v] is the ASCII text
# of a, b, c, d at the even bytes of a little-endian word, _ZEROS4[v] the
# trailing zeros of v
_A, _B, _C, _D = np.ix_(*[np.arange(10)] * 4)
_DIGITS4 = ((_A | _B << 16 | _C << 32 | _D << 48) + 0x0030003000300030).astype(_U64).reshape(-1)
_ZEROS4 = ((_D == 0) * (1 + (_C == 0) * (1 + (_B == 0) * (1 + (_A == 0))))).astype(_U8).reshape(-1)

# values per cells() call in rows(): under 0.25 MB of work arrays, held once
# per thread that formats (sample formats its chunks on the worker pool)
_BLOCK_VALUES = 1 << 11

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_POW10 = 10.0 ** np.arange(22)  # exact doubles
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10 = np.stack([_POW10, _POW10_HI, _POW10 - _POW10_HI])  # 10^k, and split in two
# the bits of a float >= 0 less those of 1e-4 wrap around below 1e-4, so one
# unsigned compare finds every value outside [1e-4, 1e17), nan included
_FIXED_LO, _FIXED_HI = np.array([1e-4, 1e17]).view(_U64)


def _byte_masks() -> tuple[np.ndarray, np.ndarray]:
    """Words (21 * 17, 5) indexed by (E + 4) * 17 + n - 1, for n significant
    digits: the digit bytes kept, and the point, the lead and the ','.

    For E >= 0, digits 0..max(E, n - 1) show and the point follows digit E
    when n > E + 1.  For E < 0, the n digits follow "0." and -E - 1 zeros.
    """
    e = np.arange(-4, 17)[:, None, None]
    n = np.arange(1, 18)[:, None]
    at = np.arange(40)
    keep = (at >= 6) & (at % 2 == 0) & (at // 2 - 3 < np.maximum(n, e + 1))
    point = (at == np.where(e >= 0, 2 * e + 7, 2)) & (n > e + 1)
    zeros = (e < 0) & (at >= 1) & (at <= 1 - e) & (at != 2)
    fill = point * ord(".") + zeros * ord("0") + (at == 39) * ord(",")
    masks = np.stack([keep * 0xFF, fill]).astype(_U8)  # (2, E, n, byte)
    return masks.view(_U64).reshape(2, -1, 5)


_KEEP, _FILL = _byte_masks()


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, k): a rounded half-even to 17 digits is D * 10^-k, for a in
    [1e-4, 1e17).  k = 16 - E ends in [0, 20]; its estimate may be 21."""
    k = (16.0 - np.floor(np.minimum(np.log10(a), 16.0))).astype(np.intp)
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    while True:
        p, p_hi, p_lo = _POW10.take(k, axis=1)
        hi = a * p
        lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
        d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
        low, high = d < 10**16, d >= 10**17
        if not (low.any() or high.any()):
            return d, k
        k += low.view(np.int8) - high.view(np.int8)


def cells(block: np.ndarray) -> np.ndarray:
    """(rows, cols, 40) uint8: the '%.17g' text of each value, with zero
    bytes among and after its characters, then ',' (or '\\n' in the last
    column)."""
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=float).reshape(-1)
    a = np.abs(x)
    other = np.flatnonzero(a.view(_U64) - _FIXED_LO >= _FIXED_HI - _FIXED_LO)
    a[other] = 1.0  # any fixed value: its cells are written over below
    d, k = _significand(a)
    groups = np.empty((len(d), 5), np.intp)  # D's digits 0, 1-4, 5-8, 9-12, 13-16
    for i in (4, 3, 2, 1):
        q = d // 10**4
        np.subtract(d, q * 10**4, out=groups[:, i])
        d = q
    groups[:, 0] = d
    zeros = _ZEROS4.take(groups[:, 4])
    for i in (3, 2, 1):  # groups i+1.. all zero: count on into group i
        z = np.flatnonzero(zeros == 16 - 4 * i)
        if not z.size:
            break
        zeros[z] += _ZEROS4.take(groups[z, i])
    j = 356 - 17 * k  # (E + 4) * 17 + n - 1, n = 17 - zeros
    j -= zeros
    words = _DIGITS4.take(groups)
    del groups
    words &= _KEEP.take(j, axis=0)
    words |= _FILL.take(j, axis=0)
    out = words.view(_U8)
    out[:, 0] = np.signbit(x).view(_U8) * ord("-")
    if other.size:
        text = ("%-39.17g" * other.size % tuple(x[other].tolist())).encode()
        padded = np.frombuffer(text, _U8).reshape(other.size, 39)
        out[other, :39] = np.where(padded == ord(" "), 0, padded)
    out = out.reshape(rows, cols, 40)
    out[:, -1, -1] = ord("\n")
    return out


def join(cells_: np.ndarray) -> bytes:
    """The text of a cell array: its bytes without the zero bytes."""
    return cells_.tobytes().translate(None, b"\0")


def rows(block: np.ndarray) -> list[bytes]:
    """CSV lines of a float block, as ",".join(["%.17g"] * cols) + "\\n" per row:
    a list of parts of about _BLOCK_VALUES values (one row at least), written in turn."""
    step = max(1, _BLOCK_VALUES // block.shape[1])
    return [join(cells(block[i:i + step])) for i in range(0, len(block), step)]


def write(path, parts: Iterable[bytes]) -> None:
    """Write the parts to the file at path, or to stdout for '-'.

    The parts may be computed as they are written.  If one fails, a regular
    file at path is removed, so that a failed run leaves no partial output.
    """
    if path != "-":
        fh = open(path, "wb")
        try:
            with fh:
                fh.writelines(parts)
        except BaseException:
            if os.path.isfile(path):
                os.remove(path)
            raise
        return
    stream = getattr(sys.stdout, "buffer", None)
    if stream is None:  # a text-only stdout, such as io.StringIO
        sys.stdout.writelines(part.decode("ascii") for part in parts)
        return
    sys.stdout.flush()
    stream.writelines(parts)
    stream.flush()
