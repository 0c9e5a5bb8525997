"""CSV text of float64 blocks, byte-identical to Python's '%.17g'.

cells() lays a (rows, cols) block out as fixed-width byte cells: each holds
its value's text followed by zero padding and ends in ',' or, in the last
column, '\\n'; join() drops the zero bytes.  For 1e-4 <= |x| < 1e17 the
text is fixed notation, built in numpy:

- Digits.  D = round-half-even(|x| 10^k), k = 16 - E, is the value's
  17-digit significand, E = floor(log10|x|).  10^k is an exact double
  (k <= 22), and Dekker's two-product splits |x| 10^k exactly into
  hi + lo; hi is an even integer (it is above 2^53), so D = hi + rint(lo).
  log10 only estimates E: k moves until 1e16 <= hi + lo < 1e17.  D never
  rounds up to 10^17: that needs a double within 5e-18 (relative) below a
  power of ten, and below 10^-5..10^17 the nearest lie 8e-17 or more away.
- Text.  Four-digit groups of D come from a table of ASCII words, into a
  24-byte cell of three little-endian words: sign at byte 0, the digits
  at bytes 3..19.  The decimal point, the "0.000" lead of E < 0 and the
  cut after the last nonzero digit are per-(E, end) byte masks applied
  to the cell and to a copy of it moved right by the digits' shift.

Every other value (exponent notation, subnormals, +-0, nan, inf) is
formatted by Python's own '%.17g', one template per block.  Its text is
at most 24 bytes, and only a negative value with a 3-digit exponent can
need all 24: a block holding one gets 32-byte cells, so that the
separator still fits.
"""

from __future__ import annotations

import os
import sys
from typing import Iterable

import numpy as np

_U8, _U32, _U64 = np.dtype("u1"), np.dtype("<u4"), np.dtype("<u8")

# v = 1000 a + 100 b + 10 c + d, 0 <= v < 10^4: _DIGITS4[v] is the ASCII text
# of a, b, c, d as one little-endian word, _ZEROS4[v] the trailing zeros of v
_A, _B, _C, _D = np.ix_(*[np.arange(10)] * 4)
_DIGITS4 = ((_A | _B << 8 | _C << 16 | _D << 24) + 0x30303030).reshape(-1)
_ZEROS4 = ((_D == 0) * (1 + (_C == 0) * (1 + (_B == 0) * (1 + (_A == 0))))).reshape(-1)

# values per cells() call in rows(): about 1 MB of work arrays, held once per
# thread that formats (sample formats its chunks on the worker pool)
_BLOCK_VALUES = 1 << 12

_POW10 = 10.0 ** np.arange(23)  # exact doubles
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _byte_masks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Words (21 * 25, 3) indexed by (E + 4) * 25 + end: the bytes kept from
    the digit cell, the bytes taken from its moved copy, and the fill text.

    The digit cell has the sign at byte 0 and digit j at byte 3 + j.  For
    E >= 0, digits 0..E stay, '.' follows and the rest move one byte right.
    For E < 0 the text is '0.', -E - 1 zeros, then all digits, moved -1 - E
    bytes right (not at all for E = -1).  end cuts the text.
    """
    e = np.arange(-4, 17)[:, None, None]
    at = np.arange(24)
    stay = (at == 0) | (at >= 3) & (at < np.where(e >= 0, e + 4, np.where(e == -1, 24, 3)))
    moved = (at >= np.where(e >= 0, e + 5, 2 - e)) & (e != -1)
    zeros = (e < 0) & (at >= 1) & (at < 2 - e)
    fill = np.where(at == np.where(e >= 0, e + 4, 2), ord("."), zeros * ord("0"))
    masks = np.stack([stay * 0xFF, moved * 0xFF, fill]).astype(_U8)
    masks = masks * (at < np.arange(25)[:, None])  # (3, E, end, byte)
    return masks.view(_U64).reshape(3, -1, 3)


_STAY, _MOVED, _FILL = _byte_masks()


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, E): a rounded half-even to 17 digits is D * 10^(E - 16), for a in
    [1e-5, 1e17).  k = 16 - E stays in [0, 21]."""
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    while True:
        p, p_hi, p_lo = _POW10[k], _POW10_HI[k], _POW10_LO[k]
        hi = a * p
        lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        if not (low.any() or high.any()):
            break
        k += low.view(np.int8) - high.view(np.int8)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), 16 - k


def _move_right(words: np.ndarray, bits) -> np.ndarray:
    """Each row of 3 little-endian words as 24 bytes, moved bits/8 bytes
    toward the end (8 <= bits <= 56)."""
    out = words << bits
    out[:, 1:] |= words[:, :-1] >> (np.uint64(64) - bits)
    return out


def _fixed_cells(x: np.ndarray, e: np.ndarray, d: np.ndarray) -> np.ndarray:
    """(m, 3) words: the fixed-notation text of x with significand d and
    exponent e in [-4, 16], zero padded."""
    d0 = d // 10**16
    hi8, lo8 = np.divmod(d - d0 * 10**16, 10**8)
    groups = [hi8 // 10**4, hi8 % 10**4, lo8 // 10**4, lo8 % 10**4]
    zeros = _ZEROS4[groups[3]]
    for i in (2, 1, 0):  # groups i+1.. all zero: count on into group i
        z = np.flatnonzero(zeros == 12 - 4 * i)
        zeros[z] += _ZEROS4[groups[i][z]]
    digits = 17 - zeros
    cell = np.zeros((len(d), 6), _U32)
    cell[:, 0] = (d0.astype(_U32) + 48) << 24 | (x < 0).astype(_U32) * ord("-")
    for i in range(4):
        cell[:, i + 1] = _DIGITS4[groups[i]]
    cell = cell.view(_U64)
    moved = _move_right(cell, np.uint64(8))
    deep = np.flatnonzero(e < -2)  # E = -3, -4: the digits move 2 or 3 bytes
    if deep.size:
        moved[deep] = _move_right(cell[deep], ((-1 - e[deep]) * 8).astype(_U64)[:, None])
    end = np.where(e >= 0, np.where(digits <= e + 1, e + 4, digits + 4), 2 - e + digits)
    j = (e + 4) * 25 + end
    return (cell & _STAY.take(j, axis=0)) | (moved & _MOVED.take(j, axis=0)) | _FILL.take(j, axis=0)


def cells(block: np.ndarray) -> np.ndarray:
    """(rows, cols, width) uint8: the '%.17g' text of each value, zero padded,
    then ',' (or '\\n' in the last column)."""
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=float).reshape(-1)
    a = np.abs(x)
    candidates = np.flatnonzero((a >= 1e-5) & (a < 1e17))
    d, e = _significand(a[candidates])
    in_range = e >= -4
    fixed = candidates[in_range]
    is_other = np.ones(len(x), bool)
    is_other[fixed] = False
    other = np.flatnonzero(is_other)
    v = x[other]
    # a 24-byte text, "-d.dddddddddddddddde-ddd", needs a sign and a 3-digit exponent
    width = 32 if np.any((v <= -1e100) | ((v < 0) & (v > -1e-99))) else 24
    words = np.zeros((len(x), width // 8), _U64)
    words[fixed, :3] = _fixed_cells(x[fixed], e[in_range], d[in_range])
    out = words.view(_U8).reshape(rows, cols, width)
    if other.size:
        text = (f"%-{width - 1}.17g" * other.size % tuple(v.tolist())).encode()
        padded = np.frombuffer(text, _U8).reshape(other.size, width - 1)
        out.reshape(-1, width)[other, :-1] = np.where(padded == ord(" "), 0, padded)
    out[:, :, -1] = ord(",")
    out[:, -1, -1] = ord("\n")
    return out


def join(cells_: np.ndarray) -> bytes:
    """The text of a cell array: its bytes without the zero padding."""
    flat = cells_.reshape(-1)
    return np.compress(flat != 0, flat).tobytes()


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
