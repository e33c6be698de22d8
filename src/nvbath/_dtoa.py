"""Exact ``%.17g`` of a block of doubles in numpy, for the CSV tables.

:func:`format_block` returns the same bytes as ``"%.17g" %`` on every cell,
with "," between the cells of a row and LF after it. For 1e-4 <= |v| <
1e16, ``%.17g`` is fixed notation, and the kernel needs the 17 significant
digits D = round_half_even(|v| * 10**(16 - X)), X the decimal exponent.
10**k is a double for k <= 22, so Dekker's two-product gives |v| * 10**k
exactly as p + err. In that range p >= 1e16 > 2**53 is an even integer, so
D = p + rint(err) rounds half to even exactly, and the same pair tests |v|
against 10**X without rounding, which corrects X where ``floor(log10)``
missed. No double in the range lies within 5e-18 relative below a power of
ten, so D never rounds up to 10**17. Only the cells in that range enter this
digit pipeline. Zeros are ``0`` and ``-0``; every other cell (|v| < 1e-4 or
>= 1e16, nan, +-inf) is formatted by ``"%.17g" %``. Each cell's text goes
into a 32-byte slot of NULs, its separator first; the slots' all-NUL 8-byte
words are dropped, and ``bytes.translate`` deletes the NULs left.

:mod:`nvbath.table` imports this module when it first writes a long table,
so its lookup tables cost import time only to a run that needs them.
"""

from __future__ import annotations

import sys

import numpy as np

# A slot's byte 0 holds what comes before its cell: ',' or the LF ending the
# row before; one slot after the last cell holds the block's final LF. Byte 1
# holds a '-', byte 6 a zero's '0', bytes 1-24 a '%' cell (24 characters at
# most). A fast cell fills bytes 0-23, three native uint64 lanes written as
# the head of its slot (_SLOTS): "0000" and the 17 digits of D at bytes 3-23,
# the leading digit at byte 7. The fraction stays; the integer part moves down
# one byte, to bytes 6 + min(X, 0) to 6 + X, for the '.' at 7 + X. Row X + 4
# of _KEEP_INT serves exponent X. Row 25 * (X + 4) + c of _POINT and
# _KEEP_FRAC serves the same and also drops every byte from c on: the
# fraction's trailing zeros.
_SLOT = np.arange(24)
_X = np.arange(-4, 16)[:, None]
_BEFORE = _SLOT < np.arange(25)[:, None]  # row c: the bytes before c


def _lanes(mask, byte=255):
    """Byte masks, in rows of 24, as one contiguous uint64 array per lane."""
    return (mask * np.uint8(byte)).reshape(-1, 24).view(np.uint64).T.copy()


_KEEP_INT = _lanes((_SLOT >= 6 + np.minimum(_X, 0)) & (_SLOT <= 6 + _X))
_POINT = _lanes((_SLOT == 7 + _X)[:, None] & _BEFORE, ord("."))
_KEEP_FRAC = _lanes((_SLOT >= 8 + _X)[:, None] & _BEFORE)
_SLOTS = np.dtype({"names": ["text"], "formats": ["V24"], "itemsize": 32})
# Moving a lane's bytes one address down is a shift toward the low end of the
# number on a little-endian machine and toward the high end on a big-endian one.
_DOWN, _UP = (
    (np.right_shift, np.left_shift)
    if sys.byteorder == "little"
    else (np.left_shift, np.right_shift)
)
# Four ASCII digits of 0-9999 as one native uint32, first digit first, and
# the number of trailing zeros among them.
_QUADS = np.stack(np.indices((10,) * 4, np.uint8).reshape(4, -1), axis=1)
_DIGITS4 = (_QUADS + ord("0")).view(np.uint32).ravel()
_ZEROS4 = np.logical_and.accumulate(_QUADS[:, ::-1] == 0, axis=1).sum(1, np.int8)
_POW10 = np.array([float(10**k) for k in range(22)])


def _split(a):
    """Veltkamp's split of doubles into two halves of at most 26 bits."""
    t = a * 134217729.0
    high = t - (t - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _split(_POW10)


def _scaled(a, x):
    """``a * 10**(16 - x)`` exactly, as Dekker's pair (rounded product, error)."""
    k = (16 - x).astype(np.intp)
    p = a * _POW10.take(k)
    a_high, a_low = _split(a)
    err = a_high * _POW10_HIGH.take(k)
    err -= p
    err += a_high * _POW10_LOW.take(k)
    err += a_low * _POW10_HIGH.take(k)
    err += a_low * _POW10_LOW.take(k)
    return p, err


def format_block(block: np.ndarray) -> str:
    """A float64 block as CSV rows of ``%.17g`` cells, each row ending in LF."""
    width = block.shape[1]
    v = block.ravel()
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    # Only the fast cells enter the digit pipeline, gathered into a compact
    # array by the mask that scatters their slots back after it.
    a = a[fast]
    x = np.clip(np.floor(np.log10(a)), -4, 15).astype(np.int8)
    p, err = _scaled(a, x)
    above = (p > 1e17) | ((p == 1e17) & (err >= 0))
    below = (p < 1e16) | ((p == 1e16) & (err < 0))
    if above.any() or below.any():
        x += above
        x -= below
        p, err = _scaled(a, x)
    # The dels, and the block's slots made only for the scatter, hold its
    # peak memory under 90 bytes per cell (traced: 87 on a 4096 x 2 block of
    # fast cells, 70 on one shaped like a spectrum).
    del a
    d = p.astype(np.int64)
    d += np.rint(err).astype(np.int64)
    del p, err
    text = np.empty((d.size, 6), np.uint32)
    text[:, 0] = _DIGITS4[0]
    # D's four-digit groups, last first, then its leading digit. A group's
    # trailing zeros count while every group after it is 0.
    trailing = np.zeros_like(x)
    zero_after = np.ones(d.size, bool)
    for i in range(5, 1, -1):
        quotient = d // 10_000
        group = d - quotient * 10_000
        d = quotient
        text[:, i] = _DIGITS4.take(group)
        trailing += zero_after * _ZEROS4.take(group)
        zero_after &= group == 0
    text[:, 1] = _DIGITS4.take(d)
    del d, quotient, group, zero_after
    # The fraction loses its trailing zeros, and its '.' if none is left.
    places = 16 - x
    end = 24 - np.minimum(trailing, places) - (trailing >= places)
    row = (x + 4).astype(np.intp)
    cut = row * 25 + end
    del trailing, places, x, end
    # Lane i takes a byte from lane i + 1, so the lanes go in increasing order.
    lanes = text.view(np.uint64)
    for i in range(3):
        lane = lanes[:, i]
        whole = _DOWN(lane, 8)
        if i < 2:
            whole |= _UP(lanes[:, i + 1], 56)
        whole &= _KEEP_INT[i].take(row)
        lane &= _KEEP_FRAC[i].take(cut)
        lane |= whole
        lane |= _POINT[i].take(cut)
    del whole, row, cut, lane
    words = np.zeros((v.size + 1, 4), np.uint64)
    chars = words.view(np.uint8)[:-1]
    # The scatter and the '%' text overwrite byte 6 of every slot not a zero.
    chars[:, 6] = (v == 0) * np.uint8(ord("0"))
    chars.view(_SLOTS)["text"][fast] = text.view("V24")
    del lanes, text
    chars[:, 1] = np.signbit(v) * np.uint8(ord("-"))
    other = np.flatnonzero(~fast & (v != 0))
    spelled = np.array(["%.17g" % value for value in v[other].tolist()], "S24")
    chars[other, 1:25] = spelled.view(np.uint8).reshape(-1, 24)
    separators = words.view(np.uint8)[:, 0]
    separators[:] = ord(",")
    separators[width::width] = ord("\n")
    separators[0] = 0
    words = words.ravel()
    kept = np.compress(words != 0, words).tobytes()
    del words, chars, separators
    return kept.translate(None, b"\0").decode()
