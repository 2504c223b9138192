"""The text of trajectory.csv's rows: exact ``%.16e``, block by block.

``trajectory_blocks(times, states)`` yields the ASCII bytes of the table
``[times | states]``, ``_BLOCK_ROWS`` rows at a time; each is the bytes of

    (("%.16e," * (cols - 1) + "%.16e\\n") * rows) % tuple(block.ravel().tolist())

for its (rows, cols) block.  A block's columns are copied into one reused
buffer (no copy of the whole table is made), and its magnitudes and range
mask are computed once.  Each run of rows whose values all lie in the fast
range (+-0.0, or finite with 1e-11 < |x| < 2^51) goes through the numpy
kernel below, each run of the other rows through ``%`` on Python floats.
(The double nearest 1e-11 lies just below 10^-11, where k below would be
28, so it is left out.  The divergence guard keeps states within 1e12; only
times of absurd horizons reach 2^51 ~ 2.25e15.)

Kernel method (fixed-precision digits from an exact wide-integer product, as
in Ryu printf, rounded half to even as correctly rounded dtoa rounds):

* ``frexp`` gives |x| = M 2^b exactly, with M a 53-bit integer.
* ``floor(log10 |x|)`` estimates the decimal exponent D, so that
  T = floor(|x| 10^(16-D)) has 17 digits.  With k = 16 - D in [1, 27],
  |x| 10^k = M 5^k 2^(b+k): the product P = M 5^k is formed exactly as a
  128-bit (hi, lo) pair from 32-bit limbs, and shifted right by
  s = -(b+k), which lies in [1, 62] on the fast range (it would reach 0
  from 2^51 up).
* The estimate can be one off near a power of ten.  The digit count is
  checked on the truncated T: below 10^16 decrements D, 10^17 or more
  increments it, and T is formed again.  (Checked after rounding instead,
  1e-7, whose log10 rounds to -7 exactly, would print as 1.0e-07.)
* The remainder P mod 2^s decides the rounding, half to even; a T rounded
  up to 10^17 becomes 10^16 with D + 1.
* The 17 digits come from a table of four-digit groups, the sign from
  ``signbit`` (so -0.0 prints as -0.0000000000000000e+00).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["trajectory_blocks"]

#: Rows per block: the unit of the kernel's numpy calls and of each write.
_BLOCK_ROWS = 1024

_PAD = 0  # a sign slot of a value that is not negative; deleted at the end
_TEN3, _TEN7, _TEN11, _TEN15, _TEN16, _TEN17 = (np.uint64(10**i) for i in (3, 7, 11, 15, 16, 17))
_LOW32 = np.uint64(0xFFFFFFFF)
_ONE = np.uint64(1)
_MIN_EXP, _MAX_EXP = -11, 15  # the range of D on the fast range
_HIGH = 2.0 ** 51

#: 5^k for k = 0..27 (5^27 < 2^63), split into its low and high 32 bits.
_POW5 = np.uint64(5) ** np.arange(28, dtype=np.uint64)
_POW5_LOW, _POW5_HIGH = _POW5 & _LOW32, _POW5 >> np.uint64(32)

# A value's 24 bytes are six uint32 words, each a table entry:
#   [sign or pad, 1st digit, ".", 2nd digit] [3rd-6th] [7th-10th] [11th-14th]
#   [15th-17th digit, "e"] [exponent sign, exponent digits, separator]
_ASCII = np.arange(10000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16)
_ASCII = (_ASCII % 10 + 48).astype(np.uint8)
_DIGITS4 = _ASCII.view(np.uint32).ravel()  # "0000" .. "9999"
_TAIL = np.column_stack((_ASCII[:1000, 1:], np.full(1000, ord("e"), np.uint8)))
_TAIL = _TAIL.view(np.uint32).ravel()  # "000e" .. "999e"
_HEAD = np.empty((2, 100, 4), dtype=np.uint8)  # "?0.0" .. "-9.9", index + 100 when negative
_HEAD[:, :, 0] = np.array([[_PAD], [ord("-")]])
_HEAD[:, :, 1], _HEAD[:, :, 2], _HEAD[:, :, 3] = _ASCII[:100, 2], ord("."), _ASCII[:100, 3]
_HEAD = _HEAD.view(np.uint32).ravel()
_EXPONENTS = np.frombuffer(  # "-11," "-11\n" .. "+15\n"
    b"".join(b"%+03d%s" % (e, sep) for e in range(_MIN_EXP, _MAX_EXP + 1) for sep in (b",", b"\n")),
    dtype=np.uint32)


def _scaled(mant: np.ndarray, b: np.ndarray, d: np.ndarray):
    """floor(M 2^b 10^(16-d)), the exact remainder below it and half a unit, as uint64."""
    k = 16 - d
    m0, m1 = mant & _LOW32, mant >> np.uint64(32)
    f0, f1 = _POW5_LOW[k], _POW5_HIGH[k]
    lo = m0 * f0
    mid = m0 * f1 + m1 * f0  # < 2^63 + 2^53
    hi = m1 * f1 + (mid >> np.uint64(32))
    low = lo + (mid << np.uint64(32))
    hi += low < lo  # carry
    s = (-(b + k)).astype(np.uint64)
    unit = _ONE << (s - _ONE)
    return (hi << (np.uint64(64) - s)) | (low >> s), low & ((unit << _ONE) - _ONE), unit


def trajectory_blocks(times: np.ndarray, states: np.ndarray) -> Iterator[bytes]:
    """The rows' text of the table ``[times | states]``, one bytes object per block."""
    rows = len(times)
    columns = (times, *states.T)
    buffer = np.empty((min(rows, _BLOCK_ROWS), len(columns)))
    for start in range(0, rows, _BLOCK_ROWS):
        block = buffer[: min(rows - start, _BLOCK_ROWS)]
        for j, column in enumerate(columns):  # half the cost of one 2-d copy
            block[:, j] = column[start : start + _BLOCK_ROWS]
        a = np.abs(block)
        fast = (a == 0.0) | ((a > 1e-11) & (a < _HIGH))  # NaN fails both compares
        if fast.all():
            yield _kernel(block, a)
            continue
        fast = fast.all(axis=1)  # per row, then by runs of rows
        edges = [0, *(np.flatnonzero(fast[1:] != fast[:-1]) + 1).tolist(), len(block)]
        yield b"".join(_kernel(block[i:j], a[i:j]) if fast[i] else _percent(block[i:j])
                       for i, j in zip(edges, edges[1:]))


def _percent(block: np.ndarray) -> bytes:
    """The ``%.16e`` text of a 2-d float64 block, by ``%`` on Python floats."""
    line = ",".join(["%.16e"] * block.shape[1]) + "\n"
    return ((line * len(block)) % tuple(block.ravel().tolist())).encode("ascii")


def _kernel(block: np.ndarray, a: np.ndarray) -> bytes:
    """The ``%.16e`` text of a 2-d block whose magnitudes ``a`` lie in the fast range."""
    v, a = block.ravel(), a.ravel()
    zero = a == 0.0
    a = np.where(zero, 1.0, a)
    frac, e = np.frexp(a)
    mant = (frac * 2.0 ** 53).astype(np.uint64)
    b = e.astype(np.int64) - 53
    d = np.clip(np.floor(np.log10(a)), _MIN_EXP, _MAX_EXP).astype(np.int64)
    t, rem, unit = _scaled(mant, b, d)
    off = np.flatnonzero((t < _TEN16) | (t >= _TEN17))
    while off.size:  # the estimate was one off: count the digits of the truncated T
        d[off] += np.where(t[off] < _TEN16, -1, 1)
        t[off], rem[off], unit[off] = _scaled(mant[off], b[off], d[off])
        off = off[(t[off] < _TEN16) | (t[off] >= _TEN17)]
    t += (rem > unit) | ((rem == unit) & (t & _ONE).astype(bool))
    carry = t == _TEN17
    t[carry] = _TEN16
    d += carry
    t[zero] = 0
    d[zero] = 0

    head = t // _TEN15  # the first two digits
    rest = t - head * _TEN15
    words = np.empty((len(t), 6), dtype=np.uint32)
    words[:, 0] = _HEAD[head.view(np.int64) + 100 * np.signbit(v)]
    for j, scale in ((1, _TEN11), (2, _TEN7), (3, _TEN3)):
        group = rest // scale
        rest -= group * scale
        words[:, j] = _DIGITS4[group.view(np.int64)]
    words[:, 4] = _TAIL[rest.view(np.int64)]
    exponent = (2 * (d - _MIN_EXP)).reshape(block.shape)
    exponent[:, -1] += 1  # the row's last value ends in a newline
    words[:, 5] = _EXPONENTS[exponent.ravel()]
    return words.tobytes().replace(b"\0", b"")
