"""CSV text of float arrays, each number as ``'%.17g' % x`` writes it.

``fmt`` is the per-value definition.  ``csv_block`` writes the same bytes
for a block of table rows with numpy: for each value it finds the exact
17-digit significand D and decimal exponent X from a table of powers of
ten (as in Adams, "Ryu revisited: printf floating point conversion",
PLDI 2019), then lays out D as ``%g`` does.

The significand is y = |x| 10^s rounded to an integer, with s = 16 - X
chosen so that 10^16 <= y < 10^17.  With |x| = f 2^E (``np.frexp``,
f in [0.5, 1), normal even for subnormal x) and 10^s = (Mh + Ml) 2^q
(a double-double table with Mh in [1, 2), built once from exact Python
integers), y = f (Mh + Ml) 2^(E + q).  The product f Mh is exact as a
pair of doubles by Dekker's two-product (Numer. Math. 18, 224 (1971);
Veltkamp splitting, as numpy has no FMA), so y is known to about 1e-14
absolute, which decides the rounding of every value whose fraction is
not within ``_TIE_WINDOW`` of 1/2.  Those values (exact decimal ties,
which round half to even, among them), NaN and the infinities go
through ``fmt``.  X starts from ``np.log10`` and is corrected once where
y lands outside [10^16, 10^17).

%g writes a value with exponent X (after rounding) in fixed notation
for -4 <= X < 17, else as d.ddd...e±XX, and strips trailing zeros from
the fraction.  Each value gets a 32-byte row, written as aligned words
from lookup tables: the sign and the "0.000" prefix right-aligned in
bytes 0-5, the digits with their point in bytes 6-23, and the exponent
and separator left-aligned in bytes 24-31.  A mask row, from a table
indexed by (sign, layout, significant digits), keeps the characters of
the layout, so most values are one contiguous run, and one boolean
compaction per block joins them in order.
"""
from __future__ import annotations

import functools

import numpy as np


def fmt(x: float) -> str:
    """One number as the CSV writes it: 17 significant digits."""
    return "%.17g" % x


# values per csv_block call that a caller should aim for: each takes its
# 32-byte row, its mask and about twenty 8-byte intermediates
BLOCK_VALUES = 1 << 14
# |fraction of y - 1/2| below which a value goes through fmt; the error in
# y is about 1e-14
_TIE_WINDOW = 1e-6
# s = 16 - X for X from -324 (subnormals) to 308, and one further either
# way for the exponent correction
_S_MIN, _S_MAX = 16 - 309, 16 + 325
# layouts: fixed notation for X = -4..16, then e-notation with a two- and
# a three-digit exponent
_FIXED_LO, _FIXED_HI = -4, 17
_EXP2 = _FIXED_HI - _FIXED_LO
_EXP3 = _EXP2 + 1
_LAYOUTS = _EXP3 + 1
_E_MIN, _E_MAX = -324, 308
_NO_EXP = _E_MAX - _E_MIN + 1                # suffix of a fixed layout


def _words(fields: list[bytes]) -> np.ndarray:
    """Each field, zero-padded to 8 bytes, as one native uint64."""
    raw = b"".join(f.ljust(8, b"\0") for f in fields)
    return np.frombuffer(raw, dtype=np.uint8).view(np.uint64).copy()


@functools.cache
def _tables():
    """Every table the block formatter reads, built once (about 4 ms)."""
    hi, lo, q = [], [], []
    for k in range(_S_MIN, _S_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        # 10^k = M 2^e with M = num / den in [1, 2) after the shift
        e = num.bit_length() - den.bit_length()
        num, den = (num, den << e) if e >= 0 else (num << -e, den)
        if num < den:
            e -= 1
            num <<= 1
        m_hi = num / den                      # correctly rounded
        a, b = m_hi.as_integer_ratio()
        hi.append(m_hi)
        lo.append((num * b - a * den) / (den * b))
        q.append(e)
    hi = np.array(hi)
    split = 134217729.0 * hi                  # 2^27 + 1
    hi_hi = split - (split - hi)
    # int32 exponents: np.ldexp has no fast loop for int64 ones
    powers = (hi, hi_hi, hi - hi_hi, np.array(lo), np.array(q, dtype=np.int32))

    four = np.frombuffer(
        "".join("%04d" % i for i in range(10000)).encode(), dtype=np.uint32
    )
    groups = np.arange(10000)
    trailing = np.full(10000, 4)
    trailing[1:] = sum(groups[1:] % p == 0 for p in (10, 100, 1000))

    # bytes 0-7 by sign * _LAYOUTS + layout: sign and prefix right-aligned
    # in 0-5, then the prefix's last character in 6 (X < 0) or the point
    # in 7 (X >= 0 and e-notation); the first digit goes in the free byte
    prefixes = []
    for sign in (b"", b"-"):
        for layout in range(_LAYOUTS):
            x = layout + _FIXED_LO
            if layout < _EXP2 and x < 0:
                head = sign + b"0." + b"0" * (-x - 1)
                prefixes.append(head[:-1].rjust(6, b"\0") + head[-1:] + b"\0")
            else:
                prefixes.append(sign.rjust(6, b"\0") + b"\0.")
    prefixes = _words(prefixes)
    # bytes 24-31 by [separator, X - _E_MIN] for e-notation, or
    # [separator, _NO_EXP] for a fixed layout: "e+XX," or "," alone
    suffixes = _words([
        field
        for sep in (b",", b"\n")
        for field in [b"e%+03d" % e + sep for e in range(_E_MIN, _E_MAX + 1)] + [sep]
    ]).reshape(2, -1)

    # masks by (sign * _LAYOUTS + layout) * 17 + significant digits - 1
    sign = np.arange(2)[:, None, None, None]
    layout = np.arange(_LAYOUTS)[None, :, None, None]
    digits = np.arange(1, 18)[None, None, :, None]
    col = np.arange(32)[None, None, None, :]
    x = layout + _FIXED_LO
    fixed = layout < _EXP2
    small = fixed & (x < 0)
    head = sign + np.where(small, -x, 0)
    body = np.where(
        small, 1 + digits,
        np.where(fixed, np.where(digits > x + 1, digits + 1, x + 1),
                 np.where(digits > 1, digits + 1, 1)),
    )
    tail = np.where(fixed, 1, np.where(layout == _EXP2, 5, 6))
    mask = (
        ((col >= 6 - head) & (col < 6 + body))
        | ((col >= 24) & (col < 24 + tail))
    )
    # as four words a row, so that a row is gathered as one take
    masks = np.ascontiguousarray(mask.reshape(-1, 32)).view(np.uint64)
    return powers, four, trailing, prefixes, suffixes, masks


def csv_block(block: np.ndarray) -> str:
    """CSV lines of a 2-D float64 array with at least one column, each
    value as ``fmt`` writes it and a newline after each row."""
    powers, four, trailing, prefixes, suffixes, masks = _tables()
    rows, cols = block.shape
    x = block.ravel()
    n = x.size
    neg = np.signbit(x)
    ax = np.abs(x)
    fallback = ~np.isfinite(ax)

    live = np.flatnonzero(~fallback & (ax != 0.0))
    a = ax[live]
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    whole, part = _scaled(a, exp10, powers)
    # y = whole + part lies in [1e16, 1e17) unless the log10 estimate was
    # one off near a power of ten; redo those with the exponent moved
    low, high = _outside(whole, part)
    redo = np.flatnonzero(low | high)
    if redo.size:
        exp10[redo] += np.where(high[redo], 1, -1)
        whole[redo], part[redo] = _scaled(a[redo], exp10[redo], powers)
        low, high = _outside(whole, part)
    floor = np.floor(part)
    frac = part - floor
    fallback[live[(np.abs(frac - 0.5) < _TIE_WINDOW) | low | high]] = True

    sig = np.zeros(n, dtype=np.int64)
    exp = np.zeros(n, dtype=np.int64)
    sig[live] = whole.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    exp[live] = exp10
    carry = sig == 10 ** 17                   # rounded up to the next power
    sig[carry] = 10 ** 16
    exp[carry] += 1
    sig[fallback] = 0
    exp[fallback] = 0

    lead = sig // 10 ** 16
    rest = sig - lead * 10 ** 16
    upper = rest // 10 ** 8
    lower = rest - upper * 10 ** 8
    g1 = upper // 10 ** 4
    g2 = upper - g1 * 10 ** 4
    g3 = lower // 10 ** 4
    g4 = lower - g3 * 10 ** 4
    fixed = (exp >= _FIXED_LO) & (exp < _FIXED_HI)
    layout = np.where(fixed, exp - _FIXED_LO, np.where(np.abs(exp) < 100, _EXP2, _EXP3))
    small = fixed & (exp < 0)

    words = np.empty((n, 4), dtype=np.uint64)
    chars = words.view(np.uint8)
    quads = words.view(np.uint32)
    words[:, 0] = prefixes.take(neg * _LAYOUTS + layout)
    first = (lead + 48).astype(np.uint8)
    chars[:, 6] = np.where(small, chars[:, 6], first)
    chars[:, 7] = np.where(small, first, chars[:, 7])
    for i, g in enumerate((g1, g2, g3, g4)):
        quads[:, 2 + i] = four.take(g)
    suffix = np.where(fixed, _NO_EXP, exp - _E_MIN)
    words[:, 3] = suffixes[0].take(suffix)
    last = suffix.reshape(rows, cols)[:, -1]
    words.reshape(rows, cols, 4)[:, -1, 3] = suffixes[1, last]

    # fixed X >= 1: the point moves from after the first digit to after X + 1
    shift = np.flatnonzero(fixed & (exp >= 1))
    if shift.size:
        j = np.arange(18)
        point = exp[shift, None] + 1
        source = np.where((j >= 1) & (j < point), j + 1, np.where(j == point, 1, j))
        chars[shift, 6:24] = np.take_along_axis(chars[shift, 6:24], source, axis=1)

    zeros = trailing.take(g4)
    more = np.flatnonzero(g4 == 0)
    if more.size:
        zeros[more] += trailing[g3[more]] + (g3[more] == 0) * (
            trailing[g2[more]] + (g2[more] == 0) * trailing[g1[more]])
    mask = masks.take((neg * _LAYOUTS + layout) * 17 + 16 - zeros, axis=0).view(np.bool_)
    for i in np.flatnonzero(fallback).tolist():
        text = fmt(float(x[i])).encode()
        chars[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        mask[i, :24] = np.arange(24) < len(text)
    return chars[mask].tobytes().decode("ascii")


def _outside(whole: np.ndarray, part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where y = whole + part lies below 1e16, and where at or above 1e17.
    A y less than _TIE_WINDOW under 1e16 counts as in range: it rounds to
    1e16, and 10 y rounds to 1e17 and carries to the same significand and
    exponent, so an exact power of ten computed a hair low stays put."""
    low = (whole < 1e16) | ((whole == 1e16) & (part < -_TIE_WINDOW))
    high = (whole > 1e17) | ((whole == 1e17) & (part >= 0.0))
    return low, high


def _scaled(a: np.ndarray, exp10: np.ndarray, powers) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16 - exp10) as whole + part: whole the nearest double, an
    integer from 2^53 up, and part the rest, to about 1e-14 absolute."""
    hi, hi_hi, hi_lo, lo, q = powers
    k = 16 - exp10 - _S_MIN
    f, e = np.frexp(a)
    m = hi[k]
    # Dekker's two-product: p + err == f * m exactly
    p = f * m
    split = 134217729.0 * f
    f_hi = split - (split - f)
    f_lo = f - f_hi
    m_hi, m_lo = hi_hi[k], hi_lo[k]
    err = ((f_hi * m_hi - p) + f_hi * m_lo + f_lo * m_hi) + f_lo * m_lo
    g = e + q[k]
    whole = np.ldexp(p, g)
    part = np.ldexp(err + f * lo[k], g)
    total = whole + part
    return total, part - (total - whole)
