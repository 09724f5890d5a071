"""``'%.17g' % x`` for whole float64 arrays, exactly, as NUL-padded bytes.

``%.17g`` asks for 17 significant digits, past the fast path of CPython's
correctly rounded dtoa, so ``%`` takes the bignum route for every value.
Here the 17 digits come from double-double arithmetic instead: with
k = floor(log10|x|) and 10^(16-k) = hi + lo held to about 2^-106,

    |x| * 10^(16-k) = p + t,   p = fl(|x| * hi) an integer (p >= 2^53),
                               t = e + |x| * lo, e the exact error of p,

and the digits are D = p + floor(t), plus one if frac(t) > 0.5.  t is off
by at most ~1e-14, so D is proven wherever frac(t) stays further than
``_GUARD`` from a tie and D has exactly 17 digits.  Every other value
(non-finite, outside 1e+-279, near a tie, or a k that log10 got wrong)
goes to ``'%.17g' % x`` itself: the fast path knows when it cannot prove
its answer, as in Grisu (Loitsch, PLDI 2010).

A cell is laid out in ``CELL_WIDTH`` fixed columns, unused ones NUL:

    sign | "0.000" prefix | d0 . d1 . d2 ... d15 . d16 | "e+ddd"

with a point slot after every digit but the last.  Deleting the NULs
leaves the ``%g`` text: fixed notation for -4 <= k < 17, exponent
notation otherwise, trailing zeros and a bare point stripped.  The lookup
tables are built on the first call.
"""

import numpy as np

CELL_WIDTH = 44

_K_MIN, _K_MAX = -279, 279   # decimal exponents the double-double path takes
_GUARD = 1e-6                # distance from a rounding tie that counts as proven
_SPLIT = 134217729.0         # 2**27 + 1, Veltkamp's splitter
_ZERO = ord("0")
_TENS = 10 ** np.arange(17, dtype=np.int64)

_quads = _stripped = _whole = _exponent = None
_pow_built = _pow = None     # per k: (hi_high, hi_low, lo) of 10^(16 - k)


def _build_tables() -> None:
    global _quads, _stripped, _whole, _exponent, _pow_built, _pow
    chars = np.empty((10,) * 4 + (4,), np.uint8)   # "0000" ... "9999"
    for j in range(4):
        chars[..., j] = np.arange(_ZERO, _ZERO + 10).reshape((10,) + (1,) * (3 - j))
    chars = chars.reshape(-1, 4)
    _quads = chars.view(np.uint32).ravel()
    # The same groups with their trailing zeros NUL: what a group shows when
    # every digit after it is zero.
    trailing = chars == _ZERO
    for j in (2, 1, 0):
        trailing[:, j] &= trailing[:, j + 1]
    _stripped = np.where(trailing, 0, chars).view(np.uint32).ravel()
    # Row k: the bytes of each group that are integer digits in fixed
    # notation (digits 1..k, shown even when zero).
    place = np.arange(1, 17).reshape(4, 4)
    _whole = np.where(place <= np.arange(17)[:, None, None], 0xFF, 0).astype(np.uint8)
    _whole = _whole.reshape(17, 16).view(np.uint32)
    # Row k - _K_MIN holds "e+XX" / "e-XXX" for k.
    k = np.arange(_K_MIN, _K_MAX + 1)
    mag = np.abs(k)
    _exponent = np.zeros((len(k), 5), np.uint8)
    _exponent[:, 0] = ord("e")
    _exponent[:, 1] = np.where(k < 0, ord("-"), ord("+"))
    _exponent[:, 2] = np.where(mag >= 100, mag // 100 + _ZERO, 0)
    _exponent[:, 3] = mag // 10 % 10 + _ZERO
    _exponent[:, 4] = mag % 10 + _ZERO
    _pow_built = np.zeros(len(k), bool)
    _pow = np.zeros((3, len(k)))


def _split(a):
    """Veltkamp's split: a = high + low, each with at most 26 significant bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _power_of_ten(m: int) -> tuple[float, float, float]:
    """10^m as hi + lo to about 2^-106 (hi split for the two-product), with
    exact integer arithmetic: int to float and int / int are correctly
    rounded."""
    if m >= 0:
        hi = float(10 ** m)
        lo = float(10 ** m - int(hi))
    else:
        scale = 10 ** -m
        hi = 1 / scale
        num, den = hi.as_integer_ratio()
        lo = (den - num * scale) / (den * scale)
    return (*_split(hi), lo)


def _powers(k: np.ndarray) -> np.ndarray:
    """(hi_high, hi_low, lo) of 10^(16 - k) for each k, building the table
    entries from the least to the greatest k present if not yet built."""
    idx = k - _K_MIN
    if idx.size:
        low = int(idx.min())
        for i in (np.flatnonzero(~_pow_built[low:idx.max() + 1]) + low).tolist():
            _pow[:, i] = _power_of_ten(16 - _K_MIN - i)
            _pow_built[i] = True
    return np.take(_pow, idx, axis=1)


def format_cells(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``'%.17g' % v`` for each ``v`` of ``x`` into ``out[..., :CELL_WIDTH]``,
    which must hold only NULs; ``out`` has shape ``x.shape + (>= CELL_WIDTH,)``.
    Returns the mask of the values that were left to ``%``."""
    if _quads is None:
        _build_tables()
    a = np.abs(x)
    fast = (a >= 1e-279) & (a <= 1e279)
    a = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(a)), _K_MIN, _K_MAX).astype(np.int64)
    hi_high, hi_low, lo = _powers(k)
    # Dekker's two-product: a * (hi_high + hi_low) = p + e exactly.
    p = a * (hi_high + hi_low)
    a_high, a_low = _split(a)
    e = ((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low
    t = e + a * lo
    whole = np.floor(t)
    frac = t - whole
    base = p.astype(np.int64) + whole.astype(np.int64)
    digits = base + (frac > 0.5)
    fast &= ((base >= 10 ** 16) & (digits < 10 ** 17)
             & (np.abs(frac - 0.5) > _GUARD))
    # Zeros, and the values left to '%', lay out as "0": k = 0, no digits.
    digits = np.where(fast, digits, 0)
    k = np.where(fast, k, 0)
    fixed = (k >= -4) & (k < 17)
    # The point follows digit k (fixed notation) or digit 0 (exponent
    # notation); it shows if a nonzero digit follows it.
    point = np.where(fixed, k, 0)
    dotted = (point >= 0) & (digits % _TENS[16 - np.maximum(point, 0)] != 0)

    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    groups = np.empty(x.shape + (4,), np.int64)
    groups[..., 0] = high // 10 ** 4
    groups[..., 1] = high - groups[..., 0] * 10 ** 4
    groups[..., 2] = low // 10 ** 4
    groups[..., 3] = low - groups[..., 2] * 10 ** 4
    zero = groups == 0
    tail = np.empty_like(zero)   # every group after this one is zero
    tail[..., 3] = True
    tail[..., 2] = zero[..., 3]
    tail[..., 1] = tail[..., 2] & zero[..., 2]
    tail[..., 0] = tail[..., 1] & zero[..., 1]
    quads = np.where(tail, np.take(_stripped, groups), np.take(_quads, groups))
    integral = fixed & (k > 0)
    quads[integral] |= _quads[groups[integral]] & _whole[k[integral]]

    cell = out[..., :CELL_WIDTH]
    cell[..., 0] = np.signbit(x) * np.uint8(ord("-"))
    small = fixed & (k < 0)
    cell[..., 1] = small * np.uint8(_ZERO)
    cell[..., 2] = small * np.uint8(ord("."))
    for j in range(2, 5):   # the zeros between the point and digit 0
        cell[..., j + 1] = (fixed & (k <= -j)) * np.uint8(_ZERO)
    cell[..., 6] = lead + _ZERO
    cell[..., 8:39:2] = quads.view(np.uint8).reshape(x.shape + (16,))
    cell[(*np.nonzero(dotted), 7 + 2 * point[dotted])] = ord(".")
    large = ~fixed
    cell[large, 39:] = _exponent[k[large] - _K_MIN]

    slow = ~fast & (x != 0)
    for where, v in zip(zip(*np.nonzero(slow)), x[slow].tolist()):
        text = np.frombuffer(("%.17g" % v).encode(), np.uint8)
        cell[where] = 0
        cell[where][:len(text)] = text
    return slow
