"""``'%.17g' % x`` for whole float64 arrays, exactly, as NUL-padded bytes.

``%.17g`` asks for 17 significant digits, past the fast path of CPython's
correctly rounded dtoa, so ``%`` takes the bignum route for every value.
Here the 17 digits come from double-double arithmetic instead: with
k = floor(log10|x|) and 10^(16-k) = hi + lo held to about 2^-106,

    |x| * 10^(16-k) = p + t,   p = fl(|x| * hi) an integer (p >= 2^53),
                               t = e + |x| * lo, e the exact error of p,

and the digits are D = p + floor(t), plus one if frac(t) > 0.5.  t is off
by at most ~1e-14, so D is proven wherever frac(t) stays further than
``_GUARD`` from a tie and D has exactly 17 digits.  The fast path takes
zero and 1e-279 <= |x| < 10, the range every measure lies in, where k <= 0
and so every digit after d0 follows the point.  Every other value
(non-finite, outside that range, near a tie, or with a k that log10 got
wrong) goes to ``'%.17g' % x`` itself: the fast path knows when it cannot
prove its answer, as in Grisu (Loitsch, PLDI 2010).

A cell is ``CELL_WIDTH`` = 32 columns, four 8-byte words, each built by
table lookup and NUL-padded:

    sign "0.000"-prefix d0 point | d1 ... d8 | d9 ... d16 | "e-ddd"

The head word is looked up by (sign, form, d0, whether a later digit is
nonzero), the form being k = 0, -1, ..., -4 (fixed notation) or exponent
notation; each group of four digits by the group and whether every later
group is zero, so trailing zeros come out NUL; the exponent word by k.
Deleting the NULs leaves the ``%g`` text.  The tables are built on
import, which the first render does.
"""

import numpy as np

CELL_WIDTH = 32

_MAG_MAX = 279               # greatest -k the double-double path takes (|x| >= 1e-279)
_GUARD = 1e-6                # distance from a rounding tie that counts as proven
_SPLIT = 134217729.0         # 2**27 + 1, Veltkamp's splitter
_ZERO = ord("0")
_FORMS = 6                   # k = 0, -1, -2, -3, -4, then exponent notation


def _split(a):
    """Veltkamp's split: a = high + low, each with at most 26 significant bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _power_of_ten(m: int) -> tuple[float, float, float]:
    """10^m, m >= 0, as hi + lo to about 2^-106 (hi split for the
    two-product), with exact integer arithmetic."""
    hi = float(10 ** m)
    return (*_split(hi), float(10 ** m - int(hi)))


# The head words by form: the text before d0, and the point after it
# (shown if a later digit is nonzero).
_head = np.array([sign + prefix + b"%d" % d0 + point * nonzero for sign in (b"", b"-")
                  for prefix, point in zip((b"", b"0.", b"0.0", b"0.00", b"0.000", b""),
                                           (b".", b"", b"", b"", b"", b"."))
                  for d0 in range(10) for nonzero in (0, 1)], "S8").view(np.uint64)
# The group words: "0000" ... "9999" with their trailing zeros NUL (what a
# group shows when every digit after it is zero), then as they are.
_digits = np.indices((10,) * 4).reshape(4, -1).T.copy()
_chars = (_digits + _ZERO).astype(np.uint8)
_trailing = np.logical_and.accumulate(_digits[:, ::-1] == 0, axis=1)[:, ::-1]
_groups = np.concatenate([np.where(_trailing, 0, _chars), _chars]).view(np.uint32).ravel()
del _digits, _chars, _trailing
_exponent = np.array([b"e-%02d" % mag if mag >= _FORMS - 1 else b""
                      for mag in range(_MAG_MAX + 1)], "S8").view(np.uint64)
# Rows hi_high, hi_low, lo of 10^(16 - k), by -k.
_pow = np.array([_power_of_ten(16 + mag) for mag in range(_MAG_MAX + 1)]).T.copy()


def format_cells(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``'%.17g' % v`` for each ``v`` of ``x`` into ``out[..., :CELL_WIDTH]``,
    NUL-padded, whatever ``out`` held; ``out`` has shape ``x.shape + (>=
    CELL_WIDTH,)``.  A cell's last column is always NUL (no such text is
    longer than 24 characters), free for a separator.  Returns the mask of
    the values that were left to ``%``."""
    a = np.abs(x)
    fast = (a >= 1e-279) & (a < 10)
    a = np.where(fast, a, 1.0)
    mag = np.minimum(np.maximum(-np.floor(np.log10(a)), 0), _MAG_MAX).astype(np.int64)
    # Every table index here and below is in range, so take need not check.
    hi_high, hi_low, lo = (row.take(mag, mode="clip") for row in _pow)
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
    mag = np.where(fast, mag, 0)

    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    high = rest // 10 ** 8
    low = rest - high * 10 ** 8
    g0 = high // 10 ** 4
    g1 = high - g0 * 10 ** 4
    g2 = low // 10 ** 4
    g3 = low - g2 * 10 ** 4

    # In each table index, min(n, 1) is 0 where n, the digits after d0 or
    # after a group, are all zero: no point, the group's trailing zeros NUL.
    words = np.empty(x.shape + (4,), np.uint64)
    quads = words[..., 1:3].view(np.uint32)
    words[..., 0] = _head.take(((np.signbit(x) * _FORMS + np.minimum(mag, _FORMS - 1)) * 10
                                + lead) * 2 + np.minimum(rest, 1), mode="clip")
    quads[..., 0] = _groups.take(g0 + 10 ** 4 * np.minimum(g1 + low, 1), mode="clip")
    quads[..., 1] = _groups.take(g1 + 10 ** 4 * np.minimum(low, 1), mode="clip")
    quads[..., 2] = _groups.take(g2 + 10 ** 4 * np.minimum(g3, 1), mode="clip")
    quads[..., 3] = _groups.take(g3, mode="clip")
    words[..., 3] = _exponent.take(mag, mode="clip")
    cell = out[..., :CELL_WIDTH]
    cell[...] = words.view(np.uint8).reshape(cell.shape)

    slow = ~fast & (x != 0)
    if slow.any():
        for where, v in zip(zip(*np.nonzero(slow)), x[slow].tolist()):
            text = np.frombuffer(("%.17g" % v).encode(), np.uint8)
            cell[where] = 0
            cell[where][:len(text)] = text
    return slow
