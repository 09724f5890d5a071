"""Closed-form final states of the protocol, as published, plus a corrected
qubit variant, for cross-validation against the numerical pipeline.

The published coefficient tables contain known defects, which this module
reproduces faithfully and repairs only where a corrected variant is
explicitly provided:

* qubit: the |11><11| coefficient omits the population that acceleration
  feeds from the |01> sector, and the printed normalisation sums an
  off-diagonal coefficient instead of the fourth population.
  ``qubit_table(..., variant='corrected')``, divided by its trace, fixes
  both and matches the pipeline exactly.
* qutrit: several diagonal coefficients carry odd cosine powers and the
  pair level is absent entirely.  These are reported, not repaired.

Every formula exists once, in array form, elementwise over stacks of
points: :func:`qubit_table`, :func:`check_coefficients`,
:func:`assemble_qubit`, :func:`x_state_spectrum`, :func:`qutrit_table` and
:func:`assemble_qutrit`.  One point is a stack of one.  Everything here
returns plain arrays: literal states need not be normalised or positive,
so nothing here checks them as states; :mod:`unruhlab.validate` checks
and compares them.  The printed normalisation is ``_trace(table, 5)``.
Scalar per-point forms and a per-state discrepancy report live beside the
tests (``tests/oracle.py``) as the reference these are compared against.
"""

import numpy as np

from .errors import DegenerateOutcome, NotPositive
from .states import x_coefficients, x_matrix


def qubit_table(c, weak, reverse, r, variant: str = "corrected") -> np.ndarray:
    """Coefficients b1 .. b8 (last axis) of final two-qubit states, unchecked,
    elementwise in X-state triples ``c`` ``(..., 3)``, weak and reversing
    strengths ``(..., 2)`` (party a, party b) and Rindler angles ``r``.

    ``variant='literal'`` reproduces the published b7 =
    (1-alpha_a)(1-alpha_b) B1, which omits the term sin^2 r (1-alpha_b) B3
    fed into |11> by the acceleration of the weak-filtered |01> population;
    ``variant='corrected'`` includes it and then matches the pipeline to
    machine precision.
    """
    if variant not in ("literal", "corrected"):
        raise ValueError(f"variant must be literal|corrected, got {variant!r}")
    a_bar1, a_bar2 = np.moveaxis(1.0 - np.asarray(weak, dtype=np.float64), -1, 0)
    b_bar1, b_bar2 = np.moveaxis(1.0 - np.asarray(reverse, dtype=np.float64), -1, 0)
    c1, s1 = np.cos(r), np.sin(r)
    bb1, bb2, bb3, bb4 = x_coefficients(c)
    root = np.sqrt(b_bar1 * b_bar2 * a_bar1 * a_bar2)
    t1 = c1 * c1 * bb1 * b_bar1 * b_bar2
    t2 = c1 * bb2 * root
    t3 = c1 * c1 * bb3 * b_bar1 * a_bar2
    t4 = c1 * bb4 * root
    t5 = b_bar2 * (s1 * s1 * bb1 + a_bar1 * bb3)
    t7 = a_bar1 * a_bar2 * bb1
    if variant == "corrected":
        t7 = t7 + s1 * s1 * a_bar2 * bb3
    return np.stack(np.broadcast_arrays(t1, t2, t3, t4, t5, t4, t7, t2), axis=-1)


def _trace(table, fourth: int = 6):
    """b1 + b3 + b5 + b7; with ``fourth=5``, the printed b1 + b3 + b5 + b6."""
    return table[..., 0] + table[..., 2] + table[..., 4] + table[..., fourth]


def check_coefficients(table: np.ndarray) -> np.ndarray:
    """Raise :class:`NotPositive` if a population b1/b3/b5/b7 of a table is
    below -1e-14 and :class:`DegenerateOutcome` if a trace is at most 1e-14."""
    pops = table[..., 0::2]
    if np.any(pops < -1e-14):
        raise NotPositive(f"population coefficient {pops[pops < -1e-14][0]} negative")
    n = _trace(table)
    if np.any(n <= 1e-14):
        raise DegenerateOutcome(f"normalization {n[n <= 1e-14][0]} is zero")
    return table


def assemble_qubit(table: np.ndarray) -> np.ndarray:
    """4x4 states from coefficient tables, divided by their trace, unchecked.

    Takes tables that :func:`check_coefficients` has passed, so every trace
    is above 1e-14."""
    return x_matrix(table) / np.asarray(_trace(table))[..., None, None]


def x_state_spectrum(table) -> np.ndarray:
    """Eigenvalues of final X-form qubit states from their coefficient
    tables, b1 .. b8 along the last axis.

    Returns (mu1, mu2, mu3, mu4) along the last axis: the outer-block pair
    from {b1, b7, b2 b8} and the inner-block pair from {b3, b5, b4 b6},
    each larger root first, divided by the trace.  Takes tables from
    :func:`qubit_table`, which stacks the same arrays as b2 and b8 and as
    b4 and b6, so each discriminant is a sum of two squares.
    """
    t = np.asarray(table)
    n = _trace(t)
    out = []
    for pop1, pop2, off1, off2 in ((0, 6, 1, 7), (2, 4, 3, 5)):
        p, q = t[..., pop1], t[..., pop2]
        root = np.sqrt((p - q) ** 2 + 4.0 * t[..., off1] * t[..., off2])
        out += [(p + q + root) / (2.0 * n), (p + q - root) / (2.0 * n)]
    return np.stack(out, axis=-1)


def _qutrit_trace(d):
    """D1 + D3 + D5 + D6 + D9, the printed diagonal, which is the trace."""
    return d[..., 0] + d[..., 2] + d[..., 4] + d[..., 5] + d[..., 8]


def qutrit_table(gamma, weak, reverse, r) -> np.ndarray:
    """Published coefficients D1 .. D11 (last axis) of final two-qutrit states,
    elementwise in the state's gamma, weak and reversing strengths
    ``(..., 2, 2)`` (party a, party b; level 1, level 2) and Rindler angles
    ``r``.

    The published weak-measurement factors carry only two strengths, read
    here as the two level strengths shared by both parties (party a's pair
    is used); the reversing factors are resolved per party.  Odd cosine
    powers are kept exactly as printed.  Raises :class:`NotPositive` if a
    diagonal coefficient is below -1e-14 and :class:`DegenerateOutcome` if
    a trace is at most 1e-14.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    weak, reverse = (np.asarray(s, dtype=np.float64) for s in (weak, reverse))
    big_n = 2.0 + gamma * gamma
    aw1 = 1.0 - weak[..., 0, 0]
    aw2 = 1.0 - weak[..., 0, 1]
    c1, s1 = np.cos(r), np.sin(r)
    b1 = 1.0 - reverse[..., 0]     # (..., 2): party a, party b
    b2 = 1.0 - reverse[..., 1]
    ladder = np.stack((np.sqrt(b1 * b2), np.sqrt(b1), np.sqrt(b2)), axis=-1)
    rw = ladder[..., 0, :, None] * ladder[..., 1, None, :]

    sq = np.sqrt(aw1) * np.sqrt(aw2)
    a1 = 1.0 / big_n
    a2 = sq / big_n
    a3 = gamma * sq / big_n
    a5 = aw1 * aw2 / big_n
    a6 = gamma * aw1 * aw2 / big_n
    a9 = gamma * gamma * aw1 * aw2 / big_n

    c2, c3 = c1 * c1, c1 * c1 * c1
    d = np.stack(np.broadcast_arrays(
        c2 * rw[..., 0, 0] ** 2 * a1,             # D1   |00><00|
        c3 * rw[..., 0, 0] * rw[..., 1, 1] * a2,  # D2   |00><11|
        c2 * s1 * s1 * rw[..., 1, 0] ** 2 * a1,   # D3   |10><10|
        c3 * rw[..., 0, 0] * rw[..., 1, 1] * a2,  # D4   |11><00|
        c3 * rw[..., 1, 1] ** 2 * a5,             # D5   |11><11|
        c2 * s1 * s1 * rw[..., 2, 0] ** 2 * a1,   # D6   |20><20|
        c3 * rw[..., 2, 2] * rw[..., 0, 0] * a3,  # D7   |22><00|
        c2 * rw[..., 2, 2] * rw[..., 1, 1] * a6,  # D8   |22><11|
        c2 * rw[..., 2, 2] ** 2 * a9,             # D9   |22><22|
        c3 * rw[..., 0, 0] * rw[..., 2, 2] * a3,  # D10  |00><22|
        c2 * rw[..., 1, 1] * rw[..., 2, 2] * a6,  # D11  |11><22|
    ), axis=-1)
    diagonal = d[..., [0, 2, 4, 5, 8]]
    if np.any(diagonal < -1e-14):
        raise NotPositive(f"diagonal coefficient {diagonal[diagonal < -1e-14][0]} negative")
    n = _qutrit_trace(d)
    if np.any(n <= 1e-14):
        raise DegenerateOutcome(f"normalization {n[n <= 1e-14][0]} is zero")
    return d


def assemble_qutrit(d) -> np.ndarray:
    """9x9 states on the 3 x 3 ladder from :func:`qutrit_table`, divided by
    their trace.  Unit trace by construction, but positivity is not
    guaranteed (the pair level that acceleration reaches is absent from the
    published form)."""
    d = np.asarray(d)
    m = np.zeros(d.shape[:-1] + (9, 9), dtype=np.complex128)
    # basis index of |i j> is 3 i + j
    m[..., [0, 0, 3, 4, 4, 6, 8, 8, 8, 0, 4], [0, 4, 3, 0, 4, 6, 0, 4, 8, 8, 8]] = d
    return m / _qutrit_trace(d)[..., None, None]
