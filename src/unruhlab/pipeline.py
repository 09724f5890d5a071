"""The protocol: weak filtering, acceleration of party 0, reversal.

Every command runs the protocol through :func:`propagate`, on a stack of
points at once.  Each point brings its own channel (a Kraus stack, one per
Rindler angle) and its own filters (the diagonals of ``op_a (x) op_b``),
and either shares one initial state with the other points or brings its
own:

* a diagonal filter is a broadcast scaling by its diagonal;
* the channel on party 0 is one ``einsum`` over the stacked Kraus
  operators;
* states are checked by :func:`~unruhlab.tensor.check_states` where they
  enter and where they leave, and a point whose post-selection probability
  falls below ``SUCCESS_FLOOR`` is degenerate; later steps skip it.

:func:`~unruhlab.measures.measure_columns` then evaluates the measures on
the final states.  The scalar Kraus pipeline this replaced lives beside
the tests (``tests/oracle.py``) as the reference it is compared against.
"""

from typing import NamedTuple

import numpy as np

from .channel import AccelerationSpec, channel_for_dim
from .errors import DegenerateOutcome
from .localops import REVERSE, SUCCESS_FLOOR, WEAK, MeasurementStrengths, filter_levels
from .tensor import STATE_HERMITICITY_TOL, DensityMatrix, check_states, hermitian_part

LADDER_FLOOR = 1e-14

# Bytes of one stacked state array.  This bounds the working set on large
# grids: `figure fig2a` (6,400 qutrit points) peaks at 46 MB resident in
# these chunks and at 152 MB in one chunk.  The channel's intermediates
# hold several times a chunk's states, so a larger budget raises the peak
# of small sweeps too (fig6b, 243 points: +0.6 MB over a one-point-at-a-time
# evaluation at this budget, +4.5 MB at 512 KiB).
CHUNK_BYTES = 128 * 1024


class Propagated(NamedTuple):
    """Outcome of :func:`propagate` for the points that were not degenerate."""

    kept: np.ndarray        # (m,) indices of the kept points, ascending
    p_success: np.ndarray   # (m,) product of both post-selection probabilities
    states: np.ndarray      # (m, d, d) final states, checked and exactly Hermitian
    spectra: np.ndarray     # (m, d) their ascending eigenvalues
    dims: tuple[int, int]   # party dimensions of the final states


def chunk_points(state_dim: int) -> int:
    """Points per chunk for joint states of dimension ``state_dim``."""
    return max(1, CHUNK_BYTES // (16 * state_dim * state_dim))    # 16 B per complex128


def filter_diagonal(kind: str, levels, out_dim_a: int) -> np.ndarray:
    """Diagonals of ``op_a (x) op_b`` for filter steps with strengths
    ``levels`` of shape ``(..., 2, dim - 1)``: party a's, then party b's.

    A reversing filter on party a acts as the identity on the levels above
    its own, which acceleration adds (the qutrit's pair level).
    """
    op_a, op_b = np.moveaxis(filter_levels(kind, levels), -2, 0)
    pad = np.ones(op_a.shape[:-1] + (out_dim_a - op_a.shape[-1],))
    op_a = np.concatenate((op_a, pad), axis=-1)
    return (op_a[..., :, None] * op_b[..., None, :]).reshape(op_a.shape[:-1] + (-1,))


def point_inputs(weak: MeasurementStrengths, reverse: MeasurementStrengths,
                 acc: AccelerationSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kraus stack and both filter diagonals of one point, as :func:`propagate`
    takes them without the leading point axis."""
    chan = channel_for_dim(weak.dim, acc)
    return (np.array(chan.kraus),
            filter_diagonal(WEAK, (weak.party_a_levels, weak.party_b_levels), weak.dim),
            filter_diagonal(REVERSE, (reverse.party_a_levels, reverse.party_b_levels),
                            chan.out_dim))


def ladder_block(states: np.ndarray, dims: tuple[int, int], levels: int) -> np.ndarray:
    """Block of party 0's first ``levels`` levels of a stack of states over ``dims``.

    On accelerated 4 x 3 qutrit states, ``levels = 3`` drops the pair level
    and keeps the pre-acceleration {vacuum, U, D} x 3 block, with its
    weight (trace) as it is.
    """
    d0, db = dims
    block = states.reshape(-1, d0, db, d0, db)[:, :levels, :, :levels, :]
    return block.reshape(-1, levels * db, levels * db)


def _post_select(sigma: np.ndarray, floor: float):
    """Keep the members whose trace reaches ``floor``, renormalised and made
    exactly Hermitian after a 1e-10 check: (indices kept, traces, states).
    """
    p = np.trace(sigma, axis1=-2, axis2=-1).real
    kept = np.flatnonzero(p >= floor)
    p = p[kept]
    return kept, p, hermitian_part(sigma[kept] / p[:, None, None], STATE_HERMITICITY_TOL)


def propagate(rho0: np.ndarray, dims: tuple[int, int], kraus: np.ndarray,
              weak: np.ndarray, reverse: np.ndarray, project: bool = False
              ) -> Propagated:
    """Weak filter, channel on party 0 and reversing filter on a stack of points.

    Parameters
    ----------
    rho0:
        Initial states over ``dims = (da, db)``: one ``(da db, da db)``
        matrix shared by every point, or an ``(n, da db, da db)`` stack.
    kraus:
        ``(n, k, dao, da)``: each point's Kraus operators on party 0.
    weak, reverse:
        ``(n, da db)`` and ``(n, dao db)``: each point's filter diagonals
        (see :func:`filter_diagonal`).
    project:
        Restrict each output to party 0's first ``da`` levels (its
        pre-acceleration ladder, see :func:`ladder_block`) and renormalise;
        a point whose ladder weight is below ``LADDER_FLOOR`` is degenerate.

    Strict checks run twice: on ``rho0``, and on the states that leave
    (under ``project``, the ladder blocks), whose spectra are returned.
    Between the steps a state is only renormalised and made exactly
    Hermitian after a 1e-10 check.  That is enough while the filters are
    real diagonals (:func:`~unruhlab.localops.filter_levels`) and the
    channel a Kraus sum complete to 1e-12 (checked when it is built): the
    map is then completely positive (Choi, Linear Algebra Appl. 10, 285,
    1975), so a positive input stays positive and renormalising gives unit
    trace; rounding on these small matrices stays far below the 1e-10
    tolerances; and the exit check re-tests all four conditions on exactly
    the states the measures use.
    """
    da, db = dims
    dao = kraus.shape[2]
    rho0, _ = check_states(rho0)
    live, p_weak, state = _post_select((weak[:, :, None] * rho0) * weak[:, None, :],
                                       SUCCESS_FLOOR)
    k = kraus[live]
    t = np.einsum("nkai,nibjd,nkcj->nabcd", k, state.reshape(-1, da, db, da, db),
                  k.conj(), optimize=True)
    state = hermitian_part(t.reshape(-1, dao * db, dao * db), STATE_HERMITICITY_TOL)
    rev = reverse[live]
    kept, p_rev, state = _post_select((rev[:, :, None] * state) * rev[:, None, :],
                                      SUCCESS_FLOOR)
    live, p_success = live[kept], p_weak[kept] * p_rev
    if project:
        kept, _, state = _post_select(ladder_block(state, (dao, db), da), LADDER_FLOOR)
        return Propagated(live[kept], p_success[kept], *check_states(state), (da, db))
    return Propagated(live, p_success, *check_states(state), (dao, db))


def propagate_point(rho0: DensityMatrix, weak: MeasurementStrengths,
                    reverse: MeasurementStrengths, acc: AccelerationSpec) -> Propagated:
    """:func:`propagate` of one point; raises :class:`DegenerateOutcome`
    when a post-selection fails."""
    kraus, w, v = point_inputs(weak, reverse, acc)
    out = propagate(rho0.matrix, rho0.dims, kraus[None], w[None], v[None])
    if not len(out.kept):
        raise DegenerateOutcome(f"success probability below {SUCCESS_FLOOR}")
    return out

