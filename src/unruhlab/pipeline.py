"""The protocol: weak filtering, acceleration of party 0, reversal.

Every command runs the protocol on stacks of points: :func:`prepare` takes
a grid's tables once and :func:`propagate_points` runs chunks of its
points (:func:`propagate` does both for points that bring their own rows):

* the weak step, a broadcast scaling by the filter's diagonal, runs once
  per filter row (a sweep's strength value), in :func:`prepare`;
* the channel on party 0 is one Liouville superoperator per Rindler angle,
  applied as one batched ``matmul``;
* states are checked by :func:`~unruhlab.tensor.check_states` where they
  enter and where they leave, and nowhere in between.  Their spectra are
  solved block by block along each stack's own support
  (:func:`~unruhlab.tensor.block_eigenvalues`), which leaves out no entry;
* a point whose post-selection probability falls below ``SUCCESS_FLOOR``
  is degenerate; later steps skip it;
* when the entering states and the channel are exactly real (every real
  state at phi = 0), all of it runs on float64 stacks; otherwise on
  complex128 ones, through the same code.

:func:`~unruhlab.measures.measure_columns` then evaluates the measures on
the final states.  The scalar Kraus pipeline this replaced lives beside
the tests (``tests/oracle.py``) as the reference it is compared against.
"""

from typing import NamedTuple

import numpy as np

from .channel import AccelerationSpec, channel_for_dim, superoperator
from .errors import DegenerateOutcome
from .localops import REVERSE, SUCCESS_FLOOR, WEAK, MeasurementStrengths, filter_levels
from .tensor import DensityMatrix, check_states

LADDER_FLOOR = 1e-14

# Bytes of one stacked state array; this bounds the working set on large
# grids.  Measured on a 2-core host with complex128 stacks, two 15 s
# perfbench runs each: fig2a's calibrated wall time is 0.21 s at 128 KiB,
# 0.18 s at 256 KiB and 0.18 s at 512 KiB; a `figure fig6b` process (243
# points) peaks at 38.2, 38.7 and 40.2 MB resident, and mixed_cli takes
# 0.086 s at 512 KiB against 0.080 s at 256 KiB.  A float64 stack fits
# twice the points in the same bytes: in process, median of 8 rounds,
# fig2a's `run_sweep` takes 59 ms at 227 real 12 x 12 states a chunk
# against 70 ms at 113, and fig1a's 12.9 ms at 2,048 real 4 x 4 states
# against 14.6 ms at 1,024.
CHUNK_BYTES = 256 * 1024


class Propagated(NamedTuple):
    """Outcome of :func:`propagate` for the points that were not degenerate."""

    kept: np.ndarray        # (m,) indices of the kept points, ascending
    p_success: np.ndarray   # (m,) product of both post-selection probabilities
    states: np.ndarray      # (m, d, d) final states, checked and exactly Hermitian
    spectra: np.ndarray     # (m, d) their ascending eigenvalues
    dims: tuple[int, int]   # party dimensions of the final states


class Prepared(NamedTuple):
    """A grid's tables, as :func:`prepare` computes them once."""

    p_weak: np.ndarray      # (w,) weak post-selection probability of each filter row
    weakened: np.ndarray    # (w, d, d) the renormalised states after the weak step
    channels: np.ndarray    # (c, dao^2, da^2) channel superoperators on party 0
    reverse: np.ndarray     # (w, dao db) reversing filter diagonals
    dims: tuple[int, int]   # party dimensions of the initial states
    project: bool


def chunk_points(state_dim: int, itemsize: int = 16) -> int:
    """Points per chunk for joint states of dimension ``state_dim`` whose
    entries take ``itemsize`` bytes: 16 for complex128 (the default, an
    upper bound), 8 for float64."""
    return max(1, CHUNK_BYTES // (itemsize * state_dim * state_dim))


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
    """Keep the members whose trace is not below ``floor``, renormalised:
    (indices kept, traces, states).  A NaN trace is kept, so that the exit
    check rejects the non-finite state instead of a degenerate row hiding it.
    """
    p = np.trace(sigma, axis1=-2, axis2=-1).real
    kept = np.flatnonzero(~(p < floor))
    p = p[kept]
    return kept, p, sigma[kept] / p[:, None, None]


def _accelerate(channels: np.ndarray, states: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Each state over ``dims`` with its superoperator applied to party 0."""
    n, (da, db), dao = len(states), dims, round(np.sqrt(channels.shape[-2]))
    t = states.reshape(n, da, db, da, db).transpose(0, 1, 3, 2, 4).reshape(n, da * da, db * db)
    t = (channels @ t).reshape(n, dao, dao, db, db).transpose(0, 1, 3, 2, 4)
    return t.reshape(n, dao * db, dao * db)


def prepare(rho0: np.ndarray, dims: tuple[int, int], kraus: np.ndarray, weak: np.ndarray,
            reverse: np.ndarray, project: bool = False) -> Prepared:
    """Tables of a grid of points for :func:`propagate_points`.

    ``rho0``: initial states over ``dims = (da, db)``, strictly checked
    here, one shared by every filter row or one per row.  ``kraus``:
    ``(c, k, dao, da)``, one Kraus stack on party 0 per channel row.
    ``weak``, ``reverse``: ``(w, da db)`` and ``(w, dao db)``, the filter
    diagonals (:func:`filter_diagonal`) of each filter row.  ``project``
    restricts each output to party 0's first ``da`` levels (its
    pre-acceleration ladder, :func:`ladder_block`) and renormalises; a
    point whose ladder weight is below ``LADDER_FLOOR`` is degenerate.

    When the checked states and the channel superoperators are exactly real
    (every imaginary part zero, as for every real state at phi = 0), the
    tables are float64 and every later step runs in real arithmetic; any
    other input keeps complex128.  The steps are the same either way.
    """
    rho0, _ = check_states(rho0)
    channels = superoperator(kraus)
    if not (np.any(rho0.imag) or np.any(channels.imag)):
        rho0, channels = rho0.real, np.ascontiguousarray(channels.real)
    sigma = (weak[:, :, None] * rho0) * weak[:, None, :]
    p_weak = np.trace(sigma, axis1=-2, axis2=-1).real
    scale = np.where(p_weak >= SUCCESS_FLOOR, p_weak, 1.0)[:, None, None]
    return Prepared(p_weak, sigma / scale, channels, reverse, dims, project)


def propagate_points(grid: Prepared, i_channel: np.ndarray, i_filter: np.ndarray
                     ) -> Propagated:
    """Channel and reversing filter on the points ``(i_channel, i_filter)`` of
    a prepared grid; a point whose weak row is degenerate is skipped.

    States are checked only where they enter (:func:`prepare`) and where
    they leave (under ``project``, the ladder blocks); the exit check's
    Hermitian parts and spectra are returned.  In between a state is only
    scaled and renormalised, with no check at all.  That rests on the entry
    and exit checks alone: the filters are real diagonals
    (:func:`~unruhlab.localops.filter_levels`) and the channel a Kraus sum
    complete to 1e-12 (checked when it is built), so the map is completely
    positive (Choi, Linear Algebra Appl. 10, 285, 1975) and a positive
    input stays positive; rounding on these small matrices stays far below
    the 1e-10 tolerances; and the exit check re-tests finiteness,
    Hermiticity, unit trace and positivity on exactly the states the
    measures use.  A non-finite trace is not degenerate: its state reaches
    the exit check, which rejects it.
    """
    (da, db), dao = grid.dims, grid.reverse.shape[-1] // grid.dims[1]
    live = np.flatnonzero(grid.p_weak[i_filter] >= SUCCESS_FLOOR)
    i_channel, i_filter = i_channel[live], i_filter[live]
    state = _accelerate(grid.channels[i_channel], grid.weakened[i_filter], grid.dims)
    rev = grid.reverse[i_filter]
    kept, p_rev, state = _post_select((rev[:, :, None] * state) * rev[:, None, :],
                                      SUCCESS_FLOOR)
    live, p_success, dims = live[kept], grid.p_weak[i_filter[kept]] * p_rev, (dao, db)
    if grid.project:
        kept, _, state = _post_select(ladder_block(state, dims, da), LADDER_FLOOR)
        live, p_success, dims = live[kept], p_success[kept], grid.dims
    return Propagated(live, p_success, *check_states(state), dims)


def propagate(rho0: np.ndarray, dims: tuple[int, int], kraus: np.ndarray,
              weak: np.ndarray, reverse: np.ndarray, project: bool = False
              ) -> Propagated:
    """:func:`propagate_points` on a stack of points, each with its own row of
    ``kraus``, ``weak`` and ``reverse`` (see :func:`prepare`)."""
    points = np.arange(len(weak))
    return propagate_points(prepare(rho0, dims, kraus, weak, reverse, project), points, points)


def propagate_point(rho0: DensityMatrix, weak: MeasurementStrengths,
                    reverse: MeasurementStrengths, acc: AccelerationSpec) -> Propagated:
    """:func:`propagate` of one point; raises :class:`DegenerateOutcome`
    when a post-selection fails."""
    kraus, w, v = point_inputs(weak, reverse, acc)
    out = propagate(rho0.matrix, rho0.dims, kraus[None], w[None], v[None])
    if not len(out.kept):
        raise DegenerateOutcome(f"success probability below {SUCCESS_FLOOR}")
    return out

