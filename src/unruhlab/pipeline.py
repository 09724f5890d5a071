"""The protocol: weak filtering, acceleration of party 0, reversal.

Every command runs the protocol on stacks of points: :func:`prepare` takes
a grid's tables once and :func:`propagate_points` runs chunks of its
points (:func:`propagate` does both for points that bring their own rows).
States are held as the entries of their support
(:class:`~unruhlab.tensor.Held`), which :func:`prepare` derives from its
own tables:

* the weak step, a scaling by the filter's diagonal, runs once per filter
  row (a sweep's strength value), in :func:`prepare`; the weakened states
  are held by the entries nonzero in some row;
* the channel on party 0 is one Liouville superoperator per Rindler angle,
  gathered into a map from the weakened entries to every entry they reach
  through a nonzero superoperator entry
  (:func:`~unruhlab.tensor.party_a_maps`), and applied as one
  ``(k_out, k_in)`` map per point;
* states are checked by :func:`~unruhlab.tensor.check_held` where they
  enter (a preset where it is parsed, matrices in :func:`prepare`) and
  where they leave, and nowhere in between.  Their spectra are solved
  block by block along each chunk's nonzero held entries
  (:func:`~unruhlab.tensor.held_eigenvalues`), which leaves out no entry;
* a point whose post-selection probability falls below ``SUCCESS_FLOOR``
  is degenerate; later steps skip it;
* when the entering states and the channel are exactly real (every real
  state at phi = 0), all of it runs on float64 stacks; otherwise on
  complex128 ones, through the same code.

:func:`~unruhlab.measures.measure_columns` then evaluates the measures on
the final states.  The grid's inputs come from one place,
:func:`unruhlab.sweep.grid_inputs`, which turns a sweep config's r grid,
phi and strengths into Kraus stacks and filter diagonals; ``state`` and
``validate``'s fixed checks run one-point configs.  The scalar Kraus
pipeline this replaced, and the per-point objects it took, live beside
the tests (``tests/oracle.py``) as the reference they are compared against.
"""

from typing import NamedTuple

import numpy as np

from .channel import superoperator
from .localops import SUCCESS_FLOOR, filter_levels
from .tensor import (DensityMatrix, Held, check_held, hold, ladder_block, nonzero_support,
                     party_a_maps)

LADDER_FLOOR = 1e-14

# Bytes of one chunk's gathered channel maps, its widest per-point array
# (k_out x k_in entries a point: 5 x 4 for the singlet, 17 x 9 for
# qutrit:1); this bounds the working set on large grids.  Measured on a
# 2-core host, median of three 12 s perfbench runs each: fig2a's
# calibrated wall time is 0.061 s at 256 KiB, 0.050 s at 1 MiB and
# 0.046 s at 4 MiB, fig1a's 0.026, 0.023 and 0.023 s, and mixed_cli's
# 0.046, 0.040 and 0.041 s; the fig2a process peaks at 66.7, 66.7 and
# 67.6 MB resident.
CHUNK_BYTES = 1024 * 1024


class Propagated(NamedTuple):
    """Outcome of :func:`propagate` for the points that were not degenerate."""

    kept: np.ndarray        # (m,) indices of the kept points, ascending
    p_success: np.ndarray   # (m,) product of both post-selection probabilities
    held: Held              # (m, k) final states, checked and exactly Hermitian
    spectra: np.ndarray     # (m, d) their ascending eigenvalues
    dims: tuple[int, int]   # party dimensions of the final states

    @property
    def states(self) -> np.ndarray:
        """The final states as ``(m, d, d)`` matrices."""
        return self.held.dense()


class Prepared(NamedTuple):
    """A grid's tables, as :func:`prepare` computes them once."""

    p_weak: np.ndarray      # (w,) weak post-selection probability of each filter row
    weakened: Held          # (w, k_in) the renormalised states after the weak step
    channels: np.ndarray    # (c, k_out, k_in) channel maps on party 0, entry to entry
    support: np.ndarray     # (k_out,) the entries the maps reach (party dims dao, db)
    reverse: np.ndarray     # (w, dao db) reversing filter diagonals
    dims: tuple[int, int]   # party dimensions of the initial states
    project: bool

    def points_per_chunk(self) -> int:
        """As many points as ``CHUNK_BYTES`` holds of their gathered channel maps."""
        return max(1, CHUNK_BYTES // max(1, self.channels[0].nbytes))


def chunk_points(state_dim: int) -> int:
    """As many points as ``CHUNK_BYTES`` holds of complex128 matrices of
    dimension ``state_dim``."""
    return max(1, CHUNK_BYTES // (16 * state_dim * state_dim))


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


def _post_select(state: Held, floor: float):
    """Keep the members whose trace is not below ``floor``, renormalised:
    (indices kept, traces, states).  A NaN trace is kept, so that the exit
    check rejects the non-finite state instead of a degenerate row hiding it.
    """
    p = state.trace().real
    kept = np.flatnonzero(~(p < floor))
    p = p[kept]
    return kept, p, state._replace(values=state.values[kept] / p[:, None])


def _accelerate(grid: Prepared, i_channel: np.ndarray, i_filter: np.ndarray) -> Held:
    """The weakened states of rows ``i_filter`` through the channel maps of
    rows ``i_channel``, one gathered map per point."""
    values = grid.channels[i_channel] @ grid.weakened.values[i_filter, :, None]
    return Held(values[..., 0], grid.support, grid.reverse.shape[-1])


def prepare(rho0, dims: tuple[int, int], kraus: np.ndarray, weak: np.ndarray,
            reverse: np.ndarray, project: bool = False) -> Prepared:
    """Tables of a grid of points for :func:`propagate_points`.

    ``rho0``: initial states over ``dims = (da, db)``, one shared by every
    filter row or one per row: a strict :class:`~unruhlab.tensor.DensityMatrix`
    runs as checked when built, anything else is strictly checked here.  ``kraus``:
    ``(c, k, dao, da)``, one Kraus stack on party 0 per channel row.
    ``weak``, ``reverse``: ``(w, da db)`` and ``(w, dao db)``, the filter
    diagonals (:func:`filter_diagonal`) of each filter row.  ``project``
    restricts each output to party 0's first ``da`` levels (its
    pre-acceleration ladder, :func:`~unruhlab.tensor.ladder_block`) and
    renormalises; a point whose ladder weight is below ``LADDER_FLOOR`` is
    degenerate.

    States are held as the entries of their support
    (:class:`~unruhlab.tensor.Held`): the weakened states by the entries
    nonzero in some row, the channel's images by every entry those reach
    through a nonzero superoperator entry
    (:func:`~unruhlab.tensor.party_a_maps`).  When the checked states and
    the channel superoperators are exactly real (every imaginary part zero,
    as for every real state at phi = 0), the tables are float64 and every
    later step runs in real arithmetic; any other input keeps complex128.
    The steps are the same either way.
    """
    strict = isinstance(rho0, DensityMatrix) and rho0.strict
    rho0 = rho0.held if strict else check_held(hold(getattr(rho0, "matrix", rho0)))[0]
    supers = superoperator(kraus)
    if not (np.any(rho0.values.imag) or np.any(supers.imag)):
        rho0, supers = rho0._replace(values=rho0.values.real), supers.real
    sigma = rho0.scaled(weak)
    p_weak = sigma.trace().real
    scale = np.where(p_weak >= SUCCESS_FLOOR, p_weak, 1.0)[:, None]
    sigma = nonzero_support(sigma)
    channels, support = party_a_maps(sigma.index, dims, supers)
    return Prepared(p_weak, sigma._replace(values=sigma.values / scale), channels, support,
                    reverse, dims, project)


def propagate_points(grid: Prepared, i_channel: np.ndarray, i_filter: np.ndarray
                     ) -> Propagated:
    """Channel and reversing filter on the points ``(i_channel, i_filter)`` of
    a prepared grid; a point whose weak row is degenerate is skipped.

    States are checked only where they enter (see :func:`prepare`) and
    where they leave (under ``project``, the ladder blocks); the exit check's
    Hermitian parts and spectra are returned.  In between a state is only
    mapped, scaled and renormalised, with no check at all.  That rests on
    the entry and exit checks alone: the filters are real diagonals
    (:func:`~unruhlab.localops.filter_levels`) and the channel a Kraus sum
    complete to 1e-12 (checked when it is built), so the map is completely
    positive (Choi, Linear Algebra Appl. 10, 285, 1975) and a positive
    input stays positive; rounding on these small matrices stays far below
    the 1e-10 tolerances; and the exit check re-tests finiteness,
    Hermiticity, unit trace and positivity on exactly the states the
    measures use.  A non-finite trace is not degenerate: its state reaches
    the exit check, which rejects it.
    """
    db = grid.dims[1]
    live = np.flatnonzero(grid.p_weak[i_filter] >= SUCCESS_FLOOR)
    i_channel, i_filter = i_channel[live], i_filter[live]
    state = _accelerate(grid, i_channel, i_filter).scaled(grid.reverse[i_filter])
    kept, p_rev, state = _post_select(state, SUCCESS_FLOOR)
    live, p_success = live[kept], grid.p_weak[i_filter[kept]] * p_rev
    dims = (state.dim // db, db)
    if grid.project:
        kept, _, state = _post_select(ladder_block(state, dims, grid.dims[0]), LADDER_FLOOR)
        live, p_success, dims = live[kept], p_success[kept], grid.dims
    return Propagated(live, p_success, *check_held(state), dims)


def propagate(rho0, dims: tuple[int, int], kraus: np.ndarray,
              weak: np.ndarray, reverse: np.ndarray, project: bool = False
              ) -> Propagated:
    """:func:`propagate_points` on a stack of points, each with its own row of
    ``kraus``, ``weak`` and ``reverse`` (see :func:`prepare`): the entry
    point for initial states given as matrices, which are checked here."""
    points = np.arange(len(weak))
    return propagate_points(prepare(rho0, dims, kraus, weak, reverse, project), points, points)
