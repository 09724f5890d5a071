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
  (:func:`~unruhlab.tensor.party_a_maps`); a chunk is a slab of channel
  rows, each with the same filter rows, and the map of each row is applied
  to the weakened states of its filter rows as one ``(k_out, k_in)``
  product;
* states are checked by :func:`~unruhlab.tensor.check_held` where they
  enter (a preset where it is parsed, matrices in :func:`prepare`) and
  where they leave, and nowhere in between.  Their spectra are solved
  block by block along the grid's held support, derived here once
  (:func:`~unruhlab.tensor.held_eigenvalues`), whatever the chunk;
* a point whose post-selection probability falls below ``SUCCESS_FLOOR``
  is degenerate; later steps skip it;
* a float64 Kraus stack (as :func:`engine_inputs` builds) and states with no
  imaginary entry run on float64 stacks, anything complex on complex128.

:func:`~unruhlab.measures.measure_columns` then evaluates the measures on
the final states.  Every command's inputs come from one place,
:func:`engine_inputs`, which turns Rindler angles and a strength table
into checked Kraus stacks and filter diagonals: a sweep's from its
config (:func:`unruhlab.sweep.grid_inputs`), ``state``'s from its one
point and ``validate``'s sampled check's from each chunk of samples.  The
scalar Kraus pipeline and its per-point objects live beside the tests
(``tests/oracle.py``) as the reference this module is compared against.
"""

from typing import NamedTuple

import numpy as np

from .channel import check_completeness, check_rindler, kraus_for_dim, superoperator
from .localops import REVERSE, SUCCESS_FLOOR, WEAK, filter_levels
from .tensor import (DensityMatrix, Held, check_held, hold, ladder_block, nonzero_support,
                     party_a_maps)

LADDER_FLOOR = 1e-14

# Grid points a chunk holds.  A chunk pays a fixed cost of about 490
# Python-level calls, so a qutrit grid wants the large chunk a qubit grid
# gets; counting points, not held output bytes (5 values a qubit point, 17
# a qutrit:1 one), gives it that: fig2a's 6,400 points run as one chunk,
# not four.  The working set of propagate_points + measure_columns
# (tracemalloc peak, 6,400-point grids, float64) is 273-338 B a point for
# the singlet, werner:0.7 and x states and 1,086 B for qutrit:1 and
# qutrit:0.5, 5.3-8.0 times the held output bytes: at most about 8.9 MB a
# chunk for the parsed preset families.  Spectra held entry-major (at most
# 7 values) left these peaks as they were.
# Measured on a 2-core host, a 1000 x 1000 run_sweep in a fresh process:
# qutrit:1 took 1.87 s at 8,192 points against 2.86-3.17 s at 256 KiB of
# held output (1,000 one-row chunks) and 2.19 s at 4,096 points; 16,384
# points was slower on the qubit and both qutrit grids and raised their
# peak resident set by up to 29 MB; the singlet took 0.76 s and 87.1 MB
# (0.80-0.91 s and 85.9 MB at 256 KiB).
CHUNK_POINTS = 8192


class Propagated(NamedTuple):
    """Outcome of :func:`propagate` for the points that were not degenerate.

    ``held`` is entry-major, as every stack from the channel product on:
    each entry's values over the points are one contiguous row, so the
    measures gather entries as row copies (see :class:`~unruhlab.tensor.Held`).
    """

    kept: np.ndarray        # (m,) indices of the kept points, ascending
    p_success: np.ndarray   # (m,) product of both post-selection probabilities
    held: Held              # (m, k) final states, checked and exactly Hermitian
    spectra: np.ndarray     # (m, d) their ascending eigenvalues, entry-major if d <= 7
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


def engine_inputs(dim: int, r, table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What :func:`prepare` takes between the initial states and ``project``,
    for party dimension ``dim``: the float64 Kraus stack of each Rindler
    angle ``r``, checked for completeness, and the filter diagonals of each
    row of ``table`` ``(n, step, party, level)``, step 0 weak, 1 reversing.
    The qutrit channel's phase is left out: one power of e^{i phi} per Kraus
    operator leaves the map unchanged (Nielsen & Chuang, Thm 8.2)."""
    kraus = kraus_for_dim(dim, check_rindler(r))
    check_completeness(kraus)
    weak = filter_diagonal(WEAK, table[:, 0], dim)
    reverse = filter_diagonal(REVERSE, table[:, 1], kraus.shape[-2])
    return kraus, weak, reverse


def _post_select(state: Held, floor: float):
    """Keep the members whose trace is not below ``floor``, renormalised:
    (indices kept, traces, states).  A NaN trace is kept, so that the exit
    check rejects the non-finite state instead of a degenerate row hiding it.
    """
    p = state.trace().real
    kept = np.flatnonzero(~(p < floor))
    state = _members(state, kept)
    p = p[kept]
    return kept, p, state._replace(values=state.values / p[:, None])


def _members(state: Held, kept: np.ndarray) -> Held:
    """The members ``kept`` (ascending) of an entry-major stack ``(m, k)``,
    entry-major: each entry's row gathered, or the stack itself when every
    member is kept."""
    if len(kept) == len(state.values):
        return state
    return state._replace(values=state.values.T.take(kept, axis=1).T)


def _accelerate(grid: Prepared, rows: np.ndarray, cols: np.ndarray) -> Held:
    """The weakened states of filter rows ``cols`` ``(n or 1, g)`` through the
    channel maps of rows ``rows`` ``(n,)``: ``(n, g, k_out)``, one product
    per channel row, copied once into entry-major order.  The transposed
    product ``channels @ weakened^T`` would give that order with no copy,
    and the same bits on real stacks, but not on complex ones."""
    values = grid.weakened.values[cols] @ grid.channels[rows].swapaxes(-1, -2)
    values = np.ascontiguousarray(values.transpose(2, 0, 1)).transpose(1, 2, 0)
    return Held(values, grid.support, grid.reverse.shape[-1])


def prepare(rho0, dims: tuple[int, int], kraus: np.ndarray, weak: np.ndarray,
            reverse: np.ndarray, project: bool = False) -> Prepared:
    """Tables of a grid of points for :func:`propagate_points`.

    ``rho0``: initial states over ``dims = (da, db)``, one shared by every
    filter row or one per row: a :class:`~unruhlab.tensor.DensityMatrix` runs as
    it was checked when built, a matrix or a stack of them is checked here.
    ``kraus``: ``(c, k, dao, da)``, one Kraus stack on party 0 per channel row.
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
    (:func:`~unruhlab.tensor.party_a_maps`).  Checked states with no
    imaginary entry are held float64 and the maps take the field of
    ``kraus``; where either is complex the product runs in complex128.
    """
    rho0 = rho0.held if isinstance(rho0, DensityMatrix) else check_held(hold(rho0))[0]
    if not np.any(rho0.values.imag):
        rho0 = rho0._replace(values=rho0.values.real)
    sigma = rho0.scaled(weak)
    p_weak = sigma.trace().real
    scale = np.where(p_weak >= SUCCESS_FLOOR, p_weak, 1.0)[:, None]
    sigma = nonzero_support(sigma)
    channels, support = party_a_maps(sigma.index, dims, superoperator(kraus))
    return Prepared(p_weak, sigma._replace(values=sigma.values / scale), channels, support,
                    reverse, dims, project)


def propagate_points(grid: Prepared, rows: np.ndarray, cols: np.ndarray) -> Propagated:
    """Channel and reversing filter on a slab of a prepared grid: the points
    ``(rows[i], cols[i, j])`` for channel rows ``rows`` ``(n,)`` and filter
    rows ``cols`` ``(n or 1, g)``, in row-major order, which ``kept``
    indexes.  A point whose weak row is degenerate is skipped.

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
    i_filter = np.broadcast_to(cols, (len(rows), cols.shape[-1])).ravel()
    live = np.flatnonzero(grid.p_weak[i_filter] >= SUCCESS_FLOOR)
    state = _accelerate(grid, rows, cols).scaled(grid.reverse[cols])
    state = _members(state._replace(values=state.values.reshape(len(i_filter), -1)), live)
    kept, p_rev, state = _post_select(state, SUCCESS_FLOOR)
    live = live[kept]
    p_success = grid.p_weak[i_filter[live]] * p_rev
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
    return propagate_points(prepare(rho0, dims, kraus, weak, reverse, project),
                            points, points[:, None])
