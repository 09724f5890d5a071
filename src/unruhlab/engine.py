"""Batched grid engine: the sweep protocol over a chunk of points at once.

A chunk is a stack of grid points of one initial state.  Each point brings
its own channel (a Kraus stack, one per Rindler angle) and its own filters
(the diagonals of ``op_a (x) op_b``, one per strength value).  The engine
runs weak filter, channel on party 0 and reversing filter on the whole
stack, then every measure of :class:`~unruhlab.measures.MeasuresReport`:

* a diagonal filter is a broadcast scaling by its diagonal;
* the channel is one ``einsum`` over the stacked Kraus operators;
* the partial transpose is a reshape plus transpose, and every spectrum
  comes from one batched ``eigvalsh``.

Every check the scalar pipeline runs on a point runs here too, batched,
and raises the same exception class: the strict state check of
:class:`~unruhlab.tensor.DensityMatrix` after each step, the Hermiticity
check before each eigensolve and the probability checks of the entropies.
A point whose post-selection probability or ladder weight falls below the
scalar path's floor is degenerate; later steps skip it.  The scalar
:func:`~unruhlab.pipeline.run_protocol` stays the reference the tests
compare this module against.
"""

import numpy as np

from .errors import NonHermitian, NotPositive
from .localops import REVERSE, SUCCESS_FLOOR, MeasurementStrengths, build_operator, embed_diagonal
from .pipeline import LADDER_FLOOR
from .tensor import (ENTROPY_EIGENVALUE_FLOOR, HERMITICITY_TOL, STATE_EIGENVALUE_TOL,
                     STATE_HERMITICITY_TOL, STATE_TRACE_TOL)

# Bytes of one stacked state array.  This bounds the working set on large
# grids: `figure fig2a` (6,400 qutrit points) peaks at 46 MB resident in
# these chunks and at 152 MB in one chunk.  The channel's intermediates
# hold several times a chunk's states, so a larger budget raises the peak
# of small sweeps too (fig6b, 243 points: +0.6 MB over the scalar path
# here, +4.5 MB at 512 KiB).
CHUNK_BYTES = 128 * 1024

# Tolerances on the probability sum, as the scalar measures pass them.
_SPECTRUM_SUM_TOL = 1e-6
_POPULATION_SUM_TOL = 1e-8


def chunk_points(state_dim: int) -> int:
    """Grid points per chunk for joint states of dimension ``state_dim``."""
    return max(1, CHUNK_BYTES // (16 * state_dim * state_dim))    # 16 B per complex128


def filter_diagonal(strengths: MeasurementStrengths, out_dim_a: int) -> np.ndarray:
    """Diagonal of ``op_a (x) op_b`` for one filter step.

    A reversing filter on party a acts as the identity above its own
    levels, as in :func:`~unruhlab.pipeline.run_protocol`.
    """
    dim = strengths.dim
    op_a = build_operator(strengths.kind, dim, strengths.party_a_levels)
    if strengths.kind == REVERSE:
        op_a = embed_diagonal(op_a, out_dim_a)
    op_b = build_operator(strengths.kind, dim, strengths.party_b_levels)
    return np.outer(op_a.diagonal().real, op_b.diagonal().real).ravel()


def _hermitian(m: np.ndarray, tol: float) -> np.ndarray:
    """Hermitian parts of a stack of finite, Hermitian-within-``tol`` matrices."""
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    md = m.conj().swapaxes(-1, -2)
    asym = np.abs(m - md).max(axis=(-2, -1), initial=0.0)
    if np.any(asym > tol):
        raise NonHermitian(f"matrix deviates from Hermiticity by {asym.max():.3e}")
    return 0.5 * (m + md)


def check_states(m: np.ndarray) -> np.ndarray:
    """Strict density-matrix check of every member of a stack.

    The batched form of ``DensityMatrix(matrix, dims)``: finite entries
    (``ValueError``), Hermitian to 1e-10 (:class:`NonHermitian`), unit trace
    to 1e-10 (``ValueError``), lowest eigenvalue at least -1e-10
    (:class:`NotPositive`).  Returns the Hermitian parts.
    """
    h = _hermitian(m, STATE_HERMITICITY_TOL)
    tr = np.trace(h, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > STATE_TRACE_TOL
    if np.any(off):
        raise ValueError(f"trace {tr[off][0]} is not 1 within {STATE_TRACE_TOL}")
    lo = np.linalg.eigvalsh(h)[..., 0]
    if np.any(lo < -STATE_EIGENVALUE_TOL):
        raise NotPositive(f"negative eigenvalue {lo.min():.3e}")
    return h


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending spectra, after the scalar path's 1e-8 Hermiticity check."""
    return np.linalg.eigvalsh(_hermitian(m, HERMITICITY_TOL))


def _entropy_bits(p: np.ndarray, tol: float) -> np.ndarray:
    """Shannon entropies in bits of the probability vectors along the last axis."""
    if np.any(p < -STATE_EIGENVALUE_TOL):
        raise NotPositive(f"negative probability {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1)
    off = np.abs(total - 1.0) > tol
    if np.any(off):
        raise ValueError(f"probabilities sum to {total[off][0]}, not 1")
    keep = p > ENTROPY_EIGENVALUE_FLOOR
    h = -np.where(keep, p * np.log2(np.where(keep, p, 1.0)), 0.0).sum(axis=-1)
    return np.where(h < 0.0, 0.0, h)    # max(h, 0.0), keeping the sign of a zero


def _post_select(sigma: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep the members whose trace reaches ``floor``, renormalised and checked.

    Returns (indices kept, their traces, their checked states).
    """
    p = np.trace(sigma, axis1=-2, axis2=-1).real
    kept = np.flatnonzero(p >= floor)
    p = p[kept]
    return kept, p, check_states(sigma[kept] / p[:, None, None])


def evaluate(rho0: np.ndarray, dims: tuple[int, int], kraus: np.ndarray,
             weak: np.ndarray, reverse: np.ndarray, project: bool
             ) -> tuple[np.ndarray, np.ndarray]:
    """Every measure of a chunk of protocol points on one initial state.

    Parameters
    ----------
    rho0:
        Initial state, a ``(da db, da db)`` matrix over ``dims = (da, db)``.
    kraus:
        ``(n, k, dao, da)``: each point's Kraus operators on party 0.
    weak, reverse:
        ``(n, da db)`` and ``(n, dao db)``: each point's filter diagonals
        (see :func:`filter_diagonal`).
    project:
        Restrict each output to party 0's first ``da`` levels (its
        pre-acceleration ladder) and renormalise, as
        ``restrict_to_ladder(..., renormalize=True)``.

    Returns
    -------
    ``(measures, ok)``: an ``(n, 7)`` array with the columns of
    :class:`~unruhlab.measures.MeasuresReport` in field order, and an
    ``(n,)`` mask that is False on degenerate points, whose rows are NaN.
    """
    da, db = dims
    n = len(weak)
    dao = kraus.shape[2]
    measures = np.full((n, 7), np.nan)
    ok = np.zeros(n, dtype=bool)

    live, p_weak, state = _post_select((weak[:, :, None] * rho0) * weak[:, None, :],
                                       SUCCESS_FLOOR)
    k = kraus[live]
    t = np.einsum("nkai,nibjd,nkcj->nabcd", k, state.reshape(-1, da, db, da, db),
                  k.conj(), optimize=True)
    state = check_states(t.reshape(-1, dao * db, dao * db))
    rev = reverse[live]
    kept, p_rev, state = _post_select((rev[:, :, None] * state) * rev[:, None, :],
                                      SUCCESS_FLOOR)
    live, p_success = live[kept], p_weak[kept] * p_rev
    d0 = da if project else dao
    if project:
        block = state.reshape(-1, dao, db, dao, db)[:, :d0, :, :d0, :]
        kept, _, state = _post_select(block.reshape(-1, d0 * db, d0 * db), LADDER_FLOOR)
        live, p_success = live[kept], p_success[kept]

    dim = d0 * db
    t = state.reshape(-1, d0, db, d0, db)
    lam = _eigenvalues(t.transpose(0, 3, 2, 1, 4).reshape(-1, dim, dim))
    neg_raw = -np.where(lam < 0.0, lam, 0.0).sum(axis=-1)
    s_ab = _entropy_bits(_eigenvalues(state), _SPECTRUM_SUM_TOL)
    marg_a = _hermitian(np.trace(t, axis1=2, axis2=4), HERMITICITY_TOL)
    marg_b = _hermitian(np.trace(t, axis1=1, axis2=3), HERMITICITY_TOL)
    s_b = _entropy_bits(_eigenvalues(marg_b), _SPECTRUM_SUM_TOL)
    measures[live] = np.column_stack((
        neg_raw,
        2.0 * neg_raw / (min(d0, db) - 1),
        _entropy_bits(np.diagonal(marg_a, axis1=1, axis2=2).real, _POPULATION_SUM_TOL),
        _entropy_bits(np.diagonal(marg_b, axis1=1, axis2=2).real, _POPULATION_SUM_TOL),
        s_b - s_ab,
        -s_ab,
        p_success,
    ))
    ok[live] = True
    return measures, ok
