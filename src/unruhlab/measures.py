"""Entanglement and information measures of the protocol's final states.

Negativity comes in two flavours: the raw sum of negative partial-transpose
eigenvalues, and the normalised form (trace norm - 1)/(d_min - 1) which
equals 1 on a maximally entangled pair of equal-dimension parties.  For the
accelerated 4 x 3 qutrit output d_min = 3, so the pre-acceleration
maximally entangled state keeps value 1.

Local information is the Shannon entropy of a party's populations; the
coherent information is offered both in the standard form S(rho_b) -
S(rho_ab) and in the published sign convention sum_i mu_i log2 mu_i =
-S(rho_ab), which is non-positive and vanishes only on pure states.
"""

import numpy as np

from .tensor import block_eigenvalues, shannon_entropy

# Tolerances on the probability sum: spectra, then populations.
_SPECTRUM_SUM_TOL = 1e-6
_POPULATION_SUM_TOL = 1e-8

# Column order of every measure array.
MEASURE_COLUMNS = ("neg_raw", "E_norm", "I_a", "I_b", "I_coh_std", "I_coh_lit",
                   "p_success")


def check_ranges(e_norm, p_success) -> None:
    """Raise ``ValueError`` unless every normalised entanglement lies in
    [0, 1 + 1e-9] and every success probability in (0, 1 + 1e-12].

    Takes scalars or arrays.  NaN fails both checks.
    """
    e_norm, p_success = np.asarray(e_norm), np.asarray(p_success)
    bad = ~((0.0 <= e_norm) & (e_norm <= 1.0 + 1e-9))
    if bad.any():
        raise ValueError(f"normalised entanglement {e_norm[bad][0]} outside [0, 1]")
    bad = ~((0.0 < p_success) & (p_success <= 1.0 + 1e-12))
    if bad.any():
        raise ValueError(f"success probability {p_success[bad][0]} outside (0, 1]")


def measure_columns(out) -> np.ndarray:
    """Every measure of a stack of final states, one row per state.

    ``out`` holds checked, exactly Hermitian states as
    :func:`~unruhlab.pipeline.propagate` returns them, so their partial
    transposes and marginals (entries permuted, or summed in one order) are
    exactly Hermitian too; both are eigensolved block by block
    (:func:`~unruhlab.tensor.block_eigenvalues`).  The columns are
    ``MEASURE_COLUMNS``, in order; party 0 is the accelerated party, and the
    partial transpose is taken on it.  Raises ``ValueError``
    through :func:`check_ranges` if any E_norm or p_success is out of range.
    """
    d0, db = out.dims
    dim = d0 * db
    t = out.states.reshape(-1, d0, db, d0, db)
    lam = block_eigenvalues(t.transpose(0, 3, 2, 1, 4).reshape(-1, dim, dim))
    neg_raw = -np.where(lam < 0.0, lam, 0.0).sum(axis=-1)
    e_norm = 2.0 * neg_raw / (min(d0, db) - 1)
    check_ranges(e_norm, out.p_success)
    s_ab = shannon_entropy(out.spectra, _SPECTRUM_SUM_TOL)
    marg_a = np.trace(t, axis1=2, axis2=4)
    marg_b = np.trace(t, axis1=1, axis2=3)
    s_b = shannon_entropy(block_eigenvalues(marg_b), _SPECTRUM_SUM_TOL)
    return np.column_stack((
        neg_raw,
        e_norm,
        shannon_entropy(np.diagonal(marg_a, axis1=1, axis2=2).real, _POPULATION_SUM_TOL),
        shannon_entropy(np.diagonal(marg_b, axis1=1, axis2=2).real, _POPULATION_SUM_TOL),
        s_b - s_ab,
        -s_ab,
        out.p_success,
    ))
