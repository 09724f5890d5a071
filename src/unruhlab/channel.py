"""Fermionic Unruh channel seen by a uniformly accelerated party.

A single Minkowski fermion mode restricted to the accelerated observer's
Rindler wedge becomes a noisy channel.  For a qubit (vacuum / one-particle)
the Minkowski basis dresses as

    |0> -> cos r |0>_I |0>_II + sin r |1>_I |1>_II
    |1> -> |1>_I |0>_II

and for a qutrit (vacuum / spin-up U / spin-down D) as

    |0> -> cos^2 r |0,0> + e^{i phi} sin r cos r (|U,D> + |D,U>)
           + e^{2 i phi} sin^2 r |D,P>
    |U> -> cos r |U,0> + e^{i phi} sin r |P,U>
    |D> -> cos r |D,0> - e^{i phi} sin r |P,D>

where kets are |region I, region II> and P is the doubly occupied pair
state.  Tracing out region II yields the Kraus maps implemented here.  The
qutrit output space is 4-dimensional (the pair level becomes reachable);
all downstream processing keeps that enlarged factor.

The maps are built as stacks, one Kraus family per Rindler angle
(:func:`kraus_for_dim`), and checked for completeness as a stack
(:func:`check_completeness`); :func:`unruhlab.pipeline.engine_inputs`
builds them at phi = 0 for every command (the phase cancels in K rho K^dag),
and :func:`unruhlab.pipeline.propagate` applies them to party 0.

The Rindler angle r encodes the proper acceleration a through
tan r = exp(-pi omega / a) in natural units (c = 1), so r runs over
[0, pi/4] with r -> pi/4 the infinite-acceleration limit.
"""

import numpy as np

from .errors import BadPhysicalParam, DimMismatch

R_MAX = np.pi / 4
_R_TOL = 1e-12
COMPLETENESS_TOL = 1e-12

# Region-I ladder ordering shared with the rest of the package.
LEVEL_VACUUM, LEVEL_UP, LEVEL_DOWN, LEVEL_PAIR = 0, 1, 2, 3


def check_omega(omega: float) -> None:
    """Raises :class:`BadPhysicalParam` unless the mode frequency ``omega``
    is positive and finite."""
    if not np.isfinite(omega) or omega <= 0.0:
        raise BadPhysicalParam(f"omega must be positive and finite, got {omega}")


def r_from_acceleration(a: float, omega: float) -> float:
    """Rindler angle r = arctan(exp(-pi omega / a)), in natural units.

    ``a`` is the proper acceleration and ``omega`` the mode frequency.
    Both must be positive and finite, except that a = +inf is allowed and
    maps to r = pi/4.
    """
    check_omega(omega)
    if np.isinf(a) and a > 0:
        return R_MAX
    if not np.isfinite(a) or a <= 0.0:
        raise BadPhysicalParam(f"acceleration must be positive, got {a}")
    return float(np.arctan(np.exp(-np.pi * omega / a)))


def check_phase(phi) -> float:
    """``phi`` as a float; raises :class:`BadPhysicalParam` unless it is finite."""
    phi = float(phi)
    if not np.isfinite(phi):
        raise BadPhysicalParam(f"phi={phi} is not finite")
    return phi


def check_rindler(r) -> np.ndarray:
    """Rindler angles clamped into [0, pi/4]; raises :class:`BadPhysicalParam`
    unless every r lies there to 1e-12."""
    r = np.asarray(r, dtype=np.float64)
    bad = ~((-_R_TOL <= r) & (r <= R_MAX + _R_TOL))
    if bad.any():
        raise BadPhysicalParam(f"r={r[bad][0]} outside [0, pi/4]")
    return np.minimum(np.maximum(r, 0.0), R_MAX)


def check_completeness(kraus) -> np.ndarray:
    """Completeness defects max |sum_k K^dag K - I| of Kraus stacks
    ``(..., k, out, in)``; raises :class:`DimMismatch` if any exceeds 1e-12."""
    kraus = np.asarray(kraus)
    comp = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=-3)
    defect = np.abs(comp - np.eye(kraus.shape[-1])).max(axis=(-2, -1))
    if (defect > COMPLETENESS_TOL).any():
        raise DimMismatch(f"Kraus completeness defect {defect.max():.3e}")
    return defect


def qubit_kraus(r) -> np.ndarray:
    """Kraus pairs {diag(cos r, 1), sin r |1><0|} for Rindler angles ``r``,
    unchecked: float64 (they carry no phase), shape ``r.shape + (2, 2, 2)``."""
    r = np.asarray(r, dtype=np.float64)
    k = np.zeros(r.shape + (2, 2, 2))
    k[..., 0, 0, 0] = np.cos(r)
    k[..., 0, 1, 1] = 1.0
    k[..., 1, 1, 0] = np.sin(r)
    return k


def qutrit_kraus(r, phi=0.0) -> np.ndarray:
    """Four-outcome Kraus families of the accelerated qutrit, 3 -> 4 dim,
    unchecked, float64 if every phi is 0: shape ``r.shape + (4, 4, 3)``.
    Outcome index is the region-II level traced over: vacuum, U, D, pair."""
    r, phi = np.asarray(r, dtype=np.float64), np.asarray(phi, dtype=np.float64)
    c, s = np.cos(r), np.sin(r)
    ph = np.exp(1j * phi) if phi.any() else np.ones(phi.shape)
    k = np.zeros(np.broadcast_shapes(r.shape, ph.shape) + (4, 4, 3), dtype=ph.dtype)
    k[..., 0, LEVEL_VACUUM, 0] = c * c
    k[..., 0, LEVEL_UP, 1] = c
    k[..., 0, LEVEL_DOWN, 2] = c
    k[..., 1, LEVEL_DOWN, 0] = ph * s * c
    k[..., 1, LEVEL_PAIR, 1] = ph * s
    k[..., 2, LEVEL_UP, 0] = ph * s * c
    k[..., 2, LEVEL_PAIR, 2] = -ph * s
    k[..., 3, LEVEL_DOWN, 0] = ph * ph * s * s
    return k


def kraus_for_dim(dim: int, r, phi=0.0) -> np.ndarray:
    """Unchecked Kraus stacks of the channel on a party of dimension ``dim``."""
    if dim == 2:
        return qubit_kraus(r)
    if dim == 3:
        return qutrit_kraus(r, phi)
    raise DimMismatch(f"no acceleration channel for local dimension {dim}")


def superoperator(kraus) -> np.ndarray:
    """Liouville forms S = sum_k K_k (x) K_k^* of Kraus stacks ``(..., k, out, in)``:
    ``(..., out^2, in^2)`` maps of row-major vectorised states (Wood,
    Biamonte and Cory, Quantum Inf. Comput. 15, 759, 2015)."""
    k = np.asarray(kraus)
    s = (k[..., :, None, :, None] * k.conj()[..., None, :, None, :]).sum(axis=-5)
    return s.reshape(s.shape[:-4] + (k.shape[-2] ** 2, k.shape[-1] ** 2))
