"""Local filtering operations: partial-collapse (weak) measurements and
their post-acceleration reversing counterparts.

Both kinds are diagonal non-unitary filters applied locally by each party,
with renormalisation by the post-selection success probability (see
:func:`unruhlab.pipeline.propagate`).

Weak filter (collapse toward the ground state):

    qubit   diag(1, sqrt(1 - a))
    qutrit  diag(1, sqrt(1 - a1), sqrt(1 - a2))

Reversing filter (collapse toward the top of the ladder):

    qubit   diag(sqrt(1 - b), 1)
    qutrit  diag(sqrt((1 - b1)(1 - b2)), sqrt(1 - b1), sqrt(1 - b2))

Strengths are arrays, one per excited level of each party: a sweep's tie
policy lays them out (:meth:`unruhlab.sweep.SweepConfig.strength_table`),
:func:`check_strengths` checks them and :func:`filter_levels` turns them
into the filters' diagonals.
"""

import numpy as np

from .errors import BadStrength

WEAK = "weak"
REVERSE = "reverse"

SUCCESS_FLOOR = 1e-14


def check_strengths(values) -> np.ndarray:
    """Raise :class:`BadStrength` unless every strength is finite and in [0, 1];
    returns ``values`` as floats."""
    v = np.asarray(values, dtype=np.float64)
    bad = ~((0.0 <= v) & (v <= 1.0))
    if bad.any():
        raise BadStrength(f"strength {v[bad][0]} outside [0, 1]")
    return v


def filter_levels(kind: str, levels) -> np.ndarray:
    """Diagonals of one party's filters for strengths ``levels`` of shape
    ``(..., dim - 1)``, unchecked: shape ``(..., dim)``."""
    comp = np.sqrt(1.0 - np.asarray(levels, dtype=np.float64))
    one = np.ones(comp.shape[:-1] + (1,))
    if kind == WEAK:
        return np.concatenate((one, comp), axis=-1)
    if comp.shape[-1] == 1:
        return np.concatenate((comp, one), axis=-1)
    return np.concatenate((comp[..., :1] * comp[..., 1:], comp), axis=-1)

