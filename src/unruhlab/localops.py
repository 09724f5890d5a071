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
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadArity, BadStrength

WEAK = "weak"
REVERSE = "reverse"
_KINDS = (WEAK, REVERSE)

SUCCESS_FLOOR = 1e-14


@dataclass(frozen=True)
class MeasurementStrengths:
    """Strength assignment for one measurement step, both parties.

    ``kind`` is ``'weak'`` or ``'reverse'``; each party carries one strength
    per excited level (one for a qubit, two for a qutrit).
    """

    kind: str
    party_a_levels: tuple[float, ...]
    party_b_levels: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        a = tuple(float(v) for v in self.party_a_levels)
        b = tuple(float(v) for v in self.party_b_levels)
        if len(a) != len(b):
            raise BadArity(f"parties disagree on level count: {len(a)} vs {len(b)}")
        if len(a) not in (1, 2):
            raise BadArity(f"one (qubit) or two (qutrit) strengths per party, got {len(a)}")
        check_strengths(a + b)
        object.__setattr__(self, "party_a_levels", a)
        object.__setattr__(self, "party_b_levels", b)

    @property
    def dim(self) -> int:
        return len(self.party_a_levels) + 1


def tied(kind: str, value: float, dim: int) -> MeasurementStrengths:
    """All strengths of both parties (and both qutrit levels) equal."""
    levels = (float(value),) * (dim - 1)
    return MeasurementStrengths(kind, levels, levels)


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

