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

from .errors import BadArity, BadStrength, DimMismatch

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
        for v in a + b:
            if not np.isfinite(v) or v < 0.0 or v > 1.0:
                raise BadStrength(f"strength {v} outside [0, 1]")
        object.__setattr__(self, "party_a_levels", a)
        object.__setattr__(self, "party_b_levels", b)

    @property
    def dim(self) -> int:
        return len(self.party_a_levels) + 1


def tied(kind: str, value: float, dim: int) -> MeasurementStrengths:
    """All strengths of both parties (and both qutrit levels) equal."""
    levels = (float(value),) * (dim - 1)
    return MeasurementStrengths(kind, levels, levels)


def build_operator(kind: str, dim: int, levels) -> np.ndarray:
    """Diagonal filter operator of one party.

    Parameters
    ----------
    kind:
        ``'weak'`` or ``'reverse'``.
    dim:
        Local dimension, 2 or 3.
    levels:
        ``dim - 1`` strengths in [0, 1].

    Returns
    -------
    (dim, dim) complex array with entries in [0, 1]; satisfies M^dag M <= I.
    """
    if dim not in (2, 3):
        raise DimMismatch(f"local dimension must be 2 or 3, got {dim}")
    vals = MeasurementStrengths(kind, levels, levels).party_a_levels
    if len(vals) != dim - 1:
        raise BadArity(f"dimension {dim} needs {dim - 1} strengths, got {len(vals)}")
    comp = [np.sqrt(1.0 - v) for v in vals]
    if kind == WEAK:
        diag = [1.0] + comp
    elif dim == 2:
        diag = [comp[0], 1.0]
    else:
        diag = [comp[0] * comp[1], comp[0], comp[1]]
    return np.diag(np.asarray(diag, dtype=np.complex128))


def embed_diagonal(op: np.ndarray, out_dim: int) -> np.ndarray:
    """Extend a diagonal operator to ``out_dim`` acting as identity above.

    Used when a filter designed for the pre-acceleration ladder must act on
    the enlarged post-acceleration space: the extra (pair) level passes
    through unfiltered.
    """
    d = op.shape[0]
    if out_dim < d:
        raise DimMismatch(f"cannot embed dim {d} into smaller dim {out_dim}")
    out = np.eye(out_dim, dtype=np.complex128)
    out[:d, :d] = op
    return out
