"""Initial two-party states: X-form two-qubit states and a one-parameter
family of two-qutrit pure states.

The X-state is parametrised by the three diagonal correlation coefficients
(c11, c22, c33) of its Bloch decomposition

    rho = (I (x) I + sum_i c_ii sigma_i (x) sigma_i) / 4,

which fills the diagonal (B1, B3, B3, B1) and the two anti-diagonals:
B2 = (c11 - c22)/4 couples |00><11|, B4 = (c11 + c22)/4 couples |01><10|.
The singlet is (-1, -1, -1); Werner states with singlet fidelity x are
(-x, -x, -x).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotPositive, UnknownPreset
from .tensor import DensityMatrix


def check_x_coefficients(c) -> np.ndarray:
    """``c`` as floats; raises ``ValueError`` unless every coefficient is
    finite and lies in [-1, 1] to 1e-12."""
    c = np.asarray(c, dtype=np.float64)
    bad = ~(np.abs(c) <= 1.0 + 1e-12)
    if bad.any():
        raise ValueError(f"X-state coefficient {c[bad][0]} outside [-1, 1]")
    return c


def x_coefficients(c) -> tuple[np.ndarray, ...]:
    """(B1, B2, B3, B4) of the triples (c11, c22, c33) along the last axis of ``c``."""
    c = np.asarray(c, dtype=np.float64)
    c11, c22, c33 = c[..., 0], c[..., 1], c[..., 2]
    return 0.25 * (1.0 + c33), 0.25 * (c11 - c22), 0.25 * (1.0 - c33), 0.25 * (c11 + c22)


def x_eigenvalues(b1, b2, b3, b4) -> tuple[np.ndarray, ...]:
    """Spectra {B1 +/- B2, B3 +/- B4} of X-states with coefficients B1 .. B4."""
    return b1 + b2, b1 - b2, b3 + b4, b3 - b4


def x_matrix(t) -> np.ndarray:
    """4x4 X-form matrices of entries b1 .. b8 (last axis) in the published
    layout: b1/b3/b5/b7 on the diagonal, b2/b8 at |00><11|/|11><00| and
    b4/b6 at |01><10|/|10><01|."""
    m = np.zeros(t.shape[:-1] + (4, 4), dtype=np.complex128)
    m[..., [0, 1, 2, 3, 0, 3, 1, 2], [0, 1, 2, 3, 3, 0, 2, 1]] = t[..., [0, 2, 4, 6, 1, 7, 3, 5]]
    return m


def x_state_matrix(c) -> np.ndarray:
    """4x4 X-states of triples ``c`` (last axis), unchecked."""
    b1, b2, b3, b4 = x_coefficients(c)
    return x_matrix(np.stack((b1, b2, b3, b4, b3, b4, b1, b2), axis=-1))


@dataclass(frozen=True)
class XStateSpec:
    """Diagonal correlation coefficients of an X-form two-qubit state."""

    c11: float
    c22: float
    c33: float

    def __post_init__(self):
        check_x_coefficients((self.c11, self.c22, self.c33))

    def coefficients(self) -> tuple[float, float, float, float]:
        """(B1, B2, B3, B4): populations and anti-diagonal couplings."""
        return x_coefficients((self.c11, self.c22, self.c33))

    def eigenvalues(self) -> tuple[float, float, float, float]:
        """Spectrum {B1 +/- B2, B3 +/- B4} of the X-state."""
        return x_eigenvalues(*self.coefficients())


def make_x_state(spec: XStateSpec) -> DensityMatrix:
    """Assemble the 4x4 X-state for ``spec``.

    Raises :class:`NotPositive` when the coefficient triple does not
    describe a physical state (any eigenvalue below -1e-10), through the
    strict :class:`DensityMatrix` check.
    """
    return DensityMatrix(x_state_matrix((spec.c11, spec.c22, spec.c33)), (2, 2))


def singlet() -> DensityMatrix:
    """Two-qubit singlet (|01> - |10>)/sqrt(2) as an X-state."""
    return make_x_state(XStateSpec(-1.0, -1.0, -1.0))


def werner(x: float) -> DensityMatrix:
    """Werner-type X-state (-x, -x, -x) with singlet weight ``x``."""
    return make_x_state(XStateSpec(-x, -x, -x))


@dataclass(frozen=True)
class QutritStateSpec:
    """Pure two-qutrit state (|00> + |11> + gamma |22>) / sqrt(2 + gamma^2)."""

    gamma: float

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise ValueError(f"gamma={self.gamma} is not finite")

    def amplitudes(self) -> np.ndarray:
        n = np.sqrt(2.0 + self.gamma * self.gamma)
        return np.array([1.0, 1.0, self.gamma], dtype=np.complex128) / n


def make_qutrit_state(spec: QutritStateSpec) -> DensityMatrix:
    """Assemble the 9x9 density matrix of the gamma-family pure state."""
    amp = spec.amplitudes()
    ket = np.zeros(9, dtype=np.complex128)
    for i in range(3):
        ket[4 * i] = amp[i]  # |ii> sits at index 3*i + i
    return DensityMatrix(np.outer(ket, ket.conj()), (3, 3))


def parse_state_preset(text: str) -> DensityMatrix:
    """Build a state from a preset string.

    Accepted forms:

    * ``singlet``                          two-qubit maximally entangled
    * ``werner:<x>``                       Werner-type, e.g. ``werner:0.7``
    * ``x:<c11>,<c22>,<c33>``              raw X-state coefficients
    * ``qutrit:<gamma>``                   two-qutrit gamma family

    Raises :class:`UnknownPreset` for a malformed string and for
    coefficients that describe no physical state.
    """
    name, _, arg = text.strip().partition(":")
    name = name.strip().lower()
    try:
        if name == "singlet":
            if arg:
                raise UnknownPreset(f"'singlet' takes no argument, got {text!r}")
            return singlet()
        if name == "werner":
            return werner(float(arg))
        if name == "x":
            parts = [float(p) for p in arg.split(",")]
            if len(parts) != 3:
                raise UnknownPreset(f"'x:' needs three coefficients, got {text!r}")
            return make_x_state(XStateSpec(*parts))
        if name == "qutrit":
            return make_qutrit_state(QutritStateSpec(float(arg)))
    except (ValueError, TypeError, NotPositive) as exc:
        raise UnknownPreset(f"cannot parse state preset {text!r}: {exc}") from exc
    raise UnknownPreset(f"unknown state preset {text!r}")
