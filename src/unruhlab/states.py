"""Initial two-party states: X-form two-qubit states and a one-parameter
family of two-qutrit pure states.

The X-state is parametrised by the three diagonal correlation coefficients
(c11, c22, c33) of its Bloch decomposition

    rho = (I (x) I + sum_i c_ii sigma_i (x) sigma_i) / 4,

which fills the diagonal (B1, B3, B3, B1) and the two anti-diagonals:
B2 = (c11 - c22)/4 couples |00><11|, B4 = (c11 + c22)/4 couples |01><10|.
The singlet is (-1, -1, -1); Werner states with singlet fidelity x are
(-x, -x, -x).

:func:`x_state` and :func:`qutrit_state` check their parameters and build
a :class:`~unruhlab.tensor.DensityMatrix`, whose check is the one a preset
gets (:func:`parse_state_preset`).
"""

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


def x_state(c11: float, c22: float, c33: float) -> DensityMatrix:
    """The 4x4 X-state of coefficients (c11, c22, c33).

    Raises ``ValueError`` unless each is finite and in [-1, 1]
    (:func:`check_x_coefficients`), and :class:`NotPositive` when the
    triple describes no physical state (an eigenvalue below -1e-10),
    through the :class:`DensityMatrix` check.
    """
    return DensityMatrix(x_state_matrix(check_x_coefficients((c11, c22, c33))), (2, 2))


def singlet() -> DensityMatrix:
    """Two-qubit singlet (|01> - |10>)/sqrt(2) as an X-state."""
    return x_state(-1.0, -1.0, -1.0)


def werner(x: float) -> DensityMatrix:
    """Werner-type X-state (-x, -x, -x) with singlet weight ``x``."""
    return x_state(-x, -x, -x)


def qutrit_state(gamma: float) -> DensityMatrix:
    """The pure two-qutrit state (|00> + |11> + gamma |22>) / sqrt(2 + gamma^2).

    Raises ``ValueError`` unless ``gamma`` is finite and 2 + gamma^2 is too.
    """
    if not np.isfinite(gamma):
        raise ValueError(f"gamma={gamma} is not finite")
    norm2 = 2.0 + gamma * gamma
    if not np.isfinite(norm2):
        raise ValueError(f"gamma={gamma} is too large: 2 + gamma^2 overflows")
    ket = np.zeros(9, dtype=np.complex128)
    ket[[0, 4, 8]] = np.array([1.0, 1.0, gamma], dtype=np.complex128) / np.sqrt(norm2)  # |ii>
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
            return x_state(*parts)
        if name == "qutrit":
            return qutrit_state(float(arg))
    except (ValueError, TypeError, NotPositive) as exc:
        raise UnknownPreset(f"cannot parse state preset {text!r}: {exc}") from exc
    raise UnknownPreset(f"unknown state preset {text!r}")
