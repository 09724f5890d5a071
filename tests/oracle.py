"""The scalar Kraus pipeline: the reference the package is tested against.

Each function here acts on one :class:`~unruhlab.tensor.DensityMatrix`
with explicit full-space operators built by ``kron`` from the one-party
filters ``build_operator`` and ``embed_diagonal``, the way the package
ran the protocol before :func:`unruhlab.pipeline.propagate` replaced it:
weak filter on both parties, acceleration channel on party 0, reversing
filter on both parties, each step post-selected and checked as a strict
state; ``restrict_to_ladder`` cuts an accelerated qutrit output back to its
3 x 3 ladder block and ``compute_report`` evaluates every measure.  The
tests compare the batched pipeline against it to 1e-12, and check it in
turn against index-arithmetic, Stinespring and Jacobi oracles.  A matrix
that need not be a state (a literal closed form, an unnormalised ladder
block, a marginal) is held as a ``HermitianMatrix``, symmetrised by this
module's own dense ``hermitian_part``.

The per-point objects come first: an initial state's parameters
(``XStateSpec``, ``QutritStateSpec``, which ``x_state`` and
``qutrit_state`` take unpacked), the dense spectra of X-states
(``x_eigenvalues``) and of Hermitian matrices (``hermitian_eigenvalues``,
one full LAPACK solve, the reference the block solver and the Jacobi
eigensolver are checked against), the gather of held entries through a
padded copy of the stack (``padded_entries``), an acceleration
(``AccelerationSpec``) and its channel (``ChannelKraus``), the strengths
of one measurement step (``MeasurementStrengths``, ``tied``), one point's
engine inputs (``point_inputs``, ``propagate_point``) and a sweep value's
strengths (``point_strengths``), and the scalar closed forms
(``QubitCoefficients``, ``QutritCoefficients`` and the functions that
build and assemble them).
They are the input form ``state`` and ``validate`` used before both built
their arrays the way ``run_sweep`` does, through
:func:`unruhlab.pipeline.engine_inputs` and :mod:`unruhlab.closedform`;
the scalar pipeline takes them, and the tests compare the array forms
against them.

The three ``_check_*`` functions at the end are ``validate``'s sampled
checks as they ran one sample at a time, on the scalar closed forms and
per-sample state, strength, channel and acceleration objects; the tests
compare the batched checks in :mod:`unruhlab.validate` against them.
``_info_qutrit_literal`` builds ``validate``'s qutrit-literal entries on
state objects and a ``DiscrepancyReport``, the form
``validate`` compares its array expressions against, bit for bit.

``rows_to_csv_reference`` is the CSV renderer as it ran one row at a time
with ``%``; the tests compare the vectorised renderer against it byte for
byte.
"""

import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from unruhlab.channel import check_completeness, check_phase, check_rindler, kraus_for_dim
from unruhlab.closedform import (_trace, assemble_qubit, assemble_qutrit, check_coefficients,
                                 qubit_table, qutrit_table, x_state_spectrum)
from unruhlab.errors import (DegenerateOutcome, DimMismatch, NonHermitian, NotPositive,
                             NotSquare, UnruhLabError)
from unruhlab.localops import REVERSE, SUCCESS_FLOOR, WEAK, check_strengths, filter_levels
from unruhlab.measures import MEASURE_COLUMNS, check_ranges
from unruhlab import validate
from unruhlab.pipeline import LADDER_FLOOR, Propagated, filter_diagonal, propagate
from unruhlab.states import x_coefficients, x_matrix, x_state
from unruhlab.sweep import (ALL_EQUAL, INDEPENDENT, TWO_QUTRIT, WEAK_REVERSE_SPLIT, SweepConfig,
                            grid_inputs)
from unruhlab.tensor import (ENTROPY_EIGENVALUE_FLOOR, STATE_EIGENVALUE_TOL,
                             STATE_HERMITICITY_TOL, DensityMatrix, Held, ladder_block)
from unruhlab.validate import EQUIV_TOL, SPECTRUM_TOL, ZERO_ACCEL_TOL, CheckResult

ACCELERATED_PARTY = 0
STANDARD = "standard"
LITERAL = "literal"
_NEG_CLAMP = 1e-12
_KINDS = (WEAK, REVERSE)
TRACE_NORM = "trace"
PRINTED_NORM = "printed"


class InvalidSubsystem(UnruhLabError):
    """Subsystem index is out of range for the given dimension list."""


class BadArity(UnruhLabError):
    """Wrong number of strength parameters for the local dimension."""


class XStateSpec(NamedTuple):
    """Diagonal correlation coefficients of an X-form two-qubit state,
    unchecked: ``x_state(*spec)`` checks and builds it."""

    c11: float
    c22: float
    c33: float


class QutritStateSpec(NamedTuple):
    """The gamma of a two-qutrit gamma-family state, unchecked:
    ``qutrit_state(*spec)`` checks and builds it."""

    gamma: float


def x_eigenvalues(b1, b2, b3, b4) -> tuple[np.ndarray, ...]:
    """Spectra {B1 +/- B2, B3 +/- B4} of X-states with coefficients B1 .. B4."""
    return b1 + b2, b1 - b2, b3 + b4, b3 - b4


def hermitian_part(m) -> np.ndarray:
    """Hermitian parts (M + M^dag) / 2 of finite square matrices (any
    leading axes) that are Hermitian within ``STATE_HERMITICITY_TOL``;
    raises :class:`NotSquare`, ``ValueError`` or :class:`NonHermitian`.  A
    real input gives a float64 result, any other a complex128 one."""
    m = np.asarray(m)
    m = m.astype(np.float64 if np.isrealobj(m) else np.complex128, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSquare(f"expected square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    mt = m.swapaxes(-1, -2).conj()
    asym = np.abs(m - mt)
    if (asym > STATE_HERMITICITY_TOL).any():
        raise NonHermitian(f"matrix deviates from Hermiticity by {asym.max():.3e}")
    return 0.5 * (m + mt)


class HermitianMatrix(NamedTuple):
    """A complex128 Hermitian matrix over ``dims`` that need not be a state:
    a literal closed form, an unnormalised ladder block or a marginal.  The
    package's :class:`DensityMatrix` holds checked states only; these are
    made by :func:`hermitian_matrix`."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def hermitian_matrix(m, dims) -> HermitianMatrix:
    """The Hermitian part of ``m`` (:func:`hermitian_part`), as complex128,
    over ``dims``."""
    return HermitianMatrix(hermitian_part(np.asarray(m, dtype=np.complex128)), tuple(dims))


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or of a stack of them,
    by one full LAPACK solve of the Hermitian part (:func:`hermitian_part`).
    Dimensions here never exceed 16, for which ``numpy.linalg.eigvalsh``
    is exact to machine precision; the tests cross-check it against
    :func:`jacobi_eigenvalues`."""
    return np.linalg.eigvalsh(hermitian_part(m))


def padded_entries(h: Held, flat) -> np.ndarray:
    """:meth:`~unruhlab.tensor.Held.entries` as it gathered before stacks
    were held entry-major: a copy of the whole stack with one zero column
    appended, which every entry not held reads, indexed on its last axis."""
    pos = np.full(h.dim * h.dim, len(h.index))
    pos[h.index] = np.arange(len(h.index))
    pad = np.zeros(h.values.shape[:-1] + (1,), dtype=h.values.dtype)
    return np.concatenate((h.values, pad), axis=-1)[..., pos[flat]]


@dataclass(frozen=True)
class AccelerationSpec:
    """Rindler angle r in [0, pi/4] plus the Unruh mode phase phi."""

    r: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r", float(check_rindler(self.r)))
        object.__setattr__(self, "phi", check_phase(self.phi))


@dataclass(frozen=True)
class ChannelKraus:
    """Kraus decomposition of one party's acceleration channel."""

    in_dim: int
    out_dim: int
    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=np.complex128) for k in self.kraus)
        for k in ops:
            if k.shape != (self.out_dim, self.in_dim):
                raise DimMismatch(
                    f"Kraus block {k.shape} vs ({self.out_dim}, {self.in_dim})"
                )
        object.__setattr__(self, "kraus", ops)
        check_completeness(ops)

    def completeness_defect(self) -> float:
        return float(check_completeness(self.kraus))


def qubit_channel(spec: AccelerationSpec) -> ChannelKraus:
    """Two-outcome Kraus pair {diag(cos r, 1), sin r |1><0|}."""
    return channel_for_dim(2, spec)


def qutrit_channel(spec: AccelerationSpec) -> ChannelKraus:
    """Four-outcome Kraus family of the accelerated qutrit (:func:`qutrit_kraus`)."""
    return channel_for_dim(3, spec)


def channel_for_dim(dim: int, spec: AccelerationSpec) -> ChannelKraus:
    k = kraus_for_dim(dim, spec.r, spec.phi)
    return ChannelKraus(dim, k.shape[-2], tuple(k))


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


def point_inputs(weak: MeasurementStrengths, reverse: MeasurementStrengths,
                 acc: AccelerationSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kraus stack, checked and in its own field (float64 without a phase),
    and both filter diagonals of one point, as :func:`propagate` takes them
    without the leading point axis."""
    kraus = kraus_for_dim(weak.dim, acc.r, acc.phi)
    check_completeness(kraus)
    return (kraus,
            filter_diagonal(WEAK, (weak.party_a_levels, weak.party_b_levels), weak.dim),
            filter_diagonal(REVERSE, (reverse.party_a_levels, reverse.party_b_levels),
                            kraus.shape[-2]))


def propagate_point(rho0: DensityMatrix, weak: MeasurementStrengths,
                    reverse: MeasurementStrengths, acc: AccelerationSpec) -> Propagated:
    """:func:`propagate` of one point; raises :class:`DegenerateOutcome`
    when a post-selection fails."""
    kraus, w, v = point_inputs(weak, reverse, acc)
    out = propagate(rho0.matrix, rho0.dims, kraus[None], w[None], v[None])
    if not len(out.kept):
        raise DegenerateOutcome(f"success probability below {SUCCESS_FLOOR}")
    return out


def point_strengths(config, value: float
                    ) -> tuple[MeasurementStrengths, MeasurementStrengths]:
    """The weak and reversing strengths of sweep value ``value`` under the
    config's tie policy, laid out from the policy's definition: the value
    drives every strength (``all_equal``), the weak ones with ``beta`` for
    both reversing ones (``weak_reverse_split``), or party a's weak one
    with ``alpha_b``, ``beta_a`` and ``beta_b`` for the rest
    (``independent``); each party's levels are tied."""
    weak_b, reverse_a, reverse_b = {
        ALL_EQUAL: (value, value, value),
        WEAK_REVERSE_SPLIT: (value, config.beta, config.beta),
        INDEPENDENT: (config.alpha_b, config.beta_a, config.beta_b),
    }[config.tie_policy]
    levels = config.levels
    return (MeasurementStrengths(WEAK, (value,) * levels, (weak_b,) * levels),
            MeasurementStrengths(REVERSE, (reverse_a,) * levels, (reverse_b,) * levels))


def _strength_pairs(weak: MeasurementStrengths, reverse: MeasurementStrengths,
                    dim: int):
    if weak.kind != WEAK or reverse.kind != REVERSE:
        raise ValueError("strength kinds must be (weak, reverse)")
    if weak.dim != dim or reverse.dim != dim:
        raise DimMismatch(f"strengths are for dim {weak.dim}/{reverse.dim}, need {dim}")
    return weak, reverse


@dataclass(frozen=True)
class QubitCoefficients:
    """Decorated X-state coefficients of the final two-qubit state.

    ``b1`` .. ``b8`` follow the published layout: b1/b3/b5/b7 are the
    |00>/|01>/|10>/|11> populations, b2 = b8 couples |00><11| and
    b4 = b6 couples |01><10|.  ``variant`` records whether b7 carries the
    acceleration feed-through term (``corrected``) or not (``literal``).
    """

    b1: float
    b2: float
    b3: float
    b4: float
    b5: float
    b6: float
    b7: float
    b8: float
    variant: str

    def __post_init__(self):
        check_coefficients(self.table)

    @property
    def table(self) -> np.ndarray:
        """b1 .. b8 as one row of a coefficient table."""
        return np.array([getattr(self, f"b{i}") for i in range(1, 9)], dtype=np.float64)

    @property
    def normalization(self) -> float:
        """Trace of the unnormalised state: b1 + b3 + b5 + b7."""
        return float(_trace(self.table))

    @property
    def printed_normalization(self) -> float:
        """Normalisation as printed, summing the off-diagonal b6 in place
        of the fourth population b7."""
        return float(_trace(self.table, 5))

    def assemble(self, normalization: str = TRACE_NORM) -> DensityMatrix | HermitianMatrix:
        """The state, checked when corrected; a literal one need not be a
        state, and is assembled as a :class:`HermitianMatrix`."""
        if normalization == TRACE_NORM:
            m = assemble_qubit(self.table)
            if self.variant == "corrected":
                return DensityMatrix(m, (2, 2))
            return hermitian_matrix(m, (2, 2))
        if normalization != PRINTED_NORM:
            raise ValueError(f"normalization must be {TRACE_NORM!r} or {PRINTED_NORM!r}")
        return hermitian_matrix(x_matrix(self.table) / self.printed_normalization, (2, 2))


def qubit_coefficients(spec: XStateSpec, weak: MeasurementStrengths,
                       reverse: MeasurementStrengths, acc: AccelerationSpec,
                       variant: str = "corrected") -> QubitCoefficients:
    """:func:`qubit_table` of one two-qubit run, as checked coefficients."""
    weak, reverse = _strength_pairs(weak, reverse, 2)
    table = qubit_table((spec.c11, spec.c22, spec.c33), weak.party_a_levels + weak.party_b_levels,
                        reverse.party_a_levels + reverse.party_b_levels, acc.r, variant)
    return QubitCoefficients(*table, variant)


def literal_final_qubit(spec: XStateSpec, weak: MeasurementStrengths,
                        reverse: MeasurementStrengths, acc: AccelerationSpec,
                        normalization: str = TRACE_NORM) -> HermitianMatrix:
    """Final two-qubit state assembled verbatim from the published table.

    The printed normalisation constant sums an off-diagonal coefficient and
    does not reproduce a unit-trace state even at r = 0, so the default here
    divides by the actual trace; pass ``normalization='printed'`` for the
    verbatim constant.  The output is not checked as a state.
    """
    coeffs = qubit_coefficients(spec, weak, reverse, acc, variant="literal")
    return coeffs.assemble(normalization)


def corrected_final_qubit(spec: XStateSpec, weak: MeasurementStrengths,
                          reverse: MeasurementStrengths, acc: AccelerationSpec
                          ) -> DensityMatrix:
    """Repaired closed form; agrees with the pipeline to 1e-12."""
    return qubit_coefficients(spec, weak, reverse, acc, "corrected").assemble()


@dataclass(frozen=True)
class QutritCoefficients:
    """Published coefficient table of the final two-qutrit state.

    ``d`` holds the eleven entry coefficients, ``a`` the nine filter
    factors and ``r_weights`` the 3x3 table of reversing-filter weights
    (accelerated party index first).  ``normalization`` is the sum of the
    five printed diagonal coefficients, which here equals the trace by
    construction.
    """

    d: tuple[float, ...]
    a: tuple[float, ...]
    r_weights: np.ndarray
    normalization: float

    def __post_init__(self):
        if len(self.d) != 11 or len(self.a) != 9:
            raise ValueError("need 11 entry and 9 filter coefficients")
        for i in (1, 3, 5, 6, 9):
            if self.d[i - 1] < -1e-14:
                raise NotPositive(f"diagonal coefficient D{i}={self.d[i - 1]} negative")
        if self.normalization <= 1e-14:
            raise DegenerateOutcome(f"normalization {self.normalization} is zero")


def qutrit_coefficients(spec: QutritStateSpec, weak: MeasurementStrengths,
                        reverse: MeasurementStrengths, acc: AccelerationSpec
                        ) -> QutritCoefficients:
    """Evaluate the published two-qutrit coefficient table.

    The published weak-measurement factors carry only two strengths, read
    here as the two level strengths shared by both parties (party a's pair
    is used); the reversing factors are resolved per party.  Odd cosine
    powers are kept exactly as printed.
    """
    weak, reverse = _strength_pairs(weak, reverse, 3)
    gamma = spec.gamma
    big_n = 2.0 + gamma * gamma
    aw1 = 1.0 - weak.party_a_levels[0]
    aw2 = 1.0 - weak.party_a_levels[1]
    c1, s1 = np.cos(acc.r), np.sin(acc.r)

    def ladder(levels):
        b1 = 1.0 - levels[0]
        b2 = 1.0 - levels[1]
        return np.array([np.sqrt(b1 * b2), np.sqrt(b1), np.sqrt(b2)])

    ra = ladder(reverse.party_a_levels)
    rb = ladder(reverse.party_b_levels)
    rw = np.outer(ra, rb)

    sq = np.sqrt(aw1) * np.sqrt(aw2)
    a1 = 1.0 / big_n
    a2 = sq / big_n
    a3 = gamma * sq / big_n
    a5 = aw1 * aw2 / big_n
    a6 = gamma * aw1 * aw2 / big_n
    a9 = gamma * gamma * aw1 * aw2 / big_n
    a = (a1, a2, a3, a2, a5, a6, a3, a6, a9)

    c2, c3 = c1 * c1, c1 * c1 * c1
    # Squared as an array, x * x as the array form squares: a scalar's
    # ** 2 calls pow, which can round a near-tie the other way.
    rw2 = rw ** 2
    d = (
        c2 * rw2[0, 0] * a1,                # D1   |00><00|
        c3 * rw[0, 0] * rw[1, 1] * a2,      # D2   |00><11|
        c2 * s1 * s1 * rw2[1, 0] * a1,      # D3   |10><10|
        c3 * rw[0, 0] * rw[1, 1] * a[3],    # D4   |11><00|
        c3 * rw2[1, 1] * a5,                # D5   |11><11|
        c2 * s1 * s1 * rw2[2, 0] * a1,      # D6   |20><20|
        c3 * rw[2, 2] * rw[0, 0] * a[6],    # D7   |22><00|
        c2 * rw[2, 2] * rw[1, 1] * a[7],    # D8   |22><11|
        c2 * rw2[2, 2] * a9,                # D9   |22><22|
        c3 * rw[0, 0] * rw[2, 2] * a3,      # D10  |00><22|
        c2 * rw[1, 1] * rw[2, 2] * a6,      # D11  |11><22|
    )
    norm = d[0] + d[2] + d[4] + d[5] + d[8]
    return QutritCoefficients(d, a, rw, norm)


def literal_final_qutrit(spec: QutritStateSpec, weak: MeasurementStrengths,
                         reverse: MeasurementStrengths, acc: AccelerationSpec
                         ) -> HermitianMatrix:
    """Final two-qutrit state assembled verbatim from the published table.

    Lives on the 3 x 3 ladder (the pair level reachable after acceleration
    is absent from the published form).  Unit trace by construction, but
    positivity is not guaranteed, so it is not checked as a state.
    """
    c = qutrit_coefficients(spec, weak, reverse, acc)
    d = c.d
    m = np.zeros((9, 9), dtype=np.complex128)
    # Basis index of |i j> is 3 i + j.
    m[0, 0] = d[0]
    m[0, 4] = d[1]
    m[3, 3] = d[2]
    m[4, 0] = d[3]
    m[4, 4] = d[4]
    m[6, 6] = d[5]
    m[8, 0] = d[6]
    m[8, 4] = d[7]
    m[8, 8] = d[8]
    m[0, 8] = d[9]
    m[4, 8] = d[10]
    return hermitian_matrix(m / c.normalization, (3, 3))


def kron(*factors) -> np.ndarray:
    """Kronecker product of one or more matrices, leftmost factor slowest."""
    if not factors:
        raise ValueError("kron() needs at least one factor")
    out = np.asarray(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=np.complex128))
    return out


def _check_subsystem(dims: tuple[int, ...], subsystem: int) -> int:
    s = int(subsystem)
    if s < 0 or s >= len(dims):
        raise InvalidSubsystem(f"subsystem {subsystem} out of range for dims {dims}")
    return s


def partial_trace(rho, keep) -> HermitianMatrix:
    """Trace out every subsystem not listed in ``keep``.

    Parameters
    ----------
    rho:
        :class:`DensityMatrix` or :class:`HermitianMatrix` over ``rho.dims``.
    keep:
        Subsystem index or iterable of indices to retain, in their original
        order.

    Returns
    -------
    HermitianMatrix over the kept subsystems.  Hermiticity, unit trace and
    positivity of a partial trace follow from the input's, so the result
    is not checked as a state again.
    """
    if isinstance(keep, (int, np.integer)):
        keep_idx = [_check_subsystem(rho.dims, keep)]
    else:
        keep_idx = [_check_subsystem(rho.dims, k) for k in keep]
        if len(set(keep_idx)) != len(keep_idx):
            raise InvalidSubsystem(f"repeated subsystem in keep={keep}")
        if keep_idx != sorted(keep_idx):
            raise InvalidSubsystem("keep indices must be in ascending order")
    if not keep_idx:
        raise InvalidSubsystem("must keep at least one subsystem")

    n_sub = len(rho.dims)
    t = rho.matrix.reshape(rho.dims + rho.dims)
    # Trace out the dropped subsystems from highest index down so that the
    # axis numbering stays valid after each contraction.
    removed = 0
    for s in sorted(set(range(n_sub)) - set(keep_idx), reverse=True):
        cur = n_sub - removed
        t = np.trace(t, axis1=s, axis2=s + cur)
        removed += 1
    new_dims = tuple(rho.dims[k] for k in keep_idx)
    n = int(np.prod(new_dims))
    return hermitian_matrix(t.reshape(n, n), new_dims)


def partial_transpose(rho, subsystem: int) -> np.ndarray:
    """Transpose one tensor factor of ``rho`` and return the raw matrix.

    The result is generally not positive semidefinite, so it is returned as
    a plain array rather than a :class:`DensityMatrix`.
    """
    s = _check_subsystem(rho.dims, subsystem)
    n_sub = len(rho.dims)
    t = rho.matrix.reshape(rho.dims + rho.dims)
    axes = list(range(2 * n_sub))
    axes[s], axes[s + n_sub] = axes[s + n_sub], axes[s]
    n = rho.dim
    return t.transpose(axes).reshape(n, n)


def jacobi_eigenvalues(m, tol: float = 1e-14, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix via cyclic complex Jacobi rotations.

    Sweeps annihilate one off-diagonal entry at a time until the Frobenius
    mass of the off-diagonal part falls below ``tol`` (relative to the
    matrix scale).  Unconditionally stable for the small dimensions used
    here; kept as a self-contained cross-check of the LAPACK path.
    """
    a = hermitian_part(m).copy()
    n = a.shape[0]
    if n == 1:
        return a.real.diagonal().copy()
    scale = max(1.0, float(np.linalg.norm(a)))
    for _ in range(max_sweeps):
        off = np.linalg.norm(a - np.diag(np.diagonal(a)))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = abs(a[p, q])
                if g <= 1e-300:
                    continue
                # Factor out the phase so the 2x2 pivot block is real.
                e = a[p, q] / g
                a[q, :] *= e
                a[:, q] *= np.conj(e)
                app, aqq = a[p, p].real, a[q, q].real
                theta = (aqq - app) / (2.0 * g)
                if theta >= 0:
                    t = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
                else:
                    t = -1.0 / (-theta + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        raise RuntimeError(f"Jacobi sweep did not converge in {max_sweeps} sweeps")
    return np.sort(a.diagonal().real)


def shannon_entropy(probs, tol: float = 1e-8) -> float:
    """Shannon entropy in bits of a probability vector.

    Entries in (-1e-10, 0) are clamped to zero; the vector must sum to 1
    within ``tol``.  The 0*log(0) branch returns 0 for entries at or below
    1e-15.
    """
    p = np.asarray(probs, dtype=np.float64).ravel()
    if np.any(p < -STATE_EIGENVALUE_TOL):
        raise NotPositive(f"negative probability {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > tol:
        raise ValueError(f"probabilities sum to {total}, not 1")
    mask = p > ENTROPY_EIGENVALUE_FLOOR
    h = float(-(p[mask] * np.log2(p[mask])).sum())
    return max(h, 0.0)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy of ``rho`` in bits."""
    lam = hermitian_eigenvalues(rho.matrix)
    if lam[0] < -STATE_EIGENVALUE_TOL:
        raise NotPositive(f"state has negative eigenvalue {lam[0]:.3e}")
    return shannon_entropy(lam, tol=1e-6)


def apply_local_pair(rho: DensityMatrix, op_a: np.ndarray, op_b: np.ndarray
                     ) -> tuple[DensityMatrix, float]:
    """Apply ``op_a (x) op_b`` to a bipartite state and post-select.

    Returns the renormalised state together with the success probability
    ``tr[(A (x) B) rho (A (x) B)^dag]``.  Raises :class:`DegenerateOutcome`
    when that probability falls below 1e-14, and :class:`DimMismatch` when
    operator shapes do not match the party dimensions.
    """
    if len(rho.dims) != 2:
        raise DimMismatch(f"expected a bipartite state, got dims {rho.dims}")
    a = np.asarray(op_a, dtype=np.complex128)
    b = np.asarray(op_b, dtype=np.complex128)
    if a.shape != (rho.dims[0], rho.dims[0]):
        raise DimMismatch(f"party-a operator {a.shape} vs dimension {rho.dims[0]}")
    if b.shape != (rho.dims[1], rho.dims[1]):
        raise DimMismatch(f"party-b operator {b.shape} vs dimension {rho.dims[1]}")
    op = kron(a, b)
    sigma = op @ rho.matrix @ op.conj().T
    p = float(np.trace(sigma).real)
    if p < SUCCESS_FLOOR:
        raise DegenerateOutcome(f"success probability {p:.3e} below {SUCCESS_FLOOR}")
    return DensityMatrix(sigma / p, rho.dims), p


def accelerate(rho: DensityMatrix, party: int, channel: ChannelKraus) -> DensityMatrix:
    """Apply the acceleration channel to one tensor factor of ``rho``.

    Trace-preserving: no renormalisation happens here.  The output dims
    equal the input dims with ``dims[party]`` replaced by the channel's
    output dimension.
    """
    if party < 0 or party >= len(rho.dims):
        raise DimMismatch(f"party {party} out of range for dims {rho.dims}")
    if rho.dims[party] != channel.in_dim:
        raise DimMismatch(
            f"party {party} has dimension {rho.dims[party]}, channel wants {channel.in_dim}"
        )
    eyes = [np.eye(d, dtype=np.complex128) for d in rho.dims]
    out = None
    for k in channel.kraus:
        factors = list(eyes)
        factors[party] = k
        full = kron(*factors)
        term = full @ rho.matrix @ full.conj().T
        out = term if out is None else out + term
    new_dims = tuple(
        channel.out_dim if i == party else d for i, d in enumerate(rho.dims)
    )
    return DensityMatrix(out, new_dims)


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
    return np.diag(filter_levels(kind, vals).astype(np.complex128))


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


@dataclass(frozen=True)
class ProtocolResult:
    """Final state plus the intermediate states and success probabilities."""

    final: DensityMatrix
    after_weak: DensityMatrix
    after_acceleration: DensityMatrix
    p_weak: float
    p_reverse: float

    @property
    def p_success(self) -> float:
        return self.p_weak * self.p_reverse


def run_protocol(initial: DensityMatrix, weak: MeasurementStrengths,
                 reverse: MeasurementStrengths, acc: AccelerationSpec
                 ) -> ProtocolResult:
    """Drive one parameter point through the full protocol.

    The weak filter acts on both parties of ``initial``; party 0 then
    passes through the acceleration channel (enlarging a qutrit party to
    dimension 4); finally both parties apply the reversing filter, which
    acts as identity on the pair level that only exists after acceleration.
    With tied strengths the weak step leaves any state on
    span{|01>, |10>} (the singlet among them) unchanged, with
    p_weak = 1 - alpha, so only the reversing filter shapes the output.

    Raises :class:`DegenerateOutcome` when either post-selection has
    numerically zero success probability.
    """
    if len(initial.dims) != 2:
        raise DimMismatch(f"protocol needs a bipartite state, got dims {initial.dims}")
    da, db = initial.dims
    if weak.kind != WEAK or reverse.kind != REVERSE:
        raise ValueError("strength kinds must be (weak, reverse)")
    if weak.dim != da or reverse.dim != da:
        raise DimMismatch(
            f"strengths are for dimension {weak.dim}/{reverse.dim}, state has {da}"
        )

    w_a = build_operator(WEAK, da, weak.party_a_levels)
    w_b = build_operator(WEAK, db, weak.party_b_levels)
    after_weak, p_weak = apply_local_pair(initial, w_a, w_b)

    chan = channel_for_dim(da, acc)
    after_acc = accelerate(after_weak, ACCELERATED_PARTY, chan)

    r_a = embed_diagonal(build_operator(REVERSE, da, reverse.party_a_levels),
                         chan.out_dim)
    r_b = build_operator(REVERSE, db, reverse.party_b_levels)
    final, p_rev = apply_local_pair(after_acc, r_a, r_b)
    return ProtocolResult(final, after_weak, after_acc, p_weak, p_rev)


def restrict_to_ladder(rho: DensityMatrix, renormalize: bool
                       ) -> tuple[DensityMatrix | HermitianMatrix, float]:
    """Restrict an accelerated 4 x 3 state to the pre-acceleration ladder.

    Drops party a's pair level, keeping the {vacuum, U, D} block.  Returns
    the 3 x 3-party state together with the weight retained.  With
    ``renormalize`` False the block is returned as-is, a
    :class:`HermitianMatrix` (trace < 1 possible); with True it is scaled
    back to unit trace and checked as a state.
    """
    if rho.dims != (4, 3):
        raise DimMismatch(f"expected dims (4, 3), got {rho.dims}")
    sel = np.zeros((3, 4), dtype=np.complex128)
    sel[0, 0] = sel[1, 1] = sel[2, 2] = 1.0
    op = kron(sel, np.eye(3, dtype=np.complex128))
    block = op @ rho.matrix @ op.conj().T
    weight = float(np.trace(block).real)
    if renormalize:
        if weight < LADDER_FLOOR:
            raise DegenerateOutcome(f"ladder sector weight {weight:.3e} is zero")
        return DensityMatrix(block / weight, (3, 3)), weight
    return hermitian_matrix(block, (3, 3)), weight


def negativity(rho: DensityMatrix, transpose_party: int = 0
               ) -> tuple[float, float]:
    """(raw, normalised) negativity of a bipartite state.

    Raw is the absolute sum of negative eigenvalues of the partial
    transpose; normalised divides twice that by d_min - 1.  Both are
    clamped at zero from below.  The choice of transposed party does not
    affect the spectrum.
    """
    lam = hermitian_eigenvalues(partial_transpose(rho, transpose_party))
    raw = float(-lam[lam < 0.0].sum())
    if raw < _NEG_CLAMP:
        raw = max(raw, 0.0)
    d_min = min(rho.dims)
    return raw, 2.0 * raw / (d_min - 1)


def local_information(rho: DensityMatrix, party: int) -> float:
    """Shannon entropy in bits of one party's populations."""
    reduced = partial_trace(rho, party)
    return shannon_entropy(reduced.matrix.diagonal().real)


def coherent_information(rho: DensityMatrix, variant: str = STANDARD) -> float:
    """Coherent information of the accelerated party, in bits.

    ``standard``: S(rho_b) - S(rho_ab) with b the inertial party (index 1).
    ``literal``: sum_i mu_i log2 mu_i over the joint spectrum, i.e. the
    negated joint entropy, following the published sign convention.
    """
    s_ab = von_neumann_entropy(rho)
    if variant == LITERAL:
        return -s_ab
    if variant == STANDARD:
        return von_neumann_entropy(partial_trace(rho, 1)) - s_ab
    raise ValueError(f"variant must be {STANDARD!r} or {LITERAL!r}, got {variant!r}")


@dataclass(frozen=True)
class MeasuresReport:
    """All scalar measures of one protocol run, in ``MEASURE_COLUMNS`` order."""

    negativity_raw: float
    entanglement_normalized: float
    info_accelerated_bits: float
    info_inertial_bits: float
    coherent_info_standard_bits: float
    coherent_info_literal_bits: float
    success_probability: float

    def __post_init__(self):
        check_ranges(self.entanglement_normalized, self.success_probability)


def compute_report(rho: DensityMatrix, success_probability: float
                   ) -> MeasuresReport:
    """Evaluate every measure on a final state."""
    raw, norm = negativity(rho, 0)
    s_ab = von_neumann_entropy(rho)
    marg_a = partial_trace(rho, 0)
    marg_b = partial_trace(rho, 1)
    return MeasuresReport(
        negativity_raw=raw,
        entanglement_normalized=norm,
        info_accelerated_bits=shannon_entropy(marg_a.matrix.diagonal().real),
        info_inertial_bits=shannon_entropy(marg_b.matrix.diagonal().real),
        coherent_info_standard_bits=von_neumann_entropy(marg_b) - s_ab,
        coherent_info_literal_bits=-s_ab,
        success_probability=success_probability,
    )


def _random_x_spec(rng: np.random.Generator) -> XStateSpec:
    # rejection-sample until the four dyadic eigenvalues are all nonnegative
    while True:
        c = rng.uniform(-1.0, 1.0, size=3)
        spec = XStateSpec(*c)
        if min(x_eigenvalues(*x_coefficients(c))) >= 1e-6:
            return spec


def _check_corrected_vs_pipeline(rng: np.random.Generator,
                                 samples: int) -> CheckResult:
    points = []
    for _ in range(samples):
        spec = _random_x_spec(rng)
        alphas = tuple(rng.uniform(0.0, 0.95, size=2))
        betas = tuple(rng.uniform(0.0, 0.95, size=2))
        r = rng.uniform(0.0, np.pi / 4)
        phi = rng.uniform(0.0, 2 * np.pi)
        weak = MeasurementStrengths(WEAK, (alphas[0],), (alphas[1],))
        reverse = MeasurementStrengths(REVERSE, (betas[0],), (betas[1],))
        points.append((spec, weak, reverse, AccelerationSpec(r, phi)))
    worst = 0.0
    worst_detail = ""
    size = validate.CHUNK_POINTS
    for start in range(0, len(points), size):
        chunk = points[start:start + size]
        rho0 = np.array([x_state(*spec).matrix for spec, *_ in chunk])
        kraus, weak, reverse = (np.array(a) for a in
                                zip(*(point_inputs(*point[1:]) for point in chunk)))
        out = propagate(rho0, (2, 2), kraus, weak, reverse)
        if len(out.kept) < len(chunk):
            raise DegenerateOutcome("a closed-form cross-check sample is degenerate")
        closed = np.array([corrected_final_qubit(*point).matrix for point in chunk])
        diffs = np.abs(closed - out.states).max(axis=(1, 2))
        i = int(np.argmax(diffs))     # the first maximum, as a strict > scan keeps it
        if diffs[i] > worst:
            spec, acc = chunk[i][0], chunk[i][3]
            worst = float(diffs[i])
            worst_detail = (f"worst at c=({spec.c11:.4f},{spec.c22:.4f},"
                            f"{spec.c33:.4f}) r={acc.r:.4f}")
    return CheckResult("corrected_closed_form_vs_pipeline", worst <= EQUIV_TOL,
                       worst, EQUIV_TOL, worst_detail)


def _check_literal_at_zero_acceleration(rng: np.random.Generator,
                                        samples: int) -> CheckResult:
    worst = 0.0
    for _ in range(samples):
        spec = _random_x_spec(rng)
        weak = tied(WEAK, rng.uniform(0.0, 0.9), 2)
        reverse = tied(REVERSE, rng.uniform(0.0, 0.9), 2)
        acc = AccelerationSpec(0.0)
        lit = literal_final_qubit(spec, weak, reverse, acc)
        cor = corrected_final_qubit(spec, weak, reverse, acc)
        worst = max(worst, float(np.max(np.abs(lit.matrix - cor.matrix))))
    return CheckResult("literal_equals_corrected_at_r0", worst <= ZERO_ACCEL_TOL,
                       worst, ZERO_ACCEL_TOL)


def _check_spectrum_formulas(rng: np.random.Generator,
                             samples: int) -> CheckResult:
    worst = 0.0
    for _ in range(samples):
        spec = _random_x_spec(rng)
        weak = MeasurementStrengths(WEAK, (rng.uniform(0, 0.9),),
                                    (rng.uniform(0, 0.9),))
        reverse = MeasurementStrengths(REVERSE, (rng.uniform(0, 0.9),),
                                       (rng.uniform(0, 0.9),))
        acc = AccelerationSpec(rng.uniform(0, np.pi / 4))
        coeffs = qubit_coefficients(spec, weak, reverse, acc)
        mus = np.sort(np.array(x_state_spectrum(coeffs.table)))
        direct = np.sort(hermitian_eigenvalues(coeffs.assemble().matrix))
        worst = max(worst, float(np.max(np.abs(mus - direct))))
    return CheckResult("x_state_spectrum_vs_eigensolver", worst <= SPECTRUM_TOL,
                       worst, SPECTRUM_TOL)


@dataclass(frozen=True)
class DiscrepancyReport:
    """Entrywise comparison of a closed-form state against the pipeline."""

    label: str
    max_abs_diff: float
    max_entry: tuple[int, int]
    trace_a: float
    trace_b: float
    min_eig_a: float
    min_eig_b: float
    entry_diffs: np.ndarray

    @property
    def trace_deficit(self) -> float:
        return abs(self.trace_a - self.trace_b)

    def to_text(self) -> str:
        i, j = self.max_entry
        return (
            f"{self.label}: max |diff| = {self.max_abs_diff:.6e} at entry "
            f"({i}, {j}); traces {self.trace_a:.12f} vs {self.trace_b:.12f} "
            f"(deficit {self.trace_deficit:.6e}); min eigenvalues "
            f"{self.min_eig_a:.3e} vs {self.min_eig_b:.3e}"
        )


def discrepancy_report(closed_form: DensityMatrix, pipeline: DensityMatrix,
                       label: str = "closed-form vs pipeline") -> DiscrepancyReport:
    """Compare two states of equal ambient dimension entry by entry;
    mismatched dimensions raise :class:`DimMismatch`."""
    if closed_form.matrix.shape != pipeline.matrix.shape:
        raise DimMismatch(f"shape {closed_form.matrix.shape} vs {pipeline.matrix.shape}")
    diff = np.abs(closed_form.matrix - pipeline.matrix)
    idx = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return DiscrepancyReport(
        label=label,
        max_abs_diff=float(diff[idx]),
        max_entry=(int(idx[0]), int(idx[1])),
        trace_a=float(np.trace(closed_form.matrix).real),
        trace_b=float(np.trace(pipeline.matrix).real),
        min_eig_a=float(hermitian_eigenvalues(closed_form.matrix)[0]),
        min_eig_b=float(hermitian_eigenvalues(pipeline.matrix)[0]),
        entry_diffs=diff,
    )


def _info_qutrit_literal() -> list[CheckResult]:
    """``validate``'s qutrit-literal entries as they were built on
    :class:`DensityMatrix` and :class:`HermitianMatrix` objects and
    :func:`discrepancy_report`: the engine's ladder block of the one point,
    restricted as it is and projected by a checked state, against the
    literal table's state."""
    config = SweepConfig(TWO_QUTRIT, ("qutrit:1",), (0.6,), (0.3,),
                         tie_policy=WEAK_REVERSE_SPLIT, beta=0.4)
    weak, reverse = config.strength_table()[0]
    lit = hermitian_matrix(assemble_qutrit(qutrit_table(1.0, weak, reverse, 0.6)), (3, 3))
    rho0 = config.parsed_states[0]
    out = propagate(rho0, rho0.dims, *grid_inputs(config))
    block = ladder_block(out.held, out.dims, 3).dense()[0]
    weight = float(np.trace(block).real)
    checks = []
    for sector, piped in (("restricted", hermitian_matrix(block, (3, 3))),
                          ("projected", DensityMatrix(block / weight, (3, 3)))):
        rep = discrepancy_report(lit, piped, label=f"qutrit_literal_{sector}")
        checks.append(CheckResult(f"qutrit_literal_vs_pipeline_{sector}", None,
                                  rep.max_abs_diff, detail=rep.to_text()
                                  + f"\nladder sector weight {weight:.6f}"))
    eigs = hermitian_eigenvalues(lit.matrix)
    return checks + [CheckResult("qutrit_literal_min_eigenvalue", None, float(eigs[0]),
                                 detail="negative values flag non-physical transcribed "
                                        "coefficients at this operating point")]


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell, quoted where ``csv.QUOTE_MINIMAL`` quotes."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def rows_to_csv_reference(measures: np.ndarray, config) -> str:
    """:func:`unruhlab.sweep.rows_to_csv` as it rendered one row at a time
    with ``%``, before the vectorised cell formatter replaced it."""
    n_points = len(config.initial_state) * len(config.r_grid) * len(config.strength_grid)
    if len(measures) != n_points:
        raise ValueError(f"{len(measures)} measure rows for a grid of {n_points} points")
    cols = (("state", "i_r", "i_s", "r") + config.strength_columns()
            + config.measures + ("degenerate",))
    r_cells = [f"{r:.17g}" for r in config.r_grid]
    table = config.strength_table()
    s_cells = [",".join(f"{v:.17g}" for v in row)
               for row in table.reshape(len(table), -1).tolist()]
    n_cols = len(config.measures)
    kept_fmt = ",".join(["%.17g"] * n_cols) + ",0\n"
    blank = "," * n_cols + "1\n"
    values = measures[:, [MEASURE_COLUMNS.index(m) for m in config.measures]].tolist()
    degenerate = np.isnan(measures).all(axis=1).tolist()
    rows = zip(values, degenerate)
    out = io.StringIO()
    out.write(",".join(cols) + "\n")
    for label in map(_csv_cell, config.initial_state):
        for i_r, r in enumerate(r_cells):
            for i_s, s in enumerate(s_cells):
                row, dead = next(rows)
                out.write(f"{label},{i_r},{i_s},{r},{s},")
                out.write(blank if dead else kept_fmt % tuple(row))
    return out.getvalue()
