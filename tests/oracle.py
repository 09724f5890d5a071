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
turn against index-arithmetic, Stinespring and Jacobi oracles.

The three ``_check_*`` functions at the end are ``validate``'s sampled
checks as they ran one sample at a time, on the scalar closed forms and
per-sample state, strength, channel and acceleration objects; the tests
compare the batched checks in :mod:`unruhlab.validate` against them.
"""

from dataclasses import dataclass

import numpy as np

from unruhlab.channel import AccelerationSpec, ChannelKraus, channel_for_dim
from unruhlab.closedform import (corrected_final_qubit, literal_final_qubit, qubit_coefficients,
                                 x_state_spectrum)
from unruhlab.errors import BadArity, DegenerateOutcome, DimMismatch, NotPositive, UnruhLabError
from unruhlab.localops import (REVERSE, SUCCESS_FLOOR, WEAK, MeasurementStrengths, filter_levels,
                               tied)
from unruhlab.measures import check_ranges
from unruhlab.pipeline import LADDER_FLOOR, chunk_points, point_inputs, propagate
from unruhlab.states import XStateSpec, make_x_state
from unruhlab.tensor import (ENTROPY_EIGENVALUE_FLOOR, STATE_EIGENVALUE_TOL, DensityMatrix,
                             hermitian_eigenvalues, hermitian_part)
from unruhlab.validate import EQUIV_TOL, SPECTRUM_TOL, ZERO_ACCEL_TOL, CheckResult

ACCELERATED_PARTY = 0
STANDARD = "standard"
LITERAL = "literal"
_NEG_CLAMP = 1e-12


class InvalidSubsystem(UnruhLabError):
    """Subsystem index is out of range for the given dimension list."""


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


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep``.

    Parameters
    ----------
    rho:
        State over ``rho.dims``.
    keep:
        Subsystem index or iterable of indices to retain, in their original
        order.

    Returns
    -------
    DensityMatrix over the kept subsystems.  Hermiticity, unit trace and
    positivity of a partial trace follow from the input's, so the result
    is built without re-running the strict checks.
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
    return DensityMatrix(t.reshape(n, n), new_dims, strict=False, flags=rho.flags)


def partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
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
                       ) -> tuple[DensityMatrix, float]:
    """Restrict an accelerated 4 x 3 state to the pre-acceleration ladder.

    Drops party a's pair level, keeping the {vacuum, U, D} block.  Returns
    the 3 x 3-party state together with the weight retained.  With
    ``renormalize`` False the block is returned as-is (trace < 1 possible,
    state flagged non-strict); with True it is scaled back to unit trace.
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
    return DensityMatrix(block, (3, 3), strict=False, flags=("sector",)), weight


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
        if min(spec.eigenvalues()) >= 1e-6:
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
    size = chunk_points(4)
    for start in range(0, len(points), size):
        chunk = points[start:start + size]
        rho0 = np.array([make_x_state(spec).matrix for spec, *_ in chunk])
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
        mus = np.sort(np.array(x_state_spectrum(coeffs)))
        direct = np.sort(hermitian_eigenvalues(coeffs.assemble().matrix))
        worst = max(worst, float(np.max(np.abs(mus - direct))))
    return CheckResult("x_state_spectrum_vs_eigensolver", worst <= SPECTRUM_TOL,
                       worst, SPECTRUM_TOL)
