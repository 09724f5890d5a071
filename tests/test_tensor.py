"""Tensor-core tests: every nontrivial routine is checked against an
independently coded oracle (index loops, characteristic-polynomial root
residuals, a hand-rolled determinant) before any library shortcut is
trusted."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    InvalidSubsystem,
    hermitian_eigenvalues,
    hermitian_part,
    jacobi_eigenvalues,
    kron,
    partial_trace,
    partial_transpose,
    shannon_entropy,
    von_neumann_entropy,
)
from unruhlab.errors import NonHermitian, NotPositive, NotSquare
from unruhlab.states import singlet
from unruhlab.tensor import DensityMatrix, check_held, hold

RNG_SEED = 91031
EIG_TOL = 1e-12
DET_RESIDUAL_TOL = 1e-9


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def random_state_matrix(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return m / np.trace(m).real


# ---------------------------------------------------------------- oracles

def kron_oracle(a, b):
    """Index-by-index Kronecker product."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=np.complex128)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(m, dims, keep):
    """Partial trace by explicit basis-vector sums."""
    keep = [keep] if isinstance(keep, int) else list(keep)
    drop = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    nk = int(np.prod(kept_dims))
    out = np.zeros((nk, nk), dtype=np.complex128)
    for ki in range(nk):
        for kj in range(nk):
            ii = np.unravel_index(ki, kept_dims)
            jj = np.unravel_index(kj, kept_dims)
            total = 0.0 + 0.0j
            nd = int(np.prod([dims[d] for d in drop])) if drop else 1
            for di in range(nd):
                dd = np.unravel_index(di, [dims[d] for d in drop]) if drop else ()
                row = [0] * len(dims)
                col = [0] * len(dims)
                for pos, k in enumerate(keep):
                    row[k] = ii[pos]
                    col[k] = jj[pos]
                for pos, d in enumerate(drop):
                    row[d] = dd[pos]
                    col[d] = dd[pos]
                total += m[np.ravel_multi_index(row, dims),
                           np.ravel_multi_index(col, dims)]
            out[ki, kj] = total
    return out


def det_oracle(m):
    """Determinant by Gaussian elimination with partial pivoting."""
    a = np.array(m, dtype=np.complex128)
    n = a.shape[0]
    det = 1.0 + 0.0j
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[p, k]) == 0.0:
            return 0.0 + 0.0j
        if p != k:
            a[[k, p]] = a[[p, k]]
            det = -det
        det *= a[k, k]
        a[k + 1:] -= np.outer(a[k + 1:, k] / a[k, k], a[k])
    return det


# ------------------------------------------------------------------- kron

def test_kron_matches_index_oracle():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(5):
        a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        assert np.allclose(kron(a, b), kron_oracle(a, b), atol=1e-14)


def test_kron_three_factor_associativity():
    rng = np.random.default_rng(RNG_SEED + 1)
    a, b, c = (random_hermitian(rng, d) for d in (2, 2, 3))
    assert np.allclose(kron(a, b, c), kron_oracle(kron_oracle(a, b), c), atol=1e-13)


def test_kron_needs_a_factor():
    with pytest.raises(ValueError):
        kron()


# ---------------------------------------------------------- density matrix

def test_density_matrix_accepts_valid_state():
    rng = np.random.default_rng(RNG_SEED + 2)
    rho = DensityMatrix(random_state_matrix(rng, 4), (2, 2))
    assert rho.dim == 4
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)


def test_checks_keep_the_field_of_their_input():
    # A real stack stays float64 through the checks; a complex one, even
    # with zero imaginary parts, stays complex128; DensityMatrix is complex.
    real = np.diag([1.0, 0.0, 0.0, 0.0])
    for m, dtype in ((real, np.float64), (real.astype(int), np.float64),
                     (real.astype(np.float32), np.float64), (real + 0j, np.complex128)):
        assert hermitian_part(m).dtype == dtype
        h, lam = check_held(hold(m[None]))
        assert h.dtype == dtype and lam.dtype == np.float64
    assert DensityMatrix(real, (2, 2)).matrix.dtype == np.complex128


def test_density_matrix_rejects_non_square():
    with pytest.raises(NotSquare):
        DensityMatrix(np.zeros((2, 3)), (2,))


def test_density_matrix_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4, (2, 3))


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=np.complex128)
    with pytest.raises(NonHermitian):
        DensityMatrix(m, (2,))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2), (2,))


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5]).astype(np.complex128)
    with pytest.raises(NotPositive):
        DensityMatrix(m, (2,))


def test_density_matrix_relaxed_mode_allows_subnormalized():
    rho = DensityMatrix(np.diag([0.3, 0.2]).astype(np.complex128), (2,), strict=False)
    assert rho.trace() == pytest.approx(0.5)


def test_density_matrix_array_is_frozen():
    rho = DensityMatrix(np.eye(2, dtype=np.complex128) / 2, (2,))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


def test_density_matrix_equality_is_identity():
    # Comparing the array fields raised ValueError (an array's truth value
    # is ambiguous), and hashing them TypeError (ndarray is unhashable).
    rho, other = singlet(), singlet()
    assert rho == rho and rho != other
    assert len({rho, other, rho}) == 2
    assert hash(rho) == hash(rho)
    assert {rho: "a"}[rho] == "a"


def test_density_matrix_rejects_nonfinite():
    m = np.diag([np.inf, 0.0]).astype(np.complex128)
    with pytest.raises(ValueError):
        DensityMatrix(m, (2,))


# ----------------------------------------------------------- partial trace

def test_partial_trace_matches_basis_oracle():
    rng = np.random.default_rng(RNG_SEED + 3)
    dims = (2, 3, 2)
    rho = DensityMatrix(random_state_matrix(rng, 12), dims)
    for keep in (0, 1, 2, (0, 1), (0, 2), (1, 2)):
        got = partial_trace(rho, keep).matrix
        want = partial_trace_oracle(rho.matrix, dims, keep)
        assert np.allclose(got, want, atol=1e-13)


def test_partial_trace_of_product_state_factorizes():
    rng = np.random.default_rng(RNG_SEED + 4)
    a = random_state_matrix(rng, 2)
    b = random_state_matrix(rng, 3)
    rho = DensityMatrix(kron(a, b), (2, 3))
    assert np.allclose(partial_trace(rho, 0).matrix, a, atol=1e-13)
    assert np.allclose(partial_trace(rho, 1).matrix, b, atol=1e-13)


def test_partial_trace_rejects_bad_keep():
    rho = DensityMatrix(np.eye(4, dtype=np.complex128) / 4, (2, 2))
    with pytest.raises(InvalidSubsystem):
        partial_trace(rho, 2)
    with pytest.raises(InvalidSubsystem):
        partial_trace(rho, (1, 0))
    with pytest.raises(InvalidSubsystem):
        partial_trace(rho, (0, 0))
    with pytest.raises(InvalidSubsystem):
        partial_trace(rho, ())


# ------------------------------------------------------- partial transpose

def test_partial_transpose_on_product_state():
    rng = np.random.default_rng(RNG_SEED + 5)
    a = random_state_matrix(rng, 2)
    b = random_state_matrix(rng, 3)
    rho = DensityMatrix(kron(a, b), (2, 3))
    assert np.allclose(partial_transpose(rho, 0), kron(a.T, b), atol=1e-14)
    assert np.allclose(partial_transpose(rho, 1), kron(a, b.T), atol=1e-14)


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(RNG_SEED + 6)
    rho = DensityMatrix(random_state_matrix(rng, 6), (2, 3))
    once = partial_transpose(rho, 1)
    twice = partial_transpose(DensityMatrix(once, (2, 3), strict=False), 1)
    assert np.allclose(twice, rho.matrix, atol=1e-14)


def test_partial_transpose_spectra_agree_across_parties():
    rng = np.random.default_rng(RNG_SEED + 7)
    rho = DensityMatrix(random_state_matrix(rng, 6), (2, 3))
    s0 = hermitian_eigenvalues(partial_transpose(rho, 0))
    s1 = hermitian_eigenvalues(partial_transpose(rho, 1))
    assert np.allclose(s0, s1, atol=1e-12)


# ------------------------------------------------------------- eigenvalues

def test_eigenvalues_satisfy_characteristic_polynomial():
    # det(M - lambda I) must vanish for each reported eigenvalue; the
    # determinant oracle is this file's own Gaussian elimination
    rng = np.random.default_rng(RNG_SEED + 8)
    for n in (2, 3, 4, 6):
        m = random_hermitian(rng, n)
        scale = np.max(np.abs(m)) ** n
        for lam in hermitian_eigenvalues(m):
            res = abs(det_oracle(m - lam * np.eye(n)))
            assert res <= DET_RESIDUAL_TOL * max(scale, 1.0)


def test_eigenvalues_ascending_and_trace_consistent():
    rng = np.random.default_rng(RNG_SEED + 9)
    m = random_hermitian(rng, 5)
    lam = hermitian_eigenvalues(m)
    assert np.all(np.diff(lam) >= -1e-13)
    assert np.sum(lam) == pytest.approx(np.trace(m).real, abs=1e-10)


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(NonHermitian):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_jacobi_agrees_with_lapack():
    rng = np.random.default_rng(RNG_SEED + 10)
    for n in (2, 3, 4, 8, 12):
        m = random_hermitian(rng, n)
        assert np.allclose(jacobi_eigenvalues(m), hermitian_eigenvalues(m),
                           atol=1e-10)


def test_jacobi_handles_diagonal_and_degenerate():
    m = np.diag([2.0, 2.0, -1.0]).astype(np.complex128)
    assert np.allclose(jacobi_eigenvalues(m), [-1.0, 2.0, 2.0], atol=1e-14)


def test_jacobi_known_two_by_two():
    # eigenvalues of [[0, i], [-i, 0]] are -1 and 1
    m = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    assert np.allclose(jacobi_eigenvalues(m), [-1.0, 1.0], atol=1e-14)


# ---------------------------------------------------------------- entropy

def test_shannon_entropy_known_values():
    assert shannon_entropy([1.0]) == 0.0
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-14)
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-14)
    assert shannon_entropy([1.0, 0.0]) == pytest.approx(0.0, abs=1e-14)


def test_shannon_entropy_tolerates_eigensolver_noise():
    assert shannon_entropy([1.0 + 5e-11, -5e-11]) == pytest.approx(0.0, abs=1e-8)


def test_shannon_entropy_rejects_genuinely_negative():
    with pytest.raises(NotPositive):
        shannon_entropy([1.2, -0.2])


def test_von_neumann_entropy_pure_and_mixed():
    pure = DensityMatrix(np.diag([1.0, 0.0]).astype(np.complex128), (2,))
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix(np.eye(4, dtype=np.complex128) / 4, (2, 2))
    assert von_neumann_entropy(mixed) == pytest.approx(2.0, abs=1e-12)


def test_von_neumann_entropy_basis_independent():
    rng = np.random.default_rng(RNG_SEED + 11)
    probs = np.array([0.6, 0.3, 0.1])
    h = random_hermitian(rng, 3)
    u = np.linalg.eigh(h)[1]
    rho = DensityMatrix(u @ np.diag(probs).astype(np.complex128) @ u.conj().T, (3,))
    assert von_neumann_entropy(rho) == pytest.approx(shannon_entropy(probs), abs=1e-12)


# ------------------------------------------------------ property coverage

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_partial_trace_preserves_trace_and_hermiticity(seed):
    rng = np.random.default_rng(seed)
    rho = DensityMatrix(random_state_matrix(rng, 6), (2, 3))
    for keep in (0, 1):
        red = partial_trace(rho, keep)
        assert red.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(red.matrix, red.matrix.conj().T, atol=1e-13)
        lam = hermitian_eigenvalues(red.matrix)
        assert lam[0] >= -1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_jacobi_property_random_hermitian(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    m = random_hermitian(rng, n)
    assert np.allclose(jacobi_eigenvalues(m), hermitian_eigenvalues(m), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_partial_transpose_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    rho = DensityMatrix(random_state_matrix(rng, 4), (2, 2))
    pt = partial_transpose(rho, 0)
    assert np.trace(pt).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(pt, pt.conj().T, atol=1e-13)
