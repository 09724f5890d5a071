"""Density matrices and the batched checks every state passes through.

Everything here works on explicit ``numpy`` arrays; the systems treated by
this package never exceed dimension 16, so dense algorithms are both exact
enough and fast enough.  The checks and spectra keep the field of their
input: a real stack is checked and solved as float64, in real arithmetic,
any other as complex128.  :class:`DensityMatrix` always holds
complex128; the pipeline passes float64 stacks when its inputs are exactly
real.  The checks below take one matrix or a stack of them (any leading
axes) and each is defined once: :class:`DensityMatrix` runs them on the
states that enter the package, :mod:`unruhlab.pipeline` on the stacks it
takes and returns.  Spectra are solved block by block, along the connected
components of each stack's own support (:func:`block_eigenvalues`); a 2 x 2
block in closed form.

Conventions
-----------
* Subsystem 0 is the leftmost (slowest-varying) tensor factor.
* Eigenvalues are always returned in ascending order.
* Entropies are in bits (logarithm base 2).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NonHermitian, NotPositive, NotSquare

# Tolerances shared by the validation paths below.
HERMITICITY_TOL = 1e-8      # max |M - M^dag| entry allowed before symmetrising
STATE_HERMITICITY_TOL = 1e-10
STATE_TRACE_TOL = 1e-10
STATE_EIGENVALUE_TOL = 1e-10
ENTROPY_EIGENVALUE_FLOOR = 1e-15


def hermitian_part(m, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Hermitian parts of finite square matrices that are Hermitian within ``tol``.

    Raises :class:`NotSquare`, ``ValueError`` on non-finite entries and
    :class:`NonHermitian` when any entry of ``M - M^dag`` exceeds ``tol``.
    A real input gives a float64 result, any other a complex128 one.
    """
    m = np.asarray(m)
    m = m.astype(np.float64 if np.isrealobj(m) else np.complex128, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSquare(f"expected square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    md = m.conj().swapaxes(-1, -2)
    asym = np.abs(m - md).max(axis=(-2, -1), initial=0.0)
    if np.any(asym > tol):
        raise NonHermitian(f"matrix deviates from Hermiticity by {asym.max():.3e}")
    return 0.5 * (m + md)


def blocks_of(pattern) -> tuple[np.ndarray, ...]:
    """Blocks of a ``(d, d)`` boolean support pattern: the connected components
    of the graph whose edges are its entries, as one ``(n_s, s)`` index array
    per block size s, ascending."""
    p = np.asarray(pattern, dtype=bool)
    reach = (p | p.T | np.eye(len(p), dtype=bool)).astype(np.int64)
    for _ in range(len(p).bit_length()):        # paths of up to 2^k steps after k passes
        reach = np.minimum(reach @ reach, 1)
    comps = sorted({tuple(np.flatnonzero(row)) for row in reach})
    sizes = sorted({len(c) for c in comps})
    return tuple(np.array([c for c in comps if len(c) == s]) for s in sizes)


@functools.lru_cache(maxsize=1024)
def _blocks(support: bytes, d: int) -> tuple[np.ndarray, ...]:
    """:func:`blocks_of`, memoised on the pattern's bytes: a sweep's chunks
    share a few supports."""
    return blocks_of(np.frombuffer(support, dtype=bool).reshape(d, d))


def _block_spectra(blocks: np.ndarray, size: int) -> np.ndarray:
    """Ascending eigenvalues ``(..., size)`` of Hermitian ``size`` x ``size``
    blocks ``(..., size, size)``.

    A 1 x 1 block is its entry.  A 2 x 2 block with diagonal p, q and
    off-diagonal b has h -/+ hypot((p - q)/2, |b|), h = (p + q)/2, the
    spectrum of an X state's block (Yu and Eberly, Quantum Inf. Comput. 7,
    459, 2007).  Larger blocks go to ``numpy.linalg.eigvalsh``, looked up
    at call time.
    """
    if size == 1:
        return blocks[..., 0].real
    if size == 2:
        p, q = blocks[..., 0, 0].real, blocks[..., 1, 1].real
        h, g = 0.5 * (p + q), np.hypot(0.5 * (p - q), np.abs(blocks[..., 0, 1]))
        return np.stack((h - g, h + g), axis=-1)
    return np.linalg.eigvalsh(blocks)


def block_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or of every member of a stack.

    The blocks are those of the union of the members' supports
    (:func:`blocks_of`): every entry outside them is zero in every member, so
    each spectrum is exactly the union of its blocks' spectra.  The blocks
    of each size are solved together by :func:`_block_spectra`.
    """
    m = np.asarray(m)
    support = (m != 0).reshape((-1,) + m.shape[-2:]).any(axis=0)
    parts = [_block_spectra(m[..., idx[:, :, None], idx[:, None, :]], idx.shape[1])
             .reshape(m.shape[:-2] + (idx.size,))
             for idx in _blocks(support.tobytes(), len(support))]
    return np.sort(np.concatenate(parts, axis=-1), axis=-1)


def check_states(m) -> tuple[np.ndarray, np.ndarray]:
    """Strict density-matrix check of a matrix or of every member of a stack.

    Finite entries (``ValueError``), Hermitian to 1e-10
    (:class:`NonHermitian`), unit trace to 1e-10 (``ValueError``), lowest
    eigenvalue at least -1e-10 (:class:`NotPositive`).  Returns the
    Hermitian parts and their ascending spectra, solved block by block
    along the stack's own support (:func:`block_eigenvalues`), so
    positivity is checked on every whole member.
    """
    h = hermitian_part(m, STATE_HERMITICITY_TOL)
    tr = np.trace(h, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > STATE_TRACE_TOL
    if np.any(off):
        raise ValueError(f"trace {tr[off][0]} is not 1 within {STATE_TRACE_TOL}")
    lam = block_eigenvalues(h)
    lo = lam[..., 0]
    if np.any(lo < -STATE_EIGENVALUE_TOL):
        raise NotPositive(f"negative eigenvalue {lo.min():.3e}")
    return h, lam


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or of a stack of them.

    The input is symmetrised after a Hermiticity check at tolerance 1e-8;
    deviations beyond that raise :class:`NonHermitian`.  Dimensions in this
    package never exceed 16, for which the LAPACK solver behind
    ``numpy.linalg.eigvalsh`` is exact to machine precision; the tests
    cross-check it against an independent Jacobi eigensolver.
    """
    return np.linalg.eigvalsh(hermitian_part(m))


def shannon_entropy(p, tol: float = 1e-8) -> np.ndarray:
    """Shannon entropies in bits of the probability vectors along the last axis.

    Entries in (-1e-10, 0) are clamped to zero; each vector must sum to 1
    within ``tol``.  The 0*log(0) branch returns 0 for entries at or below
    1e-15.
    """
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < -STATE_EIGENVALUE_TOL):
        raise NotPositive(f"negative probability {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1)
    off = np.abs(total - 1.0) > tol
    if np.any(off):
        raise ValueError(f"probabilities sum to {total[off][0]}, not 1")
    keep = p > ENTROPY_EIGENVALUE_FLOOR
    h = -np.where(keep, p * np.log2(np.where(keep, p, 1.0)), 0.0).sum(axis=-1)
    return np.where(h < 0.0, 0.0, h)    # max(h, 0.0), keeping the sign of a zero


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator on a tensor product of small subsystems.

    Parameters
    ----------
    matrix:
        Square complex matrix of dimension ``prod(dims)``.
    dims:
        Local dimension of each tensor factor, leftmost first.
    strict:
        When True (default) the constructor runs :func:`check_states`:
        Hermiticity to 1e-10, unit trace to 1e-10 and positivity down to
        -1e-10, raising :class:`NonHermitian` / :class:`NotPositive` /
        ``ValueError``.  When False only shape and Hermiticity (to 1e-8)
        are enforced; used for closed-form states assembled verbatim from
        published coefficient tables, which are not always normalised.
    flags:
        Free-form markers (e.g. ``("literal",)``) carried along for
        reporting; no behavioural effect.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    strict: bool = True
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotSquare(f"expected a square matrix, got shape {m.shape}")
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"bad subsystem dimensions {dims}")
        n = int(np.prod(dims))
        if m.shape != (n, n):
            raise ValueError(f"matrix is {m.shape} but dims {dims} require ({n}, {n})")
        m = check_states(m)[0] if self.strict else hermitian_part(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "flags", tuple(self.flags))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)
