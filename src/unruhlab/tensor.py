"""Density matrices, held stacks, and the checks every state passes through.

A stack of states is held as the entries of its support (:class:`Held`):
the values ``(n, k)`` of the k entries that may be nonzero, at ascending
flat indices into the d x d matrix.  Only this module reads those
indices.  The engine holds its stacks entry-major, each entry's values
over the stack one contiguous row, so that :meth:`Held.entries` gathers
an entry as one row copy rather than member by member.  The steps the
package takes on a held stack are entrywise: diagonal filters scale held
values (:meth:`Held.scaled`), a map on party a is one gathered
``(k_out, k_in)`` matrix, applied to a stack of held values by one
product (:func:`party_a_maps`), a trace sums held diagonal entries, the
ladder block and the partial transpose relabel the indices, and party
b's marginal sums held entries.  The checks and spectra keep
the field of their input: a real stack is checked and solved as float64,
in real arithmetic, any other as complex128.  :class:`DensityMatrix`
always holds complex128.  Each check is defined once, on held stacks
(:func:`check_held`); a matrix is checked by holding it by its own
support (:func:`hold`).  Spectra are solved block by block, along the
connected components of each stack's held support (:func:`held_eigenvalues`):
a 1 x 1, 2 x 2 or real 3 x 3 block in closed form, every other by
``numpy.linalg.eigvalsh``.  Which solver a block gets and which blocks a
stack splits into follow from the support and the field alone, and a
trace adds its entries in one fixed order, so a member's bits do not
depend on which other members share its stack.

Conventions
-----------
* Subsystem 0 is the leftmost (slowest-varying) tensor factor.
* Eigenvalues are always returned in ascending order, entry-major when
  there are at most 7 (:func:`held_eigenvalues`).
* Entropies are in bits (logarithm base 2).
"""

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NonHermitian, NotPositive, NotSquare

# Tolerances shared by the validation paths below.
HERMITICITY_TOL = 1e-8      # max |M - M^dag| entry allowed before symmetrising
STATE_HERMITICITY_TOL = 1e-10
STATE_TRACE_TOL = 1e-10
STATE_EIGENVALUE_TOL = 1e-10
ENTROPY_EIGENVALUE_FLOOR = 1e-15


class Held(NamedTuple):
    """A stack of ``dim`` x ``dim`` matrices held as the entries of a support.

    ``values[..., i]`` is each member's entry at flat index ``index[i]``
    (row * dim + column).  ``index`` ascends, holds the transpose of each
    entry it holds, and every entry it leaves out is zero in every member.
    The engine's stacks are entry-major (``np.moveaxis(values, -1, 0)`` is
    C-contiguous): an entry's values are one row, which a gather copies
    whole.  Any layout gives the same values and the same bits.
    """

    values: np.ndarray      # (..., k)
    index: np.ndarray       # (k,)
    dim: int

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def entries(self, flat) -> np.ndarray:
        """Each member's entries at the flat indices ``flat`` (any shape),
        zero where not held: shape ``values.shape[:-1] + flat.shape``.

        Each held entry asked for is one row of the entry-major stack,
        copied whole; the result is entry-major too, the layout numpy's
        ``values[..., i]`` gives, so a sum over it adds in that order."""
        lead = self.values.shape[:-1]
        pos = np.zeros(self.dim * self.dim, dtype=np.intp)     # row + 1; 0 where not held
        pos[self.index] = np.arange(1, len(self.index) + 1)
        rows = pos[flat]
        held = rows.nonzero()
        out = np.zeros(rows.shape + lead, dtype=self.values.dtype)
        out[held] = self.values.transpose((-1, *range(len(lead)))).take(rows[held] - 1, axis=0)
        n = rows.ndim
        return out.transpose((*range(n, n + len(lead)), *range(n)))

    def dense(self) -> np.ndarray:
        d = self.dim
        return self.entries(np.arange(d * d)).reshape(self.values.shape[:-1] + (d, d))

    def diagonal(self) -> np.ndarray:
        return self.entries(np.arange(self.dim) * (self.dim + 1))

    def trace(self) -> np.ndarray:
        """Each member's trace, its diagonal added in entry order, one add
        each, whatever the layout (``sum`` adds a contiguous row pairwise)."""
        d = self.diagonal()
        return functools.reduce(operator.add, d.transpose((-1, *range(d.ndim - 1))))

    def transposes(self) -> np.ndarray:
        """The flat index of each held entry's transpose."""
        rows, cols = np.divmod(self.index, self.dim)
        return cols * self.dim + rows

    def scaled(self, diagonals) -> "Held":
        """``D M D`` for diagonal matrices ``D`` given by ``diagonals`` ``(..., dim)``."""
        rows, cols = np.divmod(self.index, self.dim)
        return self._replace(values=(diagonals[..., rows] * self.values) * diagonals[..., cols])


def hold(m) -> Held:
    """A matrix or a stack of them (any leading axes) held by its own support:
    the union of the members' nonzero entries, closed under transposition.
    A real input is held as float64, any other as complex128."""
    m = np.asarray(m)
    m = m.astype(np.float64 if np.isrealobj(m) else np.complex128, copy=False)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSquare(f"expected square matrices, got shape {m.shape}")
    d = m.shape[-1]
    return nonzero_support(Held(m.reshape(m.shape[:-2] + (d * d,)), np.arange(d * d), d))


def _mask(flat, size: int) -> np.ndarray:
    """A boolean array over ``size`` flat positions, true at ``flat``."""
    mask = np.zeros(size, dtype=bool)
    mask[flat] = True
    return mask


def nonzero_support(h: Held) -> Held:
    """``h`` held by the entries nonzero in some member, and their transposes."""
    nz = (h.values != 0).any(axis=tuple(range(h.values.ndim - 1)))
    keep = nz | _mask(h.transposes()[nz], h.dim * h.dim)[h.index]
    return Held(h.values[..., keep], h.index[keep], h.dim)


def _hermitian(h: Held, tol: float) -> Held:
    """Hermitian parts of held matrices with finite entries that are
    Hermitian within ``tol``; raises ``ValueError`` or :class:`NonHermitian`."""
    if not np.isfinite(h.values).all():
        raise ValueError("matrix contains non-finite entries")
    vt = h.entries(h.transposes()).conj()
    asym = np.abs(h.values - vt)
    if (asym > tol).any():
        raise NonHermitian(f"matrix deviates from Hermiticity by {asym.max():.3e}")
    return h._replace(values=0.5 * (h.values + vt))


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
def _blocks(support: bytes, d: int) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """The blocks of a pattern (its bytes), memoised: a sweep's chunks share
    a few supports.  Returns the flat indices of every block's entries, all
    blocks of one size after another (:func:`blocks_of`), and (number, size)
    of each size's blocks."""
    blocks = blocks_of(np.frombuffer(support, dtype=bool).reshape(d, d))
    flat = np.concatenate([(idx[:, :, None] * d + idx[:, None, :]).ravel() for idx in blocks])
    flat.flags.writeable = False
    return flat, tuple(idx.shape for idx in blocks)


def _real_3x3_spectra(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues ``(..., 3)`` of real symmetric 3 x 3 blocks
    ``(..., 3, 3)``.

    With q = tr A / 3, p = ||A - qI||_F / sqrt 6 and C = (A - qI) / p
    (scaled before its determinant, so that p^3 never underflows), the
    roots of C are 2 cos((arccos r + 2 pi k) / 3), r = det C / 2 (Smith,
    Commun. ACM 4, 168, 1961).  Only the isolated root is taken from that
    form, the largest when r >= 0 and the smallest otherwise: it is at
    least sqrt 3 from the other two, where arccos is well conditioned.
    Its eigenvector is the largest cross product of two rows of C - mu I;
    the other two roots are those of C's 2 x 2 block on an orthonormal
    pair u, w orthogonal to it (Duff et al., J. Comput. Graph. Tech. 6,
    1, 2017), solved as :func:`_block_spectra` solves a 2 x 2 block
    (Kopp, Int. J. Mod. Phys. C 19, 523, 2008).  A = qI (p = 0) gives
    C = 0 and q three times.
    """
    a00, a11, a22 = a[..., 0, 0], a[..., 1, 1], a[..., 2, 2]
    a10, a20, a21 = a[..., 1, 0], a[..., 2, 0], a[..., 2, 1]
    q = (a00 + a11 + a22) / 3.0
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                 + 2.0 * (a10 * a10 + a20 * a20 + a21 * a21)) / 6.0)
    s = 1.0 / np.where(p > 0.0, p, 1.0)
    c00, c11, c22, c10, c20, c21 = b00 * s, b11 * s, b22 * s, a10 * s, a20 * s, a21 * s
    det = (c00 * (c11 * c22 - c21 * c21) - c10 * (c10 * c22 - c21 * c20)
           + c20 * (c10 * c21 - c11 * c20))
    r = np.clip(0.5 * det, -1.0, 1.0)
    top = r >= 0.0
    mu = 2.0 * np.cos(np.arccos(np.abs(r)) / 3.0)
    mu = np.where(top, mu, -mu)
    # Rows (d0, c10, c20), (c10, d1, c21), (c20, c21, d2) of C - mu I.
    d0, d1, d2 = c00 - mu, c11 - mu, c22 - mu
    x = (c10 * c21 - c20 * d1, c20 * c10 - d0 * c21, d0 * d1 - c10 * c10)
    nx = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    for y in ((c10 * d2 - c20 * c21, c20 * c20 - d0 * d2, d0 * c21 - c10 * c20),
              (d1 * d2 - c21 * c21, c21 * c20 - c10 * d2, c10 * c21 - d1 * c20)):
        ny = y[0] * y[0] + y[1] * y[1] + y[2] * y[2]
        larger = ny > nx
        x, nx = tuple(np.where(larger, yi, xi) for xi, yi in zip(x, y)), np.where(larger, ny, nx)
    norm = 1.0 / np.sqrt(nx)
    vx, vy, vz = x[0] * norm, x[1] * norm, x[2] * norm
    sign = np.where(vz >= 0.0, 1.0, -1.0)
    k = -1.0 / (sign + vz)
    kxy = vx * vy * k
    u = (1.0 + sign * vx * vx * k, sign * kxy, -sign * vx)
    w = (kxy, sign + vy * vy * k, -vy)

    def c_times(z):
        return (c00 * z[0] + c10 * z[1] + c20 * z[2], c10 * z[0] + c11 * z[1] + c21 * z[2],
                c20 * z[0] + c21 * z[1] + c22 * z[2])

    cu, cw = c_times(u), c_times(w)
    m11 = u[0] * cu[0] + u[1] * cu[1] + u[2] * cu[2]
    m12 = w[0] * cu[0] + w[1] * cu[1] + w[2] * cu[2]
    m22 = w[0] * cw[0] + w[1] * cw[1] + w[2] * cw[2]
    h, g = 0.5 * (m11 + m22), np.hypot(0.5 * (m11 - m22), m12)
    lo, hi = h - g, h + g
    mus = np.stack((np.where(top, lo, mu), np.where(top, hi, lo), np.where(top, mu, hi)), axis=-1)
    return q[..., None] + p[..., None] * mus


def _block_spectra(blocks: np.ndarray, size: int):
    """Ascending eigenvalues of Hermitian ``size`` x ``size`` blocks
    ``(..., size, size)``, as ``size`` columns ``(...)``, the k-th of each.

    A 1 x 1 block is its entry.  A 2 x 2 block with diagonal p, q and
    off-diagonal b has h -/+ hypot((p - q)/2, |b|), h = (p + q)/2, the
    spectrum of an X state's block (Yu and Eberly, Quantum Inf. Comput. 7,
    459, 2007).  A real 3 x 3 block is solved in closed form
    (:func:`_real_3x3_spectra`), however many share the stack.  Every other
    stack goes to ``numpy.linalg.eigvalsh``, looked up at call time.
    """
    if size == 1:
        return (blocks[..., 0, 0].real,)
    if size == 2:
        p, q = blocks[..., 0, 0].real, blocks[..., 1, 1].real
        h, g = 0.5 * (p + q), np.hypot(0.5 * (p - q), np.abs(blocks[..., 0, 1]))
        return h - g, h + g
    solve = _real_3x3_spectra if size == 3 and blocks.dtype == np.float64 else np.linalg.eigvalsh
    return np.moveaxis(solve(blocks), -1, 0)


# The most values a spectrum sorted by a network (and held entry-major) may
# hold: numpy adds a row of at most 7 values in sequence in either layout,
# but 8 or more contiguous values pairwise.
NETWORK_MAX_VALUES = 7


@functools.cache
def _sorting_network(n: int) -> tuple[tuple[int, int], ...]:
    """Batcher's odd-even merge sort of ``n`` values (AFIPS SJCC 32, 307,
    1968), its comparators ``(i, j)``, ``i < j``, in the order they apply:
    1, 3, 5, 9, 12 and 16 of them for n = 2 ... 7."""
    pairs, p = [], 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                pairs += [(i + j, i + j + k) for i in range(min(k, n - j - k))
                          if (i + j) // (2 * p) == (i + j + k) // (2 * p)]
            k //= 2
        p *= 2
    return tuple(pairs)


def held_eigenvalues(h: Held) -> np.ndarray:
    """Ascending eigenvalues of every member of a held Hermitian stack.

    The blocks are those of the held support ``h.index`` (:func:`blocks_of`),
    read off the index and never off the values: every entry outside them
    is zero in every member, so each spectrum is exactly the union of its
    blocks' spectra, and a member splits into the same blocks in any stack
    held by the same support.  The blocks of each size are solved together
    by :func:`_block_spectra`.  Up to ``NETWORK_MAX_VALUES`` values, d
    columns go through :func:`_sorting_network` and the result is entry-major,
    so a sum over it adds in the order a row adds in; a longer spectrum is
    sorted by ``np.sort``, member-major.  The values are the same: only a
    +0.0 and a -0.0 may trade places (no NaN passes :func:`_hermitian`).
    """
    d, lead = h.dim, h.values.shape[:-1]
    flat, shapes = _blocks(_mask(h.index, d * d).tobytes(), d)
    entries, cols, start = h.entries(flat), [], 0
    for n_s, s in shapes:
        blocks = entries[..., start:start + n_s * s * s].reshape(lead + (n_s, s, s))
        lam = _block_spectra(blocks, s)
        cols += [col[..., b] for b in range(n_s) for col in lam]
        start += n_s * s * s
    if d > NETWORK_MAX_VALUES:
        return np.sort(np.stack(cols, axis=-1), axis=-1)
    for i, j in _sorting_network(d):
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    lam = np.stack(cols)
    return lam.transpose((*range(1, lam.ndim), 0))


def check_held(h: Held) -> tuple[Held, np.ndarray]:
    """Strict density-matrix check of every member of a held stack.

    Finite entries (``ValueError``), Hermitian to 1e-10
    (:class:`NonHermitian`), unit trace to 1e-10 (``ValueError``), lowest
    eigenvalue at least -1e-10 (:class:`NotPositive`).  Returns the
    Hermitian parts and their ascending spectra, solved block by block
    and laid out by :func:`held_eigenvalues`, so positivity is checked on
    every whole member.
    """
    h = _hermitian(h, STATE_HERMITICITY_TOL)
    tr = h.trace()
    off = np.abs(tr - 1.0) > STATE_TRACE_TOL
    if np.any(off):
        raise ValueError(f"trace {tr[off][0]} is not 1 within {STATE_TRACE_TOL}")
    lam = held_eigenvalues(h)
    lo = lam[..., 0]
    if np.any(lo < -STATE_EIGENVALUE_TOL):
        raise NotPositive(f"negative eigenvalue {lo.min():.3e}")
    return h, lam


# ----------------------------------------- held states of two parties (a, b)

def _parties(index, dims) -> tuple[np.ndarray, ...]:
    """(a, b, a', b') of each flat index of entry |a b><a' b'| over ``dims``."""
    db = dims[1]
    row, col = np.divmod(index, dims[0] * db)
    return (*np.divmod(row, db), *np.divmod(col, db))


def party_a_maps(index, dims, superops) -> tuple[np.ndarray, np.ndarray]:
    """Liouville superoperators ``(..., dao^2, da^2)`` on party a, as maps
    ``(..., k_out, k_in)`` from the entries ``index`` of states over
    ``dims = (da, db)`` to the entries of their images over ``(dao, db)``,
    and those entries' ascending flat indices.

    The images' support is every entry that some held entry reaches through
    some nonzero superoperator entry; every entry it leaves out is a sum of
    products that each have an exact zero factor.
    """
    (da, db), dao = dims, math.isqrt(superops.shape[-2])
    a, b, a2, b2 = _parties(index, dims)
    pair_in = a * da + a2
    reach = (superops != 0).reshape((-1,) + superops.shape[-2:]).any(axis=0)
    pair_out, i = np.nonzero(reach[:, pair_in])
    out = np.flatnonzero(_mask((pair_out // dao * db + b[i]) * (dao * db)
                               + pair_out % dao * db + b2[i], (dao * db) ** 2))
    oa, ob, oa2, ob2 = _parties(out, (dao, db))
    same = (ob[:, None] == b) & (ob2[:, None] == b2)
    return np.where(same, superops[..., (oa * dao + oa2)[:, None], pair_in], 0), out


def ladder_block(h: Held, dims, levels: int) -> Held:
    """Block of party a's first ``levels`` levels of held states over ``dims``.

    On accelerated 4 x 3 qutrit states, ``levels = 3`` drops the pair level
    and keeps the pre-acceleration {vacuum, U, D} x 3 block, with its
    weight (trace) as it is.
    """
    a, b, a2, b2 = _parties(h.index, dims)
    keep = (a < levels) & (a2 < levels)
    dim = levels * dims[1]
    flat = (a * dims[1] + b) * dim + a2 * dims[1] + b2
    return Held(h.values[..., keep], flat[keep], dim)


def partial_transpose(h: Held, dims) -> Held:
    """Partial transposes on party a of held states over ``dims``."""
    a, b, a2, b2 = _parties(h.index, dims)
    flat = (a2 * dims[1] + b) * h.dim + a * dims[1] + b2
    order = np.argsort(flat)
    return Held(h.values[..., order], flat[order], h.dim)


def party_b_marginal(h: Held, dims) -> Held:
    """Party b's reduced states of held states over ``dims``: each entry the
    sum over party a's levels, in order."""
    (da, db), a = dims, np.arange(dims[0])
    pa, pb, pa2, pb2 = _parties(h.index, dims)
    out = np.flatnonzero(_mask((pb * db + pb2)[pa == pa2], db * db))
    b, b2 = (x[:, None] for x in np.divmod(out, db))
    return Held(h.entries((a * db + b) * (da * db) + a * db + b2).sum(axis=-1), out, db)


def shannon_entropy(p) -> np.ndarray:
    """Shannon entropies in bits of the probability vectors along the last axis.

    Takes the vectors as they are: the callers hand it the spectra and
    populations of states that :func:`check_held` has passed, so each
    entry is at least -4e-10 and each vector sums to 1 within 4e-10.  An
    entry at or below 1e-15, a small negative one included, adds 0.
    """
    p = np.asarray(p, dtype=np.float64)
    keep = p > ENTROPY_EIGENVALUE_FLOOR
    h = -np.where(keep, p * np.log2(np.where(keep, p, 1.0)), 0.0).sum(axis=-1)
    return np.where(h < 0.0, 0.0, h)    # max(h, 0.0), keeping the sign of a zero


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density operator on a tensor product of small subsystems.

    Equality is identity and instances hash by identity, so they can be
    compared and used as keys; two states with equal matrices are not equal.

    Parameters
    ----------
    matrix:
        Square complex matrix of dimension ``prod(dims)``.
    dims:
        Local dimension of each tensor factor, leftmost first.
    strict:
        When True (default) the constructor runs :func:`check_held`:
        Hermiticity to 1e-10, unit trace to 1e-10 and positivity down to
        -1e-10, raising :class:`NonHermitian` / :class:`NotPositive` /
        ``ValueError``; ``held`` keeps the checked state, which
        :func:`unruhlab.pipeline.prepare` runs without a second check.
        When False only shape and Hermiticity (to 1e-8) are enforced and
        the matrix is symmetrised (``held`` is None), for matrices that
        need not be normalised or positive.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    strict: bool = True
    held: Held | None = field(init=False, repr=False)

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
        held = check_held(hold(m))[0] if self.strict else None
        m = (_hermitian(hold(m), HERMITICITY_TOL) if held is None else held).dense()
        m.flags.writeable = False
        if held is not None:
            held.values.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "held", held)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)
