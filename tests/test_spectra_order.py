"""Spectra sorted by a comparator network, and the summation rule it relies on.

``held_eigenvalues`` solves a stack block by block, then sorts each
member's spectrum: by ``tensor._sorting_network`` over columns when it has
at most ``NETWORK_MAX_VALUES`` values, by ``np.sort`` otherwise.  Either
way the result must equal ``np.sort`` of the concatenated block spectra
exactly.  The cases cover every block structure a spectrum of at most 7
values takes in the engine (X states, diagonal states, marginals, a real
3 x 3 block beside a 1 x 1 one, complex stacks solved by ``eigvalsh``)
and random supports of 1 to 7 values, on stacks of 0, 1, 7, 243 and
6,400 members and a 2-D lead, with exact ties, exact zeros and members
whose whole block is zero.  Each network sorts every 0-1 input, so by
the 0-1 principle it sorts every input (Knuth, TAOCP vol. 3, 5.3.4).
"""

import functools
import itertools
import operator

import numpy as np
import pytest

from unruhlab import tensor
from unruhlab.tensor import NETWORK_MAX_VALUES, Held, held_eigenvalues

LEADS = [(0,), (1,), (7,), (243,), (6400,), (9, 27)]

# Blocks (lists of levels) of each structure, and the field of its values.
STRUCTURES = {
    "x-2-2": ([[0, 3], [1, 2]], np.float64),
    "x-2-1-1": ([[0, 3], [1], [2]], np.float64),
    "diagonal": ([[0], [1], [2], [3]], np.float64),
    "marginal-1-1": ([[0], [1]], np.float64),
    "marginal-2": ([[0, 1]], np.float64),
    "real-3-1": ([[0, 1, 3], [2]], np.float64),
    "complex-3-1": ([[0, 2, 3], [1]], np.complex128),
    "complex-4": ([[0, 1, 2, 3]], np.complex128),
    "complex-2-2": ([[0, 1], [2, 3]], np.complex128),
    "qutrit-marginal-3": ([[0, 1, 2]], np.float64),
    "five-3-2": ([[0, 2, 4], [1, 3]], np.float64),
    "six-2-2-1-1": ([[0, 5], [1, 4], [2], [3]], np.float64),
    "seven-3-2-1-1": ([[0, 3, 6], [1, 5], [2], [4]], np.float64),
    "seven-complex-4-3": ([[0, 2, 4, 6], [1, 3, 5]], np.complex128),
    "one": ([[0]], np.float64),
}


def held_stack(blocks, dtype, lead, seed) -> Held:
    """Hermitian matrices held by the support of ``blocks``: random entries,
    a third of them drawn from a few exact values (ties and zeros), and
    every fifth member with its first block all zero."""
    d = sum(map(len, blocks))
    pattern = np.zeros((d, d), dtype=bool)
    for block in blocks:
        pattern[np.ix_(block, block)] = True
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(lead + (d, d))
    if dtype == np.complex128:
        x = x + 1j * rng.standard_normal(lead + (d, d))
    ties = rng.random(lead + (d, d)) < 1 / 3
    x = np.where(ties, rng.choice([0.0, 0.5, -0.25, 1.0], size=lead + (d, d)), x)
    m = 0.5 * (x + np.swapaxes(x, -1, -2).conj())
    first = np.ix_(blocks[0], blocks[0])
    m.reshape((-1, d, d))[::5, first[0], first[1]] = 0.0
    index = np.flatnonzero(pattern)
    return Held(m.reshape(lead + (d * d,))[..., index], index, d)


def sorted_block_spectra(monkeypatch, h: Held) -> tuple[np.ndarray, np.ndarray]:
    """``held_eigenvalues(h)``, and ``np.sort`` of the block spectra it solved,
    concatenated in the order it solved them."""
    parts, solve = [], tensor._block_spectra

    def spy(blocks, size):
        lam = solve(blocks, size)     # size columns, the k-th eigenvalue of each block
        n = blocks.shape[-3] * size
        parts.append(np.stack(lam, axis=-1).reshape(blocks.shape[:-3] + (n,)))
        return lam

    with monkeypatch.context() as patch:
        patch.setattr(tensor, "_block_spectra", spy)
        lam = held_eigenvalues(h)
    return lam, np.sort(np.concatenate(parts, axis=-1), axis=-1)


@pytest.mark.parametrize("lead", LEADS, ids=str)
@pytest.mark.parametrize("structure", STRUCTURES)
def test_network_sort_equals_np_sort_of_the_block_spectra(monkeypatch, structure, lead):
    blocks, dtype = STRUCTURES[structure]
    h = held_stack(blocks, dtype, lead, seed=len(structure) * 1000 + sum(lead))
    lam, want = sorted_block_spectra(monkeypatch, h)
    assert lam.shape == want.shape == lead + (h.dim,)
    assert lam.dtype == np.float64
    assert np.array_equal(lam, want)
    assert np.moveaxis(lam, -1, 0).flags.c_contiguous


def test_a_single_matrix_is_sorted_too(monkeypatch):
    h = held_stack([[0, 3], [1, 2]], np.float64, (1,), seed=5)
    h = h._replace(values=h.values[0])
    lam, want = sorted_block_spectra(monkeypatch, h)
    assert lam.shape == (4,) and np.array_equal(lam, want)


@pytest.mark.parametrize("n", range(1, NETWORK_MAX_VALUES + 1))
def test_each_network_sorts_every_0_1_input(n):
    bits = np.array(list(itertools.product((0.0, 1.0), repeat=n))).reshape(-1, n)
    cols = list(bits.T)
    for i, j in tensor._sorting_network(n):
        assert 0 <= i < j < n
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    assert np.array_equal(np.stack(cols, axis=-1), np.sort(bits, axis=-1))
    assert len(tensor._sorting_network(n)) == (0, 1, 3, 5, 9, 12, 16)[n - 1]


def test_spectra_longer_than_the_networks_are_sorted_member_major(monkeypatch):
    blocks = [[0, 1, 2], [3, 4], [5, 6], [7], [8], [9], [10], [11]]
    h = held_stack(blocks, np.float64, (243,), seed=12)
    lam, want = sorted_block_spectra(monkeypatch, h)
    assert np.array_equal(lam, want) and lam.flags.c_contiguous


@pytest.mark.parametrize("n", range(1, NETWORK_MAX_VALUES + 2))
def test_numpy_adds_short_rows_in_sequence_in_either_layout(n):
    """numpy adds a row of at most 7 values one at a time, left to right,
    whether the row is contiguous or strided, and from 8 contiguous values
    on pairwise, in blocks.  An entry-major spectrum of at most 7 values
    therefore sums, column by column, to the bits its member-major rows
    sum to, and ``held_eigenvalues`` may hand it on in that layout.  From 8
    values on the two layouts add in different orders, so a longer spectrum
    (the 12 values of the accelerated qutrit, the 9 of its ladder sector)
    keeps ``np.sort``'s member-major rows: an entry-major one would move
    their last bits.  If numpy changes the rule, this fails here, before
    any output does.
    """
    rng = np.random.default_rng(n)
    x = rng.standard_normal((200_000, n)) * np.exp(rng.uniform(-20.0, 20.0, (200_000, n)))
    rows = np.ascontiguousarray(x)
    cols = np.ascontiguousarray(x.T)
    in_sequence = functools.reduce(operator.add, cols)
    assert np.array_equal(cols.T.sum(-1), in_sequence)
    if n <= NETWORK_MAX_VALUES:
        assert np.array_equal(rows.sum(-1), in_sequence)
    else:
        assert not np.array_equal(rows.sum(-1), in_sequence)
