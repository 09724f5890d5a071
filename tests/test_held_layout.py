"""Held stacks are entry-major, and ``Held.entries`` gathers from them.

``Held.entries`` is checked against two references: the gather through a
padded copy of the stack (``padded_entries`` in ``tests/oracle.py``), and
the dense matrices the stack holds.  The values must be equal bit for bit
and the strides those of the padded gather: numpy sums a contiguous run of
8 or more entries pairwise and a strided one in sequence, so the layout of
a gather fixes the order in which every later sum over it adds.  The
cases cover stacks of 0, 1 and 6,400 members, 1-D to 3-D values, both
fields, both layouts of the stack itself, and the empty support.

The final stacks of ``propagate_points`` are entry-major: each entry's
values over the stack are one contiguous row.  So are their spectra on a
qubit grid, which a comparator network sorts column by column; a qutrit
grid's spectra (12 values, or 9 in the ladder sector) are ``np.sort``'s
contiguous rows, and ``figure`` on a qubit preset sorts no spectrum with
``np.sort``.
"""

import sys

import numpy as np
import pytest

from oracle import padded_entries
from unruhlab import cli, pipeline, tensor
from unruhlab.channel import R_MAX, kraus_for_dim
from unruhlab.states import parse_state_preset
from unruhlab.sweep import TWO_QUBIT, TWO_QUTRIT, SweepConfig, grid_inputs
from unruhlab.tensor import DensityMatrix, Held

D = 4
SUPPORTS = {"some": [0, 1, 4, 5, 6, 9, 10, 15], "empty": [], "full": list(range(D * D))}
FLATS = [
    np.array([5, 0, 15, 10]),                   # held in "some"
    np.array([2, 3, 7]),                        # not held in "some"
    np.array([5, 5, 2, 0, 2]),                  # repeated, held and not
    np.array([[0, 3], [5, 5], [14, 9]]),        # 2-D
    np.arange(D * D),                           # the dense matrices
    np.arange(D) * (D + 1),                     # the diagonal
    np.array([], dtype=np.intp),
]
LEADS = [(), (0,), (1,), (6400,), (0, 4), (1, 1), (80, 80)]


def entry_major(values: np.ndarray) -> np.ndarray:
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(values, -1, 0)), 0, -1)


def is_entry_major(values: np.ndarray) -> bool:
    return np.moveaxis(values, -1, 0).flags.c_contiguous


@pytest.mark.parametrize("layout", [entry_major, np.ascontiguousarray],
                         ids=["entry-major", "member-major"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("support", SUPPORTS)
@pytest.mark.parametrize("lead", LEADS, ids=str)
def test_entries_match_the_padded_gather_and_the_dense_matrices(lead, support, dtype, layout):
    rng = np.random.default_rng(len(lead) * 100 + sum(lead))
    index = np.array(SUPPORTS[support], dtype=np.intp)
    dense = np.zeros(lead + (D * D,), dtype=dtype)
    dense[..., index] = rng.standard_normal(lead + (len(index),))
    if dtype == np.complex128:
        dense[..., index] += 1j * rng.standard_normal(lead + (len(index),))
    if dense.size:
        dense.reshape(-1, D * D)[0, index[:1]] = np.nan     # passes through as it is
    h = Held(layout(dense[..., index]), index, D)
    for flat in FLATS:
        got, want = h.entries(flat), padded_entries(h, flat)
        assert got.shape == want.shape == lead + flat.shape
        assert got.dtype == want.dtype == dtype
        assert got.strides == want.strides, flat
        assert got.tobytes() == want.tobytes() == dense[..., flat].tobytes(), flat
    assert h.dense().tobytes() == dense.tobytes()


def _complex(label: str) -> DensityMatrix:
    """``label``'s state under a diagonal phase on party b: complex entries."""
    rho0 = parse_state_preset(label)
    da, db = rho0.dims
    u = np.kron(np.eye(da), np.diag(np.exp(0.7j * np.arange(db))))
    return DensityMatrix(u @ rho0.matrix @ u.conj().T, rho0.dims)


R_GRID = (0.0, 0.3, R_MAX)


@pytest.mark.parametrize("label, complex_state, phi, r_grid, strengths", [
    ("singlet", False, 0.0, R_GRID, (0.0, 0.5, 1.0)),
    ("singlet", True, 0.0, R_GRID, (0.0, 0.5, 1.0)),
    ("qutrit:1", False, 0.0, R_GRID, (0.0, 0.5, 0.98)),
    ("qutrit:1", False, 0.7, R_GRID, (0.0, 0.5, 0.98)),
    ("qutrit:1", False, 0.7, (0.0,), (0.0, 0.5, 0.98)),
    ("qutrit:0.5", True, 0.0, R_GRID, (0.0, 1.0)),
], ids=["qubit", "qubit-complex", "qutrit", "qutrit-complex-channel",
        "qutrit-complex-channel-at-r-0", "qutrit-complex"])
@pytest.mark.parametrize("project", [False, True])
def test_propagate_points_returns_entry_major_stacks(label, complex_state, phi, r_grid,
                                                      strengths, project):
    # Rows drop on both paths that gather members: the singlet's weak rows
    # at strength 1 are degenerate (9 points, 6 kept), and qutrit:0.5's
    # reverse post-selection at strength 1 keeps 3 of 6.  The engine's own
    # channels carry no phase, so a complex channel is a phased Kraus stack
    # handed to prepare directly; it runs complex128 by its type, also at
    # r = 0, where its superoperator's imaginary parts are all zero.
    system = TWO_QUTRIT if label.startswith("qutrit") else TWO_QUBIT
    config = SweepConfig(system, (label,), r_grid, strengths)
    rho0 = _complex(label) if complex_state else config.parsed_states[0]
    kraus, *rest = grid_inputs(config)
    if phi:
        kraus = kraus_for_dim(3, config.r_grid, phi)
    grid = pipeline.prepare(rho0, rho0.dims, kraus, *rest)._replace(project=project)
    rows = np.arange(len(r_grid))
    out = pipeline.propagate_points(grid, rows, np.arange(len(strengths))[None])
    assert 0 < len(out.kept) <= len(rows) * len(strengths)
    assert out.held.dtype == (np.complex128 if complex_state or phi else np.float64)
    assert out.held.values.shape == (len(out.kept), len(out.held.index))
    assert is_entry_major(out.held.values)
    assert out.spectra.shape == (len(out.kept), out.held.dim)
    if system == TWO_QUBIT:
        assert is_entry_major(out.spectra)
    else:
        assert out.spectra.flags.c_contiguous


@pytest.mark.parametrize("preset, sorts", [("fig1a", []), ("fig6b", [(9,), (243, 12), (243, 12)])])
def test_qubit_figures_sort_no_spectrum_with_np_sort(monkeypatch, tmp_path, preset, sorts):
    # The np.sort calls made from held_eigenvalues itself: none on a qubit
    # grid; on fig6b's, one for the parsed 9 x 9 state and one each for the
    # 243-point exit check and partial transposes (12 values), whose 3-value
    # marginals a network sorts.
    calls, sort = [], np.sort

    def spy(a, *args, **kwargs):
        if sys._getframe(1).f_code is tensor.held_eigenvalues.__code__:
            calls.append(np.shape(a))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", spy)
    assert cli.main(["figure", preset, "--out-dir", str(tmp_path)]) == 0
    assert calls == sorts
