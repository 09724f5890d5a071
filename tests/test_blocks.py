"""Block spectra against the full eigensolver.

Every state check and measure eigensolves a stack block by block, along the
connected components of the union of its members' supports.  Block spectra
must equal a full ``numpy.linalg.eigvalsh`` to 1e-14 on the final states,
their partial transposes and their marginals; a stack of r = 0 points may
split into smaller blocks; an entry, however small, joins the blocks it
couples; a stack that every post-selection emptied must pass through as
an empty stack; and the closed form of a 2 x 2 block must match
``eigvalsh`` to 1e-14 on ties, zero coupling, rank-one blocks and entries
near 1e-300 and near 1.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from unruhlab import pipeline, sweep, tensor
from unruhlab.channel import R_MAX, AccelerationSpec, kraus_for_dim
from unruhlab.localops import REVERSE, WEAK, MeasurementStrengths, tied
from unruhlab.measures import MEASURE_COLUMNS, measure_columns
from unruhlab.states import (QutritStateSpec, XStateSpec, make_qutrit_state, make_x_state,
                             parse_state_preset, x_coefficients, x_eigenvalues)
from unruhlab.sweep import (FIGURE_PRESETS, FULL_SECTOR, PROJECTED_SECTOR, SweepConfig,
                            figure_preset, run_sweep)
from unruhlab.tensor import block_eigenvalues, blocks_of, check_states

TOL = 1e-14


def partial_transposes(out) -> np.ndarray:
    d0, db = out.dims
    t = out.states.reshape(-1, d0, db, d0, db).transpose(0, 3, 2, 1, 4)
    return t.reshape(-1, d0 * db, d0 * db)


def assert_matches_full(lam, m):
    assert np.abs(lam - np.linalg.eigvalsh(m)).max(initial=0.0) <= TOL


def assert_block_spectra_match(out):
    assert_matches_full(out.spectra, out.states)
    pt = partial_transposes(out)
    assert_matches_full(block_eigenvalues(pt), pt)
    d0, db = out.dims
    marginal = np.trace(out.states.reshape(-1, d0, db, d0, db), axis1=1, axis2=3)
    assert_matches_full(block_eigenvalues(marginal), marginal)


def solved_sizes(monkeypatch, m) -> list[int]:
    """Sizes of the blocks ``block_eigenvalues`` solves a stack in, largest
    first, from the blocks it passes to the per-block solver
    ``tensor._block_spectra`` (shape ``(n, n_s, s, s)``: ``n_s`` blocks of
    size ``s`` per member).  Also checks that the blocks cover the diagonal,
    that exactly the blocks of size 3 or more reach ``eigvalsh``, and the
    spectra against the full solve."""
    sizes, solved, block_spectra, eigvalsh = [], [], tensor._block_spectra, np.linalg.eigvalsh

    def spy(blocks, size):
        assert blocks.shape[-2:] == (size, size)
        sizes.extend([size] * blocks.shape[-3])
        return block_spectra(blocks, size)

    def eigvalsh_spy(a):
        solved.extend([a.shape[-1]] * a.shape[-3])
        return eigvalsh(a)

    with monkeypatch.context() as patch:
        patch.setattr(tensor, "_block_spectra", spy)
        patch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
        lam = block_eigenvalues(m)
    assert_matches_full(lam, m)
    assert sum(sizes) == m.shape[-1]
    assert sorted(solved) == sorted(s for s in sizes if s >= 3)
    return sorted(sizes, reverse=True)


# Presets that share a config (fig1a, fig3a, fig3b; fig2a, fig5a, fig5b) run once.
_DISTINCT_PRESETS = sorted({figure_preset(name): name for name in FIGURE_PRESETS}.values())


@pytest.mark.parametrize("name", _DISTINCT_PRESETS)
def test_preset_block_spectra_match_the_full_eigensolver(monkeypatch, name):
    kept = []

    def checking(out):
        assert_block_spectra_match(out)
        kept.append(len(out.kept))
        return measure_columns(out)

    monkeypatch.setattr(sweep, "measure_columns", checking)
    measures = run_sweep(figure_preset(name))
    assert sum(kept) == np.count_nonzero(~np.isnan(measures).all(axis=1)) > 0


@st.composite
def points(draw):
    """One point of either system: an ``x:`` state in the PSD region or a
    qutrit state, its Kraus stack and filter diagonals, and the sector."""
    unit = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    dim = draw(st.sampled_from([2, 3]))
    if dim == 2:
        c = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
        assume(min(x_eigenvalues(*x_coefficients(c))) >= 0.0)
        rho0 = make_x_state(XStateSpec(*c))
    else:
        rho0 = make_qutrit_state(QutritStateSpec(draw(st.sampled_from([0.0, 1.0])
                                                      | st.floats(-3.0, 3.0))))
    levels = st.tuples(*[unit] * (dim - 1))
    weak = MeasurementStrengths(WEAK, draw(levels), draw(levels))
    reverse = MeasurementStrengths(REVERSE, draw(levels), draw(levels))
    acc = AccelerationSpec(draw(st.sampled_from([0.0, R_MAX]) | st.floats(0.0, R_MAX)),
                           draw(st.floats(-2 * np.pi, 2 * np.pi)))
    project = dim == 3 and draw(st.booleans())
    return rho0, pipeline.point_inputs(weak, reverse, acc), project


@settings(max_examples=100, deadline=None)
@given(point=points())
def test_drawn_point_block_spectra_match_the_full_eigensolver(point):
    rho0, (kraus, w, v), project = point
    out = pipeline.propagate(rho0.matrix, rho0.dims, kraus[None], w[None], v[None], project)
    assert_block_spectra_match(out)


def _stacks(label: str, r, project: bool) -> tuple[np.ndarray, np.ndarray]:
    """Final states of ``label`` at each angle of ``r``, unfiltered, as one
    stack, and their partial transposes."""
    rho0 = parse_state_preset(label)
    da, db = rho0.dims
    kraus = kraus_for_dim(da, np.asarray(r), 0.4)
    grid = pipeline.prepare(rho0.matrix, rho0.dims, kraus, np.ones((1, da * db)),
                            np.ones((1, kraus.shape[-2] * db)), project)
    out = pipeline.propagate_points(grid, np.arange(len(kraus)), np.zeros(len(kraus), int))
    assert len(out.kept) == len(kraus)
    return out.states, partial_transposes(out)


@pytest.mark.parametrize("label, project, sizes, transpose_sizes", [
    ("singlet", False, [2, 1, 1], [2, 1, 1]),
    ("werner:0.7", False, [2, 1, 1], [2, 1, 1]),
    ("x:-0.5,-0.2,0.3", False, [2, 2], [2, 2]),
    ("qutrit:1", False, [3, 2, 2, 1, 1, 1, 1, 1], [3, 2, 2, 1, 1, 1, 1, 1]),
    ("qutrit:0.5", True, [3, 1, 1, 1, 1, 1, 1], [2, 2, 2, 1, 1, 1]),
])
def test_pattern_is_the_same_with_and_without_r_zero(monkeypatch, label, project, sizes,
                                                     transpose_sizes):
    # sin 0 = 0 zeroes Kraus entries at r = 0.  A stack that mixes r = 0 with
    # interior angles has the interior blocks; a stack of r = 0 alone may
    # split into smaller ones.  Every stack's spectra match the full solve.
    inner = np.linspace(0.0, R_MAX, 9)[1:]
    for r in (inner, np.concatenate(([0.0], inner))):
        states, transposes = _stacks(label, r, project)
        assert solved_sizes(monkeypatch, states) == sizes
        assert solved_sizes(monkeypatch, transposes) == transpose_sizes
    states, transposes = _stacks(label, [0.0], project)
    zero = solved_sizes(monkeypatch, states), solved_sizes(monkeypatch, transposes)
    if (label, project) == ("qutrit:1", False):
        # The unaccelerated pure state and its partial transpose: 1 + 3
        # blocks larger than 1 x 1 a member, not 3 + 3.
        assert zero == ([3] + [1] * 9, [2, 2, 2] + [1] * 6)
    else:
        assert zero == (sizes, transpose_sizes)


def test_an_entry_off_the_pattern_joins_its_block(monkeypatch):
    rho0 = parse_state_preset("qutrit:1")
    kraus, w, v = pipeline.point_inputs(tied(WEAK, 0.3, 3), tied(REVERSE, 0.4, 3),
                                        AccelerationSpec(0.6))
    grid = pipeline.prepare(rho0.matrix, rho0.dims, kraus[None], w[None], v[None])
    one = np.arange(1)
    out = pipeline.propagate_points(grid, one, one)
    assert solved_sizes(monkeypatch, out.states) == [3, 2, 2, 1, 1, 1, 1, 1]
    groups = blocks_of(out.states[0] != 0)
    i, j = groups[-1][0, 0], groups[0][0, 0]        # in the 3 x 3 block and a 1 x 1 one
    bad = out.states.copy()
    bad[0, i, j] = bad[0, j, i] = 1e-300
    assert solved_sizes(monkeypatch, bad) == [4, 2, 2, 1, 1, 1, 1]
    assert_matches_full(check_states(bad)[1], bad)
    np.testing.assert_allclose(measure_columns(out._replace(states=bad)),
                               measure_columns(out), rtol=0, atol=TOL)

    accelerate = pipeline._accelerate

    def leaking(channels, states, dims):
        t = accelerate(channels, states, dims)
        t[:, i, j] += 1e-300
        t[:, j, i] += 1e-300
        return t

    monkeypatch.setattr(pipeline, "_accelerate", leaking)
    leaked = pipeline.propagate_points(grid, one, one)
    assert leaked.states[0, i, j] != 0
    assert_block_spectra_match(leaked)
    assert solved_sizes(monkeypatch, leaked.states) == [4, 2, 2, 1, 1, 1, 1]


def test_members_with_different_supports_solve_along_their_union(monkeypatch):
    # The singlet fills one 2 x 2 block of the X pattern, an x: state both.
    stack = np.array([parse_state_preset(s).matrix for s in ("singlet", "x:-0.5,-0.2,0.3")])
    assert solved_sizes(monkeypatch, stack[:1]) == [2, 1, 1]
    assert solved_sizes(monkeypatch, stack[1:]) == [2, 2]
    assert solved_sizes(monkeypatch, stack) == [2, 2]
    assert_matches_full(check_states(stack)[1], stack)


@pytest.mark.parametrize("system, label, sector", [
    ("two_qubit", "singlet", FULL_SECTOR),
    ("two_qutrit", "qutrit:1", FULL_SECTOR),
    ("two_qutrit", "qutrit:1", PROJECTED_SECTOR),
])
def test_a_chunk_of_only_degenerate_points_is_an_empty_stack(system, label, sector):
    # At strength 1 the weak filter keeps only |00>, which the singlet lacks,
    # and the reversing filter on party b is zero.
    config = SweepConfig(system=system, initial_state=(label,), r_grid=(0.0, 0.3, R_MAX),
                         strength_grid=(1.0,), qutrit_compare_sector=sector)
    assert np.isnan(run_sweep(config)).all()
    rho0 = parse_state_preset(label)
    dim = rho0.dims[0]
    kraus, w, v = pipeline.point_inputs(tied(WEAK, 1.0, dim), tied(REVERSE, 1.0, dim),
                                        AccelerationSpec(0.3))
    n = 3
    out = pipeline.propagate(rho0.matrix, rho0.dims, np.stack([kraus] * n),
                             np.stack([w] * n), np.stack([v] * n), sector == PROJECTED_SECTOR)
    d = out.dims[0] * out.dims[1]
    assert out.kept.shape == (0,) and out.states.shape == (0, d, d)
    assert out.spectra.shape == (0, d)
    assert measure_columns(out).shape == (0, len(MEASURE_COLUMNS))


# The 2 x 2 closed form (tensor._block_spectra) against eigvalsh: entries
# from both ends of the range, ties, zero coupling and rank-one blocks.
_ENTRIES = (st.sampled_from([0.0, 0.5, 1.0, -1.0, 1e-300, -1e-300, 1.0 - 2.0 ** -52])
            | st.floats(-1.0, 1.0) | st.floats(-1e-290, 1e-290))


@st.composite
def two_by_two(draw):
    """A Hermitian 2 x 2 block, real or complex, as a (1, 2, 2) stack."""
    real = draw(st.booleans())
    if draw(st.booleans()):                 # rank one: v v^dag
        x, y = draw(_ENTRIES), draw(_ENTRIES)
        if not real:
            y = y * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
        m = np.outer([x, y], np.conj([x, y]))
    else:
        p = draw(_ENTRIES)
        q = draw(st.just(p) | _ENTRIES)
        b = draw(st.just(0.0) | _ENTRIES)
        if not real:
            b = b + 1j * draw(st.just(0.0) | _ENTRIES)
        m = np.array([[p, b], [np.conj(b), q]])
    m = m.astype(np.float64 if real else np.complex128)
    return m[None]


@settings(max_examples=300, deadline=None)
@given(m=two_by_two())
def test_two_by_two_closed_form_matches_eigvalsh(m):
    lam = tensor._block_spectra(m, 2)
    assert lam.shape == (1, 2) and lam.dtype == np.float64
    assert lam[0, 0] <= lam[0, 1]
    assert_matches_full(lam, m)


@pytest.mark.parametrize("m", [
    np.array([[0.5, -0.5], [-0.5, 0.5]]),               # the singlet's block at r = 0
    np.array([[0.5, -0.5j], [0.5j, 0.5]]),
    np.array([[0.3, 0.0], [0.0, 0.3]]),                 # p = q, b = 0
    np.array([[1e-300, 1e-300], [1e-300, 1e-300]]),
    np.array([[1.0, 0.0], [0.0, 1e-300]]),
])
def test_two_by_two_closed_form_edge_blocks(m):
    lam = tensor._block_spectra(m[None], 2)
    assert_matches_full(lam, m[None])
    assert lam[0, 0] >= -tensor.STATE_EIGENVALUE_TOL
    assert_matches_full(block_eigenvalues(m), m)
