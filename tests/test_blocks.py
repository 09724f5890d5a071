"""Held supports and block spectra against the scalar oracle and the full
eigensolver.

The support ``prepare`` derives for the final states must hold every
entry that is nonzero in the scalar oracle's final state, and the held
values must match the oracle's entries to 1e-12.

Every state check and measure eigensolves a stack block by block, along the
connected components of the union of its members' supports.  Block spectra
must equal a full ``numpy.linalg.eigvalsh`` to 1e-14 on the final states,
their partial transposes and their marginals; a stack of r = 0 points may
split into smaller blocks; an entry, however small, joins the blocks it
couples; every real 3 x 3 block is solved in closed form and every
complex one by ``eigvalsh``, whatever the stack's size; a stack that every
post-selection emptied must pass through as an empty stack; and the
closed form of a 2 x 2 block must match
``eigvalsh`` to 1e-14 on ties, zero coupling, rank-one blocks and entries
near 1e-300 and near 1.  The closed form of a real 3 x 3 block must match
``eigvalsh`` and the Jacobi oracle to 1e-14 x max(1, ||A||) on A = qI,
double roots at either end, rank-one and rank-two blocks, gaps from 1e-16
to 1e-2 and entries near 1e-150, and raise no floating-point warning.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracle import (AccelerationSpec, MeasurementStrengths, jacobi_eigenvalues, point_inputs,
                    restrict_to_ladder, run_protocol, tied, x_eigenvalues)
from unruhlab import pipeline, sweep, tensor
from unruhlab.channel import R_MAX, kraus_for_dim
from unruhlab.errors import DegenerateOutcome
from unruhlab.localops import REVERSE, WEAK
from unruhlab.measures import MEASURE_COLUMNS, measure_columns
from unruhlab.states import parse_state_preset, qutrit_state, x_coefficients, x_state
from unruhlab.sweep import (FIGURE_PRESETS, FULL_SECTOR, PROJECTED_SECTOR, SweepConfig,
                            figure_preset, run_sweep)
from unruhlab.tensor import blocks_of, check_held, held_eigenvalues, hold

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
    assert_matches_full(held_eigenvalues(hold(pt)), pt)
    d0, db = out.dims
    marginal = np.trace(out.states.reshape(-1, d0, db, d0, db), axis1=1, axis2=3)
    assert_matches_full(held_eigenvalues(hold(marginal)), marginal)


def by_eigvalsh(blocks: np.ndarray, size: int) -> bool:
    """Whether ``tensor._block_spectra`` sends a stack of ``size`` x ``size``
    blocks to ``eigvalsh``: a complex 3 x 3 stack, or any stack of larger
    blocks, whatever its size."""
    return size > 3 or (size == 3 and blocks.dtype != np.float64)


def solved_sizes(monkeypatch, m) -> list[int]:
    """Sizes of the blocks ``held_eigenvalues`` solves a stack in, largest
    first, from the blocks it passes to the per-block solver
    ``tensor._block_spectra`` (shape ``(n, n_s, s, s)``: ``n_s`` blocks of
    size ``s`` per member).  Also checks that the blocks cover the diagonal,
    that exactly the blocks :func:`by_eigvalsh` names reach ``eigvalsh``,
    and the spectra against the full solve."""
    sizes, expected, solved = [], [], []
    block_spectra, eigvalsh = tensor._block_spectra, np.linalg.eigvalsh

    def spy(blocks, size):
        assert blocks.shape[-2:] == (size, size)
        sizes.extend([size] * blocks.shape[-3])
        if by_eigvalsh(blocks, size):
            expected.extend([size] * blocks.shape[-3])
        return block_spectra(blocks, size)

    def eigvalsh_spy(a):
        solved.extend([a.shape[-1]] * a.shape[-3])
        return eigvalsh(a)

    with monkeypatch.context() as patch:
        patch.setattr(tensor, "_block_spectra", spy)
        patch.setattr(np.linalg, "eigvalsh", eigvalsh_spy)
        lam = held_eigenvalues(hold(m))
    assert_matches_full(lam, m)
    assert sum(sizes) == m.shape[-1]
    assert sorted(solved) == sorted(expected)
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
def protocol_points(draw):
    """One point of either system: an ``x:`` state in the PSD region or a
    qutrit state, its strengths and acceleration, and the sector."""
    unit = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    dim = draw(st.sampled_from([2, 3]))
    if dim == 2:
        c = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
        assume(min(x_eigenvalues(*x_coefficients(c))) >= 0.0)
        rho0 = x_state(*c)
    else:
        rho0 = qutrit_state(draw(st.sampled_from([0.0, 1.0]) | st.floats(-3.0, 3.0)))
    levels = st.tuples(*[unit] * (dim - 1))
    weak = MeasurementStrengths(WEAK, draw(levels), draw(levels))
    reverse = MeasurementStrengths(REVERSE, draw(levels), draw(levels))
    acc = AccelerationSpec(draw(st.sampled_from([0.0, R_MAX]) | st.floats(0.0, R_MAX)),
                           draw(st.floats(-2 * np.pi, 2 * np.pi)))
    project = dim == 3 and draw(st.booleans())
    return rho0, weak, reverse, acc, project


@st.composite
def points(draw):
    """A :func:`protocol_points` point with its Kraus stack and filter
    diagonals in place of its strengths and acceleration."""
    rho0, weak, reverse, acc, project = draw(protocol_points())
    return rho0, point_inputs(weak, reverse, acc), project


@settings(max_examples=100, deadline=None)
@given(point=points())
def test_drawn_point_block_spectra_match_the_full_eigensolver(point):
    rho0, (kraus, w, v), project = point
    out = pipeline.propagate(rho0.matrix, rho0.dims, kraus[None], w[None], v[None], project)
    assert_block_spectra_match(out)


@settings(max_examples=100, deadline=None)
@given(point=protocol_points())
@example(point=(parse_state_preset("qutrit:1"), MeasurementStrengths(WEAK, (1.0, 0.2), (0.3, 0.0)),
                MeasurementStrengths(REVERSE, (0.4, 1.0), (0.0, 0.5)),
                AccelerationSpec(0.0, 0.7), True))
@example(point=(parse_state_preset("qutrit:0.5"), tied(WEAK, 0.3, 3),
                MeasurementStrengths(REVERSE, (1.0, 0.2), (0.6, 1.0)),
                AccelerationSpec(0.4, -2.0), True))
@example(point=(parse_state_preset("x:-0.5,-0.2,0.3"), MeasurementStrengths(WEAK, (1.0,), (0.2,)),
                MeasurementStrengths(REVERSE, (0.0,), (1.0,)), AccelerationSpec(0.0, 1.3),
                False))
def test_the_derived_support_holds_every_nonzero_entry(point):
    # prepare derives the final states' support from its tables alone.  Every
    # entry it leaves out must be exactly zero in the scalar oracle's final
    # state, and every held value must match the oracle's entry.  The
    # examples add r = 0 and phi != 0 together, filter entries of zero (a
    # strength of 1) and projected_3dim.
    rho0, weak, reverse, acc, project = point
    kraus, w, v = point_inputs(weak, reverse, acc)
    out = pipeline.propagate(rho0.matrix, rho0.dims, kraus[None], w[None], v[None], project)
    try:
        final = run_protocol(rho0, weak, reverse, acc).final
        if project:
            final, _ = restrict_to_ladder(final, renormalize=True)
    except DegenerateOutcome:
        assert len(out.kept) == 0
        return
    assert list(out.kept) == [0]
    entries = final.matrix.ravel()
    assert np.isin(np.flatnonzero(entries), out.held.index).all()
    assert np.abs(out.held.values[0] - entries[out.held.index]).max(initial=0.0) <= 1e-12


def _stacks(label: str, r, project: bool, phi: float = 0.4) -> tuple[np.ndarray, np.ndarray]:
    """Final states of ``label`` at each angle of ``r`` and the phase ``phi``,
    unfiltered, as one stack, and their partial transposes."""
    rho0 = parse_state_preset(label)
    da, db = rho0.dims
    kraus = kraus_for_dim(da, np.asarray(r), phi)
    grid = pipeline.prepare(rho0.matrix, rho0.dims, kraus, np.ones((1, da * db)),
                            np.ones((1, kraus.shape[-2] * db)), project)
    # Every channel row with the one filter row: a slab of len(r) rows of one point.
    out = pipeline.propagate_points(grid, np.arange(len(kraus)), np.zeros((1, 1), int))
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


@pytest.mark.parametrize("members", [1, 243, 256])
@pytest.mark.parametrize("label, project, transposed", [
    ("qutrit:1", False, False),
    ("qutrit:1", False, True),
    ("qutrit:0.5", True, False),
])
def test_real_3x3_blocks_never_reach_eigvalsh(monkeypatch, label, project, transposed,
                                              members):
    # Accelerated real qutrit states (and the full sector's partial
    # transposes) hold one 3 x 3 block each.  A real stack of them solves it
    # in closed form at any size, 1 member as 256; the same stack made
    # complex goes to eigvalsh.  Both match the full solve (solved_sizes).
    m = _stacks(label, np.linspace(0.0, R_MAX, members + 1)[1:], project, phi=0.0)[transposed]
    assert m.dtype == np.float64 and len(m) == members
    eigvalsh = np.linalg.eigvalsh
    for stack, shapes in ((m, []), (m.astype(np.complex128), [(members, 1, 3, 3)])):
        calls = []

        def spy(a):
            calls.append(a.shape)
            return eigvalsh(a)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", spy)
            tensor.held_eigenvalues(hold(stack))
        assert calls == shapes
        assert solved_sizes(monkeypatch, stack)[0] == 3


def test_an_entry_off_the_pattern_joins_its_block(monkeypatch):
    rho0 = parse_state_preset("qutrit:1")
    kraus, w, v = point_inputs(tied(WEAK, 0.3, 3), tied(REVERSE, 0.4, 3),
                               AccelerationSpec(0.6))
    grid = pipeline.prepare(rho0.matrix, rho0.dims, kraus[None], w[None], v[None])
    one = np.arange(1)
    out = pipeline.propagate_points(grid, one, one[:, None])
    assert solved_sizes(monkeypatch, out.states) == [3, 2, 2, 1, 1, 1, 1, 1]
    groups = blocks_of(out.states[0] != 0)
    i, j = groups[-1][0, 0], groups[0][0, 0]        # in the 3 x 3 block and a 1 x 1 one
    bad = out.states.copy()
    bad[0, i, j] = bad[0, j, i] = 1e-300
    assert solved_sizes(monkeypatch, bad) == [4, 2, 2, 1, 1, 1, 1]
    assert_matches_full(check_held(hold(bad))[1], bad)
    np.testing.assert_allclose(measure_columns(out._replace(held=tensor.hold(bad))),
                               measure_columns(out), rtol=0, atol=TOL)


def test_members_with_different_supports_solve_along_their_union(monkeypatch):
    # The singlet fills one 2 x 2 block of the X pattern, an x: state both.
    stack = np.array([parse_state_preset(s).matrix for s in ("singlet", "x:-0.5,-0.2,0.3")])
    assert solved_sizes(monkeypatch, stack[:1]) == [2, 1, 1]
    assert solved_sizes(monkeypatch, stack[1:]) == [2, 2]
    assert solved_sizes(monkeypatch, stack) == [2, 2]
    assert_matches_full(check_held(hold(stack))[1], stack)


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
    kraus, w, v = point_inputs(tied(WEAK, 1.0, dim), tied(REVERSE, 1.0, dim),
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
    lam = np.stack(tensor._block_spectra(m, 2), axis=-1)
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
    lam = np.stack(tensor._block_spectra(m[None], 2), axis=-1)
    assert_matches_full(lam, m[None])
    assert lam[0, 0] >= -tensor.STATE_EIGENVALUE_TOL
    assert_matches_full(held_eigenvalues(hold(m)), m)


# The closed form of a real 3 x 3 block (tensor._real_3x3_spectra), called
# directly on single blocks, against eigvalsh and the Jacobi oracle, with
# every floating-point warning raised.

def assert_closed_form_matches(m):
    """The closed form's spectra of the real 3 x 3 blocks ``m`` ``(n, 3, 3)``
    are ascending and within 1e-14 x max(1, ||A||) of eigvalsh and Jacobi."""
    with np.errstate(all="raise"):
        lam = tensor._real_3x3_spectra(m)
    assert lam.shape == (len(m), 3) and lam.dtype == np.float64
    assert (np.diff(lam, axis=-1) >= 0.0).all()
    for a, mine in zip(m, lam):
        tol = TOL * max(1.0, np.linalg.norm(a))
        assert np.abs(mine - np.linalg.eigvalsh(a)).max() <= tol
        assert np.abs(mine - jacobi_eigenvalues(a)).max() <= tol


def rotation(x, y, z) -> np.ndarray:
    """The rotation by Euler angles x, y, z (about the axes z, y, z)."""
    def about(t, i, j):
        g = np.eye(3)
        g[i, i] = g[j, j] = np.cos(t)
        g[i, j], g[j, i] = -np.sin(t), np.sin(t)
        return g
    return about(x, 0, 1) @ about(y, 0, 2) @ about(z, 0, 1)


_TINY = 2.0 ** -498        # ~1.2e-150: squares are normal, cubes underflow


@pytest.mark.parametrize("m", [
    np.zeros((3, 3)),                                       # p = 0
    0.25 * np.eye(3),
    -np.eye(3),
    _TINY * np.eye(3),
    np.diag([1.0, 1.0, 4.0]),                               # double root, low end
    np.diag([-1.0, 2.0, 2.0]),                              # double root, high end
    np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]),    # 0, 1, 1
    np.full((3, 3), 1.0 / 3.0),                             # rank one: 0, 0, 1
    np.full((3, 3), 1.0),                                   # rank one: 0, 0, 3
    np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),    # rank two: 0, 1, 2
    np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]]),    # 1, 3, 5
    parse_state_preset("qutrit:1").matrix.real[[0, 4, 8]][:, [0, 4, 8]],    # its block, rank one
])
@pytest.mark.parametrize("scale", [1.0, _TINY])
def test_real_3x3_closed_form_edge_blocks(m, scale):
    assert_closed_form_matches(scale * m[None])


@pytest.mark.parametrize("q", [0.0, 0.25, -1.0, _TINY])
def test_real_3x3_closed_form_of_qi_is_q_three_times(q):
    with np.errstate(all="raise"):
        lam = tensor._real_3x3_spectra(q * np.eye(3)[None])
    assert lam.tolist() == [[q, q, q]]


_UNIT = (st.sampled_from([0.0, 1.0, -1.0, 0.5, 1.0 / 3.0])
         | st.floats(-1.0, 1.0).filter(lambda x: abs(x) >= 1e-3))
_ANGLE = st.just(0.0) | st.floats(1e-3, 3.0) | st.floats(-3.0, -1e-3)
_GAP = st.sampled_from([0.0, 1e-16, 1e-14, 1e-12, 1e-8, 1e-4, 1e-2]) | st.floats(1e-16, 1e-2)


@st.composite
def near_degenerate(draw):
    """A rotated real symmetric block with roots x, x + gap and y (the pair
    at the low end when x < y, at the high end when x > y), as a (1, 3, 3)
    stack."""
    x, y, gap = draw(_UNIT), draw(_UNIT), draw(_GAP)
    g = rotation(draw(_ANGLE), draw(_ANGLE), draw(_ANGLE))
    m = (g * [x, x + gap, y]) @ g.T
    return (0.5 * (m + m.T))[None]


@st.composite
def low_rank(draw):
    """v v^T, or v v^T + w w^T, as a (1, 3, 3) stack."""
    rank = draw(st.sampled_from([1, 2]))
    vs = [np.array(draw(st.tuples(_UNIT, _UNIT, _UNIT))) for _ in range(rank)]
    return sum(np.outer(v, v) for v in vs)[None]


@settings(max_examples=300, deadline=None)
@given(m=near_degenerate() | low_rank())
def test_real_3x3_closed_form_matches_eigvalsh_and_jacobi(m):
    assert_closed_form_matches(m)
