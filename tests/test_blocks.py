"""Block spectra against the full eigensolver.

The pipeline eigensolves each final state and its partial transpose block by
block, along a support pattern derived from the supports of the initial
state and of the channel, never from the values at one point.  Block
spectra must equal a full ``numpy.linalg.eigvalsh`` to 1e-14; an entry off
the pattern, however small, must raise; and a stack that every
post-selection emptied must pass through as an empty stack.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from unruhlab import pipeline, sweep
from unruhlab.channel import R_MAX, AccelerationSpec, kraus_for_dim
from unruhlab.localops import REVERSE, WEAK, MeasurementStrengths, tied
from unruhlab.measures import MEASURE_COLUMNS, measure_columns
from unruhlab.states import (QutritStateSpec, XStateSpec, make_qutrit_state, make_x_state,
                             parse_state_preset, x_coefficients, x_eigenvalues)
from unruhlab.sweep import (FIGURE_PRESETS, FULL_SECTOR, PROJECTED_SECTOR, SweepConfig,
                            figure_preset, run_sweep)
from unruhlab.tensor import block_eigenvalues, check_states

TOL = 1e-14


def partial_transposes(out) -> np.ndarray:
    d0, db = out.dims
    t = out.states.reshape(-1, d0, db, d0, db).transpose(0, 3, 2, 1, 4)
    return t.reshape(-1, d0 * db, d0 * db)


def assert_block_spectra_match(out):
    assert np.abs(out.spectra - np.linalg.eigvalsh(out.states)).max(initial=0.0) <= TOL
    pt = partial_transposes(out)
    blocks = block_eigenvalues(pt, out.transpose)
    assert np.abs(blocks - np.linalg.eigvalsh(pt)).max(initial=0.0) <= TOL


def block_sizes(blocks) -> list[int]:
    return sorted((idx.shape[1] for idx in blocks.groups for _ in idx), reverse=True)


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


def _grid(label: str, r, project: bool) -> pipeline.Prepared:
    rho0 = parse_state_preset(label)
    da, db = rho0.dims
    kraus = kraus_for_dim(da, np.asarray(r), 0.4)
    return pipeline.prepare(rho0.matrix, rho0.dims, kraus, np.ones((1, da * db)),
                            np.ones((1, kraus.shape[-2] * db)), project)


@pytest.mark.parametrize("label, project, sizes, transpose_sizes", [
    ("singlet", False, [2, 1, 1], [2, 1, 1]),
    ("werner:0.7", False, [2, 1, 1], [2, 1, 1]),
    ("x:-0.5,-0.2,0.3", False, [2, 2], [2, 2]),
    ("qutrit:1", False, [3, 2, 2, 1, 1, 1, 1, 1], [3, 2, 2, 1, 1, 1, 1, 1]),
    ("qutrit:0.5", True, [3, 1, 1, 1, 1, 1, 1], [2, 2, 2, 1, 1, 1]),
])
def test_pattern_is_the_same_with_and_without_r_zero(label, project, sizes, transpose_sizes):
    # sin 0 = 0 zeroes Kraus entries at r = 0; the pattern must not shrink there.
    inner = np.linspace(0.0, R_MAX, 9)[1:]
    want = _grid(label, inner, project)
    assert block_sizes(want.blocks) == sizes
    assert block_sizes(want.transpose) == transpose_sizes
    for r in (np.concatenate(([0.0], inner)), [0.0]):
        got = _grid(label, r, project)
        for g, w in ((got.blocks, want.blocks), (got.transpose, want.transpose)):
            assert np.array_equal(g.outside, w.outside)
            assert len(g.groups) == len(w.groups)
            assert all(np.array_equal(a, b) for a, b in zip(g.groups, w.groups))


def test_an_entry_off_the_pattern_raises(monkeypatch):
    rho0 = parse_state_preset("qutrit:1")
    kraus, w, v = pipeline.point_inputs(tied(WEAK, 0.3, 3), tied(REVERSE, 0.4, 3),
                                        AccelerationSpec(0.6))
    grid = pipeline.prepare(rho0.matrix, rho0.dims, kraus[None], w[None], v[None])
    one = np.arange(1)
    out = pipeline.propagate_points(grid, one, one)
    i, j = np.argwhere(grid.blocks.outside & ~np.eye(len(v), dtype=bool))[0]
    bad = out.states.copy()
    bad[0, i, j] = bad[0, j, i] = 1e-300
    with pytest.raises(ValueError, match="outside its block pattern"):
        check_states(bad, grid.blocks)
    with pytest.raises(ValueError, match="outside its block pattern"):
        measure_columns(out._replace(states=bad))

    accelerate = pipeline._accelerate

    def leaking(channels, states, dims):
        t = accelerate(channels, states, dims)
        t[:, i, j] += 1e-300
        t[:, j, i] += 1e-300
        return t

    monkeypatch.setattr(pipeline, "_accelerate", leaking)
    with pytest.raises(ValueError, match="outside its block pattern"):
        pipeline.propagate_points(grid, one, one)


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
