"""Batched protocol pipeline against the scalar Kraus pipeline.

The oracle (``tests/oracle.py``) evaluates one point the way the package
did before the batched pipeline: ``run_protocol``, then
``restrict_to_ladder`` under ``projected_3dim``, then ``compute_report``.
Every measure must agree to 1e-12; the label, index, r, strength and
degenerate cells of the CSV line must be exact.
"""

import csv
import dataclasses
import functools
import io
import random
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracle import (AccelerationSpec, MeasurementStrengths, compute_report, point_inputs,
                    point_strengths, restrict_to_ladder, run_protocol, tied, x_eigenvalues)
from unruhlab import measures, pipeline, sweep, tensor
from unruhlab.channel import R_MAX, superoperator
from unruhlab.cli import main
from unruhlab.errors import DegenerateOutcome, NonHermitian, NotPositive
from unruhlab.localops import REVERSE, WEAK
from unruhlab.measures import MEASURE_COLUMNS, measure_columns
from unruhlab.states import parse_state_preset, x_coefficients
from unruhlab.sweep import (FIGURE_PRESETS, FULL_SECTOR, INDEPENDENT, PROJECTED_SECTOR,
                            TWO_QUTRIT, WEAK_REVERSE_SPLIT, SweepConfig, config_from_mapping,
                            figure_preset, grid_inputs, rows_to_csv, run_sweep)
from unruhlab.tensor import DensityMatrix, check_held, hold

TOL = 1e-12
SAMPLE_ROWS = 40


def oracle(config: SweepConfig, label: str, r: float, value: float):
    """Scalar report of one grid point, or None where it is degenerate."""
    weak, reverse = point_strengths(config, value)
    try:
        result = run_protocol(parse_state_preset(label), weak, reverse,
                              AccelerationSpec(r, config.phi))
        state = result.final
        if (config.system == TWO_QUTRIT
                and config.qutrit_compare_sector == PROJECTED_SECTOR):
            state, _ = restrict_to_ladder(state, renormalize=True)
        return compute_report(state, result.p_success)
    except DegenerateOutcome:
        return None


class Sweep(NamedTuple):
    measures: np.ndarray    # what run_sweep returns
    lines: list[str]        # the CSV that rows_to_csv renders from it, without the header


def sweep_of(config: SweepConfig) -> Sweep:
    measures = run_sweep(config)
    return Sweep(measures, rows_to_csv(measures, config).splitlines()[1:])


def degenerate_rows(result: Sweep) -> list[bool]:
    return np.isnan(result.measures).all(axis=1).tolist()


def csv_cell(text: str) -> str:
    """``text`` as the ``csv`` module writes it in a cell."""
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow([text])
    return out.getvalue()


def assert_row_matches(config: SweepConfig, result: Sweep, index: int):
    """Row ``index`` sits at its grid point and agrees with the oracle there."""
    n_r, n_s = len(config.r_grid), len(config.strength_grid)
    i_state, rest = divmod(index, n_r * n_s)
    i_r, i_s = divmod(rest, n_s)
    label, r, value = config.initial_state[i_state], config.r_grid[i_r], config.strength_grid[i_s]
    weak, reverse = point_strengths(config, value)
    strengths = (weak.party_a_levels + weak.party_b_levels
                 + reverse.party_a_levels + reverse.party_b_levels)
    head = ",".join([csv_cell(label), str(i_r), str(i_s)]
                    + [f"{v:.17g}" for v in (r,) + strengths])
    line = result.lines[index]
    assert line.startswith(head + ","), (index, line, head)
    cells = line[len(head) + 1:].split(",")
    row = result.measures[index]
    picked = row[[MEASURE_COLUMNS.index(m) for m in config.measures]]
    expected = oracle(config, label, r, value)
    if expected is None:
        assert np.isnan(row).all(), (index, row)
        assert cells == [""] * len(config.measures) + ["1"], (index, line)
        return
    assert cells == [f"{v:.17g}" for v in picked] + ["0"], (index, line)
    for name, got, want in zip(MEASURE_COLUMNS, row, dataclasses.astuple(expected),
                               strict=True):
        assert abs(got - want) <= TOL, (index, name, got, want)


def assert_all_rows_match(config: SweepConfig, result: Sweep):
    assert result.measures.shape == (len(config.initial_state) * len(config.r_grid)
                                     * len(config.strength_grid), len(MEASURE_COLUMNS))
    assert len(result.lines) == len(result.measures)
    for index in range(len(result.measures)):
        assert_row_matches(config, result, index)


@functools.lru_cache(maxsize=None)
def preset_sweep(config: SweepConfig) -> Sweep:
    """Several presets share a config; sweep each config once."""
    return sweep_of(config)


@pytest.mark.parametrize("name", FIGURE_PRESETS)
def test_preset_sample_matches_oracle(name):
    config = figure_preset(name)
    result = preset_sweep(config)
    n = len(result.measures)
    assert n == len(config.initial_state) * len(config.r_grid) * len(config.strength_grid)
    assert len(result.lines) == n
    rng = random.Random(f"engine-{name}")
    for index in rng.sample(range(n), min(SAMPLE_ROWS, n)):
        assert_row_matches(config, result, index)


def test_projected_qutrit_grid_with_degenerate_rows():
    config = SweepConfig(system="two_qutrit", initial_state=("qutrit:1", "qutrit:0.5"),
                         r_grid=tuple(np.linspace(0.0, R_MAX, 5)),
                         strength_grid=tuple(np.linspace(0.0, 1.0, 5)),
                         qutrit_compare_sector=PROJECTED_SECTOR)
    result = sweep_of(config)
    assert any(degenerate_rows(result))
    assert_all_rows_match(config, result)


@pytest.mark.parametrize("sector", [FULL_SECTOR, PROJECTED_SECTOR])
def test_phased_qutrit_grid_matches_the_phased_oracle(sector):
    # The engine leaves the channel's phase out and the oracle keeps it.
    config = SweepConfig(system="two_qutrit", initial_state=("qutrit:1", "qutrit:0.5"),
                         r_grid=tuple(np.linspace(0.0, R_MAX, 5)),
                         strength_grid=tuple(np.linspace(0.0, 1.0, 5)), phi=2.5,
                         qutrit_compare_sector=sector)
    assert_all_rows_match(config, sweep_of(config))


def test_points_either_side_of_the_success_floor():
    # The singlet keeps p_weak = 1 - alpha: 5e-15 falls below the 1e-14
    # floor, 2e-14 stays above it.
    config = SweepConfig(system="two_qubit", initial_state=("singlet",), r_grid=(0.0, 0.5),
                         strength_grid=(1.0 - 5e-15, 1.0 - 2e-14))
    result = sweep_of(config)
    assert degenerate_rows(result) == [True, False, True, False]
    assert_all_rows_match(config, result)


@pytest.mark.parametrize("system, states, extra", [
    ("two_qubit", ("singlet", "werner:0.7"), dict(tie_policy=WEAK_REVERSE_SPLIT, beta=0.6)),
    ("two_qubit", ("werner:0.4",), dict(tie_policy=INDEPENDENT, alpha_b=0.3, beta_a=0.7,
                                        beta_b=0.2, phi=0.9)),
    ("two_qutrit", ("qutrit:1",), dict(tie_policy=WEAK_REVERSE_SPLIT, beta=0.5)),
    ("two_qutrit", ("qutrit:2",), dict(tie_policy=INDEPENDENT, alpha_b=0.8, beta_a=0.1,
                                       beta_b=0.9, qutrit_compare_sector=PROJECTED_SECTOR)),
])
def test_untied_policies_match_oracle(system, states, extra):
    config = SweepConfig(system=system, initial_state=states,
                         r_grid=(0.0, 0.3, R_MAX), strength_grid=(0.0, 0.45, 1.0), **extra)
    assert_all_rows_match(config, sweep_of(config))


def test_x_state_sweeps_beside_a_preset():
    config = config_from_mapping({"system": "two_qubit",
                                  "initial_state": "x:-0.5,-0.2,0.3, singlet",
                                  "r_grid": f"0:{R_MAX!r}:3", "strength_grid": "0, 0.5, 1"})
    assert config.initial_state == ("x:-0.5,-0.2,0.3", "singlet")
    result = sweep_of(config)
    assert_all_rows_match(config, result)
    # The label's commas sit inside one quoted cell: every row has 16 cells.
    assert result.lines[1].startswith('"x:-0.5,-0.2,0.3",0,1,0,0.5,0.5,0.5,0.5,')
    rows = list(csv.reader(result.lines))
    assert [len(row) for row in rows] == [16] * 18
    assert [row[0] for row in rows] == ["x:-0.5,-0.2,0.3"] * 9 + ["singlet"] * 9


def test_grid_spanning_several_chunks(monkeypatch):
    config = SweepConfig(system="two_qutrit", initial_state=("qutrit:1", "qutrit:0.5"),
                         r_grid=(0.0, 0.2, 0.5, R_MAX), strength_grid=(0.0, 0.3, 0.6, 0.9, 1.0),
                         qutrit_compare_sector=PROJECTED_SECTOR)
    whole = sweep_of(config)
    # Seventeen points per chunk: a slab is whole r rows of 5 strengths, so
    # 3 rows, and the 4 rows of each state give slabs of 3 and 1.
    monkeypatch.setattr(sweep, "CHUNK_POINTS", 17)
    shapes = []

    def spy(grid, rows, cols):
        shapes.append((list(rows), cols.tolist()))
        return pipeline.propagate_points(grid, rows, cols)

    monkeypatch.setattr(sweep, "propagate_points", spy)
    result = sweep_of(config)
    assert shapes == [([0, 1, 2], [[0, 1, 2, 3, 4]]), ([3], [[0, 1, 2, 3, 4]])] * 2
    assert_all_rows_match(config, result)
    assert [line.split(",")[:3] + line.split(",")[-1:] for line in result.lines] == \
        [line.split(",")[:3] + line.split(",")[-1:] for line in whole.lines]
    assert degenerate_rows(result) == degenerate_rows(whole)


def test_a_row_wider_than_a_chunk_runs_in_strength_slices(monkeypatch):
    # One r row of 2,000 strengths and 250 points a chunk: the row runs as
    # 8 slices of 250 strengths, in order.  The rows equal the one-chunk
    # run's bit for bit, the last point (strength 1) degenerate in both.
    # Each slice's working set, from its channel step to its measures,
    # stays within 16 times its points' held output bytes (about 7
    # measured); one slab of the whole row takes about 55.
    config = SweepConfig("two_qubit", ("singlet",), (0.5,), tuple(np.linspace(0.0, 1.0, 2000)))
    rho0 = config.parsed_states[0]
    grid = pipeline.prepare(rho0, rho0.dims, *grid_inputs(config))
    per_point = len(grid.support) * grid.channels.itemsize
    monkeypatch.setattr(sweep, "CHUNK_POINTS", 2000)
    whole = run_sweep(config)
    monkeypatch.setattr(sweep, "CHUNK_POINTS", 250)
    slices, starts, peaks = [], [], []

    def spy(grid, rows, cols):
        slices.append((rows.tolist(), cols.shape, int(cols[0, 0])))
        tracemalloc.reset_peak()
        starts.append(tracemalloc.get_traced_memory()[0])
        return pipeline.propagate_points(grid, rows, cols)

    def measuring(out):
        columns = measure_columns(out)
        peaks.append(tracemalloc.get_traced_memory()[1] - starts[-1])
        return columns

    monkeypatch.setattr(sweep, "propagate_points", spy)
    monkeypatch.setattr(sweep, "measure_columns", measuring)
    tracemalloc.start()
    try:
        sliced = run_sweep(config)
    finally:
        tracemalloc.stop()
    assert slices == [([0], (1, 250), start) for start in range(0, 2000, 250)]
    assert whole.tobytes() == sliced.tobytes()
    assert np.isnan(sliced[-1]).all() and not np.isnan(sliced[:-1]).any()
    assert len(peaks) == 8 and max(peaks) < 16 * 250 * per_point


def _one_by_one(grid, rows, cols) -> pipeline.Propagated:
    """The points of a slab, each its own channel row with one filter row."""
    g = cols.shape[-1]
    return pipeline.propagate_points(grid, np.repeat(rows, g),
                                     np.broadcast_to(cols, (len(rows), g)).reshape(-1, 1))


class _NoImag(np.ndarray):
    """A superoperator whose imaginary part must not be read."""

    @property
    def imag(self):
        raise AssertionError("prepare read the imaginary part of a superoperator")


@pytest.mark.parametrize("label, phi, strengths", [
    ("singlet", 0.0, (0.0, 0.5, 1.0)),
    ("phased:singlet", 0.7, (0.0, 0.5, 1.0)),
    ("qutrit:1", 0.0, (0.0, 0.5, 1.0)),
    ("phased:qutrit:0.5", 0.7, (0.0, 0.5, 1.0)),
    ("singlet", 0.0, (1.0,)),
], ids=["qubit", "qubit-complex", "qutrit", "qutrit-complex", "all-degenerate"])
@pytest.mark.parametrize("project", [False, True])
def test_a_slab_gives_the_bits_of_its_points_one_by_one(monkeypatch, label, phi, strengths,
                                                        project):
    # A slab takes one product per channel row; the same points one by one
    # take one each.  Every output bit is the same.  The singlet's weak row
    # at strength 1 is degenerate and skipped alike, and a grid whose every
    # weak row is degenerate holds no entry at all (k_in = k_out = 0).  The
    # engine's channels carry no phase, so both systems' Kraus stacks and
    # maps are float64 at every phi, by the stacks' type: prepare reads no
    # superoperator's imaginary part.  A phased state's product promotes them.
    base = label.removeprefix("phased:")
    config = SweepConfig(TWO_QUTRIT if base.startswith("qutrit") else "two_qubit", (base,),
                         (0.0, 0.3, R_MAX), strengths, phi=phi)
    rho0 = _phased(base) if base != label else config.parsed_states[0]
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "superoperator", lambda k: superoperator(k).view(_NoImag))
        grid = pipeline.prepare(rho0, rho0.dims, *grid_inputs(config))._replace(project=project)
    assert grid.channels.dtype == np.float64
    assert grid.weakened.dtype == (np.complex128 if base != label else np.float64)
    rows, cols = np.arange(3), np.arange(len(strengths))[None]
    slab, points = pipeline.propagate_points(grid, rows, cols), _one_by_one(grid, rows, cols)
    if base == "singlet":
        live = [i for i in range(3 * len(strengths)) if strengths[i % len(strengths)] < 1.0]
        assert list(slab.kept) == live
        assert (len(grid.support) == 0) == (live == [])
    assert slab.dims == points.dims and slab.held.dim == points.held.dim
    for a, b in ((slab.kept, points.kept), (slab.p_success, points.p_success),
                 (slab.held.index, points.held.index), (slab.held.values, points.held.values),
                 (slab.spectra, points.spectra)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


_POINT_STATES = {"two_qubit": st.sampled_from(["singlet", "werner:0.3", "werner:0.9"]),
                 "two_qutrit": st.sampled_from(["qutrit:1", "qutrit:0.5", "qutrit:2"])}


@st.composite
def single_points(draw):
    system = draw(st.sampled_from(sorted(_POINT_STATES)))
    unit = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    return SweepConfig(
        system=system,
        initial_state=(draw(_POINT_STATES[system]),),
        r_grid=(draw(st.sampled_from([0.0, R_MAX]) | st.floats(0.0, R_MAX)),),
        strength_grid=(draw(unit),),
        tie_policy=draw(st.sampled_from(["all_equal", WEAK_REVERSE_SPLIT, INDEPENDENT])),
        phi=draw(st.floats(-2 * np.pi, 2 * np.pi)),
        qutrit_compare_sector=draw(st.sampled_from(["full_4dim", PROJECTED_SECTOR])),
        beta=draw(unit), alpha_b=draw(unit), beta_a=draw(unit), beta_b=draw(unit),
    )


@settings(max_examples=60, deadline=None)
@given(config=single_points())
def test_single_points_match_oracle(config):
    assert_all_rows_match(config, sweep_of(config))


def _corrupt_hermiticity(m):
    m[0, 1] += 1e-6


def _corrupt_trace(m):
    m[0, 0] += 1e-6


def _corrupt_positivity(m):
    m[:] = np.diag([1.5, -0.5, 0.0, 0.0])


def _corrupt_finiteness(m):
    m[2, 2] = np.nan


def _corrupt_positivity_off_the_others_support(m):
    # |00> and |01> are coupled in this member only, outside the other
    # members' X pattern: its block {|00>, |01>} has eigenvalues 0.5 +- 0.6,
    # which only the union of the supports puts in one block.
    m[:] = np.diag([0.5, 0.5, 0.0, 0.0])
    m[0, 1] = m[1, 0] = 0.6


@pytest.mark.parametrize("corrupt, error", [
    (_corrupt_hermiticity, NonHermitian),
    (_corrupt_trace, ValueError),
    (_corrupt_positivity, NotPositive),
    (_corrupt_finiteness, ValueError),
    (_corrupt_positivity_off_the_others_support, NotPositive),
])
def test_batched_state_check_rejects_one_bad_member(corrupt, error):
    stack = np.array([parse_state_preset(s).matrix
                      for s in ("singlet", "werner:0.7", "werner:0.2", "x:0.1,0.2,0.3")])
    np.testing.assert_allclose(check_held(hold(stack))[0].dense(), stack, atol=0)
    corrupt(stack[2])
    with pytest.raises(error):
        DensityMatrix(stack[2], (2, 2))
    with pytest.raises(error):
        check_held(hold(stack))


# ------------------------------------------ the map between entry and exit

@st.composite
def filtered_channels(draw):
    """One point's Kraus stack and filter diagonals, as ``propagate`` takes them."""
    dim = draw(st.sampled_from([2, 3]))
    unit = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    levels = st.tuples(*[unit] * (dim - 1))
    weak = MeasurementStrengths(WEAK, draw(levels), draw(levels))
    reverse = MeasurementStrengths(REVERSE, draw(levels), draw(levels))
    acc = AccelerationSpec(draw(st.sampled_from([0.0, R_MAX]) | st.floats(0.0, R_MAX)),
                           draw(st.floats(-2 * np.pi, 2 * np.pi)))
    return dim, point_inputs(weak, reverse, acc)


@settings(max_examples=100, deadline=None)
@given(point=filtered_channels())
def test_filtered_channel_is_completely_positive_and_trace_non_increasing(point):
    # propagate checks states only where they enter and leave; in between it
    # relies on X -> v.L_r(w.X.w).v (L_r the channel on party 0) mapping
    # positive states to positive states.  Choi: that holds for every input,
    # entangled with any ancilla, iff the Choi matrix J is PSD; the map loses
    # trace, never gains it, iff Tr_out J <= I.
    dim, (kraus, w, v) = point
    d_in, d_out = dim * dim, len(v)
    ops = [np.diag(v) @ np.kron(k, np.eye(dim)) @ np.diag(w) for k in kraus]
    choi = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for i in range(d_in):
        for j in range(d_in):
            unit = np.zeros((d_in, d_in))
            unit[i, j] = 1.0
            image = sum(a @ unit @ a.conj().T for a in ops)
            choi[i * d_out:(i + 1) * d_out, j * d_out:(j + 1) * d_out] = image
    assert np.linalg.eigvalsh(choi)[0] >= -1e-12
    kept = np.trace(choi.reshape(d_in, d_out, d_in, d_out), axis1=1, axis2=3)
    assert np.linalg.eigvalsh(kept)[-1] <= 1.0 + 1e-12


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_a_full_support_input_matches_the_oracle(dim, real):
    # No preset reaches it, but a full-rank input holds every entry of the
    # weakened states (k = d^2), the held form's widest case.  Final states
    # and measures agree with the scalar oracle.  A real input runs at
    # phi = 0, so in float64.
    rng = np.random.default_rng(17 * dim + real)
    d = dim * dim
    for _ in range(3):
        g = rng.normal(size=(d, d)) + (0.0 if real else 1j * rng.normal(size=(d, d)))
        rho0 = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real, (dim, dim))
        u = [tuple(row) for row in rng.uniform(0.0, 0.9, size=(4, dim - 1))]
        weak, reverse = MeasurementStrengths(WEAK, *u[:2]), MeasurementStrengths(REVERSE, *u[2:])
        phi = 0.0 if real else rng.uniform(-np.pi, np.pi)
        acc = AccelerationSpec(rng.uniform(0.0, R_MAX), phi)
        kraus, w, v = point_inputs(weak, reverse, acc)
        grid = pipeline.prepare(rho0.matrix, rho0.dims, kraus[None], w[None], v[None])
        assert len(grid.weakened.index) == d * d
        assert grid.weakened.dtype == (np.float64 if real else np.complex128)
        for project in (False, True) if dim == 3 else (False,):
            one = np.zeros(1, dtype=int)
            out = pipeline.propagate_points(grid._replace(project=project), one, one[:, None])
            result = run_protocol(rho0, weak, reverse, acc)
            final = result.final
            if project:
                final, _ = restrict_to_ladder(final, renormalize=True)
            assert np.abs(out.states[0] - final.matrix).max() <= TOL
            want = dataclasses.astuple(compute_report(final, result.p_success))
            assert np.abs(measure_columns(out)[0] - want).max() <= TOL


def test_propagate_rejects_a_non_positive_input_the_weak_filter_would_hide():
    # Unit trace and Hermitian, but negative on |01> and |10>: a strength-1
    # weak filter keeps only |00>, so no state after it is negative.
    rho0 = np.diag([1.2, -0.1, -0.1, 0.0]).astype(complex)
    kraus, w, v = point_inputs(tied(WEAK, 1.0, 2), tied(REVERSE, 0.0, 2),
                               AccelerationSpec(0.3))
    with pytest.raises(NotPositive):
        pipeline.propagate(rho0, (2, 2), kraus[None], w[None], v[None])


def test_fig4b_eigensolves_only_the_entering_and_leaving_states(monkeypatch):
    block_spectra, eigvalsh = tensor._block_spectra, np.linalg.eigvalsh
    matrices, solved, krons = [], [], []

    def counting_blocks(blocks, size):
        if size > 1:
            matrices.append(int(np.prod(blocks.shape[:-2])))
        return block_spectra(blocks, size)

    monkeypatch.setattr(tensor, "_block_spectra", counting_blocks)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a.shape) or eigvalsh(a))
    monkeypatch.setattr(np, "kron", lambda *args: krons.append(args))
    config = figure_preset("fig4b")         # the states enter here, inside the count
    measures = run_sweep(config)
    n_states = len(config.initial_state)
    per_state = len(config.r_grid) * len(config.strength_grid)
    assert not np.isnan(measures).any()
    # Counted in blocks passed to the per-block solver; a 1 x 1 block of a
    # stack's support is its diagonal entry and each larger block one
    # matrix.  The singlet's support is the block {|01>, |10>} and two zero
    # diagonal entries: one matrix where it enters, in the check when the
    # config parses it (prepare runs that checked state as it is).  The
    # filters are diagonal and the channel on party 0 moves population
    # between |0> and |1> without making coherence, so each final state's
    # support is the diagonal and |01><10|, blocks [2, 1, 1], and its
    # partial transpose's the diagonal and |00><11|, again [2, 1, 1]: one
    # matrix each.  Party b's marginal is diagonal: none.
    # Every block is 2 x 2 or smaller, so none reaches eigvalsh.
    assert sum(matrices) == n_states * 1 + (1 + 1 + 0) * n_states * per_state
    assert solved == []
    assert krons == []


@pytest.mark.parametrize("points, chunks", [(None, 1), (100, 3)])
def test_fig4b_checks_states_only_where_they_enter_and_leave(monkeypatch, points, chunks):
    # Every check is one check_held call, so counting it counts the checks:
    # one where each state enters, when the config parses it, and one exit
    # check per chunk; none in prepare, which runs the parsed state as it
    # is, and none between the steps.  The name is patched in every module
    # that could bind it, so a pass imported into another module is
    # counted too.  ``points`` sets the chunk to that many points; None
    # keeps the default.  A chunk is whole r rows of 3 strengths: 100
    # points are 33 rows, and 81 rows make 3 chunks.
    if points is not None:
        monkeypatch.setattr(sweep, "CHUNK_POINTS", points)
    calls = []
    check_held = tensor.check_held

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0].values))
        return check_held(*args, **kwargs)

    for module in (tensor, pipeline, measures, sweep):
        monkeypatch.setattr(module, "check_held", counting, raising=False)
    config = figure_preset("fig4b")         # the states enter here, inside the count
    run_sweep(config)
    n_r, n_s = len(config.r_grid), len(config.strength_grid)
    assert -(-n_r // (sweep.CHUNK_POINTS // n_s)) == chunks
    assert len(calls) == len(config.initial_state) * (1 + chunks)


@pytest.mark.parametrize("preset", ["fig1a", "fig2a"])
def test_a_surface_runs_as_one_chunk_whatever_its_dimension(monkeypatch, tmp_path, preset):
    # A chunk is bounded by its points, not by the bytes of its held
    # outputs: the 80 x 80 qubit (5 values a point) and qutrit (17) surfaces
    # each fit one chunk of CHUNK_POINTS, so each pays one propagate_points
    # call and two checks, one where its state enters and one at the exit.
    slabs, checks = [], []
    check_held = tensor.check_held

    def counting(*args, **kwargs):
        checks.append(np.shape(args[0].values))
        return check_held(*args, **kwargs)

    def spy(grid, rows, cols):
        slabs.append((len(rows), cols.shape))
        return pipeline.propagate_points(grid, rows, cols)

    for module in (tensor, pipeline, measures, sweep):
        monkeypatch.setattr(module, "check_held", counting, raising=False)
    monkeypatch.setattr(sweep, "propagate_points", spy)
    assert main(["figure", preset, "--out-dir", str(tmp_path)]) == 0
    assert slabs == [(80, (1, 80))]
    assert len(checks) == 2


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("entry, value, error, match", [
    ((1, 2), 1e-6, NonHermitian, "Hermiticity"),
    ((1, 1), np.nan, ValueError, "non-finite"),
], ids=["asymmetric", "nan_diagonal"])
def test_the_exit_check_rejects_a_member_corrupted_between_the_steps(monkeypatch, entry, value,
                                                                    error, match):
    # Nothing checks a state between the channel and the exit: a 1e-6
    # asymmetry, or a NaN on the diagonal, of one member of a chunk must
    # still fail the sweep there.  The NaN makes that member's trace NaN,
    # which post-selection keeps, so it can never become a degenerate row.
    # Both entries are held: |00> is never populated from the singlet, so
    # the NaN goes on |01><01|.
    config = figure_preset("fig4b")
    accelerate = pipeline._accelerate

    def corrupting(*args):
        t = accelerate(*args)
        (at,) = np.flatnonzero(t.index == entry[0] * t.dim + entry[1])
        member = t.values[..., at]      # a view: one entry of every point of the slab
        member.flat[member.size // 2] += value
        return t

    monkeypatch.setattr(pipeline, "_accelerate", corrupting)
    with pytest.raises(error, match=match):
        run_sweep(config)


@st.composite
def phase_pairs(draw):
    """A point of either system, from a preset or an ``x:`` state in the PSD
    region, its filters and sector, and two channel phases."""
    unit = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    dim = draw(st.sampled_from([2, 3]))
    if dim == 2:
        c = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
        assume(min(x_eigenvalues(*x_coefficients(c))) >= 0.0)
        label = draw(st.sampled_from(["singlet", f"werner:{draw(st.floats(0.0, 1.0))!r}",
                                      "x:{!r},{!r},{!r}".format(*c)]))
    else:
        label = f"qutrit:{draw(st.sampled_from([0.0, 1.0]) | st.floats(-3.0, 3.0))!r}"
    levels = st.tuples(*[unit] * (dim - 1))
    weak = MeasurementStrengths(WEAK, draw(levels), draw(levels))
    reverse = MeasurementStrengths(REVERSE, draw(levels), draw(levels))
    r = draw(st.sampled_from([0.0, R_MAX]) | st.floats(0.0, R_MAX))
    phis = draw(st.tuples(*[st.floats(-2 * np.pi, 2 * np.pi)] * 2))
    return label, weak, reverse, r, phis, dim == 3 and draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(point=phase_pairs())
def test_batched_measures_do_not_depend_on_phi(point):
    label, weak, reverse, r, phis, project = point
    rho0 = parse_state_preset(label)
    runs = []
    for phi in phis:
        kraus, w, v = point_inputs(weak, reverse, AccelerationSpec(r, phi))
        out = pipeline.propagate(rho0.matrix, rho0.dims, kraus[None], w[None], v[None],
                                 project)
        runs.append((out.kept, measure_columns(out)))
    (kept, first), (kept_again, second) = runs
    assert np.array_equal(kept, kept_again)
    np.testing.assert_allclose(second, first, rtol=0, atol=TOL)


def _sweep_dtypes(monkeypatch, config: SweepConfig):
    """``run_sweep(config)`` and the dtypes of the prepared tables and the
    propagated states and spectra of each chunk."""
    dtypes, propagate_points = [], sweep.propagate_points

    def recording(grid, rows, cols):
        out = propagate_points(grid, rows, cols)
        dtypes.append((grid.weakened.dtype, grid.channels.dtype, out.states.dtype,
                       out.spectra.dtype))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(sweep, "propagate_points", recording)
        measures = run_sweep(config)
    return measures, set(dtypes)


@pytest.mark.parametrize("name", FIGURE_PRESETS)
def test_real_presets_propagate_in_real_arithmetic(monkeypatch, name):
    # Every preset starts from real states and runs its channel at phi = 0,
    # so every table and state of its sweep is float64.
    config = figure_preset(name)
    assert config.phi == 0.0
    _, dtypes = _sweep_dtypes(monkeypatch, config)
    assert dtypes == {(np.dtype(np.float64),) * 4}


def _phased(label: str) -> DensityMatrix:
    """``label``'s state under the local unitary diag(1, e^{0.7 i}, ...) on
    party b: complex entries, the same measures."""
    rho0 = parse_state_preset(label)
    da, db = rho0.dims
    u = np.kron(np.eye(da), np.diag(np.exp(0.7j * np.arange(db))))
    return DensityMatrix(u @ rho0.matrix @ u.conj().T, rho0.dims)


@pytest.mark.parametrize("system, states, sector", [
    ("two_qubit", ("singlet", "x:-0.5,-0.2,0.3"), FULL_SECTOR),
    ("two_qutrit", ("qutrit:1",), FULL_SECTOR),
    ("two_qutrit", ("qutrit:1",), PROJECTED_SECTOR),
])
def test_complex_path_matches_real_path_and_oracle(monkeypatch, system, states, sector):
    # The same grid through the real path (real states, phi = 0) and the
    # complex one (phased states, and the config at phi = 0.7).
    # Local phases on party b and the channel phase change no measure.  The
    # channel maps of both systems stay float64; the states' product
    # promotes them.
    config = SweepConfig(system=system, initial_state=states,
                         r_grid=tuple(np.linspace(0.0, R_MAX, 5)),
                         strength_grid=(0.0, 0.3, 0.7, 0.95, 1.0),
                         qutrit_compare_sector=sector)
    real, real_dtypes = _sweep_dtypes(monkeypatch, config)
    monkeypatch.setattr(sweep, "parse_state_preset", _phased)
    phased = dataclasses.replace(config, phi=0.7)
    cplx, cplx_dtypes = _sweep_dtypes(monkeypatch, phased)
    f8, c16 = np.dtype(np.float64), np.dtype(np.complex128)
    assert real_dtypes == {(f8, f8, f8, f8)}
    assert cplx_dtypes == {(c16, f8, c16, f8)}
    dead = np.isnan(real).all(axis=1)
    assert dead.any() and not dead.all()
    assert np.array_equal(np.isnan(cplx), np.isnan(real))
    np.testing.assert_allclose(cplx, real, rtol=0, atol=TOL)
    for run_config, measures in ((config, real), (phased, cplx)):
        for index, row in enumerate(measures):
            i_state, rest = divmod(index, len(config.r_grid) * len(config.strength_grid))
            i_r, i_s = divmod(rest, len(config.strength_grid))
            expected = oracle(run_config, states[i_state], config.r_grid[i_r],
                              config.strength_grid[i_s])
            if expected is None:
                assert np.isnan(row).all()
            else:
                np.testing.assert_allclose(row, dataclasses.astuple(expected), rtol=0, atol=TOL)
