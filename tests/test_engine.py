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
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import compute_report, restrict_to_ladder, run_protocol
from unruhlab import pipeline, sweep
from unruhlab.channel import R_MAX, AccelerationSpec
from unruhlab.errors import DegenerateOutcome, NonHermitian, NotPositive
from unruhlab.localops import REVERSE, WEAK, MeasurementStrengths, tied
from unruhlab.measures import MEASURE_COLUMNS
from unruhlab.states import parse_state_preset
from unruhlab.sweep import (FIGURE_PRESETS, INDEPENDENT, PROJECTED_SECTOR, TWO_QUTRIT,
                            WEAK_REVERSE_SPLIT, SweepConfig, config_from_mapping,
                            figure_preset, rows_to_csv, run_sweep)
from unruhlab.tensor import DensityMatrix, blocks_of, check_states

TOL = 1e-12
SAMPLE_ROWS = 40


def oracle(config: SweepConfig, label: str, r: float, value: float):
    """Scalar report of one grid point, or None where it is degenerate."""
    weak, reverse = config.point_strengths(value)
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
    weak, reverse = config.point_strengths(value)
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
    # Seven 12 x 12 states per chunk: 20 points a state give 7 + 7 + 6.
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", 7 * 16 * 12 * 12)
    sizes = []

    def spy(grid, i_channel, i_filter):
        sizes.append(len(i_filter))
        return pipeline.propagate_points(grid, i_channel, i_filter)

    monkeypatch.setattr(sweep, "propagate_points", spy)
    result = sweep_of(config)
    assert sizes == [7, 7, 6, 7, 7, 6]
    assert_all_rows_match(config, result)
    assert [line.split(",")[:3] + line.split(",")[-1:] for line in result.lines] == \
        [line.split(",")[:3] + line.split(",")[-1:] for line in whole.lines]
    assert degenerate_rows(result) == degenerate_rows(whole)


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


# The X pattern: the diagonal and the anti-diagonal, blocks {|00>, |11>}, {|01>, |10>}.
_X_BLOCKS = blocks_of(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])


@pytest.mark.parametrize("corrupt, error", [
    (_corrupt_hermiticity, NonHermitian),
    (_corrupt_trace, ValueError),
    (_corrupt_positivity, NotPositive),
    (_corrupt_finiteness, ValueError),
])
def test_batched_state_check_rejects_one_bad_member(corrupt, error):
    stack = np.array([parse_state_preset(s).matrix
                      for s in ("singlet", "werner:0.7", "werner:0.2", "x:0.1,0.2,0.3")])
    for blocks in (None, _X_BLOCKS):
        np.testing.assert_allclose(check_states(stack, blocks)[0], stack, atol=0)
    corrupt(stack[2])
    with pytest.raises(error):
        DensityMatrix(stack[2], (2, 2))
    for blocks in (None, _X_BLOCKS):
        with pytest.raises(error):
            check_states(stack, blocks)


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
    return dim, pipeline.point_inputs(weak, reverse, acc)


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


def test_propagate_rejects_a_non_positive_input_the_weak_filter_would_hide():
    # Unit trace and Hermitian, but negative on |01> and |10>: a strength-1
    # weak filter keeps only |00>, so no state after it is negative.
    rho0 = np.diag([1.2, -0.1, -0.1, 0.0]).astype(complex)
    kraus, w, v = pipeline.point_inputs(tied(WEAK, 1.0, 2), tied(REVERSE, 0.0, 2),
                                        AccelerationSpec(0.3))
    with pytest.raises(NotPositive):
        pipeline.propagate(rho0, (2, 2), kraus[None], w[None], v[None])


def test_fig4b_eigensolves_only_the_entering_and_leaving_states(monkeypatch):
    config = figure_preset("fig4b")
    eigvalsh, matrices, krons = np.linalg.eigvalsh, [], []

    def counting_eigvalsh(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np, "kron", lambda *args: krons.append(args))
    measures = run_sweep(config)
    n_states = len(config.initial_state)
    per_state = len(config.r_grid) * len(config.strength_grid)
    assert not np.isnan(measures).any()
    # Each state is parsed once and checked on entry once, however many
    # chunks it spans.  A kept point's final state and its partial transpose
    # each split into blocks [2, 1, 1] (the singlet's X structure): one 2 x 2
    # eigensolve each, the 1 x 1 blocks being diagonal entries.  Its 2 x 2
    # marginal costs one more.
    assert sum(matrices) == n_states * (1 + 1) + (1 + 1 + 1) * n_states * per_state
    assert krons == []
