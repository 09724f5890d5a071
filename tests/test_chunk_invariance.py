"""A grid point's answer does not depend on the chunk it runs in.

A point's measures are a function of the point and its grid alone: the
blocks its spectra split into are read off the support ``prepare``
derives once for the whole grid, every real 3 x 3 block is solved in
closed form and every complex one by ``eigvalsh`` whatever the stack's
size, and a trace adds its entries in one order whatever the stack's
layout.  Checked here:

* every distinct preset sweep and both INI sweeps of
  ``perfbench/workloads.py`` give the same measure bits and CSV bytes at
  ``CHUNK_POINTS`` of 7, 80, 333 and 8,192 points, and every spectrum and
  population their measures take the entropy of has entries of at least
  -4e-10 and sums to 1 within 4e-10, as the exit check makes it, and
  gives the entropy bits of its zero-clipped copy;
* the line presets, 12 x 12 sub-grids of fig1a, fig1b, fig2a and fig2b,
  and a sweep of the singlet and werner:0.7 with split strengths that
  reaches degenerate weak rows, give them at 1 point a chunk as well;
* ``state`` prints the ``p_success`` text of its sweep row at seeded
  points of fig1a, fig2a and fig2b and of a qutrit:1 sweep at phi = 0.7,
  rows of r = 0 included: the phase reaches no engine input, so the sweep
  and ``state``'s one-point grid both run in float64 at any phi;
* small drawn configs of either system, at phi = 0 or not, in either
  sector, under every tie policy and with strengths reaching 1, give the
  same measure bits at a drawn chunk size of 1 to 13 points as at the
  default.
"""

import configparser
import dataclasses
import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unruhlab import measures, sweep
from unruhlab.channel import R_MAX
from unruhlab.cli import main
from unruhlab.measures import MEASURE_COLUMNS
from unruhlab.sweep import (_TIE_POLICIES, FIGURE_PRESETS, FULL_SECTOR, PROJECTED_SECTOR,
                            TWO_QUBIT, TWO_QUTRIT, WEAK_REVERSE_SPLIT, SweepConfig,
                            config_from_mapping, figure_preset, rows_to_csv, run_sweep)

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("golden", _ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

CHUNK_POINTS = (7, 80, 333, 8192)


def _sub_grid(name: str) -> SweepConfig:
    """Every 7th r and strength of a surface preset: 12 x 12 points."""
    config = figure_preset(name)
    return dataclasses.replace(config, r_grid=config.r_grid[::7],
                               strength_grid=config.strength_grid[::7])


def _ini(text: str) -> SweepConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return config_from_mapping(dict(parser["sweep"]))


def _phased() -> SweepConfig:
    """qutrit:1 at phi = 0.7, which no engine input carries; 9 x 9 points."""
    return SweepConfig(TWO_QUTRIT, ("qutrit:1",), tuple(np.linspace(0.0, R_MAX, 9)),
                       tuple(np.linspace(0.0, 0.98, 9)), phi=0.7)


# Presets that share a config (fig1a, fig3a, fig3b; fig2a, fig5a, fig5b) run once.
_DISTINCT_PRESETS = sorted({figure_preset(name): name
                            for name in reversed(FIGURE_PRESETS)}.values())

CONFIGS = {
    **{name: lambda name=name: figure_preset(name) for name in _DISTINCT_PRESETS},
    **{name: lambda text=text: _ini(text) for name, text in
       golden._assigned(_ROOT / "perfbench" / "workloads.py", "INIS").items()},
    **{f"{name} sub-grid": lambda name=name: _sub_grid(name)
       for name in ("fig1a", "fig1b", "fig2a", "fig2b")},
    "singlet, werner:0.7": lambda: SweepConfig(
        TWO_QUBIT, ("singlet", "werner:0.7"), tuple(np.linspace(0.0, R_MAX, 11)),
        tuple(np.linspace(0.0, 1.0, 9)), tie_policy=WEAK_REVERSE_SPLIT, beta=0.6),
}
# Run at 1 point a chunk too: the line presets and the small grids.
ONE_POINT = {"fig4a", "fig4b", "fig6a", "fig6b", "fig1a sub-grid", "fig1b sub-grid",
             "fig2a sub-grid", "fig2b sub-grid", "singlet, werner:0.7"}
DEGENERATE = {"ini_qutrit_projected", "singlet, werner:0.7"}

@pytest.mark.parametrize("name", CONFIGS)
def test_outputs_do_not_depend_on_the_chunk_size(monkeypatch, name):
    config = CONFIGS[name]()
    chunks, entropy_inputs = [], []
    propagate_points, shannon_entropy = sweep.propagate_points, measures.shannon_entropy
    monkeypatch.setattr(sweep, "propagate_points",
                        lambda *args: chunks.append(1) or propagate_points(*args))
    monkeypatch.setattr(measures, "shannon_entropy",
                        lambda p: entropy_inputs.append(p) or shannon_entropy(p))
    outputs = {}
    for points in (1, *CHUNK_POINTS) if name in ONE_POINT else CHUNK_POINTS:
        monkeypatch.setattr(sweep, "CHUNK_POINTS", points)
        chunks.clear()
        entropy_inputs.clear()
        rows = run_sweep(config)
        outputs[points] = (rows.tobytes(), rows_to_csv(rows, config))
        if points == 1:
            assert len(chunks) == len(rows)
    assert np.isnan(np.frombuffer(outputs[8192][0])).any() == (name in DEGENERATE)
    for points in outputs:
        assert outputs[points] == outputs[8192], points
    # shannon_entropy checks none of this itself: its inputs, from the
    # 8,192-point pass, are the checked states' spectra and populations
    assert len(entropy_inputs) == 4 * len(chunks)
    for p in entropy_inputs:
        assert p.size and p.min() >= -4e-10
        assert np.abs(p.sum(axis=-1) - 1.0).max() <= 4e-10
        assert shannon_entropy(p).tobytes() == shannon_entropy(np.clip(p, 0.0, None)).tobytes()


STATE_SWEEPS = {
    "fig1a": (lambda: figure_preset("fig1a"), "singlet", ()),
    "fig2a": (lambda: figure_preset("fig2a"), "qutrit:1", ()),
    "fig2b": (lambda: figure_preset("fig2b"), "qutrit:0.5", ()),
    "qutrit:1, phi = 0.7": (_phased, "qutrit:1", ("--phi", "0.7")),
}


def _state_points(n_r: int, n_s: int, rows: str) -> list[int]:
    """Seeded flat indices into an ``n_r`` x ``n_s`` grid: 60 points
    anywhere and 8 of the r = 0 row, 60 of the rows r > 0, or the r = 0
    row whole."""
    rng = random.Random(20261020)
    if rows == "any":
        return rng.sample(range(n_r * n_s), 60) + rng.sample(range(n_s), 8)
    return rng.sample(range(n_s, n_r * n_s), 60) if rows == "r > 0" else list(range(n_s))


@pytest.mark.parametrize("name, rows", [
    ("fig1a", "any"), ("fig2a", "any"), ("fig2b", "any"), ("qutrit:1, phi = 0.7", "r > 0"),
    ("qutrit:1, phi = 0.7", "r = 0"),
])
def test_state_prints_the_p_success_of_its_sweep_row(capsys, name, rows):
    build, preset, phase = STATE_SWEEPS[name]
    config = build()
    p_success = run_sweep(config)[:, MEASURE_COLUMNS.index("p_success")]
    n_s = len(config.strength_grid)
    for index in _state_points(len(config.r_grid), n_s, rows):
        i_r, i_s = divmod(index, n_s)
        r, s = config.r_grid[i_r], config.strength_grid[i_s]
        assert main(["state", "--preset", preset, "--r", repr(r), "--alpha", repr(s),
                     "--beta", repr(s), *phase]) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"p_success = {p_success[index]:.17g}"


_QUBIT_STATES = ("singlet", "werner:0.7", "x:-0.5,-0.2,0.3", "x:0.3,-0.6,-0.1")
_QUTRIT_STATES = ("qutrit:1", "qutrit:0.5", "qutrit:0.2", "qutrit:2")
_STRENGTH = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def small_configs(draw) -> SweepConfig:
    """A config of at most 2 states x 4 r x 4 strengths: either system, any
    phase, either sector, any tie policy, strengths from 0 to 1."""
    system = draw(st.sampled_from([TWO_QUBIT, TWO_QUTRIT]))
    labels = _QUBIT_STATES if system == TWO_QUBIT else _QUTRIT_STATES
    return SweepConfig(
        system, tuple(draw(st.lists(st.sampled_from(labels), min_size=1, max_size=2,
                                    unique=True))),
        tuple(draw(st.lists(st.sampled_from([0.0, R_MAX]) | st.floats(0.0, R_MAX),
                            min_size=1, max_size=4))),
        tuple(draw(st.lists(_STRENGTH, min_size=1, max_size=4))),
        tie_policy=draw(st.sampled_from(_TIE_POLICIES)),
        phi=draw(st.sampled_from([0.0, 0.7]) | st.floats(-4.0, 4.0)),
        qutrit_compare_sector=draw(st.sampled_from([FULL_SECTOR, PROJECTED_SECTOR])),
        beta=draw(_STRENGTH), alpha_b=draw(_STRENGTH), beta_a=draw(_STRENGTH),
        beta_b=draw(_STRENGTH))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=small_configs(), points=st.integers(1, 13))
def test_drawn_configs_do_not_depend_on_the_chunk_size(config, points):
    default = run_sweep(config).tobytes()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "CHUNK_POINTS", points)
        assert run_sweep(config).tobytes() == default
