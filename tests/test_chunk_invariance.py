"""A qubit point's answer does not depend on the chunk it runs in.

Sub-grids of fig1a and fig1b, and a sweep of the singlet and werner:0.7
with split strengths that reaches degenerate weak rows, give the same
measure bits and CSV bytes at ``CHUNK_POINTS`` of 1, 7, 80 and 8,192
points; and ``state --preset singlet`` prints the ``p_success`` text of
its fig1a row at seeded sample points.  A qubit state's sums run over at
most 4 entries, which numpy adds in sequence whatever their layout.  A
qutrit state's 12-entry sums add in an order that follows the chunk's
layout, so a qutrit point's last bits still depend on its chunk, and no
qutrit grid is checked here.
"""

import dataclasses
import random

import numpy as np
import pytest

from unruhlab import sweep
from unruhlab.channel import R_MAX
from unruhlab.cli import main
from unruhlab.measures import MEASURE_COLUMNS
from unruhlab.sweep import (TWO_QUBIT, WEAK_REVERSE_SPLIT, SweepConfig, figure_preset,
                            rows_to_csv, run_sweep)

CHUNK_POINTS = (1, 7, 80, 8192)


def _sub_grid(name: str) -> SweepConfig:
    """Every 7th r and strength of a surface preset: 12 x 12 points."""
    config = figure_preset(name)
    return dataclasses.replace(config, r_grid=config.r_grid[::7],
                               strength_grid=config.strength_grid[::7])


CONFIGS = {
    "fig1a": lambda: _sub_grid("fig1a"),
    "fig1b": lambda: _sub_grid("fig1b"),
    "singlet, werner:0.7": lambda: SweepConfig(
        TWO_QUBIT, ("singlet", "werner:0.7"), tuple(np.linspace(0.0, R_MAX, 11)),
        tuple(np.linspace(0.0, 1.0, 9)), tie_policy=WEAK_REVERSE_SPLIT, beta=0.6),
}


@pytest.mark.parametrize("name", CONFIGS)
def test_qubit_outputs_do_not_depend_on_the_chunk_size(monkeypatch, name):
    config = CONFIGS[name]()
    chunks = []
    propagate_points = sweep.propagate_points
    monkeypatch.setattr(sweep, "propagate_points",
                        lambda *args: chunks.append(1) or propagate_points(*args))
    outputs = {}
    for points in CHUNK_POINTS:
        monkeypatch.setattr(sweep, "CHUNK_POINTS", points)
        chunks.clear()
        measures = run_sweep(config)
        outputs[points] = (measures.tobytes(), rows_to_csv(measures, config))
        if points == 1:
            assert len(chunks) == len(measures)
    assert np.isnan(np.frombuffer(outputs[1][0])).any() == (name == "singlet, werner:0.7")
    for points in CHUNK_POINTS:
        assert outputs[points] == outputs[8192], points


def test_state_prints_the_p_success_of_its_fig1a_row(capsys):
    config = figure_preset("fig1a")
    p_success = run_sweep(config)[:, MEASURE_COLUMNS.index("p_success")]
    n_s = len(config.strength_grid)
    for index in random.Random(20261020).sample(range(len(p_success)), 60):
        i_r, i_s = divmod(index, n_s)
        r, s = config.r_grid[i_r], config.strength_grid[i_s]
        assert main(["state", "--preset", "singlet", "--r", repr(r),
                     "--alpha", repr(s), "--beta", repr(s)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"p_success = {p_success[index]:.17g}"
