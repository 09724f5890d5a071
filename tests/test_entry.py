"""Where initial states are checked: once where they enter, and never again
before the exit check.

A preset is checked when it is parsed, into a strict ``DensityMatrix``
that carries its checked held form; ``prepare`` runs that form as it is
and checks every other input it accepts (matrices, a stack of them, a
non-strict ``DensityMatrix``).
"""

import numpy as np
import pytest

from unruhlab import cli, measures, pipeline, states, sweep, tensor
from unruhlab.cli import main
from unruhlab.errors import NotPositive
from unruhlab.states import singlet
from unruhlab.sweep import TWO_QUBIT, WEAK_REVERSE_SPLIT, SweepConfig, grid_inputs
from unruhlab.tensor import DensityMatrix


def _counting(monkeypatch, name, modules):
    """Count the calls of ``name`` through every module in ``modules`` that
    could bind it; returns the list that grows by one a call."""
    calls, fn = [], getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting, raising=False)
    return calls


@pytest.mark.parametrize("argv", [
    ["--preset", "x:-0.5,-0.2,0.3", "--r", "0.2", "--alpha", "0.3", "--beta", "0.6"],
    ["--preset", "qutrit:1", "--accel", "3.0", "--omega", "1.0", "--alpha", "0.5"],
    ["--preset", "werner:0.9", "--r", "0.4", "--beta", "0.2", "--out", "state.csv"],
], ids=["qubit", "qutrit", "out"])
def test_state_parses_its_preset_once_and_checks_it_twice(tmp_path, monkeypatch, capsys, argv):
    # One parse: `state` parses its preset in cli and hands that state,
    # with a one-row strength table and no config, to propagate, so no
    # label is parsed again in sweep or states.  Two checks: the entry
    # check, which the strict DensityMatrix runs when the preset is parsed
    # (prepare runs its held form as it is), and the exit check of the one
    # chunk that holds the one point.  --out writes the exit check's state
    # and checks nothing more.
    monkeypatch.chdir(tmp_path)
    parses = _counting(monkeypatch, "parse_state_preset", (cli,))
    config_parses = _counting(monkeypatch, "parse_state_preset", (sweep, states))
    checks = _counting(monkeypatch, "check_held",
                       (tensor, states, pipeline, measures, sweep, cli))
    assert main(["state", *argv]) == 0
    assert capsys.readouterr().out.startswith("r = ")
    assert (len(parses), len(config_parses), len(checks)) == (1, 0, 2)
    if "--out" in argv:
        assert (tmp_path / "state.csv").read_text(encoding="utf-8").startswith("i,j,re,im\n")


def _hiding_grid():
    """A unit-trace Hermitian state that is negative on |01> and |10>, and
    a point whose strength-1 weak filter keeps only |00>: no state after
    the weak step is negative, so only the entry check can reject it."""
    rho0 = np.diag([1.2, -0.1, -0.1, 0.0]).astype(complex)
    config = SweepConfig(TWO_QUBIT, ("singlet",), (0.3,), (1.0,),
                         tie_policy=WEAK_REVERSE_SPLIT, beta=0.0)
    inputs = grid_inputs(config)
    weak = inputs[1][0]
    assert (weak * rho0.diagonal().real * weak >= 0.0).all()
    return rho0, inputs


@pytest.mark.parametrize("route", ["matrix", "stack", "non_strict"])
@pytest.mark.parametrize("entry", ["prepare", "propagate"])
def test_no_unchecked_state_reaches_the_engine(route, entry):
    rho0, inputs = _hiding_grid()
    given = {"matrix": rho0, "stack": rho0[None],
             "non_strict": DensityMatrix(rho0, (2, 2), strict=False)}[route]
    with pytest.raises(NotPositive):
        getattr(pipeline, entry)(given, (2, 2), *inputs)


def test_a_strict_state_is_refused_where_it_is_built_and_stays_checked():
    rho0, _ = _hiding_grid()
    with pytest.raises(NotPositive):
        DensityMatrix(rho0, (2, 2))
    held = singlet().held
    with pytest.raises(ValueError, match="read-only"):
        held.values[0] = 2.0


def test_prepare_checks_a_non_strict_state():
    # Non-strict states are not normalised: prepare checks them as it would
    # a matrix, and refuses this one by its trace.
    unnormalised = DensityMatrix(2.0 * singlet().matrix, (2, 2), strict=False)
    _, inputs = _hiding_grid()
    with pytest.raises(ValueError, match="trace"):
        pipeline.prepare(unnormalised, (2, 2), *inputs)


@pytest.mark.parametrize("preset", ["x:1,1,1", "werner:-0.5"])
@pytest.mark.parametrize("command", ["state", "sweep"])
def test_a_non_physical_preset_exits_2_before_the_engine(tmp_path, monkeypatch, capsys, preset,
                                                         command):
    # Both triples lie in [-1, 1] but give a negative eigenvalue; the parse
    # refuses them, so prepare never runs.
    monkeypatch.chdir(tmp_path)
    prepared = _counting(monkeypatch, "prepare", (pipeline, sweep))
    if command == "state":
        argv = ["state", "--preset", preset, "--r", "0.1", "--out", "out.csv"]
    else:
        (tmp_path / "sweep.ini").write_text(
            f"[sweep]\nsystem = two_qubit\ninitial_state = {preset}\nr_grid = 0:0.5:3\n"
            "strength_grid = 0:0.5:3\n", encoding="utf-8")
        argv = ["sweep", "--config", "sweep.ini", "--out", "out.csv"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert preset in captured.err and "negative eigenvalue" in captured.err
    assert captured.out == ""
    assert prepared == []
    assert not (tmp_path / "out.csv").exists()
