"""No output depends on the channel phase phi.

The qutrit channel puts one uniform power of e^{i phi} on each Kraus
operator, which leaves the map unchanged (the unitary freedom of the
operator-sum form), so the engine's inputs carry no phase: ``sweep``
writes the same CSV bytes and ``state`` prints and writes the same bytes
at every phi as at phi = 0, and both run in float64.  ``phi`` is still
read, and checked for finiteness where it enters by one check,
``channel.check_phase``.  That the engine agrees with the
scalar pipeline of ``tests/oracle.py``, which keeps the phase, at
phi != 0 is checked in ``test_engine.py`` and ``test_commands.py``.
"""

import numpy as np
import pytest

import oracle
from unruhlab import channel, cli, sweep
from unruhlab.cli import main
from unruhlab.errors import BadPhysicalParam

PHASES = (0.7, np.pi, -4.0)

# r from 0 to pi/4 and strengths up to 1, so degenerate rows are swept too.
SWEEPS = {
    "qubit": "system = two_qubit\ninitial_state = singlet, werner:0.7, x:-0.5,-0.2,0.3\n",
    "qutrit full_4dim": "system = two_qutrit\ninitial_state = qutrit:1, qutrit:0.5\n"
                        "qutrit_compare_sector = full_4dim\n",
    "qutrit projected_3dim": "system = two_qutrit\ninitial_state = qutrit:1, qutrit:0.5\n"
                             "qutrit_compare_sector = projected_3dim\n",
}


def _fields(monkeypatch, module, name: str) -> list:
    """Record the dtype of every final state ``module.name`` returns."""
    seen, run = [], getattr(module, name)

    def spy(*args):
        out = run(*args)
        seen.append(out.held.dtype)
        return out

    monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("phi", PHASES, ids=str)
@pytest.mark.parametrize("name", SWEEPS)
def test_a_sweep_writes_the_same_bytes_at_every_phase(tmp_path, monkeypatch, name, phi):
    (tmp_path / "sweep.ini").write_text(
        "[sweep]\n" + SWEEPS[name] + "r_grid = 0:0.7853981633974483:12\n"
        "strength_grid = 0:1:12\n", encoding="utf-8")
    fields = _fields(monkeypatch, sweep, "propagate_points")
    csv = {}
    for phase in (0.0, phi):
        out = tmp_path / f"phi{phase}.csv"
        assert main(["sweep", "--config", str(tmp_path / "sweep.ini"),
                     "--set", f"phi={phase!r}", "--out", str(out)]) == 0
        csv[phase] = out.read_bytes()
    assert csv[phi] == csv[0.0]
    assert set(fields) == {np.dtype(np.float64)}


def test_state_prints_and_writes_the_same_bytes_at_every_phase(tmp_path, monkeypatch, capsys):
    fields = _fields(monkeypatch, cli, "propagate")
    outputs = {}
    for phase in ("0", "0.4"):
        out = tmp_path / f"phi{phase}.csv"
        assert main(["state", "--preset", "qutrit:1", "--accel", "3", "--omega", "1",
                     "--alpha", "0.5", "--beta", "0.5", "--phi", phase,
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        outputs[phase] = (printed, out.read_bytes())
    assert outputs["0.4"] == outputs["0"]
    assert fields == [np.dtype(np.float64)] * 2


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
def test_a_non_finite_phase_is_refused_by_one_check_where_it_enters(tmp_path, monkeypatch,
                                                                     capsys, phi):
    # channel.check_phase alone tests the phase: the sweep config, state's
    # --phi and the oracle's AccelerationSpec each call it, and each keeps
    # its own message and exit code.
    seen, check = [], channel.check_phase
    for module in (cli, sweep, oracle):
        monkeypatch.setattr(module, "check_phase", lambda v: seen.append(v) or check(v))
    (tmp_path / "sweep.ini").write_text(
        "[sweep]\nsystem = two_qutrit\ninitial_state = qutrit:1\nr_grid = 0.2\n"
        "strength_grid = 0.5\n", encoding="utf-8")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(tmp_path / "sweep.ini"), "--set", f"phi={phi}",
                 "--out", str(out)]) == 2
    assert main(["state", "--preset", "qutrit:1", "--r", "0.3", f"--phi={phi}"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: phi={phi} is not finite (field 'phi')", f"error: --phi: phi={phi} is not finite"]
    with pytest.raises(BadPhysicalParam, match=f"^phi={phi} is not finite$"):
        oracle.AccelerationSpec(0.3, float(phi))
    assert [str(v) for v in seen] == [phi] * 3 and not out.exists()
