"""The benchmark's traced mode (``perfbench/run.py --trace 1``) against this
package: its tracer wraps layer functions and counts ``numpy.linalg.eigvalsh``
calls, which only works if the pipeline looks the solver up at call time."""

import importlib.util
from pathlib import Path

import numpy as np

from unruhlab import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_state_command_counts_eigensolves_and_restores(capsys):
    tracer = _load_tracer().Tracer()
    eigvalsh = np.linalg.eigvalsh
    tracer.install()
    try:
        assert np.linalg.eigvalsh is not eigvalsh
        code = tracer.pass_span(lambda: cli.main(
            ["state", "--preset", "qutrit:1", "--r", "0.3", "--alpha", "0.2",
             "--beta", "0.5"]))
    finally:
        tracer.uninstall()
    assert code == 0
    assert "p_success = " in capsys.readouterr().out
    assert np.linalg.eigvalsh is eigvalsh
    summary = tracer.summary()
    assert summary["numpy.eigvalsh.calls"] > 0
    assert summary["cli.state.calls"] == 1


def test_traced_figure_solves_blocks_through_the_looked_up_solver(tmp_path):
    # The block spectra call numpy.linalg.eigvalsh by attribute at call time,
    # so the tracer's wrapper sees them; the batched pipeline builds no kron.
    tracer = _load_tracer().Tracer()
    eigvalsh = np.linalg.eigvalsh
    tracer.install()
    try:
        code = tracer.pass_span(lambda: cli.main(["figure", "fig4b", "--out-dir",
                                                  str(tmp_path)]))
    finally:
        tracer.uninstall()
    assert code == 0
    assert np.linalg.eigvalsh is eigvalsh
    summary = tracer.summary()
    assert summary["numpy.eigvalsh.calls"] > 0
    assert summary["numpy.kron.calls"] == 0
