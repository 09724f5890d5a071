"""The benchmark's traced mode (``perfbench/run.py --trace 1``) against this
package: its tracer wraps layer functions and counts ``numpy.linalg.eigvalsh``
calls, which only works if the pipeline looks the solver up at call time.
Beside it, the numpy calls the small commands must not make."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

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
    # fig6b's qutrit states have 3 x 3 blocks; the entry check's one complex
    # block reaches eigvalsh (1 x 1, 2 x 2 and real 3 x 3 blocks, such as
    # its stacks of 243 points hold, are solved in closed form).
    tracer = _load_tracer().Tracer()
    eigvalsh = np.linalg.eigvalsh
    tracer.install()
    try:
        code = tracer.pass_span(lambda: cli.main(["figure", "fig6b", "--out-dir",
                                                  str(tmp_path)]))
    finally:
        tracer.uninstall()
    assert code == 0
    assert np.linalg.eigvalsh is eigvalsh
    summary = tracer.summary()
    assert summary["numpy.eigvalsh.calls"] > 0
    assert summary["numpy.kron.calls"] == 0


def test_small_commands_build_index_sets_without_isin_or_unique(monkeypatch, tmp_path):
    # Index sets are boolean masks over the d^2 flat positions, read back in
    # order; no command of a single operating point or a line preset sorts
    # or searches an index array through numpy.isin or numpy.unique.
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.isin / numpy.unique called")

    monkeypatch.setattr(np, "isin", forbidden)
    monkeypatch.setattr(np, "unique", forbidden)
    for argv in (["state", "--preset", "singlet", "--r", "0.3", "--alpha", "0.2"],
                 ["state", "--preset", "qutrit:1", "--r", "0.3", "--alpha", "0.2",
                  "--beta", "0.5"],
                 ["figure", "fig4b", "--out-dir", str(tmp_path)],
                 ["figure", "fig6b", "--out-dir", str(tmp_path)],
                 ["validate", "--samples", "50", "--out-dir", str(tmp_path)]):
        assert cli.main(argv) == 0, argv


@pytest.mark.parametrize("preset", ["fig2a", "fig6b"])
def test_figure_solves_no_real_block_through_eigvalsh(monkeypatch, tmp_path, preset):
    # fig2a's real stacks (one chunk of 6,400 points) and fig6b's (243
    # points) have real 3 x 3 blocks, which are solved in closed form at
    # any stack size.  Only the entry check of qutrit:1, one complex 3 x 3
    # block, reaches eigvalsh.
    calls, eigvalsh = [], np.linalg.eigvalsh

    def spy(a):
        calls.append((a.shape, a.dtype))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    assert cli.main(["figure", preset, "--out-dir", str(tmp_path)]) == 0
    assert calls == [((1, 3, 3), np.dtype(np.complex128))]
