"""The outputs under numpy's baseline kernels agree with this CPU's own.

numpy picks some float64 kernels (``log2`` in ``shannon_entropy``,
``arccos`` in the real 3 x 3 spectra, ``exp`` and ``arctan`` in
``r_from_acceleration``) by the CPU's SIMD features when it is imported,
and their last bits differ between targets.  A child process started
with ``NPY_DISABLE_CPU_FEATURES`` naming every dispatch target this CPU
runs uses the baseline kernels; it runs 12 x 12 sub-grids of fig1a and
fig2a, fig4b and two ``state`` points, and its answers must match this
process's: the same rows, degenerate rows and blank cells, and every
number within ``BOUND``.
"""

import contextlib
import dataclasses
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import unruhlab
from unruhlab.cli import main
from unruhlab.sweep import figure_preset, run_sweep

# Between the baseline kernels and AVX-512, every preset's cells moved by
# at most 4.44e-16: one unit in the last place at [2, 4), where the
# largest entropies (up to log2 12 = 3.58 bits) lie.  A moved log2 moves
# each of an entropy's up to 12 terms p log2 p by under p ulp(log2 p), so
# the entropy by under H 2^-51 plus its own rounding, about 2 ulp of 4;
# I_coh_std is the difference of two of them.  8 ulp of [2, 4) covers
# that twice over.
BOUND = 8 * 4.44e-16

STATE_POINTS = {
    "state singlet --accel 8": ("--preset", "singlet", "--accel", "8", "--omega", "0.5",
                                "--alpha", "0.2", "--beta", "0.5"),
    "state qutrit:1 --r 0.3": ("--preset", "qutrit:1", "--r", "0.3",
                               "--alpha", "0.2", "--beta", "0.4"),
}


def _dispatch() -> list[str]:
    """The dispatch targets this process's numpy runs."""
    from numpy._core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def _sub_grid(name: str):
    """Every 7th r and strength of a surface preset: 12 x 12 points."""
    config = figure_preset(name)
    return dataclasses.replace(config, r_grid=config.r_grid[::7],
                               strength_grid=config.strength_grid[::7])


def _runs(tmp) -> dict[str, np.ndarray]:
    """Each sweep's measure rows, and each state point's printed r and
    p_success followed by its final state's entries."""
    runs = {name: run_sweep(config) for name, config in (
        ("fig1a sub-grid", _sub_grid("fig1a")), ("fig2a sub-grid", _sub_grid("fig2a")),
        ("fig4b", figure_preset("fig4b")))}
    for name, argv in STATE_POINTS.items():
        out = Path(tmp) / "state.csv"
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert main(["state", *argv, "--out", str(out)]) == 0
        printed = dict(line.split(" = ") for line in text.getvalue().splitlines()[:2])
        entries = np.loadtxt(out, delimiter=",", skiprows=1)[:, 2:].ravel()
        runs[name] = np.concatenate(([float(printed["r"]), float(printed["p_success"])], entries))
    return runs


def test_baseline_kernels_give_the_same_answers_within_the_bound(tmp_path):
    targets = _dispatch()
    if not targets:
        pytest.skip("numpy runs no dispatch target above its baseline on this CPU, "
                    "so there is nothing to compare")
    paths = (Path(unruhlab.__file__).parents[1], Path(__file__).parent)
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
           "PYTHONPATH": os.pathsep.join(map(str, paths))}
    child = tmp_path / "child.npz"
    code = ("import sys, numpy as np, test_dispatch as t\n"
            "np.savez(sys.argv[1], **t._runs(sys.argv[2]))\n"
            "print(' '.join(t._dispatch()))\n")
    done = subprocess.run([sys.executable, "-c", code, str(child), str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert not set(done.stdout.split()) & set(targets)     # the child ran the baseline
    got, want = np.load(child), _runs(tmp_path)
    assert sorted(got) == sorted(want)
    for name, rows in want.items():
        assert got[name].shape == rows.shape, name      # the same rows
        # degenerate rows are NaN throughout, blank cells NaN alone
        assert np.array_equal(np.isnan(got[name]), np.isnan(rows)), name
        moved = np.abs(got[name] - rows)[~np.isnan(rows)]
        assert moved.max(initial=0.0) <= BOUND, (name, moved.max())
