"""The `state` and `validate` commands on the batched pipeline, against the
scalar Kraus pipeline in ``tests/oracle.py``, and the package's exports."""

import numpy as np
import pytest

import unruhlab
from oracle import _random_x_spec, run_protocol
from unruhlab import cli, pipeline, validate
from unruhlab.channel import AccelerationSpec, r_from_acceleration
from unruhlab.cli import main
from unruhlab.closedform import corrected_final_qubit
from unruhlab.localops import MeasurementStrengths, REVERSE, WEAK, tied
from unruhlab.states import make_x_state, parse_state_preset
from unruhlab.validate import run_validation

TOL = 1e-12


@pytest.mark.parametrize("preset, accel, r, alpha, beta, phi", [
    ("x:-0.5,-0.2,0.3", None, 0.2, 0.3, 0.6, 0.0),
    ("qutrit:1", None, 0.7, 0.8, 0.3, 0.0),
    ("qutrit:1", (3.0, 1.0), None, 0.5, 0.5, 0.4),
    ("werner:0.9", (8.0, 0.5), None, 0.1, 0.9, 1.2),
])
def test_state_matches_oracle(tmp_path, capsys, preset, accel, r, alpha, beta, phi):
    out = tmp_path / "state.csv"
    where = (["--r", repr(r)] if accel is None
             else ["--accel", repr(accel[0]), "--omega", repr(accel[1])])
    argv = ["state", "--preset", preset, *where, "--alpha", repr(alpha),
            "--beta", repr(beta), "--phi", repr(phi), "--out", str(out)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()

    rho0 = parse_state_preset(preset)
    dim = rho0.dims[0]
    if accel is not None:
        r = r_from_acceleration(*accel)
    want = run_protocol(rho0, tied(WEAK, alpha, dim), tied(REVERSE, beta, dim),
                        AccelerationSpec(r, phi))
    assert lines[0] == f"r = {r:.17g}"
    assert lines[1].startswith("p_success = ")
    assert abs(float(lines[1].split("=")[1]) - want.p_success) <= TOL
    assert lines[2] == f"final dims = {want.final.dims}"
    assert lines[3] == f"wrote {out}"

    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows[0] == "i,j,re,im"
    n = want.final.dim
    assert len(rows) == 1 + n * n
    for k, row in enumerate(rows[1:]):
        i, j, re, im = row.split(",")
        assert (int(i), int(j)) == divmod(k, n)
        v = want.final.matrix[int(i), int(j)]
        assert abs(float(re) - v.real) <= TOL and abs(float(im) - v.imag) <= TOL


def test_state_degenerate_point_exits_1(tmp_path, capsys):
    out = tmp_path / "state.csv"
    code = main(["state", "--preset", "singlet", "--r", "0.3", "--alpha", "1",
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("degenerate point: ")
    assert captured.out == ""
    assert not out.exists()


def test_state_omega_without_accel_exits_2(tmp_path, capsys):
    out = tmp_path / "state.csv"
    code = main(["state", "--preset", "singlet", "--r", "0.3", "--alpha", "0.2",
                 "--omega", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "--omega" in captured.err
    assert captured.out == ""
    assert not out.exists()


_BAD_STATE_ARGUMENTS = [    # (arguments, the option they make bad, the error message)
    (["--r", "0.3", "--alpha", "1.5"], "--alpha", "--alpha: strength 1.5 outside [0, 1]"),
    (["--r", "0.3", "--alpha", "nan"], "--alpha", "--alpha: strength nan outside [0, 1]"),
    (["--r", "0.3", "--beta", "-0.1"], "--beta", "--beta: strength -0.1 outside [0, 1]"),
    (["--r", "2"], "--r", "--r: r=2.0 outside [0, pi/4]"),
    (["--r", "nan"], "--r", "--r: r=nan outside [0, pi/4]"),
    (["--r", "0.3", "--phi", "nan"], "--phi", "--phi: phi=nan is not finite"),
    (["--accel", "-1", "--omega", "1"], "--accel",
     "--accel: acceleration must be positive, got -1.0"),
    (["--accel", "1", "--omega", "0"], "--omega",
     "--omega: omega must be positive and finite, got 0.0"),
    (["--accel", "1"], "--accel", "--accel requires --omega"),
    (["--r", "0.3", "--beta", "1.5"], "--beta", "--beta: strength 1.5 outside [0, 1]"),
    (["--accel", "-1", "--omega", "0"], "--omega",
     "--omega: omega must be positive and finite, got 0.0"),
]


# Each case is named by its message without the option's prefix.
@pytest.mark.parametrize("where, option, message", _BAD_STATE_ARGUMENTS,
                         ids=[f"where{i}-{message.removeprefix(option + ': ')}"
                              for i, (_, option, message) in enumerate(_BAD_STATE_ARGUMENTS)])
def test_state_bad_argument_exits_2(tmp_path, capsys, where, option, message):
    # The values a sweep INI rejects with exit 2 are bad configuration on
    # the command line too, nothing is written, and the error names the
    # option that holds the bad value.
    out = tmp_path / "state.csv"
    code = main(["state", "--preset", "singlet", *where, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert option in captured.err
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("preset", ["x:1,1,1", "werner:-0.5"])
def test_state_non_physical_preset_exits_2(tmp_path, capsys, preset):
    # Both coefficient triples lie in [-1, 1] but give an eigenvalue -1/4
    # (x:1,1,1) or -1/8 (werner:-0.5): bad configuration, not a failed run.
    out = tmp_path / "state.csv"
    code = main(["state", "--preset", preset, "--r", "0.1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert preset in captured.err and "negative eigenvalue" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_non_physical_x_state_exits_2(tmp_path, capsys):
    (tmp_path / "sweep.ini").write_text(
        "[sweep]\nsystem = two_qubit\ninitial_state = x:1,1,1\nr_grid = 0:0.5:3\n"
        "strength_grid = 0:0.5:3\ntie_policy = all_equal\n", encoding="utf-8")
    out = tmp_path / "s.csv"
    code = main(["sweep", "--config", str(tmp_path / "sweep.ini"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "x:1,1,1" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.ini"]


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_validate_non_positive_samples_exits_2(tmp_path, capsys, samples):
    code = main(["validate", "--samples", samples, "--out-dir", str(tmp_path / "v")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "--samples" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "v").exists()


def test_validate_negative_seed_exits_2(tmp_path, capsys):
    code = main(["validate", "--seed", "-1", "--out-dir", str(tmp_path / "v")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "--seed" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "{dir}/sweep.ini", "--out", "{dir}/nodir/s.csv"],
    ["state", "--preset", "singlet", "--r", "0.3", "--out", "{dir}/nodir/x.csv"],
    ["figure", "fig4b", "--out-dir", "{dir}/afile"],
    ["validate", "--out-dir", "{dir}/afile"],
])
def test_unwritable_output_exits_2_before_the_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before the output was checked")

    for name in ("run_sweep", "run_validation", "propagate_point"):
        monkeypatch.setattr(cli, name, no_work)
    (tmp_path / "sweep.ini").write_text(
        "[sweep]\nsystem = two_qubit\ninitial_state = singlet\nr_grid = 0:0.5:3\n"
        "strength_grid = 0:0.5:3\ntie_policy = all_equal\n", encoding="utf-8")
    (tmp_path / "afile").write_text("kept\n", encoding="utf-8")
    code = main([arg.format(dir=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "sweep.ini"]
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept\n"


def _oracle_corrected_vs_pipeline(seed: int, samples: int) -> float:
    """The scalar loop the check ran before it was batched, on the same draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        spec = _random_x_spec(rng)
        alphas = rng.uniform(0.0, 0.95, size=2)
        betas = rng.uniform(0.0, 0.95, size=2)
        r = rng.uniform(0.0, np.pi / 4)
        phi = rng.uniform(0.0, 2 * np.pi)
        weak = MeasurementStrengths(WEAK, (alphas[0],), (alphas[1],))
        reverse = MeasurementStrengths(REVERSE, (betas[0],), (betas[1],))
        acc = AccelerationSpec(r, phi)
        closed = corrected_final_qubit(spec, weak, reverse, acc)
        piped = run_protocol(make_x_state(spec), weak, reverse, acc).final
        worst = max(worst, float(np.max(np.abs(closed.matrix - piped.matrix))))
    return worst


# 512 qubit points a chunk, so that 600 samples span two chunks.
TWO_CHUNKS = 512 * 16 * 4 * 4


@pytest.mark.parametrize("seed", [7, 20240801])
def test_batched_closed_form_check_matches_oracle_loop(monkeypatch, seed):
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", TWO_CHUNKS)
    samples = 600     # two chunks of qubit points
    check = run_validation(seed=seed, samples=samples).checks[0]
    assert check.name == "corrected_closed_form_vs_pipeline"
    assert check.passed
    assert abs(check.value - _oracle_corrected_vs_pipeline(seed, samples)) <= 1e-15


def test_closed_form_check_sees_every_chunk(monkeypatch):
    # Shift the closed-form state of sample 550, in the second chunk, by
    # diag(1e-9, -1e-9, 0, 0): the check must fail on it, by that amount.
    # The first check is the first caller, so its 600 samples come first.
    monkeypatch.setattr(pipeline, "CHUNK_BYTES", TWO_CHUNKS)
    closed_forms = validate._closed_forms
    rows, shifted_r = [], []

    def shifted(c, weak, reverse, r, variant="corrected"):
        table, states, spectra = closed_forms(c, weak, reverse, r, variant)
        i = 550 - sum(rows)
        rows.append(len(states))
        if 0 <= i < len(states):
            states = states.copy()
            states[i] += np.diag([1e-9, -1e-9, 0.0, 0.0])
            shifted_r.append(r[i])
        return table, states, spectra

    monkeypatch.setattr(validate, "_closed_forms", shifted)
    check = validate.run_validation(seed=7, samples=600).checks[0]
    assert rows[:2] == [validate.chunk_points(4), 600 - validate.chunk_points(4)]
    assert len(shifted_r) == 1
    assert check.passed is False
    assert abs(check.value - 1e-9) <= 1e-15
    assert check.detail.endswith(f"r={shifted_r[0]:.4f}")


def test_every_exported_name_resolves():
    assert len(set(unruhlab.__all__)) == len(unruhlab.__all__)
    for name in unruhlab.__all__:
        assert getattr(unruhlab, name) is not None, name
