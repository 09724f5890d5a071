"""The `state` and `validate` commands on the batched pipeline, against the
scalar Kraus pipeline in ``tests/oracle.py`` and against a one-point sweep,
and the package's exports."""

import ast
import errno
from pathlib import Path

import numpy as np
import pytest

import unruhlab
from oracle import (AccelerationSpec, MeasurementStrengths, _random_x_spec,
                    corrected_final_qubit, run_protocol, tied)
from unruhlab import cli, pipeline, sweep, validate
from unruhlab.channel import r_from_acceleration
from unruhlab.cli import main
from unruhlab.localops import REVERSE, WEAK
from unruhlab.measures import MEASURE_COLUMNS
from unruhlab.states import parse_state_preset, x_state
from unruhlab.sweep import TWO_QUBIT, TWO_QUTRIT, WEAK_REVERSE_SPLIT, SweepConfig, run_sweep
from unruhlab.validate import run_validation

TOL = 1e-12

STATE_CASES = [     # preset, (acceleration, omega) or None, r, alpha, beta, phi
    ("x:-0.5,-0.2,0.3", None, 0.2, 0.3, 0.6, 0.0),
    ("qutrit:1", None, 0.7, 0.8, 0.3, 0.0),
    ("qutrit:1", (3.0, 1.0), None, 0.5, 0.5, 0.4),
    ("werner:0.9", (8.0, 0.5), None, 0.1, 0.9, 1.2),
]


def _state_argv(out, preset, accel, r, alpha, beta, phi) -> list[str]:
    where = (["--r", repr(r)] if accel is None
             else ["--accel", repr(accel[0]), "--omega", repr(accel[1])])
    return ["state", "--preset", preset, *where, "--alpha", repr(alpha),
            "--beta", repr(beta), "--phi", repr(phi), "--out", str(out)]


@pytest.mark.parametrize("preset, accel, r, alpha, beta, phi", STATE_CASES)
def test_state_matches_oracle(tmp_path, capsys, preset, accel, r, alpha, beta, phi):
    out = tmp_path / "state.csv"
    assert main(_state_argv(out, preset, accel, r, alpha, beta, phi)) == 0
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


@pytest.mark.parametrize("preset, accel, r, alpha, beta, phi", STATE_CASES)
def test_state_is_exactly_a_one_point_sweep(tmp_path, capsys, monkeypatch, preset, accel, r,
                                            alpha, beta, phi):
    # `state` and a sweep of the one point share the engine and its inputs,
    # so they give the same bits: %.17g round-trips a float exactly.
    out = tmp_path / "state.csv"
    assert main(_state_argv(out, preset, accel, r, alpha, beta, phi)) == 0
    lines = capsys.readouterr().out.splitlines()

    if accel is not None:
        r = r_from_acceleration(*accel)
    system = TWO_QUTRIT if preset.startswith("qutrit") else TWO_QUBIT
    config = SweepConfig(system, (preset,), (r,), (alpha,), tie_policy=WEAK_REVERSE_SPLIT,
                         beta=beta, phi=phi)
    propagated, propagate_points = [], sweep.propagate_points

    def recording(grid, rows, cols):
        propagated.append(propagate_points(grid, rows, cols))
        return propagated[-1]

    monkeypatch.setattr(sweep, "propagate_points", recording)
    measures = run_sweep(config)
    (swept,) = propagated
    assert list(swept.kept) == [0]
    p_success = float(lines[1].removeprefix("p_success = "))
    assert p_success == measures[0, MEASURE_COLUMNS.index("p_success")] == swept.p_success[0]

    final = swept.states[0]
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == final.size
    for k, row in enumerate(rows):
        i, j, re, im = row.split(",")
        assert (int(i), int(j)) == divmod(k, len(final))
        assert (float(re), float(im)) == (final[int(i), int(j)].real, final[int(i), int(j)].imag)


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


# (preset, the error message): presets that parse to no state, each
# rejected where it is parsed, with exit 2, by `state` and by a sweep INI.
# Kept apart from _BAD_STATE_ARGUMENTS, whose every entry tools/golden.py
# fingerprints.
_BAD_PRESETS = [
    ("x:1,1,1", "cannot parse state preset 'x:1,1,1': negative eigenvalue -5.000e-01"),
    ("werner:-0.5", "cannot parse state preset 'werner:-0.5': negative eigenvalue -1.250e-01"),
    ("werner:2", "cannot parse state preset 'werner:2': X-state coefficient -2.0 outside [-1, 1]"),
    ("x:1.5,0,0",
     "cannot parse state preset 'x:1.5,0,0': X-state coefficient 1.5 outside [-1, 1]"),
    ("x:0,0", "'x:' needs three coefficients, got 'x:0,0'"),
    ("qutrit:nan", "cannot parse state preset 'qutrit:nan': gamma=nan is not finite"),
    ("qutrit:inf", "cannot parse state preset 'qutrit:inf': gamma=inf is not finite"),
    ("singlet:0.5", "'singlet' takes no argument, got 'singlet:0.5'"),
    ("bell", "unknown state preset 'bell'"),
]


@pytest.mark.parametrize("preset, message", _BAD_PRESETS)
def test_bad_preset_exits_2_with_its_message(tmp_path, capsys, preset, message):
    code = main(["state", "--preset", preset, "--r", "0.1", "--out", str(tmp_path / "s.csv")])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
    (tmp_path / "sweep.ini").write_text(
        f"[sweep]\nsystem = two_qubit\ninitial_state = {preset}\nr_grid = 0:0.5:3\n"
        "strength_grid = 0:0.5:3\ntie_policy = all_equal\n", encoding="utf-8")
    code = main(["sweep", "--config", str(tmp_path / "sweep.ini"),
                 "--out", str(tmp_path / "s.csv")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {message} (field 'initial_state')\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.ini"]


def test_qutrit_gamma_whose_square_overflows_exits_2(tmp_path, capsys):
    # 2 + gamma^2 is infinite: the error names gamma, not the zero trace
    # of the ket it would give
    code = main(["state", "--preset", "qutrit:1e200", "--r", "0.1",
                 "--out", str(tmp_path / "s.csv")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error: cannot parse state preset 'qutrit:1e200': "
                            "gamma=1e+200 is too large: 2 + gamma^2 overflows\n")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("preset", ["x:1,1,1", "werner:-0.5"])
def test_state_non_physical_preset_exits_2(tmp_path, capsys, preset):
    # Both coefficient triples lie in [-1, 1] but give an eigenvalue -1/2
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


@pytest.mark.parametrize("samples", [sweep.GRID_POINT_BUDGET + 1, 10**12])
def test_validate_samples_above_the_grid_budget_exit_2(monkeypatch, tmp_path, capsys, samples):
    # A sweep's grid has the same bound; nothing is drawn or allocated.
    def drawing(*args, **kwargs):
        raise AssertionError("samples were drawn")

    monkeypatch.setattr(cli, "run_validation", drawing)
    monkeypatch.setattr(validate, "_draw", drawing)
    code = main(["validate", "--samples", str(samples), "--out-dir", str(tmp_path / "v")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"error: --samples must be at most {sweep.GRID_POINT_BUDGET}, "
                            f"got {samples}\n")
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
    ["sweep", "--config", "{dir}/sweep.ini", "--out", "{dir}/sdir/"],
    ["sweep", "--config", "{dir}/sweep.ini", "--out", "{dir}/sdir/."],
    ["state", "--preset", "singlet", "--r", "0.3", "--out", "{dir}/x/"],
    ["figure", "fig4b", "--out-dir", "{dir}/afile"],
    ["validate", "--out-dir", "{dir}/afile"],
])
def test_unwritable_output_exits_2_before_the_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before the output was checked")

    for name in ("run_sweep", "run_validation", "propagate"):
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


@pytest.mark.parametrize("argv, taken", [
    (["figure", "fig4b", "--out-dir", "{dir}"], "plot_fig4b.py"),
    (["figure", "fig4b", "--out-dir", "{dir}"], "fig4b.csv"),
    (["validate", "--samples", "10", "--out-dir", "{dir}"], "report.txt"),
], ids=["figure_plot", "figure_csv", "validate_report"])
def test_an_output_name_that_is_a_directory_exits_2_before_the_work(tmp_path, capsys,
                                                                    monkeypatch, argv, taken):
    # Every name a command writes into --out-dir is checked with the
    # directory, so no output is written and nothing runs.
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before the output was checked")

    for name in ("run_sweep", "run_validation"):
        monkeypatch.setattr(cli, name, no_work)
    (tmp_path / taken).mkdir()
    code = main([arg.format(dir=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: cannot write output file {tmp_path / taken}\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == [taken]
    assert list((tmp_path / taken).iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sweep", "--config", "{dir}/sweep.ini", "--out", "{dir}/{long}"],
    ["state", "--preset", "singlet", "--r", "0.3", "--out", "{dir}/{long}"],
    ["figure", "fig4b", "--out-dir", "{dir}/{long}"],
    ["validate", "--out-dir", "{dir}/{long}"],
])
def test_an_output_name_the_os_refuses_exits_2(tmp_path, capsys, argv):
    # A 300-byte name is longer than any common file system allows, so
    # looking it up fails with ENAMETOOLONG.
    (tmp_path / "sweep.ini").write_text(
        "[sweep]\nsystem = two_qubit\ninitial_state = singlet\nr_grid = 0.2\n"
        "strength_grid = 0.5\n", encoding="utf-8")
    code = main([arg.format(dir=tmp_path, long="x" * 300) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot write output ")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.ini"]


def test_a_long_output_name_is_written_as_a_short_one_is(tmp_path, capsys):
    # A 254-byte name is within the common 255-byte limit, so it passes the
    # output check; the temporary file written beside it must fit too.
    (tmp_path / "sweep.ini").write_text(
        "[sweep]\nsystem = two_qubit\ninitial_state = singlet\nr_grid = 0:0.7:3\n"
        "strength_grid = 0.2, 0.5\n", encoding="utf-8")
    names = "short.csv", "a" * 250 + ".csv"
    for name in names:
        assert main(["sweep", "--config", str(tmp_path / "sweep.ini"),
                     "--out", str(tmp_path / name)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / names[1]).read_bytes() == (tmp_path / names[0]).read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*names, "sweep.ini"])


def test_every_command_builds_its_engine_inputs_in_one_place(tmp_path, monkeypatch, capsys):
    # Each caller looks engine_inputs up in its own module, so each of those
    # names is spied on: patching unruhlab.pipeline alone would miss them.
    calls = []

    def spy(where):
        def recording(*args):
            calls.append(where)
            return pipeline.engine_inputs(*args)
        return recording

    for module in (sweep, cli, validate):
        monkeypatch.setattr(module, "engine_inputs", spy(module.__name__.rsplit(".", 1)[1]))
    (tmp_path / "sweep.ini").write_text(
        "[sweep]\nsystem = two_qutrit\ninitial_state = qutrit:1, qutrit:0.5\n"
        "r_grid = 0:0.7:3\nstrength_grid = 0.2, 0.5\n", encoding="utf-8")
    for argv, want in (
            (["sweep", "--config", str(tmp_path / "sweep.ini"), "--out", str(tmp_path / "o.csv")],
             ["sweep"]),
            (["figure", "fig4b", "--out-dir", str(tmp_path)], ["sweep"]),
            (["state", "--preset", "qutrit:1", "--r", "0.3", "--alpha", "0.2"], ["cli"]),
            # the sampled check's one chunk, then the two anchors' sweeps and
            # the qutrit literal point's inputs
            (["validate", "--samples", "10"], ["validate", "sweep", "sweep", "sweep"])):
        calls.clear()
        assert main(argv) == 0
        assert calls == want, argv


def test_an_os_error_while_writing_is_reported_with_exit_1(tmp_path, capsys, monkeypatch):
    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", disk_full)
    code = main(["figure", "fig4b", "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


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
        piped = run_protocol(x_state(*spec), weak, reverse, acc).final
        worst = max(worst, float(np.max(np.abs(closed.matrix - piped.matrix))))
    return worst


@pytest.mark.parametrize("seed", [7, 20240801])
def test_batched_closed_form_check_matches_oracle_loop(monkeypatch, seed):
    monkeypatch.setattr(validate, "CHUNK_POINTS", 512)   # 600 samples: two chunks
    samples = 600     # two chunks of qubit points
    check = run_validation(seed=seed, samples=samples).checks[0]
    assert check.name == "corrected_closed_form_vs_pipeline"
    assert check.passed
    assert abs(check.value - _oracle_corrected_vs_pipeline(seed, samples)) <= 1e-15


def test_closed_form_check_sees_every_chunk(monkeypatch):
    # Shift the closed-form state of sample 550, in the second chunk, by
    # diag(1e-9, -1e-9, 0, 0): the check must fail on it, by that amount.
    # The first check is the first caller, so its 600 samples come first.
    monkeypatch.setattr(validate, "CHUNK_POINTS", 512)   # 600 samples: two chunks
    closed_forms = validate._closed_forms
    rows, shifted_r = [], []

    def shifted(c, weak, reverse, r, variant="corrected"):
        table, states = closed_forms(c, weak, reverse, r, variant)
        i = 550 - sum(rows)
        rows.append(len(states))
        if 0 <= i < len(states):
            states = states.copy()
            states[i] += np.diag([1e-9, -1e-9, 0.0, 0.0])
            shifted_r.append(r[i])
        return table, states

    monkeypatch.setattr(validate, "_closed_forms", shifted)
    check = validate.run_validation(seed=7, samples=600).checks[0]
    assert rows[:2] == [512, 600 - 512]
    assert len(shifted_r) == 1
    assert check.passed is False
    assert abs(check.value - 1e-9) <= 1e-15
    assert check.detail.endswith(f"r={shifted_r[0]:.4f}")


def test_every_exported_name_resolves():
    assert len(set(unruhlab.__all__)) == len(unruhlab.__all__)
    for name in unruhlab.__all__:
        assert getattr(unruhlab, name) is not None, name


def _top_level_names(tree: ast.Module) -> list[str]:
    """The names a module's top-level defs, classes and assignments bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                names += [t.id for t in getattr(target, "elts", [target]) if isinstance(t, ast.Name)]
    return names


def test_every_public_name_is_read_in_src_or_exported():
    # A public top-level name of the package that no module reads (as a
    # name or an attribute) and that the package does not export is dead.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(unruhlab.__file__).parent.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{module}.{name}" for module, tree in trees.items()
              for name in _top_level_names(tree)
              if not name.startswith("_") and name not in read and name not in unruhlab.__all__]
    assert unread == []
