"""What a command line run loads, and that it runs from a fresh interpreter.

pytest has imported the whole package before any test runs, so a missing
lazy import only shows in a new process: these tests start one.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unruhlab
from unruhlab import cli
from unruhlab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Names perfbench reads off ``unruhlab.cli``: the set-up probe calls the
# first three, and the tracer wraps the rest as its layers.
PERFBENCH_NAMES = ("figure_preset", "load_config", "parse_state_preset",
                   "_cmd_figure", "_cmd_sweep", "_cmd_validate", "_cmd_state",
                   "run_sweep", "rows_to_csv", "run_validation")

SWEEP_INI = ("[sweep]\nsystem = two_qutrit\ninitial_state = qutrit:1, qutrit:0.5\n"
             "r_grid = 0:0.7:4\nstrength_grid = 0:1:3\n"
             "qutrit_compare_sector = projected_3dim\n")

COMMANDS = {
    "figure": ["figure", "fig4b", "--out-dir", "figs"],
    "sweep": ["sweep", "--config", "sweep.ini", "--out", "sweep.csv"],
    "state": ["state", "--preset", "qutrit:1", "--accel", "3", "--omega", "1",
              "--alpha", "0.5", "--beta", "0.5", "--phi", "0.4", "--out", "state.csv"],
    "validate": ["validate", "--samples", "10", "--out-dir", "report"],
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True, check=True)
    return proc.stdout


def _loaded_after(statement: str) -> set[str]:
    out = _fresh(f"import sys\n{statement}\n"
                 "print('\\n'.join(m for m in sys.modules if m.startswith('unruhlab')))")
    return set(out.split())


def test_package_import_loads_no_submodule():
    assert _loaded_after("import unruhlab") == {"unruhlab"}


def test_cli_import_leaves_out_validate_and_closed_forms():
    loaded = _loaded_after("import unruhlab.cli")
    assert "unruhlab.cli" in loaded and "unruhlab.sweep" in loaded
    assert "unruhlab.validate" not in loaded
    assert "unruhlab.closedform" not in loaded


def test_cli_import_leaves_out_the_cell_formatter_and_exact_arithmetic():
    out = _fresh("import sys\nimport unruhlab.cli\n"
                 "print(' '.join(m for m in ('unruhlab.cellfmt', 'fractions', 'decimal')"
                 " if m in sys.modules))")
    assert out.split() == []


def test_rendering_loads_the_cell_formatter_but_no_exact_arithmetic():
    out = _fresh("import sys\nfrom unruhlab.sweep import figure_preset, rows_to_csv, run_sweep\n"
                 "config = figure_preset('fig4b')\nrows_to_csv(run_sweep(config), config)\n"
                 "print(' '.join(m for m in ('unruhlab.cellfmt', 'fractions', 'decimal')"
                 " if m in sys.modules))")
    assert out.split() == ["unruhlab.cellfmt"]


def test_exports_resolve_lazily_in_a_fresh_interpreter():
    out = _fresh(
        "import unruhlab\n"
        "listed = set(dir(unruhlab))\n"
        "for name in unruhlab.__all__:\n"
        "    value = getattr(unruhlab, name)\n"
        "    print(name, name in listed, vars(unruhlab)[name] is value)\n")
    assert out.split("\n") == [f"{name} True True" for name in unruhlab.__all__] + [""]


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        unruhlab.no_such_name  # noqa: B018


def test_perfbench_names_are_attributes_of_a_fresh_cli():
    out = _fresh("import unruhlab.cli as cli\n"
                 f"print(' '.join(n for n in {PERFBENCH_NAMES!r}"
                 " if not callable(vars(cli).get(n))))")
    assert out.split() == []


def test_wrapping_the_perfbench_names_sees_every_command(tmp_path, monkeypatch, capsys):
    # The tracer and the set-up probe replace these attributes; each
    # command must reach its work through them, or a layer reads zero.
    calls = dict.fromkeys(PERFBENCH_NAMES, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in PERFBENCH_NAMES:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.ini").write_text(SWEEP_INI, encoding="utf-8")
    for argv in COMMANDS.values():
        assert main(argv) == 0
    capsys.readouterr()
    assert [name for name, n in calls.items() if n == 0] == []


def _outputs(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_a_reused_parser_keeps_commands_independent(tmp_path, monkeypatch, capsys):
    # main builds its parser once a process, so an option given to one
    # call (--set's list, --out) must not reach the next: each run here
    # must give what it gives in a new interpreter.
    runs = [["sweep", "--config", "sweep.ini", "--set", "strength_grid=0:1:2", "--out",
             "sweep.csv"],
            ["sweep", "--config", "sweep.ini", "--out", "sweep.csv"],
            ["state", "--preset", "singlet", "--r", "0.3", "--alpha", "0.4", "--out", "f.csv"],
            ["state", "--preset", "singlet", "--r", "0.3", "--alpha", "0.4"]]
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    main(["state", "--preset", "singlet", "--r", "0"])
    capsys.readouterr()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for i, argv in enumerate(runs):
        fresh, here = tmp_path / f"fresh{i}", tmp_path / f"here{i}"
        for d in (fresh, here):
            d.mkdir()
            (d / "sweep.ini").write_text(SWEEP_INI, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "unruhlab.cli", *argv], cwd=fresh,
                              env=_env(), capture_output=True)
        monkeypatch.chdir(here)
        code = main(argv)
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")) \
            == (code, captured.out, captured.err)
        assert _outputs(fresh) == _outputs(here)
    assert built == []
    assert len(_outputs(tmp_path / "here0")) == len(_outputs(tmp_path / "here2")) == 2
    assert _outputs(tmp_path / "here0") != _outputs(tmp_path / "here1")


@pytest.mark.parametrize("command", list(COMMANDS))
def test_fresh_process_matches_in_process_run(tmp_path, monkeypatch, capsys, command):
    argv = COMMANDS[command]
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    for d in (fresh, here):
        d.mkdir()
        (d / "sweep.ini").write_text(SWEEP_INI, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "unruhlab.cli", *argv], cwd=fresh,
                          env=_env(), capture_output=True)
    monkeypatch.chdir(here)
    code = main(argv)
    captured = capsys.readouterr()
    assert (proc.returncode, code) == (0, 0)
    assert proc.stdout.decode("utf-8") == captured.out
    assert proc.stderr.decode("utf-8") == captured.err == ""
    assert _outputs(fresh) == _outputs(here)
    assert len(_outputs(here)) > 1
