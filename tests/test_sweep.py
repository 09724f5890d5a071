"""Sweep engine, config file handling, figure presets, CSV determinism,
and the command line wrapper."""

import csv
import io
import runpy
import sys
import types

import numpy as np
import pytest

from oracle import point_strengths
from unruhlab import sweep
from unruhlab.cli import main
from unruhlab.errors import ConfigError, UnknownPreset
from unruhlab.sweep import (
    ALL_EQUAL,
    FIGURE_PRESETS,
    FULL_SECTOR,
    INDEPENDENT,
    MEASURE_COLUMNS,
    PROJECTED_SECTOR,
    SweepConfig,
    WEAK_REVERSE_SPLIT,
    config_from_mapping,
    config_to_text,
    figure_info,
    figure_preset,
    load_config,
    parse_grid,
    plot_script,
    rows_to_csv,
    run_sweep,
)


def small_config(**overrides):
    base = dict(
        system="two_qubit",
        initial_state=("singlet",),
        r_grid=(0.0, 0.4),
        strength_grid=(0.0, 0.5),
    )
    base.update(overrides)
    return SweepConfig(**base)


# -------------------------------------------------------------- grid parse

def test_parse_grid_linspace():
    assert parse_grid("0:1:5") == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert parse_grid("0.3:0.3:1") == (0.3,)


def test_parse_grid_value_list():
    assert parse_grid("0.1, 0.2,0.5") == (0.1, 0.2, 0.5)
    assert parse_grid("0.7") == (0.7,)


def test_parse_grid_rejects_malformed():
    for bad in ("0:1", "0:1:5:2", "1:0:5", "0:1:0", "a:b:c", "x,y", ""):
        with pytest.raises(ConfigError):
            parse_grid(bad)


# ------------------------------------------------------------ config model

def test_config_validation_errors():
    with pytest.raises(ConfigError):
        small_config(system="three_qubit")
    with pytest.raises(ConfigError):
        small_config(initial_state=("qutrit:1",))  # wrong dims for two_qubit
    with pytest.raises(ConfigError):
        small_config(initial_state=("nonsense",))
    with pytest.raises(ConfigError):
        small_config(initial_state=())
    with pytest.raises(ConfigError):
        small_config(r_grid=(0.0, 1.0))  # beyond pi/4
    with pytest.raises(ConfigError):
        small_config(strength_grid=(0.0, 1.5))
    with pytest.raises(ConfigError):
        small_config(tie_policy="locked")
    with pytest.raises(ConfigError):
        small_config(measures=("E_norm", "fidelity"))
    with pytest.raises(ConfigError):
        small_config(measures=())
    with pytest.raises(ConfigError, match="field 'measures'"):
        small_config(measures=("E_norm", "I_a", "E_norm"))
    with pytest.raises(ConfigError):
        small_config(qutrit_compare_sector="ladder")
    with pytest.raises(ConfigError):
        small_config(beta=1.2)


def test_grid_steps_over_the_budget_are_a_config_error():
    # Steps are checked before linspace allocates them.
    with pytest.raises(ConfigError) as exc:
        config_from_mapping({"system": "two_qubit", "initial_state": "singlet",
                             "r_grid": "0:0.5:1000001", "strength_grid": "0.5"})
    assert "field 'r_grid'" in str(exc.value)


def test_grid_points_over_the_budget_are_a_config_error():
    r_grid = tuple(np.linspace(0.0, 0.5, 1001))
    strength_grid = tuple(np.linspace(0.0, 1.0, 500))
    with pytest.raises(ConfigError, match="1001000 grid points"):
        small_config(initial_state=("singlet", "werner:0.7"), r_grid=r_grid,
                     strength_grid=strength_grid)
    small_config(initial_state=("singlet", "werner:0.7"), r_grid=r_grid[:1000],
                 strength_grid=strength_grid)


def test_config_error_carries_field():
    with pytest.raises(ConfigError) as exc:
        small_config(tie_policy="locked")
    assert "field 'tie_policy'" in str(exc.value)


def test_tie_policies_resolve_strengths():
    cfg = small_config(tie_policy=ALL_EQUAL)
    w, r = point_strengths(cfg, 0.3)
    assert w.party_a_levels == (0.3,) and r.party_b_levels == (0.3,)

    cfg = small_config(tie_policy=WEAK_REVERSE_SPLIT, beta=0.6)
    w, r = point_strengths(cfg, 0.3)
    assert w.party_a_levels == (0.3,) and w.party_b_levels == (0.3,)
    assert r.party_a_levels == (0.6,) and r.party_b_levels == (0.6,)

    cfg = small_config(tie_policy=INDEPENDENT, alpha_b=0.1, beta_a=0.2,
                       beta_b=0.4)
    w, r = point_strengths(cfg, 0.3)
    assert w.party_a_levels == (0.3,) and w.party_b_levels == (0.1,)
    assert r.party_a_levels == (0.2,) and r.party_b_levels == (0.4,)


def test_qutrit_config_levels():
    cfg = SweepConfig(system="two_qutrit", initial_state=("qutrit:1",),
                      r_grid=(0.2,), strength_grid=(0.5,))
    assert cfg.levels == 2
    w, r = point_strengths(cfg, 0.5)
    assert w.party_a_levels == (0.5, 0.5)
    assert len(cfg.strength_columns()) == 8


# ------------------------------------------------------------------ engine

def test_run_sweep_row_order_and_content():
    cfg = small_config(initial_state=("singlet", "werner:0.7"))
    measures = run_sweep(cfg)
    assert measures.shape == (2 * 2 * 2, len(MEASURE_COLUMNS))
    lines = rows_to_csv(measures, cfg).splitlines()[1:]
    labels = [line.split(",")[0] for line in lines]
    assert labels == ["singlet"] * 4 + ["werner:0.7"] * 4
    assert [tuple(line.split(",")[1:3]) for line in lines[:4]] == \
        [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]
    first = measures[0]
    assert float(lines[0].split(",")[3]) == 0.0
    assert not np.isnan(first).any()
    assert first[MEASURE_COLUMNS.index("E_norm")] == pytest.approx(1.0, abs=1e-12)


def test_run_sweep_flags_degenerate_points():
    cfg = small_config(strength_grid=(0.5, 1.0))
    measures = run_sweep(cfg)
    flagged = np.isnan(measures).all(axis=1)
    assert flagged.sum() == 2  # singlet dies under full-strength weak filtering
    assert flagged.tolist() == [False, True, False, True]
    assert cfg.strength_grid[1] == 1.0
    assert not np.isnan(measures[~flagged]).any()


def test_projected_sector_changes_qutrit_measures():
    base = dict(system="two_qutrit", initial_state=("qutrit:1",),
                r_grid=(0.6,), strength_grid=(0.3,))
    full = run_sweep(SweepConfig(qutrit_compare_sector=FULL_SECTOR, **base))
    proj = run_sweep(SweepConfig(qutrit_compare_sector=PROJECTED_SECTOR, **base))
    e_norm, p_success = MEASURE_COLUMNS.index("E_norm"), MEASURE_COLUMNS.index("p_success")
    assert abs(full[0, e_norm] - proj[0, e_norm]) > 1e-3
    # success probability tracks the filters, not the sector restriction
    assert full[0, p_success] == pytest.approx(proj[0, p_success], abs=1e-15)


# --------------------------------------------------------------------- csv

def test_csv_layout_and_values():
    cfg = small_config(measures=("E_norm", "p_success"))
    text = rows_to_csv(run_sweep(cfg), cfg)
    lines = text.strip().split("\n")
    assert lines[0] == ("state,i_r,i_s,r,alpha_a,alpha_b,beta_a,beta_b,"
                        "E_norm,p_success,degenerate")
    assert len(lines) == 1 + 4
    cells = lines[1].split(",")
    assert cells[0] == "singlet"
    assert cells[-1] == "0"
    assert float(cells[8]) == pytest.approx(1.0, abs=1e-12)


def test_csv_blank_measures_on_degenerate_rows():
    cfg = small_config(strength_grid=(1.0,), measures=("E_norm",))
    text = rows_to_csv(run_sweep(cfg), cfg)
    line = text.strip().split("\n")[1]
    cells = line.split(",")
    assert cells[-1] == "1"
    assert cells[-2] == ""


def test_csv_is_deterministic_across_runs():
    cfg = small_config(initial_state=("werner:0.7",), r_grid=(0.0, 0.3, 0.6))
    a = rows_to_csv(run_sweep(cfg), cfg)
    b = rows_to_csv(run_sweep(cfg), cfg)
    assert a == b


def test_csv_quotes_a_label_that_spans_lines():
    # An INI value may continue on its next line; the label keeps the newline.
    cfg = config_from_mapping({"system": "two_qubit", "initial_state": "x:0.1,\n0.2, 0.3",
                               "r_grid": "0.1", "strength_grid": "0.5"})
    rows = list(csv.reader(io.StringIO(rows_to_csv(run_sweep(cfg), cfg))))
    assert [len(row) for row in rows] == [16, 16]
    assert rows[1][0] == "x:0.1,\n0.2, 0.3"


def test_x_state_config_round_trips_through_text():
    cfg = config_from_mapping({"system": "two_qubit",
                               "initial_state": "x:-0.5,-0.2,0.3, singlet,x:0.1, 0.2, 0.3",
                               "r_grid": "0, 0.4", "strength_grid": "0.5"})
    assert cfg.initial_state == ("x:-0.5,-0.2,0.3", "singlet", "x:0.1, 0.2, 0.3")
    mapping = {}
    for line in config_to_text(cfg).strip().splitlines()[1:]:
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    assert config_from_mapping(mapping) == cfg


def test_config_round_trips_through_text():
    for cfg in (
        small_config(tie_policy=WEAK_REVERSE_SPLIT, beta=0.25, phi=0.5,
                     measures=("E_norm", "I_a")),
        # every init field away from its default
        SweepConfig(system="two_qutrit", initial_state=("qutrit:1", "qutrit:0.5"),
                    r_grid=(0.1, 0.3), strength_grid=(0.2,), tie_policy=INDEPENDENT, phi=0.7,
                    measures=("p_success", "I_b", "E_norm"),
                    qutrit_compare_sector=PROJECTED_SECTOR,
                    beta=0.15, alpha_b=0.35, beta_a=0.45, beta_b=0.55),
    ):
        text = config_to_text(cfg)
        mapping = {}
        for line in text.strip().splitlines()[1:]:
            key, _, value = line.partition("=")
            mapping[key.strip()] = value.strip()
        assert config_from_mapping(mapping) == cfg


# ---------------------------------------------------------------- config io

def test_load_config_file(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(
        "[sweep]\n"
        "system = two_qubit\n"
        "initial_state = singlet\n"
        "r_grid = 0:0.7:3\n"
        "strength_grid = 0.1, 0.2\n"
        "tie_policy = weak_reverse_split\n"
        "beta = 0.4  # inline comment\n",
        encoding="utf-8",
    )
    cfg = load_config(str(path))
    assert cfg.r_grid == (0.0, 0.35, 0.7)
    assert cfg.beta == 0.4
    assert cfg.measures == MEASURE_COLUMNS


def test_load_config_overrides(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(
        "[sweep]\nsystem = two_qubit\ninitial_state = singlet\n"
        "r_grid = 0.1\nstrength_grid = 0.2\n",
        encoding="utf-8",
    )
    cfg = load_config(str(path), overrides={"strength_grid": "0.3, 0.4"})
    assert cfg.strength_grid == (0.3, 0.4)


def test_load_config_failures(tmp_path):
    missing = tmp_path / "nope.ini"
    with pytest.raises(ConfigError):
        load_config(str(missing))
    no_section = tmp_path / "plain.ini"
    no_section.write_text("[other]\nkey = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(no_section))
    bad_key = tmp_path / "bad.ini"
    bad_key.write_text(
        "[sweep]\nsystem = two_qubit\ninitial_state = singlet\n"
        "r_grid = 0.1\nstrength_grid = 0.2\ncolor = red\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError) as exc:
        load_config(str(bad_key))
    assert "color" in str(exc.value)
    incomplete = tmp_path / "short.ini"
    incomplete.write_text("[sweep]\nsystem = two_qubit\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(incomplete))


def test_a_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_bytes(b"[sweep]\nsystem = two_qubit\ninitial_state = singlet\xff\n"
                    b"r_grid = 0.2\nstrength_grid = 0.5\n")
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(ini), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {ini}: ")
    assert not out.exists()


@pytest.mark.parametrize("phi", ["5%", "%(system)s"])
def test_config_file_values_are_read_literally(tmp_path, capsys, phi):
    # '%' has no meaning in a value: a file and --set read it alike.
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[sweep]\nsystem = two_qubit\ninitial_state = singlet\n"
        f"r_grid = 0.2\nstrength_grid = 0.5\nphi = {phi}\n",
        encoding="utf-8",
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(ini), "--out", str(out)]) == 2
    from_file = capsys.readouterr().err
    assert from_file == f"error: bad float {phi!r} (field 'phi')\n"
    ini.write_text(ini.read_text(encoding="utf-8").replace(f"phi = {phi}\n", ""),
                   encoding="utf-8")
    assert main(["sweep", "--config", str(ini), "--out", str(out), "--set", f"phi={phi}"]) == 2
    assert capsys.readouterr().err == from_file
    assert not out.exists()


# ----------------------------------------------------------------- presets

def test_every_preset_resolves():
    assert len(FIGURE_PRESETS) == 12
    for name in FIGURE_PRESETS:
        cfg = figure_preset(name)
        assert cfg.tie_policy == ALL_EQUAL
        kind, _, _ = figure_info(name)
        assert kind in ("surface", "lines")


def test_presets_that_name_one_sweep_resolve_to_one_config():
    by_sweep = {}
    for name in FIGURE_PRESETS:
        by_sweep.setdefault(sweep._PRESETS[name][0], []).append(figure_preset(name))
    assert len(by_sweep) == 8
    for configs in by_sweep.values():
        assert all(cfg == configs[0] for cfg in configs)
    assert len({figure_preset(name) for name in FIGURE_PRESETS}) == 8


def test_surface_presets_sample_80_by_80():
    cfg = figure_preset("fig1a")
    assert cfg.system == "two_qubit"
    assert cfg.initial_state == ("singlet",)
    assert len(cfg.r_grid) == 80
    assert len(cfg.strength_grid) == 80
    assert cfg.r_grid[-1] == pytest.approx(np.pi / 4)
    assert cfg.strength_grid[-1] == pytest.approx(0.98)


def test_line_presets_shapes():
    fig4a = figure_preset("fig4a")
    assert fig4a.initial_state == ("singlet", "werner:0.7")
    assert len(fig4a.r_grid) == 81
    assert fig4a.strength_grid == (0.5,)
    fig6b = figure_preset("fig6b")
    assert fig6b.system == "two_qutrit"
    assert fig6b.strength_grid == (0.5, 0.8, 0.9)


def test_unknown_preset_raises():
    with pytest.raises(UnknownPreset):
        figure_preset("fig9z")
    with pytest.raises(UnknownPreset):
        figure_info("fig9z")


def test_plot_scripts_compile():
    for name in ("fig1a", "fig4b", "fig6a"):
        src = plot_script(name, f"{name}.csv")
        compile(src, f"plot_{name}.py", "exec")
        assert f"{name}.csv" in src


class _Recorder:
    """A stub figure and axes: records each method called on it, with its
    arguments, and returns itself, as ``add_subplot`` returns an axes."""

    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return self
        return record


def _stub_matplotlib(monkeypatch) -> list:
    """Put a ``matplotlib`` whose ``pyplot`` draws nothing into
    ``sys.modules``; returns the list of calls made on its figures and axes."""
    calls = []
    plot = _Recorder(calls)
    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.figure = lambda *args, **kwargs: plot
    pyplot.subplots = lambda *args, **kwargs: (plot, plot)
    mpl = types.ModuleType("matplotlib")
    mpl.use = lambda backend: None
    mpl.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", mpl)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    return calls


@pytest.mark.parametrize("name", FIGURE_PRESETS)
def test_each_plot_script_runs_on_its_csv(tmp_path, monkeypatch, name):
    # matplotlib is not installed, so each script figure writes runs beside
    # its CSV against a stub that records what would be drawn.
    calls = _stub_matplotlib(monkeypatch)
    assert main(["figure", name, "--out-dir", str(tmp_path)]) == 0
    runpy.run_path(str(tmp_path / f"plot_{name}.py"), run_name="__main__")
    drawn = {}
    for method, args, kwargs in calls:
        drawn.setdefault(method, []).append((args, kwargs))
    assert [args for args, _ in drawn["savefig"]] == [(str(tmp_path / f"{name}.png"),)]
    kind, focus, group_by = figure_info(name)
    if kind == "surface":
        [((_, _, z), _)] = drawn["plot_surface"]
        assert z.shape == (80, 80) and not np.isnan(z).any()
        return
    config = figure_preset(name)
    groups = len(config.initial_state if group_by == "state" else config.strength_grid)
    labels = [kwargs["label"] for _, kwargs in drawn["plot"]]
    assert len(set(labels)) == len(labels) == groups * len(focus)
    assert [len(xs) for (xs, ys), _ in drawn["plot"]] == [81] * len(labels)


# --------------------------------------------------------------------- cli

def test_cli_sweep_roundtrip(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[sweep]\nsystem = two_qubit\ninitial_state = singlet\n"
        "r_grid = 0:0.7:3\nstrength_grid = 0.5\n",
        encoding="utf-8",
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(ini), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("state,i_r,i_s,r,")
    assert len(text.strip().split("\n")) == 4


def test_cli_sweep_set_override(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[sweep]\nsystem = two_qubit\ninitial_state = singlet\n"
        "r_grid = 0.2\nstrength_grid = 0.5\n",
        encoding="utf-8",
    )
    out = tmp_path / "rows.csv"
    code = main(["sweep", "--config", str(ini), "--out", str(out),
                 "--set", "initial_state=werner:0.7"])
    assert code == 0
    assert "werner:0.7" in out.read_text(encoding="utf-8")


def test_cli_sweep_bad_config_exits_2(tmp_path):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[sweep]\nsystem = hexagon\n", encoding="utf-8")
    assert main(["sweep", "--config", str(ini)]) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.ini")]) == 2


def test_cli_sweep_normalization_mode_is_an_unknown_key(tmp_path, capsys):
    # The key only ever chose a plot column that was always E_norm.
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[sweep]\nsystem = two_qubit\ninitial_state = singlet\n"
        "r_grid = 0.2\nstrength_grid = 0.5\nnormalization_mode = normalized\n",
        encoding="utf-8",
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(ini), "--out", str(out)]) == 2
    assert "unknown config key 'normalization_mode'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["r_grid", "strength_grid", "phi", "beta"])
def test_cli_sweep_nan_value_exits_2(tmp_path, key):
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[sweep]\nsystem = two_qubit\ninitial_state = singlet\n"
        "r_grid = 0.2\nstrength_grid = 0.5\n",
        encoding="utf-8",
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(ini), "--out", str(out),
                 "--set", f"{key}=nan"]) == 2
    assert not out.exists()


def test_cli_figure_writes_artifacts(tmp_path):
    assert main(["figure", "fig4a", "--out-dir", str(tmp_path)]) == 0
    csv_text = (tmp_path / "fig4a.csv").read_text(encoding="utf-8")
    assert len(csv_text.strip().split("\n")) == 1 + 2 * 81
    script = (tmp_path / "plot_fig4a.py").read_text(encoding="utf-8")
    compile(script, "plot_fig4a.py", "exec")
    resolved = (tmp_path / "fig4a.ini").read_text(encoding="utf-8")
    assert resolved.startswith("[sweep]")


def test_cli_figure_rejects_unknown_preset(capsys):
    # A usage error is returned as the parser's exit code, not raised.
    for argv in (["figure", "fig99"], [], ["state", "--preset", "singlet"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: unruhlab") and "error:" in err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: unruhlab")


def test_cli_state_dumps_matrix(tmp_path):
    out = tmp_path / "state.csv"
    code = main(["state", "--preset", "singlet", "--r", "0.3",
                 "--alpha", "0.2", "--beta", "0.1", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "i,j,re,im"
    assert len(lines) == 1 + 16


def test_cli_state_accel_form():
    assert main(["state", "--preset", "qutrit:1", "--accel", "3.0",
                 "--omega", "1.0"]) == 0
    assert main(["state", "--preset", "qutrit:1", "--accel", "3.0"]) == 2


def test_cli_validate_quick(tmp_path, capsys):
    code = main(["validate", "--samples", "4", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "report.csv").exists()
    out = capsys.readouterr().out
    assert "overall: PASS" in out
