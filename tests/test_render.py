"""The CSV renderer against the ``%`` renderer it replaced
(``tests/oracle.py``), the cell formatter against ``'%.17g' % x``, and the
atomic replacement of every file a command writes."""

import errno
import io
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import rows_to_csv_reference
from unruhlab import cellfmt, sweep
from unruhlab.cli import main
from unruhlab.sweep import (FIGURE_PRESETS, MEASURE_COLUMNS, config_from_mapping,
                            figure_preset, rows_to_csv, run_sweep)


def _format(values) -> tuple[list[str], np.ndarray]:
    """Each value as the formatter writes it, and the mask of those left to ``%``."""
    x = np.asarray(values, dtype=np.float64)
    out = np.zeros(x.shape + (cellfmt.CELL_WIDTH,), np.uint8)
    slow = cellfmt.format_cells(x, out)
    texts = [bytes(cell).replace(b"\0", b"").decode() for cell in
             out.reshape(-1, cellfmt.CELL_WIDTH)]
    return texts, slow


def _assert_formats_as_percent(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    assert _format(values)[0] == ["%.17g" % v for v in values.ravel().tolist()]


def _assert_renders_as_reference(measures, config) -> None:
    want = rows_to_csv_reference(measures, config)
    assert rows_to_csv(measures, config) == want
    fh = io.BytesIO()
    assert rows_to_csv(measures, config, fh) is None
    assert fh.getvalue() == want.encode("utf-8")


# ---------------------------------------------------------------- renderer


@pytest.mark.parametrize("preset", FIGURE_PRESETS)
def test_preset_csv_matches_the_reference(preset):
    config = figure_preset(preset)
    _assert_renders_as_reference(run_sweep(config), config)


SWEEPS = {
    "projected_qutrit": {
        "system": "two_qutrit", "initial_state": "qutrit:1, qutrit:0.5",
        "r_grid": "0:0.78:5", "strength_grid": "0:1:4",
        "qutrit_compare_sector": "projected_3dim"},
    "split_qubits": {
        "system": "two_qubit", "initial_state": "singlet, werner:0.7, werner:0.2",
        "r_grid": "0:0.78:3", "strength_grid": "0:0.95:5",
        "tie_policy": "weak_reverse_split", "beta": "0.6"},
    "x_labels": {
        "system": "two_qubit", "initial_state": "x:0.1,\n0.2, 0.3, x:-0.5,-0.2,0.3",
        "r_grid": "0:0.5:3", "strength_grid": "0.2, 0.7, 1.0"},
    "measure_subset": {
        "system": "two_qubit", "initial_state": "werner:0.9",
        "r_grid": "0:0.78:4", "strength_grid": "0:1:5",
        "measures": "p_success, I_b, E_norm"},
}


@pytest.mark.parametrize("block_rows", [1, 7, sweep.BLOCK_ROWS])
@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep_csv_matches_the_reference(monkeypatch, name, block_rows):
    config = config_from_mapping(SWEEPS[name])
    measures = run_sweep(config)
    assert len(measures) % 7 != 0
    if name == "projected_qutrit":
        assert np.isnan(measures).all(axis=1).any()
    if name == "x_labels":
        assert "\n" in config.initial_state[0] and "," in config.initial_state[1]
    monkeypatch.setattr(sweep, "BLOCK_ROWS", block_rows)
    _assert_renders_as_reference(measures, config)


def test_any_measure_values_render_as_the_reference(monkeypatch):
    # Kept rows holding NaN, infinities, zeros, subnormals and random bit
    # patterns, beside all-NaN (degenerate) rows.
    config = config_from_mapping(SWEEPS["split_qubits"])
    rng = np.random.default_rng(5)
    n = 3 * 3 * 5
    measures = rng.integers(0, 2 ** 64, (n, len(MEASURE_COLUMNS)),
                            dtype=np.uint64).view(np.float64)
    measures[::4, [0, 3, 6]] = [np.nan, -np.inf, 0.0]
    measures[1::4] = rng.uniform(-2.0, 2.0, (len(measures[1::4]), len(MEASURE_COLUMNS)))
    measures[2::4, 2] = -0.0
    measures[5::9] = np.nan
    monkeypatch.setattr(sweep, "BLOCK_ROWS", 7)
    _assert_renders_as_reference(measures, config)


def test_wrong_row_count_is_refused():
    config = config_from_mapping(SWEEPS["measure_subset"])
    measures = run_sweep(config)
    for fh in (None, io.BytesIO()):
        with pytest.raises(ValueError, match="measure rows"):
            rows_to_csv(measures[1:], config, fh)


# ----------------------------------------------------------- cell formatter


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_cells_format_as_percent(values):
    _assert_formats_as_percent(values)


def _exact_ties() -> list[float]:
    """Doubles i * 2^-n whose exact decimal has 18 significant digits, the
    last a 5: ties that '%.17g' breaks half-even, up or down by the 17th."""
    values = (i * 2.0 ** -n for n in range(20, 80) for i in range(1, 400, 2))
    return [x for x in values if len(Decimal(x).as_tuple().digits) == 18]


def test_cells_format_as_percent_on_exact_ties():
    ties = _exact_ties()
    assert len(ties) > 100
    _assert_formats_as_percent(ties)
    assert _format(ties)[1].all()


def test_cells_format_as_percent_on_edge_values():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17, 1e-279, 1e279])
    ends = np.concatenate([powers, switches])
    edges = np.concatenate([
        ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf),
        2.0 ** -np.arange(1, 81),                    # exact decimal ties
        [0.0, -0.0, 5e-324, 1.5, 10.0, 120.0, 1200.5, 2.0 ** 53, 9.5e16, 99999999999999984.0],
    ])
    _assert_formats_as_percent(np.concatenate([edges, -edges]))


def test_cells_take_a_2d_stack_into_a_wider_strided_view():
    x = np.random.default_rng(2).uniform(-3.0, 3.0, (6, 5))
    out = np.zeros((6, 5 * (cellfmt.CELL_WIDTH + 3)), np.uint8)
    cellfmt.format_cells(x, out.reshape(6, 5, -1))
    text = out.tobytes().replace(b"\0", b"").decode()
    assert text == "".join("%.17g" % v for v in x.ravel().tolist())


@pytest.mark.parametrize("preset", ["fig1a", "fig2a"])
def test_surface_cells_take_the_vectorised_path(preset):
    measures = run_sweep(figure_preset(preset))
    kept = measures[~np.isnan(measures).all(axis=1)]
    assert np.isfinite(kept).all() and (kept == 0).any()
    texts, slow = _format(kept)
    assert not slow.any()
    assert texts == ["%.17g" % v for v in kept.ravel().tolist()]


def test_only_unprovable_cells_are_left_to_percent():
    x = np.array([np.nan, np.inf, -np.inf, 5e-324, 1e-300, 1e300, 0.0, -0.0, 0.5, 0.125])
    assert _format(x)[1].tolist() == [True] * 6 + [False] * 4


def _near_a_tie(v: float) -> bool:
    """Whether ``|v| * 10^(16 - k)`` (k the decimal exponent of ``v``) lies
    within the formatter's guard of a rounding tie, exactly."""
    d = abs(Decimal(v))
    scaled = d.scaleb(16 - d.adjusted())
    return abs(scaled - int(scaled) - Decimal("0.5")) <= Decimal(cellfmt._GUARD) * 2


@pytest.mark.parametrize("name", [*FIGURE_PRESETS, *SWEEPS])
def test_every_float_cell_is_vectorised_unless_near_a_tie(name):
    # The measures of every preset and test sweep, and the r and strength
    # values, take the fast path; only a value the guard cannot prove (one
    # measure cell of fig1b) is left to '%'.
    config = figure_preset(name) if name in FIGURE_PRESETS else config_from_mapping(SWEEPS[name])
    measures = run_sweep(config)
    values = np.concatenate([measures[~np.isnan(measures).all(axis=1)].ravel(),
                             config.r_grid, config.strength_table().ravel()])
    texts, slow = _format(values)
    assert texts == ["%.17g" % v for v in values.tolist()]
    assert all(_near_a_tie(v) for v in values[slow].tolist())
    assert slow.sum() <= 1


def test_the_fast_path_ends_below_ten():
    x = np.array([np.nextafter(10.0, 0.0), -np.nextafter(10.0, 0.0), 10.0, -10.0,
                  np.nextafter(10.0, np.inf), 9.5, 1.0, 0.1, 1e-5])
    texts, slow = _format(x)
    assert texts == ["%.17g" % v for v in x.tolist()]
    assert slow.tolist() == [False, False, True, True, True, False, False, False, False]


def test_cells_overwrite_what_out_held():
    rng = np.random.default_rng(9)
    x = np.concatenate([rng.uniform(-10.0, 10.0, 300), 10.0 ** rng.uniform(-300, 300, 100),
                        [0.0, -0.0, np.nan, -np.inf, 1e300, 5e-324, 1e-7, 123.0, 1.0]])
    out = np.full(x.shape + (cellfmt.CELL_WIDTH,), 0xFF, np.uint8)
    cellfmt.format_cells(x, out)
    # The last column is NUL in every cell, the '%' ones too: the CSV puts
    # its comma there.
    assert not out[:, -1].any()
    assert [bytes(c).replace(b"\0", b"").decode() for c in out] == \
        ["%.17g" % v for v in x.tolist()]


# ---------------------------------------------------------- atomic output

SMALL_INI = ("[sweep]\nsystem = two_qubit\ninitial_state = singlet\n"
             "r_grid = 0:0.5:3\nstrength_grid = 0:0.5:3\n")


@pytest.fixture
def render_fails_after_one_block(monkeypatch, tmp_path):
    """Make the renderer raise on its second block; record the directory
    listing at each block."""
    format_cells = cellfmt.format_cells
    listings = []

    def failing(x, out):
        listings.append(sorted(p.name for p in tmp_path.iterdir()))
        if len(listings) > 1:
            raise RuntimeError("render failed")
        return format_cells(x, out)

    monkeypatch.setattr(cellfmt, "format_cells", failing)
    monkeypatch.setattr(sweep, "BLOCK_ROWS", 4)
    return listings


@pytest.mark.parametrize("existing", [None, b"kept bytes\n"])
def test_a_failed_sweep_leaves_its_output_as_it_was(tmp_path, render_fails_after_one_block,
                                                   existing):
    (tmp_path / "sweep.ini").write_text(SMALL_INI, encoding="utf-8")
    out = tmp_path / "out.csv"
    if existing is not None:
        out.write_bytes(existing)
    with pytest.raises(RuntimeError, match="render failed"):
        main(["sweep", "--config", str(tmp_path / "sweep.ini"), "--out", str(out)])
    # The rows went to a temporary file beside the output, now removed.
    assert [name for name in render_fails_after_one_block[1] if name.endswith(".part")]
    names = sorted(p.name for p in tmp_path.iterdir())
    if existing is None:
        assert names == ["sweep.ini"]
    else:
        assert names == ["out.csv", "sweep.ini"]
        assert out.read_bytes() == existing


def test_a_failed_figure_leaves_its_csv_as_it_was(tmp_path, render_fails_after_one_block):
    (tmp_path / "fig4b.csv").write_bytes(b"kept bytes\n")
    with pytest.raises(RuntimeError, match="render failed"):
        main(["figure", "fig4b", "--out-dir", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig4b.csv"]
    assert (tmp_path / "fig4b.csv").read_bytes() == b"kept bytes\n"


def test_a_sweep_replaces_its_output_whole(tmp_path, capsys):
    (tmp_path / "sweep.ini").write_text(SMALL_INI, encoding="utf-8")
    out = tmp_path / "out.csv"
    out.write_bytes(b"x" * 100_000)
    assert main(["sweep", "--config", str(tmp_path / "sweep.ini"), "--out", str(out)]) == 0
    config = config_from_mapping(dict(line.split(" = ") for line in SMALL_INI.split("\n")[1:-1]))
    assert out.read_text(encoding="utf-8") == rows_to_csv_reference(run_sweep(config), config)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "sweep.ini"]
    capsys.readouterr()


# Each output but the CSV, whose cases are above: the command that writes it
# (its output option last), the other files it writes with it, the most
# bytes a file may grow to while it runs, and a statement run first that
# makes a function return text longer than that.
_LIMITED_WRITES = {
    "plot_fig4b.py": (["figure", "fig4b", "--out-dir"], ["fig4b.csv", "fig4b.ini"], 65_536,
                      "cli.plot_script = too_long"),
    "fig4b.ini": (["figure", "fig4b", "--out-dir"], ["fig4b.csv", "plot_fig4b.py"], 65_536,
                  "cli.config_to_text = too_long"),
    "report.txt": (["validate", "--samples", "10", "--out-dir"], ["report.csv"], 1_000, ""),
    "report.csv": (["validate", "--samples", "10", "--out-dir"], ["report.txt"], 4_096,
                   "validate.ValidationReport.to_csv = too_long"),
    "state.csv": (["state", "--preset", "qutrit:1", "--r", "0.3", "--alpha", "0.2", "--out"],
                  [], 1_000, ""),
}

# A child process whose files may not grow past the limit (RLIMIT_FSIZE):
# with SIGXFSZ ignored, the write that would pass it fails with EFBIG.
_LIMITED_MAIN = """
import resource, signal, sys
from unruhlab import cli, validate
limit = int(sys.argv[1])
too_long = lambda *args: "x" * 2 * limit
{patch}
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("existing", [None, b"kept bytes\n"])
@pytest.mark.parametrize("name", _LIMITED_WRITES)
def test_a_write_that_fails_part_way_leaves_its_file_as_it_was(tmp_path, name, existing):
    # A command's files are moved into place together, once all are
    # complete: when one fails, none is replaced, whether it was written
    # before or after the one that failed, and no temporary file is left.
    argv, others, limit, patch = _LIMITED_WRITES[name]
    out = tmp_path / name
    files = sorted([name, *others])
    if existing is not None:
        for other in files:
            (tmp_path / other).write_bytes(existing)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      os.environ.get("PYTHONPATH")])))
    where = out if argv[-1] == "--out" else tmp_path
    proc = subprocess.run([sys.executable, "-c", _LIMITED_MAIN.format(patch=patch), str(limit),
                           *argv, str(where)], env=env, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
    names = sorted(p.name for p in tmp_path.iterdir())
    if existing is None:
        assert names == []
    else:
        assert names == files
        assert all((tmp_path / other).read_bytes() == existing for other in files)
