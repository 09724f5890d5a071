"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

cli = run.import_cli()
EXPECTED = checks.load_expected()


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        ["root", -1, 0, 100],
        ["a", 0, 10, 30],
        ["b", 0, 20, 50],     # overlaps a: together they cover 10..50
        ["a.leaf", 1, 15, 25],  # grandchild: not subtracted from root again
        ["c", 0, 90, 120],    # runs past its parent: only 90..100 counts
    ]
    assert tracer.self_times(spans) == [100 - 40 - 10, 20 - 10, 30, 10, 30]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracer.tail_percentile(range(1, 10001)) == (99.9, 9990)
    assert tracer.tail_percentile(range(1, 1001)) == (99.0, 990)
    assert tracer.tail_percentile(range(1, 201)) == (95.0, 190)
    assert tracer.tail_percentile(range(1, 21)) == (50.0, 10)
    assert tracer.tail_percentile(range(1, 20)) is None


@pytest.fixture(scope="module")
def fig4b_csv(tmp_path_factory):
    op = workloads.figure_op("fig4b", tmp_path_factory.mktemp("fig4b"))
    code, _, _ = run.run_op(cli, op)
    assert code == 0
    return op.csv.read_text(encoding="utf-8")


def _edit_cell(text, row, column, fn):
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[header.index(column)] = fn(cells[header.index(column)])
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def test_sweep_check_accepts_the_frozen_output_and_last_bit_changes(fig4b_csv):
    want = EXPECTED["sweeps"]["fig4b"]
    assert checks.check_sweep_csv(fig4b_csv, want) == []
    row = next(iter(want["sample"]))
    nudged = _edit_cell(fig4b_csv, int(row), "E_norm", lambda v: repr(float(v) + 1e-15))
    assert checks.check_sweep_csv(nudged, want) == []


def test_sweep_check_rejects_a_perturbed_measure(fig4b_csv):
    want = EXPECTED["sweeps"]["fig4b"]
    row = next(iter(want["sample"]))
    wrong = _edit_cell(fig4b_csv, int(row), "I_a", lambda v: repr(float(v) + 1e-9))
    assert any("I_a" in p for p in checks.check_sweep_csv(wrong, want))


def test_sweep_check_rejects_a_flipped_degenerate_flag(fig4b_csv):
    want = EXPECTED["sweeps"]["fig4b"]
    flipped = _edit_cell(fig4b_csv, 7, "degenerate", lambda v: "1")
    assert any("degenerate" in p for p in checks.check_sweep_csv(flipped, want))
    with_degenerate = copy.deepcopy(want)
    with_degenerate["degenerate"] = [7]
    assert any("degenerate" in p for p in checks.check_sweep_csv(fig4b_csv, with_degenerate))


def test_frozen_sample_covers_both_grid_axes():
    for name, want in EXPECTED["sweeps"].items():
        at = [frozen["at"] for frozen in want["sample"].values()]
        assert len({i_r for _, i_r, _ in at}) >= 10, name
        assert len({i_s for _, _, i_s in at}) >= 3, name
        assert sum(i_s != "0" for _, _, i_s in at) >= len(at) // 2, name


def test_sweep_check_rejects_a_row_out_of_place(fig4b_csv):
    want = EXPECTED["sweeps"]["fig4b"]
    row = next(iter(want["sample"]))
    moved = _edit_cell(fig4b_csv, int(row), "i_s", lambda v: str(int(v) + 1))
    assert any("is at" in p for p in checks.check_sweep_csv(moved, want))


def test_a_command_that_writes_no_csv_fails(fig4b_csv, tmp_path):
    stale = workloads.figure_op("fig4b", tmp_path / "stale")
    stale.csv.parent.mkdir(parents=True)
    stale.csv.write_text(fig4b_csv, encoding="utf-8")
    elsewhere = workloads.figure_op("fig4b", tmp_path / "elsewhere")
    op = workloads.Op("figure", elsewhere.argv, sweep="fig4b", csv=stale.csv)
    result = run.run_pass(cli, [op], run.Checker(EXPECTED))
    assert result["failed"] == 1 and result["rows"] == 0


def test_mixed_cli_validates_a_new_seed_every_pass(tmp_path):
    first, second = (workloads.build_pass("mixed_cli", 7, tmp_path, i) for i in (0, 1))
    assert first[0].kind == second[0].kind == "validate"
    assert first[0].argv != second[0].argv
    assert first[1:] == second[1:]


def test_sweep_check_rejects_a_missing_row(fig4b_csv):
    short = "".join(fig4b_csv.splitlines(keepends=True)[:-1])
    assert checks.check_sweep_csv(short, EXPECTED["sweeps"]["fig4b"])


def test_validate_and_state_checks():
    code, text, _ = run.run_op(cli, workloads.Op("validate", ("validate", "--seed", "5")))
    assert checks.check_validate(code, text, EXPECTED["validate"]) == []
    assert checks.check_validate(code, text.replace("PASS  kraus", "FAIL  kraus"),
                                 EXPECTED["validate"])
    key = workloads.state_key("qutrit", 2)
    code, text, _ = run.run_op(cli, workloads.Op("state", ("state",) + workloads.state_argv(key)))
    want = EXPECTED["states"][key]
    assert checks.check_state(code, text, want) == []
    assert checks.check_state(code, text, want + 1e-9)


def test_traced_pass_counts_and_restores(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + (("unruhlab.pipeline", "gone", "x"),))
    original = np.kron
    t = tracer.Tracer()
    t.install()
    try:
        t.pass_span(lambda: run.run_op(cli, workloads.figure_op("fig4b", tmp_path)))
    finally:
        t.uninstall()
    assert np.kron is original
    assert not hasattr(cli.run_sweep, "__wrapped__")
    layers = t.summary()
    assert layers["numpy.kron.calls"] == 243 * 4   # two filters + two Kraus terms per point
    assert layers["pipeline.run_protocol.calls"] == 243
    assert layers["localops.weak.calls"] == layers["localops.reverse.calls"] == 243
    assert layers["cli.validate.calls"] == 0
    assert layers["channel.build.distinct_frac"] == 81 / 243
    added_by_run = {"sweep.rows", "sweep.degenerate_rows", "trace.overhead_frac", "wall_s",
                    "host.burst_s"}
    assert set(layers) | added_by_run == {name for name, _, _ in tracer.per_layer_metrics()}


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracer.per_layer_metrics()
    passes = [{"seconds": 2.0, "grid_seconds": 1.0, "cal_seconds": 2.0, "cal_grid_seconds": 1.0,
               "rows": 10, "bursts": [0.003]}]
    e2e = run.end_to_end(passes, [0.5])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == [(name, unit) for name, (_, unit) in e2e.items()]


def test_calibration_scales_by_the_burst_speed():
    nominal = reference.NOMINAL_BURST_S
    assert run.calibrate(8.0, [2 * nominal, nominal, 3 * nominal]) == pytest.approx(4.0)
    assert run.calibrate(3.0, [nominal / 1.5]) == pytest.approx(4.5)
    passes = [{"seconds": s, "grid_seconds": s, "cal_seconds": c, "cal_grid_seconds": c / 2,
               "rows": 600, "bursts": [nominal]} for s, c in ((9.0, 4.0), (2.0, 5.0), (3.0, 6.0))]
    e2e = run.end_to_end(passes, [0.2])
    assert e2e["wall_cal_s"][0] == 5.0
    assert e2e["points_per_cal_s"][0] == pytest.approx(600 / 2.5)


def test_gauge_bursts_during_a_command_and_restores_the_signal(tmp_path):
    import signal

    before = signal.getsignal(signal.SIGALRM)
    gauge = reference.Gauge()
    result = run.run_pass(cli, [workloads.figure_op("fig4b", tmp_path)],
                          run.Checker(EXPECTED), gauge)
    assert result["failed"] == 0
    assert len(result["bursts"]) >= 1   # one at the start of every command
    assert all(b > 0 for b in result["bursts"])
    assert 0 < result["seconds"] and 0 < result["cal_seconds"] == result["cal_grid_seconds"]
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
