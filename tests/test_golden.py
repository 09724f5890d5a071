"""``tools/golden.py diff``, the byte-identity check between the output
fingerprints of two checkouts: identical fingerprints exit 0 and say how
many hashes agree; any changed key, or a key only one side has, exits 1
and is named.  ``tools/golden.py compare`` on two small CSVs: the largest
|a - b| and ulp distance of each column's differing numbers, blank cells
counted on their own, and text cells that differ.  ``tools/golden.py
write --chunk-points N``, with its commands stubbed: every command runs
with chunks of N points.  ``write`` lists the files each command leaves,
runs each INI sweep at phi = 0.7 as well, under keys of its own, and
records numpy's version and SIMD dispatch, which ``diff`` names first
when they differ."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from unruhlab import pipeline, sweep, validate

_SPEC = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parents[1] / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

PRINTS = {
    "figure fig1a | exit": "0",
    "figure fig1a | out/fig1a.csv": "9f2c",
    "validate 7 100 | out/report.txt": "41d0",
}


def _diff(tmp_path, a: dict, b: dict) -> int:
    (tmp_path / "a.json").write_text(json.dumps(a), encoding="utf-8")
    (tmp_path / "b.json").write_text(json.dumps(b), encoding="utf-8")
    return golden.main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")])


def test_identical_fingerprints_exit_0(tmp_path, capsys):
    assert _diff(tmp_path, PRINTS, dict(PRINTS)) == 0
    assert capsys.readouterr().out == "identical: 3 hashes\n"


def test_each_differing_key_is_named(tmp_path, capsys):
    other = dict(PRINTS)
    other["figure fig1a | out/fig1a.csv"] = "77aa"
    del other["figure fig1a | exit"]
    other["state degenerate | exit"] = "0"
    assert _diff(tmp_path, PRINTS, other) == 1
    assert capsys.readouterr().out.splitlines() == [
        "figure fig1a | exit: 0 != None",
        "figure fig1a | out/fig1a.csv: 9f2c != 77aa",
        "state degenerate | exit: None != 0",
    ]


def test_diff_names_a_change_of_build_or_dispatch_before_the_keys(tmp_path, capsys):
    here = {**PRINTS, "numpy | version": "2.4.6", "numpy | dispatch": "X86_V3 X86_V4"}
    there = {**here, "numpy | dispatch": "baseline"}
    assert _diff(tmp_path, here, dict(there)) == 0
    note = ["different numpy builds or CPU dispatch:",
            "  numpy | dispatch: X86_V3 X86_V4 != baseline"]
    assert capsys.readouterr().out.splitlines() == note + ["identical: 3 hashes"]
    there["figure fig1a | out/fig1a.csv"] = "77aa"
    assert _diff(tmp_path, here, there) == 1
    assert capsys.readouterr().out.splitlines() == note + [
        "figure fig1a | out/fig1a.csv: 9f2c != 77aa"]


def test_write_records_numpy_s_version_and_dispatch(tmp_path, monkeypatch):
    from numpy._core import _multiarray_umath as umath

    monkeypatch.setattr(golden, "_run", lambda *args, **kwargs: {"exit": "0"})
    out = tmp_path / "prints.json"
    assert golden.main(["write", str(out)]) == 0
    prints = json.loads(out.read_text(encoding="utf-8"))
    on = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]
    assert prints["numpy | version"] == np.__version__
    assert prints["numpy | dispatch"] == (" ".join(on) or "baseline")


CSV_A = ("state,r,I_a,note\n"
         "singlet,0.5,0.25,x\n"
         "singlet,,1,y\n"
         "singlet,,,z\n")
CSV_B = ("state,r,I_a,note\n"
         "singlet,0.5,0.25000000000000006,x\n"
         "singlet,0.1,1.0000000000000004,w\n"
         "singlet,,,z\n")


def test_compare_csv_reports_each_differing_column():
    # 0.25 + 2^-54 is 1 ulp from 0.25; 1 + 2^-51 is 2 ulp (4.44e-16) from 1.
    assert golden.compare_csv(CSV_A, CSV_B) == [
        "r: 0 numbers differ, max |d| 0, max ulp 0; blank 1, blank on one side 1, "
        "text differs 0",
        "I_a: 2 numbers differ, max |d| 4.44e-16, max ulp 2; blank 1, blank on one side 0, "
        "text differs 0",
        "note: 0 numbers differ, max |d| 0, max ulp 0; blank 0, blank on one side 0, "
        "text differs 1",
        "1 other columns identical",
    ]


def test_compare_csv_names_a_changed_shape():
    assert golden.compare_csv(CSV_A, CSV_A.replace("note", "other")) == [
        "headers differ: [['state', 'r', 'I_a', 'note']] != [['state', 'r', 'I_a', 'other']]"]
    assert golden.compare_csv(CSV_A, CSV_B + "singlet,,,z\n") == ["rows differ: 3 != 4"]


def test_compare_exits_1_and_names_each_differing_csv(monkeypatch, capsys):
    outputs = {"a": {"figure fig1a | out/fig1a.csv": CSV_A, "sweep ini | out.csv": CSV_A},
               "b": {"figure fig1a | out/fig1a.csv": CSV_A, "sweep ini | out.csv": CSV_B}}
    monkeypatch.setattr(golden, "csv_outputs", lambda root: outputs[root.name])
    assert golden.main(["compare", "a", "a"]) == 0
    assert capsys.readouterr().out == "identical CSVs\n"
    assert golden.main(["compare", "a", "b"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sweep ini | out.csv"
    assert lines[1:] == ["  " + line for line in golden.compare_csv(CSV_A, CSV_B)]


@pytest.mark.parametrize("argv, points", [([], pipeline.CHUNK_POINTS),
                                          (["--chunk-points", "7"], 7)])
def test_write_runs_every_command_at_the_chunk_points_asked(tmp_path, monkeypatch, capsys,
                                                            argv, points):
    modules = (pipeline, sweep, validate)
    for module in modules:      # restored when the test ends
        monkeypatch.setattr(module, "CHUNK_POINTS", module.CHUNK_POINTS)
    seen = []
    monkeypatch.setattr(golden, "_run", lambda *args, **kwargs: seen.append(
        tuple(module.CHUNK_POINTS for module in modules)) or {"exit": "0"})
    out = tmp_path / "prints.json"
    assert golden.main(["write", *argv, str(out)]) == 0
    assert len(seen) > 100 and set(seen) == {(points,) * 3}
    assert capsys.readouterr().out == f"wrote {out}: {len(seen)} hashes\n"


def test_write_and_compare_run_each_ini_sweep_at_both_phases():
    root = Path(__file__).resolve().parents[1]
    names = golden._assigned(root / "perfbench" / "workloads.py", "INIS")
    runs = [(key, argv[3:-2]) for key, argv, _ in golden._sweeps(root)]
    assert runs == [(f"sweep {name}{key}", set_phi) for name in names
                    for key, set_phi in (("", []), (" phi=0.7", ["--set", "phi=0.7"]))]


def test_a_run_lists_every_file_it_leaves():
    def main(argv):
        Path("out").mkdir()
        Path("out/a.csv").write_text("a\n", encoding="utf-8")
        Path(".unruhlab.7.part").write_text("partial", encoding="utf-8")
        return 0

    got = golden._run(main, [], ["out/a.csv", "out/b.csv"], {"sweep.ini": "[sweep]\n"})
    assert got["files"] == ".unruhlab.7.part out/a.csv sweep.ini"
    assert got["out/a.csv"] == golden._sha("a\n") and got["out/b.csv"] is None


def test_write_takes_only_positive_chunk_points(tmp_path):
    for bad in ("0", "-3", "x"):
        with pytest.raises(SystemExit) as exc:
            golden.main(["write", "--chunk-points", bad, str(tmp_path / "prints.json")])
        assert exc.value.code == 2
    assert not (tmp_path / "prints.json").exists()
