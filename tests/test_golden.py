"""``tools/golden.py diff``, the byte-identity check between the output
fingerprints of two checkouts: identical fingerprints exit 0 and say how
many hashes agree; any changed key, or a key only one side has, exits 1
and is named."""

import importlib.util
import json
from pathlib import Path

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
