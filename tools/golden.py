"""Fingerprint a checkout's command outputs, and compare two fingerprints.

    python tools/golden.py write --root CHECKOUT OUT.json
    python tools/golden.py diff A.json B.json

``write`` imports ``unruhlab`` from ``CHECKOUT/src``, runs these commands
in process through ``unruhlab.cli.main``, each in a fresh temporary
directory, and writes the sha256 of every output to ``OUT.json``:

* ``figure`` for each of the 12 presets: the CSV, the INI and the plot
  script;
* ``validate`` at seeds 7, 20240801 and 101000-101029, each at 100 and at
  1,000 samples: exit code, ``report.txt`` and ``report.csv``;
* ``sweep`` on each INI of ``perfbench/workloads.py``'s ``INIS``: exit
  code, stdout and the CSV;
* ``state`` at each point of ``perfbench/workloads.py``'s ``STATE_POINTS``:
  exit code, stdout and ``--out``;
* ``state`` with each bad argument list of ``_BAD_STATE_ARGUMENTS`` in
  ``tests/test_commands.py``, and at one degenerate point: exit code,
  stdout and stderr.

The INIs, state points and bad arguments are read from those files with
``ast``, not imported.  ``diff`` prints each key whose hash differs or
that only one side has, and exits 1 if there is one
(``tests/test_golden.py``); ``write`` is not part of the test suite.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

VALIDATE_SEEDS = (7, 20240801, *range(101000, 101030))
VALIDATE_SAMPLES = (100, 1000)
DEGENERATE_STATE = ("--preset", "singlet", "--r", "0.3", "--alpha", "1")


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _assigned(path: Path, name: str):
    """The literal value assigned to ``name`` at the top level of ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"error: no assignment to {name} in {path}")


def _run(main, argv, files=(), inputs=None) -> dict[str, str]:
    """Run ``main(argv)`` in a fresh directory holding the files ``inputs``
    (name to text): exit code, the hashes of stdout and stderr, and the
    hash of each of ``files`` it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, text in (inputs or {}).items():
                Path(name).write_text(text, encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            written = {f: _sha(Path(f).read_bytes()) if Path(f).is_file() else None
                       for f in files}
        finally:
            os.chdir(cwd)
    return {"exit": str(code), "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue()), **written}


def fingerprint(root: Path) -> dict[str, str]:
    sys.path.insert(0, str(root / "src"))
    from unruhlab.cli import main
    from unruhlab.sweep import FIGURE_PRESETS

    runs = {}
    for name in FIGURE_PRESETS:
        runs[f"figure {name}"] = _run(
            main, ["figure", name, "--out-dir", "out"],
            [f"out/{name}.csv", f"out/{name}.ini", f"out/plot_{name}.py"])
    for seed in VALIDATE_SEEDS:
        for samples in VALIDATE_SAMPLES:
            runs[f"validate {seed} {samples}"] = _run(
                main, ["validate", "--seed", str(seed), "--samples", str(samples),
                       "--out-dir", "out"], ["out/report.txt", "out/report.csv"])
    for name, text in _assigned(root / "perfbench" / "workloads.py", "INIS").items():
        runs[f"sweep {name}"] = _run(main, ["sweep", "--config", "sweep.ini", "--out", "out.csv"],
                                     ["out.csv"], {"sweep.ini": text})
    points = _assigned(root / "perfbench" / "workloads.py", "STATE_POINTS")
    for kind, argvs in points.items():
        for i, argv in enumerate(argvs):
            runs[f"state {kind}:{i}"] = _run(
                main, ["state", *argv, "--out", "state.csv"], ["state.csv"])
    bad = _assigned(root / "tests" / "test_commands.py", "_BAD_STATE_ARGUMENTS")
    for i, (where, _, _) in enumerate(bad):
        runs[f"state bad:{i} {' '.join(where)}"] = _run(
            main, ["state", "--preset", "singlet", *where, "--out", "state.csv"], ["state.csv"])
    runs["state degenerate"] = _run(main, ["state", *DEGENERATE_STATE, "--out", "state.csv"],
                                    ["state.csv"])
    return {f"{run} | {item}": value for run, items in runs.items()
            for item, value in items.items()}


def diff(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return [f"{key}: {a.get(key)} != {b.get(key)}"
            for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write", help="fingerprint a checkout's outputs")
    p_write.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                         help="checkout to run (default: this one)")
    p_write.add_argument("out", help="JSON file to write")
    p_diff = sub.add_parser("diff", help="compare two fingerprints")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "write":
        prints = fingerprint(Path(args.root).resolve())
        Path(args.out).write_text(json.dumps(prints, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
        print(f"wrote {args.out}: {len(prints)} hashes")
        return 0
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.a, args.b))
    lines = diff(a, b)
    print("\n".join(lines) if lines else f"identical: {len(a)} hashes")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
