"""Fingerprint a checkout's command outputs, and compare two fingerprints.

    python tools/golden.py write --root CHECKOUT [--chunk-points N] OUT.json
    python tools/golden.py diff A.json B.json
    python tools/golden.py compare ROOT_A ROOT_B

``write`` imports ``unruhlab`` from ``CHECKOUT/src``, runs these commands
in process through ``unruhlab.cli.main``, each in a fresh temporary
directory, and writes to ``OUT.json`` the sha256 of every output, and
for each command the sorted names of the files left in its directory,
so that a stray temporary file or a missing or extra output shows:

* ``figure`` for each of the 12 presets: the CSV, the INI and the plot
  script;
* ``validate`` at seeds 7, 20240801 and 101000-101029, each at 100 and at
  1,000 samples, and at seeds 7 and 20240801 at 9,000 samples, which run
  as more than one chunk of ``unruhlab.pipeline.CHUNK_POINTS`` (8,192)
  samples, so that the report shows a change of the chunk size: exit
  code, stdout, stderr, ``report.txt`` and ``report.csv``;
* ``sweep`` on each INI of ``perfbench/workloads.py``'s ``INIS``, as it
  is and at ``--set phi=0.7`` (keys of their own, so that a phase that
  reached an output would show): exit code, stdout and the CSV;
* ``state`` at each point of ``perfbench/workloads.py``'s ``STATE_POINTS``:
  exit code, stdout and ``--out``;
* ``state`` with each bad argument list of ``_BAD_STATE_ARGUMENTS`` in
  ``tests/test_commands.py``, and at one degenerate point: exit code,
  stdout and stderr;
* each argument list of ``USAGE_ERRORS``, which the parser refuses (an
  unknown preset, no command, ``state`` with neither ``--r`` nor
  ``--accel``): exit code, stdout and stderr, at ``COLUMNS=80``, so that
  the usage text is wrapped alike on any terminal.

The INIs, state points and bad arguments are read from those files with
``ast``, not imported.  ``--chunk-points N`` runs every command with
chunks of N points: it sets ``CHUNK_POINTS`` in this process wherever
``unruhlab.pipeline``, ``unruhlab.sweep`` and ``unruhlab.validate`` read
it, so that a change of memory layout can be fingerprinted on many small
stacks as well as on one large one.  ``diff`` prints each key whose hash
differs or that only one side has, and exits 1 if there is one
(``tests/test_golden.py``).  The test suite runs ``write`` only with its
commands stubbed, to check the chunk size they run at.

Some of numpy's float64 kernels are picked by the CPU's SIMD features
when numpy is imported, and their last bits differ between targets, so
outputs are byte-identical only on the same numpy build and dispatch.
``write`` records both under ``BUILD_KEYS``: numpy's version and the
targets of ``numpy._core._multiarray_umath.__cpu_dispatch__`` this CPU
runs (those ``__cpu_features__`` marks available; ``baseline`` if none).
``diff`` says first when they differ, then lists the keys as ever; they
are not counted as hashes, and alone they do not make ``diff`` exit 1.

``compare`` runs the 12 presets and the INI sweeps, at both phases, in
both checkouts as ``write`` does and reads their CSVs.  For each CSV that
differs it prints, per column whose cells differ, the largest |a - b| and
the largest distance in units in the last place, |a - b| /
spacing(max(|a|, |b|)) (``numpy.spacing``; near zero a tiny |a - b| is
many units), of the cells both sides give as numbers, how many such cells
differ, how many cells are blank on both sides, how many on one side only,
and how many other cells differ as text.  It exits 1 if a CSV differs
(``tests/test_golden.py`` runs it on two small CSVs).
"""

import argparse
import ast
import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

VALIDATE_RUNS = ([(seed, samples) for seed in (7, 20240801, *range(101000, 101030))
                  for samples in (100, 1000)] + [(7, 9000), (20240801, 9000)])
DEGENERATE_STATE = ("--preset", "singlet", "--r", "0.3", "--alpha", "1")
SWEEP_PHASES = ((), ("--set", "phi=0.7"))
USAGE_ERRORS = (("figure", "fig99"), (), ("state", "--preset", "singlet"))
BUILD_KEYS = ("numpy | version", "numpy | dispatch")


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def _assigned(path: Path, name: str):
    """The literal value assigned to ``name`` at the top level of ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"error: no assignment to {name} in {path}")


def _run(main, argv, files=(), inputs=None, read=_sha) -> dict[str, str]:
    """Run ``main(argv)`` in a fresh directory holding the files ``inputs``
    (name to text): exit code, the hashes of stdout and stderr, the sorted
    names of the files the directory then holds, and ``read`` (by default
    the hash) of the bytes of each of ``files`` it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, text in (inputs or {}).items():
                Path(name).write_text(text, encoding="utf-8")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            written = {f: read(Path(f).read_bytes()) if Path(f).is_file() else None
                       for f in files}
            left = " ".join(sorted(p.as_posix() for p in Path().rglob("*") if p.is_file()))
        finally:
            os.chdir(cwd)
    return {"exit": str(code), "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue()), "files": left, **written}


def _sweeps(root: Path):
    """(key, argv, INI text) of each INI sweep, once for each of ``SWEEP_PHASES``."""
    for name, text in _assigned(root / "perfbench" / "workloads.py", "INIS").items():
        for phase in SWEEP_PHASES:
            key = " ".join(("sweep", name, *phase[1:]))
            yield key, ["sweep", "--config", "sweep.ini", *phase, "--out", "out.csv"], text


def build() -> dict[str, str]:
    """This process's numpy version and SIMD dispatch, under ``BUILD_KEYS``."""
    from numpy._core import _multiarray_umath as umath

    dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return dict(zip(BUILD_KEYS, (np.__version__, " ".join(dispatch) or "baseline")))


def fingerprint(root: Path, chunk_points: int | None = None) -> dict[str, str]:
    sys.path.insert(0, str(root / "src"))
    from unruhlab.cli import main
    from unruhlab.sweep import FIGURE_PRESETS

    if chunk_points is not None:
        for name in ("pipeline", "sweep", "validate"):
            module = importlib.import_module(f"unruhlab.{name}")
            if not hasattr(module, "CHUNK_POINTS"):
                raise SystemExit(f"error: unruhlab.{name} has no CHUNK_POINTS")
            module.CHUNK_POINTS = chunk_points
    runs = {}
    for name in FIGURE_PRESETS:
        runs[f"figure {name}"] = _run(
            main, ["figure", name, "--out-dir", "out"],
            [f"out/{name}.csv", f"out/{name}.ini", f"out/plot_{name}.py"])
    for seed, samples in VALIDATE_RUNS:
        runs[f"validate {seed} {samples}"] = _run(
            main, ["validate", "--seed", str(seed), "--samples", str(samples),
                   "--out-dir", "out"], ["out/report.txt", "out/report.csv"])
    for key, argv, text in _sweeps(root):
        runs[key] = _run(main, argv, ["out.csv"], {"sweep.ini": text})
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
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in USAGE_ERRORS:
            runs[f"usage {' '.join(argv) or '(no arguments)'}"] = _run(main, argv)
    return {**build(), **{f"{run} | {item}": value for run, items in runs.items()
                          for item, value in items.items()}}


def _checkout_main(root: Path):
    """``unruhlab.cli.main`` and ``FIGURE_PRESETS`` of ``root/src``, imported
    afresh: any ``unruhlab`` modules already loaded are dropped first."""
    for name in [m for m in sys.modules if m == "unruhlab" or m.startswith("unruhlab.")]:
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    try:
        from unruhlab.cli import main
        from unruhlab.sweep import FIGURE_PRESETS
    finally:
        sys.path.remove(str(root / "src"))
    return main, FIGURE_PRESETS


def csv_outputs(root: Path) -> dict[str, str | None]:
    """The CSV text of each preset's ``figure`` and each INI's ``sweep`` in
    ``root``, keyed as ``write`` keys their hashes."""
    main, presets = _checkout_main(root)
    out = {}
    for name in presets:
        csv_file = f"out/{name}.csv"
        out[f"figure {name} | {csv_file}"] = _run(
            main, ["figure", name, "--out-dir", "out"], [csv_file], read=bytes.decode)[csv_file]
    for key, argv, ini in _sweeps(root):
        out[f"{key} | out.csv"] = _run(main, argv, ["out.csv"], {"sweep.ini": ini},
                                       read=bytes.decode)["out.csv"]
    return out


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(a: str, b: str) -> list[str]:
    """One line per column whose cells differ between the CSV texts ``a`` and
    ``b`` (see the module docstring) and a count of the others, or why the
    two cannot be compared."""
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if rows_a[:1] != rows_b[:1]:
        return [f"headers differ: {rows_a[:1]} != {rows_b[:1]}"]
    if len(rows_a) != len(rows_b):
        return [f"rows differ: {len(rows_a) - 1} != {len(rows_b) - 1}"]
    lines, same = [], 0
    for j, column in enumerate(rows_a[0]):
        cells = [(ra[j], rb[j]) for ra, rb in zip(rows_a[1:], rows_b[1:])]
        pairs = [(x, y) for x, y in cells if x != y]
        if not pairs:
            same += 1
            continue
        blank = sum(x == y == "" for x, y in cells)
        one_blank = sum("" in pair for pair in pairs)
        parsed = [(_number(x), _number(y)) for x, y in pairs]       # a blank cell is None
        numbers = np.array([n for n in parsed if None not in n], dtype=np.float64).reshape(-1, 2)
        delta = np.abs(numbers[:, 0] - numbers[:, 1])
        ulp = delta / np.spacing(np.abs(numbers).max(axis=1))
        lines.append(f"{column}: {len(numbers)} numbers differ, max |d| "
                     f"{delta.max(initial=0.0):.3g}, max ulp {ulp.max(initial=0.0):.3g}; "
                     f"blank {blank}, blank on one side {one_blank}, "
                     f"text differs {len(pairs) - one_blank - len(numbers)}")
    return lines + [f"{same} other columns identical"]


def compare(root_a: Path, root_b: Path) -> list[str]:
    """``compare_csv`` of every CSV of :func:`csv_outputs` that differs
    between the checkouts, under its key."""
    a, b = csv_outputs(root_a), csv_outputs(root_b)
    lines = []
    for key in sorted(a.keys() | b.keys()):
        if a.get(key) != b.get(key):
            found = None in (a.get(key), b.get(key))
            lines += [key] + ["  " + line for line in (
                ["written by one side only"] if found else compare_csv(a[key], b[key]))]
    return lines


def _hash_count(prints: dict[str, str]) -> int:
    return len(prints.keys() - set(BUILD_KEYS))


def diff(a: dict[str, str], b: dict[str, str]) -> tuple[list[str], list[str]]:
    """The build keys that differ, and the other keys whose hash differs or
    that only one side has: one ``key: a != b`` line each."""
    def lines(keys):
        return [f"{key}: {a.get(key)} != {b.get(key)}" for key in keys if a.get(key) != b.get(key)]

    return lines(BUILD_KEYS), lines(sorted((a.keys() | b.keys()) - set(BUILD_KEYS)))


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write", help="fingerprint a checkout's outputs")
    p_write.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                         help="checkout to run (default: this one)")
    p_write.add_argument("--chunk-points", type=_positive,
                         help="grid points a chunk holds (default: the checkout's CHUNK_POINTS)")
    p_write.add_argument("out", help="JSON file to write")
    p_diff = sub.add_parser("diff", help="compare two fingerprints")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_compare = sub.add_parser("compare", help="compare two checkouts' CSVs column by column")
    p_compare.add_argument("root_a")
    p_compare.add_argument("root_b")
    args = parser.parse_args(argv)
    if args.command == "write":
        prints = fingerprint(Path(args.root).resolve(), args.chunk_points)
        Path(args.out).write_text(json.dumps(prints, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
        print(f"wrote {args.out}: {_hash_count(prints)} hashes")
        return 0
    if args.command == "compare":
        lines = compare(Path(args.root_a).resolve(), Path(args.root_b).resolve())
        print("\n".join(lines) if lines else "identical CSVs")
        return 1 if lines else 0
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.a, args.b))
    builds, lines = diff(a, b)
    if builds:
        print("\n".join(["different numpy builds or CPU dispatch:", *("  " + s for s in builds)]))
    print("\n".join(lines) if lines else f"identical: {_hash_count(a)} hashes")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
