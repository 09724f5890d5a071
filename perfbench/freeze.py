"""Regenerate expected.json from the package in this checkout.

    python3 perfbench/freeze.py

Run it only to re-baseline the output checks on purpose: the values it
writes are what every later version is checked against.  It records, for
every sweep the workloads run, the header, the row count, the index of
every degenerate row and all measures of a fixed subset of rows; the
check names and statuses of ``validate``; and the ``p_success`` of every
frozen ``state`` point.

The subset takes one row at a seeded random offset from each of
SAMPLE_ROWS equal blocks of the sweep.  A fixed stride would line up with
the strength grid (rows are ordered ``i_r * len(strength_grid) + i_s``)
and sample one strength only; random offsets cover both grid axes.
"""

import csv
import io
import json
import random
import shutil

import checks
import workloads
from run import WORK, import_cli, run_op

SAMPLE_ROWS = 40
SAMPLE_SEED = 0


def sample_rows(body: list[list[str]], flag: int, rng: random.Random) -> list[int]:
    """One non-degenerate row at a random offset in each of SAMPLE_ROWS blocks."""
    n = len(body)
    blocks = min(SAMPLE_ROWS, n)
    picks = []
    for b in range(blocks):
        block = list(range(b * n // blocks, (b + 1) * n // blocks))
        rng.shuffle(block)
        picks += [i for i in block if body[i][flag] == "0"][:1]
    return picks


def freeze_sweep(text: str, measures, rng: random.Random) -> dict:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    flag = header.index("degenerate")
    at = [header.index(c) for c in checks.COORDINATES]
    columns = [header.index(m) for m in measures if m in header]
    sample = {}
    for i in sample_rows(body, flag, rng):
        sample[str(i)] = {"at": [body[i][c] for c in at],
                          "values": {header[c]: float(body[i][c]) for c in columns}}
    return {"columns": header, "rows": len(body),
            "degenerate": [i for i, row in enumerate(body) if row[flag] == "1"],
            "sample": sample}


def main() -> None:
    cli = import_cli()
    from unruhlab.sweep import MEASURE_COLUMNS
    work = WORK / "freeze"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inis = workloads.write_inis(work)
    ops = [workloads.figure_op(p, work) for p in ("fig1a", "fig2a") + workloads.LINE_PRESETS]
    ops += [workloads.sweep_op(name, path, work) for name, path in inis.items()]
    expected = {"sweeps": {}, "states": {}}
    rng = random.Random(SAMPLE_SEED)
    for op in ops:
        code, _, _ = run_op(cli, op)
        if code != 0:
            raise SystemExit(f"{op.argv} exited {code}")
        expected["sweeps"][op.sweep] = freeze_sweep(op.csv.read_text(encoding="utf-8"),
                                                     MEASURE_COLUMNS, rng)
    code, text, _ = run_op(cli, workloads.Op("validate", ("validate",)))
    expected["validate"] = checks.parse_validate(text)
    if code != 0 or not expected["validate"]:
        raise SystemExit("validate did not pass")
    for kind, points in workloads.STATE_POINTS.items():
        for i, argv in enumerate(points):
            key = workloads.state_key(kind, i)
            code, text, _ = run_op(cli, workloads.Op("state", ("state",) + argv))
            line = next(ln for ln in text.splitlines() if ln.startswith("p_success = "))
            expected["states"][key] = float(line.split("=", 1)[1])
    checks.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {checks.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
