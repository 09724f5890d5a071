"""Output checks against values frozen in expected.json.

Each check returns a list of problems; an empty list means the command's
output is correct.  Measures are compared to MEASURE_TOL, the agreement
every faster path must keep with the scalar pipeline, so last-bit changes
pass and a wrong answer does not.
"""

import csv
import io
import json
from pathlib import Path

MEASURE_TOL = 1e-12
# Grid coordinates of a row; a sampled row must sit where it was frozen.
COORDINATES = ("state", "i_r", "i_s")
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= MEASURE_TOL


def check_sweep_csv(text: str, expected: dict) -> list[str]:
    """Header, row count, every degenerate flag and the sampled measures."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return ["empty CSV"]
    header, body = rows[0], rows[1:]
    if header != expected["columns"]:
        return [f"header {header} != {expected['columns']}"]
    if len(body) != expected["rows"]:
        return [f"{len(body)} rows, expected {expected['rows']}"]
    problems = []
    flag_col = header.index("degenerate")
    degenerate = [i for i, row in enumerate(body) if row[flag_col] == "1"]
    if degenerate != expected["degenerate"]:
        problems.append(f"degenerate rows {degenerate[:10]} != {expected['degenerate'][:10]}")
    at = [header.index(c) for c in COORDINATES]
    for index, frozen in expected["sample"].items():
        row = body[int(index)]
        if [row[c] for c in at] != frozen["at"]:
            problems.append(f"row {index} is at {[row[c] for c in at]}, expected {frozen['at']}")
            continue
        for column, want in frozen["values"].items():
            cell = row[header.index(column)]
            try:
                got = float(cell)
            except ValueError:
                problems.append(f"row {index} {column}: {cell!r} is not a number")
                continue
            if not _close(got, want):
                problems.append(f"row {index} {column}: {got!r} != {want!r}")
    return problems


def parse_validate(text: str) -> list[list[str]]:
    """[status, name] of every check line of a validate report."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] in ("PASS", "FAIL", "INFO"):
            out.append([parts[0], parts[1]])
    return out


def check_validate(code: int, text: str, expected: list[list[str]]) -> list[str]:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if not text.rstrip().endswith("overall: PASS"):
        problems.append("report does not end with 'overall: PASS'")
    checks = parse_validate(text)
    if checks != expected:
        problems.append(f"checks {checks} != {expected}")
    return problems


def check_state(code: int, text: str, p_success: float) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    for line in text.splitlines():
        if line.startswith("p_success = "):
            got = float(line.split("=", 1)[1])
            return [] if _close(got, p_success) else [f"p_success {got!r} != {p_success!r}"]
    return ["no p_success line"]
