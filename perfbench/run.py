"""unruhlab benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload surface_qubit --seed 1 --seconds 40 --trace 0

One client in one process issues each ``unruhlab`` command through
``unruhlab.cli.main`` after the previous one returns, passes after pass,
until ``--seconds`` have gone by.  Every output is checked against
expected.json.  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics, whose timings are calibrated to the host's
speed of the moment by reference.py; with ``--trace 1`` a third of the
time runs untraced and the rest traced, and the JSON holds the per-layer
metrics.
See README.md for the workloads and the metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import reference
import workloads
from tracer import Tracer, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PROBES_PER_PASS = 2
PROBE_TIMEOUT_S = 60


def import_cli():
    """Import the package from this checkout's src/, never an installed copy."""
    if not (SRC / "unruhlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no unruhlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from unruhlab import cli

    if Path(cli.__file__).resolve().parent != SRC / "unruhlab":
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's copy")
    return cli


def run_op(cli, op) -> tuple[int, str, float]:
    """Issue one command; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(f"{' '.join(op.argv)}: exit {code}\n{err.getvalue()}")
    return code, out.getvalue(), seconds


class Checker:
    """Checks each command's output; CSVs must also repeat byte for byte."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.digests = {}

    def __call__(self, op, code: int, stdout: str) -> tuple[list[str], int, int]:
        """(problems, grid rows, degenerate rows) of one finished command."""
        if op.kind == "validate":
            return checks.check_validate(code, stdout, self.expected["validate"]), 0, 0
        if op.kind == "state":
            return checks.check_state(code, stdout, self.expected["states"][op.state]), 0, 0
        if code != 0:
            return [f"exit code {code}"], 0, 0
        try:
            data = op.csv.read_bytes()
        except OSError as exc:
            return [f"cannot read {op.csv}: {exc}"], 0, 0
        problems = []
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(op.csv.name, digest) != digest:
            problems.append(f"{op.csv.name} differs from the first pass")
        text = data.decode("utf-8")
        problems += checks.check_sweep_csv(text, self.expected["sweeps"][op.sweep])
        lines = text.splitlines()[1:]
        return problems, len(lines), sum(line.endswith(",1") for line in lines)


def calibrate(seconds: float, bursts: list[float]) -> float:
    """``seconds`` at the reference kernel's nominal speed, given the bursts
    that ran meanwhile (see reference.py)."""
    return seconds * reference.NOMINAL_BURST_S / statistics.fmean(bursts)


def run_pass(cli, ops, checker, gauge=None) -> dict:
    """Run and check one pass.  With a ``gauge``, reference bursts run during
    each command: ``seconds`` then excludes them, ``bursts`` lists them and
    ``cal_seconds`` is each command's own time calibrated by its own bursts."""
    result = {"seconds": 0.0, "grid_seconds": 0.0, "cal_seconds": 0.0, "cal_grid_seconds": 0.0,
              "rows": 0, "degenerate": 0, "attempted": 0, "failed": 0, "bursts": []}
    for op in ops:
        if op.csv is not None:
            op.csv.unlink(missing_ok=True)   # a command that writes nothing must fail
        cal_seconds = 0.0
        if gauge is None:
            code, stdout, seconds = run_op(cli, op)
        else:
            gauge.bursts.clear()
            with gauge:
                code, stdout, seconds = run_op(cli, op)
            seconds -= sum(gauge.bursts)
            cal_seconds = calibrate(seconds, gauge.bursts)
            result["bursts"] += gauge.bursts
        problems, rows, degenerate = checker(op, code, stdout)
        result["seconds"] += seconds
        result["cal_seconds"] += cal_seconds
        result["attempted"] += 1
        if op.csv is not None:
            result["grid_seconds"] += seconds
            result["cal_grid_seconds"] += cal_seconds
            result["rows"] += rows
            result["degenerate"] += degenerate
        if problems:
            result["failed"] += 1
            sys.stderr.write(f"FAILED {' '.join(op.argv)}: {'; '.join(problems[:5])}\n")
    return result


def run_passes(fn, seconds: float, min_passes: int) -> list[dict]:
    """Run ``fn(pass_index)`` until ``seconds`` are used up: the last pass
    may overrun by up to half a pass, so a run lasts ``seconds`` on average."""
    passes, last = [], 0.0
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start + last / 2 < seconds:
        begin = time.perf_counter()
        passes.append(fn(len(passes)))
        last = time.perf_counter() - begin
    return passes


def setup_probe(workload: str, seed: int, work: Path):
    """A function that times one set-up in a fresh interpreter.

    Probes are spread over the run, a few after each pass, so that one slow
    phase of the host does not skew them all; the first call only warms caches.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(work)]

    def probe() -> float:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed\n{proc.stderr}")
        return float(proc.stdout.split()[-1])

    probe()
    return probe


def blas_threads() -> str:
    """OpenBLAS thread count as found, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return str(fn())
    return "unknown"


def cache_sizes() -> str:
    """Unified and data cache sizes of CPU 0, e.g. 'L1d 48K, L2 2048K'."""
    found = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            found.append(f"L{level}{'d' if kind == 'Data' else ''} {size}")
    return ", ".join(found) or "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    seeded = workload == "mixed_cli"
    return {
        "workload": workload, "seed": seed,
        "seed_use": ("validate --seed and the choice of state points" if seeded
                     else "none: figure presets are fixed inputs"),
        "nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "caches": cache_sizes(),
        "src_lines": src_lines,
    }


def timings(passes: list[dict], kind: str = "") -> tuple[float, float]:
    """(median pass seconds, median grid rows per second) over ``passes``;
    ``kind="cal_"`` takes the calibrated times."""
    seconds, grid_seconds = kind + "seconds", kind + "grid_seconds"
    grid = [p["rows"] / p[grid_seconds] for p in passes if p[grid_seconds] > 0]
    return statistics.median(p[seconds] for p in passes), statistics.median(grid)


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    wall, points = timings(passes, "cal_")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_cal_s": (wall, "s"),
        "points_per_cal_s": (points, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(cli, ops_for, checker, seconds: float, workload: str) -> tuple[list[dict], dict]:
    gauge = reference.Gauge()
    plain = run_passes(lambda i: run_pass(cli, ops_for(i), checker, gauge), seconds / 3, 1)
    tracer = Tracer()

    def traced_pass(pass_index):
        ops = ops_for(len(plain) + pass_index)
        return tracer.pass_span(lambda: run_pass(cli, ops, checker))

    tracer.install()
    try:
        spent = sum(p["seconds"] for p in plain)
        passes = run_passes(traced_pass, seconds - spent, MIN_TRACED_PASSES)
    finally:
        tracer.uninstall()
    layers = tracer.summary()
    layers["sweep.rows"] = passes[-1]["rows"]
    layers["sweep.degenerate_rows"] = passes[-1]["degenerate"]
    layers["trace.overhead_frac"] = (statistics.median(p["seconds"] for p in passes)
                                     / statistics.median(p["seconds"] for p in plain) - 1.0)
    layers["wall_s"] = timings(plain)[0]
    layers["host.burst_s"] = statistics.median(b for p in plain for b in p["bursts"])
    tracer.write(WORK / f"spans-{workload}.tsv")
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    return plain + passes, {name: (layers[name], units[name]) for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checker = Checker(checks.load_expected())

    def ops_for(pass_index):
        return workloads.build_pass(args.workload, args.seed, work, pass_index)

    info = provenance(args.workload, args.seed)
    for key, value in info.items():
        print(f"# {key}: {value}")
    if args.trace:
        passes, metrics = traced(cli, ops_for, checker, args.seconds, args.workload)
    else:
        probe, setup = setup_probe(args.workload, args.seed, work), []
        gauge = reference.Gauge()

        def probed_pass(pass_index):
            result = run_pass(cli, ops_for(pass_index), checker, gauge)
            setup.extend(probe() for _ in range(PROBES_PER_PASS))
            return result

        passes = run_passes(probed_pass, args.seconds, MIN_PASSES)
        metrics = end_to_end(passes, setup)
        wall, points = timings(passes)
        bursts = [b for p in passes for b in p["bursts"]]
        print(f"{args.workload} uncalibrated: wall_s = {wall:.6g} s  points_per_s = "
              f"{points:.6g} 1/s  host.burst_s = {statistics.median(bursts):.6g} s "
              f"(nominal {reference.NOMINAL_BURST_S} s, {len(bursts)} bursts)")
        cal = " ".join(f"{p['cal_seconds']:.3f}" for p in passes)
        print(f"{args.workload} calibrated pass seconds = {cal}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    pass_seconds = " ".join(f"{p['seconds']:.3f}" for p in passes)
    print(f"{args.workload} passes = {len(passes)}  commands per pass = {len(ops_for(0))}  "
          f"pass seconds = {pass_seconds}")
    print(f"{args.workload} failed_ops_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
