"""Command line front end.

Subcommands
-----------
sweep     run a sweep from a config file, write CSV
figure    run a named preset, write CSV plus a matplotlib script
validate  cross-check closed forms against the channel pipeline
state     evaluate the protocol at a single parameter point

Exit codes: 0 success, 1 a validation check failed, 2 bad usage or config.
"""

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import DEFAULT_SAMPLES, DEFAULT_SEED
from .channel import check_omega, check_phase, check_rindler, r_from_acceleration
from .errors import BadPhysicalParam, BadStrength, ConfigError, UnknownPreset, UnruhLabError
from .localops import SUCCESS_FLOOR, check_strengths
from .pipeline import engine_inputs, propagate
from .states import parse_state_preset
from .sweep import (
    FIGURE_PRESETS,
    GRID_POINT_BUDGET,
    config_to_text,
    figure_preset,
    load_config,
    plot_script,
    rows_to_csv,
    run_sweep,
)


def run_validation(seed: int, samples: int):
    """:func:`unruhlab.validate.run_validation`, imported on the first call
    so that the other commands never load the closed forms."""
    from .validate import run_validation as run
    return run(seed=seed, samples=samples)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unruhlab",
        description="weak-measurement / acceleration / reversal protocol lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a sweep described by a config file")
    p_sweep.add_argument("--config", required=True, help="INI file with a [sweep] section")
    p_sweep.add_argument("--out", default="sweep.csv", help="output CSV path")
    p_sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="override a config key (repeatable)")

    p_fig = sub.add_parser("figure", help="run a named figure preset")
    p_fig.add_argument("preset", choices=FIGURE_PRESETS)
    p_fig.add_argument("--out-dir", default=".", help="directory for the outputs")

    p_val = sub.add_parser("validate", help="run the closed-form cross checks")
    p_val.add_argument("--out-dir", default=None,
                       help="also write report.txt and report.csv here")
    p_val.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_val.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    p_state = sub.add_parser("state", help="evaluate one parameter point")
    p_state.add_argument("--preset", required=True,
                         help="initial state, e.g. singlet | werner:0.7 | qutrit:1")
    group = p_state.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=float, help="Rindler angle in [0, pi/4]")
    group.add_argument("--accel", type=float,
                       help="proper acceleration (needs --omega)")
    p_state.add_argument("--omega", type=float, default=None,
                         help="mode frequency, used with --accel")
    p_state.add_argument("--alpha", type=float, default=0.0,
                         help="weak strength, applied to every level of both parties")
    p_state.add_argument("--beta", type=float, default=0.0,
                         help="reversing strength, same tying")
    p_state.add_argument("--phi", type=float, default=0.0)
    p_state.add_argument("--out", default=None,
                         help="write the final state as i,j,re,im CSV")
    return parser


def _parse_overrides(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set needs KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value
    return out


def _output(path: str, names: tuple[str, ...] = ()) -> Path:
    """``path``, checked to be a file in an existing directory; or, given the
    ``names`` of the files to be written into it, a directory that exists or
    can be created and holds no directory by one of those names."""
    out = Path(path)
    files = [out / name for name in names] or [out]
    try:
        home = next(p for p in (out, *out.parents) if p.exists()) if names else out.parent
        bad = next((f for f in files if f.is_dir()), None) if home.is_dir() else out
    except OSError:             # a path the system refuses to look up, such as too long a name
        bad = out
    if bad is not None:
        kind = "directory" if names and bad == out else "file"
        raise ConfigError(f"cannot write output {kind} {bad}")
    return out


def _write(*outputs: tuple[Path, object]) -> None:
    """Write each ``(path, content)`` (text, or a function that writes bytes
    to a binary file handle, as ``rows_to_csv`` streams a CSV) into a
    temporary file beside its path, and move them all into place once every
    one is complete, so that no path holds a partial file and a failed
    write leaves every path as it was.  The temporary names do not grow
    with the paths', so that each fits wherever its path does."""
    parts = []
    try:
        for i, (path, content) in enumerate(outputs):
            parts.append(path.with_name(f".unruhlab.{os.getpid()}.{i}.part"))
            with open(parts[-1], "wb") as fh:
                if isinstance(content, str):
                    fh.write(content.encode("utf-8"))
                else:
                    content(fh)
        for part, (path, _) in zip(parts, outputs):
            os.replace(part, path)
    except BaseException:
        for part in parts:
            part.unlink(missing_ok=True)
        raise


def _cmd_sweep(args) -> int:
    out = _output(args.out)
    config = load_config(args.config, overrides=_parse_overrides(args.set))
    measures = run_sweep(config)
    _write((out, functools.partial(rows_to_csv, measures, config)))
    degenerate = int(np.isnan(measures).all(axis=1).sum())
    print(f"wrote {args.out}: {len(measures)} rows ({degenerate} degenerate)")
    return 0


def _cmd_figure(args) -> int:
    names = csv_name, plot_name, ini_name = (f"{args.preset}.csv", f"plot_{args.preset}.py",
                                             f"{args.preset}.ini")
    out_dir = _output(args.out_dir, names)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = figure_preset(args.preset)
    measures = run_sweep(config)
    _write((out_dir / csv_name, functools.partial(rows_to_csv, measures, config)),
           (out_dir / plot_name, plot_script(args.preset, csv_name)),
           (out_dir / ini_name, config_to_text(config)))
    print(f"wrote {out_dir / csv_name}: {len(measures)} rows")
    print(f"render with: python {out_dir / plot_name}")
    return 0


def _cmd_validate(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be positive, got {args.samples}")
    if args.samples > GRID_POINT_BUDGET:
        raise ConfigError(f"--samples must be at most {GRID_POINT_BUDGET}, got {args.samples}")
    if args.seed < 0:
        raise ConfigError(f"--seed must not be negative, got {args.seed}")
    out_dir = None if args.out_dir is None else _output(args.out_dir, ("report.txt", "report.csv"))
    report = run_validation(seed=args.seed, samples=args.samples)
    text = report.to_text()
    print(text, end="")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write((out_dir / "report.txt", text), (out_dir / "report.csv", report.to_csv()))
    return 0 if report.passed else 1


def _option(name: str, build, *args):
    """``build(*args)``, turning a bad value into a :class:`ConfigError`
    that names the command-line option ``name`` it came from."""
    try:
        return build(*args)
    except (BadStrength, BadPhysicalParam) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _cmd_state(args) -> int:
    if args.r is not None and args.omega is not None:
        raise ConfigError("--omega needs --accel, not --r")
    out_path = None if args.out is None else _output(args.out)
    rho0 = parse_state_preset(args.preset)
    if args.r is None and args.omega is None:
        raise ConfigError("--accel requires --omega")
    if args.r is None:
        _option("--omega", check_omega, args.omega)
        r = _option("--accel", r_from_acceleration, args.accel, args.omega)
    else:
        r = args.r
        _option("--r", check_rindler, r)
    _option("--phi", check_phase, args.phi)
    _option("--alpha", check_strengths, args.alpha)
    _option("--beta", check_strengths, args.beta)
    # one point: alpha every weak strength, beta every reversing one
    dim = rho0.dims[0]
    table = np.empty((1, 2, 2, dim - 1))    # (point, step, party, level)
    table[:, 0], table[:, 1] = args.alpha, args.beta
    out = propagate(rho0, rho0.dims, *engine_inputs(dim, (r,), table))
    if not len(out.kept):
        print(f"degenerate point: success probability below {SUCCESS_FLOOR}", file=sys.stderr)
        return 1
    final = out.states[0]
    print(f"r = {r:.17g}")
    print(f"p_success = {out.p_success[0]:.17g}")
    print(f"final dims = {out.dims}")
    if out_path is not None:
        lines = ["i,j,re,im", *(f"{i},{j},{v.real:.17g},{v.imag:.17g}"
                                for (i, j), v in np.ndenumerate(final))]
        _write((out_path, "\n".join(lines) + "\n"))
        print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # the parser's exit: 2 on bad usage, 0 after --help
        return exc.code
    handlers = {"sweep": _cmd_sweep, "figure": _cmd_figure, "validate": _cmd_validate,
                "state": _cmd_state}
    try:
        return handlers[args.command](args)
    except (ConfigError, UnknownPreset) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnruhLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
