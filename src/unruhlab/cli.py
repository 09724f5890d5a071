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
import sys
from pathlib import Path

import numpy as np

from . import DEFAULT_SAMPLES, DEFAULT_SEED
from .channel import AccelerationSpec, check_omega, check_rindler, r_from_acceleration
from .errors import (BadPhysicalParam, BadStrength, ConfigError, DegenerateOutcome,
                     UnknownPreset, UnruhLabError)
from .localops import REVERSE, WEAK, tied
from .pipeline import propagate_point
from .states import parse_state_preset
from .sweep import (
    FIGURE_PRESETS,
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


def _output(path: str, directory: bool = False) -> Path:
    """``path``, checked to be a file in an existing directory, or a
    directory that exists or can be created."""
    out = Path(path)
    if directory:
        ok = next(p for p in (out, *out.parents) if p.exists()).is_dir()
    else:
        ok = out.parent.is_dir() and not out.is_dir()
    if not ok:
        raise ConfigError(f"cannot write output {'directory' if directory else 'file'} {out}")
    return out


def _cmd_sweep(args) -> int:
    out = _output(args.out)
    config = load_config(args.config, overrides=_parse_overrides(args.set))
    measures = run_sweep(config)
    out.write_text(rows_to_csv(measures, config), encoding="utf-8")
    degenerate = int(np.isnan(measures).all(axis=1).sum())
    print(f"wrote {args.out}: {len(measures)} rows ({degenerate} degenerate)")
    return 0


def _cmd_figure(args) -> int:
    out_dir = _output(args.out_dir, directory=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = figure_preset(args.preset)
    measures = run_sweep(config)
    csv_name = f"{args.preset}.csv"
    (out_dir / csv_name).write_text(rows_to_csv(measures, config), encoding="utf-8")
    (out_dir / f"plot_{args.preset}.py").write_text(
        plot_script(args.preset, csv_name), encoding="utf-8")
    (out_dir / f"{args.preset}.ini").write_text(config_to_text(config),
                                                encoding="utf-8")
    print(f"wrote {out_dir / csv_name}: {len(measures)} rows")
    print(f"render with: python {out_dir / f'plot_{args.preset}.py'}")
    return 0


def _cmd_validate(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be positive, got {args.samples}")
    if args.seed < 0:
        raise ConfigError(f"--seed must not be negative, got {args.seed}")
    out_dir = None if args.out_dir is None else _output(args.out_dir, directory=True)
    report = run_validation(seed=args.seed, samples=args.samples)
    text = report.to_text()
    print(text, end="")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(text, encoding="utf-8")
        (out_dir / "report.csv").write_text(report.to_csv(), encoding="utf-8")
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
    dim = rho0.dims[0]
    if args.r is None and args.omega is None:
        raise ConfigError("--accel requires --omega")
    if args.r is None:
        _option("--omega", check_omega, args.omega)
        r = _option("--accel", r_from_acceleration, args.accel, args.omega)
    else:
        r = args.r
        _option("--r", check_rindler, r, 0.0)
    acc = _option("--phi", AccelerationSpec, r, args.phi)
    weak = _option("--alpha", tied, WEAK, args.alpha, dim)
    reverse = _option("--beta", tied, REVERSE, args.beta, dim)
    try:
        out = propagate_point(rho0, weak, reverse, acc)
    except DegenerateOutcome as exc:
        print(f"degenerate point: {exc}", file=sys.stderr)
        return 1
    final = out.states[0]
    print(f"r = {r:.17g}")
    print(f"p_success = {out.p_success[0]:.17g}")
    print(f"final dims = {out.dims}")
    if out_path is not None:
        lines = ["i,j,re,im"]
        n = len(final)
        for i in range(n):
            for j in range(n):
                v = final[i, j]
                lines.append(f"{i},{j},{v.real:.17g},{v.imag:.17g}")
        out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "figure": _cmd_figure,
        "validate": _cmd_validate,
        "state": _cmd_state,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, UnknownPreset) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnruhLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
