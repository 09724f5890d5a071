"""Workload definitions: the CLI commands one pass of each workload runs.

A pass is a list of :class:`Op`, each one ``unruhlab`` command line issued
through ``unruhlab.cli.main``.  Figure presets and the two sweep INIs are
fixed inputs; the seed only picks the ``validate --seed`` values and which
frozen ``state`` points run.  This module does not import ``unruhlab``, so
the set-up probe can time that import itself.
"""

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("surface_qubit", "surface_qutrit", "mixed_cli")

# Ten times the CLI default, so that validate's closed-form loop is a
# visible share of a mixed_cli pass rather than a rounding error.
VALIDATE_SAMPLES = 1000

# Two generated sweep configs.  The qutrit one reaches strength 1.0 under
# projected_3dim, so it has degenerate rows and runs restrict_to_ladder;
# no `x:` state appears because a sweep's initial_state is split at commas.
INIS = {
    "ini_qutrit_projected": (
        "[sweep]\n"
        "system = two_qutrit\n"
        "initial_state = qutrit:1, qutrit:0.5\n"
        "r_grid = 0:0.7853981633974483:21\n"
        "strength_grid = 0:1:21\n"
        "tie_policy = all_equal\n"
        "qutrit_compare_sector = projected_3dim\n"
    ),
    "ini_qubit_split": (
        "[sweep]\n"
        "system = two_qubit\n"
        "initial_state = singlet, werner:0.7\n"
        "r_grid = 0:0.7853981633974483:21\n"
        "strength_grid = 0:0.95:21\n"
        "tie_policy = weak_reverse_split\n"
        "beta = 0.6\n"
    ),
}

LINE_PRESETS = ("fig4b", "fig6b")

# Frozen `state` points; expected.json holds each one's p_success.  The
# seed draws STATES_PER_KIND of each kind, so every pass has the same mix.
STATE_POINTS = {
    "qubit": (
        ("--preset", "singlet", "--r", "0.3", "--alpha", "0.2", "--beta", "0.5"),
        ("--preset", "singlet", "--r", "0.7", "--alpha", "0.9", "--beta", "0.1"),
        ("--preset", "werner:0.7", "--r", "0.1", "--alpha", "0.4", "--beta", "0.4"),
        ("--preset", "werner:0.4", "--r", "0.5", "--alpha", "0.6", "--beta", "0.8"),
        ("--preset", "x:-0.5,-0.2,0.3", "--r", "0.2", "--alpha", "0.3", "--beta", "0.6"),
        ("--preset", "x:0.3,-0.6,-0.1", "--r", "0.6", "--alpha", "0.7", "--beta", "0.2"),
        ("--preset", "singlet", "--accel", "2.5", "--omega", "1.0", "--alpha", "0.5",
         "--beta", "0.5"),
        ("--preset", "werner:0.9", "--accel", "8.0", "--omega", "0.5", "--alpha", "0.1",
         "--beta", "0.9", "--phi", "1.2"),
    ),
    "qutrit": (
        ("--preset", "qutrit:1", "--r", "0.3", "--alpha", "0.2", "--beta", "0.5"),
        ("--preset", "qutrit:1", "--r", "0.7", "--alpha", "0.8", "--beta", "0.3"),
        ("--preset", "qutrit:0.5", "--r", "0.1", "--alpha", "0.4", "--beta", "0.4"),
        ("--preset", "qutrit:2", "--r", "0.5", "--alpha", "0.6", "--beta", "0.7"),
        ("--preset", "qutrit:0.2", "--r", "0.2", "--alpha", "0.3", "--beta", "0.6"),
        ("--preset", "qutrit:1.5", "--r", "0.6", "--alpha", "0.7", "--beta", "0.2"),
        ("--preset", "qutrit:1", "--accel", "3.0", "--omega", "1.0", "--alpha", "0.5",
         "--beta", "0.5", "--phi", "0.4"),
        ("--preset", "qutrit:0.8", "--accel", "1.0", "--omega", "2.0", "--alpha", "0.9",
         "--beta", "0.1"),
    ),
}
STATES_PER_KIND = 3


@dataclass(frozen=True)
class Op:
    """One CLI command of a pass.

    ``sweep`` names the frozen expectation a figure/sweep output is checked
    against and ``csv`` is the file it writes; ``state`` indexes
    ``STATE_POINTS`` as ``kind:i``.
    """

    kind: str
    argv: tuple[str, ...]
    sweep: str = ""
    csv: Path | None = None
    state: str = ""


def state_key(kind: str, i: int) -> str:
    return f"{kind}:{i}"


def state_argv(key: str) -> tuple[str, ...]:
    kind, _, i = key.partition(":")
    return STATE_POINTS[kind][int(i)]


def chosen_states(seed: int) -> list[str]:
    rng = random.Random(seed)
    keys = []
    for kind in ("qubit", "qutrit"):
        picks = sorted(rng.sample(range(len(STATE_POINTS[kind])), STATES_PER_KIND))
        keys += [state_key(kind, i) for i in picks]
    return keys


def write_inis(work: Path) -> dict[str, Path]:
    paths = {}
    for name, text in INIS.items():
        path = work / f"{name}.ini"
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    return paths


def figure_op(preset: str, work: Path) -> Op:
    out = work / preset
    return Op("figure", ("figure", preset, "--out-dir", str(out)),
              sweep=preset, csv=out / f"{preset}.csv")


def sweep_op(name: str, ini: Path, work: Path) -> Op:
    out = work / f"{name}.csv"
    return Op("sweep", ("sweep", "--config", str(ini), "--out", str(out)),
              sweep=name, csv=out)


def validate_seed(seed: int, pass_index: int) -> int:
    """A new ``validate --seed`` for every pass, so no pass repeats the
    previous one's channel parameters."""
    return (seed * 1000 + pass_index) % 2**32


def build_pass(workload: str, seed: int, work: Path, pass_index: int = 0) -> list[Op]:
    """The commands of pass ``pass_index``, in the order a user would type them."""
    if workload == "surface_qubit":
        return [figure_op("fig1a", work)]
    if workload == "surface_qutrit":
        return [figure_op("fig2a", work)]
    if workload != "mixed_cli":
        raise ValueError(f"unknown workload {workload!r}")
    inis = write_inis(work)
    ops = [Op("validate", ("validate", "--seed", str(validate_seed(seed, pass_index)),
                           "--samples", str(VALIDATE_SAMPLES)))]
    ops += [Op("state", ("state",) + state_argv(k), state=k) for k in chosen_states(seed)]
    ops += [figure_op(p, work) for p in LINE_PRESETS]
    ops += [sweep_op(name, path, work) for name, path in inis.items()]
    return ops


def resolve_inputs(workload: str, seed: int, work: Path) -> None:
    """Config resolution and initial-state construction, nothing more.

    This is what a command does before its first grid point; the set-up
    probe times it, together with ``import unruhlab.cli``, in a fresh
    interpreter.
    """
    from unruhlab import cli

    for op in build_pass(workload, seed, work):
        if op.kind == "figure":
            config = cli.figure_preset(op.argv[1])
        elif op.kind == "sweep":
            config = cli.load_config(op.argv[2])
        elif op.kind == "state":
            cli.parse_state_preset(state_argv(op.state)[1])
            continue
        else:
            continue
        for label in config.initial_state:
            cli.parse_state_preset(label)
