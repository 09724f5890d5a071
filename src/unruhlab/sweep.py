"""Parameter sweeps over (initial state, Rindler angle, filter strength).

A sweep is described by a :class:`SweepConfig`, loadable from an INI-style
``key = value`` file.  :func:`run_sweep` returns every measure of every
grid point as one array, and :func:`rows_to_csv` renders it as a
deterministic CSV: fixed column order, 17-significant-digit floats, ``\\n``
line endings, so identical configs give byte-identical files.

Grid points whose post-selection succeeds with probability (numerically)
zero are retained with the ``degenerate`` flag set and blank measure
columns.
"""

import io
import re
from dataclasses import dataclass

import numpy as np

from .channel import R_MAX, check_completeness, check_rindler, kraus_for_dim
from .errors import BadPhysicalParam, BadStrength, ConfigError, UnknownPreset
from .localops import REVERSE, WEAK, MeasurementStrengths, check_strengths
from .measures import MEASURE_COLUMNS, measure_columns
from .pipeline import chunk_points, filter_diagonal, prepare, propagate_points
from .states import parse_state_preset

TWO_QUBIT = "two_qubit"
TWO_QUTRIT = "two_qutrit"

ALL_EQUAL = "all_equal"
WEAK_REVERSE_SPLIT = "weak_reverse_split"
INDEPENDENT = "independent"
_TIE_POLICIES = (ALL_EQUAL, WEAK_REVERSE_SPLIT, INDEPENDENT)

FULL_SECTOR = "full_4dim"
PROJECTED_SECTOR = "projected_3dim"

# Most grid points one sweep may hold (fig2a has 6,400).  Larger grids are
# rejected as configuration errors before anything is allocated for them.
GRID_POINT_BUDGET = 1_000_000


def parse_grid(text: str, field_name: str = "grid") -> tuple[float, ...]:
    """Parse ``start:stop:steps`` (inclusive linspace) or ``v1, v2, ...``."""
    text = text.strip()
    try:
        if ":" in text:
            parts = [p.strip() for p in text.split(":")]
            if len(parts) != 3:
                raise ValueError("expected start:stop:steps")
            start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
            if not 1 <= steps <= GRID_POINT_BUDGET:
                raise ValueError(f"steps must be in [1, {GRID_POINT_BUDGET}], got {steps}")
            if start > stop:
                raise ValueError(f"start {start} > stop {stop}")
            if steps == 1:
                return (start,)
            return tuple(float(v) for v in np.linspace(start, stop, steps))
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}: {exc}", field=field_name) from exc


@dataclass(frozen=True)
class SweepConfig:
    """Fully resolved sweep description.

    ``r_grid`` and ``strength_grid`` are explicit value tuples (the config
    file may give them as ``start:stop:steps``).  ``initial_state`` may
    list several presets; each is swept in turn and labelled in the output.
    The scalar fields at the bottom feed the untied policies:
    ``weak_reverse_split`` drives every weak strength from the grid and
    every reversing strength from ``beta``; ``independent`` drives party
    a's weak strength from the grid and the rest from ``alpha_b`` /
    ``beta_a`` / ``beta_b``.
    """

    system: str
    initial_state: tuple[str, ...]
    r_grid: tuple[float, ...]
    strength_grid: tuple[float, ...]
    tie_policy: str = ALL_EQUAL
    phi: float = 0.0
    measures: tuple[str, ...] = MEASURE_COLUMNS
    qutrit_compare_sector: str = FULL_SECTOR
    beta: float = 0.0
    alpha_b: float = 0.0
    beta_a: float = 0.0
    beta_b: float = 0.0

    def __post_init__(self):
        if self.system not in (TWO_QUBIT, TWO_QUTRIT):
            raise ConfigError(f"unknown system {self.system!r}", field="system")
        states = tuple(self.initial_state) if not isinstance(self.initial_state, str) \
            else (self.initial_state,)
        if not states:
            raise ConfigError("need at least one initial state", field="initial_state")
        want = (3, 3) if self.system == TWO_QUTRIT else (2, 2)
        for s in states:
            try:
                rho = parse_state_preset(s)
            except UnknownPreset as exc:
                raise ConfigError(str(exc), field="initial_state") from exc
            if rho.dims != want:
                raise ConfigError(
                    f"state {s!r} has dims {rho.dims}, system {self.system} needs {want}",
                    field="initial_state",
                )
        object.__setattr__(self, "initial_state", states)
        for name, check in (("r_grid", lambda v: check_rindler(v, 0.0)),
                            ("strength_grid", check_strengths)):
            values = tuple(float(v) for v in getattr(self, name))
            if not values:
                raise ConfigError(f"empty {name.replace('_', ' ')}", field=name)
            try:
                check(values)
            except (BadPhysicalParam, BadStrength) as exc:
                raise ConfigError(str(exc), field=name) from exc
            object.__setattr__(self, name, values)
        n_points = len(states) * len(self.r_grid) * len(self.strength_grid)
        if n_points > GRID_POINT_BUDGET:
            raise ConfigError(f"{n_points} grid points exceed the budget of "
                              f"{GRID_POINT_BUDGET}")
        if self.tie_policy not in _TIE_POLICIES:
            raise ConfigError(f"unknown tie policy {self.tie_policy!r}", field="tie_policy")
        meas = tuple(self.measures)
        for m in meas:
            if m not in MEASURE_COLUMNS:
                raise ConfigError(f"unknown measure {m!r}", field="measures")
        if not meas:
            raise ConfigError("empty measure list", field="measures")
        object.__setattr__(self, "measures", meas)
        if self.qutrit_compare_sector not in (FULL_SECTOR, PROJECTED_SECTOR):
            raise ConfigError(
                f"qutrit_compare_sector must be {FULL_SECTOR}|{PROJECTED_SECTOR}",
                field="qutrit_compare_sector",
            )
        for name in ("phi", "beta", "alpha_b", "beta_a", "beta_b"):
            v = float(getattr(self, name))
            if name == "phi" and not np.isfinite(v):
                raise ConfigError(f"phi={v} is not finite", field=name)
            if name != "phi" and not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name}={v} outside [0, 1]", field=name)
            object.__setattr__(self, name, v)

    @property
    def levels(self) -> int:
        return 2 if self.system == TWO_QUTRIT else 1

    def strength_columns(self) -> tuple[str, ...]:
        if self.levels == 1:
            return ("alpha_a", "alpha_b", "beta_a", "beta_b")
        return ("alpha_a1", "alpha_a2", "alpha_b1", "alpha_b2",
                "beta_a1", "beta_a2", "beta_b1", "beta_b2")

    def strength_table(self, values=None) -> np.ndarray:
        """Every strength of each of ``values`` (default: the strength grid)
        under the tie policy: shape ``(n, 2, 2, levels)``, indexed by step
        (weak, reverse), party (a, b) and level."""
        v = np.array(self.strength_grid if values is None else values, dtype=np.float64)
        rest = {ALL_EQUAL: (v, v, v), WEAK_REVERSE_SPLIT: (v, self.beta, self.beta),
                INDEPENDENT: (self.alpha_b, self.beta_a, self.beta_b)}[self.tie_policy]
        table = np.stack(np.broadcast_arrays(v, *rest), axis=-1).reshape(-1, 2, 2, 1)
        return np.repeat(table, self.levels, axis=-1)

    def point_strengths(self, value: float
                        ) -> tuple[MeasurementStrengths, MeasurementStrengths]:
        w, r = self.strength_table((value,))[0]
        return MeasurementStrengths(WEAK, *w), MeasurementStrengths(REVERSE, *r)


def run_sweep(config: SweepConfig) -> np.ndarray:
    """Every measure of every grid point, in deterministic (state, r, strength) order.

    Returns an ``(n_points, 7)`` array with columns in ``MEASURE_COLUMNS``
    order.  Each initial state is prepared once (the channel per r, the
    filters and the weak step per strength value) and its grid runs in
    chunks of consecutive points, as many as ``CHUNK_BYTES`` holds in the
    prepared stack's dtype (:func:`~unruhlab.pipeline.chunk_points`).  A
    degenerate point's row is all NaN, and a kept row never holds NaN in
    E_norm or p_success: NaN fails the range checks of
    :func:`~unruhlab.measures.measure_columns`.  So a row is all NaN
    exactly where its point is degenerate.
    """
    dim = config.levels + 1
    kraus = kraus_for_dim(dim, check_rindler(config.r_grid, config.phi), config.phi)
    check_completeness(kraus)
    out_dim = kraus.shape[-2]
    table = config.strength_table()
    weak = filter_diagonal(WEAK, table[:, 0], dim)
    reverse = filter_diagonal(REVERSE, table[:, 1], out_dim)
    project = (config.system == TWO_QUTRIT
               and config.qutrit_compare_sector == PROJECTED_SECTOR)
    n_s = len(config.strength_grid)
    n_points = len(config.r_grid) * n_s
    measures = np.full((len(config.initial_state) * n_points, len(MEASURE_COLUMNS)), np.nan)
    for k, label in enumerate(config.initial_state):
        rho0 = parse_state_preset(label)
        grid = prepare(rho0.matrix, rho0.dims, kraus, weak, reverse, project)
        size = chunk_points(out_dim * dim, grid.weakened.itemsize)
        offset = k * n_points
        for start in range(0, n_points, size):
            i_r, i_s = np.divmod(np.arange(start, min(start + size, n_points)), n_s)
            out = propagate_points(grid, i_r, i_s)
            measures[offset + start + out.kept] = measure_columns(out)
    return measures


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell, quoted where ``csv.QUOTE_MINIMAL`` quotes."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def rows_to_csv(measures: np.ndarray, config: SweepConfig) -> str:
    """Render :func:`run_sweep`'s measure array as deterministic CSV text.

    A state label that holds a comma (an ``x:`` state) or a line break is
    one quoted cell, as the ``csv`` module writes it.
    """
    n_points = len(config.initial_state) * len(config.r_grid) * len(config.strength_grid)
    if len(measures) != n_points:
        raise ValueError(f"{len(measures)} measure rows for a grid of {n_points} points")
    cols = (("state", "i_r", "i_s", "r") + config.strength_columns()
            + config.measures + ("degenerate",))
    r_cells = [_fmt(r) for r in config.r_grid]
    table = config.strength_table()
    s_cells = [",".join(map(_fmt, row)) for row in table.reshape(len(table), -1).tolist()]
    n_cols = len(config.measures)
    kept_fmt = ",".join(["%.17g"] * n_cols) + ",0\n"
    blank = "," * n_cols + "1\n"
    values = measures[:, [MEASURE_COLUMNS.index(m) for m in config.measures]].tolist()
    degenerate = np.isnan(measures).all(axis=1).tolist()
    rows = zip(values, degenerate)
    out = io.StringIO()
    out.write(",".join(cols) + "\n")
    for label in map(_csv_cell, config.initial_state):
        for i_r, r in enumerate(r_cells):
            for i_s, s in enumerate(s_cells):
                row, dead = next(rows)
                out.write(f"{label},{i_r},{i_s},{r},{s},")
                out.write(blank if dead else kept_fmt % tuple(row))
    return out.getvalue()


def config_to_text(config: SweepConfig) -> str:
    """Serialise a config back to the INI form accepted by ``load_config``."""
    lines = ["[sweep]"]
    lines.append(f"system = {config.system}")
    lines.append(f"initial_state = {', '.join(config.initial_state)}")
    lines.append(f"r_grid = {', '.join(_fmt(v) for v in config.r_grid)}")
    lines.append(f"strength_grid = {', '.join(_fmt(v) for v in config.strength_grid)}")
    lines.append(f"tie_policy = {config.tie_policy}")
    lines.append(f"phi = {_fmt(config.phi)}")
    lines.append(f"measures = {', '.join(config.measures)}")
    lines.append(f"qutrit_compare_sector = {config.qutrit_compare_sector}")
    for name in ("beta", "alpha_b", "beta_a", "beta_b"):
        lines.append(f"{name} = {_fmt(getattr(config, name))}")
    return "\n".join(lines) + "\n"


_LIST_FIELDS = {"initial_state", "measures"}
_FLOAT_FIELDS = {"phi", "beta", "alpha_b", "beta_a", "beta_b"}
_GRID_FIELDS = {"r_grid", "strength_grid"}
_STR_FIELDS = {"system", "tie_policy", "qutrit_compare_sector"}
_REQUIRED = ("system", "initial_state", "r_grid", "strength_grid")


def config_from_mapping(mapping: dict) -> SweepConfig:
    """Build a validated config from string key/value pairs."""
    kwargs = {}
    for key, raw in mapping.items():
        key = key.strip()
        value = raw.strip()
        if key in _GRID_FIELDS:
            kwargs[key] = parse_grid(value, field_name=key)
        elif key in _LIST_FIELDS:
            # A comma followed by a number continues an ``x:`` preset's coefficients.
            parts = re.split(r",(?!\s*[-+.\d])", value)
            kwargs[key] = tuple(p.strip() for p in parts if p.strip())
        elif key in _FLOAT_FIELDS:
            try:
                kwargs[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"bad float {value!r}", field=key) from exc
        elif key in _STR_FIELDS:
            kwargs[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}", field=key)
    for req in _REQUIRED:
        if req not in kwargs:
            raise ConfigError(f"missing required key {req!r}", field=req)
    return SweepConfig(**kwargs)


def load_config(path: str, overrides: dict | None = None) -> SweepConfig:
    """Load a config file (single ``[sweep]`` section) with CLI overrides."""
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        line = getattr(exc, "lineno", None)
        raise ConfigError(f"malformed config file {path}: {exc}", line=line) from exc
    if not parser.has_section("sweep"):
        raise ConfigError("config file needs a [sweep] section")
    mapping = dict(parser.items("sweep"))
    if overrides:
        mapping.update(overrides)
    return config_from_mapping(mapping)


# --------------------------------------------------------------------------
# Figure presets.  Surfaces sample an 80 x 80 (r, strength) grid; line
# figures sample 81 points in r at a few fixed strengths.  Plotting hints,
# not part of the sweep contract: kind ('surface' | 'lines'), the measures
# the generated script plots, and the line grouping ('state' | 'strength').

_R_SURFACE = f"0:{R_MAX!r}:80"
_S_SURFACE = "0:0.98:80"
_R_LINE = f"0:{R_MAX!r}:81"


_PRESETS = {
    "fig1a": (dict(system=TWO_QUBIT, initial_state="singlet",
                   r_grid=_R_SURFACE, strength_grid=_S_SURFACE),
              ("surface", ("E_norm",), "state")),
    "fig1b": (dict(system=TWO_QUBIT, initial_state="werner:0.7",
                   r_grid=_R_SURFACE, strength_grid=_S_SURFACE),
              ("surface", ("E_norm",), "state")),
    "fig2a": (dict(system=TWO_QUTRIT, initial_state="qutrit:1",
                   r_grid=_R_SURFACE, strength_grid=_S_SURFACE),
              ("surface", ("E_norm",), "state")),
    "fig2b": (dict(system=TWO_QUTRIT, initial_state="qutrit:0.5",
                   r_grid=_R_SURFACE, strength_grid=_S_SURFACE),
              ("surface", ("E_norm",), "state")),
    "fig3a": (dict(system=TWO_QUBIT, initial_state="singlet",
                   r_grid=_R_SURFACE, strength_grid=_S_SURFACE),
              ("surface", ("I_coh_std",), "state")),
    "fig3b": (dict(system=TWO_QUBIT, initial_state="singlet",
                   r_grid=_R_SURFACE, strength_grid=_S_SURFACE),
              ("surface", ("I_a",), "state")),
    "fig4a": (dict(system=TWO_QUBIT, initial_state="singlet, werner:0.7",
                   r_grid=_R_LINE, strength_grid="0.5"),
              ("lines", ("I_a", "I_b"), "state")),
    "fig4b": (dict(system=TWO_QUBIT, initial_state="singlet",
                   r_grid=_R_LINE, strength_grid="0.5, 0.8, 0.9"),
              ("lines", ("I_coh_std", "I_a"), "strength")),
    "fig5a": (dict(system=TWO_QUTRIT, initial_state="qutrit:1",
                   r_grid=_R_SURFACE, strength_grid=_S_SURFACE),
              ("surface", ("I_coh_std",), "state")),
    "fig5b": (dict(system=TWO_QUTRIT, initial_state="qutrit:1",
                   r_grid=_R_SURFACE, strength_grid=_S_SURFACE),
              ("surface", ("I_a",), "state")),
    "fig6a": (dict(system=TWO_QUTRIT, initial_state="qutrit:1, qutrit:0.5",
                   r_grid=_R_LINE, strength_grid="0.5"),
              ("lines", ("I_a", "I_b"), "state")),
    "fig6b": (dict(system=TWO_QUTRIT, initial_state="qutrit:1",
                   r_grid=_R_LINE, strength_grid="0.5, 0.8, 0.9"),
              ("lines", ("I_coh_std", "I_a"), "strength")),
}

FIGURE_PRESETS = tuple(sorted(_PRESETS))


def figure_preset(name: str) -> SweepConfig:
    """Resolved sweep config of a named figure preset."""
    try:
        raw, _ = _PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown figure preset {name!r}; choose from {', '.join(FIGURE_PRESETS)}"
        ) from None
    return config_from_mapping(dict(raw))


def figure_info(name: str) -> tuple[str, tuple[str, ...], str]:
    """A preset's plotting hints: (kind, focus measures, line grouping)."""
    if name not in _PRESETS:
        raise UnknownPreset(f"unknown figure preset {name!r}")
    return _PRESETS[name][1]


def plot_script(name: str, csv_name: str) -> str:
    """Matplotlib script (text) that renders a preset's CSV to a PNG.

    The script is a standalone artifact: it re-reads the CSV next to it, so
    regenerating the plot needs only matplotlib.
    """
    kind, focus, group_by = figure_info(name)
    header = (
        '"""Auto-generated plotting script; regenerate with '
        f"'unruhlab figure {name}'.\"\"\"\n"
        "import csv\n"
        "import os\n"
        "from collections import defaultdict\n\n"
        "import matplotlib\n"
        "matplotlib.use('Agg')\n"
        "import matplotlib.pyplot as plt\n\n"
        "HERE = os.path.dirname(os.path.abspath(__file__))\n"
        f"CSV = os.path.join(HERE, {csv_name!r})\n"
        f"FOCUS = {focus!r}\n"
        f"KIND = {kind!r}\n"
        f"GROUP_BY = {group_by!r}\n"
        f"OUT = os.path.join(HERE, {name + '.png'!r})\n\n"
        "rows = []\n"
        "with open(CSV, newline='') as fh:\n"
        "    for rec in csv.DictReader(fh):\n"
        "        if rec['degenerate'] == '1':\n"
        "            continue\n"
        "        rows.append(rec)\n\n"
    )
    surface = (
        "fig = plt.figure(figsize=(7, 5))\n"
        "ax = fig.add_subplot(projection='3d')\n"
        "measure = FOCUS[0]\n"
        "rs = sorted({float(r['r']) for r in rows})\n"
        "ss = sorted({float(r[[k for k in r if k.startswith('alpha_a')][0]])\n"
        "             for r in rows})\n"
        "grid = {(float(r['r']),\n"
        "         float(r[[k for k in r if k.startswith('alpha_a')][0]])):\n"
        "        float(r[measure]) for r in rows}\n"
        "import numpy as np\n"
        "R, S = np.meshgrid(rs, ss, indexing='ij')\n"
        "Z = np.array([[grid.get((rv, sv), np.nan) for sv in ss] for rv in rs])\n"
        "ax.plot_surface(R, S, Z, cmap='viridis')\n"
        "ax.set_xlabel('r')\n"
        "ax.set_ylabel('strength')\n"
        "ax.set_zlabel(measure)\n"
        "fig.savefig(OUT, dpi=150)\n"
    )
    lines = (
        "fig, ax = plt.subplots(figsize=(7, 5))\n"
        "strength_col = [k for k in rows[0] if k.startswith('alpha_a')][0]\n"
        "series = defaultdict(list)\n"
        "for rec in rows:\n"
        "    key = rec['state'] if GROUP_BY == 'state' else rec[strength_col]\n"
        "    for measure in FOCUS:\n"
        "        series[(key, measure)].append((float(rec['r']),\n"
        "                                       float(rec[measure])))\n"
        "for (key, measure), pts in sorted(series.items()):\n"
        "    pts.sort()\n"
        "    ax.plot([p[0] for p in pts], [p[1] for p in pts],\n"
        "            label=f'{measure} ({key})')\n"
        "ax.set_xlabel('r')\n"
        "ax.set_ylabel('bits')\n"
        "ax.legend()\n"
        "fig.savefig(OUT, dpi=150)\n"
    )
    return header + (surface if kind == "surface" else lines)
