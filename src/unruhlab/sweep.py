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

import re
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .channel import R_MAX, check_phase, check_rindler
from .errors import BadPhysicalParam, BadStrength, ConfigError, UnknownPreset
from .localops import check_strengths
from .measures import MEASURE_COLUMNS, measure_columns
from .pipeline import CHUNK_POINTS, engine_inputs, prepare, propagate_points
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
    ``beta_a`` / ``beta_b``.  ``parsed_states`` holds each initial state as
    parsed and strictly checked where it enters, here; it is not part of
    the config's value.
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
    parsed_states: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.system not in (TWO_QUBIT, TWO_QUTRIT):
            raise ConfigError(f"unknown system {self.system!r}", field="system")
        states = tuple(self.initial_state) if not isinstance(self.initial_state, str) \
            else (self.initial_state,)
        if not states:
            raise ConfigError("need at least one initial state", field="initial_state")
        want = (3, 3) if self.system == TWO_QUTRIT else (2, 2)
        checked = []
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
            checked.append(rho)
        object.__setattr__(self, "initial_state", states)
        object.__setattr__(self, "parsed_states", tuple(checked))
        for name in ("r_grid", "strength_grid"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
            if not getattr(self, name):
                raise ConfigError(f"empty {name.replace('_', ' ')}", field=name)
        for name, check in (("r_grid", check_rindler), ("strength_grid", check_strengths),
                            ("phi", check_phase)):
            try:
                check(getattr(self, name))
            except (BadPhysicalParam, BadStrength) as exc:
                raise ConfigError(str(exc), field=name) from exc
        n_points = len(states) * len(self.r_grid) * len(self.strength_grid)
        if n_points > GRID_POINT_BUDGET:
            raise ConfigError(f"{n_points} grid points exceed the budget of "
                              f"{GRID_POINT_BUDGET}")
        if self.tie_policy not in _TIE_POLICIES:
            raise ConfigError(f"unknown tie policy {self.tie_policy!r}", field="tie_policy")
        meas = tuple(self.measures)
        for i, m in enumerate(meas):
            if m not in MEASURE_COLUMNS:
                raise ConfigError(f"unknown measure {m!r}", field="measures")
            if m in meas[:i]:
                raise ConfigError(f"measure {m!r} listed twice", field="measures")
        if not meas:
            raise ConfigError("empty measure list", field="measures")
        object.__setattr__(self, "measures", meas)
        if self.qutrit_compare_sector not in (FULL_SECTOR, PROJECTED_SECTOR):
            raise ConfigError(
                f"qutrit_compare_sector must be {FULL_SECTOR}|{PROJECTED_SECTOR}",
                field="qutrit_compare_sector",
            )
        for name in (n for n, f in _FIELDS.items() if f.type is float):
            v = float(getattr(self, name))
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

    def strength_table(self) -> np.ndarray:
        """Every strength of each strength grid value under the tie policy:
        shape ``(n, 2, 2, levels)``, indexed by step (weak, reverse), party
        (a, b) and level."""
        v = np.array(self.strength_grid, dtype=np.float64)
        rest = {ALL_EQUAL: (v, v, v), WEAK_REVERSE_SPLIT: (v, self.beta, self.beta),
                INDEPENDENT: (self.alpha_b, self.beta_a, self.beta_b)}[self.tie_policy]
        table = np.stack(np.broadcast_arrays(v, *rest), axis=-1).reshape(-1, 2, 2, 1)
        return np.repeat(table, self.levels, axis=-1)


# The INI keys, in the order ``config_to_text`` writes them; each key's
# type picks its reader in ``config_from_mapping``.
_FIELDS = {f.name: f for f in fields(SweepConfig) if f.init}


def grid_inputs(config: SweepConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """What :func:`~unruhlab.pipeline.prepare` takes after the initial states:
    :func:`~unruhlab.pipeline.engine_inputs` of the r grid and strength table
    (one checked Kraus stack per r, the filter diagonals of each strength
    value under the tie policy), and ``project``; ``phi`` does not enter."""
    project = (config.system == TWO_QUTRIT
               and config.qutrit_compare_sector == PROJECTED_SECTOR)
    return (*engine_inputs(config.levels + 1, config.r_grid, config.strength_table()), project)


def _slabs(n_r: int, n_s: int, size: int):
    """A ``(n_r, n_s)`` grid in rectangles of at most ``size`` points (at
    least one) that are contiguous in row-major order: whole r rows, or one
    r row's strengths a slice at a time when a row holds more than ``size``.
    Yields (first point, channel rows ``(n,)``, filter rows ``(1, g)``)."""
    rows, width = max(1, size // n_s), min(size, n_s)
    for r in range(0, n_r, rows):
        for s in range(0, n_s, width):
            yield (r * n_s + s, np.arange(r, min(r + rows, n_r)),
                   np.arange(s, min(s + width, n_s))[None])


def run_sweep(config: SweepConfig) -> np.ndarray:
    """Every measure of every grid point, in deterministic (state, r, strength) order.

    Returns an ``(n_points, 7)`` array with columns in ``MEASURE_COLUMNS``
    order.  Each initial state is prepared once (the channel per r, the
    filters and the weak step per strength value) and its grid runs in
    slabs (:func:`_slabs`) of at most ``CHUNK_POINTS`` points, whatever the
    state's dimension, so fig2a's 6,400 qutrit points run as one slab.  A
    degenerate point's row is all NaN, and a kept row never holds NaN in
    E_norm or p_success: NaN fails the range checks of
    :func:`~unruhlab.measures.measure_columns`.  So a row is all NaN
    exactly where its point is degenerate.
    """
    inputs = grid_inputs(config)
    n_r, n_s = len(config.r_grid), len(config.strength_grid)
    n_points = n_r * n_s
    measures = np.full((len(config.initial_state) * n_points, len(MEASURE_COLUMNS)), np.nan)
    for k, rho0 in enumerate(config.parsed_states):
        grid = prepare(rho0, rho0.dims, *inputs)
        for start, rows, cols in _slabs(n_r, n_s, CHUNK_POINTS):
            out = propagate_points(grid, rows, cols)
            measures[k * n_points + start + out.kept] = measure_columns(out)
    return measures


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_cell(text: str) -> str:
    """``text`` as one CSV cell, quoted where ``csv.QUOTE_MINIMAL`` quotes."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _byte_rows(texts: list[str]) -> np.ndarray:
    """``texts`` as UTF-8, one per row of a NUL-padded uint8 matrix."""
    data = [t.encode("utf-8") for t in texts]
    assert not any(b"\0" in d for d in data), "a CSV cell holds a NUL"
    width = max(map(len, data))
    return np.array(data, dtype=f"S{width}").view(np.uint8).reshape(len(data), width)


# Rows rendered, and written, at a time.  Sizes taken in alternating rounds
# in one process (medians of 25, two runs, 2-core host, numpy 2.4): fig1a
# rendered to text in 9.0-9.4 ms at 1,024 rows, against 9.4-10.0 ms at 512,
# 10.4-10.9 at 2,048, 10.8-11.9 at 256 and 11.1-11.8 at 4,096 (fig2a:
# 10.5-10.9, 11.0-11.3, 10.5-10.6, 12.1-12.2 and 13.7 ms).  Written to a
# handle, 512 rows rendered fig1a up to 10 % faster, but `figure` was not:
# against 1,024, it lost 5 of 6 surface_qubit and 4 of 4 surface_qutrit
# perfbench pairs.
BLOCK_ROWS = 1024


def _csv_blocks(measures: np.ndarray, config: SweepConfig):
    """The CSV as byte blocks: the header, then ``BLOCK_ROWS`` rows at a time.

    Each block is laid out as a NUL-padded uint8 matrix, one row per line:
    the label, ``i_r``, ``i_s``, ``r`` and the strengths (rendered once per
    index), the measure cells (:func:`~unruhlab.cellfmt.format_cells`, the
    comma in each cell's last column, which a cell leaves NUL) and the
    flag.  Every byte of a row is written, so one buffer serves every
    block.  Deleting the NULs leaves the text.
    """
    from .cellfmt import CELL_WIDTH, format_cells

    n_s = len(config.strength_grid)
    n_points = len(config.r_grid) * n_s
    if len(measures) != len(config.initial_state) * n_points:
        raise ValueError(f"{len(measures)} measure rows for a grid of "
                         f"{len(config.initial_state) * n_points} points")
    cols = (("state", "i_r", "i_s", "r") + config.strength_columns()
            + config.measures + ("degenerate",))
    yield (",".join(cols) + "\n").encode("utf-8")

    def float_rows(values: np.ndarray) -> np.ndarray:
        """Each row of ``values`` as comma-ended cells, without the columns
        that are NUL in every row."""
        cells = np.empty(values.shape + (CELL_WIDTH,), np.uint8)
        format_cells(values, cells)
        cells[..., -1] = ord(",")
        cells = cells.reshape(len(values), -1)
        return cells.compress(cells.any(axis=0), axis=1)

    table = config.strength_table()
    index = _byte_rows([f"{i}," for i in range(max(len(config.r_grid), n_s))])
    parts = (
        _byte_rows([_csv_cell(label) + "," for label in config.initial_state]),
        index, index,
        float_rows(np.array(config.r_grid)[:, None]),
        float_rows(table.reshape(len(table), -1)),
    )
    picked = [MEASURE_COLUMNS.index(m) for m in config.measures]
    width = sum(part.shape[1] for part in parts) + len(picked) * CELL_WIDTH + 2
    buffer = np.empty((min(BLOCK_ROWS, len(measures)), width), np.uint8)
    for start in range(0, len(measures), BLOCK_ROWS):
        values = measures[start:start + BLOCK_ROWS]
        dead = np.isnan(values).all(axis=1)
        values = np.where(dead[:, None], 0.0, values[:, picked])
        state, point = np.divmod(np.arange(start, start + len(values)), n_points)
        i_r, i_s = np.divmod(point, n_s)
        block = buffer[:len(values)]
        at = 0
        for part, rows in zip(parts, (state, i_r, i_s, i_r, i_s)):
            block[:, at:at + part.shape[1]] = part.take(rows, axis=0)
            at += part.shape[1]
        cells = block[:, at:-2].reshape(len(values), len(picked), CELL_WIDTH)
        format_cells(values, cells)
        cells[dead] = 0
        cells[..., -1] = ord(",")
        block[:, -2] = ord("0") + dead
        block[:, -1] = ord("\n")
        yield block.tobytes().translate(None, b"\0")


def rows_to_csv(measures: np.ndarray, config: SweepConfig, fh=None) -> str | None:
    """Render :func:`run_sweep`'s measure array as deterministic CSV text.

    Floats are written as ``'%.17g' % x`` writes them.  A state label that
    holds a comma (an ``x:`` state) or a line break is one quoted cell, as
    the ``csv`` module writes it.  Given a binary file handle ``fh``, the
    CSV is written to it block by block as it is rendered, and ``None`` is
    returned; otherwise the text is.
    """
    blocks = _csv_blocks(measures, config)
    if fh is None:
        return b"".join(blocks).decode("utf-8")
    for block in blocks:
        fh.write(block)
    return None


def _text(value) -> str:
    """A config value as ``config_from_mapping`` reads it back."""
    if isinstance(value, tuple):
        return ", ".join(map(_text, value))
    return _fmt(value) if isinstance(value, float) else value


def config_to_text(config: SweepConfig) -> str:
    """Serialise a config back to the INI form accepted by ``load_config``."""
    lines = ["[sweep]"] + [f"{name} = {_text(getattr(config, name))}" for name in _FIELDS]
    return "\n".join(lines) + "\n"


def _read(kind, text: str, key: str):
    """``text`` as a value of a field of type ``kind``."""
    if kind == tuple[float, ...]:
        return parse_grid(text, key)
    if kind == tuple[str, ...]:
        # A comma followed by a number continues an ``x:`` preset's coefficients.
        return tuple(p.strip() for p in re.split(r",(?!\s*[-+.\d])", text) if p.strip())
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad float {text!r}", field=key) from exc


def config_from_mapping(mapping: dict) -> SweepConfig:
    """Build a validated config from string key/value pairs, each read by
    its field's type."""
    kwargs = {}
    for key, raw in mapping.items():
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}", field=key)
        kwargs[key] = _read(_FIELDS[key].type, raw.strip(), key)
    for name, f in _FIELDS.items():
        if f.default is MISSING and name not in kwargs:
            raise ConfigError(f"missing required key {name!r}", field=name)
    return SweepConfig(**kwargs)


def load_config(path: str, overrides: dict | None = None) -> SweepConfig:
    """Load a config file (single ``[sweep]`` section) with CLI overrides."""
    import configparser

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
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
# figures sample 81 points in r at a few fixed strengths.  The twelve
# presets run eight sweeps, each named once in ``_SWEEPS``.  Each preset
# gives its sweep and plotting hints, which are not part of the sweep
# contract: kind ('surface' | 'lines'), the measures the generated script
# plots, and the line grouping ('state' | 'strength').

_SURFACE = dict(r_grid=f"0:{R_MAX!r}:80", strength_grid="0:0.98:80")
_R_LINE = f"0:{R_MAX!r}:81"

_SWEEPS = {
    "singlet surface": dict(system=TWO_QUBIT, initial_state="singlet", **_SURFACE),
    "werner surface": dict(system=TWO_QUBIT, initial_state="werner:0.7", **_SURFACE),
    "qutrit:1 surface": dict(system=TWO_QUTRIT, initial_state="qutrit:1", **_SURFACE),
    "qutrit:0.5 surface": dict(system=TWO_QUTRIT, initial_state="qutrit:0.5", **_SURFACE),
    "qubit states in r": dict(system=TWO_QUBIT, initial_state="singlet, werner:0.7",
                              r_grid=_R_LINE, strength_grid="0.5"),
    "singlet strengths in r": dict(system=TWO_QUBIT, initial_state="singlet",
                                   r_grid=_R_LINE, strength_grid="0.5, 0.8, 0.9"),
    "qutrit states in r": dict(system=TWO_QUTRIT, initial_state="qutrit:1, qutrit:0.5",
                               r_grid=_R_LINE, strength_grid="0.5"),
    "qutrit:1 strengths in r": dict(system=TWO_QUTRIT, initial_state="qutrit:1",
                                    r_grid=_R_LINE, strength_grid="0.5, 0.8, 0.9"),
}

_PRESETS = {
    "fig1a": ("singlet surface", ("surface", ("E_norm",), "state")),
    "fig1b": ("werner surface", ("surface", ("E_norm",), "state")),
    "fig2a": ("qutrit:1 surface", ("surface", ("E_norm",), "state")),
    "fig2b": ("qutrit:0.5 surface", ("surface", ("E_norm",), "state")),
    "fig3a": ("singlet surface", ("surface", ("I_coh_std",), "state")),
    "fig3b": ("singlet surface", ("surface", ("I_a",), "state")),
    "fig4a": ("qubit states in r", ("lines", ("I_a", "I_b"), "state")),
    "fig4b": ("singlet strengths in r", ("lines", ("I_coh_std", "I_a"), "strength")),
    "fig5a": ("qutrit:1 surface", ("surface", ("I_coh_std",), "state")),
    "fig5b": ("qutrit:1 surface", ("surface", ("I_a",), "state")),
    "fig6a": ("qutrit states in r", ("lines", ("I_a", "I_b"), "state")),
    "fig6b": ("qutrit:1 strengths in r", ("lines", ("I_coh_std", "I_a"), "strength")),
}

FIGURE_PRESETS = tuple(sorted(_PRESETS))


def _preset(name: str):
    try:
        return _PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown figure preset {name!r}; choose from {', '.join(FIGURE_PRESETS)}"
        ) from None


def figure_preset(name: str) -> SweepConfig:
    """Resolved sweep config of a named figure preset."""
    return config_from_mapping(_SWEEPS[_preset(name)[0]])


def figure_info(name: str) -> tuple[str, tuple[str, ...], str]:
    """A preset's plotting hints: (kind, focus measures, line grouping)."""
    return _preset(name)[1]


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
