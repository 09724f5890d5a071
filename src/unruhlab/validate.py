"""Self-validation: closed-form vs channel-pipeline cross checks.

Two categories of output:

* must-pass checks, where the two computational routes have to agree to
  stated tolerances (any failure is a bug in this package), and
* informational comparisons against the literal transcribed coefficient
  tables, which are *expected* to deviate from the pipeline away from
  r = 0 and are reported rather than asserted.

``run_validation`` returns a :class:`ValidationReport`; the CLI renders it
to ``report.txt`` / ``report.csv`` and maps overall failure to exit code 1.
"""

import io
from dataclasses import dataclass

import numpy as np

from . import DEFAULT_SAMPLES, DEFAULT_SEED
from .channel import COMPLETENESS_TOL, check_completeness, kraus_for_dim
from .closedform import (
    _trace,
    assemble_qubit,
    assemble_qutrit,
    check_coefficients,
    qubit_table,
    qutrit_table,
    x_state_spectrum,
)
from .errors import DegenerateOutcome
from .localops import SUCCESS_FLOOR
from .measures import MEASURE_COLUMNS
from .pipeline import CHUNK_POINTS, LADDER_FLOOR, engine_inputs, propagate
from .states import x_coefficients, x_state_matrix
from .sweep import TWO_QUBIT, TWO_QUTRIT, WEAK_REVERSE_SPLIT, SweepConfig, grid_inputs, run_sweep
from .tensor import HERMITICITY_TOL, _hermitian, check_held, hold, ladder_block

EQUIV_TOL = 1e-12          # corrected closed form vs pipeline
ZERO_ACCEL_TOL = 1e-13     # literal vs corrected at r = 0
SPECTRUM_TOL = 1e-12       # closed-form x-state spectrum vs eigensolver
TRIPLE_DRAWS = 12          # first-block draws a sample's X-state triples get; 9 on average
SCAN_PIECE = 1 << 16       # window positions _draw tests at a time


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check.

    ``passed`` is None for informational entries that carry no threshold.
    """

    name: str
    passed: bool | None
    value: float
    threshold: float | None = None
    detail: str = ""

    def status(self) -> str:
        if self.passed is None:
            return "INFO"
        return "PASS" if self.passed else "FAIL"


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.passed is not None)

    def to_text(self) -> str:
        out = io.StringIO()
        width = max(len(c.name) for c in self.checks)
        for c in self.checks:
            thr = "" if c.threshold is None else f"  (tol {c.threshold:g})"
            out.write(f"{c.status():4s}  {c.name:<{width}s}  {c.value:.6e}{thr}\n")
            if c.detail:
                for line in c.detail.splitlines():
                    out.write(f"      {line}\n")
        out.write(f"\noverall: {'PASS' if self.passed else 'FAIL'}\n")
        return out.getvalue()

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("name,status,value,threshold\n")
        for c in self.checks:
            thr = "" if c.threshold is None else f"{c.threshold:.17g}"
            out.write(f"{c.name},{c.status()},{c.value:.17g},{thr}\n")
        return out.getvalue()


def _draw(rng: np.random.Generator, samples: int, ranges) -> tuple[np.ndarray, np.ndarray]:
    """X-state triples ``(samples, 3)`` and further uniforms ``(samples, len(ranges))``.

    Per sample, ``rng.uniform(-1, 1, size=3)`` is drawn until the X-state's
    lowest eigenvalue is at least 1e-6, and then one ``rng.uniform(low,
    high)`` per range.  The values are drawn in one block and are those,
    bit for bit, that these calls would give, and ``rng`` is left where
    they would leave it.  Each value is -1 + 2u or low + (high - low) u
    with u in [0, 1), so it lies in its range and the checks that draw it
    need not range-check it.

    A triple is accepted with probability 1/3, so a sample uses ``9 +
    len(ranges)`` draws on average; a first block of that mean ran short on
    about half the calls.  It holds ``TRIPLE_DRAWS + len(ranges)`` a sample,
    64 more and a ``tail``, so that a redraw, twice as long from the same
    state and so with the same values, is rare.  The block's windows are
    tested ``SCAN_PIECE`` at a time, up to the last head, so that memory
    does not grow with the block.
    """
    start, tail = rng.bit_generator.state, 3 + len(ranges)
    size = samples * (TRIPLE_DRAWS + len(ranges)) + 64 + tail
    while True:
        rng.bit_generator.state = start
        u = rng.random(size)                # the same stream, longer on each pass
        heads, pos = [], 0
        for low in range(0, size - 2, SCAN_PIECE):   # the windows, a piece at a time
            c = -1.0 + 2.0 * u[low:low + SCAN_PIECE + 2]
            triples = np.lib.stride_tricks.sliding_window_view(c, 3)
            b1, b2, b3, b4 = x_coefficients(triples)   # B1 - |B2| is B1 -/+ B2, bit for bit
            ok = (np.minimum(b1 - np.abs(b2), b3 - np.abs(b4)) >= 1e-6).tolist()
            i, n = pos - low, len(ok)
            for _ in range(samples - len(heads)):
                while i < n and not ok[i]:
                    i += 3
                if i >= n:
                    break
                heads.append(low + i)
                i += tail
            pos = low + i
            if len(heads) == samples:
                break
        if len(heads) == samples and pos <= size:
            break
        size *= 2
    rng.bit_generator.state = start
    rng.bit_generator.advance(pos)
    lows, highs = np.array(ranges, dtype=np.float64).T
    heads = np.array(heads, dtype=np.intp)[:, None]
    return -1.0 + 2.0 * u[heads + np.arange(3)], lows + (highs - lows) * u[heads + np.arange(3, tail)]


def _chunks(samples: int):
    """Samples run through the pipeline and the closed forms at a time, each
    with its dense 4 x 4 comparison matrices: as many as a sweep's chunk."""
    return (slice(start, start + CHUNK_POINTS) for start in range(0, samples, CHUNK_POINTS))


def _closed_forms(c, weak, reverse, r, variant: str = "corrected"):
    """Checked coefficient tables of a stack of points and their states: the
    corrected ones strictly checked, the literal ones as non-strict states."""
    table = check_coefficients(qubit_table(c, weak, reverse, r, variant))
    states = hold(assemble_qubit(table))
    if variant == "corrected":
        return table, check_held(states)[0].dense()
    return table, _hermitian(states, HERMITICITY_TOL).dense()


def _check_corrected_vs_pipeline(rng: np.random.Generator,
                                 samples: int) -> CheckResult:
    c, u = _draw(rng, samples, [(0.0, 0.95)] * 4 + [(0.0, np.pi / 4), (0.0, 2 * np.pi)])
    weak, reverse, r = u[:, :2], u[:, 2:4], u[:, 4]
    # column 5 is a phase the engine leaves out, drawn to keep the random stream
    table = np.stack((weak, reverse), axis=1)[..., None]    # (samples, step, party, level)
    worst, worst_detail = 0.0, ""
    for chunk in _chunks(samples):
        out = propagate(x_state_matrix(c[chunk]), (2, 2),
                        *engine_inputs(2, r[chunk], table[chunk]))
        if len(out.kept) < len(r[chunk]):
            raise DegenerateOutcome("a closed-form cross-check sample is degenerate")
        closed = _closed_forms(c[chunk], weak[chunk], reverse[chunk], r[chunk])[1]
        diffs = np.abs(closed - out.states).max(axis=(1, 2))
        i = int(np.argmax(diffs))     # the first maximum, as a strict > scan keeps it
        if diffs[i] > worst:
            (c11, c22, c33), at = c[chunk][i], r[chunk][i]
            worst = float(diffs[i])
            worst_detail = f"worst at c=({c11:.4f},{c22:.4f},{c33:.4f}) r={at:.4f}"
    return CheckResult("corrected_closed_form_vs_pipeline", worst <= EQUIV_TOL,
                       worst, EQUIV_TOL, worst_detail)


def _check_literal_at_zero_acceleration(rng: np.random.Generator,
                                        samples: int) -> CheckResult:
    c, u = _draw(rng, samples, [(0.0, 0.9)] * 2)
    weak, reverse = u[:, [0, 0]], u[:, [1, 1]]      # tied: both parties alike
    worst = 0.0
    for chunk in _chunks(samples):
        points = c[chunk], weak[chunk], reverse[chunk], 0.0
        lit = _closed_forms(*points, variant="literal")[1]
        cor = _closed_forms(*points)[1]
        worst = max(worst, float(np.max(np.abs(lit - cor))))
    return CheckResult("literal_equals_corrected_at_r0", worst <= ZERO_ACCEL_TOL,
                       worst, ZERO_ACCEL_TOL)


def _check_spectrum_formulas(rng: np.random.Generator,
                             samples: int) -> CheckResult:
    c, u = _draw(rng, samples, [(0.0, 0.9)] * 4 + [(0.0, np.pi / 4)])
    weak, reverse, r = u[:, :2], u[:, 2:4], u[:, 4]
    worst = 0.0
    for chunk in _chunks(samples):
        table, states = _closed_forms(c[chunk], weak[chunk], reverse[chunk], r[chunk])
        mus = np.sort(x_state_spectrum(table), axis=-1)
        # a full LAPACK solve of the checked states: the strict check's own
        # spectra solve the two 2x2 blocks by the formula under test
        direct = np.linalg.eigvalsh(states)
        worst = max(worst, float(np.max(np.abs(mus - direct))))
    return CheckResult("x_state_spectrum_vs_eigensolver", worst <= SPECTRUM_TOL,
                       worst, SPECTRUM_TOL)


def _check_channel_completeness() -> CheckResult:
    r, phi = np.meshgrid(np.linspace(0.0, np.pi / 4, 9), (0.0, 0.7, np.pi), indexing="ij")
    worst = max(float(check_completeness(kraus_for_dim(d, r, phi)).max()) for d in (2, 3))
    return CheckResult("kraus_completeness", worst <= COMPLETENESS_TOL,
                       worst, COMPLETENESS_TOL)


def _check_literal_qubit_defect_location() -> CheckResult:
    # with no filtering the only corrected term is the pair-creation weight
    # sin(r)^2 * B3 landing on |11><11|; verify the raw coefficient tables
    # differ there and nowhere else
    c33 = -1.0
    point = (-1.0, -1.0, c33), (0.0, 0.0), (0.0, 0.0), 0.5
    lit = check_coefficients(qubit_table(*point, variant="literal"))
    cor = check_coefficients(qubit_table(*point, variant="corrected"))
    expected = np.sin(0.5) ** 2 * (1.0 - c33) / 4.0
    gap = abs((cor[6] - lit[6]) - expected)
    others = max(abs(cor[i] - lit[i]) for i in (0, 1, 2, 3, 4, 5, 7))
    return CheckResult("literal_defect_is_pair_population",
                       gap <= 1e-13 and others <= 1e-15,
                       max(gap, others), 1e-13)


def _check_entanglement_anchors() -> CheckResult:
    # unfiltered, unaccelerated maximally entangled inputs must give
    # normalized entanglement exactly 1
    rows = np.concatenate([run_sweep(SweepConfig(system, (label,), (0.0,), (0.0,)))
                           for system, label in ((TWO_QUBIT, "singlet"), (TWO_QUTRIT, "qutrit:1"))])
    worst = float(np.max(np.abs(rows[:, MEASURE_COLUMNS.index("E_norm")] - 1.0)))  # NaN fails
    return CheckResult("maximal_entanglement_anchors", worst <= 1e-12,
                       worst, 1e-12)


def _info_printed_normalization() -> CheckResult:
    table = check_coefficients(qubit_table((-1.0, -1.0, -1.0), (0.5, 0.5), (0.5, 0.5), 0.0))
    ratio = float(_trace(table)) / float(_trace(table, 5))
    return CheckResult(
        "printed_vs_trace_normalization_ratio", None, ratio,
        detail="transcribed constant sums an off-diagonal term; unit trace "
               "requires the population sum (ratio 1 would mean they agree)")


def _info_qutrit_literal() -> list[CheckResult]:
    """The literal qutrit table against the pipeline at one point, on the
    ladder sector as it is and renormalised, and the literal state's
    lowest eigenvalue.  Each matrix is cast to complex128 before it is
    symmetrised and solved, the projected block only after it is divided
    by its weight: the printed rounding-level values depend on both."""
    config = SweepConfig(TWO_QUTRIT, ("qutrit:1",), (0.6,), (0.3,),
                         tie_policy=WEAK_REVERSE_SPLIT, beta=0.4)
    weak, reverse = config.strength_table()[0]
    lit = _hermitian(hold(assemble_qutrit(qutrit_table(1.0, weak, reverse, 0.6))),
                     HERMITICITY_TOL).dense()
    rho0 = config.parsed_states[0]
    out = propagate(rho0, rho0.dims, *grid_inputs(config))
    if not len(out.kept):
        raise DegenerateOutcome(f"success probability below {SUCCESS_FLOOR}")
    block = ladder_block(out.held, out.dims, 3).dense()[0]
    weight = float(np.trace(block).real)
    if weight < LADDER_FLOOR:
        raise DegenerateOutcome(f"ladder sector weight {weight:.3e} is zero")
    lit_low = float(np.linalg.eigvalsh(lit)[0])
    checks = []
    for sector, piped in (
            ("restricted", _hermitian(hold(block.astype(np.complex128)), HERMITICITY_TOL)),
            ("projected", check_held(hold((block / weight).astype(np.complex128)))[0])):
        piped = piped.dense()
        diff = np.abs(lit - piped)
        i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
        traces = float(np.trace(lit).real), float(np.trace(piped).real)
        checks.append(CheckResult(
            f"qutrit_literal_vs_pipeline_{sector}", None, float(diff[i, j]),
            detail=f"qutrit_literal_{sector}: max |diff| = {diff[i, j]:.6e} at entry "
                   f"({i}, {j}); traces {traces[0]:.12f} vs {traces[1]:.12f} (deficit "
                   f"{abs(traces[0] - traces[1]):.6e}); min eigenvalues {lit_low:.3e} vs "
                   f"{np.linalg.eigvalsh(piped)[0]:.3e}\nladder sector weight {weight:.6f}"))
    return checks + [CheckResult("qutrit_literal_min_eigenvalue", None, lit_low,
                                 detail="negative values flag non-physical transcribed "
                                        "coefficients at this operating point")]


def run_validation(seed: int = DEFAULT_SEED,
                   samples: int = DEFAULT_SAMPLES) -> ValidationReport:
    """Run every cross check; informational entries never affect ``passed``."""
    rng = np.random.default_rng(seed)
    checks = [
        _check_corrected_vs_pipeline(rng, samples),
        _check_literal_at_zero_acceleration(rng, max(10, samples // 5)),
        _check_spectrum_formulas(rng, samples),
        _check_channel_completeness(),
        _check_literal_qubit_defect_location(),
        _check_entanglement_anchors(),
        _info_printed_normalization(),
        *_info_qutrit_literal(),
    ]
    return ValidationReport(tuple(checks))
