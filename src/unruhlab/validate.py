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
from .channel import (COMPLETENESS_TOL, AccelerationSpec, check_completeness, check_rindler,
                      kraus_for_dim, qubit_kraus)
from .closedform import (
    assemble_qubit,
    check_coefficients,
    discrepancy_report,
    literal_final_qutrit,
    qubit_coefficients,
    qubit_table,
    x_state_spectrum,
)
from .errors import DegenerateOutcome
from .localops import REVERSE, WEAK, check_strengths, tied
from .measures import MEASURE_COLUMNS, measure_columns
from .pipeline import (LADDER_FLOOR, chunk_points, filter_diagonal, ladder_block, propagate,
                       propagate_point)
from .states import (QutritStateSpec, XStateSpec, check_x_coefficients, make_qutrit_state,
                     singlet, x_coefficients, x_eigenvalues, x_state_matrix)
from .tensor import DensityMatrix, check_states, hermitian_eigenvalues, hermitian_part

EQUIV_TOL = 1e-12          # corrected closed form vs pipeline
ZERO_ACCEL_TOL = 1e-13     # literal vs corrected at r = 0
SPECTRUM_TOL = 1e-12       # closed-form x-state spectrum vs eigensolver


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
    they would leave it.
    """
    start, tail = rng.bit_generator.state, 3 + len(ranges)
    size = samples * (9 + len(ranges)) + tail
    while True:
        rng.bit_generator.state = start
        u = rng.random(size)                # the same stream, longer on each pass
        c = -1.0 + 2.0 * u
        triples = np.lib.stride_tricks.sliding_window_view(c, 3)
        ok = (np.minimum.reduce(x_eigenvalues(*x_coefficients(triples))) >= 1e-6).tolist()
        heads, pos = [], 0
        for _ in range(samples):
            while pos < len(ok) and not ok[pos]:
                pos += 3
            heads.append(pos)
            pos += tail
        if pos <= size:
            break
        size *= 2
    rng.bit_generator.state = start
    rng.bit_generator.advance(pos)
    lows, highs = np.array(ranges, dtype=np.float64).T
    heads = np.array(heads, dtype=np.intp)[:, None]
    return c[heads + np.arange(3)], lows + (highs - lows) * u[heads + np.arange(3, tail)]


def _chunks(samples: int):
    size = chunk_points(4)
    return (slice(start, start + size) for start in range(0, samples, size))


def _closed_forms(c, weak, reverse, r, variant: str = "corrected"):
    """Checked coefficient tables of a stack of points and their states: the
    corrected ones strictly checked, with their spectra, the literal ones
    as non-strict states (spectra None)."""
    table = check_coefficients(qubit_table(c, weak, reverse, r, variant))
    states = assemble_qubit(table)
    if variant == "corrected":
        return (table, *check_states(states))
    return table, hermitian_part(states), None


def _check_corrected_vs_pipeline(rng: np.random.Generator,
                                 samples: int) -> CheckResult:
    c, u = _draw(rng, samples, [(0.0, 0.95)] * 4 + [(0.0, np.pi / 4), (0.0, 2 * np.pi)])
    c, weak, reverse = check_x_coefficients(c), check_strengths(u[:, :2]), check_strengths(u[:, 2:4])
    r = check_rindler(u[:, 4], u[:, 5])
    worst = 0.0
    worst_detail = ""
    for chunk in _chunks(samples):
        kraus = qubit_kraus(r[chunk])
        check_completeness(kraus)
        out = propagate(x_state_matrix(c[chunk]), (2, 2), kraus,
                        filter_diagonal(WEAK, weak[chunk, :, None], 2),
                        filter_diagonal(REVERSE, reverse[chunk, :, None], 2))
        if len(out.kept) < len(kraus):
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
    c, u = check_x_coefficients(c), check_strengths(u)
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
    c, weak, reverse = check_x_coefficients(c), check_strengths(u[:, :2]), check_strengths(u[:, 2:4])
    r = check_rindler(u[:, 4], 0.0)
    worst = 0.0
    for chunk in _chunks(samples):
        table, states, _ = _closed_forms(c[chunk], weak[chunk], reverse[chunk], r[chunk])
        mus = np.sort(x_state_spectrum(table), axis=-1)
        # a full LAPACK solve: the strict check's own spectra solve the two
        # 2x2 blocks by the formula under test
        direct = hermitian_eigenvalues(states)
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
    spec = XStateSpec(-1.0, -1.0, -1.0)
    weak = tied(WEAK, 0.0, 2)
    reverse = tied(REVERSE, 0.0, 2)
    acc = AccelerationSpec(0.5)
    lit = qubit_coefficients(spec, weak, reverse, acc, variant="literal")
    cor = qubit_coefficients(spec, weak, reverse, acc, variant="corrected")
    expected = np.sin(0.5) ** 2 * (1.0 - spec.c33) / 4.0
    gap = abs((cor.b7 - lit.b7) - expected)
    others = max(abs(getattr(cor, f"b{i}") - getattr(lit, f"b{i}"))
                 for i in (1, 2, 3, 4, 5, 6, 8))
    return CheckResult("literal_defect_is_pair_population",
                       gap <= 1e-13 and others <= 1e-15,
                       max(gap, others), 1e-13)


def _check_entanglement_anchors() -> CheckResult:
    # unfiltered, unaccelerated maximally entangled inputs must give
    # normalized entanglement exactly 1
    worst = 0.0
    for rho0 in (singlet(), make_qutrit_state(QutritStateSpec(1.0))):
        dim = rho0.dims[0]
        out = propagate_point(rho0, tied(WEAK, 0.0, dim), tied(REVERSE, 0.0, dim),
                              AccelerationSpec(0.0))
        e_norm = measure_columns(out)[0, MEASURE_COLUMNS.index("E_norm")]
        worst = max(worst, abs(e_norm - 1.0))
    return CheckResult("maximal_entanglement_anchors", worst <= 1e-12,
                       worst, 1e-12)


def _info_printed_normalization() -> CheckResult:
    spec = XStateSpec(-1.0, -1.0, -1.0)
    weak = tied(WEAK, 0.5, 2)
    reverse = tied(REVERSE, 0.5, 2)
    coeffs = qubit_coefficients(spec, weak, reverse, AccelerationSpec(0.0))
    ratio = coeffs.normalization / coeffs.printed_normalization
    return CheckResult(
        "printed_vs_trace_normalization_ratio", None, ratio,
        detail="transcribed constant sums an off-diagonal term; unit trace "
               "requires the population sum (ratio 1 would mean they agree)")


def _info_qutrit_literal() -> list[CheckResult]:
    """The literal qutrit table against the pipeline at one point, on the
    ladder sector as it is and renormalised, and the literal state's
    lowest eigenvalue."""
    spec = QutritStateSpec(1.0)
    weak, reverse, acc = tied(WEAK, 0.3, 3), tied(REVERSE, 0.4, 3), AccelerationSpec(0.6)
    lit = literal_final_qutrit(spec, weak, reverse, acc)
    out = propagate_point(make_qutrit_state(spec), weak, reverse, acc)
    block = ladder_block(out.states, out.dims, 3)[0]
    weight = float(np.trace(block).real)
    if weight < LADDER_FLOOR:
        raise DegenerateOutcome(f"ladder sector weight {weight:.3e} is zero")
    checks = []
    for sector, piped in (("restricted", DensityMatrix(block, (3, 3), strict=False,
                                                       flags=("sector",))),
                          ("projected", DensityMatrix(block / weight, (3, 3)))):
        rep = discrepancy_report(lit, piped, label=f"qutrit_literal_{sector}")
        checks.append(CheckResult(f"qutrit_literal_vs_pipeline_{sector}", None,
                                  rep.max_abs_diff, detail=rep.to_text()
                                  + f"\nladder sector weight {weight:.6f}"))
    eigs = hermitian_eigenvalues(lit.matrix)
    return checks + [CheckResult("qutrit_literal_min_eigenvalue", None, float(eigs[0]),
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
