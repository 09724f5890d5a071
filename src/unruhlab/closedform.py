"""Closed-form final states of the protocol, as published, plus a corrected
qubit variant, for cross-validation against the numerical pipeline.

The published coefficient tables contain known defects, which this module
reproduces faithfully in the ``literal`` functions and repairs only where a
``corrected`` counterpart is explicitly provided:

* qubit: the |11><11| coefficient omits the population that acceleration
  feeds from the |01> sector, and the printed normalisation sums an
  off-diagonal coefficient instead of the fourth population.
  ``corrected_final_qubit`` fixes both and matches the pipeline exactly.
* qutrit: several diagonal coefficients carry odd cosine powers and the
  pair level is absent entirely.  These are reported, not repaired.

Literal states are flagged ``literal`` and constructed without strict
validation since they need not be normalised or positive.

The qubit formulas exist once, in array form: :func:`qubit_table`,
:func:`check_coefficients`, :func:`assemble_qubit` and
:func:`x_state_spectrum` take stacks of points, elementwise.  The scalar
calls (:func:`qubit_coefficients`, :class:`QubitCoefficients`,
:func:`corrected_final_qubit`, :func:`literal_final_qubit`) are that code
applied to one point.
"""

from dataclasses import dataclass

import numpy as np

from .channel import AccelerationSpec
from .errors import DegenerateOutcome, DimMismatch, NegativeDiscriminant, NotPositive
from .localops import MeasurementStrengths, REVERSE, WEAK
from .states import QutritStateSpec, XStateSpec, x_coefficients, x_matrix
from .tensor import DensityMatrix, hermitian_eigenvalues

TRACE_NORM = "trace"
PRINTED_NORM = "printed"


def _strength_pairs(weak: MeasurementStrengths, reverse: MeasurementStrengths,
                    dim: int):
    if weak.kind != WEAK or reverse.kind != REVERSE:
        raise ValueError("strength kinds must be (weak, reverse)")
    if weak.dim != dim or reverse.dim != dim:
        raise DimMismatch(f"strengths are for dim {weak.dim}/{reverse.dim}, need {dim}")
    return weak, reverse


def qubit_table(c, weak, reverse, r, variant: str = "corrected") -> np.ndarray:
    """Coefficients b1 .. b8 (last axis) of final two-qubit states, unchecked,
    elementwise in X-state triples ``c`` ``(..., 3)``, weak and reversing
    strengths ``(..., 2)`` (party a, party b) and Rindler angles ``r``.

    ``variant='literal'`` reproduces the published b7 =
    (1-alpha_a)(1-alpha_b) B1, which omits the term sin^2 r (1-alpha_b) B3
    fed into |11> by the acceleration of the weak-filtered |01> population;
    ``variant='corrected'`` includes it and then matches the pipeline to
    machine precision.
    """
    if variant not in ("literal", "corrected"):
        raise ValueError(f"variant must be literal|corrected, got {variant!r}")
    a_bar1, a_bar2 = np.moveaxis(1.0 - np.asarray(weak, dtype=np.float64), -1, 0)
    b_bar1, b_bar2 = np.moveaxis(1.0 - np.asarray(reverse, dtype=np.float64), -1, 0)
    c1, s1 = np.cos(r), np.sin(r)
    bb1, bb2, bb3, bb4 = x_coefficients(c)
    root = np.sqrt(b_bar1 * b_bar2 * a_bar1 * a_bar2)
    t1 = c1 * c1 * bb1 * b_bar1 * b_bar2
    t2 = c1 * bb2 * root
    t3 = c1 * c1 * bb3 * b_bar1 * a_bar2
    t4 = c1 * bb4 * root
    t5 = b_bar2 * (s1 * s1 * bb1 + a_bar1 * bb3)
    t7 = a_bar1 * a_bar2 * bb1
    if variant == "corrected":
        t7 = t7 + s1 * s1 * a_bar2 * bb3
    return np.stack(np.broadcast_arrays(t1, t2, t3, t4, t5, t4, t7, t2), axis=-1)


def _trace(table, fourth: int = 6):
    """b1 + b3 + b5 + b7; with ``fourth=5``, the printed b1 + b3 + b5 + b6."""
    return table[..., 0] + table[..., 2] + table[..., 4] + table[..., fourth]


def check_coefficients(table: np.ndarray) -> np.ndarray:
    """Raise :class:`NotPositive` if a population b1/b3/b5/b7 of a table is
    below -1e-14 and :class:`DegenerateOutcome` if a trace is at most 1e-14."""
    pops = table[..., 0::2]
    if np.any(pops < -1e-14):
        raise NotPositive(f"population coefficient {pops[pops < -1e-14][0]} negative")
    n = _trace(table)
    if np.any(n <= 1e-14):
        raise DegenerateOutcome(f"normalization {n[n <= 1e-14][0]} is zero")
    return table


def assemble_qubit(table: np.ndarray, normalization: str = TRACE_NORM) -> np.ndarray:
    """4x4 states from coefficient tables, divided by their trace or by the
    printed constant (``normalization='printed'``), unchecked."""
    n = _trace(table, {TRACE_NORM: 6, PRINTED_NORM: 5}[normalization])
    if np.any(np.abs(n) <= 1e-14):
        raise DegenerateOutcome(f"{normalization} normalization is zero")
    return x_matrix(table) / np.asarray(n)[..., None, None]


def x_state_spectrum(coeffs) -> np.ndarray:
    """Eigenvalues of final X-form qubit states from their coefficients.

    ``coeffs`` is a :class:`QubitCoefficients` or a table of b1 .. b8 along
    the last axis.  Returns (mu1, mu2, mu3, mu4) along the last axis: the
    outer-block pair from {b1, b7, b2 b8} and the inner-block pair from
    {b3, b5, b4 b6}, each larger root first, divided by the trace.  A
    negative discriminant cannot arise from coefficients computed by this
    package (b8 = b2, b6 = b4) and raises :class:`NegativeDiscriminant`
    when fed inconsistent hand-built values.
    """
    t = coeffs.table if isinstance(coeffs, QubitCoefficients) else np.asarray(coeffs)
    n = _trace(t)
    out = []
    for pop1, pop2, off1, off2 in ((0, 6, 1, 7), (2, 4, 3, 5)):
        p, q = t[..., pop1], t[..., pop2]
        disc = (p - q) ** 2 + 4.0 * t[..., off1] * t[..., off2]
        bad = disc < -1e-14 * np.maximum(1.0, p + q) ** 2
        if bad.any():
            raise NegativeDiscriminant(f"discriminant {disc[bad][0]} < 0")
        root = np.sqrt(np.maximum(disc, 0.0))
        out += [(p + q + root) / (2.0 * n), (p + q - root) / (2.0 * n)]
    return np.stack(out, axis=-1)


@dataclass(frozen=True)
class QubitCoefficients:
    """Decorated X-state coefficients of the final two-qubit state.

    ``b1`` .. ``b8`` follow the published layout: b1/b3/b5/b7 are the
    |00>/|01>/|10>/|11> populations, b2 = b8 couples |00><11| and
    b4 = b6 couples |01><10|.  ``variant`` records whether b7 carries the
    acceleration feed-through term (``corrected``) or not (``literal``).
    """

    b1: float
    b2: float
    b3: float
    b4: float
    b5: float
    b6: float
    b7: float
    b8: float
    variant: str

    def __post_init__(self):
        check_coefficients(self.table)

    @property
    def table(self) -> np.ndarray:
        """b1 .. b8 as one row of a coefficient table."""
        return np.array([getattr(self, f"b{i}") for i in range(1, 9)], dtype=np.float64)

    @property
    def normalization(self) -> float:
        """Trace of the unnormalised state: b1 + b3 + b5 + b7."""
        return float(_trace(self.table))

    @property
    def printed_normalization(self) -> float:
        """Normalisation as printed, summing the off-diagonal b6 in place
        of the fourth population b7."""
        return float(_trace(self.table, 5))

    def assemble(self, normalization: str = TRACE_NORM) -> DensityMatrix:
        strict = self.variant == "corrected" and normalization == TRACE_NORM
        flags = () if strict else ("literal",)
        return DensityMatrix(assemble_qubit(self.table, normalization), (2, 2),
                             strict=strict, flags=flags)


def qubit_coefficients(spec: XStateSpec, weak: MeasurementStrengths,
                       reverse: MeasurementStrengths, acc: AccelerationSpec,
                       variant: str = "corrected") -> QubitCoefficients:
    """:func:`qubit_table` of one two-qubit run, as checked coefficients."""
    weak, reverse = _strength_pairs(weak, reverse, 2)
    table = qubit_table((spec.c11, spec.c22, spec.c33), weak.party_a_levels + weak.party_b_levels,
                        reverse.party_a_levels + reverse.party_b_levels, acc.r, variant)
    return QubitCoefficients(*table, variant)


def literal_final_qubit(spec: XStateSpec, weak: MeasurementStrengths,
                        reverse: MeasurementStrengths, acc: AccelerationSpec,
                        normalization: str = TRACE_NORM) -> DensityMatrix:
    """Final two-qubit state assembled verbatim from the published table.

    The printed normalisation constant sums an off-diagonal coefficient and
    does not reproduce a unit-trace state even at r = 0, so the default here
    divides by the actual trace; pass ``normalization='printed'`` for the
    verbatim constant.  Output is flagged ``literal``.
    """
    coeffs = qubit_coefficients(spec, weak, reverse, acc, variant="literal")
    return coeffs.assemble(normalization)


def corrected_final_qubit(spec: XStateSpec, weak: MeasurementStrengths,
                          reverse: MeasurementStrengths, acc: AccelerationSpec
                          ) -> DensityMatrix:
    """Repaired closed form; agrees with the pipeline to 1e-12."""
    return qubit_coefficients(spec, weak, reverse, acc, "corrected").assemble()


@dataclass(frozen=True)
class QutritCoefficients:
    """Published coefficient table of the final two-qutrit state.

    ``d`` holds the eleven entry coefficients, ``a`` the nine filter
    factors and ``r_weights`` the 3x3 table of reversing-filter weights
    (accelerated party index first).  ``normalization`` is the sum of the
    five printed diagonal coefficients, which here equals the trace by
    construction.
    """

    d: tuple[float, ...]
    a: tuple[float, ...]
    r_weights: np.ndarray
    normalization: float

    def __post_init__(self):
        if len(self.d) != 11 or len(self.a) != 9:
            raise ValueError("need 11 entry and 9 filter coefficients")
        for i in (1, 3, 5, 6, 9):
            if self.d[i - 1] < -1e-14:
                raise NotPositive(f"diagonal coefficient D{i}={self.d[i - 1]} negative")
        if self.normalization <= 1e-14:
            raise DegenerateOutcome(f"normalization {self.normalization} is zero")


def qutrit_coefficients(spec: QutritStateSpec, weak: MeasurementStrengths,
                        reverse: MeasurementStrengths, acc: AccelerationSpec
                        ) -> QutritCoefficients:
    """Evaluate the published two-qutrit coefficient table.

    The published weak-measurement factors carry only two strengths, read
    here as the two level strengths shared by both parties (party a's pair
    is used); the reversing factors are resolved per party.  Odd cosine
    powers are kept exactly as printed.
    """
    weak, reverse = _strength_pairs(weak, reverse, 3)
    gamma = spec.gamma
    big_n = 2.0 + gamma * gamma
    aw1 = 1.0 - weak.party_a_levels[0]
    aw2 = 1.0 - weak.party_a_levels[1]
    c1, s1 = np.cos(acc.r), np.sin(acc.r)

    def ladder(levels):
        b1 = 1.0 - levels[0]
        b2 = 1.0 - levels[1]
        return np.array([np.sqrt(b1 * b2), np.sqrt(b1), np.sqrt(b2)])

    ra = ladder(reverse.party_a_levels)
    rb = ladder(reverse.party_b_levels)
    rw = np.outer(ra, rb)

    sq = np.sqrt(aw1) * np.sqrt(aw2)
    a1 = 1.0 / big_n
    a2 = sq / big_n
    a3 = gamma * sq / big_n
    a5 = aw1 * aw2 / big_n
    a6 = gamma * aw1 * aw2 / big_n
    a9 = gamma * gamma * aw1 * aw2 / big_n
    a = (a1, a2, a3, a2, a5, a6, a3, a6, a9)

    c2, c3 = c1 * c1, c1 * c1 * c1
    d = (
        c2 * rw[0, 0] ** 2 * a1,            # D1   |00><00|
        c3 * rw[0, 0] * rw[1, 1] * a2,      # D2   |00><11|
        c2 * s1 * s1 * rw[1, 0] ** 2 * a1,  # D3   |10><10|
        c3 * rw[0, 0] * rw[1, 1] * a[3],    # D4   |11><00|
        c3 * rw[1, 1] ** 2 * a5,            # D5   |11><11|
        c2 * s1 * s1 * rw[2, 0] ** 2 * a1,  # D6   |20><20|
        c3 * rw[2, 2] * rw[0, 0] * a[6],    # D7   |22><00|
        c2 * rw[2, 2] * rw[1, 1] * a[7],    # D8   |22><11|
        c2 * rw[2, 2] ** 2 * a9,            # D9   |22><22|
        c3 * rw[0, 0] * rw[2, 2] * a3,      # D10  |00><22|
        c2 * rw[1, 1] * rw[2, 2] * a6,      # D11  |11><22|
    )
    norm = d[0] + d[2] + d[4] + d[5] + d[8]
    return QutritCoefficients(d, a, rw, norm)


def literal_final_qutrit(spec: QutritStateSpec, weak: MeasurementStrengths,
                         reverse: MeasurementStrengths, acc: AccelerationSpec
                         ) -> DensityMatrix:
    """Final two-qutrit state assembled verbatim from the published table.

    Lives on the 3 x 3 ladder (the pair level reachable after acceleration
    is absent from the published form).  Unit trace by construction, but
    positivity is not guaranteed; flagged ``literal``.
    """
    c = qutrit_coefficients(spec, weak, reverse, acc)
    d = c.d
    m = np.zeros((9, 9), dtype=np.complex128)
    # Basis index of |i j> is 3 i + j.
    m[0, 0] = d[0]
    m[0, 4] = d[1]
    m[3, 3] = d[2]
    m[4, 0] = d[3]
    m[4, 4] = d[4]
    m[6, 6] = d[5]
    m[8, 0] = d[6]
    m[8, 4] = d[7]
    m[8, 8] = d[8]
    m[0, 8] = d[9]
    m[4, 8] = d[10]
    return DensityMatrix(m / c.normalization, (3, 3), strict=False,
                         flags=("literal",))


@dataclass(frozen=True)
class DiscrepancyReport:
    """Entrywise comparison of a closed-form state against the pipeline."""

    label: str
    max_abs_diff: float
    max_entry: tuple[int, int]
    trace_a: float
    trace_b: float
    min_eig_a: float
    min_eig_b: float
    entry_diffs: np.ndarray

    @property
    def trace_deficit(self) -> float:
        return abs(self.trace_a - self.trace_b)

    def to_text(self) -> str:
        i, j = self.max_entry
        return (
            f"{self.label}: max |diff| = {self.max_abs_diff:.6e} at entry "
            f"({i}, {j}); traces {self.trace_a:.12f} vs {self.trace_b:.12f} "
            f"(deficit {self.trace_deficit:.6e}); min eigenvalues "
            f"{self.min_eig_a:.3e} vs {self.min_eig_b:.3e}"
        )


def discrepancy_report(closed_form: DensityMatrix, pipeline: DensityMatrix,
                       label: str = "closed-form vs pipeline") -> DiscrepancyReport:
    """Compare two states of equal ambient dimension entry by entry.

    Callers comparing the accelerated qutrit output must first restrict or
    project it onto the 3 x 3 ladder sector (see
    :func:`unruhlab.pipeline.ladder_block`); mismatched dimensions
    raise :class:`DimMismatch`.
    """
    if closed_form.matrix.shape != pipeline.matrix.shape:
        raise DimMismatch(
            f"shape {closed_form.matrix.shape} vs {pipeline.matrix.shape}"
        )
    diff = np.abs(closed_form.matrix - pipeline.matrix)
    idx = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return DiscrepancyReport(
        label=label,
        max_abs_diff=float(diff[idx]),
        max_entry=(int(idx[0]), int(idx[1])),
        trace_a=float(np.trace(closed_form.matrix).real),
        trace_b=float(np.trace(pipeline.matrix).real),
        min_eig_a=float(hermitian_eigenvalues(closed_form.matrix)[0]),
        min_eig_b=float(hermitian_eigenvalues(pipeline.matrix)[0]),
        entry_diffs=diff,
    )
