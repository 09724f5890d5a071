"""Closed-form final-state tests.

The coefficient tables are checked three ways: against values frozen from
an independent by-hand evaluation of the formulas, against the numerical
channel pipeline (corrected qubit variant only, which must agree to
machine precision), and for the literal variants against their documented
deviations from that pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import (
    PRINTED_NORM,
    TRACE_NORM,
    AccelerationSpec,
    MeasurementStrengths,
    QubitCoefficients,
    QutritStateSpec,
    XStateSpec,
    corrected_final_qubit,
    discrepancy_report,
    hermitian_part,
    literal_final_qubit,
    literal_final_qutrit,
    qubit_coefficients,
    qutrit_coefficients,
    restrict_to_ladder,
    run_protocol,
    tied,
    x_eigenvalues,
)
from unruhlab.channel import R_MAX
from unruhlab.closedform import (
    assemble_qubit,
    assemble_qutrit,
    qubit_table,
    qutrit_table,
    x_state_spectrum,
)
from unruhlab.errors import DegenerateOutcome, DimMismatch, NotPositive
from unruhlab.localops import REVERSE, WEAK
from unruhlab.states import qutrit_state, x_coefficients, x_state

# Frozen by-hand values at spec c = (0.3, -0.5, 0.1), alpha = (0.2, 0.4),
# beta = (0.1, 0.3), r = 0.5: B = (0.275, 0.2, 0.225, -0.05),
# abar = (0.8, 0.6), bbar = (0.9, 0.7), root = sqrt(0.3024).
POINT_SPEC = XStateSpec(0.3, -0.5, 0.1)
POINT_WEAK = MeasurementStrengths(WEAK, (0.2,), (0.4,))
POINT_REVERSE = MeasurementStrengths(REVERSE, (0.1,), (0.3,))
POINT_ACC = AccelerationSpec(0.5)
FROZEN_QUBIT = {
    "b1": 0.13342868724582763,
    "b2": 0.09651812444246163,
    "b3": 0.0935733650814895,
    "b4": -0.02412953111061541,
    "b5": 0.17024590306019158,
    "b7_literal": 0.132,
    "b7_corrected": 0.16302959435390058,
}

# Frozen by-hand qutrit table at gamma = 1, tied weak 0.2, reversing
# strengths (0.1, 0.3) on both parties, r = 0.4.
QT_SPEC = QutritStateSpec(1.0)
QT_WEAK = tied(WEAK, 0.2, 3)
QT_REVERSE = MeasurementStrengths(REVERSE, (0.1, 0.3), (0.1, 0.3))
QT_ACC = AccelerationSpec(0.4)
FROZEN_QUTRIT_D = (
    0.11223714882331499,
    0.11814543983914542,
    0.024314838714367952,
    0.11814543983914542,
    0.13502335981616623,
    0.018911541222286186,
    0.091890897652668682,
    0.11401869086812953,
    0.08868120400854522,
    0.091890897652668682,
    0.11401869086812956,
)
FROZEN_QUTRIT_NORM = 0.37916809258468054


def test_qubit_coefficients_frozen_point():
    lit = qubit_coefficients(POINT_SPEC, POINT_WEAK, POINT_REVERSE, POINT_ACC,
                             variant="literal")
    cor = qubit_coefficients(POINT_SPEC, POINT_WEAK, POINT_REVERSE, POINT_ACC)
    for c in (lit, cor):
        assert c.b1 == pytest.approx(FROZEN_QUBIT["b1"], abs=1e-15)
        assert c.b2 == pytest.approx(FROZEN_QUBIT["b2"], abs=1e-15)
        assert c.b3 == pytest.approx(FROZEN_QUBIT["b3"], abs=1e-15)
        assert c.b4 == pytest.approx(FROZEN_QUBIT["b4"], abs=1e-15)
        assert c.b5 == pytest.approx(FROZEN_QUBIT["b5"], abs=1e-15)
        assert c.b8 == c.b2
        assert c.b6 == c.b4
    assert lit.b7 == pytest.approx(FROZEN_QUBIT["b7_literal"], abs=1e-15)
    assert cor.b7 == pytest.approx(FROZEN_QUBIT["b7_corrected"], abs=1e-15)


def test_corrected_matches_pipeline_at_frozen_point():
    closed = corrected_final_qubit(POINT_SPEC, POINT_WEAK, POINT_REVERSE, POINT_ACC)
    piped = run_protocol(x_state(*POINT_SPEC), POINT_WEAK, POINT_REVERSE,
                         POINT_ACC).final
    assert np.max(np.abs(closed.matrix - piped.matrix)) <= 1e-14


def test_corrected_matches_pipeline_random_tuples():
    rng = np.random.default_rng(55021)
    for _ in range(30):
        while True:
            c = rng.uniform(-1.0, 1.0, size=3)
            spec = XStateSpec(*c)
            if min(x_eigenvalues(*x_coefficients(c))) >= 1e-6:
                break
        weak = MeasurementStrengths(WEAK, (rng.uniform(0, 0.95),),
                                    (rng.uniform(0, 0.95),))
        rev = MeasurementStrengths(REVERSE, (rng.uniform(0, 0.95),),
                                   (rng.uniform(0, 0.95),))
        acc = AccelerationSpec(rng.uniform(0, np.pi / 4), rng.uniform(0, 2 * np.pi))
        closed = corrected_final_qubit(spec, weak, rev, acc)
        piped = run_protocol(x_state(*spec), weak, rev, acc).final
        assert np.max(np.abs(closed.matrix - piped.matrix)) <= 1e-12


def test_literal_equals_corrected_without_acceleration():
    acc0 = AccelerationSpec(0.0)
    lit = literal_final_qubit(POINT_SPEC, POINT_WEAK, POINT_REVERSE, acc0)
    cor = corrected_final_qubit(POINT_SPEC, POINT_WEAK, POINT_REVERSE, acc0)
    assert np.max(np.abs(lit.matrix - cor.matrix)) <= 1e-15


def test_literal_defect_is_exactly_the_pair_feed_term():
    spec = XStateSpec(-1.0, -1.0, -1.0)
    weak, rev = tied(WEAK, 0.0, 2), tied(REVERSE, 0.0, 2)
    acc = AccelerationSpec(0.5)
    lit = qubit_coefficients(spec, weak, rev, acc, variant="literal")
    cor = qubit_coefficients(spec, weak, rev, acc, variant="corrected")
    # B3 = 1/2 for the singlet; the omitted term is sin^2 r * B3
    assert cor.b7 - lit.b7 == pytest.approx(0.11492442353296507, abs=1e-15)
    for name in ("b1", "b2", "b3", "b4", "b5", "b6", "b8"):
        assert getattr(cor, name) == getattr(lit, name)


def test_printed_normalization_sums_an_off_diagonal():
    cor = qubit_coefficients(POINT_SPEC, POINT_WEAK, POINT_REVERSE, POINT_ACC)
    assert cor.normalization == pytest.approx(
        cor.b1 + cor.b3 + cor.b5 + cor.b7, abs=1e-16)
    assert cor.printed_normalization == pytest.approx(
        cor.b1 + cor.b3 + cor.b5 + cor.b6, abs=1e-16)
    assert cor.normalization != pytest.approx(cor.printed_normalization, abs=1e-3)


def test_printed_normalization_breaks_unit_trace():
    state = literal_final_qubit(POINT_SPEC, POINT_WEAK, POINT_REVERSE,
                                AccelerationSpec(0.0), normalization=PRINTED_NORM)
    assert abs(state.trace() - 1.0) > 1e-3


def test_trace_normalized_literal_has_unit_trace():
    state = literal_final_qubit(POINT_SPEC, POINT_WEAK, POINT_REVERSE, POINT_ACC,
                                normalization=TRACE_NORM)
    assert state.trace() == pytest.approx(1.0, abs=1e-14)


def test_qubit_coefficients_validation():
    with pytest.raises(NotPositive):
        QubitCoefficients(-0.1, 0, 0.2, 0, 0.2, 0, 0.2, 0, "corrected")
    with pytest.raises(DegenerateOutcome):
        QubitCoefficients(0, 0, 0, 0, 0, 0, 0, 0, "corrected")
    with pytest.raises(ValueError):
        qubit_coefficients(POINT_SPEC, POINT_WEAK, POINT_REVERSE, POINT_ACC,
                           variant="published")
    with pytest.raises(ValueError):
        qubit_coefficients(POINT_SPEC, POINT_REVERSE, POINT_REVERSE, POINT_ACC)
    with pytest.raises(DimMismatch):
        qubit_coefficients(POINT_SPEC, tied(WEAK, 0.2, 3), POINT_REVERSE,
                           POINT_ACC)


# ------------------------------------------------------------------ qutrit

def test_qutrit_coefficients_frozen_point():
    c = qutrit_coefficients(QT_SPEC, QT_WEAK, QT_REVERSE, QT_ACC)
    assert np.allclose(c.d, FROZEN_QUTRIT_D, atol=1e-15)
    assert c.normalization == pytest.approx(FROZEN_QUTRIT_NORM, abs=1e-15)
    # the printed normalisation is the diagonal sum, hence the trace
    assert c.normalization == pytest.approx(
        c.d[0] + c.d[2] + c.d[4] + c.d[5] + c.d[8], abs=1e-16)


def test_qutrit_literal_reduces_to_input_at_rest():
    for gamma in (1.0, 0.5):
        spec = QutritStateSpec(gamma)
        lit = literal_final_qutrit(spec, tied(WEAK, 0.0, 3), tied(REVERSE, 0.0, 3),
                                   AccelerationSpec(0.0))
        assert np.allclose(lit.matrix, qutrit_state(*spec).matrix, atol=1e-15)


def test_qutrit_literal_matches_pipeline_at_rest_with_tied_strengths():
    # the published weak factors resolve per level, not per party; with all
    # strengths tied the two readings coincide, so r = 0 must agree
    spec = QutritStateSpec(0.8)
    weak, rev = tied(WEAK, 0.35, 3), tied(REVERSE, 0.15, 3)
    lit = literal_final_qutrit(spec, weak, rev, AccelerationSpec(0.0))
    res = run_protocol(qutrit_state(*spec), weak, rev, AccelerationSpec(0.0))
    proj, weight = restrict_to_ladder(res.final, renormalize=True)
    assert weight == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(lit.matrix - proj.matrix)) <= 1e-13


def test_qutrit_literal_unit_trace_and_dims():
    lit = literal_final_qutrit(QT_SPEC, QT_WEAK, QT_REVERSE, QT_ACC)
    assert lit.trace() == pytest.approx(1.0, abs=1e-13)
    assert lit.dims == (3, 3)


def test_qutrit_literal_deviates_from_pipeline_under_acceleration():
    # odd cosine powers and the missing pair sector are kept as printed, so
    # away from r = 0 the deviation is genuine and must be visible
    res = run_protocol(qutrit_state(*QT_SPEC), QT_WEAK, QT_REVERSE, QT_ACC)
    proj, _ = restrict_to_ladder(res.final, renormalize=True)
    lit = literal_final_qutrit(QT_SPEC, QT_WEAK, QT_REVERSE, QT_ACC)
    rep = discrepancy_report(lit, proj, label="qutrit")
    assert rep.max_abs_diff > 1e-3
    assert rep.trace_deficit <= 1e-12


# ------------------------------------------------------------- reporting

def test_discrepancy_report_fields_and_text():
    acc0 = AccelerationSpec(0.0)
    a = corrected_final_qubit(POINT_SPEC, POINT_WEAK, POINT_REVERSE, acc0)
    b = corrected_final_qubit(POINT_SPEC, POINT_WEAK, POINT_REVERSE,
                              AccelerationSpec(0.3))
    rep = discrepancy_report(a, b, label="demo")
    assert rep.max_abs_diff > 0.0
    assert rep.entry_diffs.shape == (4, 4)
    i, j = rep.max_entry
    assert rep.entry_diffs[i, j] == rep.max_abs_diff
    text = rep.to_text()
    assert "demo" in text
    assert "max |diff|" in text


def test_discrepancy_report_rejects_shape_mismatch():
    a = corrected_final_qubit(POINT_SPEC, POINT_WEAK, POINT_REVERSE, POINT_ACC)
    q = literal_final_qutrit(QT_SPEC, QT_WEAK, QT_REVERSE, QT_ACC)
    with pytest.raises(DimMismatch):
        discrepancy_report(a, q)


# ------------------------------------------------------------- array form

_VERTICES = np.array([(-1.0, -1.0, -1.0), (-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)])
_STRENGTH = st.one_of(st.just(0.0), st.floats(0.0, 0.95))


@st.composite
def qubit_points(draw):
    """(c, weak, reverse, r, phi): an X-state triple in the physical
    tetrahedron (a mixture of its four Bell-state vertices), strengths in
    [0, 0.95] with 0 itself, r in [0, pi/4] with both ends, phi != 0."""
    w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    c = _VERTICES[0] if w.sum() == 0.0 else w @ _VERTICES / w.sum()
    r = draw(st.one_of(st.just(0.0), st.just(R_MAX), st.floats(0.0, R_MAX)))
    return (np.clip(c, -1.0, 1.0), [draw(_STRENGTH) for _ in range(2)],
            [draw(_STRENGTH) for _ in range(2)], r, draw(st.floats(0.1, 6.0)))


@settings(max_examples=40, deadline=None)
@given(points=st.lists(qubit_points(), min_size=1, max_size=6))
def test_array_form_equals_one_point_calls(points):
    c, weak, reverse, r, _ = (np.array(a) for a in zip(*points))
    for variant in ("corrected", "literal"):
        table = qubit_table(c, weak, reverse, r, variant)
        # b8 and b6 are b2 and b4 bit for bit, so each discriminant that
        # x_state_spectrum takes the root of is a sum of two squares
        assert table[:, [7, 5]].tobytes() == table[:, [1, 3]].tobytes()
        states = assemble_qubit(table)
        spectra = x_state_spectrum(table)
        for i, (ci, wi, vi, ri, phi) in enumerate(points):
            args = (XStateSpec(*ci), MeasurementStrengths(WEAK, wi[:1], wi[1:]),
                    MeasurementStrengths(REVERSE, vi[:1], vi[1:]), AccelerationSpec(ri, phi))
            coeffs = qubit_coefficients(*args, variant=variant)
            state = (corrected_final_qubit if variant == "corrected"
                     else literal_final_qubit)(*args)
            assert np.max(np.abs(table[i] - coeffs.table)) <= 1e-15
            assert np.max(np.abs(states[i] - state.matrix)) <= 1e-15
            assert np.max(np.abs(spectra[i] - x_state_spectrum(coeffs.table))) <= 1e-15


def _qutrit_arrays(weak, reverse):
    """Strength arrays ``(2, 2)`` (party, level) of two strength objects."""
    return ([weak.party_a_levels, weak.party_b_levels],
            [reverse.party_a_levels, reverse.party_b_levels])


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.tuples(st.floats(-3.0, 3.0),
                                 st.lists(_STRENGTH, min_size=6, max_size=6),
                                 st.one_of(st.just(0.0), st.just(R_MAX), st.floats(0.0, R_MAX))),
                       min_size=1, max_size=6))
def test_qutrit_array_form_equals_the_object_form_exactly(points):
    # validate's report.csv prints the literal qutrit state to 17 digits, so
    # the array form must give the object form's bits, not just its values
    objects = [(QutritStateSpec(g), MeasurementStrengths(WEAK, s[:2], s[:2]),
                MeasurementStrengths(REVERSE, s[2:4], s[4:]), AccelerationSpec(r))
               for g, s, r in points]
    weak, reverse = (np.array(a) for a in zip(*(_qutrit_arrays(w, v) for _, w, v, _ in objects)))
    gamma, r = (np.array([p[i] for p in points]) for i in (0, 2))
    table = qutrit_table(gamma, weak, reverse, r)
    states = assemble_qutrit(table)
    for i, args in enumerate(objects):
        one = qutrit_table(args[0].gamma, *_qutrit_arrays(*args[1:3]), args[3].r)
        assert np.array_equal(one, qutrit_coefficients(*args).d)
        assert np.array_equal(table[i], one)
        # the object form's state is the Hermitian part, as validate takes it
        assert np.array_equal(hermitian_part(assemble_qutrit(one)),
                              literal_final_qutrit(*args).matrix)
        assert np.array_equal(states[i], assemble_qutrit(one))


def test_qutrit_table_checks_its_diagonal_and_trace():
    weak, reverse = _qutrit_arrays(QT_WEAK, QT_REVERSE)
    assert np.array_equal(qutrit_table(1.0, weak, reverse, 0.4), FROZEN_QUTRIT_D)
    with np.errstate(invalid="ignore"), pytest.raises(NotPositive):
        qutrit_table(1.0, [[1.5, 0.2], [1.5, 0.2]], reverse, 0.4)   # D5, D9 < 0
    with pytest.raises(DegenerateOutcome):
        qutrit_table(1.0, weak, [[1.0, 1.0], [1.0, 1.0]], 0.4)      # every rw = 0
