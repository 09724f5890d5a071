"""Measure tests against textbook values and the generic eigensolver.

Frozen constants: werner(0.7) has spectrum {0.775, 0.075 x3}, so
S(rho_ab) = 1.125809391675274 bits and the standard coherent information
is 1 - S(rho_ab) = -0.12580939167527405 bits."""

import numpy as np
import pytest

from oracle import (
    LITERAL,
    STANDARD,
    MeasuresReport,
    coherent_information,
    compute_report,
    kron,
    local_information,
    negativity,
    run_protocol,
)
from unruhlab.channel import AccelerationSpec
from unruhlab.closedform import QubitCoefficients, qubit_coefficients, x_state_spectrum
from unruhlab.errors import NegativeDiscriminant
from unruhlab.localops import MeasurementStrengths, REVERSE, WEAK, tied
from unruhlab.measures import measure_columns
from unruhlab.pipeline import propagate_point
from unruhlab.states import (
    QutritStateSpec,
    XStateSpec,
    make_qutrit_state,
    make_x_state,
    singlet,
    werner,
)
from unruhlab.tensor import DensityMatrix, hermitian_eigenvalues

WERNER07_JOINT_ENTROPY = 1.125809391675274


def product_state():
    up = np.diag([1.0, 0.0]).astype(np.complex128)
    return DensityMatrix(kron(up, up), (2, 2))


def test_negativity_of_singlet():
    raw, norm = negativity(singlet())
    assert raw == pytest.approx(0.5, abs=1e-14)
    assert norm == pytest.approx(1.0, abs=1e-14)


def test_negativity_of_product_state_is_zero():
    raw, norm = negativity(product_state())
    assert raw == 0.0
    assert norm == 0.0


def test_negativity_of_werner_states():
    # raw negativity of (-x, -x, -x) is max(0, (3x - 1)/4)
    raw, norm = negativity(werner(0.7))
    assert raw == pytest.approx(0.275, abs=1e-14)
    assert norm == pytest.approx(0.55, abs=1e-14)
    raw, norm = negativity(werner(1.0 / 3.0))
    assert raw == pytest.approx(0.0, abs=1e-12)


def test_negativity_of_qutrit_mes():
    raw, norm = negativity(make_qutrit_state(QutritStateSpec(1.0)))
    assert raw == pytest.approx(1.0, abs=1e-13)
    assert norm == pytest.approx(1.0, abs=1e-13)


def test_negativity_party_choice_is_irrelevant():
    rho = werner(0.8)
    assert negativity(rho, 0) == pytest.approx(negativity(rho, 1), abs=1e-14)


def test_negativity_normalization_uses_smaller_party():
    # accelerated qutrit output is 4 x 3; the MES value must stay 1 at rest
    res = run_protocol(make_qutrit_state(QutritStateSpec(1.0)),
                       tied(WEAK, 0.0, 3), tied(REVERSE, 0.0, 3),
                       AccelerationSpec(0.0))
    assert res.final.dims == (4, 3)
    raw, norm = negativity(res.final)
    assert raw == pytest.approx(1.0, abs=1e-12)
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_local_information_known_values():
    assert local_information(singlet(), 0) == pytest.approx(1.0, abs=1e-14)
    assert local_information(singlet(), 1) == pytest.approx(1.0, abs=1e-14)
    assert local_information(product_state(), 0) == pytest.approx(0.0, abs=1e-14)
    mes3 = make_qutrit_state(QutritStateSpec(1.0))
    assert local_information(mes3, 0) == pytest.approx(np.log2(3), abs=1e-13)


def test_coherent_information_variants():
    assert coherent_information(singlet(), STANDARD) == pytest.approx(1.0, abs=1e-12)
    assert coherent_information(singlet(), LITERAL) == pytest.approx(0.0, abs=1e-12)
    got = coherent_information(werner(0.7), STANDARD)
    assert got == pytest.approx(1.0 - WERNER07_JOINT_ENTROPY, abs=1e-13)
    lit = coherent_information(werner(0.7), LITERAL)
    assert lit == pytest.approx(-WERNER07_JOINT_ENTROPY, abs=1e-13)
    assert lit <= 0.0
    with pytest.raises(ValueError):
        coherent_information(singlet(), "textbook")


def test_x_state_spectrum_matches_eigensolver():
    spec = XStateSpec(0.3, -0.5, 0.1)
    weak = MeasurementStrengths(WEAK, (0.2,), (0.4,))
    rev = MeasurementStrengths(REVERSE, (0.1,), (0.3,))
    coeffs = qubit_coefficients(spec, weak, rev, AccelerationSpec(0.5))
    mus = np.sort(x_state_spectrum(coeffs))
    direct = np.sort(hermitian_eigenvalues(coeffs.assemble().matrix))
    assert np.allclose(mus, direct, atol=1e-14)
    assert np.sum(mus) == pytest.approx(1.0, abs=1e-14)


def test_x_state_spectrum_negative_discriminant():
    bad = QubitCoefficients(0.25, 0.5, 0.25, 0.0, 0.25, 0.0, 0.25, -0.5,
                            "corrected")
    with pytest.raises(NegativeDiscriminant):
        x_state_spectrum(bad)


def test_measures_report_validation():
    with pytest.raises(ValueError):
        MeasuresReport(0.5, 1.5, 1.0, 1.0, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        MeasuresReport(0.5, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("p_success", [0.0, 1.5])
def test_measure_columns_rejects_success_probability_out_of_range(p_success):
    # Unfiltered and unaccelerated, the final state is werner(0.7) itself.
    out = propagate_point(werner(0.7), tied(WEAK, 0.0, 2), tied(REVERSE, 0.0, 2),
                          AccelerationSpec(0.0))
    measure_columns(out._replace(p_success=np.array([0.5])))
    with pytest.raises(ValueError, match="success probability"):
        measure_columns(out._replace(p_success=np.array([p_success])))


def test_compute_report_consistency():
    res = run_protocol(werner(0.7), tied(WEAK, 0.3, 2), tied(REVERSE, 0.2, 2),
                       AccelerationSpec(0.4))
    rep = compute_report(res.final, res.p_success)
    raw, norm = negativity(res.final)
    assert rep.negativity_raw == pytest.approx(raw, abs=1e-15)
    assert rep.entanglement_normalized == pytest.approx(norm, abs=1e-15)
    assert rep.info_accelerated_bits == pytest.approx(
        local_information(res.final, 0), abs=1e-13)
    assert rep.info_inertial_bits == pytest.approx(
        local_information(res.final, 1), abs=1e-13)
    assert rep.coherent_info_standard_bits == pytest.approx(
        coherent_information(res.final, STANDARD), abs=1e-13)
    assert rep.coherent_info_literal_bits == pytest.approx(
        coherent_information(res.final, LITERAL), abs=1e-13)
    assert rep.success_probability == res.p_success


def test_pure_state_literal_coherent_information_vanishes():
    rep = compute_report(singlet(), 1.0)
    assert rep.coherent_info_literal_bits == pytest.approx(0.0, abs=1e-12)
    assert rep.coherent_info_standard_bits == pytest.approx(1.0, abs=1e-12)
