"""Initial-state construction tests with frozen expected matrices."""

import numpy as np
import pytest

from oracle import partial_trace
from unruhlab.errors import NotPositive, UnknownPreset
from unruhlab.states import (
    QutritStateSpec,
    XStateSpec,
    make_qutrit_state,
    make_x_state,
    parse_state_preset,
    singlet,
    werner,
    x_coefficients,
    x_eigenvalues,
)
from unruhlab.tensor import hermitian_eigenvalues


def test_singlet_matrix_frozen():
    want = np.zeros((4, 4))
    want[1, 1] = want[2, 2] = 0.5
    want[1, 2] = want[2, 1] = -0.5
    assert np.allclose(singlet().matrix, want, atol=1e-15)


def test_singlet_is_pure():
    m = singlet().matrix
    assert np.allclose(m @ m, m, atol=1e-14)


def test_werner_07_eigenvalues_frozen():
    # B1 = 0.075, B2 = 0, B3 = 0.425, B4 = -0.35
    lam = np.sort(hermitian_eigenvalues(werner(0.7).matrix))
    assert np.allclose(lam, [0.075, 0.075, 0.075, 0.775], atol=1e-12)


def test_werner_interpolates_to_maximally_mixed():
    assert np.allclose(werner(0.0).matrix, np.eye(4) / 4, atol=1e-15)


def test_x_spec_coefficient_mapping():
    spec = XStateSpec(0.3, -0.5, 0.1)
    b1, b2, b3, b4 = x_coefficients((spec.c11, spec.c22, spec.c33))
    assert b1 == pytest.approx(0.275)
    assert b2 == pytest.approx(0.2)    # (c11 - c22)/4 couples |00><11|
    assert b3 == pytest.approx(0.225)
    assert b4 == pytest.approx(-0.05)  # (c11 + c22)/4 couples |01><10|
    m = make_x_state(spec).matrix
    assert m[0, 0] == pytest.approx(b1)
    assert m[3, 3] == pytest.approx(b1)
    assert m[1, 1] == pytest.approx(b3)
    assert m[0, 3] == pytest.approx(b2)
    assert m[1, 2] == pytest.approx(b4)


def test_x_state_eigenvalues_match_formula():
    spec = XStateSpec(0.4, 0.2, -0.3)
    direct = np.sort(hermitian_eigenvalues(make_x_state(spec).matrix))
    want = x_eigenvalues(*x_coefficients((spec.c11, spec.c22, spec.c33)))
    assert np.allclose(direct, np.sort(want), atol=1e-14)


def test_x_state_all_plus_one_is_unphysical():
    # (1, 1, 1) gives B3 - B4 = -1/4
    with pytest.raises(NotPositive):
        make_x_state(XStateSpec(1.0, 1.0, 1.0))


def test_x_state_triplet_variant_is_physical():
    # (1, 1, -1) is the |01>+|10> maximally entangled state
    rho = make_x_state(XStateSpec(1.0, 1.0, -1.0))
    lam = np.sort(hermitian_eigenvalues(rho.matrix))
    assert np.allclose(lam, [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_x_spec_rejects_out_of_range():
    with pytest.raises(ValueError):
        XStateSpec(1.2, 0.0, 0.0)


def test_qutrit_amplitudes_and_norm():
    amp = QutritStateSpec(0.5).amplitudes()
    assert np.allclose(amp, np.array([1.0, 1.0, 0.5]) / np.sqrt(2.25))
    assert np.sum(np.abs(amp) ** 2) == pytest.approx(1.0, abs=1e-14)


def test_qutrit_state_layout():
    rho = make_qutrit_state(QutritStateSpec(1.0))
    m = rho.matrix
    # support only on |00>, |11>, |22> (indices 0, 4, 8)
    support = {0, 4, 8}
    for i in range(9):
        for j in range(9):
            if i in support and j in support:
                assert m[i, j] == pytest.approx(1.0 / 3.0, abs=1e-14)
            else:
                assert abs(m[i, j]) < 1e-15


def test_qutrit_state_is_pure_with_expected_marginal():
    spec = QutritStateSpec(0.7)
    rho = make_qutrit_state(spec)
    m = rho.matrix
    assert np.allclose(m @ m, m, atol=1e-14)
    marg = partial_trace(rho, 0).matrix
    want = np.diag([1.0, 1.0, 0.49]) / 2.49
    assert np.allclose(marg, want, atol=1e-14)


def test_qutrit_gamma_zero_degenerates_to_qubit_pair():
    rho = make_qutrit_state(QutritStateSpec(0.0))
    assert rho.matrix[8, 8] == pytest.approx(0.0, abs=1e-15)
    assert rho.matrix[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_parse_preset_forms():
    assert np.allclose(parse_state_preset("singlet").matrix, singlet().matrix)
    assert np.allclose(parse_state_preset("werner:0.7").matrix, werner(0.7).matrix)
    got = parse_state_preset("x: 0.3, -0.5, 0.1").matrix
    assert np.allclose(got, make_x_state(XStateSpec(0.3, -0.5, 0.1)).matrix)
    q = parse_state_preset("qutrit:0.5")
    assert q.dims == (3, 3)


def test_parse_preset_rejects_garbage():
    for bad in ("unknown", "werner:", "werner:abc", "x:1,2", "singlet:1",
                "qutrit:", ""):
        with pytest.raises(UnknownPreset):
            parse_state_preset(bad)
