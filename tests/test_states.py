"""Initial-state construction tests with frozen expected matrices."""

import re

import numpy as np
import pytest

from oracle import hermitian_eigenvalues, partial_trace, x_eigenvalues
from unruhlab.errors import NotPositive, UnknownPreset
from unruhlab.states import (
    parse_state_preset,
    qutrit_state,
    singlet,
    werner,
    x_coefficients,
    x_state,
)


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
    c = (0.3, -0.5, 0.1)
    b1, b2, b3, b4 = x_coefficients(c)
    assert b1 == pytest.approx(0.275)
    assert b2 == pytest.approx(0.2)    # (c11 - c22)/4 couples |00><11|
    assert b3 == pytest.approx(0.225)
    assert b4 == pytest.approx(-0.05)  # (c11 + c22)/4 couples |01><10|
    m = x_state(*c).matrix
    assert m[0, 0] == pytest.approx(b1)
    assert m[3, 3] == pytest.approx(b1)
    assert m[1, 1] == pytest.approx(b3)
    assert m[0, 3] == pytest.approx(b2)
    assert m[1, 2] == pytest.approx(b4)


def test_x_state_eigenvalues_match_formula():
    c = (0.4, 0.2, -0.3)
    direct = np.sort(hermitian_eigenvalues(x_state(*c).matrix))
    want = x_eigenvalues(*x_coefficients(c))
    assert np.allclose(direct, np.sort(want), atol=1e-14)


def test_x_state_all_plus_one_is_unphysical():
    # (1, 1, 1) gives B3 - B4 = -1/2
    with pytest.raises(NotPositive):
        x_state(1.0, 1.0, 1.0)


def test_x_state_triplet_variant_is_physical():
    # (1, 1, -1) is the |01>+|10> maximally entangled state
    rho = x_state(1.0, 1.0, -1.0)
    lam = np.sort(hermitian_eigenvalues(rho.matrix))
    assert np.allclose(lam, [0.0, 0.0, 0.0, 1.0], atol=1e-14)


def test_x_spec_rejects_out_of_range():
    with pytest.raises(ValueError, match="X-state coefficient 1.2 outside"):
        x_state(1.2, 0.0, 0.0)


def test_qutrit_amplitudes_and_norm():
    ket = np.array([1.0, 1.0, 0.5]) / np.sqrt(2.25)
    assert np.allclose(qutrit_state(0.5).matrix[np.ix_([0, 4, 8], [0, 4, 8])],
                       np.outer(ket, ket), atol=1e-15)
    assert np.sum(ket ** 2) == pytest.approx(1.0, abs=1e-14)


def test_qutrit_state_layout():
    rho = qutrit_state(1.0)
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
    rho = qutrit_state(0.7)
    m = rho.matrix
    assert np.allclose(m @ m, m, atol=1e-14)
    marg = partial_trace(rho, 0).matrix
    want = np.diag([1.0, 1.0, 0.49]) / 2.49
    assert np.allclose(marg, want, atol=1e-14)


def test_qutrit_gamma_zero_degenerates_to_qubit_pair():
    rho = qutrit_state(0.0)
    assert rho.matrix[8, 8] == pytest.approx(0.0, abs=1e-15)
    assert rho.matrix[0, 0] == pytest.approx(0.5, abs=1e-14)


def test_parse_preset_forms():
    assert np.allclose(parse_state_preset("singlet").matrix, singlet().matrix)
    assert np.allclose(parse_state_preset("werner:0.7").matrix, werner(0.7).matrix)
    got = parse_state_preset("x: 0.3, -0.5, 0.1").matrix
    assert np.allclose(got, x_state(0.3, -0.5, 0.1).matrix)
    q = parse_state_preset("qutrit:0.5")
    assert q.dims == (3, 3)


def test_parse_preset_rejects_garbage():
    for bad in ("unknown", "werner:", "werner:abc", "x:1,2", "singlet:1",
                "qutrit:", ""):
        with pytest.raises(UnknownPreset):
            parse_state_preset(bad)


@pytest.mark.parametrize("gamma", [1.35e154, -1e200, 1.7e308])
def test_qutrit_gamma_whose_square_overflows_is_rejected(gamma):
    # 2 + gamma^2 is infinite: the ket would be zero, not a state
    message = f"gamma={gamma} is too large: 2 + gamma^2 overflows"
    with pytest.raises(ValueError, match=re.escape(message)):
        qutrit_state(gamma)
    with pytest.raises(UnknownPreset) as caught:
        parse_state_preset(f"qutrit:{gamma!r}")
    assert str(caught.value) == f"cannot parse state preset 'qutrit:{gamma!r}': {message}"


def test_qutrit_large_finite_gamma_keeps_its_bits():
    # The largest gammas whose square is finite still build a state, by
    # the same expression as before the overflow check.
    for gamma in (-3.0, 0.5, 1e100, 1.3e154):
        n = np.sqrt(2.0 + gamma * gamma)
        ket = np.zeros(9, dtype=np.complex128)
        ket[[0, 4, 8]] = np.array([1.0, 1.0, gamma], dtype=np.complex128) / n
        assert np.array_equal(qutrit_state(gamma).matrix, np.outer(ket, ket.conj()))
