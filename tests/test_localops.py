"""Filter-operator tests.

The success-probability example values are frozen from a by-hand trace:
for werner(0.7) under tied weak strength 0.5 the diagonal weights are
(1, 0.5, 0.5, 0.25) against populations (0.075, 0.425, 0.425, 0.075),
giving p = 0.51875.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (BadArity, MeasurementStrengths, apply_local_pair, build_operator,
                    embed_diagonal, tied)
from unruhlab.errors import (
    BadStrength,
    DegenerateOutcome,
    DimMismatch,
)
from unruhlab.localops import REVERSE, WEAK
from unruhlab.states import qutrit_state, singlet, werner
from unruhlab.tensor import DensityMatrix


def test_weak_qubit_operator():
    op = build_operator(WEAK, 2, (0.5,))
    assert np.allclose(op, np.diag([1.0, np.sqrt(0.5)]))


def test_reverse_qubit_operator():
    op = build_operator(REVERSE, 2, (0.5,))
    assert np.allclose(op, np.diag([np.sqrt(0.5), 1.0]))


def test_weak_qutrit_operator():
    op = build_operator(WEAK, 3, (0.36, 0.19))
    assert np.allclose(op, np.diag([1.0, 0.8, 0.9]))


def test_reverse_qutrit_operator():
    op = build_operator(REVERSE, 3, (0.3, 0.6))
    assert np.allclose(op, np.diag([np.sqrt(0.28), np.sqrt(0.7), np.sqrt(0.4)]))


def test_operator_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_operator("projective", 2, (0.5,))
    with pytest.raises(DimMismatch):
        build_operator(WEAK, 4, (0.1, 0.2, 0.3))
    with pytest.raises(BadArity):
        build_operator(WEAK, 3, (0.5,))
    with pytest.raises(BadStrength):
        build_operator(WEAK, 2, (1.5,))
    with pytest.raises(BadStrength):
        build_operator(REVERSE, 2, (-0.1,))


def test_strengths_container_validation():
    s = MeasurementStrengths(WEAK, (0.2,), (0.4,))
    assert s.dim == 2
    t = tied(REVERSE, 0.3, 3)
    assert t.party_a_levels == (0.3, 0.3)
    assert t.party_b_levels == (0.3, 0.3)
    assert t.dim == 3
    with pytest.raises(ValueError):
        MeasurementStrengths("strong", (0.2,), (0.2,))
    with pytest.raises(BadArity):
        MeasurementStrengths(WEAK, (0.2,), (0.2, 0.3))
    with pytest.raises(BadArity):
        MeasurementStrengths(WEAK, (0.2, 0.3, 0.4), (0.2, 0.3, 0.4))
    with pytest.raises(BadStrength):
        MeasurementStrengths(WEAK, (float("nan"),), (0.2,))


def test_embed_diagonal_pads_with_identity():
    op = build_operator(REVERSE, 3, (0.3, 0.6))
    big = embed_diagonal(op, 4)
    assert big.shape == (4, 4)
    assert np.allclose(big[:3, :3], op)
    assert big[3, 3] == 1.0
    with pytest.raises(DimMismatch):
        embed_diagonal(big, 3)


def test_weak_success_probability_frozen_value():
    w = build_operator(WEAK, 2, (0.5,))
    _, p = apply_local_pair(werner(0.7), w, w)
    assert p == pytest.approx(0.51875, abs=1e-14)


def test_weak_filter_leaves_singlet_invariant():
    # both singlet components carry exactly one excited level per party,
    # so a tied weak filter rescales without changing the state
    w = build_operator(WEAK, 2, (0.7,))
    out, p = apply_local_pair(singlet(), w, w)
    assert np.allclose(out.matrix, singlet().matrix, atol=1e-14)
    assert p == pytest.approx(0.3, abs=1e-14)


def test_apply_local_pair_asymmetric_operators():
    w_a = build_operator(WEAK, 2, (0.5,))
    w_b = build_operator(WEAK, 2, (0.0,))
    out, p = apply_local_pair(werner(0.7), w_a, w_b)
    # oracle: diagonal reweighting of the populations
    weights = np.diag(np.kron(w_a, w_b) ** 2).real
    pops = np.diag(werner(0.7).matrix).real
    assert p == pytest.approx(float(weights @ pops), abs=1e-14)
    assert out.trace() == pytest.approx(1.0, abs=1e-12)


def test_apply_local_pair_qutrit_shapes():
    rho = qutrit_state(1.0)
    w = build_operator(WEAK, 3, (0.2, 0.4))
    out, p = apply_local_pair(rho, w, w)
    assert out.dims == (3, 3)
    assert 0.0 < p < 1.0


def test_degenerate_projection_raises():
    # full-strength weak filter annihilates every singlet component
    w = build_operator(WEAK, 2, (1.0,))
    with pytest.raises(DegenerateOutcome):
        apply_local_pair(singlet(), w, w)


def test_apply_local_pair_dim_mismatch():
    w2 = build_operator(WEAK, 2, (0.5,))
    w3 = build_operator(WEAK, 3, (0.5, 0.5))
    with pytest.raises(DimMismatch):
        apply_local_pair(singlet(), w3, w2)
    mono = DensityMatrix(np.eye(2, dtype=np.complex128) / 2, (2,))
    with pytest.raises(DimMismatch):
        apply_local_pair(mono, w2, w2)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.95),
       st.floats(min_value=0.0, max_value=0.95))
def test_filter_success_probability_bounded(alpha, beta):
    w = build_operator(WEAK, 2, (alpha,))
    r = build_operator(REVERSE, 2, (beta,))
    state, p = apply_local_pair(werner(0.7), w, r)
    assert 0.0 < p <= 1.0 + 1e-12
    assert state.trace() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_operators_are_contractions(v):
    for kind in (WEAK, REVERSE):
        for dim in (2, 3):
            op = build_operator(kind, dim, (v,) * (dim - 1))
            gram = op.conj().T @ op
            assert np.all(np.diag(gram).real <= 1.0 + 1e-12)
