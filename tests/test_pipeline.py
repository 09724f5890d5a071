"""Protocol-composition tests: operator ordering, bookkeeping of the
success probabilities, the enlarged accelerated factor, and the ladder
restriction."""

import numpy as np
import pytest

from oracle import (AccelerationSpec, MeasurementStrengths, apply_local_pair, kron, partial_trace,
                    qubit_channel, restrict_to_ladder, run_protocol, tied)
from unruhlab.channel import R_MAX
from unruhlab.errors import DegenerateOutcome, DimMismatch
from unruhlab.localops import REVERSE, WEAK
from unruhlab.states import qutrit_state, singlet, werner
from unruhlab.tensor import DensityMatrix


def test_identity_point_returns_input_qubit():
    res = run_protocol(singlet(), tied(WEAK, 0.0, 2), tied(REVERSE, 0.0, 2),
                       AccelerationSpec(0.0))
    assert np.max(np.abs(res.final.matrix - singlet().matrix)) <= 1e-14
    assert res.p_weak == pytest.approx(1.0, abs=1e-14)
    assert res.p_reverse == pytest.approx(1.0, abs=1e-14)
    assert res.p_success == pytest.approx(1.0, abs=1e-14)


def test_identity_point_embeds_qutrit():
    rho0 = qutrit_state(0.6)
    res = run_protocol(rho0, tied(WEAK, 0.0, 3), tied(REVERSE, 0.0, 3),
                       AccelerationSpec(0.0))
    assert res.final.dims == (4, 3)
    sub, weight = restrict_to_ladder(res.final, renormalize=False)
    assert weight == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(sub.matrix - rho0.matrix)) <= 1e-14


def test_success_probabilities_multiply():
    res = run_protocol(werner(0.7), tied(WEAK, 0.3, 2), tied(REVERSE, 0.6, 2),
                       AccelerationSpec(0.5))
    assert res.p_success == pytest.approx(res.p_weak * res.p_reverse, abs=1e-16)
    assert 0.0 < res.p_success < 1.0


def test_intermediate_states_exposed_in_order():
    res = run_protocol(werner(0.7), tied(WEAK, 0.3, 2), tied(REVERSE, 0.0, 2),
                       AccelerationSpec(0.0))
    # with no acceleration and no reversal the final equals the weak stage
    assert np.allclose(res.final.matrix, res.after_weak.matrix, atol=1e-14)
    assert np.allclose(res.after_acceleration.matrix, res.after_weak.matrix,
                       atol=1e-14)


def test_weak_stage_precedes_channel():
    # weak filtering commutes with nothing here: filtering after the
    # channel would give a different state, so check the implemented order
    # against an explicit hand composition
    alpha, beta, r = 0.4, 0.2, 0.6
    weak = tied(WEAK, alpha, 2)
    rev = tied(REVERSE, beta, 2)
    res = run_protocol(werner(0.7), weak, rev, AccelerationSpec(r))

    from oracle import build_operator

    w = build_operator(WEAK, 2, (alpha,))
    rv = build_operator(REVERSE, 2, (beta,))
    staged, p1 = apply_local_pair(werner(0.7), w, w)
    chan = qubit_channel(AccelerationSpec(r))
    ks = chan.kraus
    eye = np.eye(2, dtype=np.complex128)
    acc = sum(kron(k, eye) @ staged.matrix @ kron(k, eye).conj().T for k in ks)
    sigma = kron(rv, rv) @ acc @ kron(rv, rv).conj().T
    p2 = float(np.trace(sigma).real)
    want = sigma / p2
    assert np.max(np.abs(res.final.matrix - want)) <= 1e-14
    assert res.p_success == pytest.approx(p1 * p2, abs=1e-14)


def test_qutrit_pipeline_keeps_pair_level():
    rho0 = qutrit_state(1.0)
    res = run_protocol(rho0, tied(WEAK, 0.2, 3), tied(REVERSE, 0.3, 3),
                       AccelerationSpec(R_MAX))
    assert res.final.dims == (4, 3)
    pair_pop = float(np.sum(np.diag(res.final.matrix).real.reshape(4, 3)[3]))
    assert pair_pop > 0.01


def test_reverse_acts_as_identity_on_pair_level():
    # a reversing filter at full strength on level 1 annihilates the lower
    # ladder but must pass the pair level through
    rho0 = qutrit_state(1.0)
    res = run_protocol(rho0, tied(WEAK, 0.0, 3),
                       MeasurementStrengths(REVERSE, (1.0, 1.0), (0.0, 0.0)),
                       AccelerationSpec(0.7))
    pops = np.diag(res.final.matrix).real.reshape(4, 3)
    assert np.sum(pops[:3]) == pytest.approx(0.0, abs=1e-12)
    assert np.sum(pops[3]) == pytest.approx(1.0, abs=1e-12)


def test_degenerate_point_raises():
    with pytest.raises(DegenerateOutcome):
        run_protocol(singlet(), tied(WEAK, 1.0, 2), tied(REVERSE, 0.0, 2),
                     AccelerationSpec(0.3))


def test_protocol_rejects_mismatched_inputs():
    with pytest.raises(DimMismatch):
        run_protocol(singlet(), tied(WEAK, 0.2, 3), tied(REVERSE, 0.2, 3),
                     AccelerationSpec(0.1))
    with pytest.raises(ValueError):
        run_protocol(singlet(), tied(REVERSE, 0.2, 2), tied(REVERSE, 0.2, 2),
                     AccelerationSpec(0.1))
    mono = DensityMatrix(np.eye(2, dtype=np.complex128) / 2, (2,))
    with pytest.raises(DimMismatch):
        run_protocol(mono, tied(WEAK, 0.2, 2), tied(REVERSE, 0.2, 2),
                     AccelerationSpec(0.1))


def test_restrict_to_ladder_modes():
    rho0 = qutrit_state(1.0)
    res = run_protocol(rho0, tied(WEAK, 0.1, 3), tied(REVERSE, 0.2, 3),
                       AccelerationSpec(0.6))
    raw, w_raw = restrict_to_ladder(res.final, renormalize=False)
    proj, w_proj = restrict_to_ladder(res.final, renormalize=True)
    assert w_raw == pytest.approx(w_proj, abs=1e-15)
    assert 0.0 < w_raw < 1.0
    assert raw.trace() == pytest.approx(w_raw, abs=1e-13)
    assert proj.trace() == pytest.approx(1.0, abs=1e-13)
    assert np.allclose(raw.matrix / w_raw, proj.matrix, atol=1e-13)
    with pytest.raises(DimMismatch):
        restrict_to_ladder(rho0, renormalize=True)


def test_marginal_of_inertial_party_untouched_by_acceleration():
    # the channel acts on party 0 only; party 1's marginal can change only
    # through the filters, so with no filtering it must stay fixed
    rho0 = qutrit_state(0.5)
    res = run_protocol(rho0, tied(WEAK, 0.0, 3), tied(REVERSE, 0.0, 3),
                       AccelerationSpec(0.55, 0.8))
    before = partial_trace(rho0, 1).matrix
    after = partial_trace(res.final, 1).matrix
    assert np.max(np.abs(before - after)) <= 1e-13
