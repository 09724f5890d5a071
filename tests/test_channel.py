"""Acceleration-channel tests.

The Kraus maps are validated against an independently coded Stinespring
dilation: build the isometry V into (region I) x (region II) explicitly,
conjugate, and trace out region II with basis-vector sums.  Agreement of
the two routes pins both the matrix elements and the phase conventions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    AccelerationSpec,
    ChannelKraus,
    accelerate,
    channel_for_dim,
    hermitian_eigenvalues,
    qubit_channel,
    qutrit_channel,
)
from unruhlab.channel import (R_MAX, check_completeness, qubit_kraus, qutrit_kraus,
                              r_from_acceleration)
from unruhlab.errors import BadPhysicalParam, DimMismatch
from unruhlab.states import qutrit_state, singlet
from unruhlab.tensor import DensityMatrix

RNG_SEED = 47711

# arctan(exp(-1)), i.e. omega = 1, a = pi in natural units
R_AT_A_PI = 0.352513421777619


def random_state_matrix(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return m / np.trace(m).real


# ---------------------------------------------------------------- dilation

def qubit_isometry(r):
    """V|0> = cos r |0,0> + sin r |1,1>;  V|1> = |1,0>."""
    v = np.zeros((4, 2), dtype=np.complex128)
    v[0, 0] = np.cos(r)        # |0>_I |0>_II
    v[3, 0] = np.sin(r)        # |1>_I |1>_II
    v[2, 1] = 1.0              # |1>_I |0>_II
    return v


def qutrit_isometry(r, phi):
    """Region-I and region-II factors are both 4-level: 0, U, D, P."""
    c, s = np.cos(r), np.sin(r)
    ph = np.exp(1j * phi)
    v = np.zeros((16, 3), dtype=np.complex128)

    def at(region_i, region_ii):
        return 4 * region_i + region_ii

    v[at(0, 0), 0] = c * c
    v[at(1, 2), 0] = ph * s * c          # |U, D>
    v[at(2, 1), 0] = ph * s * c          # |D, U>
    v[at(2, 3), 0] = ph * ph * s * s     # |D, P>
    v[at(1, 0), 1] = c                   # |U, 0>
    v[at(3, 1), 1] = ph * s              # |P, U>
    v[at(2, 0), 2] = c                   # |D, 0>
    v[at(3, 2), 2] = -ph * s             # |P, D>
    return v


def dilation_channel(v, rho_in, out_dim, env_dim):
    big = v @ rho_in @ v.conj().T
    t = big.reshape(out_dim, env_dim, out_dim, env_dim)
    return np.trace(t, axis1=1, axis2=3)


def kraus_apply(chan, rho_in):
    return sum(k @ rho_in @ k.conj().T for k in chan.kraus)


def test_isometries_are_isometric():
    for r in np.linspace(0.0, R_MAX, 7):
        for phi in (0.0, 0.9, np.pi):
            v2 = qubit_isometry(r)
            assert np.allclose(v2.conj().T @ v2, np.eye(2), atol=1e-14)
            v3 = qutrit_isometry(r, phi)
            assert np.allclose(v3.conj().T @ v3, np.eye(3), atol=1e-14)


def test_qubit_kraus_matches_dilation():
    rng = np.random.default_rng(RNG_SEED)
    for r in np.linspace(0.0, R_MAX, 5):
        chan = qubit_channel(AccelerationSpec(r))
        v = qubit_isometry(r)
        for _ in range(4):
            rho = random_state_matrix(rng, 2)
            assert np.allclose(kraus_apply(chan, rho),
                               dilation_channel(v, rho, 2, 2), atol=1e-13)


def test_qutrit_kraus_matches_dilation():
    rng = np.random.default_rng(RNG_SEED + 1)
    for r in np.linspace(0.0, R_MAX, 5):
        for phi in (0.0, 1.1):
            chan = qutrit_channel(AccelerationSpec(r, phi))
            v = qutrit_isometry(r, phi)
            for _ in range(3):
                rho = random_state_matrix(rng, 3)
                assert np.allclose(kraus_apply(chan, rho),
                                   dilation_channel(v, rho, 4, 4), atol=1e-13)


# ------------------------------------------------------------- Rindler map

def test_r_from_acceleration_frozen_value():
    assert r_from_acceleration(np.pi, 1.0) == pytest.approx(R_AT_A_PI, abs=1e-15)


def test_r_from_acceleration_limits():
    assert r_from_acceleration(np.inf, 1.0) == R_MAX
    assert r_from_acceleration(1e-6, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert r_from_acceleration(1e9, 1.0) == pytest.approx(R_MAX, abs=1e-8)


def test_r_from_acceleration_is_monotone():
    accels = np.logspace(-1, 3, 30)
    rs = [r_from_acceleration(a, 1.0) for a in accels]
    assert np.all(np.diff(rs) > 0)


def test_r_from_acceleration_rejects_bad_params():
    with pytest.raises(BadPhysicalParam):
        r_from_acceleration(-1.0, 1.0)
    with pytest.raises(BadPhysicalParam):
        r_from_acceleration(0.0, 1.0)
    with pytest.raises(BadPhysicalParam):
        r_from_acceleration(1.0, 0.0)
    with pytest.raises(BadPhysicalParam):
        r_from_acceleration(np.nan, 1.0)


def test_acceleration_spec_bounds():
    assert AccelerationSpec(R_MAX + 5e-13).r == R_MAX
    assert AccelerationSpec(-5e-13).r == 0.0
    with pytest.raises(BadPhysicalParam):
        AccelerationSpec(1.0)
    with pytest.raises(BadPhysicalParam):
        AccelerationSpec(0.3, np.inf)


# ------------------------------------------------------------ completeness

def test_kraus_completeness_over_r_grid():
    for r in np.arange(0.0, R_MAX + 1e-12, np.pi / 80):
        for phi in (0.0, np.pi / 3):
            spec = AccelerationSpec(r, phi)
            assert qubit_channel(spec).completeness_defect() <= 1e-12
            assert qutrit_channel(spec).completeness_defect() <= 1e-12


@pytest.mark.parametrize("r", [
    np.meshgrid(np.linspace(0.0, R_MAX, 9), (0.0, 0.7, np.pi), indexing="ij")[0],
    np.random.default_rng(RNG_SEED).uniform(0.0, R_MAX, 100_000),
], ids=["validate-grid", "random"])
def test_real_qubit_kraus_has_the_complex_completeness_bits(r):
    # The qubit pair carries no phase, and neither does the qutrit family at
    # phi = 0, so both are built float64; their completeness defects
    # (validate's kraus_completeness) are those of the same stacks in
    # complex arithmetic, bit for bit.  A phased qutrit family is complex128.
    for kraus in (qubit_kraus(r), qutrit_kraus(r)):
        assert kraus.dtype == np.float64
        real, cplx = check_completeness(kraus), check_completeness(kraus.astype(np.complex128))
        assert (real.dtype, real.shape, real.tobytes()) == (cplx.dtype, cplx.shape,
                                                            cplx.tobytes())
    assert qutrit_kraus(r, 0.7).dtype == np.complex128


def test_channel_kraus_rejects_incomplete_family():
    k = np.diag([0.5, 0.5]).astype(np.complex128)
    with pytest.raises(DimMismatch):
        ChannelKraus(2, 2, (k,))


def test_channel_for_dim_dispatch():
    spec = AccelerationSpec(0.4)
    assert channel_for_dim(2, spec).out_dim == 2
    assert channel_for_dim(3, spec).out_dim == 4
    with pytest.raises(DimMismatch):
        channel_for_dim(5, spec)


# ----------------------------------------------------------- accelerate()

def test_accelerate_identity_at_r_zero():
    out = accelerate(singlet(), 0, qubit_channel(AccelerationSpec(0.0)))
    assert np.allclose(out.matrix, singlet().matrix, atol=1e-14)


def test_accelerate_expands_qutrit_party():
    rho = qutrit_state(1.0)
    out = accelerate(rho, 0, qutrit_channel(AccelerationSpec(0.5)))
    assert out.dims == (4, 3)
    assert out.trace() == pytest.approx(1.0, abs=1e-12)
    out_b = accelerate(rho, 1, qutrit_channel(AccelerationSpec(0.5)))
    assert out_b.dims == (3, 4)


def test_accelerate_pair_population_at_max_acceleration():
    # spin-up input at r = pi/4 splits evenly between U and the pair level
    up = np.zeros((9, 9), dtype=np.complex128)
    up[3 * 1 + 0, 3 * 1 + 0] = 1.0  # |U>_a |0>_b
    rho = DensityMatrix(up, (3, 3))
    out = accelerate(rho, 0, qutrit_channel(AccelerationSpec(R_MAX)))
    pops = np.diag(out.matrix).real.reshape(4, 3)[:, 0]
    assert pops[1] == pytest.approx(0.5, abs=1e-12)   # still spin-up
    assert pops[3] == pytest.approx(0.5, abs=1e-12)   # promoted to pair
    assert pops[0] == pytest.approx(0.0, abs=1e-14)
    assert pops[2] == pytest.approx(0.0, abs=1e-14)


def test_accelerate_rejects_wrong_party_dimension():
    with pytest.raises(DimMismatch):
        accelerate(singlet(), 0, qutrit_channel(AccelerationSpec(0.2)))
    with pytest.raises(DimMismatch):
        accelerate(singlet(), 2, qubit_channel(AccelerationSpec(0.2)))


def test_accelerate_preserves_trace_and_psd_random_inputs():
    rng = np.random.default_rng(RNG_SEED + 2)
    spec = AccelerationSpec(0.37, 0.4)
    for _ in range(20):
        rho2 = DensityMatrix(random_state_matrix(rng, 4), (2, 2))
        out2 = accelerate(rho2, 0, qubit_channel(spec))
        assert out2.trace() == pytest.approx(1.0, abs=1e-12)
        assert hermitian_eigenvalues(out2.matrix)[0] >= -1e-10
        rho3 = DensityMatrix(random_state_matrix(rng, 9), (3, 3))
        out3 = accelerate(rho3, 0, qutrit_channel(spec))
        assert out3.trace() == pytest.approx(1.0, abs=1e-12)
        assert hermitian_eigenvalues(out3.matrix)[0] >= -1e-10


def test_phase_is_a_gauge_of_the_channel():
    # every Kraus block carries one uniform power of e^{i phi}, which
    # cancels in K rho K^dag: the channel output is exactly phi-independent
    rho = qutrit_state(1.0)
    out0 = accelerate(rho, 0, qutrit_channel(AccelerationSpec(0.5, 0.0)))
    for phi in (0.7, np.pi / 3, np.pi, 5.1):
        out = accelerate(rho, 0, qutrit_channel(AccelerationSpec(0.5, phi)))
        assert np.allclose(out.matrix, out0.matrix, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.0, max_value=float(R_MAX)),
       st.floats(min_value=0.0, max_value=2 * np.pi))
def test_channel_property_trace_preserving(r, phi):
    rho = qutrit_state(1.0)
    out = accelerate(rho, 0, qutrit_channel(AccelerationSpec(r, phi)))
    assert out.trace() == pytest.approx(1.0, abs=1e-12)
