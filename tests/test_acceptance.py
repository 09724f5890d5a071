"""Acceptance gate: one test per acceptance criterion, at the stated
tolerances.  Each test prints a single [PASS]/[FAIL] line (visible with
``pytest -s``; the ``-v`` test names mirror them) before asserting.

Criterion 6 (filter-strength trend of the singlet at r = 0.6, tie policy
``all_equal``) asserts the shape the weak-reverse protocol gives on this
input:

* The weak filter diag(1, sqrt(1 - a)) on both parties scales |01> and
  |10> by the same sqrt(1 - a), so it leaves the singlet unchanged with
  p_weak = 1 - a.
* The channel on party a (K0 = diag(cos r, 1), K1 = sin r |1><0|) maps
  the singlet to (cos^2 r |01><01| + |10><10| + sin^2 r |11><11|
  - cos r (|01><10| + h.c.)) / 2.  The reversing filter diag(sqrt(u), 1)
  on both parties (u = 1 - a) multiplies |01><01|, |10><10| and their
  coherence by u and leaves |11><11| alone.  The result is an X-state
  with rho_44 = sin^2 r / D and |rho_23| = u cos r / D, where
  D = u (1 + cos^2 r) + sin^2 r, whose single negative partial-transpose
  eigenvalue (rho_44 - sqrt(rho_44^2 + 4 rho_23^2)) / 2 gives

      E(a) = (sqrt(sin^4 r + 4 u^2 cos^2 r) - sin^2 r) / D.

  For r > 0, E rises strictly with u, so it falls at every step of the
  strength grid, from cos^2 r at a = 0 to near zero at a = 0.98.

An earlier form of the criterion asked for an interior maximum above
E(0).  The protocol cannot give that on the singlet: protection comes
from the weak step, and the weak step does nothing to a maximally
entangled state, in line with the paper's abstract ("the accelerated
partial entangled states are more responsive to be protected than the
accelerated maximum entangled states").  No other reading of the
filters gives both a maximum and near-total loss at 0.98; the README
records that scan.  The criterion now checks the weak-step invariance,
the closed form above, the strict fall along the grid, and the
unchanged loss clause E(0.98) < 0.05.
"""

import time

import numpy as np
import pytest

from oracle import (AccelerationSpec, MeasurementStrengths, XStateSpec, _random_x_spec,
                    accelerate, compute_report, corrected_final_qubit, hermitian_eigenvalues,
                    negativity, point_strengths, qubit_channel, qubit_coefficients,
                    qutrit_channel, restrict_to_ladder, run_protocol, tied)
from unruhlab.channel import R_MAX
from unruhlab.closedform import x_state_spectrum
from unruhlab.cli import main
from unruhlab.localops import REVERSE, WEAK
from unruhlab.states import qutrit_state, singlet, x_state
from unruhlab.sweep import figure_preset, run_sweep
from unruhlab.tensor import DensityMatrix
from unruhlab.validate import run_validation

ACCEPTANCE_SEED = 424243


def _verdict(number: int, ok: bool, text: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    return ok


def _random_state(rng, dims):
    n = int(np.prod(dims))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real, dims)


def test_criterion_1_channel_validity():
    r_grid = np.arange(0.0, R_MAX + 1e-12, np.pi / 80)
    worst_defect = 0.0
    for r in r_grid:
        spec = AccelerationSpec(r, 0.4)
        worst_defect = max(worst_defect,
                           qubit_channel(spec).completeness_defect(),
                           qutrit_channel(spec).completeness_defect())
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    worst_trace, worst_eig = 0.0, 0.0
    spec = AccelerationSpec(0.52, 1.0)
    for dims, chan in (((2, 2), qubit_channel(spec)),
                       ((3, 3), qutrit_channel(spec))):
        for _ in range(20):
            out = accelerate(_random_state(rng, dims), 0, chan)
            worst_trace = max(worst_trace, abs(out.trace() - 1.0))
            worst_eig = min(worst_eig, float(hermitian_eigenvalues(out.matrix)[0]))
    ok = worst_defect <= 1e-12 and worst_trace <= 1e-12 and worst_eig >= -1e-10
    assert _verdict(1, ok,
                    f"Kraus completeness defect {worst_defect:.2e} <= 1e-12, "
                    f"trace drift {worst_trace:.2e} <= 1e-12, "
                    f"min eigenvalue {worst_eig:.2e} >= -1e-10")


def test_criterion_2_identity_fixed_point():
    rest = AccelerationSpec(0.0)
    res_q = run_protocol(singlet(), tied(WEAK, 0.0, 2), tied(REVERSE, 0.0, 2), rest)
    qubit_dev = float(np.max(np.abs(res_q.final.matrix - singlet().matrix)))

    rho3 = qutrit_state(1.0)
    res_t = run_protocol(rho3, tied(WEAK, 0.0, 3), tied(REVERSE, 0.0, 3), rest)
    block, weight = restrict_to_ladder(res_t.final, renormalize=False)
    qutrit_dev = max(float(np.max(np.abs(block.matrix - rho3.matrix))),
                     abs(weight - 1.0))

    rep = compute_report(res_q.final, res_q.p_success)
    anchor_dev = max(abs(rep.entanglement_normalized - 1.0),
                     abs(rep.info_accelerated_bits - 1.0),
                     abs(rep.info_inertial_bits - 1.0),
                     abs(rep.coherent_info_standard_bits - 1.0))

    ok = qubit_dev <= 1e-14 and qutrit_dev <= 1e-14 and anchor_dev <= 1e-9
    assert _verdict(2, ok,
                    f"identity point: qubit dev {qubit_dev:.2e} <= 1e-14, "
                    f"qutrit embedding dev {qutrit_dev:.2e} <= 1e-14, "
                    f"unit anchors dev {anchor_dev:.2e} <= 1e-9")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(ACCEPTANCE_SEED + 1)
    worst_state, worst_spec = 0.0, 0.0
    for _ in range(100):
        spec = _random_x_spec(rng)
        weak = MeasurementStrengths(WEAK, (rng.uniform(0, 0.95),),
                                    (rng.uniform(0, 0.95),))
        rev = MeasurementStrengths(REVERSE, (rng.uniform(0, 0.95),),
                                   (rng.uniform(0, 0.95),))
        acc = AccelerationSpec(rng.uniform(0, R_MAX), rng.uniform(0, 2 * np.pi))
        closed = corrected_final_qubit(spec, weak, rev, acc)
        piped = run_protocol(x_state(*spec), weak, rev, acc).final
        worst_state = max(worst_state,
                          float(np.max(np.abs(closed.matrix - piped.matrix))))
        coeffs = qubit_coefficients(spec, weak, rev, acc)
        mus = np.sort(np.asarray(x_state_spectrum(coeffs.table)))
        direct = np.sort(hermitian_eigenvalues(closed.matrix))
        worst_spec = max(worst_spec, float(np.max(np.abs(mus - direct))))
    ok = worst_state <= 1e-12 and worst_spec <= 1e-12
    assert _verdict(3, ok,
                    f"over 100 tuples: closed-form vs pipeline {worst_state:.2e} "
                    f"<= 1e-12, spectrum formulas vs eigensolver "
                    f"{worst_spec:.2e} <= 1e-12")


def test_criterion_4_documented_deviation():
    spec = XStateSpec(-1.0, -1.0, -1.0)
    weak, rev = tied(WEAK, 0.0, 2), tied(REVERSE, 0.0, 2)
    acc = AccelerationSpec(0.5)
    lit = qubit_coefficients(spec, weak, rev, acc, variant="literal")
    cor = qubit_coefficients(spec, weak, rev, acc, variant="corrected")
    expected = np.sin(0.5) ** 2 * 0.5  # sin^2(r) B3 with B3 = 1/2
    gap = abs((cor.b7 - lit.b7) - expected)
    others = max(abs(getattr(cor, n) - getattr(lit, n))
                 for n in ("b1", "b2", "b3", "b4", "b5", "b6", "b8"))
    report = run_validation(samples=20)
    ok = gap <= 1e-15 and others == 0.0 and report.passed
    assert _verdict(4, ok,
                    f"literal table differs only in the |11><11| population, "
                    f"by sin^2(r) B3 (residual {gap:.2e}); validation "
                    f"{'passes' if report.passed else 'fails'} while reporting it")


def test_criterion_5_unruh_monotonicity():
    cfg = figure_preset("fig1a")
    weak, rev = tied(WEAK, 0.0, 2), tied(REVERSE, 0.0, 2)
    values = []
    for r in cfg.r_grid:
        res = run_protocol(singlet(), weak, rev, AccelerationSpec(r))
        values.append(negativity(res.final)[1])
    increases = float(np.max(np.diff(values)))
    ok = increases <= 1e-10
    assert _verdict(5, ok,
                    f"unfiltered singlet: max grid increase of E_norm along r "
                    f"is {increases:.2e} <= 1e-10")


def _singlet_trend_oracle(r: float, alpha: float) -> float:
    """E_norm of the singlet after the tied weak filter, the qubit channel
    at r on party a and the tied reversing filter, all at strength alpha.

    Written out from the documented operators (see the module docstring
    for the derivation), not taken from ``unruhlab.closedform``.
    """
    u = 1.0 - alpha
    s2, c2 = np.sin(r) ** 2, np.cos(r) ** 2
    return (np.sqrt(s2 ** 2 + 4.0 * u ** 2 * c2) - s2) / (u * (1.0 + c2) + s2)


def test_criterion_6_filter_strength_trend():
    cfg = figure_preset("fig1a")
    r = 0.6
    rho0 = singlet()
    weak_dev, e_dev, e_of_alpha = 0.0, 0.0, []
    for value in cfg.strength_grid:
        weak, rev = point_strengths(cfg, value)
        res = run_protocol(rho0, weak, rev, AccelerationSpec(r))
        weak_dev = max(weak_dev,
                       float(np.max(np.abs(res.after_weak.matrix - rho0.matrix))),
                       abs(res.p_weak - (1.0 - value)))
        e_norm = negativity(res.final)[1]
        e_dev = max(e_dev, abs(e_norm - _singlet_trend_oracle(r, value)))
        e_of_alpha.append(e_norm)
    largest_step = float(np.max(np.diff(e_of_alpha)))

    res_high = run_protocol(rho0, *point_strengths(cfg, 0.98),
                            AccelerationSpec(r))
    e_high = negativity(res_high.final)[1]

    ok = (weak_dev <= 1e-14 and e_dev <= 1e-12 and largest_step < 0.0
          and e_high < 0.05)
    assert _verdict(
        6, ok,
        f"singlet at r={r} over {len(e_of_alpha)} tied strengths: weak step "
        f"invariance and p_weak = 1 - alpha dev {weak_dev:.2e} <= 1e-14; "
        f"E_norm vs closed form {e_dev:.2e} <= 1e-12; largest grid step "
        f"{largest_step:.2e} < 0 (no interior maximum); "
        f"E(0.98)={e_high:.4f} < 0.05")


def test_criterion_7_inertial_information_stability():
    cfg = figure_preset("fig4a")
    weak, rev = point_strengths(cfg, 0.5)
    i_b, i_a = [], []
    for r in cfg.r_grid:
        res = run_protocol(singlet(), weak, rev, AccelerationSpec(r))
        rep = compute_report(res.final, res.p_success)
        i_b.append(rep.info_inertial_bits)
        i_a.append(rep.info_accelerated_bits)
    drift = float(np.max(np.abs(np.asarray(i_b) - i_b[0])))
    ok = drift <= 0.05 and i_a[-1] < i_a[0]
    assert _verdict(7, ok,
                    f"tied 0.5 singlet: max |I_b(r) - I_b(0)| = {drift:.4f} "
                    f"<= 0.05 bits while I_a(pi/4) = {i_a[-1]:.4f} < "
                    f"I_a(0) = {i_a[0]:.4f}")


def test_criterion_8_phase_invariance():
    worst = 0.0
    for system in ("two_qubit", "two_qutrit"):
        if system == "two_qubit":
            rho0, dim = singlet(), 2
        else:
            rho0, dim = qutrit_state(1.0), 3
        weak, rev = tied(WEAK, 0.35, dim), tied(REVERSE, 0.25, dim)
        reports = []
        for phi in (0.0, np.pi / 3, np.pi):
            res = run_protocol(rho0, weak, rev, AccelerationSpec(0.45, phi))
            reports.append(compute_report(res.final, res.p_success))
        base = reports[0]
        for rep in reports[1:]:
            for name in ("negativity_raw", "entanglement_normalized",
                         "info_accelerated_bits", "info_inertial_bits",
                         "coherent_info_standard_bits",
                         "coherent_info_literal_bits", "success_probability"):
                worst = max(worst, abs(getattr(rep, name) - getattr(base, name)))
    ok = worst <= 1e-11
    assert _verdict(8, ok,
                    f"max measure change over phi in {{0, pi/3, pi}} is "
                    f"{worst:.2e} <= 1e-11")


def test_criterion_9_determinism_and_performance(tmp_path):
    t0 = time.perf_counter()
    assert main(["figure", "fig1a", "--out-dir", str(tmp_path / "run1")]) == 0
    elapsed = time.perf_counter() - t0
    assert main(["figure", "fig1a", "--out-dir", str(tmp_path / "run2")]) == 0
    a = (tmp_path / "run1" / "fig1a.csv").read_bytes()
    b = (tmp_path / "run2" / "fig1a.csv").read_bytes()
    ok = a == b and elapsed < 5.0
    assert _verdict(9, ok,
                    f"fig1a CSV byte-identical across runs "
                    f"({'yes' if a == b else 'NO'}); 80x80 grid in "
                    f"{elapsed:.2f} s < 5 s")
