"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Paper-scale statistics are replaced by desk-scale seeded Monte
Carlo with the stated tolerances.
"""

import math
import time

import numpy as np

from hepbell import kinematics, lhv, mesonlab, photon3, spin1
from hepbell.photon3 import SloccClass
from hepbell.qcore import StateVector, born_probability

SQ2 = math.sqrt(2.0)
MAX_GAP = (SQ2 - 1.0) / 2.0


def report(criterion: int, message: str) -> None:
    print(f"CRITERION {criterion:2d} PASS: {message}")


def test_criterion_01_tripartite_probabilities():
    start = time.perf_counter()
    p_cond = photon3.outcome_probability([".RR", ".LL"], given=["V.."])
    p_all_same = photon3.outcome_probability(["RRR", "LLL"])
    p_sym = photon3.ch_value_3gamma(symmetrized=True).terms[0][1]
    p_fixed = photon3.outcome_probability(["VV."])
    elapsed = time.perf_counter() - start
    assert abs(p_cond - 1.0) < 1e-12
    assert abs(p_all_same) < 1e-12
    assert abs(p_sym - 0.25) < 1e-12
    assert abs(p_fixed - 1.0 / 12.0) < 1e-12
    assert elapsed < 1.0
    report(1, f"P(C=C|V)=1, P(all same)=0, symmetrized={p_sym:.3f}, fixed=1/12 "
              f"({elapsed:.3f}s)")


def test_criterion_02_three_tangle():
    start = time.perf_counter()
    tau_3g = photon3.three_tangle(photon3.make_ortho_ps_state())
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1.0
    tau_ghz = photon3.three_tangle(StateVector((2, 2, 2), ghz))
    w = np.zeros(8)
    w[1] = w[2] = w[4] = 1.0
    tau_w = photon3.three_tangle(StateVector((2, 2, 2), w))
    elapsed = time.perf_counter() - start
    assert abs(tau_3g.tau - 1.0 / 3.0) < 1e-9
    assert tau_3g.slocc_class is SloccClass.GHZ_CLASS
    assert abs(tau_ghz.tau - 1.0) < 1e-9
    assert abs(tau_w.tau) < 1e-9
    assert elapsed < 1.0
    report(2, f"tau(three-photon)={tau_3g.tau:.9f}, tau(GHZ)={tau_ghz.tau:.6f}, "
              f"tau(W)={tau_w.tau:.1e} ({elapsed:.3f}s)")


def test_criterion_03_basis_transform_fidelity():
    linear = photon3.make_ortho_ps_state((photon3.PolBasis.LINEAR,) * 3)
    expected_linear = np.zeros(8, dtype=complex)
    expected_linear[0b000] = 3.0 / math.sqrt(12.0)
    expected_linear[0b011] = 1.0 / math.sqrt(12.0)
    expected_linear[0b101] = 1.0 / math.sqrt(12.0)
    expected_linear[0b110] = 1.0 / math.sqrt(12.0)
    err_linear = float(np.max(np.abs(linear.amps - expected_linear)))

    mixed = photon3.make_ortho_ps_state(
        (photon3.PolBasis.CIRCULAR, photon3.PolBasis.CIRCULAR, photon3.PolBasis.LINEAR)
    )
    tensor = mixed.as_tensor()
    err_h = float(
        np.max(np.abs(tensor[:, :, 0].ravel() - np.array([1, 2, 2, 1]) / math.sqrt(12.0)))
    )
    err_v = float(
        np.max(
            np.abs(tensor[:, :, 1].ravel() + 1j * np.array([1, 0, 0, -1]) / math.sqrt(12.0))
        )
    )
    assert err_linear < 1e-12
    assert err_h < 1e-12 and err_v < 1e-12
    report(3, f"basis-transform amplitude errors: linear {err_linear:.1e}, "
              f"mixed {max(err_h, err_v):.1e}")


def test_criterion_04_hardy_maximum():
    settings = spin1.HardySettings(3 * math.pi / 8, math.pi / 4, 5 * math.pi / 8)
    gap = spin1.hardy_probabilities(settings).lhs_minus_rhs
    expected = (2 + SQ2) / 8 - (6 - 3 * SQ2) / 8
    assert abs(gap - expected) < 1e-12
    assert abs(gap - 0.2071068) < 1e-6
    assert abs(gap - MAX_GAP) < 1e-9

    start = time.perf_counter()
    best_settings, best_value = spin1.maximize_violation()
    elapsed = time.perf_counter() - start
    assert abs(best_value - MAX_GAP) < 1e-9
    assert elapsed < 10.0
    report(4, f"gap {gap:.9f} = (2+sqrt2)/8 - (6-3sqrt2)/8; optimizer found "
              f"{best_value:.9f} at ({best_settings.alpha:.6f}, {best_settings.beta:.6f}, "
              f"{best_settings.gamma:.6f}) in {elapsed:.2f}s")


def test_criterion_05_closed_form_oracle_agreement():
    rng = np.random.default_rng(505)
    state = spin1.make_singlet_like()
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        a, b, g = rng.uniform(0.0, 2.0 * math.pi, 3)
        closed = spin1.hardy_closed_forms(a, b, g)
        born = (
            born_probability(state, [spin1.zero_projector(b), spin1.zero_projector(a)]),
            born_probability(state, [spin1.nonzero_projector(b), spin1.zero_projector(g)]),
            born_probability(state, [spin1.zero_projector(0.0), spin1.nonzero_projector(a)]),
            born_probability(state, [spin1.zero_projector(0.0), spin1.zero_projector(g)]),
        )
        worst = max(worst, max(abs(c - o) for c, o in zip(closed, born)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 5.0
    report(5, f"1000 random settings: worst closed-form vs Born gap {worst:.2e} "
              f"({elapsed:.2f}s)")


def test_criterion_06_lhv_bounds():
    start = time.perf_counter()
    value_3g, witness_3g = lhv.max_ch_3gamma_lhv()
    value_s1, witness_s1 = lhv.max_hardy_spin1_lhv()
    elapsed = time.perf_counter() - start
    assert value_3g == 0.0
    assert value_s1 == 0.0
    assert elapsed < 1.0
    report(6, f"exhaustive maxima: 64-strategy CH {value_3g}, 81-strategy "
              f"spin-1 {value_s1} ({elapsed:.3f}s)")


def test_criterion_07_ch_for_vv():
    start = time.perf_counter()
    _, closed_max = spin1.maximize_ch_vv()
    assert abs(closed_max - MAX_GAP) < 1e-6

    events = mesonlab.generate_events(10_000_000, seed=20260810)
    rep = mesonlab.ch_from_events(
        events, (0.0, 3 * math.pi / 4, 3 * math.pi / 8, math.pi / 8), window=2 * math.pi / 128
    )
    elapsed = time.perf_counter() - start
    pull = (rep.value - 0.2071) / rep.stat_err
    assert abs(rep.value - 0.2071) < 3.0 * rep.stat_err
    assert elapsed < 60.0
    report(7, f"closed-form max {closed_max:.7f}; event-based S = {rep.value:.5f} "
              f"± {rep.stat_err:.5f} (pull {pull:+.2f}, N=1e7, {elapsed:.1f}s)")


def test_criterion_08_efficiency_threshold():
    threshold = spin1.efficiency_threshold()
    assert abs(threshold - 0.828427) < 1e-6
    report(8, f"closed-form threshold eta = 1/C = {threshold:.6f} (= 82.8%)")


def test_criterion_09_kinematics():
    result = kinematics.two_body_beta(
        kinematics.KinematicsConfig(m_parent=2.980, m_vector=1.019461)
    )
    assert abs(result.beta - 0.7293) < 0.0005
    assert result.space_like_ok
    report(9, f"beta = {result.beta:.4f} > 0.59 lower bound")


def test_criterion_10_estimator_closure():
    events = mesonlab.generate_events(1_000_000, seed=42)
    estimate = mesonlab.estimate_probability(events)
    p_half, err_half = estimate.value_at(math.pi / 2)
    # The bin [pi/2, pi/2 + w) averages sin^2(phi)/2 to 1/4 + sin(2w)/(8w),
    # 0.49840 at w = pi/32, not the 0.5 at its lower edge.
    w = estimate.bin_width
    assert estimate.bin_edges[estimate.bin_index(math.pi / 2)] == math.pi / 2
    p_bin = 0.25 + math.sin(2 * w) / (8 * w)
    assert abs(p_bin - 0.49840) < 5e-6
    assert abs(p_half - p_bin) < 3.0 * err_half
    integral = float(estimate.p_hat.sum() * estimate.bin_width)
    integral_err = float(np.sqrt((estimate.stat_err**2).sum()) * estimate.bin_width)
    assert abs(integral - math.pi / 2) < max(3.0 * integral_err, 1e-9)
    report(10, f"P(pi/2 bin) = {p_half:.4f} ± {err_half:.4f} (expected {p_bin:.5f}); sum(p_hat)*width = "
               f"{integral:.9f} = kappa = pi/2")


def test_criterion_11_generation_determinism(tmp_path):
    paths = []
    for name in ("a.csv", "b.csv"):
        events = mesonlab.generate_events(
            50_000,
            mesonlab.DetectorModel(eta_1=0.9, eta_2=0.8, background_fraction=0.1),
            seed=7,
            workers=4,
        )
        path = tmp_path / name
        mesonlab.write_events_csv(events, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    report(11, "two (seed=7, n=50000, workers=4) runs produced bit-identical CSVs")
