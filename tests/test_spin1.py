import math

import numpy as np
import pytest

from hepbell import _search, spin1
from hepbell.qcore import Projector, born_probability, eigenvector_for_eigenvalue
from hepbell.spin1 import (
    HardySettings,
    InternalInconsistency,
    ch_value_vv,
    ch_vv_joint_combination,
    hardy_closed_forms,
    hardy_difference_closed,
    hardy_probabilities,
    j_alpha,
    make_singlet_like,
    maximize_ch_vv,
    maximize_violation,
    nonzero_projector,
    spin1_operators,
    zero_projector,
)

SQ2 = np.sqrt(2.0)
MAX_GAP = (SQ2 - 1.0) / 2.0
PAPER_SETTINGS = HardySettings(3 * np.pi / 8, np.pi / 4, 5 * np.pi / 8)


class TestOperators:
    def test_jz_diagonal(self):
        _, _, jz = spin1_operators()
        assert np.allclose(jz.matrix, np.diag([1.0, 0.0, -1.0]))

    def test_commutators(self):
        jx, jy, jz = spin1_operators()
        for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
            comm = a.matrix @ b.matrix - b.matrix @ a.matrix
            assert np.max(np.abs(comm - 1j * c.matrix)) < 1e-12

    def test_casimir(self):
        jx, jy, jz = spin1_operators()
        total = jx.matrix @ jx.matrix + jy.matrix @ jy.matrix + jz.matrix @ jz.matrix
        assert np.max(np.abs(total - 2.0 * np.eye(3))) < 1e-12

    def test_j_alpha_limits(self):
        jx, jy, _ = spin1_operators()
        assert np.max(np.abs(j_alpha(0.0).matrix - jx.matrix)) < 1e-12
        assert np.max(np.abs(j_alpha(np.pi / 2).matrix - jy.matrix)) < 1e-12

    def test_j_alpha_spectrum(self):
        evals = np.linalg.eigvalsh(j_alpha(0.37).matrix)
        assert np.max(np.abs(evals - np.array([-1.0, 0.0, 1.0]))) < 1e-10

    def test_zero_eigenvector_analytic_form(self, rng):
        # |0>_alpha = (1, 0, -e^{2 i alpha}) / sqrt(2) under the phase convention
        for alpha in rng.uniform(0, 2 * np.pi, 25):
            vec = eigenvector_for_eigenvalue(j_alpha(alpha), 0.0).amps
            expected = np.array([1.0, 0.0, -np.exp(2j * alpha)]) / SQ2
            assert np.max(np.abs(vec - expected)) < 1e-9


class TestSingletLike:
    def test_amplitudes(self):
        # Basis order (+1, 0, -1) on each meson.
        amps = make_singlet_like().as_tensor()
        assert abs(amps[0, 2] - 1 / SQ2) < 1e-12
        assert abs(amps[2, 0] + 1 / SQ2) < 1e-12
        assert abs(amps[1, 1]) == 0.0

    def test_no_zero_z_component(self):
        state = make_singlet_like()
        p0 = Projector.onto([0.0, 1.0, 0.0])
        assert born_probability(state, [p0, None]) < 1e-12

    def test_transverse_basis_representation(self):
        # The state keeps its antisymmetric two-term form over the 0-eigenvectors
        # of any in-plane axis pair (alpha, alpha+pi/2), up to a global phase.
        state = make_singlet_like()
        for alpha in np.linspace(0.0, 2 * np.pi, 100, endpoint=False):
            v_a = eigenvector_for_eigenvalue(j_alpha(alpha), 0.0).amps
            v_perp = eigenvector_for_eigenvalue(j_alpha(alpha + np.pi / 2), 0.0).amps
            two_term = (np.kron(v_perp, v_a) - np.kron(v_a, v_perp)) / SQ2
            assert abs(abs(np.vdot(two_term, state.amps)) - 1.0) < 1e-10


class TestHardyProbabilities:
    def test_values_at_paper_settings(self):
        report = hardy_probabilities(PAPER_SETTINGS)
        low = (2 - SQ2) / 8
        high = (2 + SQ2) / 8
        assert abs(report.probabilities["p_bb_aa"] - low) < 1e-12
        assert abs(report.probabilities["p_bneq_g"] - low) < 1e-12
        assert abs(report.probabilities["p_x_aneq"] - low) < 1e-12
        assert abs(report.probabilities["p_x_g"] - high) < 1e-12

    def test_alpha_equals_beta_zeroes_first(self):
        report = hardy_probabilities(HardySettings(0.8, 0.8, 2.0))
        assert report.probabilities["p_bb_aa"] < 1e-12

    def test_gamma_zero_zeroes_lhs(self):
        report = hardy_probabilities(HardySettings(0.3, 1.1, 0.0))
        assert report.probabilities["p_x_g"] < 1e-12

    def test_closed_form_vs_independent_born_route(self, rng):
        # Independent oracle: analytic 0-eigenvectors, no library eigensolver.
        state = make_singlet_like().amps

        def zero_vec(theta):
            return np.array([1.0, 0.0, -np.exp(2j * theta)]) / SQ2

        def joint_00(theta1, theta2):
            amp = np.vdot(np.kron(zero_vec(theta1), zero_vec(theta2)), state)
            return abs(amp) ** 2

        for _ in range(60):
            a, b, g = rng.uniform(0, 2 * np.pi, 3)
            p1, p2, p3, p4 = hardy_closed_forms(a, b, g)
            assert abs(p1 - joint_00(b, a)) < 1e-10
            # J != 0 events as marginal minus the 0-projected joint
            marg2 = 0.5  # either side's 0-outcome marginal on this state
            assert abs(p2 - (marg2 - joint_00(b, g))) < 1e-10
            assert abs(p3 - (marg2 - joint_00(0.0, a))) < 1e-10
            assert abs(p4 - joint_00(0.0, g)) < 1e-10

    def test_probability_range_invariant(self, rng):
        for _ in range(200):
            a, b, g = rng.uniform(0, 2 * np.pi, 3)
            report = hardy_probabilities(HardySettings(a, b, g))
            for p in (report.probabilities["p_bb_aa"], report.probabilities["p_bneq_g"], report.probabilities["p_x_aneq"], report.probabilities["p_x_g"]):
                assert -1e-12 <= p <= 0.5 + 1e-12

    def test_complete_outcome_sums(self, rng):
        state = make_singlet_like()
        for _ in range(25):
            beta, alpha = rng.uniform(0, 2 * np.pi, 2)
            total = 0.0
            for m1 in (-1.0, 0.0, 1.0):
                for m2 in (-1.0, 0.0, 1.0):
                    pr1 = Projector.onto(eigenvector_for_eigenvalue(j_alpha(beta), m1))
                    pr2 = Projector.onto(eigenvector_for_eigenvalue(j_alpha(alpha), m2))
                    total += born_probability(state, [pr1, pr2])
            assert abs(total - 1.0) < 1e-10
            p_00 = born_probability(state, [zero_projector(beta), zero_projector(alpha)])
            p_n0 = born_probability(state, [nonzero_projector(beta), zero_projector(alpha)])
            assert abs(p_00 + p_n0 - 0.5) < 1e-10

    def test_nonzero_projector_is_sum_of_plus_and_minus_eigenprojectors(self, rng):
        for theta in [0.0, np.pi / 2, np.pi, *rng.uniform(0, 2 * np.pi, 200)]:
            op = j_alpha(theta)
            explicit = (
                Projector.onto(eigenvector_for_eigenvalue(op, 1.0)).matrix
                + Projector.onto(eigenvector_for_eigenvalue(op, -1.0)).matrix
            )
            assert np.max(np.abs(nonzero_projector(theta).matrix - explicit)) < 1e-10

    def test_internal_inconsistency_raised_on_route_mismatch(self, monkeypatch):
        def broken(alpha, beta, gamma):
            return 0.3, 0.3, 0.3, 0.3

        monkeypatch.setattr(spin1, "hardy_closed_forms", broken)
        with pytest.raises(InternalInconsistency):
            spin1.hardy_probabilities(HardySettings(0.1, 0.2, 0.3))

    def test_nonfinite_angle_rejected(self):
        with pytest.raises(ValueError):
            HardySettings(np.inf, 0.0, 0.0)

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    def test_angles_up_to_max_angle_agree_across_routes(self, monkeypatch, name):
        # Up to the bound the two routes agree within 1e-10; above it they
        # part (6.6e-8 at 10**9.5), so larger angles are refused.
        monkeypatch.setattr(spin1, "_CROSS_CHECK_TOL", 1e-10)
        for angle in (spin1.MAX_ANGLE, -spin1.MAX_ANGLE, 0.97 * spin1.MAX_ANGLE):
            hardy_probabilities(HardySettings(**{**PAPER_SETTINGS.__dict__, name: angle}))

    @pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_angle_beyond_max_angle_rejected(self, name, sign):
        angle = math.nextafter(sign * spin1.MAX_ANGLE, sign * math.inf)
        with pytest.raises(ValueError, match=f"^{name} must lie in"):
            HardySettings(**{**PAPER_SETTINGS.__dict__, name: angle})


class TestScalarAndArrayEvaluation:
    """The closed forms give the same bits on Python floats as on arrays, so
    a report and a search evaluate a point alike."""

    def test_hardy_closed_forms(self, rng):
        angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=(20_000, 3))
        arrays = np.array(hardy_closed_forms(*angles.T)).T
        scalars = np.array([hardy_closed_forms(*row) for row in angles.tolist()])
        assert scalars.view(np.uint64).tolist() == arrays.view(np.uint64).tolist()

    def test_ch_vv_joint_combination(self, rng):
        angles = rng.uniform(-2 * np.pi, 2 * np.pi, size=(20_000, 4))
        arrays = ch_vv_joint_combination(*angles.T)
        scalars = np.array([ch_vv_joint_combination(*row) for row in angles.tolist()])
        assert scalars.view(np.uint64).tolist() == arrays.view(np.uint64).tolist()


    def test_tables_give_the_bits_of_the_hand_written_forms(self, rng):
        # The forms as written out term by term before the tables: the same
        # operations in the same order, so the same bits.
        t1, t1p, t2, t2p = rng.uniform(-7.0, 7.0, (4, 200_000))
        alpha, beta, gamma = t1, t1p, t2

        def half_square(s):
            return 0.5 * (s * s)

        forms = (
            half_square(np.sin(alpha - beta)),
            half_square(np.cos(beta - gamma)),
            half_square(np.cos(alpha)),
            half_square(np.sin(gamma)),
        )
        gap = forms[3] - (forms[2] + forms[1] + forms[0])
        ch = (
            half_square(np.sin(t2 - t1))
            - half_square(np.sin(t2p - t1))
            + half_square(np.sin(t2 - t1p))
            + half_square(np.sin(t2p - t1p))
        )
        bits = lambda values: np.asarray(values).view(np.uint64).tolist()
        assert bits(hardy_closed_forms(alpha, beta, gamma)) == bits(forms)
        assert bits(hardy_difference_closed(alpha, beta, gamma)) == bits(gap)
        assert bits(ch_vv_joint_combination(t1, t1p, t2, t2p)) == bits(ch)


class TestHardyViolation:
    def test_paper_settings_gap(self):
        report = hardy_probabilities(PAPER_SETTINGS)
        assert abs(report.probabilities["p_x_g"] - (2 + SQ2) / 8) < 1e-12
        rhs = report.probabilities["p_x_aneq"] + report.probabilities["p_bneq_g"] + report.probabilities["p_bb_aa"]
        assert abs(rhs - (6 - 3 * SQ2) / 8) < 1e-12
        assert abs(report.lhs_minus_rhs - MAX_GAP) < 1e-12
        assert report.violated

    def test_all_zero_settings_not_violated(self):
        # Faithful evaluation: lhs = 0 and rhs = 1 (each closed form checked
        # against the Born oracle), so the gap is -1.
        report = hardy_probabilities(HardySettings(0.0, 0.0, 0.0))
        assert report.probabilities["p_x_g"] < 1e-12
        assert abs(report.lhs_minus_rhs + 1.0) < 1e-12
        assert not report.violated

    def test_million_point_scan_never_exceeds_maximum(self):
        r = np.random.default_rng(2026)
        a, b, g = r.uniform(0, np.pi, (3, 1_000_000))
        values = hardy_difference_closed(a, b, g)
        assert float(values.max()) <= MAX_GAP + 1e-9


    def test_gap_is_the_two_meson_ch_at_beta_0_gamma_alpha(self):
        """With J(x) = sin^2(x)/2, P(J_x=0, J_alpha!=0) = 1/2 - J(alpha) and
        P(J_beta!=0, J_gamma=0) = 1/2 - J(beta - gamma), so the gap is the
        CH joint combination at (t1, t1', t2, t2') = (beta, 0, gamma, alpha)
        less 1."""
        alpha, beta, gamma = np.random.default_rng(6).uniform(0.0, np.pi, (3, 100_000))
        gap = hardy_difference_closed(alpha, beta, gamma)
        ch = ch_vv_joint_combination(beta, 0.0, gamma, alpha) - 1.0
        assert float(np.max(np.abs(gap - ch))) <= 1e-15


class TestMaximizeViolation:
    def test_defaults_recover_canonical_maximum(self):
        settings, value = maximize_violation()
        assert abs(value - MAX_GAP) < 1e-9
        assert abs(settings.alpha - 3 * np.pi / 8) < 1e-5
        assert abs(settings.beta - np.pi / 4) < 1e-5
        assert abs(settings.gamma - 5 * np.pi / 8) < 1e-5

    def test_grid_only_is_close(self):
        axis = np.arange(0.0, np.pi, np.pi / 16)
        candidates = _search._grid_candidates(hardy_difference_closed, axis, 3, slack=0.0)
        value, _ = candidates[0]
        assert abs(value - MAX_GAP) < 0.02

    def test_gamma_zero_plane_has_no_violation(self):
        a, b = np.meshgrid(np.linspace(0, np.pi, 200), np.linspace(0, np.pi, 200))
        values = hardy_difference_closed(a, b, 0.0)
        assert float(values.max()) <= 1e-12

    def test_parameter_validation(self):
        for n_axes in (3, 4):
            with pytest.raises(ValueError, match="grid_step"):
                _search.maximize_on_grid(hardy_difference_closed, n_axes, np.pi / 8)


class TestChValueVV:
    def test_optimal_settings(self):
        report = ch_value_vv(0.0, 3 * np.pi / 4, 3 * np.pi / 8, np.pi / 8)
        assert abs(report.value - MAX_GAP) < 1e-12
        assert report.violated

    def test_zero_settings(self):
        report = ch_value_vv(0.0, 0.0, 0.0, 0.0)
        assert abs(report.value + 1.0) < 1e-12
        assert not report.violated

    def test_global_rotation_invariance(self, rng):
        for _ in range(30):
            t = rng.uniform(0, 2 * np.pi, 4)
            shift = rng.uniform(0, 2 * np.pi)
            v0 = ch_value_vv(*t).value
            v1 = ch_value_vv(*(t + shift)).value
            assert abs(v0 - v1) < 1e-12

    def test_joint_pi_periodicity(self, rng):
        for _ in range(30):
            t1, t2 = rng.uniform(0, 2 * np.pi, 2)
            p0 = 0.5 * np.sin(t2 - t1) ** 2
            p1 = 0.5 * np.sin((t2 + np.pi) - t1) ** 2
            assert abs(p0 - p1) < 1e-12
        c0 = ch_vv_joint_combination(0.1, 0.7, 1.3, 2.9)
        c1 = ch_vv_joint_combination(0.1 + np.pi, 0.7, 1.3, 2.9)
        assert abs(float(c0) - float(c1)) < 1e-12

    def test_grid_refined_maximum(self):
        _, value = maximize_ch_vv()
        assert abs(value - MAX_GAP) < 1e-6
