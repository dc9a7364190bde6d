import numpy as np
import pytest

from hepbell.mesonlab import transverse_state
from hepbell.photon3 import (
    ConditionOnNullEvent,
    PolBasis,
    SloccClass,
    ch_value_3gamma,
    ch_words,
    circular_linear_transform,
    make_ortho_ps_state,
    outcome_probability,
    three_tangle,
)
from hepbell.qcore import DimensionError, Projector, StateVector, born_probability

from conftest import random_state_amps, random_unitary

SQ2 = np.sqrt(2.0)
ALL_LINEAR = (PolBasis.LINEAR,) * 3
MIXED = (PolBasis.CIRCULAR, PolBasis.CIRCULAR, PolBasis.LINEAR)


class TestParaState:
    def test_joint_probabilities(self):
        state = transverse_state()
        p_x = Projector.onto([1.0, 0.0])
        p_y = Projector.onto([0.0, 1.0])
        assert abs(born_probability(state, [p_x, p_y]) - 0.5) < 1e-12
        assert born_probability(state, [p_x, p_x]) < 1e-12

    def test_rotation_invariance_of_antisymmetric_form(self, rng):
        state = transverse_state()
        for theta in rng.uniform(0, 2 * np.pi, 15):
            c, s = np.cos(theta), np.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            rotated = np.kron(rot, rot) @ state.amps
            assert np.max(np.abs(rotated - state.amps)) < 1e-12


class TestBasisTransform:
    def test_matrix_value_and_unitarity(self):
        m = circular_linear_transform()
        assert np.allclose(m, np.array([[1, 1j], [1, -1j]]) / SQ2)
        assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12

    def test_pure_h_maps_to_equal_weights(self):
        m = circular_linear_transform()
        assert np.allclose(m @ np.array([1.0, 0.0]), [1 / SQ2, 1 / SQ2])

    def test_circular_amplitudes(self):
        state = make_ortho_ps_state()
        expected = np.zeros(8, dtype=complex)
        expected[[1, 2, 3, 4, 5, 6]] = 1 / np.sqrt(6.0)  # all but RRR, LLL
        assert np.max(np.abs(state.amps - expected)) < 1e-12

    def test_all_linear_amplitudes(self):
        state = make_ortho_ps_state(ALL_LINEAR)
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = 3 / np.sqrt(12.0)  # HHH
        expected[0b011] = 1 / np.sqrt(12.0)  # HVV
        expected[0b101] = 1 / np.sqrt(12.0)  # VHV
        expected[0b110] = 1 / np.sqrt(12.0)  # VVH
        assert np.max(np.abs(state.amps - expected)) < 1e-12

    def test_mixed_basis_amplitudes(self):
        state = make_ortho_ps_state(MIXED)
        tensor = state.as_tensor()
        h_block = tensor[:, :, 0].ravel()  # over RR, RL, LR, LL
        v_block = tensor[:, :, 1].ravel()
        assert np.max(np.abs(h_block - np.array([1, 2, 2, 1]) / np.sqrt(12))) < 1e-12
        assert np.max(np.abs(v_block - (-1j) * np.array([1, 0, 0, -1]) / np.sqrt(12))) < 1e-12


def projector_in_hv(letter):
    if letter in "HV":
        return Projector.onto([1.0, 0.0] if letter == "H" else [0.0, 1.0])
    # |R> = (|H> + i|V>)/sqrt(2), |L> = (|H> - i|V>)/sqrt(2)
    sign = 1j if letter == "R" else -1j
    return Projector.onto(np.array([1.0, sign]) / SQ2)


def probability_in_linear_basis(words):
    """Independent oracle: the same words evaluated on the all-linear state."""
    state = make_ortho_ps_state(ALL_LINEAR)
    return sum(
        born_probability(state, [None if c == "." else projector_in_hv(c) for c in word])
        for word in words
    )


LABELINGS = ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2))


class TestOutcomeProbabilities:
    def test_same_pair_given_vertical_is_one(self):
        p = outcome_probability([".RR", ".LL"], given=["V.."])
        assert abs(p - 1.0) < 1e-12

    def test_all_same_circular_is_zero(self):
        p = outcome_probability(["RRR", "LLL"])
        assert abs(p) < 1e-12

    def test_fixed_two_vertical_is_one_twelfth(self):
        p = outcome_probability(["VV."])
        assert abs(p - 1 / 12) < 1e-12

    def test_symmetrized_two_vertical_is_one_quarter(self):
        total = sum(outcome_probability([word]) for word in ("VV.", ".VV", "V.V"))
        assert abs(total - 0.25) < 1e-12

    def test_condition_on_null_event_raises(self):
        with pytest.raises(ConditionOnNullEvent):
            outcome_probability(["V.."], given=["RRR", "LLL"])

    def test_basis_change_consistency(self):
        # Probabilities evaluated on the circular-basis state must match the
        # same events evaluated on the linear-basis state within 1e-10.
        events = [("VV.",), ("VRR", "VLL"), ("VRL", "VLR"), ("RRR", "LLL"), ("..V",)]
        events += [words for labeling in LABELINGS for _, _, words in ch_words(labeling)]
        for words in events:
            assert abs(outcome_probability(words) - probability_in_linear_basis(words)) < 1e-10

    def test_conditional_is_joint_over_given(self):
        joint = outcome_probability(["VRR", "VLL", "HRR", "HLL"])
        given = outcome_probability(["V..", "H.."])
        p = outcome_probability([".RR", ".LL"], given=["V..", "H.."])
        assert abs(given - 1.0) < 1e-12
        assert p == joint / given
        assert outcome_probability(["V.."], given=["V.."]) == 1.0

    def test_spec_validation(self):
        for event, match in (
            ("VV.", "bad outcome word 'V'"),
            (["VV"], "bad outcome word 'VV'"),
            (["VX."], "bad outcome word 'VX.'"),
            ([("V", "V", ".")], "bad outcome word"),
            (["V..", "R.."], "word 'R..' measures other bases than 'V..'"),
            (["V..", ".V."], "word '.V.' measures other bases"),
            (["V..", "H..", "V.."], "word 'V..' repeats"),
        ):
            with pytest.raises(ValueError, match=match):
                outcome_probability(event)
        with pytest.raises(ValueError, match="words 'V..' and 'H..' give one photon two"):
            outcome_probability(["V.."], given=["H.."])
        with pytest.raises(ValueError, match="words 'V..' and 'R..'"):
            outcome_probability(["V.."], given=["R.."])


class TestChValue:
    def test_fixed_labels_terms_and_value(self):
        report = ch_value_3gamma()
        values = [v for _, v in report.terms]
        assert abs(values[0] - 1 / 12) < 1e-12
        assert max(values[1:]) < 1e-12
        assert abs(report.value - 1 / 12) < 1e-12
        assert report.bound == 0.0
        assert report.violated

    def test_symmetrized_value_one_quarter(self):
        report = ch_value_3gamma(symmetrized=True)
        assert abs(report.value - 0.25) < 1e-12
        assert report.violated

    def test_all_labelings_identical(self):
        values = {round(ch_value_3gamma(labeling=lab).value, 15) for lab in LABELINGS}
        assert len(values) == 1

    def test_words_of_the_ch_terms(self):
        assert ch_words() == (
            ("P(1=V,2=V)", 1, ("VV.",)),
            ("P(1=V,C2!=C3)", -1, ("VRL", "VLR")),
            ("P(C1!=C3,2=V)", -1, ("RVL", "LVR")),
            ("P(C1=C2=C3)", -1, ("RRR", "LLL")),
        )
        assert ch_words((1, 2, 0)) == (
            ("P(2=V,3=V)", 1, (".VV",)),
            ("P(2=V,C3!=C1)", -1, ("LVR", "RVL")),
            ("P(C2!=C1,3=V)", -1, ("LRV", "RLV")),
            ("P(C1=C2=C3)", -1, ("RRR", "LLL")),
        )

    def test_fixed_equals_symmetrized_over_three(self):
        fixed = ch_value_3gamma().value
        symmetrized = ch_value_3gamma(symmetrized=True).value
        assert abs(fixed - symmetrized / 3) < 1e-12

    def test_bad_labeling_rejected(self):
        with pytest.raises(ValueError):
            ch_value_3gamma(labeling=(0, 1, 1))


def ghz_state():
    amps = np.zeros(8)
    amps[0] = amps[7] = 1.0
    return StateVector((2, 2, 2), amps)


def w_state():
    amps = np.zeros(8)
    amps[1] = amps[2] = amps[4] = 1.0
    return StateVector((2, 2, 2), amps)


class TestThreeTangle:
    def test_ghz_is_one(self):
        report = three_tangle(ghz_state())
        assert abs(report.tau - 1.0) < 1e-9
        assert report.slocc_class is SloccClass.GHZ_CLASS

    def test_w_is_zero(self):
        report = three_tangle(w_state())
        assert report.tau < 1e-9
        assert report.slocc_class is SloccClass.NOT_CERTIFIED

    def test_three_photon_state_is_one_third(self):
        report = three_tangle(make_ortho_ps_state())
        assert abs(report.tau - 1 / 3) < 1e-9
        assert report.slocc_class is SloccClass.GHZ_CLASS

    def test_wrong_dims_rejected(self):
        with pytest.raises(DimensionError):
            three_tangle(StateVector((3, 3), random_state_amps(9, np.random.default_rng(0))))

    def test_local_unitary_invariance(self, rng):
        base = make_ortho_ps_state()
        tau0 = three_tangle(base).tau
        tensor0 = base.as_tensor()
        for _ in range(100):
            t = tensor0
            for axis in range(3):
                u = random_unitary(2, rng)
                t = np.moveaxis(np.tensordot(u, t, axes=([1], [axis])), 0, axis)
            tau = three_tangle(StateVector((2, 2, 2), t.ravel())).tau
            assert abs(tau - tau0) < 1e-8

    def test_range_on_random_states(self, rng):
        for _ in range(1000):
            state = StateVector((2, 2, 2), random_state_amps(8, rng))
            tau = three_tangle(state).tau
            assert -1e-12 <= tau <= 1.0 + 1e-9
