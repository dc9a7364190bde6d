import math

import numpy as np
import pytest

from hepbell import qcore
from hepbell.qcore import (
    DegenerateEigenspace,
    DimensionError,
    NotAnEigenvalue,
    Observable,
    Projector,
    StateVector,
    born_probability,
    eigenvector_for_eigenvalue,
)

from conftest import random_state_amps

SQ2 = np.sqrt(2.0)


def ket(*amps, dims=None):
    amps = np.array(amps, dtype=complex)
    return StateVector(dims or (len(amps),), amps)


class TestStateVector:
    def test_normalizes_on_construction(self):
        state = ket(2.0, 0.0)
        assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12
        assert state.amps[0] == 1.0

    def test_rejects_zero_norm(self):
        with pytest.raises(ValueError):
            ket(0.0, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ket(np.nan, 1.0)

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            StateVector((2, 2), np.ones(3))

    def test_amplitude_lookup(self):
        # Basis order (R, L) on each site: index 0 is R, index 1 is L.
        state = StateVector((2, 2), [0, 1, 0, 0])
        assert state.as_tensor()[0, 1] == 1.0
        assert state.as_tensor()[0, 0] == 0.0

    def test_amps_immutable(self):
        state = ket(1.0, 0.0)
        with pytest.raises(ValueError):
            state.amps[0] = 5.0


class TestProjector:
    def test_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            Projector(np.array([[0.5, 0.0], [0.0, 0.0]]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            Projector(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_onto_normalizes(self):
        p = Projector.onto([2.0, 0.0])
        assert np.allclose(p.matrix, [[1, 0], [0, 0]])

    def test_complement(self):
        p = Projector.onto([1.0, 0.0])
        assert np.allclose(p.complement().matrix, [[0, 0], [0, 1]])

    def test_onto_each_matches_onto_bit_for_bit(self, rng):
        angles = rng.uniform(0.0, 2 * np.pi, 500).tolist()
        real = [(math.cos(t), math.sin(t)) for t in angles]
        complex3 = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
        for vectors in (real, complex3, [[2.0, 0.0]]):
            batch = Projector.onto_each(vectors)
            assert len(batch) == len(vectors)
            for projector, vector in zip(batch, vectors):
                assert type(projector) is Projector
                assert projector.matrix.tobytes() == Projector.onto(vector).matrix.tobytes()
                assert not projector.matrix.flags.writeable

    @pytest.mark.parametrize(
        "vectors",
        [[[1.0, 0.0], [0.0, 0.0]], [[1.0, np.nan]], [[1.0, np.inf]], [1.0, 0.0]],
    )
    def test_onto_each_rejects_what_onto_rejects(self, vectors):
        with pytest.raises(ValueError):
            Projector.onto_each(vectors)

    def test_stacked_check_rejects_any_bad_matrix(self):
        good = Projector.onto([1.0, 0.0]).matrix
        for bad in ([[0.5, 0.0], [0.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]]):
            with pytest.raises(ValueError):
                qcore._check_projector(np.stack([good, np.array(bad, dtype=complex), good]))


class TestBornProbability:
    def test_product_state_basis_projection(self):
        state = StateVector((2, 2), [0, 1, 0, 0])
        p_r = Projector.onto([1.0, 0.0])
        assert born_probability(state, [p_r, None]) == 1.0

    def test_antisymmetric_state_same_direction_is_zero(self, rng):
        amps = np.array([0, 1, -1, 0]) / SQ2
        state = StateVector((2, 2), amps)
        for theta in rng.uniform(0, 2 * np.pi, 20):
            proj = Projector.onto([np.cos(theta), np.sin(theta)])
            assert born_probability(state, [proj, proj]) < 1e-12

    def test_two_vertical_on_linear_three_photon_amplitudes(self):
        # Independent construction from the published linear-basis pattern
        # (3, 1, 1, 1)/sqrt(12) on HHH, HVV, VHV, VVH.
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = 3.0
        amps[0b011] = 1.0
        amps[0b101] = 1.0
        amps[0b110] = 1.0
        state = StateVector((2, 2, 2), amps / np.sqrt(12.0))
        p_v = Projector.onto([0.0, 1.0])
        assert abs(born_probability(state, [p_v, p_v, None]) - 1 / 12) < 1e-12

    def test_complete_family_sums_to_one(self, rng):
        state = StateVector((3, 3), random_state_amps(9, rng))
        vecs = np.eye(3)
        total = sum(
            born_probability(state, [Projector.onto(v), None]) for v in vecs
        )
        assert abs(total - 1.0) < 1e-10

    def test_rejects_raw_matrix(self):
        state = ket(1.0, 0.0)
        with pytest.raises(TypeError):
            born_probability(state, [np.eye(2)])

    def test_rejects_dim_mismatch(self):
        state = StateVector((3,), [1, 0, 0])
        with pytest.raises(DimensionError):
            born_probability(state, [Projector(np.eye(2))])

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3)])
    def test_matches_tensordot_contraction_bit_for_bit(self, rng, dims):
        def tensordot_born(state, ops):
            """The contraction by np.tensordot per site: the reference."""
            amps = state.as_tensor()
            for axis, op in enumerate(ops):
                if op is not None:
                    amps = np.moveaxis(np.tensordot(op.matrix, amps, axes=([1], [axis])), 0, axis)
            return min(max(complex(np.vdot(state.amps, amps.ravel())).real, 0.0), 1.0)

        seen_none = False
        for _ in range(40):
            state = StateVector(dims, random_state_amps(math.prod(dims), rng))
            ops = []
            for d in dims:
                kind = rng.integers(3)
                vector = random_state_amps(d, rng)
                ops.append(
                    None if kind == 0
                    else Projector.onto(vector) if kind == 1
                    else Projector.onto(vector).complement()
                )
            seen_none |= None in ops
            assert float.hex(born_probability(state, ops)) == float.hex(tensordot_born(state, ops))
        assert seen_none

    def test_clamped_to_unit_interval(self, rng):
        for _ in range(50):
            state = StateVector((2, 2), random_state_amps(4, rng))
            theta = rng.uniform(0, 2 * np.pi)
            proj = Projector.onto([np.cos(theta), np.sin(theta)])
            p = born_probability(state, [proj, proj])
            assert 0.0 <= p <= 1.0


def spin1_jz():
    return Observable(np.diag([1.0, 0.0, -1.0]).astype(complex))


def spin1_jx():
    s = 1 / SQ2
    return Observable(np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=complex))


class TestEigenvectorForEigenvalue:
    def test_diagonal_operator(self):
        vec = eigenvector_for_eigenvalue(spin1_jz(), 0.0)
        assert np.allclose(vec.amps, [0, 1, 0], atol=1e-12)

    def test_jx_null_vector(self):
        vec = eigenvector_for_eigenvalue(spin1_jx(), 0.0)
        assert np.allclose(vec.amps, [1 / SQ2, 0, -1 / SQ2], atol=1e-9)

    def test_phase_convention_first_nonzero_positive(self, rng):
        for _ in range(20):
            h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            obs = Observable((h + h.conj().T) / 2)
            lam = float(np.linalg.eigvalsh(obs.matrix)[0])
            vec = eigenvector_for_eigenvalue(obs, lam).amps
            first = vec[np.abs(vec) > 1e-8 * np.max(np.abs(vec))][0]
            assert abs(first.imag) < 1e-12 and first.real > 0

    def test_not_an_eigenvalue(self):
        with pytest.raises(NotAnEigenvalue):
            eigenvector_for_eigenvalue(spin1_jz(), 0.5, tol=1e-9)

    def test_degenerate_eigenspace(self):
        with pytest.raises(DegenerateEigenspace):
            eigenvector_for_eigenvalue(Observable(np.eye(2, dtype=complex)), 1.0)

    def test_eigen_residual_below_1e9(self, rng):
        for _ in range(50):
            h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            obs = Observable((h + h.conj().T) / 2)
            for lam in np.linalg.eigvalsh(obs.matrix):
                vec = eigenvector_for_eigenvalue(obs, float(lam)).amps
                assert np.linalg.norm(obs.matrix @ vec - lam * vec) < 1e-9

