"""Exact complex linear algebra for small tensor-product systems.

States, observables and projectors are immutable numpy-backed values.  Every
probability produced here is a plain Born-rule contraction; the physics
modules treat these numbers as ground truth and cross-check their closed
forms against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
IDEMPOTENT_TOL = 1e-10
EIGEN_TOL = 1e-9

# Relative magnitude below which a component is treated as zero when fixing
# the global phase of an eigenvector.
_PHASE_ZERO_REL = 1e-8


class DimensionError(ValueError):
    """Dimensions are inconsistent."""


class NotAnEigenvalue(ValueError):
    """The requested value is not in the spectrum within tolerance."""


class DegenerateEigenspace(ValueError):
    """The requested eigenvalue has multiplicity > 1; no canonical vector."""


def _complex_vector(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _complex_matrix(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first nonzero component is real > 0."""
    vec = np.asarray(vec, dtype=np.complex128)
    scale = np.max(np.abs(vec))
    if scale == 0.0:
        raise ValueError("cannot fix the phase of a zero vector")
    for comp in vec:
        if abs(comp) > _PHASE_ZERO_REL * scale:
            return vec * (comp.conjugate() / abs(comp))
    raise ValueError("no component above the phase threshold")


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over a tensor-product basis.

    ``amps`` is stored in row-major tensor order over ``dims``; which basis
    state each index names is fixed by the builder that made the state.
    Construction normalizes and freezes the array.
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise DimensionError(f"invalid dims {dims}")
        amps = _complex_vector(self.amps, "amps")
        if amps.size != int(np.prod(dims)):
            raise DimensionError(
                f"amps length {amps.size} does not match dims {dims}"
            )
        norm = float(np.linalg.norm(amps))
        if norm < NORM_TOL:
            raise ValueError("state has (near-)zero norm")
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def site_count(self) -> int:
        return len(self.dims)

    def as_tensor(self) -> np.ndarray:
        return self.amps.reshape(self.dims)


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _complex_matrix(self.matrix, "observable matrix")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
            raise ValueError("observable matrix is not Hermitian within 1e-12")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_projector(mat: np.ndarray) -> None:
    """Raise unless ``mat``, or every matrix of a stack of them, is Hermitian,
    idempotent and has eigenvalues in {0, 1}."""
    if np.max(np.abs(mat - np.swapaxes(mat, -1, -2).conj())) > HERMITIAN_TOL:
        raise ValueError("projector matrix is not Hermitian within 1e-12")
    if np.max(np.abs(mat @ mat - mat)) > IDEMPOTENT_TOL:
        raise ValueError("projector matrix is not idempotent within 1e-10")
    evals = np.linalg.eigvalsh(mat)
    if np.max(np.minimum(np.abs(evals), np.abs(evals - 1.0))) > 1e-8:
        raise ValueError("projector eigenvalues are not in {0, 1}")


@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent matrix (eigenvalues 0/1)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _complex_matrix(self.matrix, "projector matrix")
        _check_projector(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def onto(cls, vector) -> "Projector":
        """Rank-1 projector |v><v| onto a (normalized copy of a) vector."""
        if isinstance(vector, StateVector):
            vec = vector.amps
        else:
            vec = _complex_vector(vector, "vector")
            norm = float(np.linalg.norm(vec))
            if norm < NORM_TOL:
                raise ValueError("cannot project onto a zero vector")
            vec = vec / norm
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def onto_each(cls, vectors) -> list["Projector"]:
        """``[Projector.onto(v) for v in vectors]`` for the rows of ``vectors``.

        The matrices are the same bit for bit, but the projector checks run
        once over the stacked batch instead of once per matrix.
        """
        vecs = np.array(vectors, dtype=np.complex128)
        if vecs.ndim != 2:
            raise DimensionError(f"vectors must be a 2-d array of rows, got {vecs.shape}")
        if not np.all(np.isfinite(vecs.real)) or not np.all(np.isfinite(vecs.imag)):
            raise ValueError("vector contains non-finite entries")
        # Row by row, as onto() does: a norm along an axis sums in another order.
        norms = np.array([np.linalg.norm(vec) for vec in vecs])
        if np.any(norms < NORM_TOL):
            raise ValueError("cannot project onto a zero vector")
        vecs = vecs / norms[:, np.newaxis]
        mats = vecs[:, :, np.newaxis] * vecs.conj()[:, np.newaxis, :]
        _check_projector(mats)
        mats.setflags(write=False)
        projectors = []
        for mat in mats:
            projector = object.__new__(cls)
            object.__setattr__(projector, "matrix", mat)
            projectors.append(projector)
        return projectors

    def complement(self) -> "Projector":
        return Projector(np.eye(self.dim, dtype=np.complex128) - self.matrix)


def born_probability(
    state: StateVector, ops: Sequence[Projector | None]
) -> float:
    """Born probability <psi| (x)_i P_i |psi>; None means identity on a site.

    The result is checked real and finite, then clamped to [0, 1] to strip
    roundoff like -1e-17 before inequality sums.
    """
    if len(ops) != state.site_count:
        raise DimensionError("one projector (or None) required per site")
    tensor_amps = state.as_tensor()
    for axis, op in enumerate(ops):
        if op is None:
            continue
        if not isinstance(op, Projector):
            raise TypeError("per-site operators must be Projector or None")
        if op.dim != state.dims[axis]:
            raise DimensionError(
                f"projector dim {op.dim} does not match site dim {state.dims[axis]}"
            )
        # The one np.dot that np.tensordot(op.matrix, tensor_amps, axes=([1],
        # [axis])) makes, with its first axis moved back to the site's place.
        rest = [k for k in range(len(ops)) if k != axis]
        site_first = tensor_amps.transpose([axis, *rest])
        product = np.dot(op.matrix, site_first.reshape(op.dim, -1)).reshape(site_first.shape)
        tensor_amps = product.transpose([*range(1, axis + 1), 0, *range(axis + 1, len(ops))])
    value = complex(np.vdot(state.amps, tensor_amps.ravel()))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise FloatingPointError("non-finite Born probability")
    if abs(value.imag) > 1e-10:
        raise FloatingPointError(f"Born probability has imaginary part {value.imag}")
    p = value.real
    if p < -1e-12 or p > 1 + 1e-12:
        raise FloatingPointError(f"Born probability {p} outside [0, 1] window")
    return min(max(p, 0.0), 1.0)


def eigenvector_for_eigenvalue(
    obs: Observable, target: float, tol: float = EIGEN_TOL
) -> StateVector:
    """Unit eigenvector of ``obs`` for the eigenvalue nearest ``target``.

    The eigenvalue and its vector come from one Hermitian solve, so results
    are deterministic.  The phase convention makes the first nonzero
    component real positive.
    """
    evals, evecs = np.linalg.eigh(obs.matrix)
    matches = np.nonzero(np.abs(evals - target) <= tol)[0]
    if matches.size == 0:
        raise NotAnEigenvalue(
            f"no eigenvalue within {tol} of {target}; spectrum {evals}"
        )
    if matches.size > 1:
        raise DegenerateEigenspace(
            f"eigenvalue near {target} has multiplicity {matches.size}"
        )
    lam = float(evals[matches[0]])
    vec = fix_phase(evecs[:, matches[0]])
    residual = float(np.linalg.norm(obs.matrix @ vec - lam * vec))
    if residual > 1e-9:
        raise FloatingPointError(f"eigenvector residual {residual} too large")
    return StateVector((obs.dim,), vec)
