"""Spin-1 operator algebra, the two-vector-meson singlet-like state, the
Hardy-type probabilities and their local-realism constraint, plus the
maximal-violation searches used by the experimental scheme and the
detection-efficiency threshold of the two-meson CH test, which rests on
the CH maximum."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import math

import numpy as np

from ._search import maximize_on_grid
from .qcore import Observable, Projector, StateVector, born_probability, eigenvector_for_eigenvalue
from .reports import VIOLATION_TOL, InequalityReport, make_report

SPIN1_LABELS = ("+1", "0", "-1")

# Closed-form vs projector-route disagreement above this raises.
_CROSS_CHECK_TOL = 1e-8

# Grid step of the violation searches' coarse scan.
_GRID_STEP = math.pi / 16


class InternalInconsistency(RuntimeError):
    """Closed-form and Born-rule probability routes disagree; signals an
    operator-convention bug rather than bad user input."""


@lru_cache(maxsize=1)
def spin1_operators() -> tuple[Observable, Observable, Observable]:
    """Spin-1 matrices (Jx, Jy, Jz) in the Jz eigenbasis ordered (+1, 0, -1)."""
    s = 1.0 / np.sqrt(2.0)
    jx = np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=np.complex128)
    jy = np.array([[0, -1j * s, 0], [1j * s, 0, -1j * s], [0, 1j * s, 0]])
    jz = np.diag([1.0, 0.0, -1.0]).astype(np.complex128)
    return (
        Observable(jx, SPIN1_LABELS),
        Observable(jy, SPIN1_LABELS),
        Observable(jz, SPIN1_LABELS),
    )


def j_alpha(alpha: float) -> Observable:
    """In-plane spin operator Jx*cos(alpha) + Jy*sin(alpha)."""
    jx, jy, _ = spin1_operators()
    return Observable(
        math.cos(alpha) * jx.matrix + math.sin(alpha) * jy.matrix, SPIN1_LABELS
    )


def make_singlet_like() -> StateVector:
    """Total-spin-1, z-projection-0 state (|+1>|-1> - |-1>|+1>)/sqrt(2)."""
    amps = np.zeros(9, dtype=np.complex128)
    amps[0 * 3 + 2] = 1.0 / np.sqrt(2.0)
    amps[2 * 3 + 0] = -1.0 / np.sqrt(2.0)
    return StateVector((3, 3), amps, (SPIN1_LABELS, SPIN1_LABELS))


@dataclass(frozen=True)
class HardySettings:
    """In-plane measurement angles (radians, stored exactly as given)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class HardyReport:
    """The four joint probabilities and the local-realism gap they produce."""

    p_bb_aa: float   # P(J_beta=0, J_alpha=0)
    p_bneq_g: float  # P(J_beta!=0, J_gamma=0)
    p_x_aneq: float  # P(J_x=0, J_alpha!=0)
    p_x_g: float     # P(J_x=0, J_gamma=0)
    lhs_minus_rhs: float
    violated: bool

    def to_dict(self) -> dict:
        return {
            "p_bb_aa": self.p_bb_aa,
            "p_bneq_g": self.p_bneq_g,
            "p_x_aneq": self.p_x_aneq,
            "p_x_g": self.p_x_g,
            "lhs_minus_rhs": self.lhs_minus_rhs,
            "violated": self.violated,
        }


def zero_projector(theta: float) -> Projector:
    """Projector onto the J=0 eigenvector of the in-plane operator at theta."""
    return Projector.onto(eigenvector_for_eigenvalue(j_alpha(theta), 0.0))


def nonzero_projector(theta: float) -> Projector:
    """Projector onto J != 0, the complement of the J=0 eigenprojector (equal
    to the sum of the +1 and -1 eigenprojectors)."""
    return zero_projector(theta).complement()


def _half_square(s):
    """s * s / 2.  ``s ** 2`` is C pow on a scalar but s * s on an array, and
    the two can differ in the last bit; s * s is the same on both."""
    return 0.5 * (s * s)


def hardy_closed_forms(
    alpha: float, beta: float, gamma: float
) -> tuple[float, float, float, float]:
    """Closed forms of the four joint probabilities (vectorizable)."""
    return (
        _half_square(np.sin(alpha - beta)),
        _half_square(np.cos(beta - gamma)),
        _half_square(np.cos(alpha)),
        _half_square(np.sin(gamma)),
    )


def hardy_difference_closed(alpha, beta, gamma):
    """Closed-form LHS - RHS of the local-realism constraint (vectorizable)."""
    p_bb_aa, p_bneq_g, p_x_aneq, p_x_g = hardy_closed_forms(alpha, beta, gamma)
    return p_x_g - (p_x_aneq + p_bneq_g + p_bb_aa)


def hardy_probabilities(settings: HardySettings) -> HardyReport:
    """The four joint probabilities, computed two independent ways, and the
    gap they give in the local-realism constraint

        P(J_x=0, J_gamma=0) <= P(J_x=0, J_alpha!=0) + P(J_beta!=0, J_gamma=0)
                               + P(J_beta=0, J_alpha=0).

    Closed trigonometric forms are returned.  A Born-rule evaluation with
    eigenprojectors on the singlet-like state is computed beside them, and
    a disagreement beyond ``_CROSS_CHECK_TOL`` (1e-8) raises
    :class:`InternalInconsistency`.  In each pair the first-listed condition
    is measured on side 1, the second on side 2.
    """
    alpha, beta, gamma = settings.as_tuple()
    closed = hardy_closed_forms(alpha, beta, gamma)

    state = make_singlet_like()
    born = (
        born_probability(state, [zero_projector(beta), zero_projector(alpha)]),
        born_probability(state, [nonzero_projector(beta), zero_projector(gamma)]),
        born_probability(state, [zero_projector(0.0), nonzero_projector(alpha)]),
        born_probability(state, [zero_projector(0.0), zero_projector(gamma)]),
    )
    worst = max(abs(c - b) for c, b in zip(closed, born))
    if worst > _CROSS_CHECK_TOL:
        raise InternalInconsistency(
            f"closed-form vs projector probabilities disagree by {worst}"
        )

    p_bb_aa, p_bneq_g, p_x_aneq, p_x_g = (float(p) for p in closed)
    diff = p_x_g - (p_x_aneq + p_bneq_g + p_bb_aa)
    return HardyReport(
        p_bb_aa=p_bb_aa,
        p_bneq_g=p_bneq_g,
        p_x_aneq=p_x_aneq,
        p_x_g=p_x_g,
        lhs_minus_rhs=diff,
        violated=diff > VIOLATION_TOL,
    )


def maximize_violation() -> tuple[HardySettings, float]:
    """Search [0, pi)^3 for the maximal constraint violation.

    Coarse grid scan at pi/16 first, then coordinate-wise golden-section
    refinement of every near-maximal grid point; ties across the discrete
    symmetry family are broken by the lexicographically smallest
    (alpha, beta, gamma).
    """
    point, value = maximize_on_grid(hardy_difference_closed, 3, _GRID_STEP)
    return HardySettings(*point), value


def ch_vv_joint_combination(t1, t1p, t2, t2p):
    """Signed sum of the four joint terms of the two-meson CH expression
    (vectorizable); each joint is (1/2)sin^2 of the setting difference."""
    return (
        _half_square(np.sin(t2 - t1))
        - _half_square(np.sin(t2p - t1))
        + _half_square(np.sin(t2 - t1p))
        + _half_square(np.sin(t2p - t1p))
    )


def ch_value_vv(t1: float, t1p: float, t2: float, t2p: float) -> InequalityReport:
    """Two-meson CH combination with quantum joints and 1/2 singles.

    P(n1,n2) - P(n1,n2') + P(n1',n2) + P(n1',n2') - P(n1') - P(n2) with
    P = (1/2)sin^2(theta2 - theta1); the classical bound is 0.
    """
    terms = [
        ("P(n1,n2)", _half_square(math.sin(t2 - t1))),
        ("P(n1,n2')", _half_square(math.sin(t2p - t1))),
        ("P(n1',n2)", _half_square(math.sin(t2 - t1p))),
        ("P(n1',n2')", _half_square(math.sin(t2p - t1p))),
        ("P(n1')", 0.5),
        ("P(n2)", 0.5),
    ]
    value = (
        terms[0][1] - terms[1][1] + terms[2][1] + terms[3][1] - terms[4][1] - terms[5][1]
    )
    return make_report(terms, value)


def maximize_ch_vv() -> tuple[tuple[float, float, float, float], float]:
    """Grid (pi/16) + refinement maximum of the CH combination over all four angles."""

    def objective(t1, t1p, t2, t2p):
        return ch_vv_joint_combination(t1, t1p, t2, t2p) - 1.0

    return maximize_on_grid(objective, 4, _GRID_STEP)


@lru_cache(maxsize=1)
def _max_joint_combination() -> float:
    """Maximum of the signed joint combination over settings: 1 + max CH value."""
    _, best = maximize_ch_vv()
    return best + 1.0


def max_s_of_eta(eta: float) -> float:
    """Largest reachable efficiency-scaled CH value at symmetric efficiency."""
    return eta * eta * _max_joint_combination() - eta


def efficiency_threshold() -> float:
    """Smallest symmetric efficiency at which the CH test can still violate.

    max_S(eta) = eta^2 * C - eta with C the setting-optimized joint
    combination, so the threshold is the root 1/C: analytically
    2(sqrt(2)-1) for the transverse state, and ``max_s_of_eta`` of it is
    exactly 0.0.
    """
    return 1.0 / _max_joint_combination()
