"""Spin-1 operator algebra, the two-vector-meson singlet-like state, the
Hardy-type probabilities and the two-meson CH expression, read term by term
from the tables in :mod:`hepbell.reports`, plus the Hardy violation search,
the CH maximum in closed form and the detection-efficiency threshold of the
CH test, which rests on that maximum.

numpy and :mod:`hepbell.qcore` are imported inside the functions that build
operators, states and projectors or evaluate the vectorized closed forms, so
``efficiency``, which reads only the CH maximum, loads neither."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import math

from .reports import (
    CH_VV_JOINTS, HARDY_TERMS, VIOLATION_TOL, InequalityReport, ch_vv_report, ch_vv_s,
)

# Closed-form vs projector-route disagreement above this raises.
_CROSS_CHECK_TOL = 1e-8

# The largest |angle| HardySettings takes.  The closed forms round angle
# differences, the Born route does not: they part by up to 5.8e-11 at 1e6,
# but by 6.6e-8 at 10**9.5.
MAX_ANGLE = 1e6

# Grid step of the Hardy violation search's coarse scan.
_GRID_STEP = math.pi / 16


class InternalInconsistency(RuntimeError):
    """Closed-form and Born-rule probability routes disagree; signals an
    operator-convention bug rather than bad user input."""


@lru_cache(maxsize=1)
def spin1_operators() -> tuple[Observable, Observable, Observable]:
    """Spin-1 matrices (Jx, Jy, Jz) in the Jz eigenbasis ordered (+1, 0, -1)."""
    import numpy as np

    from .qcore import Observable

    s = 1.0 / np.sqrt(2.0)
    jx = np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=np.complex128)
    jy = np.array([[0, -1j * s, 0], [1j * s, 0, -1j * s], [0, 1j * s, 0]])
    jz = np.diag([1.0, 0.0, -1.0]).astype(np.complex128)
    return Observable(jx), Observable(jy), Observable(jz)


def j_alpha(alpha: float) -> Observable:
    """In-plane spin operator Jx*cos(alpha) + Jy*sin(alpha)."""
    from .qcore import Observable

    jx, jy, _ = spin1_operators()
    return Observable(math.cos(alpha) * jx.matrix + math.sin(alpha) * jy.matrix)


def make_singlet_like() -> StateVector:
    """Total-spin-1, z-projection-0 state (|+1>|-1> - |-1>|+1>)/sqrt(2).

    Each meson's basis is the Jz eigenbasis in the order (+1, 0, -1).
    """
    import numpy as np

    from .qcore import StateVector

    amps = np.zeros(9, dtype=np.complex128)
    amps[0 * 3 + 2] = 1.0 / np.sqrt(2.0)
    amps[2 * 3 + 0] = -1.0 / np.sqrt(2.0)
    return StateVector((3, 3), amps)


@dataclass(frozen=True)
class HardySettings:
    """In-plane measurement angles (radians, stored exactly as given)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            value = float(getattr(self, name))
            if not abs(value) <= MAX_ANGLE:  # NaN fails too
                raise ValueError(f"{name} must lie in [-{MAX_ANGLE:g}, {MAX_ANGLE:g}], got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class HardyReport:
    """The HARDY_TERMS probabilities by key and the gap they produce."""

    probabilities: dict[str, float]
    lhs_minus_rhs: float
    violated: bool

    def to_dict(self) -> dict:
        return {**self.probabilities, "lhs_minus_rhs": self.lhs_minus_rhs, "violated": self.violated}


def zero_projector(theta: float) -> Projector:
    """Projector onto the J=0 eigenvector of the in-plane operator at theta."""
    from .qcore import Projector, eigenvector_for_eigenvalue

    return Projector.onto(eigenvector_for_eigenvalue(j_alpha(theta), 0.0))


def nonzero_projector(theta: float) -> Projector:
    """Projector onto J != 0, the complement of the J=0 eigenprojector (equal
    to the sum of the +1 and -1 eigenprojectors)."""
    return zero_projector(theta).complement()


def _joint(theta_1, theta_2, both_zero=True):
    """Joint probability on the singlet-like state: sin^2(theta_2 - theta_1)/2
    for J=0 on both sides, cos^2 for J != 0 on one (vectorizable).  s * s, not
    ``s ** 2``, which is C pow on a scalar and can differ in the last bit."""
    import numpy as np

    s = np.sin(theta_2 - theta_1) if both_zero else np.cos(theta_2 - theta_1)
    return 0.5 * (s * s)


def _angles(alpha, beta, gamma) -> dict:
    """The in-plane angle of each setting HARDY_TERMS names."""
    return {"x": 0.0, "alpha": alpha, "beta": beta, "gamma": gamma}


def hardy_closed_forms(alpha, beta, gamma) -> tuple:
    """Closed forms of the HARDY_TERMS probabilities (vectorizable)."""
    angles = _angles(alpha, beta, gamma)
    return tuple(
        _joint(angles[setting_1], angles[setting_2], outcome_1 == outcome_2 == "0")
        for _, _, (setting_1, outcome_1), (setting_2, outcome_2) in HARDY_TERMS
    )


def _gap(probabilities):
    """LHS - RHS of Hardy's constraint from the HARDY_TERMS probabilities,
    the RHS summed in the order the constraint writes it: last row first."""
    signed = list(zip((sign for _, sign, _, _ in HARDY_TERMS), probabilities))[::-1]
    return sum(p for sign, p in signed if sign > 0) - sum(p for sign, p in signed if sign < 0)


def hardy_difference_closed(alpha, beta, gamma):
    """Closed-form LHS - RHS of the local-realism constraint (vectorizable)."""
    return _gap(hardy_closed_forms(alpha, beta, gamma))


def hardy_probabilities(settings: HardySettings) -> HardyReport:
    """The HARDY_TERMS probabilities, computed two independent ways, and the
    gap they give in Hardy's constraint.

    Closed trigonometric forms are returned.  A Born-rule evaluation with
    eigenprojectors on the singlet-like state is computed beside them, and
    a disagreement beyond ``_CROSS_CHECK_TOL`` (1e-8) raises
    :class:`InternalInconsistency`.
    """
    from .qcore import born_probability

    closed = hardy_closed_forms(settings.alpha, settings.beta, settings.gamma)
    angles = _angles(settings.alpha, settings.beta, settings.gamma)

    def projector(setting: str, outcome: str) -> Projector:
        return (zero_projector if outcome == "0" else nonzero_projector)(angles[setting])

    state = make_singlet_like()
    born = [born_probability(state, [projector(*s1), projector(*s2)]) for *_, s1, s2 in HARDY_TERMS]
    worst = max(abs(c - b) for c, b in zip(closed, born))
    if worst > _CROSS_CHECK_TOL:
        raise InternalInconsistency(
            f"closed-form vs projector probabilities disagree by {worst}"
        )
    probabilities = {key: float(p) for (key, *_), p in zip(HARDY_TERMS, closed)}
    diff = _gap(probabilities.values())
    return HardyReport(probabilities, lhs_minus_rhs=diff, violated=diff > VIOLATION_TOL)


def maximize_violation() -> tuple[HardySettings, float]:
    """Search [0, pi)^3 for the maximal constraint violation.

    Coarse grid scan at pi/16 first, then coordinate-wise golden-section
    refinement of every near-maximal grid point; ties across the discrete
    symmetry family are broken by the lexicographically smallest
    (alpha, beta, gamma).
    """
    # Imported here: hardy without --optimize searches nothing.
    from ._search import maximize_on_grid

    point, value = maximize_on_grid(hardy_difference_closed, 3, _GRID_STEP)
    return HardySettings(*point), value


def ch_vv_joint_combination(t1, t1p, t2, t2p):
    """Signed sum of the four joint terms of the two-meson CH expression
    (vectorizable); each joint is (1/2)sin^2 of the setting difference."""
    settings = (t1, t1p, t2, t2p)
    return sum(sign * _joint(settings[i], settings[j]) for _, sign, i, j in CH_VV_JOINTS)


def ch_value_vv(t1: float, t1p: float, t2: float, t2p: float) -> InequalityReport:
    """The two-meson CH report with quantum joints, (1/2)sin^2 of each
    setting difference, and 1/2 singles; the classical bound is 0."""
    settings = (t1, t1p, t2, t2p)
    return ch_vv_report([float(_joint(settings[i], settings[j])) for _, _, i, j in CH_VV_JOINTS])


def maximize_ch_vv() -> tuple[tuple[float, float, float, float], float]:
    """The maximum of the CH value over all four angles, in closed form.

    With sin^2 x = (1 - cos 2x)/2 the joint combination is 1/2 + [cos 2a -
    cos 2b - cos 2c - cos 2d]/4 at the setting differences a = t2' - t1,
    b = t2 - t1, c = t2 - t1' and d = t2' - t1', which obey a = b - c + d.
    Its maximum is Tsirelson's, C = (1 + sqrt 2)/2, where each cosine term
    adds sqrt(2)/2, so the CH value C - 1 is (sqrt 2 - 1)/2.  The point is
    the lexicographically smallest maximizer in [0, pi)^4, (0, pi/4, 5pi/8,
    7pi/8), on which the grid search of the tests lands bit for bit.
    """
    point = (0.0, math.pi / 4, 5 * math.pi / 8, 7 * math.pi / 8)
    return point, (math.sqrt(2.0) - 1.0) / 2.0


def _max_joint_combination() -> float:
    """Maximum of the signed joint combination over settings: 1 + max CH value."""
    _, best = maximize_ch_vv()
    return best + 1.0


def max_s_of_eta(eta: float) -> float:
    """Largest reachable efficiency-scaled CH value at symmetric efficiency."""
    return ch_vv_s(_max_joint_combination(), eta, eta)


def efficiency_threshold() -> float:
    """Smallest symmetric efficiency at which the CH test can still violate:
    the root 1/C of ``max_s_of_eta``, eta^2 * C - eta, with C the largest
    joint combination; analytically 2(sqrt(2)-1), and max_s_of_eta of it is
    exactly 0.0."""
    return 1.0 / _max_joint_combination()
