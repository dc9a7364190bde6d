"""Two-body kinematics of the charmonium -> two-vector-meson decay.

The event-by-event test needs the two decays to be space-like separated,
which each vector meson's speed decides.  Pure Python: the `kinematics`
command runs without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Speed (units of c) each vector meson needs for a usable fraction of
# space-like separated decay events.
SPACE_LIKE_BETA_MIN = 0.59


class BelowThreshold(ValueError):
    """Parent mass does not allow the two-body decay."""


@dataclass(frozen=True)
class KinematicsConfig:
    """Masses (GeV) of the parent and of each vector meson."""

    m_parent: float = 2.980
    m_vector: float = 1.019461

    def __post_init__(self):
        for name in ("m_parent", "m_vector"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive and finite")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class TwoBodyBeta:
    beta: float
    space_like_ok: bool


def two_body_beta(kin: KinematicsConfig) -> TwoBodyBeta:
    """Vector-meson speed beta = sqrt(1 - 4 m_V^2 / m_parent^2) and whether it
    clears the space-like-separation lower bound 0.59."""
    if kin.m_parent <= 2.0 * kin.m_vector:
        raise BelowThreshold(
            f"m_parent {kin.m_parent} GeV is not above 2*m_vector {2 * kin.m_vector} GeV"
        )
    beta = math.sqrt(1.0 - 4.0 * kin.m_vector**2 / kin.m_parent**2)
    return TwoBodyBeta(beta=beta, space_like_ok=beta > SPACE_LIKE_BETA_MIN)
