"""Two-body kinematics of the charmonium -> two-vector-meson decay.

The event-by-event test needs the two decays to be space-like separated,
which each vector meson's speed decides.  Pure Python: the `kinematics`
command runs without numpy.
"""

import math
from collections import namedtuple

# Speed (units of c) each vector meson needs for a usable fraction of
# space-like separated decay events.
SPACE_LIKE_BETA_MIN = 0.59


class BelowThreshold(ValueError):
    """Parent mass does not allow the two-body decay."""


class KinematicsConfig(namedtuple("KinematicsConfig", ("m_parent", "m_vector"))):
    """Masses (GeV) of the parent and of each vector meson, stored as floats."""

    __slots__ = ()

    def __new__(cls, m_parent=2.980, m_vector=1.019461):
        masses = (float(m_parent), float(m_vector))
        for name, value in zip(cls._fields, masses):
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be positive and finite")
        return super().__new__(cls, *masses)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``: validate there too.
        return cls(*iterable)


TwoBodyBeta = namedtuple("TwoBodyBeta", ("beta", "space_like_ok"))


def two_body_beta(kin: KinematicsConfig) -> TwoBodyBeta:
    """Vector-meson speed beta = sqrt(1 - 4 m_V^2 / m_parent^2) and whether it
    clears the space-like-separation lower bound 0.59."""
    if kin.m_parent <= 2.0 * kin.m_vector:
        raise BelowThreshold(
            f"m_parent {kin.m_parent} GeV is not above 2*m_vector {2 * kin.m_vector} GeV"
        )
    beta = math.sqrt(1.0 - 4.0 * kin.m_vector**2 / kin.m_parent**2)
    return TwoBodyBeta(beta=beta, space_like_ok=beta > SPACE_LIKE_BETA_MIN)
