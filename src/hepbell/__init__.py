"""Nonlocality tests with entangled states from particle decays.

Two physical systems are covered: the tripartite photon polarization state
from triplet-onium annihilation and the spin-1 pair from pseudoscalar
charmonium decaying to two vector mesons.  Quantum predictions are computed
analytically and via a Born-rule oracle, classical bounds are certified by
exhaustive strategy enumeration, and the proposed event-by-event measurement
is reproduced by seeded Monte Carlo.
"""

from .mesonlab import (
    DetectorModel,
    EventSample,
    HistogramEstimate,
    KinematicsConfig,
    angular_density,
    ch_from_events,
    effective_statistics,
    efficiency_threshold,
    estimate_probability,
    generate_events,
    transverse_state,
    two_body_beta,
)
from .photon3 import (
    TangleReport,
    TripartiteOutcomeSpec,
    ch_value_3gamma,
    circular_linear_transform,
    make_ortho_ps_state,
    outcome_probability,
    three_tangle,
)
from .qcore import (
    Observable,
    Projector,
    StateVector,
    born_probability,
    eigenvector_for_eigenvalue,
    tensor,
)
from .reports import InequalityReport
from .spin1 import (
    HardyReport,
    HardySettings,
    ch_value_vv,
    hardy_probabilities,
    j_alpha,
    make_singlet_like,
    maximize_ch_vv,
    maximize_violation,
    spin1_operators,
)

__version__ = "0.1.0"
