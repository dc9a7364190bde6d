"""Nonlocality tests with entangled states from particle decays.

Two physical systems are covered: the tripartite photon polarization state
from triplet-onium annihilation and the spin-1 pair from pseudoscalar
charmonium decaying to two vector mesons.  Quantum predictions are computed
analytically and via a Born-rule oracle, classical bounds are certified by
exhaustive strategy enumeration, and the proposed event-by-event measurement
is reproduced by seeded Monte Carlo.

The package root re-exports nothing: import the submodule that holds a
name (``hepbell.mesonlab``, ``hepbell.kinematics``, ...), so that each
command loads only the modules it runs.
"""

__version__ = "0.1.0"
