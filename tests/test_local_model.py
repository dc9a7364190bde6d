"""A local hidden-variable model at the decay-plane level, through the estimators.

A hidden axis lambda is drawn uniform on [0, pi).  Each meson's decay-plane
angle psi_i is then drawn on its own, with density
(1 + cos 2(psi_1 - lambda)) / 2pi and (1 - cos 2(psi_2 - lambda)) / 2pi.
The relative angle phi = psi_2 - psi_1 has density (1 - cos(2 phi) / 2) / 2pi,
visibility 1/2 against the quantum 1.  Its joint probability is
(1 - cos(2 phi) / 2) / 4, and the CH value at the paper's settings is
-0.147 at eta = 1: no local model of this kind violates the bound.
"""

import math

import numpy as np

from hepbell.mesonlab import EventSample, ch_from_events, estimate_probability

TWO_PI = 2.0 * math.pi
N_EVENTS = 400_000
PAPER_SETTINGS = (0.0, 3 * math.pi / 4, 3 * math.pi / 8, math.pi / 8)
CHTEST_WINDOW = TWO_PI / 64


def plane_angles(rng, axis, sign):
    """One angle per hidden axis, of density (1 + sign*cos 2(psi - axis)) / 2pi
    on [0, 2pi), by rejection."""
    psi = np.empty_like(axis)
    todo = np.arange(axis.size)
    while todo.size:
        trial = rng.uniform(0.0, TWO_PI, todo.size)
        keep = 2.0 * rng.random(todo.size) < 1.0 + sign * np.cos(2.0 * (trial - axis[todo]))
        psi[todo[keep]] = trial[keep]
        todo = todo[~keep]
    return psi


def local_sample(n, seed):
    rng = np.random.default_rng(seed)
    axis = rng.uniform(0.0, math.pi, n)
    phi = np.mod(plane_angles(rng, axis, -1.0) - plane_angles(rng, axis, 1.0), TWO_PI)
    phi[phi == TWO_PI] = 0.0  # a tiny negative difference rounds up to 2pi
    detected = np.ones(n, dtype=bool)
    return EventSample(phi, detected, detected, ~detected)


def local_joint(lo, hi):
    """(1 - cos(2 phi) / 2) / 4 averaged over [lo, hi]."""
    return 0.25 * (1.0 - (np.sin(2.0 * hi) - np.sin(2.0 * lo)) / (4.0 * (hi - lo)))


def test_local_model_histogram_closes_on_its_density():
    estimate = estimate_probability(local_sample(N_EVENTS, seed=8))
    edges = estimate.bin_edges
    pulls = (estimate.p_hat - local_joint(edges[:-1], edges[1:])) / estimate.stat_err
    ndf = pulls.size
    assert float(np.max(np.abs(pulls))) < 5.0
    assert float(np.sum(pulls**2)) < ndf + 5.0 * math.sqrt(2.0 * ndf)


def test_local_model_does_not_violate_ch():
    report = ch_from_events(local_sample(N_EVENTS, seed=9), PAPER_SETTINGS, window=CHTEST_WINDOW)
    t1, t1p, t2, t2p = PAPER_SETTINGS
    predicted = -1.0
    for sign, centre in ((1, t2 - t1), (-1, t2p - t1), (1, t2 - t1p), (1, t2p - t1p)):
        predicted += sign * local_joint(centre - CHTEST_WINDOW / 2, centre + CHTEST_WINDOW / 2)
    assert abs(predicted + 0.1470) < 1e-4
    assert abs(report.value - predicted) < 5.0 * report.stat_err
    assert not report.violated
