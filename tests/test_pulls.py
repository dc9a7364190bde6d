"""Pulls of the event estimators over many small seeded samples.

Each of ``SEEDS`` samples of ``N_EVENTS`` decays is drawn in memory at the
paper's detector settings.  S from ``ch_from_events`` is pulled against its
window-averaged prediction, with its reported error, and every histogram bin
against its bin integral, with the Poisson error of the predicted count.
If the estimators are unbiased and their errors honest, the pulls have mean
0 and standard deviation 1; the bands below are three standard errors of
those two statistics, fixed before the run.
"""

import math

import numpy as np
import pytest

from hepbell.mesonlab import DetectorModel, ch_from_events, estimate_probability, generate_events

SEEDS = range(100)
N_EVENTS = 20_000
ETA = 0.9
BACKGROUND = 0.02
# chtest's default settings and window.
SETTINGS = (0.0, 3 * math.pi / 4, 3 * math.pi / 8, math.pi / 8)
WINDOW = 2 * math.pi / 64


def joint(lo, hi):
    """The expected joint probability averaged over [lo, hi]: the signal's
    (1 - cos 2 phi) / 4 mixed with the uniform background's 1/4."""
    mean_cos = (np.sin(2 * hi) - np.sin(2 * lo)) / (2 * (hi - lo))
    return 0.25 - (1 - BACKGROUND) * mean_cos / 4


def predicted_s():
    t1, t1p, t2, t2p = SETTINGS
    combination = sum(
        sign * joint(c - WINDOW / 2, c + WINDOW / 2)
        for sign, c in ((1, t2 - t1), (-1, t2p - t1), (1, t2 - t1p), (1, t2p - t1p))
    )
    return ETA * ETA * combination - ETA


@pytest.fixture(scope="module")
def pulls():
    det = DetectorModel(eta_1=ETA, eta_2=ETA, background_fraction=BACKGROUND)
    pulls = {"S": [], "bins": [], "bins, reported errors": []}
    for seed in SEEDS:
        events = generate_events(N_EVENTS, det, seed=seed)
        report = ch_from_events(events, SETTINGS, det=det, window=WINDOW)
        pulls["S"].append((report.value - predicted_s()) / report.stat_err)
        estimate = estimate_probability(events)
        expected = joint(estimate.bin_edges[:-1], estimate.bin_edges[1:])
        scale = estimate.kappa / (estimate.counts.sum() * estimate.bin_width)
        pulls["bins"].append((estimate.p_hat - expected) / np.sqrt(expected * scale))
        pulls["bins, reported errors"].append((estimate.p_hat - expected) / estimate.stat_err)
    return {name: np.hstack(x) for name, x in pulls.items()}


def assert_standard_normal(x):
    assert abs(x.mean()) < 3 / math.sqrt(x.size)
    assert abs(x.std() - 1) < 3 / math.sqrt(2 * x.size)


def test_s_pulls_are_standard_normal(pulls):
    assert_standard_normal(pulls["S"])


def test_bin_pulls_are_standard_normal(pulls):
    assert_standard_normal(pulls["bins"])


@pytest.mark.xfail(strict=True, reason=(
    "stat_err is sqrt(count) * scale: the bins near phi = 0 and pi, with about "
    "5 counts here, pull low with their own errors, and an empty bin reports 0 +- 0"
))
def test_bin_pulls_with_reported_errors_are_standard_normal(pulls):
    assert_standard_normal(pulls["bins, reported errors"])
