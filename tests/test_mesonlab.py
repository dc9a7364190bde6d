import csv
import io
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hepbell import _workers, mesonlab
from hepbell.kinematics import BelowThreshold, KinematicsConfig, two_body_beta
from hepbell.mesonlab import (
    DetectorModel,
    EventSample,
    InsufficientStatistics,
    NoData,
    angular_density,
    ch_from_events,
    derive_kappa,
    effective_statistics,
    estimate_probability,
    generate_events,
    iter_events_csv,
    joint_direction_probability,
    read_events_csv,
    transverse_state,
    write_events_csv,
)
from hepbell.qcore import Projector, born_probability
from hepbell.spin1 import efficiency_threshold, max_s_of_eta

SQ2 = np.sqrt(2.0)
MAX_GAP = (SQ2 - 1.0) / 2.0
OPTIMAL = (0.0, 3 * np.pi / 4, 3 * np.pi / 8, np.pi / 8)
TWO_PI = 2.0 * np.pi


def signal_cdf(phi):
    return (2.0 * phi - np.sin(2.0 * phi)) / (4.0 * np.pi)


class TestTransverseState:
    def test_amplitude_pattern(self):
        state = transverse_state()
        assert np.allclose(state.amps, np.array([0, 1, -1, 0]) / SQ2)

    def test_same_direction_projection_vanishes(self, rng):
        state = transverse_state()
        for theta in rng.uniform(0, 2 * np.pi, 20):
            proj = Projector.onto([np.cos(theta), np.sin(theta)])
            assert born_probability(state, [proj, proj]) < 1e-12

    def test_joint_probability_matches_sine_law(self, rng):
        state = transverse_state()
        for _ in range(100):
            t1, t2 = rng.uniform(0, 2 * np.pi, 2)
            p = born_probability(
                state,
                [
                    Projector.onto([np.cos(t1), np.sin(t1)]),
                    Projector.onto([np.cos(t2), np.sin(t2)]),
                ],
            )
            assert abs(p - 0.5 * np.sin(t2 - t1) ** 2) < 1e-12


class TestAngularDensity:
    def test_peak_value(self):
        assert abs(angular_density(np.pi / 2) - 1 / np.pi) < 1e-12

    def test_zero_at_coplanar(self):
        assert angular_density(0.0) == 0.0

    def test_normalization(self):
        grid = np.linspace(0.0, TWO_PI, 20001)
        integral = np.trapezoid(angular_density(grid), grid)
        assert abs(integral - 1.0) < 1e-10

    def test_kappa_derived_from_state(self):
        assert abs(derive_kappa() - np.pi / 2) < 1e-12

    def test_kappa_matches_per_call_reference_bit_for_bit(self):
        n_points = 2048
        grid = np.arange(n_points) * (TWO_PI / n_points)
        values = [joint_direction_probability(0.0, float(phi)) for phi in grid]
        assert derive_kappa() == float(np.sum(values) * (TWO_PI / n_points))


def interp_core_inverse(m):
    """The core inversion seeded by np.interp, with four Newton steps on
    every row: the reference."""
    x = np.interp(m, mesonlab._CORE_KNOTS_M, mesonlab._CORE_KNOTS_X)
    x = np.where(m < mesonlab._CORE_KNOTS_M[1], np.cbrt(6.0 * m), x)
    for _ in range(4):
        g = x - np.sin(x) - m
        dg = 1.0 - np.cos(x)
        step = np.where(dg > 1e-30, g / np.maximum(dg, 1e-300), 0.0)
        x = np.clip(x - step, 0.0, math.pi)
    return x


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestCoreInverse:
    @pytest.fixture(scope="class")
    def edges(self):
        """Every knot, its neighbours one ulp away, and the ends of [0, pi]."""
        knots = mesonlab._CORE_KNOTS_M
        m = np.concatenate([
            knots,
            np.nextafter(knots, -np.inf),
            np.nextafter(knots, np.inf),
            [0.0, 5e-324, 1e-300, math.pi, np.nextafter(math.pi, 0.0)],
        ])
        return m[(m >= 0.0) & (m <= math.pi)]

    def test_knots_scale_to_at_least_their_index(self):
        # What lets the seed's index arithmetic skip a check against the
        # interval's upper knot.
        knots = mesonlab._CORE_KNOTS_M
        index = (knots * mesonlab._CORE_KNOTS_PER_M).astype(np.intp)
        assert (index >= np.arange(knots.size)).all()

    def test_seed_is_np_interp_at_knots_and_edges(self, edges):
        want = np.interp(edges, mesonlab._CORE_KNOTS_M, mesonlab._CORE_KNOTS_X)
        assert bits(mesonlab._interp_knots(edges)) == bits(want)

    def test_seed_is_np_interp_on_random_m(self, rng):
        m = rng.uniform(0.0, math.pi, 1_000_000)
        want = np.interp(m, mesonlab._CORE_KNOTS_M, mesonlab._CORE_KNOTS_X)
        assert bits(mesonlab._interp_knots(m)) == bits(want)

    def test_matches_interp_form_at_knots_and_edges(self, edges):
        assert bits(mesonlab._core_inverse(edges)) == bits(interp_core_inverse(edges))

    def test_signal_cdf_inverse_matches_interp_form(self, rng, monkeypatch):
        u = np.concatenate([rng.random(1_000_000), [0.0, 5e-324, 0.25, 0.5, 0.75]])
        got = mesonlab._invert_signal_cdf(u)
        monkeypatch.setattr(mesonlab, "_core_inverse", interp_core_inverse)
        assert bits(got) == bits(mesonlab._invert_signal_cdf(u))


class TestGenerateEvents:
    def test_window_fraction_matches_analytic_integral(self):
        events = generate_events(1_000_000, seed=42)
        lo, hi = np.pi / 2 - 0.05, np.pi / 2 + 0.05
        frac = float(np.mean((events.phi >= lo) & (events.phi <= hi)))
        expected = float(signal_cdf(hi) - signal_cdf(lo))
        sigma = math.sqrt(expected * (1 - expected) / 1_000_000)
        assert abs(frac - expected) < 3 * sigma

    def test_inverse_cdf_is_exact_in_probability(self, rng):
        u = rng.random(100_000)
        phi = mesonlab._invert_signal_cdf(u)
        assert float(np.max(np.abs(signal_cdf(phi) - u))) < 1e-12
        assert phi.min() >= 0.0 and phi.max() < TWO_PI

    def test_knot_table_matches_scalar_bisection_bit_for_bit(self):
        def scalar_knot(m):
            lo, hi = 0.0, math.pi
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if mid - math.sin(mid) < m:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        reference = np.array([scalar_knot(m) for m in mesonlab._CORE_KNOTS_M.tolist()])
        assert reference.view(np.uint64).tolist() == mesonlab._CORE_KNOTS_X.view(np.uint64).tolist()

    def test_zero_efficiency_gives_no_coincidences(self):
        det = DetectorModel(eta_1=0.0, eta_2=0.0)
        events = generate_events(10_000, det, seed=1)
        assert int(events.coincidence_mask.sum()) == 0

    def test_pure_background_is_uniform(self):
        det = DetectorModel(background_fraction=1.0)
        events = generate_events(1_000_000, det, seed=44)
        counts, _ = np.histogram(events.phi, bins=np.linspace(0, TWO_PI, 65))
        expected = 1_000_000 / 64
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 92.010  # chi2 0.99 quantile at 63 dof

    def test_deterministic_for_fixed_seed_and_workers(self):
        a = generate_events(10_000, seed=7, workers=3)
        b = generate_events(10_000, seed=7, workers=3)
        for field in ("phi", "detected_1", "detected_2", "is_background"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_worker_count_is_part_of_the_stream_key(self):
        a = generate_events(10_000, seed=7, workers=1)
        b = generate_events(10_000, seed=7, workers=2)
        assert not np.array_equal(a.phi, b.phi)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_events(0, seed=1)
        with pytest.raises(ValueError):
            generate_events(10, seed=-1)
        with pytest.raises(ValueError):
            generate_events(10, seed=1, workers=0)
        for start, stop in [(-1, 5), (5, 5), (6, 5), (0, 11)]:
            with pytest.raises(ValueError, match="not a non-empty range"):
                generate_events(10, seed=1, start=start, stop=stop)
        with pytest.raises(ValueError):
            DetectorModel(eta_1=1.5)

    @pytest.mark.parametrize("bad_phi", [math.nan, math.inf, -math.inf])
    def test_event_sample_rejects_non_finite_phi(self, bad_phi):
        phi = np.array([0.5, bad_phi, 1.0])
        flags = np.ones(3, dtype=bool)
        with pytest.raises(ValueError, match="finite"):
            EventSample(phi, flags, flags, ~flags)


class TestEstimateProbability:
    def test_value_at_peak(self):
        events = generate_events(1_000_000, seed=42)
        estimate = estimate_probability(events)
        p, err = estimate.value_at(np.pi / 2)
        assert abs(p - 0.5) < 3 * err

    def test_near_zero_bin_has_upper_limit_only(self):
        events = generate_events(1_000_000, seed=42)
        estimate = estimate_probability(events, bin_width=TWO_PI / 628)
        scale = estimate.kappa / (int(estimate.counts.sum()) * estimate.bin_width)
        assert estimate.counts[0] <= 3
        assert estimate.p_hat[0] <= 3 * scale

    def test_fine_bin_at_peak(self):
        events = generate_events(1_000_000, seed=42)
        estimate = estimate_probability(events, bin_width=TWO_PI / 628)
        p, err = estimate.value_at(np.pi / 2)
        assert abs(p - 0.5) < 3 * err

    def test_statistical_error_scales_inverse_root_n(self):
        ratios = []
        for seed in (11, 12, 13):
            small = estimate_probability(generate_events(100_000, seed=seed))
            big = estimate_probability(generate_events(400_000, seed=seed))
            idx = small.bin_index(np.pi / 2)
            ratios.append(float(small.stat_err[idx] / big.stat_err[idx]))
        assert abs(np.mean(ratios) - 2.0) < 0.2  # 4x events halves the error twice

    def test_phat_integrates_to_kappa(self):
        events = generate_events(200_000, seed=9)
        estimate = estimate_probability(events)
        assert abs(float(estimate.p_hat.sum() * estimate.bin_width) - estimate.kappa) < 1e-9

    def test_counts_sum_to_detected(self):
        det = DetectorModel(eta_1=0.8, eta_2=0.9)
        events = generate_events(100_000, det, seed=21)
        estimate = estimate_probability(events)
        assert int(estimate.counts.sum()) == int(events.coincidence_mask.sum())

    def test_closure_against_true_shape(self):
        # Bin-averaged estimates vs the shape at bin centers, 64 bins, 1e6.
        events = generate_events(1_000_000, seed=1234)
        estimate = estimate_probability(events, bin_width=TWO_PI / 64)
        centers = 0.5 * (estimate.bin_edges[:-1] + estimate.bin_edges[1:])
        truth = 0.5 * np.sin(centers) ** 2
        err = np.maximum(estimate.stat_err, 1e-12)
        pulls = np.abs(estimate.p_hat - truth) / err
        assert float(pulls[estimate.counts > 0].max()) < 4.0

    def test_bad_bin_width_rejected(self):
        events = generate_events(1_000, seed=2)
        with pytest.raises(ValueError):
            estimate_probability(events, bin_width=0.01)

    def test_no_data(self):
        det = DetectorModel(eta_1=0.0)
        events = generate_events(1_000, det, seed=2)
        with pytest.raises(NoData):
            estimate_probability(events)


class TestChFromEvents:
    def test_perfect_detector_million_events(self):
        events = generate_events(1_000_000, seed=42)
        report = ch_from_events(events, OPTIMAL)
        assert abs(report.value - MAX_GAP) < 3 * report.stat_err
        assert report.violated

    def test_reduced_efficiency_kills_violation(self):
        det = DetectorModel(eta_1=0.7, eta_2=0.7)
        events = generate_events(300_000, det, seed=43)
        report = ch_from_events(events, OPTIMAL, det)
        expected = 0.49 * (1 + SQ2) / 2 - 0.7
        assert report.value < 0.0
        assert abs(report.value - expected) < 3 * report.stat_err
        assert not report.violated

    def test_pure_background_gives_uncorrelated_value(self):
        det = DetectorModel(background_fraction=1.0)
        events = generate_events(1_000_000, det, seed=44)
        report = ch_from_events(events, OPTIMAL, det)
        assert abs(report.value + 0.5) < 3 * report.stat_err

    def test_branching_weight_thins_sample_without_shifting_value(self):
        thinned = DetectorModel(br_weight=0.25)
        full_events = generate_events(400_000, seed=55)
        thin_events = generate_events(400_000, thinned, seed=55)
        assert int(thin_events.coincidence_mask.sum()) < int(
            full_events.coincidence_mask.sum()
        )
        full = ch_from_events(full_events, OPTIMAL)
        thin = ch_from_events(thin_events, OPTIMAL, thinned)
        combined = math.hypot(full.stat_err, thin.stat_err)
        assert abs(full.value - thin.value) < 3 * combined

    def test_empty_window_raises_named_insufficient_statistics(self):
        events = generate_events(3, seed=1)
        with pytest.raises(InsufficientStatistics) as excinfo:
            ch_from_events(events, OPTIMAL)
        assert "phi=" in str(excinfo.value)

    def test_coincident_settings_rejected(self):
        events = generate_events(1_000, seed=1)
        with pytest.raises(ValueError):
            ch_from_events(events, (0.0, 0.0, 0.0, 0.0))


class TestEfficiencyThreshold:
    def test_matches_analytic_value(self):
        assert abs(efficiency_threshold() - 2 * (SQ2 - 1)) < 1e-6

    def test_classically_capped_joints_never_violate(self):
        assert efficiency_threshold(joint_max=1.0) == 1.0

    def test_threshold_brackets_violation(self):
        threshold = efficiency_threshold()
        assert max_s_of_eta(threshold + 1e-3) > 0.0
        assert max_s_of_eta(threshold - 1e-3) < 0.0

    def test_tolerance_validation(self):
        for search_tol in (1e-12, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                efficiency_threshold(search_tol=search_tol)


class TestKinematics:
    def test_paper_masses(self):
        result = two_body_beta(KinematicsConfig(m_parent=2.980, m_vector=1.019461))
        assert abs(result.beta - 0.7293) < 0.0005
        assert result.space_like_ok

    def test_near_threshold(self):
        m_vector = 1.0
        result = two_body_beta(KinematicsConfig(m_parent=2 * m_vector * 1.000001, m_vector=m_vector))
        assert abs(result.beta - 0.0014) < 2e-4
        assert not result.space_like_ok

    def test_massless_limit(self):
        result = two_body_beta(KinematicsConfig(m_parent=2.980, m_vector=1e-9))
        assert abs(result.beta - 1.0) < 1e-12

    def test_below_threshold_raises(self):
        with pytest.raises(BelowThreshold):
            two_body_beta(KinematicsConfig(m_parent=2.0, m_vector=1.0))

    def test_beta_monotone_decreasing_in_vector_mass(self):
        betas = [
            two_body_beta(KinematicsConfig(m_parent=2.980, m_vector=m)).beta
            for m in np.linspace(0.1, 1.48, 30)
        ]
        assert all(a > b for a, b in zip(betas, betas[1:]))

    def test_mass_validation(self):
        with pytest.raises(ValueError):
            KinematicsConfig(m_parent=-1.0, m_vector=0.5)


class TestEffectiveStatistics:
    def test_phi_pair_branching(self):
        det = DetectorModel(br_weight=0.492**2)
        assert abs(effective_statistics(1_000_000, det) - 242_064) < 1.0

    def test_full_branching_keeps_count(self):
        det = DetectorModel(br_weight=1.0)
        assert effective_statistics(123, det) == 123.0

    def test_zero_efficiency(self):
        det = DetectorModel(eta_1=0.0)
        assert effective_statistics(1_000_000, det) == 0.0


class TestCsvRoundTrip:
    def test_write_read_write_is_stable(self, tmp_path):
        events = generate_events(500, DetectorModel(eta_1=0.9, background_fraction=0.2), seed=5)
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_events_csv(events, path_a)
        reread = read_events_csv(path_a)
        write_events_csv(reread, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert np.array_equal(reread.detected_1, events.detected_1)
        assert float(np.max(np.abs(reread.phi - events.phi))) < 1e-8

    def test_writing_through_a_symlink_replaces_its_target(self, tmp_path):
        events = generate_events(50, seed=5)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"an older file\r\n")
        link.symlink_to(target)
        write_events_csv(events, link)
        assert link.is_symlink()
        assert len(read_events_csv(target)) == 50
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    def test_header_is_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("phi,detected_1\n0.1,1\n")
        with pytest.raises(ValueError):
            read_events_csv(path)

    def test_ids_must_increase_from_zero(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "event_id,phi,detected_1,detected_2,is_background\n"
            "1,0.5,1,1,0\n"
        )
        with pytest.raises(ValueError):
            read_events_csv(path)


CSV_HEADER = ["event_id", "phi", "detected_1", "detected_2", "is_background"]


def reference_write_events_csv(sample, path):
    """Row-by-row csv.writer implementation the chunked writer must match."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i in range(len(sample)):
            writer.writerow(
                [
                    i,
                    f"{sample.phi[i]:.9g}",
                    int(sample.detected_1[i]),
                    int(sample.detected_2[i]),
                    int(sample.is_background[i]),
                ]
            )


def reference_read_events_csv(path):
    """Row-by-row csv.reader implementation the vectorized reader must match."""
    phis, d1, d2, bg = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == CSV_HEADER
        for expected_id, row in enumerate(reader):
            assert int(row[0]) == expected_id
            phis.append(float(row[1]))
            d1.append(bool(int(row[2])))
            d2.append(bool(int(row[3])))
            bg.append(bool(int(row[4])))
    return EventSample(np.array(phis), np.array(d1), np.array(d2), np.array(bg))


def assert_same_events(a, b):
    """Equal samples, bit for bit."""
    for field in ("phi", "detected_1", "detected_2", "is_background"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


@pytest.fixture
def line_parser_calls(monkeypatch):
    """The first ids of the chunks whose fault ``mesonlab._parse_lines``
    named while the test runs, one entry per call."""
    calls = []
    parse_lines = mesonlab._parse_lines

    def counting(run, first_id, scratch):
        calls.append(first_id)
        return parse_lines(run, first_id, scratch)

    monkeypatch.setattr(mesonlab, "_parse_lines", counting)
    return calls


# The dtype and options np.loadtxt reads an event file body with: every
# body the reader accepts reads to the same rows under it.
CSV_DTYPE = np.dtype(
    [
        ("event_id", np.int64),
        ("phi", np.float64),
        ("detected_1", np.int8),
        ("detected_2", np.int8),
        ("is_background", np.int8),
    ]
)


def assert_reads_as_loadtxt(sample, body):
    """np.loadtxt reads ``sample`` from the event file body, bit for bit."""
    with warnings.catch_warnings():
        # An empty body is an empty array, not a warning.
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(
            io.StringIO(body.decode("ascii"), newline=""),
            dtype=CSV_DTYPE,
            delimiter=",",
            comments=None,
            ndmin=1,
        )
    assert np.array_equal(rows["event_id"], np.arange(len(sample)))
    assert rows["phi"].tobytes() == sample.phi.tobytes()
    for name in CSV_HEADER[2:]:
        assert np.array_equal(rows[name], getattr(sample, name))


# Angles the writer formats in exponent form, or as "0".
EXPONENT_FORM_PHI = [0.0, 1e-05, 3.14159265e-05, 9.99e-05, 5e-324]
# Products phi * 10**k that round to the wrong side of a tie in binary.
FIXED_POINT_PHI = [1.770842505, 0.8389495205, 0.09037967345, 0.005697999515, 0.0007800132025]
for decade in (1e-4, 1e-3, 0.01, 0.1, 1.0):
    FIXED_POINT_PHI += [np.nextafter(decade, 0.0), decade, np.nextafter(decade, 1.0)]
# The 9 digits carry into the next decade, at a tie and past one.
FIXED_POINT_PHI += [0.9999999995, 0.09999999995, 0.99999999996, 0.0099999999996]
FIXED_POINT_PHI += [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 6.2831853]


class TestCsvMatchesReference:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_chunked_writer_and_reader_match_row_loops(self, tmp_path, workers):
        n = mesonlab._CSV_CHUNK_ROWS + 1001  # one full chunk and a partial one
        det = DetectorModel(eta_1=0.9, eta_2=0.8, background_fraction=0.1)
        events = generate_events(n, det, seed=17, workers=workers)
        phi = events.phi.copy()
        # Exponent forms in the first chunk, fixed-point ties in the second.
        phi[: len(EXPONENT_FORM_PHI)] = EXPONENT_FORM_PHI
        phi[n - len(FIXED_POINT_PHI) :] = FIXED_POINT_PHI
        sample = EventSample(phi, events.detected_1, events.detected_2, events.is_background)
        ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
        write_events_csv(sample, ours)
        reference_write_events_csv(sample, reference)
        assert ours.read_bytes() == reference.read_bytes()
        assert b"\r\n1,1e-05," in ours.read_bytes()
        assert b"\r\n%d,1.77084251," % (n - len(FIXED_POINT_PHI)) in ours.read_bytes()
        assert_same_events(read_events_csv(ours), reference_read_events_csv(ours))

    # Every id width from 1 to 5 digits in the first chunk, and a last chunk
    # of one row.
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_reader_is_exact_at_the_chunk_size(self, tmp_path, line_parser_calls, offset):
        n = mesonlab._CSV_CHUNK_ROWS + offset
        det = DetectorModel(eta_1=0.9, eta_2=0.8, background_fraction=0.1)
        events = generate_events(n, det, seed=23, workers=2)
        phi = events.phi.copy()
        phi[: len(EXPONENT_FORM_PHI)] = EXPONENT_FORM_PHI
        phi[-len(FIXED_POINT_PHI) :] = FIXED_POINT_PHI
        sample = EventSample(phi, events.detected_1, events.detected_2, events.is_background)
        path = tmp_path / "events.csv"
        write_events_csv(sample, path)
        assert b"\r\n4,4.94065646e-324," in path.read_bytes()
        reread = read_events_csv(path)
        assert line_parser_calls == []
        assert_same_events(reread, reference_read_events_csv(path))

    def test_largest_phi_below_two_pi_reads_back(self, tmp_path):
        phi = np.array([0.5, np.nextafter(TWO_PI, 0.0), 6.283185305])
        flags = np.ones(3, dtype=bool)
        path = tmp_path / "edge.csv"
        write_events_csv(EventSample(phi, flags, flags, ~flags), path)
        reread = read_events_csv(path)
        assert float(reread.phi.max()) < TWO_PI
        assert float(np.max(np.abs(reread.phi - phi))) < 1e-8
        assert path.read_text().splitlines()[2] == "1,6.2831853,1,1,0"

    @settings(max_examples=200, deadline=None)
    @given(
        phi=st.lists(
            st.floats(min_value=0.0, max_value=mesonlab._PHI_TOKEN_MAX, exclude_max=True),
            min_size=1,
            max_size=50,
        )
    )
    def test_writer_matches_row_loop_property(self, tmp_path_factory, phi):
        flags = np.arange(len(phi)) % 2 == 0
        sample = EventSample(np.array(phi), flags, ~flags, flags)
        directory = tmp_path_factory.mktemp("writer")
        ours, reference = directory / "ours.csv", directory / "reference.csv"
        write_events_csv(sample, ours)
        reference_write_events_csv(sample, reference)
        assert ours.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("start", [2**32 - 3, 99_998, 10**15 - 2])
    def test_row_formatter_at_id_width_changes(self, start):
        phi = np.array([0.0, 1e-05, 0.5, 1.25, 3.0, 6.2831853])
        d1 = np.array([True, False, True, True, False, False])
        bg = d1[::-1].copy()
        expected = b"".join(
            b"%d,%.9g,%d,%d,%d\r\n" % (start + i, *row)
            for i, row in enumerate(zip(phi.tolist(), d1.tolist(), (~d1).tolist(), bg.tolist()))
        )
        assert mesonlab._csv_rows(start, phi, d1, ~d1, bg) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        chunk_rows=st.integers(min_value=1, max_value=12),
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
                st.booleans(),
                st.booleans(),
                st.booleans(),
            ),
            min_size=1,
            max_size=50,
        ),
    )
    def test_write_read_write_property(self, tmp_path_factory, chunk_rows, rows):
        phi, d1, d2, bg = (np.array(column) for column in zip(*rows))
        sample = EventSample(phi, d1, d2, bg)
        directory = tmp_path_factory.mktemp("roundtrip")
        first, second = directory / "first.csv", directory / "second.csv"
        with pytest.MonkeyPatch.context() as patch:
            # Chunks whose ids cross 10, and chunks with the exponent forms
            # of tiny angles.
            patch.setattr(mesonlab, "_CSV_CHUNK_ROWS", chunk_rows)
            write_events_csv(sample, first)
            reread = read_events_csv(first)
            write_events_csv(reread, second)
        assert first.read_bytes() == second.read_bytes()
        assert_same_events(reread, reference_read_events_csv(first))
        assert_same_events(read_events_csv(second), reread)
        assert float(np.max(np.abs(reread.phi - sample.phi))) < 1e-8
        for field in ("detected_1", "detected_2", "is_background"):
            assert np.array_equal(getattr(reread, field), getattr(sample, field))


def reference_generate_events(n, det, seed, workers):
    """Whole-array draws per worker, the loop the chunked generator must match."""
    base, remainder = divmod(n, workers)
    phi_parts, d1_parts, d2_parts, bg_parts = [], [], [], []
    for w in range(workers):
        count = base + (1 if w < remainder else 0)
        if count == 0:
            continue
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, w], dtype=np.uint64)))
        u_bg = rng.random(count)
        u_phi = rng.random(count)
        u_d1 = rng.random(count)
        u_d2 = rng.random(count)
        is_bg = u_bg < det.background_fraction
        phi_parts.append(np.where(is_bg, TWO_PI * u_phi, mesonlab._invert_signal_cdf(u_phi)))
        bg_parts.append(is_bg)
        d1_parts.append(u_d1 < det.side_detection_probability(1))
        d2_parts.append(u_d2 < det.side_detection_probability(2))
    return EventSample(*(np.concatenate(p) for p in (phi_parts, d1_parts, d2_parts, bg_parts)))


GENERATE_PEAK_SCRIPT = """
import os
from hepbell.mesonlab import DetectorModel, generate_events, write_events_csv
events = generate_events(int(sys.argv[1]), DetectorModel(0.9, 0.9, 0.02), seed=7, workers=2)
write_events_csv(events, os.devnull)
print(peak_rss_bytes())
"""


class TestChunkedGeneration:
    # Chunks above the default size and of a size that divides no segment.
    @pytest.mark.parametrize("chunk_rows", [65_536, 1001])
    @pytest.mark.parametrize(
        "det",
        [DetectorModel(), DetectorModel(eta_1=0.9, eta_2=0.8, background_fraction=0.1)],
        ids=["perfect", "lossy"],
    )
    @pytest.mark.parametrize("n, workers", [(1_000_001, 3), (131_073, 2), (7, 5)])
    def test_matches_whole_array_draws(self, monkeypatch, n, workers, det, chunk_rows):
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", chunk_rows)
        ours = generate_events(n, det, seed=7, workers=workers)
        reference = reference_generate_events(n, det, seed=7, workers=workers)
        assert ours.phi.tobytes() == reference.phi.tobytes()
        assert_same_events(ours, reference)

    def test_peak_memory_grows_by_the_result_only(self, peak_rss):
        # The result holds 11 B per event (float64 phi, three bool flags);
        # whole-array draws held about 70.
        peaks = [peak_rss(GENERATE_PEAK_SCRIPT, str(n))[0] for n in (200_000, 2_000_000)]
        slope = (peaks[1] - peaks[0]) / 1_800_000
        assert 8.0 < slope < 16.0

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=300),
        chunk_rows=st.integers(min_value=1, max_value=40),
    )
    def test_row_range_is_the_slice_of_the_whole_sample(self, data, n, chunk_rows):
        # Most ranges straddle a boundary between two workers' rows.  With
        # more workers than rows, the last workers hold none.
        workers = data.draw(
            st.one_of(st.integers(min_value=1, max_value=6), st.integers(n + 1, n + 6)),
            label="workers",
        )
        start = data.draw(st.integers(min_value=0, max_value=n - 1), label="start")
        stop = data.draw(st.integers(min_value=start + 1, max_value=n), label="stop")
        det = DetectorModel(eta_1=0.9, eta_2=0.8, background_fraction=0.3)
        whole = reference_generate_events(n, det, seed=11, workers=workers)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mesonlab, "_CSV_CHUNK_ROWS", chunk_rows)
            rows = generate_events(n, det, seed=11, workers=workers, start=start, stop=stop)
        assert rows.phi.tobytes() == whole.phi[start:stop].tobytes()
        for field in ("detected_1", "detected_2", "is_background"):
            assert np.array_equal(getattr(rows, field), getattr(whole, field)[start:stop])

    @pytest.mark.parametrize(
        "seed, worker, offset",
        [(7, 0, 0), (7, 1, 5), (2**64 - 1, 99_999, 123_457), (3, 5, 2**40 + 3)],
    )
    def test_stream_draws_as_a_new_keyed_philox(self, seed, worker, offset):
        bit_generator = np.random.Philox(key=np.array([seed, worker], dtype=np.uint64))
        bit_generator.advance(offset // 4)
        want = np.random.Generator(bit_generator)
        want.random(offset % 4)
        # A stream left with a part-used buffer does not leak into the next.
        mesonlab._philox_stream(seed + 1 if seed < 2**64 - 1 else 0, worker, 1).random(2)
        got = mesonlab._philox_stream(seed, worker, offset).random(9)
        assert bits(got) == bits(want.random(9))

    def test_each_thread_positions_its_own_stream(self):
        other = []
        thread = threading.Thread(target=lambda: other.append(mesonlab._philox_stream(7, 0, 0)))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert other[0] is not mesonlab._philox_stream(7, 0, 0)

    @pytest.mark.parametrize(
        "n, workers, start, stop",
        [
            (100_000, 100_000, 50_000, 50_000 + 1000),
            (1003, 10, 150, 250),
            (1003, 10, 990, 1003),
            (1003, 10, 0, 1),
            (7, 5, 0, 7),
            (3, 8, 1, 3),
        ],
    )
    def test_range_enters_only_the_streams_that_hold_it(
        self, monkeypatch, n, workers, start, stop
    ):
        # Worker w holds its rows of the sample, the first n % workers one more.
        base, remainder = divmod(n, workers)
        owner = np.repeat(np.arange(workers), [base + (w < remainder) for w in range(workers)])
        touched = np.unique(owner[start:stop]).size
        stream, calls = mesonlab._philox_stream, []

        def counted(seed, worker, offset):
            calls.append(worker)
            return stream(seed, worker, offset)

        monkeypatch.setattr(mesonlab, "_philox_stream", counted)
        generate_events(n, seed=3, workers=workers, start=start, stop=stop)
        assert len(calls) == 4 * touched
        assert set(calls) == set(owner[start:stop].tolist())


HEADER_BYTES = b"event_id,phi,detected_1,detected_2,is_background\r\n"
FUZZ_TOKENS = [
    b"0", b"1", b"2", b"-1", b"+1", b"0.5", b"6.3", b"1e-05", b"nan", b"inf", b"1_5",
    b"99999999999999999999", b",", b" ", b"\t", b".", b"\r\n", b"\n", b"\r", b"\x00", b"\xff",
]


def estimate_outcome(events):
    """The report of ``estimate_probability(events)``, or the type and text
    of the error it raises."""
    try:
        return estimate_probability(events).to_dict()
    except ValueError as exc:
        return type(exc), str(exc)


class TestReaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        valid_rows=st.integers(min_value=0, max_value=3),
        tail=st.lists(st.one_of(st.binary(max_size=6), st.sampled_from(FUZZ_TOKENS)), max_size=24),
    )
    def test_arbitrary_bytes_read_or_name_the_first_bad_line(
        self, tmp_path_factory, valid_rows, tail
    ):
        body = b"".join(b"%d,0.5,1,1,0\r\n" % i for i in range(valid_rows)) + b"".join(tail)
        directory = tmp_path_factory.mktemp("fuzz")
        path = directory / "events.csv"
        path.write_bytes(HEADER_BYTES + body)
        try:
            sample = read_events_csv(path)
        except ValueError as exc:
            match = re.match(rf"{re.escape(str(path))}, line (\d+): ", str(exc))
            assert match, str(exc)
            # Every line before the named one reads back.
            lines = (HEADER_BYTES + body).splitlines(keepends=True)
            prefix = directory / "prefix.csv"
            prefix.write_bytes(b"".join(lines[: int(match[1]) - 1]))
            read_events_csv(prefix)
            # The CLI's counting entry names the same line.
            with pytest.raises(ValueError) as counted:
                estimate_probability(path)
            assert str(counted.value) == str(exc)
        else:
            assert_reads_as_loadtxt(sample, body)
            assert estimate_outcome(path) == estimate_outcome(sample)

    @pytest.mark.parametrize("bare_cr", [False, True], ids=["crlf", "bare-cr"])
    def test_line_end_across_read_blocks(self, tmp_path, bare_cr):
        block = mesonlab._READ_BLOCK  # iter_events_csv reads the file in blocks of this size
        # A phi token of each width the writer writes: 1 and 3 to 14 bytes.
        tokens = {len(token): token for token in (b"%.9g" % 2.0**-k for k in range(13))}
        rows, size = [HEADER_BYTES], len(HEADER_BYTES)
        while block - 1 - size > 54:
            rows.append(b"%d,0.5,1,1,0\r\n" % (len(rows) - 1))
            size += len(rows[-1])
        # Two rows whose phi widths put the second one's CR last in the
        # first block.
        last = len(rows)
        width = block - 1 - size - len(b"%d,,1,1,0\r\n%d,,1,1,0" % (last - 1, last))
        first, second = next((a, b) for a in tokens for b in tokens if a + b == width)
        rows.append(b"%d,%s,1,1,0\r\n" % (last - 1, tokens[first]))
        rows.append(b"%d,%s,1,1,0\r%s" % (last, tokens[second], b"" if bare_cr else b"\n"))
        rows.append(b"%d,0.5,1,1,0\r\n" % (last + 1))
        data = b"".join(rows)
        assert data[block - 1 : block] == b"\r"
        path = tmp_path / "events.csv"
        path.write_bytes(data)
        if bare_cr:
            with pytest.raises(ValueError, match=rf", line {last + 2}: carriage return"):
                read_events_csv(path)
        else:
            assert len(read_events_csv(path)) == last + 2

    @pytest.mark.parametrize(
        "body, lineno",
        [
            (b"event_id,phi,detected_1,detected_2,is_background\r0,0.5,1,1,0\r", 1),
            (HEADER_BYTES + b"0,0.5,1,1,0\r1,0.5,1,1,0\r\n", 2),
            (HEADER_BYTES + b"0,0.5,1,1,0\r", 2),
            (HEADER_BYTES + b"0,0.5,1,1,0\r\n1,0.5,1,1, +01 \r\n2,0.5,1,1,0\n3,0.5,1,1,0", 3),
            (HEADER_BYTES + b"0,0.5,1,1,0\r\n1,0.5,1,1,0\xa0\r\n", 3),
            (HEADER_BYTES + b"0,0.5,1,1,0\r\n9223372036854775808,0.5,1,1,0\r\n", 3),
            (HEADER_BYTES + b"0,0.5,1,1,0\r\n1,0.5,1,1,128\r\n", 3),
            (HEADER_BYTES + b"0" * 5000 + b",0.5,1,1,0\r\n1,0.5,1,1,0\r\n1" + b"0" * 5000 + b",0.5,1,1,0", 2),
            # Rows laid out as the writer lays them out, with a bad value.
            (HEADER_BYTES + b"0,0.5,1,1,0\r\n2,0.5,1,1,0\r\n", 3),
            (HEADER_BYTES + b"0,0.5,1,1,0\r\n1,0.5,1,2,0\r\n", 3),
            (HEADER_BYTES + b"0,0.5,1,1,0\r\n1,6.2831854,1,1,0\r\n", 3),
            (HEADER_BYTES + b"0,0.5,1,1,0\r\n1,7.0,1,1,0\r\n", 3),
            (HEADER_BYTES + b"0\r\n1,0.5,1,1,0\r\n", 2),
            (HEADER_BYTES + b"0,0.5,1,1,0\r\n1,6.2831853071796,1,1,0\r\n", 3),
            (HEADER_BYTES + b"0,0.5,1,1,0\r\n1;0.5,1,1,0\r\n", 3),
            (HEADER_BYTES + b"0,0.5,1,1,0\r\n1,0.5,1,1,0\r\r\n", 3),
        ],
        ids=[
            "cr-only", "bare-cr", "final-bare-cr", "loadtxt-spacing-and-sign", "non-ascii",
            "int64-overflow", "int8-overflow", "long-digit-strings", "id-gap", "flag-2",
            "phi-above-2pi", "phi-7", "short-first-row", "phi-15-bytes-above-2pi", "id-separator",
            "cr-before-crlf",
        ],
    )
    def test_line_ends_and_tokens_follow_loadtxt(self, tmp_path, body, lineno):
        path = tmp_path / "events.csv"
        path.write_bytes(body)
        with pytest.raises(ValueError, match=rf", line {lineno}: "):
            read_events_csv(path)

    @settings(max_examples=100, deadline=None)
    @given(
        row=st.integers(min_value=0, max_value=5 * 64 + 16),
        start=st.integers(min_value=0, max_value=24),
        length=st.integers(min_value=0, max_value=3),
        token=st.sampled_from([token for token in FUZZ_TOKENS if b"\n" not in token]),
    )
    def test_one_edited_row_is_named_by_its_line(
        self, tmp_path_factory, row, start, length, token
    ):
        # 64-row chunks: the fault namer bisects over up to 64 lines.
        path = tmp_path_factory.mktemp("edit") / "events.csv"
        det = DetectorModel(eta_1=0.9, eta_2=0.8, background_fraction=0.1)
        write_events_csv(generate_events(5 * 64 + 17, det, seed=5), path)
        lines = path.read_bytes().splitlines(keepends=True)
        text = lines[row + 1][:-2]
        start = min(start, len(text))
        lines[row + 1] = text[:start] + token + text[start + length :] + b"\r\n"
        path.write_bytes(b"".join(lines))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 64)
            try:
                sample = read_events_csv(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}, line {row + 2}: "), str(exc)
                with pytest.raises(ValueError) as counted:
                    estimate_probability(path)
                assert str(counted.value) == str(exc)
            else:
                assert_reads_as_loadtxt(sample, b"".join(lines[1:]))


def event_file_bytes(n):
    return HEADER_BYTES + b"".join(b"%d,0.%d,1,%d,0\r\n" % (i, i + 1, i % 2) for i in range(n))


class TestReaderPaths:
    def test_writer_output_reads_without_np_loadtxt(self, tmp_path, line_parser_calls):
        n = 2 * mesonlab._CSV_CHUNK_ROWS + 5
        det = DetectorModel(eta_1=0.9, eta_2=0.9, background_fraction=0.02)
        path = tmp_path / "events.csv"
        write_events_csv(generate_events(n, det, seed=7, workers=2), path)
        sizes = [len(chunk) for chunk in iter_events_csv(path)]
        assert sizes == [mesonlab._CSV_CHUNK_ROWS] * 2 + [5]
        assert line_parser_calls == []

    def test_lf_only_file_reads_without_the_line_parser(self, tmp_path, line_parser_calls):
        n = 2 * mesonlab._CSV_CHUNK_ROWS + 5
        det = DetectorModel(eta_1=0.9, eta_2=0.9, background_fraction=0.02)
        events = generate_events(n, det, seed=7, workers=2)
        phi = events.phi.copy()
        phi[: len(EXPONENT_FORM_PHI)] = EXPONENT_FORM_PHI
        phi[-len(FIXED_POINT_PHI) :] = FIXED_POINT_PHI
        crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
        write_events_csv(
            EventSample(phi, events.detected_1, events.detected_2, events.is_background), crlf
        )
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        sizes = [len(chunk) for chunk in iter_events_csv(lf)]
        assert sizes == [mesonlab._CSV_CHUNK_ROWS] * 2 + [5]
        assert_same_events(read_events_csv(lf), read_events_csv(crlf))
        assert line_parser_calls == []

    # Of the forms the writer never writes, "0.50", which has the writer's
    # layout and an exact value, and a row ending in LF alone read as
    # np.loadtxt reads them.  Every other one is an error naming its line.
    @pytest.mark.parametrize(
        "row, line, message",
        [
            (5, b"005,0.5,1,1,0\r\n", "event_id '005' is not in the form hepbell writes"),
            (5, b"+5,0.5,+1,1,0\r\n", "detected_1 '+1' is not 0 or 1"),
            (5, b" 5 , 0.5 ,1, 1 ,0 \r\n", "detected_2 ' 1 ' is not 0 or 1"),
            (5, b"5,0.50,1,1,0\r\n", None),
            (5, b"5,5e-1,1,1,0\r\n", "phi '5e-1' is not in the form hepbell writes"),
            (5, b"5,0.,1,1,0\r\n", "phi '0.' is not in the form hepbell writes"),
            (5, b"5,0.5,1,1,0\n", None),
            (
                5,
                b"5,0.0001234567891,1,1,0\r\n",
                "phi '0.0001234567891' is not in the form hepbell writes",
            ),
            (13, b"13,0.5,1,1,0", "no line end after the last row"),
        ],
        ids=[
            "leading-zeros", "plus-signs", "spaces", "trailing-zero", "exponent", "bare-point",
            "lf-only", "phi-15-bytes", "no-final-line-end",
        ],
    )
    def test_forms_the_writer_never_writes_read_as_loadtxt_reads_them(
        self, tmp_path, monkeypatch, line_parser_calls, row, line, message
    ):
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 4)
        rows = [b"%d,0.%d,1,%d,0\r\n" % (i, i + 1, i % 2) for i in range(14)]
        rows[row] = line
        path = tmp_path / "events.csv"
        path.write_bytes(HEADER_BYTES + b"".join(rows))
        if message is None:
            assert [len(chunk) for chunk in iter_events_csv(path)] == [4, 4, 4, 2]
            assert line_parser_calls == []
            sample = read_events_csv(path)
            assert_same_events(sample, reference_read_events_csv(path))
            assert_reads_as_loadtxt(sample, b"".join(rows))
        else:
            with pytest.raises(ValueError) as raised:
                read_events_csv(path)
            assert str(raised.value) == f"{path}, line {row + 2}: {message}"
            assert line_parser_calls == [row // 4 * 4]

    def test_a_fault_the_messages_do_not_explain_is_still_named(self, tmp_path, monkeypatch):
        path = tmp_path / "events.csv"
        path.write_bytes(event_file_bytes(6))
        canonical_chunk = mesonlab._canonical_chunk

        def refusing_row_3(run, first_id, scratch):
            if b"\n3,0.4,1,1,0\r\n" in b"\n" + run.tobytes():
                return None
            return canonical_chunk(run, first_id, scratch)

        monkeypatch.setattr(mesonlab, "_canonical_chunk", refusing_row_3)
        with pytest.raises(ValueError) as raised:
            read_events_csv(path)
        assert str(raised.value) == f"{path}, line 5: not an event row as hepbell writes it"


class TestStreamedEvents:
    @pytest.mark.parametrize("chunk_rows", [1, 5, 7, 21, 22])
    def test_streamed_read_matches_whole_read(self, tmp_path, monkeypatch, chunk_rows):
        path = tmp_path / "events.csv"
        path.write_bytes(event_file_bytes(21))
        whole = read_events_csv(path)
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", chunk_rows)
        full, rest = divmod(21, chunk_rows)
        # Read blocks of 16 bytes cut most rows and chunks across two blocks.
        for block in (mesonlab._READ_BLOCK, 16):
            monkeypatch.setattr(mesonlab, "_READ_BLOCK", block)
            sizes = [len(chunk) for chunk in iter_events_csv(path)]
            assert sizes == [chunk_rows] * full + [rest] * (rest > 0)
            assert_same_events(read_events_csv(path), whole)
        assert_same_events(whole, reference_read_events_csv(path))

    def test_header_only_file_is_one_empty_chunk(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(HEADER_BYTES)
        assert [len(chunk) for chunk in iter_events_csv(path)] == [0]
        assert len(read_events_csv(path)) == 0

    @pytest.mark.parametrize("ending", [b"", b"\r"])
    def test_header_without_line_end_is_refused(self, tmp_path, ending):
        path = tmp_path / "events.csv"
        path.write_bytes(HEADER_BYTES.rstrip(b"\r\n") + ending)
        message = "no line end after the header" if not ending else "carriage return"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 1: {message}"):
            read_events_csv(path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 1: {message}"):
            estimate_probability(path)

    def test_fault_after_yielded_chunks_still_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 4)
        path = tmp_path / "events.csv"
        path.write_bytes(event_file_bytes(10) + b"\r\n")
        chunks = iter_events_csv(path)
        # The chunk that holds the blank line is not yielded.
        assert [len(next(chunks)) for _ in range(2)] == [4, 4]
        with pytest.raises(ValueError, match=", line 12: blank line"):
            next(chunks)

    def test_fault_in_the_last_row_is_named_from_its_chunk(
        self, tmp_path, monkeypatch, line_parser_calls
    ):
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 4)
        path = tmp_path / "events.csv"
        path.write_bytes(event_file_bytes(10).replace(b"\r\n9,", b"\r\nx9,"))
        with pytest.raises(ValueError) as raised:
            read_events_csv(path)
        assert str(raised.value) == f"{path}, line 11: event_id 'x9' is not a 64-bit integer"
        assert line_parser_calls == [8]


def traced_peak_from_second_call(monkeypatch, name, run):
    """The peak of the memory tracemalloc traces while ``run()`` runs, numpy's
    arrays among it, above what it held when ``mesonlab.<name>`` was called
    the second time."""
    original, calls, held = getattr(mesonlab, name), [], []

    def second_call_resets_the_peak(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(mesonlab, name, second_call_resets_the_peak)
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] - held[0]
    finally:
        tracemalloc.stop()


class TestChunkBuffers:
    """Each process allocates its chunk buffers once.  After the first chunk,
    counting or writing one allocates a bounded amount, whatever the number
    of chunks: 0.9 MB to count and 1.4 MB to draw and write here, where
    buffers made anew for every chunk took 3.9-4.4 MB and 2.7 MB."""

    DET = DetectorModel(eta_1=0.9, eta_2=0.9, background_fraction=0.02)

    @pytest.mark.parametrize("estimator", ["estimate", "chtest"])
    @pytest.mark.parametrize("chunks", [3, 12])
    def test_counting_a_chunk_allocates_a_bounded_amount(
        self, tmp_path, monkeypatch, estimator, chunks
    ):
        monkeypatch.setattr(_workers, "_usable_cores", lambda: 1)  # in this process
        path = tmp_path / "events.csv"
        n = chunks * mesonlab._CSV_CHUNK_ROWS
        write_events_csv(generate_events(n, self.DET, seed=7, workers=2), path)
        derive_kappa()  # cached before, so that its arrays are not counted
        run = {
            "estimate": lambda: estimate_probability(path),
            "chtest": lambda: ch_from_events(path, OPTIMAL, self.DET),
        }[estimator]
        peak = traced_peak_from_second_call(monkeypatch, "_canonical_chunk", run)
        assert peak < 1.25e6

    @pytest.mark.parametrize("chunks", [3, 12])
    def test_drawing_and_writing_a_chunk_allocates_a_bounded_amount(
        self, monkeypatch, chunks
    ):
        monkeypatch.setattr(_workers, "_usable_cores", lambda: 1)
        n = chunks * mesonlab._CSV_CHUNK_ROWS

        def write():
            rows = mesonlab.generate_event_chunks(n, self.DET, seed=7, workers=2)
            write_events_csv(rows, os.devnull)

        assert traced_peak_from_second_call(monkeypatch, "generate_events", write) < 2.25e6


def assert_no_child():
    """Every process the test started has ended and been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestProcessSplit:
    """The chunk loops split over 1, 2 or 3 processes (the ``forced_split``
    fixture), at sizes below the threshold.  The estimators count an event
    file's chunks in every process; ``iter_events_csv`` reads in one."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunks_do_not_depend_on_the_split(self, tmp_path, monkeypatch, forced_split, workers):
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 7)
        # 66 rows is no multiple of the chunk, the boundaries between the
        # Philox streams (33; 22 and 44) fall inside chunks, and the ids
        # reach two digits inside chunk 1.
        n = 9 * 7 + 3
        det = DetectorModel(eta_1=0.9, eta_2=0.8, background_fraction=0.1)
        path = tmp_path / "events.csv"
        write_events_csv(generate_events(n, det, seed=5, workers=workers), path)
        whole = reference_read_events_csv(path)
        window = np.pi / 4
        expected = estimate_probability(whole), ch_from_events(whole, OPTIMAL, det, window=window)
        for processes in (1, 2, 3):
            forked = forced_split(processes)
            assert [len(chunk) for chunk in iter_events_csv(path)] == [7] * 9 + [3]
            assert_same_events(read_events_csv(path), whole)
            assert forked == []
            counted = estimate_probability(path), ch_from_events(path, OPTIMAL, det, window=window)
            assert counted[0].to_dict() == expected[0].to_dict()
            assert counted[1].to_dict() == expected[1].to_dict()
            assert forked == list(range(1, processes)) * 2
            assert_no_child()

    @pytest.mark.parametrize("stop", ["close", "drop"])
    @pytest.mark.parametrize("source", ["generate", "read"])
    def test_consumer_that_stops_early_leaves_no_process(
        self, tmp_path, monkeypatch, forced_split, source, stop
    ):
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 7)
        path = tmp_path / "events.csv"
        write_events_csv(generate_events(100, seed=2), path)
        forked = forced_split(3)
        if source == "read":
            chunks = iter_events_csv(path)
        else:
            chunks = mesonlab.generate_event_chunks(100, seed=2)
        next(chunks)
        next(chunks)  # generate's workers start with the second chunk
        assert forked == ([1, 2] if source == "generate" else [])
        if stop == "close":
            chunks.close()
        else:
            del chunks
        assert_no_child()

    @pytest.mark.parametrize("processes", [2, 3])
    def test_count_that_fails_in_every_process_ends_the_workers(
        self, tmp_path, monkeypatch, forced_split, processes
    ):
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 7)
        path = tmp_path / "events.csv"
        write_events_csv(generate_events(100, seed=2), path)

        def failing(sample):
            if len(sample):
                raise ArithmeticError(f"no count for {len(sample)} rows")
            return np.zeros(2, dtype=np.int64)

        forked = forced_split(processes)
        with pytest.raises(ArithmeticError, match="no count for 7 rows"):
            mesonlab._event_counts(path, failing)
        assert forked == list(range(1, processes))
        assert_no_child()

    def test_interrupt_in_this_process_ends_the_workers(self, tmp_path, monkeypatch, forced_split):
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 7)
        path = tmp_path / "events.csv"
        write_events_csv(generate_events(100, seed=2), path)

        def interrupted():
            # Called in this process once the file is cut, while the
            # worker parses.
            raise KeyboardInterrupt

        monkeypatch.setattr(mesonlab, "derive_kappa", interrupted)
        forked = forced_split(2)
        with pytest.raises(KeyboardInterrupt):
            estimate_probability(path)
        assert forked == [1]
        assert_no_child()

    def test_reads_in_one_process_while_another_thread_runs(
        self, tmp_path, monkeypatch, forced_split
    ):
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 7)
        path = tmp_path / "events.csv"
        write_events_csv(generate_events(100, seed=2), path)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            forked = forced_split(2)
            estimate = estimate_probability(path)
        finally:
            release.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert forked == []
        reference = estimate_probability(reference_read_events_csv(path))
        assert estimate.to_dict() == reference.to_dict()

    def test_fifo_reads_in_one_process(self, tmp_path, monkeypatch, forced_split):
        monkeypatch.setattr(mesonlab, "_CSV_CHUNK_ROWS", 7)
        path, fifo = tmp_path / "events.csv", tmp_path / "events.fifo"
        write_events_csv(generate_events(100, seed=2), path)
        os.mkfifo(fifo)
        # The writer is a process: a second thread alone would keep the read
        # in one process.
        copy = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
        writer = subprocess.Popen([sys.executable, "-c", copy, str(path), str(fifo)])
        try:
            forked = forced_split(2)
            estimate = estimate_probability(fifo)
            assert writer.wait(timeout=60) == 0
        finally:
            writer.kill()  # nothing to do once it has been reaped
            writer.wait()
        assert forked == []
        reference = estimate_probability(reference_read_events_csv(path))
        assert estimate.to_dict() == reference.to_dict()
        assert_no_child()
