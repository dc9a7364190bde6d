"""Experimental scheme for the charmonium -> two-vector-meson test.

Covers the transverse entangled state, the azimuthal-angle density between
the two decay planes, reproducible Monte Carlo event generation with a
detector model, the histogram probability estimator, the event-based CH
evaluation and the detection-efficiency threshold.
"""

from __future__ import annotations

import io
import math
import os
import pickle
import re
import signal
import stat
import threading
from collections.abc import Callable, Iterable, Iterator
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .qcore import Projector, StateVector, born_probability
from .reports import InequalityReport, make_report

TWO_PI = 2.0 * math.pi

DEFAULT_BIN_COUNT = 64

# ch_from_events reads windows centered on the setting differences.  The
# window-average bias at the paper settings grows as width**2.5 * sqrt(N) in
# units of the statistical error.  With eta = 0.9 this default keeps it near
# 0.12 sigma at 1e7 events, but `chtest` passes its `bin_width` (2*pi/64),
# whose bias is 0.70 sigma at 1e7 and 2.2 sigma at 1e8 (ROADMAP item 2).
DEFAULT_CH_WINDOW = TWO_PI / 128


class NoData(ValueError):
    """No detected coincidences to estimate from."""


class InsufficientStatistics(ValueError):
    """A histogram bin required by the evaluation is empty."""

    def __init__(self, message: str, bin_phi: float, bin_width: float):
        super().__init__(message)
        self.bin_phi = bin_phi
        self.bin_width = bin_width


def transverse_state() -> StateVector:
    """Antisymmetric transverse-polarization state of the two vector mesons."""
    amps = np.array([0.0, 1.0, -1.0, 0.0], dtype=np.complex128) / np.sqrt(2.0)
    return StateVector((2, 2), amps, (("x", "y"), ("x", "y")))


def _transverse_projector(theta: float) -> Projector:
    return Projector.onto(np.array([math.cos(theta), math.sin(theta)]))


def joint_direction_probability(theta_1: float, theta_2: float) -> float:
    """Born probability that the two sides project onto the given directions."""
    return born_probability(
        transverse_state(), [_transverse_projector(theta_1), _transverse_projector(theta_2)]
    )


def angular_density(phi):
    """Normalized density of the angle between decay planes: sin^2(phi)/pi."""
    return np.sin(phi) ** 2 / math.pi


@lru_cache(maxsize=1)
def derive_kappa() -> float:
    """Normalization constant relating the joint probability to the density.

    kappa = integral over [0, 2*pi) of the joint direction probability at
    relative angle phi, computed by periodic quadrature on the transverse
    state rather than hard-coded; evaluates to pi/2.
    """
    n_points = 2048
    grid = np.arange(n_points) * (TWO_PI / n_points)
    state = transverse_state()
    reference = _transverse_projector(0.0)
    # math.cos/sin, as _transverse_projector uses: np.cos can differ in the last bit.
    directions = [(math.cos(phi), math.sin(phi)) for phi in grid.tolist()]
    values = [
        born_probability(state, [reference, projector])
        for projector in Projector.onto_each(directions)
    ]
    return float(np.sum(values) * (TWO_PI / n_points))


def _core_inverse_knots(m: np.ndarray) -> np.ndarray:
    """Bisection for x - sin(x) = m on [0, pi], every knot of the table at once."""
    lo, hi = np.zeros_like(m), np.full_like(m, math.pi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = mid - np.sin(mid) < m
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


_CORE_KNOTS_M = np.linspace(0.0, math.pi, 257)
_CORE_KNOTS_X = _core_inverse_knots(_CORE_KNOTS_M)
# The interval slopes as np.interp computes them, and a 0 for m = pi, which
# lies on the last knot.
_CORE_SLOPES = np.append(np.diff(_CORE_KNOTS_X) / np.diff(_CORE_KNOTS_M), 0.0)
_CORE_KNOTS_PER_M = (_CORE_KNOTS_M.size - 1) / math.pi


def _interp_knots(m: np.ndarray) -> np.ndarray:
    """``np.interp(m, _CORE_KNOTS_M, _CORE_KNOTS_X)`` bit for bit, m in [0, pi].

    The knots are nearly uniform, so index arithmetic finds the interval in
    place of a binary search.  Every knot k scales to at least k, and
    rounding is monotone, so the index is never below the interval; where it
    is one above, m lies below its knot.  The value is then np.interp's
    arithmetic.
    """
    j = np.minimum((m * _CORE_KNOTS_PER_M).astype(np.intp), _CORE_KNOTS_M.size - 1)
    j -= m < _CORE_KNOTS_M[j]
    return _CORE_SLOPES[j] * (m - _CORE_KNOTS_M[j]) + _CORE_KNOTS_X[j]


def _newton_step(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    g = x - np.sin(x) - m
    dg = 1.0 - np.cos(x)
    step = np.where(dg > 1e-30, g / np.maximum(dg, 1e-300), 0.0)
    return np.clip(x - step, 0.0, math.pi)


def _core_inverse(m: np.ndarray) -> np.ndarray:
    """Solve x - sin(x) = m on [0, pi] by seeded, clipped Newton iterations.

    The seed interpolates a table of knots, switched to the cube-root
    expansion where the inverse has a vertical tangent at m = 0.  Four
    Newton steps bring the residual in m to machine precision everywhere.
    A step is a function of x alone, so a row that one step left unchanged
    stays unchanged: only the rows still moving after the third step take
    the fourth.
    """
    x = _interp_knots(m)
    near_zero = np.flatnonzero(m < _CORE_KNOTS_M[1])
    x[near_zero] = np.cbrt(6.0 * m[near_zero])
    for _ in range(3):
        previous, x = x, _newton_step(x, m)
    moving = np.flatnonzero(x != previous)
    x[moving] = _newton_step(x[moving], m[moving])
    return x


def _invert_signal_cdf(u: np.ndarray) -> np.ndarray:
    """Deterministic inverse of the signal CDF.

    In terms of x = 2*phi the CDF equation reads x - sin(x) = 4*pi*u, solved
    on the core interval via :func:`_core_inverse` and extended by the exact
    symmetries x(m + 2*pi) = x(m) + 2*pi and x(2*pi - m) = 2*pi - x(m).
    """
    m_total = 4.0 * math.pi * np.asarray(u, dtype=np.float64)
    k = np.floor(m_total / TWO_PI)
    t = m_total - TWO_PI * k
    upper = t > math.pi
    x_core = _core_inverse(np.where(upper, TWO_PI - t, t))
    x = np.where(upper, TWO_PI - x_core, x_core) + TWO_PI * k
    return np.minimum(0.5 * x, np.nextafter(TWO_PI, 0.0))


@dataclass(frozen=True)
class DetectorModel:
    """Per-side efficiencies, uniform background fraction and the product of
    the two reconstructed branching fractions."""

    eta_1: float = 1.0
    eta_2: float = 1.0
    background_fraction: float = 0.0
    br_weight: float = 1.0

    def __post_init__(self):
        for name in ("eta_1", "eta_2", "background_fraction", "br_weight"):
            value = float(getattr(self, name))
            if not (0.0 <= value <= 1.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be in [0, 1], got {value}")
            object.__setattr__(self, name, value)

    def side_detection_probability(self, side: int) -> float:
        """Bernoulli probability that one side is reconstructed.

        br_weight is the product of both branching fractions, so each side
        carries sqrt(br_weight); coincidences then scale with br_weight once.
        """
        eta = self.eta_1 if side == 1 else self.eta_2
        return eta * math.sqrt(self.br_weight)


def effective_statistics(n_produced: int, det: DetectorModel) -> float:
    """Expected fully reconstructed coincidences: n * br_weight * eta1 * eta2."""
    return float(n_produced) * det.br_weight * det.eta_1 * det.eta_2


class EventSample:
    """Immutable column-oriented event collection: per event the plane angle,
    the detection on each side and the background truth tag."""

    def __init__(
        self,
        phi: np.ndarray,
        detected_1: np.ndarray,
        detected_2: np.ndarray,
        is_background: np.ndarray,
    ):
        self.phi = np.asarray(phi, dtype=np.float64)
        self.detected_1 = np.asarray(detected_1, dtype=bool)
        self.detected_2 = np.asarray(detected_2, dtype=bool)
        self.is_background = np.asarray(is_background, dtype=bool)
        sizes = {a.size for a in (self.phi, self.detected_1, self.detected_2, self.is_background)}
        if len(sizes) != 1:
            raise ValueError("event columns have mismatched lengths")
        # Phrased so that NaN, whose comparisons are all false, fails too.
        if self.phi.size and not (self.phi.min() >= 0.0 and self.phi.max() < TWO_PI):
            raise ValueError("phi must be finite and lie in [0, 2*pi)")
        for arr in (self.phi, self.detected_1, self.detected_2, self.is_background):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return int(self.phi.size)

    @property
    def coincidence_mask(self) -> np.ndarray:
        return self.detected_1 & self.detected_2


def _philox_stream(seed: int, worker: int, offset: int) -> np.random.Generator:
    """Worker ``worker``'s Philox stream, positioned ``offset`` doubles in.

    Philox is counter-based: each counter value yields four doubles, so
    ``advance`` jumps to any block and the remainder is drawn and dropped.
    """
    bit_generator = np.random.Philox(key=np.array([seed, worker], dtype=np.uint64))
    bit_generator.advance(offset // 4)
    rng = np.random.Generator(bit_generator)
    rng.random(offset % 4)
    return rng


def generate_events(
    n: int,
    det: DetectorModel | None = None,
    seed: int = 0,
    workers: int = 1,
    start: int = 0,
    stop: int | None = None,
) -> EventSample:
    """Simulate decays ``start`` to ``stop`` (default ``n``) of an ``n``-decay
    sample with the given detector model.

    Signal angles follow sin^2(phi)/pi (drawn by CDF inversion), background
    angles are uniform, and each side is reconstructed independently.
    Randomness comes from numpy's Philox (4x64, 10 rounds) counter-based
    generator; worker ``w`` of ``workers`` handles a contiguous index range
    of ``count`` events with its own stream keyed by (seed, w), whose draws
    are, in order, ``count`` background flags, ``count`` angles, then the two
    detection flags.  Identical (seed, n, workers) therefore reproduce
    bit-identical samples, and any row range is the matching slice of the
    whole sample.

    Each segment is entered at the range's first row and read in chunks of
    ``_CSV_CHUNK_ROWS`` draws, so memory beyond the 11-byte-per-event result
    is bounded by one chunk.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if seed < 0 or seed >= 2**64:
        raise ValueError("seed must be a non-negative 64-bit integer")
    stop = n if stop is None else stop
    if not 0 <= start < stop <= n:
        raise ValueError(f"rows [{start}, {stop}) are not a non-empty range of [0, {n})")
    det = det or DetectorModel()
    p_1 = det.side_detection_probability(1)
    p_2 = det.side_detection_probability(2)

    phi = np.empty(stop - start, dtype=np.float64)
    detected_1 = np.empty(stop - start, dtype=bool)
    detected_2 = np.empty(stop - start, dtype=bool)
    is_background = np.empty(stop - start, dtype=bool)
    base, remainder = divmod(n, workers)
    first = 0
    for w in range(workers):
        count = base + (1 if w < remainder else 0)
        lo, hi = max(start, first), min(stop, first + count)
        if lo < hi:
            # Background, angle, detection-1 and detection-2 segments.
            streams = [
                _philox_stream(seed, w, segment * count + lo - first) for segment in range(4)
            ]
            for at in range(lo, hi, _CSV_CHUNK_ROWS):
                k = min(_CSV_CHUNK_ROWS, hi - at)
                u_bg, u_phi, u_d1, u_d2 = (rng.random(k) for rng in streams)
                out = slice(at - start, at - start + k)
                is_bg = u_bg < det.background_fraction
                is_background[out] = is_bg
                phi[out] = np.where(is_bg, TWO_PI * u_phi, _invert_signal_cdf(u_phi))
                detected_1[out] = u_d1 < p_1
                detected_2[out] = u_d2 < p_2
        first += count
    return EventSample(phi, detected_1, detected_2, is_background)


def generate_event_chunks(
    n: int, det: DetectorModel | None = None, seed: int = 0, workers: int = 1
) -> Iterator[bytes]:
    """The event file rows of ``generate_events(n, det, seed, workers)``, in
    order, ``_CSV_CHUNK_ROWS`` at a time, each drawn and formatted when it is
    due, for :func:`write_events_csv` to write.

    The first chunk is drawn before this returns, so a bad configuration
    raises here.  An error in a later draw is raised where its chunk is due,
    and no chunk after it is written.  In one process no chunk after it is
    drawn either; from ``_SPLIT_MIN_ROWS`` rows on the chunks are split over
    processes (:func:`_in_processes`), and chunks after a failed one may
    already have been drawn.
    """

    def rows(start: int) -> bytes:
        sample = generate_events(
            n, det, seed=seed, workers=workers, start=start, stop=min(start + _CSV_CHUNK_ROWS, n)
        )
        return _csv_rows(
            start, sample.phi, sample.detected_1, sample.detected_2, sample.is_background
        )

    # An n below 1 still draws chunk 0, where generate_events rejects it.
    starts = range(0, max(n, 1), _CSV_CHUNK_ROWS)
    chunks = _in_processes(starts, rows, _processes(n), lambda: starts)
    first = next(chunks)

    # Not itertools.chain: closing this generator closes ``chunks``, which
    # ends the workers.
    def in_order() -> Iterator[bytes]:
        yield first
        yield from chunks

    return in_order()


def _samples(events: EventSample | Iterable[EventSample]) -> Iterable[EventSample]:
    """One sample, or the chunks of a sample in order, as an iterable of samples."""
    return (events,) if isinstance(events, EventSample) else events


@dataclass(frozen=True)
class HistogramEstimate:
    """Density-normalized histogram of the plane angle for detected events.

    p_hat = kappa * count / (N * bin_width) per half-open bin, with Poisson
    errors; N is the number of detected coincidences, so the p_hat values
    integrate to kappa exactly.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    p_hat: np.ndarray
    stat_err: np.ndarray
    kappa: float

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    def bin_index(self, phi: float) -> int:
        return int(math.floor((phi % TWO_PI) / self.bin_width))

    def value_at(self, phi: float) -> tuple[float, float]:
        idx = self.bin_index(phi)
        return float(self.p_hat[idx]), float(self.stat_err[idx])

    def to_dict(self) -> dict:
        return {
            "bin_edges": [float(v) for v in self.bin_edges],
            "counts": [int(v) for v in self.counts],
            "p_hat": [float(v) for v in self.p_hat],
            "stat_err": [float(v) for v in self.stat_err],
            "kappa": self.kappa,
        }


def _checked_width(width: float) -> float:
    """A histogram bin or CH window width, which must lie in (0, 2*pi]."""
    if not 0.0 < width <= TWO_PI:  # NaN fails too
        raise ValueError(f"bin width {width} is not in (0, 2*pi]")
    return width


def estimate_probability(
    events: EventSample | Iterable[EventSample], bin_width: float = TWO_PI / DEFAULT_BIN_COUNT
) -> HistogramEstimate:
    """Histogram estimator of the joint probability versus plane angle.

    ``events`` may be one sample or its chunks: the integer counts are summed
    over the chunks and ``kappa`` and the scale applied once, so the estimate
    does not depend on how the sample is split.
    """
    n_bins = round(TWO_PI / _checked_width(bin_width))
    if n_bins < 1 or abs(TWO_PI - n_bins * bin_width) > 1e-9:
        raise ValueError(f"bin_width {bin_width} does not divide 2*pi within 1e-9")
    edges = np.linspace(0.0, TWO_PI, n_bins + 1)
    counts = np.zeros(n_bins, dtype=np.int64)
    n_detected = 0
    for sample in _samples(events):
        phis = sample.phi[sample.coincidence_mask]
        counts += np.histogram(phis, bins=edges)[0]
        n_detected += int(phis.size)
    if n_detected == 0:
        raise NoData("no detected coincidences in the event sample")
    kappa = derive_kappa()
    scale = kappa / (n_detected * bin_width)
    p_hat = counts * scale
    stat_err = np.sqrt(counts) * scale
    return HistogramEstimate(
        bin_edges=edges, counts=counts, p_hat=p_hat, stat_err=stat_err, kappa=kappa
    )


def _window_count(phis: np.ndarray, center: float, width: float) -> int:
    lo = (center - 0.5 * width) % TWO_PI
    hi = (lo + width) % TWO_PI
    if lo < hi:
        return int(np.count_nonzero((phis >= lo) & (phis < hi)))
    return int(np.count_nonzero((phis >= lo) | (phis < hi)))


def ch_from_events(
    events: EventSample | Iterable[EventSample],
    settings: tuple[float, float, float, float],
    det: DetectorModel | None = None,
    window: float = DEFAULT_CH_WINDOW,
) -> InequalityReport:
    """Event-based CH evaluation at passive (relative-angle) settings.

    The four joint terms are read from the angle histogram in windows
    centered on the setting differences; the singles are the analytic 1/2
    per side.  Because decay directions cannot be chosen, only this
    restricted class of local models is being tested.  The reported value is
    efficiency-scaled,

        S = eta1*eta2*(joint combination) - (eta1 + eta2)/2,

    so branching fractions thin the sample but do not change S.  ``events``
    may be one sample or its chunks, whose window counts are summed.
    """
    window = _checked_width(window)
    det = det or DetectorModel()
    t1, t1p, t2, t2p = (float(v) for v in settings)
    if not all(map(math.isfinite, (t1, t1p, t2, t2p))):
        raise ValueError(f"settings must be finite, got {[t1, t1p, t2, t2p]}")
    diffs = [
        ("P(n1,n2)", t2 - t1, 1.0),
        ("P(n1,n2')", t2p - t1, -1.0),
        ("P(n1',n2)", t2 - t1p, 1.0),
        ("P(n1',n2')", t2p - t1p, 1.0),
    ]
    # The four joints must come from disjoint histogram windows so their
    # Poisson errors are independent.
    centers = [d % TWO_PI for _, d, _ in diffs]
    for a in range(len(centers)):
        for b in range(a + 1, len(centers)):
            gap = abs(centers[a] - centers[b])
            if min(gap, TWO_PI - gap) < window - 1e-12:
                raise ValueError(
                    "settings must give four distinct angle differences "
                    "(mod 2*pi), separated by at least one window width"
                )

    counts = [0] * len(diffs)
    n_detected = 0
    for sample in _samples(events):
        phis = sample.phi[sample.coincidence_mask]
        n_detected += int(phis.size)
        for i, center in enumerate(centers):
            counts[i] += _window_count(phis, center, window)
    if n_detected == 0:
        raise NoData("no detected coincidences in the event sample")
    kappa = derive_kappa()
    scale = kappa / (n_detected * window)

    terms, errors, signs = [], [], []
    for (label, _, sign), center, count in zip(diffs, centers, counts):
        if count == 0:
            raise InsufficientStatistics(
                f"empty histogram window for {label} at phi={center:.6f} "
                f"(width {window:.6f})",
                bin_phi=center,
                bin_width=window,
            )
        terms.append((label, count * scale))
        errors.append(math.sqrt(count) * scale)
        signs.append(sign)

    joint = sum(sign * value for sign, (_, value) in zip(signs, terms))
    joint_err = math.sqrt(sum(e * e for e in errors))
    singles_1 = 0.5 * det.eta_1
    singles_2 = 0.5 * det.eta_2
    value = det.eta_1 * det.eta_2 * joint - (singles_1 + singles_2)
    stat_err = det.eta_1 * det.eta_2 * joint_err

    terms += [("P(n1')", singles_1), ("P(n2)", singles_2)]
    errors += [0.0, 0.0]
    return make_report(terms, value, term_errors=errors, stat_err=stat_err)


@lru_cache(maxsize=1)
def _max_joint_combination() -> float:
    """Maximum of the signed joint combination over settings: 1 + max CH value."""
    # Imported here, so that the event commands load neither spin1 nor the search.
    from .spin1 import maximize_ch_vv

    _, best = maximize_ch_vv()
    return best + 1.0


def max_s_of_eta(eta: float, joint_max: float | None = None) -> float:
    """Largest reachable efficiency-scaled CH value at symmetric efficiency."""
    c = _max_joint_combination() if joint_max is None else float(joint_max)
    return eta * eta * c - eta


def efficiency_threshold(search_tol: float = 1e-9, joint_max: float | None = None) -> float:
    """Smallest symmetric efficiency at which the CH test can still violate.

    Bisection on eta of max_S(eta) = eta^2 * C - eta with C the
    setting-optimized joint combination; analytically 2(sqrt(2)-1) for the
    transverse state.  Capping the joints at the classical bound (C <= 1)
    makes violation impossible, reported as threshold 1.0.
    """
    if not math.isfinite(search_tol):
        raise ValueError(f"search_tol must be finite, got {search_tol!r}")
    if search_tol < 1e-9:
        raise ValueError("search_tol must be >= 1e-9")
    c = _max_joint_combination() if joint_max is None else float(joint_max)
    if c <= 1.0:
        return 1.0
    lo, hi = 1e-6, 1.0  # S(lo) < 0 and S(1) = C - 1 > 0
    while hi - lo > search_tol:
        mid = 0.5 * (lo + hi)
        if max_s_of_eta(mid, c) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


CSV_HEADER = ["event_id", "phi", "detected_1", "detected_2", "is_background"]
# Events per chunk when they are drawn, written and read.  Measured at 1e6
# events, `generate` peaks at 46 MiB with 65 536 rows and 38 MiB with 16 384
# (30 MiB of that is the interpreter and numpy), in the same time.
_CSV_CHUNK_ROWS = 16_384
# The largest 9-significant-digit token below 2*pi.  Every phi at or above it
# would otherwise be written as 6.28318531, which reads back as >= 2*pi.
_PHI_TOKEN_MAX = 6.2831853
# Bytes of the phi field: "4.94065646e-324" is the widest "%.9g" token of a
# float in [0, 2*pi).
_PHI_WIDTH = 15
# Decade thresholds of phi in [1e-4, 10).  No double lies in [10**-j,
# double(10**-j)), so comparing against them is exact.
_PHI_DECADES = np.array([1e-3, 1e-2, 1e-1, 1.0])
# For phi in [10**e, 10**(e + 1)), j = e + 4: 10**(12 - j) scales phi to its
# 9 significant digits, and 10**j those digits to phi * 10**12.  Every power
# is exact.
_PHI_TO_MANTISSA = np.array([1e12, 1e11, 1e10, 1e9, 1e8])
_MANTISSA_TO_FIXED = 1e12 / _PHI_TO_MANTISSA
# An integer field, once surrounding whitespace is stripped: sign, leading
# zeros, then at most the 19 digits of an int64 (also below the digit limit
# of Python's int()).
_INTEGER_TOKEN = re.compile(r"([+-]?)0*([0-9]{1,19})")
_CSV_HEADER_BYTES = ",".join(CSV_HEADER).encode("ascii")
# iter_events_csv reads the file in blocks of this many bytes.
_READ_BLOCK = 1 << 20
# The widest phi token the canonical reader parses: one digit, the point and
# 12 decimals, as "%.9g" writes phi in [1e-4, 1e-3).  Column k of its
# window holds byte k - 1 of phi, column 0 the comma before it.
_PHI_FIXED_WIDTH = 14
_PHI_WINDOW = np.arange(_PHI_FIXED_WIDTH + 1)
# The weight of each phi byte in phi * 10**12; the point weighs nothing.
_PHI_DIGIT_WEIGHTS = np.array([1e12, 0.0] + [10.0**k for k in range(11, -1, -1)])
# The 6 bytes between phi and the line end, ",f,f,f": OR-ing 1 into a flag
# byte gives "1" exactly for "0" and "1".
_ROW_TAIL = np.frombuffer(b",1,1,1", dtype=np.uint8)
_ROW_TAIL_FLAGS = np.frombuffer(b"\0\1\0\1\0\1", dtype=np.uint8)
# The event commands split their chunk loops over processes from this many
# rows on.  Below it, a fork with its pipe and reap (about 2.3 ms) costs more
# than the second core saves.
_SPLIT_MIN_ROWS = 4 * 16_384
# The bytes of a row as hepbell writes it, with an id of up to five digits:
# the reader judges how many rows a file holds by its size.
_ROW_BYTES = 24
# The tags of a worker's messages: a chunk, or the exception its task raised.
_RESULT, _ERROR = b"r", b"e"
# The size asked for each worker's pipe: a formatted chunk of 16 384 rows
# takes about 0.4 MB, a parsed one 0.18 MB.  Measured at 1e6 events on 2
# cores, it saves about 10 % of `generate` against the default 64 KiB.
_PIPE_BYTES = 1 << 20


class WorkerExited(ChildProcessError):
    """A worker process ended before it sent a chunk that was due."""


def _usable_cores() -> int:
    """The cores this process may run on; 1 where the platform cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _processes(rows: int) -> int:
    """How many processes share the chunks of ``rows`` rows: the usable
    cores, at most one per chunk.  One below ``_SPLIT_MIN_ROWS`` rows, and
    while another thread runs, because a forked copy holds only the calling
    thread and whatever locks the others held."""
    if rows < _SPLIT_MIN_ROWS or threading.active_count() > 1:
        return 1
    return min(_usable_cores(), -(-rows // _CSV_CHUNK_ROWS))


def _in_processes(
    tasks: Iterable,
    work: Callable,
    processes: int,
    worker_tasks: Callable[[], Iterable],
    encode: Callable[..., bytes] = bytes,
    decode: Callable[[bytes], object] = bytes,
) -> Iterator:
    """``work(task)`` for each of ``tasks``, in order, with task i done by
    process ``i % processes``: this one for 0, and forked workers for the
    others.

    The workers are forked once the first result has been yielded.  Each
    walks its own ``worker_tasks()``, the same sequence as ``tasks``, and
    sends ``encode(work(task))`` for its own tasks through a pipe, which
    holds it until this process reads it as its result is due.  An exception
    in a worker's walk or task is sent in its result's place and raised here,
    with the same type and text, where that result is due; the worker then
    stops.  A worker ends only by ``os._exit``, so no ``finally`` of the
    caller's frames runs in its copy.  However this generator ends, by its
    last result, an exception or ``close``, it closes the pipes and kills and
    reaps every worker.
    """
    workers: list[tuple[int, io.BufferedReader]] = []
    try:
        for i, task in enumerate(tasks):
            if i == 1:
                for rank in range(1, processes):
                    workers.append(_start_worker(rank, processes, worker_tasks, work, encode))
            rank = i % processes
            yield work(task) if rank == 0 else decode(_receive(*workers[rank - 1], i))
    finally:
        for pid, reader in workers:
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _start_worker(
    rank: int,
    processes: int,
    tasks: Callable[[], Iterable],
    work: Callable,
    encode: Callable[..., bytes],
) -> tuple[int, io.BufferedReader]:
    """Fork worker ``rank`` of :func:`_in_processes`; its pid and the read
    end of its pipe."""
    # Imported here: fcntl is POSIX only, as the split is, and mesonlab is not.
    import fcntl

    read_fd, write_fd = os.pipe()
    try:
        # Room for two chunks, so that a worker rarely waits to send one.
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except OSError:
        pass  # over the user's pipe quota: the default size works, more slowly
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as out:
                try:
                    for i, task in enumerate(tasks()):
                        if i % processes == rank:
                            _send(out, _RESULT, encode(work(task)))
                except Exception as exc:  # raised in the parent where it is due
                    _send(out, _ERROR, _pickled(exc))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _send(out: io.BufferedWriter, tag: bytes, payload: bytes) -> None:
    out.write(tag + len(payload).to_bytes(8, "little"))
    out.write(payload)
    out.flush()


def _pickled(exc: Exception) -> bytes:
    """``exc`` pickled, or where it does not come back from a pickle, a
    RuntimeError that names it."""
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)
    except Exception:
        payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
    return payload


def _receive(pid: int, reader: io.BufferedReader, index: int) -> bytes:
    """The payload of worker ``pid``'s next message, the result of task
    ``index``; its exception is raised."""
    head = reader.read(9)
    if len(head) == 9:
        size = int.from_bytes(head[1:], "little")
        payload = reader.read(size)
        if len(payload) == size:
            if head[:1] == _ERROR:
                raise pickle.loads(payload)
            return payload
    raise WorkerExited(f"worker process {pid} ended before it sent chunk {index}")


def _ascii_digits(values: np.ndarray, out: np.ndarray) -> None:
    """Write the last ``len(out)`` decimal digits of unsigned integers as
    ASCII into ``out``, one row per digit, most significant first."""
    for row in range(len(out) - 1, -1, -1):
        quotient = values // 10
        out[row] = values - quotient * 10
        values = quotient
    out += ord("0")


def _phi_tokens(phi: np.ndarray, out: np.ndarray) -> None:
    """Write ``b"%.9g" % phi`` for phi in [0, 2*pi) into ``out``, one
    NUL-padded column of ``_PHI_WIDTH`` bytes per angle.

    From 1e-4 up, "%.9g" writes phi in fixed point.  For phi in
    [10**e, 10**(e + 1)) its 9 significant digits are m = rint(y), y =
    phi * 10**(8 - e), and m * 10**(4 + e) = phi * 10**12 is laid out as one
    integer digit, a point and 12 decimals, trailing zeros dropped.  A carry
    of m to 10**9 gives 10**(e + 1), which this layout writes as "%.9g"
    does.  y lies within y * 2**-53 of the exact product, so Python formats
    the rows within 4 * y * 2**-53 of a tie, where rint could round to the
    other side, and the exponent-form rows below 1e-4.
    """
    decade = sum(phi >= edge for edge in _PHI_DECADES)
    y = phi * _PHI_TO_MANTISSA[decade]
    mantissa = np.rint(y)
    python_rows = np.flatnonzero(
        (phi < 1e-4) | (np.abs(y - np.floor(y) - 0.5) <= 4.0 * 2.0**-53 * y)
    )
    fixed = mantissa * _MANTISSA_TO_FIXED[decade]  # phi * 10**12, below 2**53
    high = np.floor(fixed / 1e7)
    # The 13 digits go one row down, then the integer digit moves up to
    # make room for the point.
    _ascii_digits(high.astype(np.uint32), out[1:7])
    _ascii_digits((fixed - high * 1e7).astype(np.uint32), out[7:14])
    out[0] = out[1]
    decimals = out[2:14]
    # A decimal stays if it or any decimal after it is not zero.
    kept = decimals != ord("0")
    for row in range(10, -1, -1):
        kept[row] |= kept[row + 1]
    decimals *= kept
    out[1] = kept[0] * ord(".")
    out[14] = 0
    if python_rows.size:
        text = b"".join(
            (b"%.9g" % value).ljust(_PHI_WIDTH, b"\0") for value in phi[python_rows].tolist()
        )
        out[:, python_rows] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _PHI_WIDTH).T


def _csv_rows(
    start: int,
    phi: np.ndarray,
    detected_1: np.ndarray,
    detected_2: np.ndarray,
    is_background: np.ndarray,
) -> bytes:
    """Event rows with ids from ``start``, byte for byte
    ``b"%d,%.9g,%d,%d,%d\r\n"`` of each event, phi in [0, 2*pi) and at most
    ``_PHI_TOKEN_MAX``, to which larger angles are lowered.

    Each output byte column is one row of a NUL-padded table; the table is
    transposed and the NULs dropped.
    """
    phi = np.minimum(phi, _PHI_TOKEN_MAX)
    k = phi.size
    last = start + k - 1
    id_width = len(str(last))
    ids = np.arange(start, start + k, dtype=np.uint64 if last >= 1 << 32 else np.uint32)
    table = np.empty((id_width + 1 + _PHI_WIDTH + 8, k), dtype=np.uint8)
    _ascii_digits(ids, table[:id_width])
    for row in range(id_width - 1):
        # Ids are consecutive, so those with this digit as a leading zero
        # are a prefix.
        table[row, : max(0, 10 ** (id_width - 1 - row) - start)] = 0
    at = id_width
    table[at] = ord(",")
    _phi_tokens(phi, table[at + 1 : at + 1 + _PHI_WIDTH])
    at += 1 + _PHI_WIDTH
    for flag in (detected_1, detected_2, is_background):
        table[at] = ord(",")
        table[at + 1] = flag.view(np.uint8) + ord("0")
        at += 2
    table[at] = ord("\r")
    table[at + 1] = ord("\n")
    return table.T.tobytes().translate(None, b"\0")


def write_events_csv(
    events: EventSample | Iterable[EventSample] | Iterable[bytes], path
) -> None:
    """Write the append-only, order-significant event file from one sample,
    from its chunks in order, or from the chunks of
    :func:`generate_event_chunks`, which are its rows already formatted.

    Rows are formatted ``_CSV_CHUNK_ROWS`` at a time, so memory stays
    bounded by the chunk, not the file.  They go to a temporary file beside
    ``path`` that replaces it once the last row is written, so a failed
    write leaves no file or an older one untouched.  A symlink's target is
    replaced, not the link; a device or pipe, such as os.devnull, is
    written in place.
    """
    target = path
    path = Path(os.path.realpath(path))
    if path.exists() and not path.is_file():
        _write_rows(events, path)
        return
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        _write_rows(events, partial)
        os.replace(partial, path)
    except OSError as exc:
        if exc.filename is None:
            raise
        # Name the file asked for, not the temporary one.
        raise OSError(exc.errno, exc.strerror, os.fspath(target)) from exc
    finally:
        partial.unlink(missing_ok=True)


def _write_rows(
    events: EventSample | Iterable[EventSample] | Iterable[bytes], path: Path
) -> None:
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER_BYTES + b"\r\n")
        start = 0
        for sample in _samples(events):
            if isinstance(sample, bytes):
                fh.write(sample)
                continue
            for lo in range(0, len(sample), _CSV_CHUNK_ROWS):
                rows = slice(lo, lo + _CSV_CHUNK_ROWS)
                phi = sample.phi[rows]
                fh.write(
                    _csv_rows(
                        start,
                        phi,
                        sample.detected_1[rows],
                        sample.detected_2[rows],
                        sample.is_background[rows],
                    )
                )
                start += phi.size


def _line_error(path: Path, lineno: int, problem: str) -> ValueError:
    return ValueError(f"{path}, line {lineno}: {problem}")


def _integer_field(token: str, bits: int) -> int | None:
    """The value of a ``bits``-bit integer field, or None where the field
    is not one: a sign and ASCII digits between optional whitespace, but
    none of the underscores, other digits or unbounded values that Python's
    int() takes."""
    match = _INTEGER_TOKEN.fullmatch(token.strip())
    if match is None:
        return None
    value = int(match[1] + match[2])
    return value if -(1 << (bits - 1)) <= value < 1 << (bits - 1) else None


def _float_field(token: str) -> float | None:
    """The value of a float field, or None where the field is not one:
    Python's float() grammar without digit underscores or non-ASCII
    characters."""
    text = token.strip()
    if not text.isascii() or "_" in text:
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _line_runs(fh) -> Iterator[bytes]:
    """A binary file's bytes cut after its first LF and then after every
    ``_CSV_CHUNK_ROWS``-th: the header line, runs of ``_CSV_CHUNK_ROWS``
    lines, and what follows the last cut, if anything."""
    rows = _CSV_CHUNK_ROWS
    pending, need = [], 1  # the current run's pieces, and the LFs it lacks
    for block in iter(lambda: fh.read(_READ_BLOCK), b""):
        lf = np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n"))
        cuts = lf[need - 1 :: rows]
        at = 0
        for cut in cuts.tolist():
            pending.append(block[at : cut + 1])
            yield b"".join(pending)
            pending, at = [], cut + 1
        pending.append(block[at:])
        need = (rows if cuts.size else need) - int(np.count_nonzero(lf >= at))
    if rest := b"".join(pending):
        yield rest


def _canonical_chunk(run: bytes, first_id: int) -> EventSample | None:
    """The rows of ``run`` if every one is laid out as the writer writes it,
    ``id,phi,f,f,f\\r\\n``, or ends in LF alone, with the expected id
    without sign or leading zeros and each flag 0 or 1; None otherwise.  phi
    is fixed point, ``d`` or ``d.ddd...`` in at most ``_PHI_FIXED_WIDTH``
    bytes, or a token of at most ``_PHI_WIDTH`` bytes that
    ``b"%.9g" % float(token)`` gives back, the writer's own rule for the
    exponent forms below 1e-4.

    The digits of a fixed-point phi weighted by powers of ten give
    phi * 10**12, an integer below 2**53, and 10**12 is exact, so one
    division by it rounds the token's value correctly, as float() does.
    The few other tokens go through float() one by one.
    """
    data = np.frombuffer(run, dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    if not ends.size or ends[-1] != data.size - 1:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    ids = np.arange(first_id, first_id + ends.size)
    # Ids are consecutive, so each digit count covers one slice of the rows.
    id_widths = range(len(str(first_id)), len(str(first_id + ends.size - 1)) + 1)
    id_slices = [
        slice(max(0, 10 ** (width - 1) - first_id) if width > 1 else 0, 10**width - first_id)
        for width in id_widths
    ]
    id_width = np.empty_like(ends)
    for width, rows in zip(id_widths, id_slices):
        id_width[rows] = width
    # Where each row's ",f,f,f" ends: at its CR if the row ends in CRLF,
    # else at its LF.  ends - 1 is -1 only for an empty first row, which the
    # length check below rejects.
    tail_end = ends - (data[ends - 1] == ord("\r"))
    # The row lengths are checked first, so every gather below stays inside
    # its row, but for the phi window, which may run past the last one.
    phi_width = tail_end - starts - id_width - 7
    if np.any((phi_width < 1) | (phi_width > _PHI_WIDTH)):
        return None
    for width, rows in zip(id_widths, id_slices):
        expected = np.empty((width, ids[rows].size), dtype=np.uint8)
        _ascii_digits(ids[rows], expected)
        if not np.array_equal(data[starts[rows] + np.arange(width)[:, None]], expected):
            return None
    # The comma before phi, then phi's bytes from its first.
    window = np.take(data, starts + id_width + _PHI_WINDOW[:, None], mode="clip")
    tail = data[tail_end + np.arange(-_ROW_TAIL.size, 0)[:, None]]
    if not (
        np.all(window[0] == ord(","))
        and np.all((tail | _ROW_TAIL_FLAGS[:, None]) == _ROW_TAIL[:, None])
    ):
        return None
    # Bytes below "0" wrap past 9.  Bytes after phi and its point count 0.
    digits = np.where(_PHI_WINDOW[1:, None] <= phi_width, window[1:] - np.uint8(ord("0")), 0)
    digits[1] = 0
    fixed = (
        ((phi_width == 1) | ((phi_width > 2) & (window[2] == ord("."))))
        & (phi_width <= _PHI_FIXED_WIDTH)
        & (digits.max(axis=0) <= 9)
    )
    phi = _PHI_DIGIT_WEIGHTS @ digits / 1e12
    for row in np.flatnonzero(~fixed).tolist():
        at = starts[row] + id_width[row] + 1
        token = run[at : at + phi_width[row]]
        try:
            value = float(token)
        except ValueError:
            return None
        if b"%.9g" % value != token:
            return None
        phi[row] = value
    try:
        return EventSample(phi, *(tail[1:6:2] == ord("1")))
    except ValueError:
        return None  # phi out of range or not finite


def _parse_lines(run: bytes, first_id: int, path: Path) -> EventSample:
    """The rows of ``run``, the lines of ``path`` from row ``first_id`` on,
    read one by one by the field rules above and the reader's checks, with
    lines ended by LF or CRLF only.

    A malformed line raises ValueError naming ``path`` and the line, which
    is ``first_id + 2`` plus the line's offset in ``run``.
    """
    rows = []
    # Event files are ASCII; any other byte reads as a character that no
    # field accepts instead of failing to decode.  newline="" ends a line at
    # LF, CRLF or a bare CR; the last alone leaves the CR at its end.
    lines = io.StringIO(run.decode("ascii", "surrogateescape"), newline="")
    for expected_id, line in enumerate(lines, start=first_id):
        lineno = expected_id + 2
        if line.endswith("\r"):
            raise _line_error(path, lineno, "carriage return without a line feed")
        if not line.strip():
            raise _line_error(path, lineno, "blank line")
        fields = line.rstrip("\r\n").split(",")
        if len(fields) != len(CSV_HEADER):
            raise _line_error(
                path, lineno, f"expected {len(CSV_HEADER)} fields, got {len(fields)}"
            )
        event_id = _integer_field(fields[0], 64)
        if event_id is None:
            raise _line_error(path, lineno, f"event_id {fields[0]!r} is not a 64-bit integer")
        phi = _float_field(fields[1])
        if phi is None:
            raise _line_error(path, lineno, f"phi {fields[1]!r} is not a number")
        flags = [_integer_field(token, 8) for token in fields[2:]]
        for name, token, flag in zip(CSV_HEADER[2:], fields[2:], flags):
            if flag not in (0, 1):
                raise _line_error(path, lineno, f"{name} {token!r} is not 0 or 1")
        if event_id != expected_id:
            raise _line_error(
                path, lineno, f"event_id {event_id} out of order (expected {expected_id})"
            )
        if not 0.0 <= phi < TWO_PI:
            raise _line_error(path, lineno, f"phi {phi} is not in [0, 2*pi)")
        rows.append((phi, *flags))
    return EventSample(*np.array(rows, dtype=np.float64).T)


def iter_events_csv(path) -> Iterator[EventSample]:
    """Read an event file as samples of ``_CSV_CHUNK_ROWS`` lines in order
    (one empty sample for a header-only file), enforcing the header and ids
    that count up from 0.

    The file is read once, in binary blocks.  A run of lines that the writer
    could have written is parsed by :func:`_canonical_chunk`; any other run
    by :func:`_parse_lines`, which also accepts signs, spaces, leading zeros
    and LF-only line ends, and raises ValueError naming the file and the
    first bad line.  A chunk is yielded only once every one of its rows has
    been read, so no row of a malformed chunk reaches the caller, nor any
    chunk after it.

    A regular file large enough to hold ``_SPLIT_MIN_ROWS`` rows as hepbell
    writes them is parsed in several processes (:func:`_in_processes`); each
    worker reads the file through its own handle and parses its own chunks,
    so chunks after a malformed one may already have been parsed.  Any other
    file is read in this process alone.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        runs = _line_runs(fh)
        header_line = next(runs, b"")
        header = header_line.split(b"\r", 1)[0].rstrip(b"\n")
        if header != _CSV_HEADER_BYTES:
            fields = header.decode("ascii", "surrogateescape").split(",")
            raise ValueError(f"unexpected event file header {fields} in {path}")
        if header_line[len(header) :] not in (b"", b"\n", b"\r\n"):
            raise _line_error(path, 1, "carriage return without a line feed")
        info = os.fstat(fh.fileno())
        rows = info.st_size // _ROW_BYTES if stat.S_ISREG(info.st_mode) else 0

        def parse(task: tuple[int, bytes]) -> EventSample:
            index, run = task
            first_id = index * _CSV_CHUNK_ROWS
            chunk = _canonical_chunk(run, first_id)
            return _parse_lines(run, first_id, path) if chunk is None else chunk

        def worker_runs() -> Iterator[tuple[int, bytes]]:
            # Not through fh, whose offset the parent's reads move.
            with open(path, "rb") as own:
                runs = _line_runs(own)
                next(runs)
                yield from enumerate(runs)

        n = 0
        chunks = _in_processes(
            enumerate(runs), parse, _processes(rows), worker_runs, _sample_bytes, _bytes_sample
        )
        with closing(chunks):
            for chunk in chunks:
                yield chunk
                n += len(chunk)
        if not n:
            yield EventSample(np.empty(0), *np.empty((3, 0), dtype=bool))


def _sample_bytes(sample: EventSample) -> bytes:
    """The columns of ``sample``, as :func:`_bytes_sample` reads them back."""
    columns = (sample.phi, sample.detected_1, sample.detected_2, sample.is_background)
    return b"".join(column.tobytes() for column in columns)


def _bytes_sample(data: bytes) -> EventSample:
    k = len(data) // 11  # a float64 and three bools per row
    flags = np.frombuffer(data, dtype=bool, offset=8 * k).reshape(3, k)
    return EventSample(np.frombuffer(data, dtype=np.float64, count=k), *flags)


def read_events_csv(path) -> EventSample:
    """Read a whole event file: the chunks of :func:`iter_events_csv`, joined."""
    chunks = list(iter_events_csv(path))
    return EventSample(
        *(
            np.concatenate([getattr(chunk, name) for chunk in chunks])
            for name in ("phi", "detected_1", "detected_2", "is_background")
        )
    )
