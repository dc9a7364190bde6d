"""Experimental scheme for the charmonium -> two-vector-meson test.

Covers the transverse entangled state, the azimuthal-angle density between
the two decay planes, reproducible Monte Carlo event generation with a
detector model, the histogram probability estimator and the event-based CH
evaluation.  The detection-efficiency threshold, a property of the state
that no event enters, is :func:`hepbell.spin1.efficiency_threshold`.

Events take one path each way: :func:`generate_event_chunks` draws and
formats the rows that :func:`write_events_csv` writes, and
:func:`estimate_probability` and :func:`ch_from_events` count a sample, or
an event file chunk by chunk.  :mod:`hepbell._workers` decides how many
processes share those chunks.
"""

from __future__ import annotations

import math
import os
import stat
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NoReturn

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


def _newton_step(
    x: np.ndarray, m: np.ndarray, g: np.ndarray, dg: np.ndarray, moves: np.ndarray
) -> None:
    """One clipped Newton step for x - sin(x) = m, in place in ``x``, with
    ``g``, ``dg`` and ``moves`` as scratch arrays of its size.

    Bit for bit ``np.clip(x - step, 0.0, pi)``, with ``g = x - sin(x) - m``,
    ``dg = 1 - cos(x)`` and ``step = np.where(dg > 1e-30, g /
    np.maximum(dg, 1e-300), 0.0)``: the same ufuncs in the same order.
    """
    np.sin(x, out=g)
    np.subtract(x, g, out=g)
    g -= m
    np.cos(x, out=dg)
    np.subtract(1.0, dg, out=dg)
    np.greater(dg, 1e-30, out=moves)
    np.maximum(dg, 1e-300, out=dg)
    g /= dg
    # Where the slope vanishes the step is 0.0, and x - 0.0 is x.
    np.subtract(x, g, out=x, where=moves)
    np.clip(x, 0.0, math.pi, out=x)


def _core_inverse(m: np.ndarray) -> np.ndarray:
    """Solve x - sin(x) = m on [0, pi] by seeded, clipped Newton iterations.

    The seed interpolates a table of knots, switched to the cube-root
    expansion where the inverse has a vertical tangent at m = 0.  Four
    Newton steps bring the residual in m to machine precision everywhere.
    A step is a function of x alone, so a row that one step left unchanged
    stays unchanged: only the rows still moving after the third step take
    the fourth.  Every step runs in the same few arrays.
    """
    x = _interp_knots(m)
    near_zero = np.flatnonzero(m < _CORE_KNOTS_M[1])
    x[near_zero] = np.cbrt(6.0 * m[near_zero])
    g, dg, previous = np.empty((3, x.size))
    moves = np.empty(x.size, dtype=bool)
    _newton_step(x, m, g, dg, moves)
    _newton_step(x, m, g, dg, moves)
    np.copyto(previous, x)
    _newton_step(x, m, g, dg, moves)
    moving = np.flatnonzero(x != previous)
    n = moving.size
    x_moving = np.take(x, moving, out=previous[:n])
    _newton_step(x_moving, m[moving], g[:n], dg[:n], moves[:n])
    x[moving] = x_moving
    return x


def _invert_signal_cdf(u: np.ndarray) -> np.ndarray:
    """Deterministic inverse of the signal CDF.

    In terms of x = 2*phi the CDF equation reads x - sin(x) = 4*pi*u, solved
    on the core interval via :func:`_core_inverse` and extended by the exact
    symmetries x(m + 2*pi) = x(m) + 2*pi and x(2*pi - m) = 2*pi - x(m).
    """
    t = 4.0 * math.pi * np.asarray(u, dtype=np.float64)
    # 2*pi*k for the period k that holds m; t becomes m - 2*pi*k.
    shift = t / TWO_PI
    np.floor(shift, out=shift)
    shift *= TWO_PI
    t -= shift
    upper = t > math.pi
    np.subtract(TWO_PI, t, out=t, where=upper)
    x = _core_inverse(t)
    np.subtract(TWO_PI, x, out=x, where=upper)
    x += shift
    x *= 0.5
    return np.minimum(x, np.nextafter(TWO_PI, 0.0), out=x)


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


# Each thread's Philox generator, placed anew for every stream: building one
# reads OS entropy for a seed that the key then replaces, at about 20 us.
_PHILOX = threading.local()


def _philox_stream(seed: int, worker: int, offset: int) -> np.random.Generator:
    """Worker ``worker``'s Philox stream, positioned ``offset`` doubles in:
    this thread's one generator, valid until the next call.

    Philox is counter-based: each counter value yields four doubles, so the
    stream starts at counter 0 under the key ``(seed, worker)`` with an
    empty buffer, ``advance`` jumps to any block and the remainder is drawn
    and dropped.
    """
    rng = getattr(_PHILOX, "rng", None)
    if rng is None:
        rng = _PHILOX.rng = np.random.Generator(np.random.Philox(0))
    bit_generator = rng.bit_generator
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed, worker], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_generator.advance(offset // 4)
    rng.random(offset % 4)
    return rng


def _check_key(n: int, seed: int, workers: int) -> None:
    """Reject a sample key ``(seed, n, workers)`` that draws no sample."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if seed < 0 or seed >= 2**64:
        raise ValueError("seed must be a non-negative 64-bit integer")


def generate_events(
    n: int,
    det: DetectorModel | None = None,
    seed: int = 0,
    workers: int = 1,
    start: int = 0,
    stop: int | None = None,
    draws: np.ndarray | None = None,
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

    The range is drawn ``_CSV_CHUNK_ROWS`` rows at a time, each chunk from
    the streams that hold its rows, entered at its first row, so memory
    beyond the 11-byte-per-event result is bounded by one chunk.  The draws
    go to ``draws``, a float64 array of four rows of at least one chunk
    each, where the caller reuses one.
    """
    _check_key(n, seed, workers)
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
    if draws is None or draws.shape[1] < min(_CSV_CHUNK_ROWS, stop - start):
        draws = np.empty((4, min(_CSV_CHUNK_ROWS, stop - start)))
    base, remainder = divmod(n, workers)
    long_rows = remainder * (base + 1)
    for at in range(start, stop, _CSV_CHUNK_ROWS):
        k = min(_CSV_CHUNK_ROWS, stop - at)
        u_bg, u_phi, u_d1, u_d2 = u = draws[:, :k]
        # Stream w holds the rows from w * base + min(w, remainder) on, the
        # first ``remainder`` streams one more than the others.  Only the
        # streams that hold rows of this chunk are entered.
        w = at // (base + 1) if at < long_rows else remainder + (at - long_rows) // base
        first = w * base + min(w, remainder)
        while first < at + k:
            count = base + (w < remainder)
            lo, hi = max(at, first), min(at + k, first + count)
            # Background, angle, detection-1 and detection-2 segments.
            for segment, row in enumerate(u):
                rng = _philox_stream(seed, w, segment * count + lo - first)
                rng.random(out=row[lo - at : hi - at])
            w, first = w + 1, first + count
        out = slice(at - start, at - start + k)
        is_bg = u_bg < det.background_fraction
        is_background[out] = is_bg
        phi[out] = np.where(is_bg, TWO_PI * u_phi, _invert_signal_cdf(u_phi))
        detected_1[out] = u_d1 < p_1
        detected_2[out] = u_d2 < p_2
    return EventSample(phi, detected_1, detected_2, is_background)


def generate_event_chunks(
    n: int, det: DetectorModel | None = None, seed: int = 0, workers: int = 1
) -> Iterator[memoryview]:
    """The event file rows of ``generate_events(n, det, seed, workers)``, in
    order, ``_CSV_CHUNK_ROWS`` at a time, each drawn and formatted when it is
    due, for :func:`write_events_csv` to write.  Each chunk is a view of
    buffers that the next one reuses.

    A bad key ``(seed, n, workers)`` raises here; an error in a draw is
    raised where its chunk is due, and no chunk after it is written.  The
    chunks may be split over processes
    (:func:`hepbell._workers.round_robin`), and where they are, chunks after
    a failed one may already have been drawn.
    """
    from . import _workers

    _check_key(n, seed, workers)
    # Each process draws and formats into its own copy of these.
    buffers = _RowBuffers(min(_CSV_CHUNK_ROWS, n), n - 1)

    def rows(start: int) -> memoryview:
        stop = min(start + _CSV_CHUNK_ROWS, n)
        sample = generate_events(
            n, det, seed=seed, workers=workers, start=start, stop=stop, draws=buffers.draws
        )
        return _csv_rows(start, *_columns(sample), buffers)

    return _workers.round_robin(range(0, n, _CSV_CHUNK_ROWS), rows, n)


def _counted(events, count: Callable[[EventSample], np.ndarray]) -> np.ndarray:
    """``count`` of the sample ``events``, or summed over the chunks of the
    event file ``events``."""
    if isinstance(events, (str, os.PathLike)):
        return _event_counts(events, count)
    return count(events)


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
    events: EventSample | str | os.PathLike,
    bin_width: float = TWO_PI / DEFAULT_BIN_COUNT,
) -> HistogramEstimate:
    """Histogram estimator of the joint probability versus plane angle.

    ``events`` may be a sample or its event file: the integer counts of the
    file are summed over its chunks and ``kappa`` and the scale applied
    once, so the estimate does not depend on how the file is split.
    """
    n_bins = round(TWO_PI / _checked_width(bin_width))
    if n_bins < 1 or abs(TWO_PI - n_bins * bin_width) > 1e-9:
        raise ValueError(f"bin_width {bin_width} does not divide 2*pi within 1e-9")
    edges = np.linspace(0.0, TWO_PI, n_bins + 1)

    def count(sample: EventSample) -> np.ndarray:
        """The bin counts of the coincidences, then their number."""
        phis = sample.phi[sample.coincidence_mask]
        return np.append(np.histogram(phis, bins=edges)[0], phis.size)

    counts = _counted(events, count)
    counts, n_detected = counts[:-1], int(counts[-1])
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
    events: EventSample | str | os.PathLike,
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
    may be a sample or its event file, whose window counts are summed over
    its chunks.
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

    def count(sample: EventSample) -> np.ndarray:
        """The window counts of the coincidences, then their number."""
        phis = sample.phi[sample.coincidence_mask]
        return np.array([_window_count(phis, center, window) for center in centers] + [phis.size])

    *counts, n_detected = _counted(events, count).tolist()
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
# The bytes of a row as hepbell writes it, with an id of up to five digits:
# the reader judges how many rows a file holds by its size.
_ROW_BYTES = 24
# The NUL-padded rows of a formatted chunk are compacted this many bytes at
# a time.  np.compress holds an 8-byte index per kept byte, so the piece
# bounds that temporary to about 0.65 MB.  Measured at 1e6 events on Linux,
# pieces of 64 KiB let glibc trim and regrow the heap every chunk (450 page
# faults per chunk); from 128 KiB on, the heap it grows once is reused.
_COMPACTED_BYTES = 1 << 17


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


class _RowBuffers:
    """The arrays one process draws and formats chunks of up to ``rows``
    rows with ids up to ``last_id`` in, allocated once: the four uniform
    draws, the byte table of :func:`_csv_rows`, which then holds the rows,
    its transpose, and which bytes of that are kept."""

    def __init__(self, rows: int, last_id: int):
        size = rows * (len(str(last_id)) + 1 + _PHI_WIDTH + 8)
        self.draws = np.empty((4, rows))
        self.table, self.transposed = np.empty((2, size), dtype=np.uint8)
        self.kept = np.empty(size, dtype=bool)


def _csv_rows(
    start: int,
    phi: np.ndarray,
    detected_1: np.ndarray,
    detected_2: np.ndarray,
    is_background: np.ndarray,
    buffers: _RowBuffers | None = None,
) -> memoryview:
    """Event rows with ids from ``start``, byte for byte
    ``b"%d,%.9g,%d,%d,%d\r\n"`` of each event, phi in [0, 2*pi) and at most
    ``_PHI_TOKEN_MAX``, to which larger angles are lowered.

    Each output byte column is one row of a NUL-padded table in
    ``buffers``; the table is transposed and the NULs dropped.
    """
    phi = np.minimum(phi, _PHI_TOKEN_MAX)
    k = phi.size
    last = start + k - 1
    id_width = len(str(last))
    ids = np.arange(start, start + k, dtype=np.uint64 if last >= 1 << 32 else np.uint32)
    buffers = buffers or _RowBuffers(k, last)
    table = buffers.table[: (id_width + 1 + _PHI_WIDTH + 8) * k].reshape(-1, k)
    transposed, kept = buffers.transposed[: table.size], buffers.kept[: table.size]
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
    np.copyto(transposed.reshape(k, -1), table.T)
    np.not_equal(transposed, 0, out=kept)
    at = 0
    for lo in range(0, kept.size, _COMPACTED_BYTES):
        piece = slice(lo, lo + _COMPACTED_BYTES)
        n = int(np.count_nonzero(kept[piece]))
        np.compress(kept[piece], transposed[piece], out=buffers.table[at : at + n])
        at += n
    return buffers.table[:at].data


def write_events_csv(events: EventSample | Iterator[memoryview], path) -> None:
    """Write the append-only, order-significant event file from one sample,
    or from the chunks of :func:`generate_event_chunks`, which are its rows
    already formatted.

    A sample's rows are formatted ``_CSV_CHUNK_ROWS`` at a time, so memory
    beyond the sample stays bounded by the chunk.  The rows go to a
    temporary file beside ``path`` that replaces it once the last row is
    written, so a failed write leaves no file or an older one untouched.  A
    symlink's target is replaced, not the link; a device or pipe, such as
    os.devnull, is written in place.
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


def _write_rows(events: EventSample | Iterator[memoryview], path: Path) -> None:
    with open(path, "wb") as fh:
        fh.write(_CSV_HEADER_BYTES + b"\r\n")
        if not isinstance(events, EventSample):
            fh.writelines(events)
            return
        buffers = _RowBuffers(min(_CSV_CHUNK_ROWS, len(events)), len(events) - 1)
        for start in range(0, len(events), _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            fh.write(_csv_rows(start, *(column[rows] for column in _columns(events)), buffers))


def _runs(fh) -> Iterator[tuple[int, np.ndarray]]:
    """A binary file cut after its first LF and then after every
    ``_CSV_CHUNK_ROWS``-th, as (file offset, bytes) pairs: the header line,
    runs of ``_CSV_CHUNK_ROWS`` lines, and what follows the last cut, if
    anything.  The file is read ``_READ_BLOCK`` bytes at a time into one
    buffer, and each run is a view of it, valid until the next is asked for.
    """
    rows, block = _CSV_CHUNK_ROWS, _READ_BLOCK
    buffer, is_lf = np.empty(2 * block, dtype=np.uint8), np.empty(block, dtype=bool)
    # buffer[0] is byte ``base`` of the file; buffer[start:end] is read and
    # not yet cut off, and lacks ``need`` LFs to the next cut.
    base, start, end, need = 0, 0, 0, 1
    while True:
        if end + block > buffer.size:  # move what is not cut off to the front
            kept = buffer[start:end]
            if kept.size + block > buffer.size:
                buffer = np.empty(2 * (kept.size + block), dtype=np.uint8)
            buffer[: kept.size] = kept
            base, start, end = base + start, 0, kept.size
        read = fh.readinto(buffer[end : end + block])
        if not read:
            break
        lf = np.flatnonzero(np.equal(buffer[end : end + read], ord("\n"), out=is_lf[:read]))
        lf += end
        cuts = lf[need - 1 :: rows]
        for cut in cuts.tolist():
            yield base + start, buffer[start : cut + 1]
            start = cut + 1
        need = (rows if cuts.size else need) - int(np.count_nonzero(lf >= start))
        end += read
    if end > start:
        yield base + start, buffer[start:end]


class _ChunkParser:
    """Parses the runs of one event file, of up to ``_CSV_CHUNK_ROWS`` lines,
    into arrays allocated once: each sample it returns is overwritten by the
    next."""

    def __init__(self, path: Path):
        rows = self.rows = _CSV_CHUNK_ROWS
        self.path, self.run, self.is_lf = path, np.empty(0, np.uint8), np.empty(0, bool)
        self.indices = np.empty((5, rows), dtype=np.intp)
        self.window = np.empty((_PHI_WINDOW.size, rows), dtype=np.uint8)
        self.tail = np.empty((_ROW_TAIL.size, rows), dtype=np.uint8)
        self.digits = np.empty((_PHI_FIXED_WIDTH, rows), dtype=np.uint8)
        self.phi, self.term = np.empty((2, rows))
        self.flags = np.empty((3, rows), dtype=bool)
        # glibc returns the heap's free top once it exceeds twice the largest
        # mapped block freed so far: freeing one of 4 MiB keeps the chunks'
        # temporaries on the heap (at 1e7 rows in the CLI, 13 k page faults, not 101 k).
        np.empty(1 << 22, dtype=np.uint8)

    def read(self, fd: int, offset: int, size: int) -> np.ndarray:
        """``size`` bytes of the file ``fd`` from ``offset``, read by ``pread``."""
        if self.run.size < size:
            self.run = np.empty(2 * size, dtype=np.uint8)
        if os.preadv(fd, [self.run[:size]], offset) < size:
            raise ValueError(f"{self.path} became shorter while it was read")
        return self.run[:size]

    def __call__(self, index: int, run: np.ndarray) -> EventSample:
        """Run ``index``, parsed by :func:`_canonical_chunk`; a run it
        rejects raises the error :func:`_parse_lines` names."""
        first_id = index * self.rows
        chunk = _canonical_chunk(run, first_id, self)
        return _parse_lines(run, first_id, self) if chunk is None else chunk


def _canonical_chunk(run: np.ndarray, first_id: int, scratch: _ChunkParser) -> EventSample | None:
    """The rows of ``run``, bytes as uint8, if every one is an event row;
    None otherwise.  This is the reader's one grammar: a row is laid out as
    the writer writes it, ``id,phi,f,f,f\\r\\n``, or ends in LF alone, with
    the expected id without sign or leading zeros and each flag 0 or 1, and
    every row, the last included, ends in a line feed.  phi is fixed point,
    ``d`` or ``d.ddd...`` in at most ``_PHI_FIXED_WIDTH`` bytes, or a token
    of at most ``_PHI_WIDTH`` bytes that ``b"%.9g" % float(token)`` gives
    back, the writer's own rule for the exponent forms below 1e-4.  Each row
    is judged on its own, so a prefix of ``run`` cut after a line feed
    parses exactly when each of its rows does.  The sample and every large
    intermediate live in the arrays of ``scratch``.

    The digits of a fixed-point phi weighted by powers of ten give
    phi * 10**12, an integer below 2**53, and 10**12 is exact, so one
    division by it rounds the token's value correctly, as float() does.
    The few other tokens go through float() one by one.
    """
    if scratch.is_lf.size < run.size:
        scratch.is_lf = np.empty(2 * run.size, dtype=bool)
    ends = np.flatnonzero(np.equal(run, ord("\n"), out=scratch.is_lf[: run.size]))
    k = ends.size
    if not k or ends[-1] != run.size - 1 or k > scratch.rows:
        return None
    starts, id_width, tail_end, phi_width, at = scratch.indices[:, :k]
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    ids = np.arange(first_id, first_id + k)
    # Ids are consecutive, so each digit count covers one slice of the rows.
    id_widths = range(len(str(first_id)), len(str(first_id + k - 1)) + 1)
    if id_widths[-1] > _PHI_WINDOW.size:
        return None  # ids past 10**15: the gathers below have no room
    id_slices = [
        slice(max(0, 10 ** (width - 1) - first_id) if width > 1 else 0, 10**width - first_id)
        for width in id_widths
    ]
    for width, rows in zip(id_widths, id_slices):
        id_width[rows] = width
    # Where each row's ",f,f,f" ends: at its CR if the row ends in CRLF,
    # else at its LF.  ends - 1 is -1 only for an empty first row, which the
    # length check below rejects.
    np.subtract(ends, run[ends - 1] == ord("\r"), out=tail_end)
    # The row lengths are checked first, so every gather below stays inside
    # its row, but for the phi window, which may run past the last one.
    np.subtract(tail_end, starts, out=phi_width)
    phi_width -= id_width
    phi_width -= 7
    if np.any((phi_width < 1) | (phi_width > _PHI_WIDTH)):
        return None

    def gathered(first: np.ndarray, width: int, out: np.ndarray) -> np.ndarray:
        """Bytes ``first + j`` of ``run``, one row of ``out`` per j < ``width``."""
        out = out[:width, : first.size]
        for j, row in enumerate(out):
            np.take(run, np.add(first, j, out=at[: first.size]), mode="clip", out=row)
        return out

    for width, rows in zip(id_widths, id_slices):
        expected = np.empty((width, ids[rows].size), dtype=np.uint8)
        _ascii_digits(ids[rows], expected)
        if not np.array_equal(gathered(starts[rows], width, scratch.window), expected):
            return None
    # The comma before phi, then phi's bytes from its first.  ``ends`` is
    # not needed any more, and holds where phi starts.
    window = gathered(np.add(starts, id_width, out=ends), _PHI_WINDOW.size, scratch.window)
    tail = gathered(tail_end - _ROW_TAIL.size, _ROW_TAIL.size, scratch.tail)
    if not (
        np.all(window[0] == ord(","))
        and np.all((tail | _ROW_TAIL_FLAGS[:, None]) == _ROW_TAIL[:, None])
    ):
        return None
    # Bytes below "0" wrap past 9.  Bytes after phi and its point count 0.
    digits = np.subtract(window[1:], np.uint8(ord("0")), out=scratch.digits[:, :k])
    digits *= _PHI_WINDOW[1:, None] <= phi_width
    digits[1] = 0
    fixed = (
        ((phi_width == 1) | ((phi_width > 2) & (window[2] == ord("."))))
        & (phi_width <= _PHI_FIXED_WIDTH)
        & (digits.max(axis=0) <= 9)
    )
    # Every partial sum is an integer below 2**53, so the sum is exact in
    # any order.
    phi, term = scratch.phi[:k], scratch.term[:k]
    phi.fill(0.0)
    for weight, row in zip(_PHI_DIGIT_WEIGHTS.tolist(), digits):
        if weight:
            phi += np.multiply(row, weight, out=term)
    phi /= 1e12
    for row in np.flatnonzero(~fixed).tolist():
        begin = starts[row] + id_width[row] + 1
        token = run[begin : begin + phi_width[row]].tobytes()
        try:
            value = float(token)
        except ValueError:
            return None
        if b"%.9g" % value != token:
            return None
        phi[row] = value
    flags = np.equal(tail[1:6:2], ord("1"), out=scratch.flags[:, :k])
    try:
        return EventSample(phi, *flags)
    except ValueError:
        return None  # phi out of range or not finite


def _parse_lines(run: np.ndarray, first_id: int, scratch: _ChunkParser) -> NoReturn:
    """Raise ValueError naming ``scratch.path`` and the first line of
    ``run``, lines from row ``first_id`` on, that :func:`_canonical_chunk`
    rejects.  A prefix cut after a line feed parses exactly when each of its
    lines does, so bisecting over those prefixes finds the line in about
    log2(lines) vectorised calls.  Returns no rows."""
    # Where each line starts, and the end of the run, where the last one ends
    # with or without a line feed.
    starts = [0, *(np.flatnonzero(run[:-1] == ord("\n")) + 1).tolist(), run.size]
    good, bad = 0, len(starts) - 1  # the first ``good`` lines parse, the first ``bad`` do not
    while bad - good > 1:
        middle = (good + bad) // 2
        if _canonical_chunk(run[: starts[middle]], first_id, scratch) is None:
            bad = middle
        else:
            good = middle
    row, line = first_id + good, run[starts[good] : starts[bad]].tobytes()
    raise ValueError(f"{scratch.path}, line {row + 2}: {_line_fault(line, row, scratch)}")


def _line_fault(line: bytes, row: int, scratch: _ChunkParser) -> str:
    """What is wrong with ``line``, the line of event ``row``, which
    :func:`_canonical_chunk` rejects: first a wrong value, as ``int()`` or
    ``float()`` reads its token, then a right value in a form the writer
    never writes, then a missing line end."""
    # A byte that is not ASCII decodes to a character that no field accepts.
    text = line.decode("ascii", "surrogateescape")
    body = text[:-1].removesuffix("\r") if text.endswith("\n") else text
    if "\r" in body:
        return "carriage return without a line feed"
    if not body.strip():
        return "blank line"
    fields = body.split(",")
    if len(fields) != len(CSV_HEADER):
        return f"expected {len(CSV_HEADER)} fields, got {len(fields)}"
    event_id, phi, *flags = fields
    try:
        value = int(event_id)
    except ValueError:
        return f"event_id {event_id!r} is not a 64-bit integer"
    try:
        angle = float(phi)
    except ValueError:
        return f"phi {phi!r} is not a number"
    for name, token in zip(CSV_HEADER[2:], flags):
        if token not in ("0", "1"):
            return f"{name} {token!r} is not 0 or 1"
    if value != row:
        return f"event_id {value} out of order (expected {row})"
    if not 0.0 <= angle < TWO_PI:
        return f"phi {angle} is not in [0, 2*pi)"
    if event_id != str(row):
        return f"event_id {event_id!r} is not in the form hepbell writes"
    probe = np.frombuffer(f"{row},{phi},0,0,0\n".encode(), dtype=np.uint8)
    if _canonical_chunk(probe, row, scratch) is None:
        return f"phi {phi!r} is not in the form hepbell writes"
    if not text.endswith("\n"):
        return "no line end after the last row"
    return "not an event row as hepbell writes it"


def _no_events() -> EventSample:
    return EventSample(np.empty(0), *np.empty((3, 0), dtype=bool))


def _columns(sample: EventSample) -> tuple[np.ndarray, ...]:
    return sample.phi, sample.detected_1, sample.detected_2, sample.is_background


def _runs_after_header(fh, path: Path) -> Iterator[tuple[int, np.ndarray]]:
    """The runs of :func:`_runs` after the header line, which is checked:
    like every row, it must end in a line feed."""
    runs = _runs(fh)
    line = next(runs, (0, np.empty(0, dtype=np.uint8)))[1].tobytes()
    header = line.split(b"\r", 1)[0].rstrip(b"\n")
    if header != _CSV_HEADER_BYTES:
        fields = header.decode("ascii", "surrogateescape").split(",")
        raise ValueError(f"unexpected event file header {fields} in {path}")
    if line[len(header) :] not in (b"", b"\n", b"\r\n"):
        raise ValueError(f"{path}, line 1: carriage return without a line feed")
    if not line.endswith(b"\n"):
        raise ValueError(f"{path}, line 1: no line end after the header")
    return runs


def iter_events_csv(path) -> Iterator[EventSample]:
    """Read an event file as samples of ``_CSV_CHUNK_ROWS`` lines in order
    (one empty sample for a header-only file), in this process, enforcing
    the header and ids that count up from 0.

    The file is read once, in binary blocks, and each run of lines is
    parsed by :func:`_canonical_chunk`, whose rows are the only ones the
    reader accepts.  A run it rejects raises ValueError naming the file and
    the first bad line, found by :func:`_parse_lines`.  A chunk is yielded
    only once every one of its rows has been read, so no row of a malformed
    chunk reaches the caller, nor any chunk after it.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        runs, parse, n = _runs_after_header(fh, path), _ChunkParser(path), 0
        for index, (_, run) in enumerate(runs):
            chunk = parse(index, run)
            n += len(chunk)
            yield EventSample(*(np.array(column) for column in _columns(chunk)))
        if not n:
            yield _no_events()


def read_events_csv(path) -> EventSample:
    """Read a whole event file: the chunks of :func:`iter_events_csv`, joined."""
    chunks = [_columns(chunk) for chunk in iter_events_csv(path)]
    return EventSample(*(np.concatenate(column) for column in zip(*chunks)))


def _event_counts(path, count: Callable[[EventSample], np.ndarray]) -> np.ndarray:
    """``count(chunk)``, integer counts, summed over the chunks of the event
    file ``path`` as :func:`iter_events_csv` reads them, with its errors, by
    :func:`hepbell._workers.summed_counts`.  That may split a regular file
    over processes, and derives ``kappa``, needed by both estimators, while
    they parse.  A FIFO or a device, which ``pread`` cannot read, is counted
    in this process, as is any file where the platform has no ``pread``
    (Windows)."""
    from . import _workers

    path = Path(path)
    with open(path, "rb") as fh:
        runs, parse = _runs_after_header(fh, path), _ChunkParser(path)
        info = os.fstat(fh.fileno())
        splittable = stat.S_ISREG(info.st_mode) and hasattr(os, "preadv")
        rows = info.st_size // _ROW_BYTES if splittable else 0
        return _workers.summed_counts(
            fh.fileno(), runs, parse, count, count(_no_events()), rows, derive_kappa
        )
