"""The lockstep array refiner against the scalar golden-section search.

``golden_section_max`` and ``refine_coordinatewise`` below are the scalar
search the array path replaced, kept as the reference.  Run on one-element
arrays, so that each objective value comes from the same arithmetic as in
the array path, it must give every refined row bit for bit.  The scalar
search as it ran before, on Python floats, must give the same optimum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hepbell import _search, spin1
from hepbell._search import _INVPHI, _INVPHI2, refine_lockstep


def golden_section_max(func, lo, hi, x_tol=1e-8):
    """Maximize a unimodal function on [lo, hi]; returns (x, f(x))."""
    a, b = float(lo), float(hi)
    h = b - a
    if h <= x_tol:
        mid = 0.5 * (a + b)
        return mid, func(mid)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc, fd = func(c), func(d)
    while h > x_tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = func(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = func(d)
    x = 0.5 * (a + b)
    return x, func(x)


def refine_coordinatewise(func, start, half_width, x_tol=1e-8, max_sweeps=60):
    """Cyclic per-coordinate golden-section ascent around ``start``."""
    point = [float(v) for v in start]
    best = func(point)
    for _ in range(max_sweeps):
        improved = 0.0
        for i in range(len(point)):
            def slice_func(x, i=i):
                trial = list(point)
                trial[i] = x
                return func(trial)

            x, fx = golden_section_max(
                slice_func, point[i] - half_width, point[i] + half_width, x_tol
            )
            if fx > best:
                improved += fx - best
                point[i], best = x, fx
        if improved < 1e-15:
            break
    return tuple(point), best


def on_elements(func_vec):
    """Evaluate at one point through one-element arrays.

    ``x ** 2`` squares an array by multiplication but a Python float by
    ``pow``, and the two differ in the last bit for about one x in a
    thousand; on arrays the objective's arithmetic is that of the array path.
    """
    return lambda p: float(func_vec(*(np.array([v]) for v in p))[0])


def on_floats(func_vec):
    """Evaluate at one point on Python floats, as the scalar search did."""
    return lambda p: float(func_vec(*p))


def reference_rows(func_vec, starts, half_width, x_tol=1e-8, max_sweeps=60,
                   evaluate=on_elements):
    """The scalar search run on each row alone, as refine_lockstep's arrays."""
    rows = [
        refine_coordinatewise(evaluate(func_vec), start, half_width, x_tol, max_sweeps)
        for start in np.asarray(starts, dtype=float).tolist()
    ]
    return np.array([p for p, _ in rows]), np.array([v for _, v in rows])


def hexes(points, values):
    return [[float.hex(x) for x in row] for row in points.tolist()], [
        float.hex(v) for v in values.tolist()
    ]


def assert_same_rows(func_vec, starts, half_width, x_tol=1e-8, max_sweeps=60):
    got = refine_lockstep(func_vec, starts, half_width, x_tol, max_sweeps)
    want = reference_rows(func_vec, starts, half_width, x_tol, max_sweeps)
    assert hexes(*got) == hexes(*want)


@pytest.mark.parametrize("x_tol", [1e-8, 1e-9, 1e-10])
@pytest.mark.parametrize("steps", [16, 20, 24])
@pytest.mark.parametrize("maximize", [spin1.maximize_violation, spin1.maximize_ch_vv])
def test_searches_match_scalar_search(monkeypatch, maximize, steps, x_tol):
    """The optimum is that of the scalar search on Python floats, at the
    search's own bracket tolerance (1e-8) and at tighter ones."""
    grid_step = math.pi / steps
    monkeypatch.setattr(_search, "_X_TOL", x_tol)
    got = maximize(grid_step=grid_step)

    def scalar_search(func_vec, starts, half_width, x_tol):
        return reference_rows(func_vec, starts, half_width, x_tol, evaluate=on_floats)

    monkeypatch.setattr(_search, "refine_lockstep", scalar_search)
    want = maximize(grid_step=grid_step)
    # repr of a float round-trips, so equal reprs are equal bits.
    assert repr(got) == repr(want)


@pytest.mark.parametrize(
    "func_vec, n_axes",
    [
        (spin1.hardy_difference_closed, 3),
        (lambda *t: spin1.ch_vv_joint_combination(*t) - 1.0, 4),
    ],
    ids=["hardy", "ch_vv"],
)
def test_every_grid_candidate_matches_scalar_rows(func_vec, n_axes):
    grid_step = math.pi / 16
    axis = np.arange(0.0, math.pi, grid_step)
    candidates = _search._grid_candidates(func_vec, axis, n_axes, 2.0 * grid_step**2)
    assert len(candidates) > 50
    assert_same_rows(func_vec, [pt for _, pt in candidates], grid_step)


def _sin2_sum(terms):
    """sum of c * sin^2(k . x + phase) over ``terms`` (vectorizable)."""

    def func(*xs):
        total = 0.0
        for c, ks, phase in terms:
            total = total + c * np.sin(sum(k * x for k, x in zip(ks, xs)) + phase) ** 2
        return total

    return func


@st.composite
def sin2_problems(draw):
    n_axes = draw(st.integers(2, 4))
    coeff = st.integers(-2, 2)
    term = st.tuples(
        st.floats(-1.0, 1.0).filter(lambda c: c != 0.0),
        st.lists(coeff, min_size=n_axes, max_size=n_axes).filter(any),
        st.floats(0.0, math.pi),
    )
    terms = draw(st.lists(term, min_size=1, max_size=4))
    n_rows = draw(st.integers(1, 4))
    starts = draw(
        st.lists(
            st.lists(st.floats(0.0, math.pi), min_size=n_axes, max_size=n_axes),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    half_width = draw(st.floats(0.01, 0.4))
    return _sin2_sum(terms), starts, half_width


@settings(max_examples=30, deadline=None)
@given(sin2_problems())
def test_lockstep_matches_scalar_property(problem):
    func_vec, starts, half_width = problem
    assert_same_rows(func_vec, starts, half_width)


@pytest.mark.parametrize("max_sweeps", [3, 60])
def test_rows_retire_at_different_sweeps(max_sweeps):
    # The maximum is 0 at (0.5, 0.5).  The first row starts on it and stops
    # after one sweep; the second climbs a narrow ridge for many sweeps.
    def func_vec(x, y):
        return -np.sin(x - y) ** 2 - 0.1 * np.sin(x + y - 1.0) ** 2

    sizes = []

    def recording(x, y):
        sizes.append(np.size(x))
        return func_vec(x, y)

    starts = [[0.5, 0.5], [1.2, 0.3]]
    assert_same_rows(func_vec, starts, 0.2, max_sweeps=max_sweeps)
    points, values = refine_lockstep(recording, starts, 0.2, max_sweeps=max_sweeps)
    assert points[0].tolist() == [0.5, 0.5] and values[0] == 0.0
    assert 2 in sizes and sizes[-1] == 1


def test_box_within_tolerance_returns_midpoint():
    def func_vec(x, y):
        return np.cos(x) * np.cos(2.0 * y)

    # Boxes 0.6 wide under x_tol = 1 take no golden step.  For these x the
    # midpoint ((x - 0.3) + (x + 0.3)) / 2 is not x itself.
    point = np.array([[0.05, 0.3], [0.101, 1.9], [0.085, 0.156]])
    calls = []

    def recording(x, y):
        calls.append(np.size(x))
        return func_vec(x, y)

    x, fx = _search._golden_section_max(recording, point, 0, 0.3, 1.0)
    assert calls == [3]
    assert (x != point[:, 0]).all()
    on_row = on_elements(func_vec)
    for row, (start, y) in enumerate(point.tolist()):
        want = golden_section_max(lambda v: on_row([v, y]), start - 0.3, start + 0.3, 1.0)
        assert (float.hex(x[row]), float.hex(fx[row])) == tuple(map(float.hex, want))
    assert_same_rows(func_vec, point, 0.3, x_tol=1.0)


@pytest.mark.parametrize(
    "maximize, objective, budget",
    [
        (spin1.maximize_ch_vv, "ch_vv_joint_combination", 2_000),
        (spin1.maximize_violation, "hardy_difference_closed", 10_000),
    ],
)
def test_search_call_budget(monkeypatch, maximize, objective, budget):
    """Candidates are refined as arrays, not one scalar call per point."""
    original = getattr(spin1, objective)
    calls = []

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(spin1, objective, counted)
    maximize()
    assert 0 < len(calls) < budget


class GridReached(Exception):
    """Raised in place of building the grid axis."""


@pytest.fixture
def grid_axis_refused(monkeypatch):
    """``np.arange`` raises GridReached, so no grid is ever allocated."""

    def refuse(*args, **kwargs):
        raise GridReached

    monkeypatch.setattr(np, "arange", refuse)


@pytest.mark.parametrize(
    "n_axes, grid_step",
    [(4, 1e-9), (3, 1e-9), (3, math.pi / 2000), (4, math.pi / 46), (3, math.pi / 162)],
)
def test_grid_beyond_budget_is_refused_before_allocation(grid_axis_refused, n_axes, grid_step):
    per_axis = math.ceil(math.pi / grid_step)
    with pytest.raises(_search.GridTooFine) as excinfo:
        _search.maximize_on_grid(np.cos, n_axes, grid_step)
    assert str(excinfo.value) == (
        f"grid_step {grid_step!r} gives {per_axis}**{n_axes} grid points, "
        f"more than the {_search._MAX_GRID_POINTS} allowed"
    )


@pytest.mark.parametrize(
    "n_axes, grid_step",
    [(4, math.pi / 16), (4, math.pi / 20), (4, math.pi / 24), (4, math.pi / 45), (3, math.pi / 161)],
)
def test_grid_within_budget_is_admitted(grid_axis_refused, n_axes, grid_step):
    with pytest.raises(GridReached):
        _search.maximize_on_grid(np.cos, n_axes, grid_step)
