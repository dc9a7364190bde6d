"""The lockstep array refiner against its scalar twin.

``golden_section_max``, ``line_max`` and ``refine_coordinatewise`` below
are the refinement written for one point on Python lists, kept as the
reference.  Run on one-element arrays, so that each objective value comes
from the same arithmetic as in the array path, it must give every refined
row bit for bit.  Run on Python floats, it must give the same optimum.
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


def line_max(func, point, direction, lo, hi, x_tol):
    """Golden section of t -> func(point + t * direction) on [lo, hi];
    returns (point + t * direction, its value)."""

    def at(t):
        return [p + t * d for p, d in zip(point, direction)]

    t, value = golden_section_max(lambda t: func(at(t)), lo, hi, x_tol)
    return at(t), value


def refine_coordinatewise(func, start, half_width, x_tol=1e-8, max_sweeps=60):
    """Cyclic per-coordinate golden-section ascent around ``start``, each
    sweep followed by a line search along its displacement."""
    point = [float(v) for v in start]
    best = func(point)
    width = half_width
    for _ in range(max_sweeps):
        before, improved = point, 0.0
        for i in range(len(point)):
            axis = [float(j == i) for j in range(len(point))]
            x, fx = line_max(func, point, axis, -width, width, x_tol)
            if fx > best:
                improved += fx - best
                point, best = x, fx
        move = [p - q for p, q in zip(point, before)]
        reach = max(abs(m) for m in move)
        if reach > 0.0:
            x, fx = line_max(func, point, move, 0.0, 4.0, x_tol / reach)
            if fx > best:
                improved += fx - best
                point, best = x, fx
            reach = max(abs(p - q) for p, q in zip(point, before))
        width = min(max(4.0 * reach, x_tol), half_width)
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
    """Evaluate at one point on Python floats, as a scalar search would."""
    return lambda p: float(func_vec(*p))


def reference_rows(func_vec, starts, half_width, x_tol=1e-8, max_sweeps=60,
                   evaluate=on_elements):
    """The scalar twin run on each row alone, as refine_lockstep's arrays."""
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
    """The optimum is that of the scalar twin on Python floats, at the
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

    # Brackets [0, 0.6] and [-0.4, 0.2] under x_tol = 1 take no golden step;
    # each row lands on its bracket's midpoint along its own direction.
    point = np.array([[0.05, 0.3], [0.101, 1.9], [0.085, 0.156]])
    direction = np.array([[1.0, 0.0], [0.3, -0.7], [0.0, 1.0]])
    lo, hi = np.array([0.0, -0.4, 0.0]), np.array([0.6, 0.2, 0.6])
    calls = []

    def recording(x, y):
        calls.append(np.size(x))
        return func_vec(x, y)

    x, fx = _search._golden_section_max(recording, point, direction, lo, hi, 1.0)
    assert calls == [3]
    on_row = on_elements(func_vec)
    for row, args in enumerate(zip(point.tolist(), direction.tolist(), lo, hi)):
        want_x, want_f = line_max(on_row, *args, 1.0)
        assert [float.hex(v) for v in x[row]] == [float.hex(v) for v in want_x]
        assert float.hex(fx[row]) == float.hex(want_f)
    assert_same_rows(func_vec, point, 0.3, x_tol=1.0)


@pytest.mark.parametrize(
    "maximize, objective, budget",
    [
        (spin1.maximize_ch_vv, "ch_vv_joint_combination", 480),
        (spin1.maximize_violation, "hardy_difference_closed", 1_800),
    ],
)
def test_search_call_budget(monkeypatch, maximize, objective, budget):
    """Candidates are refined as arrays, not one scalar call per point, and
    the line steps keep the sweeps few: the default grids take 387 and 1 458
    calls, about 25 % under these budgets."""
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
