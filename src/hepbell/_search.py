"""Deterministic grid + golden-section maximization over angle boxes.

Used by the violation maximizers.  Everything here is order-independent:
all grid candidates are refined together, as rows of one array in lockstep
golden sections, and ties are broken by the lexicographically smallest
canonicalized coordinate tuple.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0   # 1/phi
_INVPHI2 = (3.0 - np.sqrt(5.0)) / 2.0  # 1/phi^2

# Hard cap on refined grid candidates; exact grid maximizers sort first, so
# ridge-shaped near-maximal sets cannot crowd a true family member out.
_MAX_CANDIDATES = 512

# Bracket width at which a golden section stops.
_X_TOL = 1e-8

# Most grid points a scan may evaluate: the scan keeps every value (8 bytes
# each, 32 MiB at the cap).  Admits pi/45 on four axes and pi/161 on three.
_MAX_GRID_POINTS = 1 << 22


class GridTooFine(ValueError):
    """A grid step whose mesh exceeds _MAX_GRID_POINTS."""


def _golden_section_max(
    func_vec: Callable[..., np.ndarray],
    point: np.ndarray,
    axis: int,
    half_width: float,
    x_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Golden section along coordinate ``axis`` of every row of ``point``.

    Row r brackets [point[r, axis] - half_width, point[r, axis] + half_width].
    The rows step in lockstep, each branching on its own ``fc >= fd`` and
    retiring once its bracket is within ``x_tol``; per row this is the
    arithmetic of a scalar golden section.  Returns the arrays (x, f(x)).
    """

    def func(rows, x):
        args = [col[rows] for col in point.T]
        args[axis] = x
        return func_vec(*args)

    lo, hi = point[:, axis] - half_width, point[:, axis] + half_width
    rows = np.flatnonzero(hi - lo > x_tol)
    a, b = lo[rows], hi[rows]
    h = b - a
    c, d = a + _INVPHI2 * h, a + _INVPHI * h
    if rows.size:
        fc, fd = func(rows, c), func(rows, d)
    while rows.size:
        # The maximum stays in [a, d] (left) or [c, b]; the interior point
        # kept becomes d (left) or c, and the other one is new.
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        h = b - a
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        new = a + np.where(left, _INVPHI2, _INVPHI) * h
        f_new = func(rows, new)
        c, fc = np.where(left, new, kept), np.where(left, f_new, f_kept)
        d, fd = np.where(left, kept, new), np.where(left, f_kept, f_new)
        done = h <= x_tol
        if done.any():
            lo[rows[done]], hi[rows[done]] = a[done], b[done]
            rows, a, b, c, d, fc, fd = (v[~done] for v in (rows, a, b, c, d, fc, fd))
    x = 0.5 * (lo + hi)
    return x, func(slice(None), x)


def refine_lockstep(
    func_vec: Callable[..., np.ndarray],
    starts: np.ndarray,
    half_width: float,
    x_tol: float = _X_TOL,
    max_sweeps: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic per-coordinate golden-section ascent around each row of ``starts``.

    ``func_vec`` takes one array per coordinate.  A sweep runs one lockstep
    golden section per coordinate over the rows still live; a row takes a
    coordinate's result only where it beats the row's best value, and
    retires after a sweep that improved it by less than 1e-15.  Returns the
    refined points, shape ``(rows, coordinates)``, and their values.
    """
    point = np.array(starts, dtype=float)
    best = func_vec(*point.T)
    live = np.arange(len(point))
    for _ in range(max_sweeps):
        sub, sub_best = point[live], best[live]
        improved = np.zeros(live.size)
        for i in range(point.shape[1]):
            x, fx = _golden_section_max(func_vec, sub, i, half_width, x_tol)
            up = fx > sub_best
            improved[up] += fx[up] - sub_best[up]
            sub[up, i], sub_best[up] = x[up], fx[up]
        point[live], best[live] = sub, sub_best
        live = live[improved >= 1e-15]
        if not live.size:
            break
    return point, best


def _lex_less(a: Sequence[float], b: Sequence[float], tol: float) -> bool:
    for x, y in zip(a, b):
        if abs(x - y) > tol:
            return x < y
    return False


def _grid_candidates(
    func_vec: Callable[..., np.ndarray],
    axis: np.ndarray,
    n_axes: int,
    slack: float,
) -> list[tuple[float, tuple[float, ...]]]:
    """(value, point) pairs within ``slack`` of the grid maximum.

    The first axis is evaluated slab by slab so dense grids never
    materialize the full mesh.
    """
    rest_shape = [len(axis)] * (n_axes - 1)
    rest = [
        axis.reshape([1] * i + [-1] + [1] * (n_axes - 2 - i)) for i in range(n_axes - 1)
    ]
    slabs: list[np.ndarray] = []
    grid_max = -np.inf
    for x0 in axis:
        values = np.asarray(func_vec(x0, *rest), dtype=float)
        values = np.broadcast_to(values, rest_shape) if rest_shape else values
        slabs.append(values)
        slab_max = float(values.max()) if values.size else float(values)
        grid_max = max(grid_max, slab_max)

    out: list[tuple[float, tuple[float, ...]]] = []
    for i0, values in enumerate(slabs):
        hits = np.argwhere(np.atleast_1d(values) >= grid_max - slack)
        for idx in hits:
            point = (float(axis[i0]),) + tuple(float(axis[i]) for i in idx[: n_axes - 1])
            value = float(np.atleast_1d(values)[tuple(idx)])
            out.append((value, point))
    # Exact maximizers first; index order breaks value ties deterministically.
    out.sort(key=lambda item: (-item[0], item[1]))
    return out[:_MAX_CANDIDATES]


def maximize_on_grid(
    func_vec: Callable[..., np.ndarray],
    n_axes: int,
    grid_step: float,
) -> tuple[tuple[float, ...], float]:
    """Grid scan over [0, pi)^n followed by local refinement.

    ``func_vec`` must accept ``n_axes`` broadcastable arguments and be
    pi-periodic in each.  All grid points within a slack of the grid maximum
    are refined so every member of a discrete family of maximizers is found;
    the winner is the lexicographically smallest canonical representative
    (coordinates reduced mod pi).  ``grid_step`` must be in (0, pi/16], and
    its mesh of ``ceil(pi / grid_step) ** n_axes`` points within
    _MAX_GRID_POINTS; both are checked before anything is allocated.
    """
    if not (0.0 < grid_step <= math.pi / 16 + 1e-15):
        raise ValueError("grid_step must be in (0, pi/16]")
    per_axis = math.ceil(math.pi / grid_step)  # len(np.arange(0, pi, grid_step))
    if per_axis**n_axes > _MAX_GRID_POINTS:
        raise GridTooFine(
            f"grid_step {grid_step!r} gives {per_axis}**{n_axes} grid points, "
            f"more than the {_MAX_GRID_POINTS} allowed"
        )
    x_tol = _X_TOL
    axis = np.arange(0.0, math.pi, grid_step)
    # The slack covers the quadratic drop to the nearest grid point for the
    # O(1) curvature trigonometric functionals used here.
    slack = max(2.0 * grid_step**2, 1e-12)
    candidates = _grid_candidates(func_vec, axis, n_axes, slack)
    points, values = refine_lockstep(
        func_vec, np.array([pt for _, pt in candidates]), half_width=grid_step, x_tol=x_tol
    )
    keep_tol = max(10.0 * x_tol**2, 1e-12)
    best_val = float(values.max())
    winners = np.mod(points[values >= best_val - keep_tol], math.pi)
    pos_tol = max(10.0 * x_tol, 1e-9)
    winners[math.pi - winners < pos_tol] = 0.0
    winners = [tuple(w) for w in winners.tolist()]
    best = winners[0]
    for cand in winners[1:]:
        if _lex_less(cand, best, pos_tol):
            best = cand
    return best, best_val
