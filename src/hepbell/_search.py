"""Deterministic grid + golden-section maximization over angle boxes.

Used by the violation maximizers in :mod:`hepbell.spin1`.  Everything here
is order-independent: all grid candidates are refined together, as rows of
one array in lockstep golden sections (along each coordinate, then along
each sweep's displacement), and ties are broken by the lexicographically
smallest canonicalized coordinate tuple.
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
    direction: np.ndarray,
    lo: np.ndarray | float,
    hi: np.ndarray | float,
    x_tol: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray]:
    """Golden section of t -> f(point[r] + t * direction[r]) on every row r.

    Row r brackets t in [lo[r], hi[r]]; ``lo``, ``hi`` and ``x_tol`` are
    arrays over the rows or scalars.  The rows step in lockstep, each
    branching on its own ``fc >= fd`` and retiring once its bracket is
    within ``x_tol[r]``; per row this is the arithmetic of a scalar golden
    section.  A coordinate that no row moves along is passed to ``func_vec``
    as it is.  Returns the points ``point + t * direction`` at the brackets'
    midpoints, shape ``(rows, coordinates)``, and their values.
    """
    n_rows = len(point)
    lo, hi = (np.array(np.broadcast_to(v, n_rows), dtype=float) for v in (lo, hi))
    tol = np.broadcast_to(x_tol, n_rows)
    moving = [j for j in range(point.shape[1]) if direction[:, j].any()]

    def at(base, step, t):
        args = list(base)
        for k, j in enumerate(moving):
            args[j] = base[j] + t * step[k]
        return args

    rows = np.flatnonzero(hi - lo > tol)
    # The columns of the rows still searching, gathered again only when rows retire.
    base, step, tol = point.T[:, rows], direction.T[moving][:, rows], tol[rows]
    a, b = lo[rows], hi[rows]
    h = b - a
    c, d = a + _INVPHI2 * h, a + _INVPHI * h
    if rows.size:
        fc, fd = func_vec(*at(base, step, c)), func_vec(*at(base, step, d))
    while rows.size:
        # The maximum stays in [a, d] (left) or [c, b]; the interior point
        # kept becomes d (left) or c, and the other one is new.
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        h = b - a
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        new = a + np.where(left, _INVPHI2, _INVPHI) * h
        f_new = func_vec(*at(base, step, new))
        c, fc = np.where(left, new, kept), np.where(left, f_new, f_kept)
        d, fd = np.where(left, kept, new), np.where(left, f_kept, f_new)
        done = h <= tol
        if done.any():
            lo[rows[done]], hi[rows[done]] = a[done], b[done]
            go = ~done
            rows, a, b, c, d, fc, fd, tol = (v[go] for v in (rows, a, b, c, d, fc, fd, tol))
            base, step = base[:, go], step[:, go]
    args = at(point.T, direction.T[moving], 0.5 * (lo + hi))
    return np.stack(args, axis=1), func_vec(*args)


def refine_lockstep(
    func_vec: Callable[..., np.ndarray],
    starts: np.ndarray,
    half_width: float,
    x_tol: float = _X_TOL,
    max_sweeps: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic per-coordinate golden-section ascent around each row of
    ``starts``, with a line search along each sweep's displacement.

    ``func_vec`` takes one array per coordinate.  A sweep runs one lockstep
    golden section per coordinate over the rows still live.  The first
    sweep brackets a row's coordinate by +-``half_width``; later ones by +-4
    times the row's largest coordinate move over the previous sweep,
    clipped to [``x_tol``, ``half_width``].  Then a row that moved by d
    searches p + t * d for t in [0, 4], to ``x_tol`` in each coordinate: the
    pattern move of Hooke and Jeeves, which follows a ridge that the
    coordinate searches zig-zag along.  A row takes a search's result only
    where it beats the row's best value, and retires after a sweep, line
    step included, that improved it by less than 1e-15.  Returns the refined
    points, shape ``(rows, coordinates)``, and their values.
    """
    point = np.array(starts, dtype=float)
    best = func_vec(*point.T)
    width = np.full(len(point), float(half_width))
    axes = np.eye(point.shape[1])
    live = np.arange(len(point))
    for _ in range(max_sweeps):
        start, sub, sub_best = point[live], point[live], best[live]
        improved = np.zeros(live.size)

        def take(rows, x, fx):
            """Rows ``rows`` of ``sub`` move to ``x`` where ``fx`` beats them."""
            up = fx > sub_best[rows]
            rows, x, fx = rows[up], x[up], fx[up]
            improved[rows] += fx - sub_best[rows]
            sub[rows], sub_best[rows] = x, fx

        every, w = np.arange(live.size), width[live]
        for axis in axes:
            direction = np.broadcast_to(axis, sub.shape)
            take(every, *_golden_section_max(func_vec, sub, direction, -w, w, x_tol))
        move = sub - start
        reach = np.abs(move).max(axis=1)
        moved = np.flatnonzero(reach > 0.0)
        if moved.size:
            tol = x_tol / reach[moved]
            take(moved, *_golden_section_max(func_vec, sub[moved], move[moved], 0.0, 4.0, tol))
            reach = np.abs(sub - start).max(axis=1)
        point[live], best[live] = sub, sub_best
        width[live] = np.clip(4.0 * reach, x_tol, half_width)
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
    """(value, point) pairs within ``slack`` of the grid maximum, best first.

    The first axis is evaluated slab by slab into one array of the grid's
    values, so dense grids never materialize the full mesh of arguments.
    """
    rest = [
        axis.reshape([1] * i + [-1] + [1] * (n_axes - 2 - i)) for i in range(n_axes - 1)
    ]
    values = np.empty((len(axis),) * n_axes)
    for i0, x0 in enumerate(axis):
        values[i0] = func_vec(x0, *rest)
    hits = np.nonzero(values >= values.max() - slack)
    points, found = [axis[i] for i in hits], values[hits]
    # Exact maximizers first; index order breaks value ties deterministically.
    order = np.lexsort([*points[::-1], -found])[:_MAX_CANDIDATES]
    return list(zip(found[order].tolist(), zip(*(p[order].tolist() for p in points))))


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
