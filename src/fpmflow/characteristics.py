"""Characteristic paths dX/dt = u(X, t) over a run's snapshot series, the
mass transported between two of them (each path carries the mass of
[0, X(t)]), and the exponential decay bound check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# evaluate_trig and antiderivative_at are not called here; the benchmark's
# tracer patches them by these names
from .grid import (antiderivative_at, antiderivative_eval,  # noqa: F401
                   antiderivative_layout, evaluate_trig, trig_eval, trig_layout)

__all__ = [
    "CharacteristicPath",
    "DecayBoundReport",
    "PathTracer",
    "advect_path",
    "advect_paths",
    "check_mass_transport",
    "check_decay_bound",
]


@dataclass(frozen=True)
class CharacteristicPath:
    x_start: float
    times: np.ndarray
    positions: np.ndarray
    rho_along: np.ndarray  # density sampled on the path at snapshot times
    mass_along: np.ndarray  # mass of [0, X(t)] at snapshot times

    def decay_envelope(self, A: float) -> np.ndarray:
        """The decay bound |x_start| e^{-A t} on |X(t)|, at the path's times."""
        return abs(self.x_start) * np.exp(-A * self.times)


class PathTracer:
    """An observer that steps the path from each start (a float or a
    sequence of them) through the snapshots as the run makes them, one
    classic RK4 step per interval, and returns each snapshot's row: t, then
    X, rho(X) and F(X) for each start; `paths` turns the rows into paths.

    Between snapshots u is the trig sum of the coefficients interpolated
    linearly in time, so a stage evaluates the interval's end rows or their
    average at one point.  That interpolation, not the step, bounds a
    path's accuracy (vacuum-plateau, n = 1024, snapshots every 2e-4:
    1.5e-11 from 16 steps per interval, 2.7e-7 from halving the interval).
    Each trig layout is built once and shared by the starts; a snapshot's u
    layout starts the next interval, and the midpoint layout is half the
    sum of the end layouts.  At a snapshot one phase vector per start gives
    u, rho and F's periodic part together, and that u is the start's k1 for
    the next interval; so a start costs 4 phase vectors per interval (k2,
    k3, k4 and the snapshot's), and F's constant, a sum at 0, none.  Each
    start is stepped on its own, so a path does not depend on the other
    starts.  Positions are unwrapped (our data keep paths inside the
    torus); the trig sums are 1-periodic.
    """

    def __init__(self, starts):
        self.starts = np.atleast_1d(np.asarray(starts, dtype=float)).tolist()
        self._pos = list(self.starts)
        self._u = []  # u at each position at the last snapshot: the next k1s
        self._last = None  # the last snapshot's t and u layout

    def __call__(self, state) -> tuple:
        grid = state.u.grid
        end = trig_layout(grid, state.u.coefficients)
        if self._last is not None:
            t, (cqr_a, a0, an) = self._last
            cqr_b, b0, bn = end
            h = float(state.t - t)
            # a tuple display: tuple() of a generator resizes a new tuple on
            # every call, and the interpreter's free list keeps each one
            mid = 0.5 * (cqr_a + cqr_b), 0.5 * (a0 + b0), 0.5 * (an + bn)
            for k, (p, k1) in enumerate(zip(self._pos, self._u)):  # RK4 on Python floats
                k2 = float(trig_eval(grid, mid, p + 0.5 * h * k1))
                k3 = float(trig_eval(grid, mid, p + 0.5 * h * k2))
                k4 = float(trig_eval(grid, end, p + h * k3))
                self._pos[k] = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        self._last = state.t, end
        rho, parts = trig_layout(grid, state.rho.coefficients), antiderivative_layout(state.rho)
        shared, row, self._u = [end, rho, parts[0]], [state.t], []
        for p in self._pos:
            u, r, periodic = trig_eval(grid, shared, p)
            self._u.append(float(u))
            row += p, r, antiderivative_eval(grid, parts, p, periodic)
        return tuple(row)

    def paths(self, records) -> list[CharacteristicPath]:
        """The path of each start from the rows this tracer returned."""
        cols = np.array(records).T
        return [CharacteristicPath(x, cols[0], *cols[1 + 3 * k:4 + 3 * k])
                for k, x in enumerate(self.starts)]


def advect_paths(states, starts) -> list[CharacteristicPath]:
    """`PathTracer(starts)` folded over a stored snapshot series."""
    if len(states) < 2:
        raise ValueError("need at least two snapshots to advect a path")
    tracer = PathTracer(starts)
    return tracer.paths([tracer(s) for s in states])


def advect_path(states, x_start: float) -> CharacteristicPath:
    """The path from one start: `advect_paths(states, [x_start])[0]`."""
    return advect_paths(states, [x_start])[0]


def check_mass_transport(path1: CharacteristicPath, path2: CharacteristicPath,
                         states) -> float:
    """Max drift over snapshots of the mass F(X_2) - F(X_1) between the two
    paths, read from their `mass_along`; states is any sequence of one entry per snapshot."""
    if len(path1.times) != len(states) or len(path2.times) != len(states):
        raise ValueError("paths and snapshot series must share their time grid")
    drifts = path2.mass_along - path1.mass_along
    return float(np.max(np.abs(drifts - drifts[0])))


@dataclass(frozen=True)
class DecayBoundReport:
    applicable: bool
    holds: bool
    margin: Optional[float]  # min over checked t > 0 of (bound - |X|) / bound
    t_checked: Optional[float]  # last time the smallness hypothesis held


DECAY_TOL = 1e-3  # relative slack of the decay bound


def check_decay_bound(path: CharacteristicPath, A: float, m: float,
                      delta: float | None = None) -> DecayBoundReport:
    """Verify |X(t)| <= |x_start| e^{-A t} (1 + DECAY_TOL) while
    rho(X(t), t) <= m/2; |X| is the path's distance from the vacuum point 0.

    Times after the first smallness violation are not checked; if the
    hypothesis fails from the start, or the path starts outside the
    smallness radius delta, the report is not applicable and has no margin
    or checked time.  The margin is None when no checked t > 0 has a bound.
    """
    small = path.rho_along <= m / 2.0 + 1e-12
    if not small[0] or (delta is not None and abs(path.x_start) > delta + 1e-12):
        return DecayBoundReport(False, False, None, None)
    n_ok = int(np.argmin(small)) if not np.all(small) else len(small)
    times = path.times[:n_ok]
    dist = np.abs(path.positions[:n_ok])
    bound = path.decay_envelope(A)[:n_ok]
    later = (times > 0) & (bound > 0)
    margin = float(np.min((bound - dist)[later] / bound[later])) if later.any() else None
    holds = bool(np.all(dist <= bound * (1.0 + DECAY_TOL) + 1e-15))
    return DecayBoundReport(True, holds, margin, float(times[-1]))
