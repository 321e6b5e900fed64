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


def advect_paths(states, starts) -> list[CharacteristicPath]:
    """Integrate the path from each start (a float or a sequence of them)
    through the snapshot series, one classical RK4 step per interval.

    Between snapshots u is the trig sum of the coefficients interpolated
    linearly in time, so each stage evaluates one row at one point: the
    interval's end rows or their average.  That interpolation, not the
    step, bounds a path's accuracy (vacuum-plateau, n = 1024, snapshots
    every 2e-4: 1.5e-11 from 16 steps per interval, 2.7e-7 from halving
    the interval).  The trig layouts of each interval's three stage rows,
    and of each snapshot's density and antiderivative, are built once and
    shared by the starts.  Each start is stepped on its own with one-point
    evaluations, so a path does not depend on the other starts of the call.
    Positions are tracked unwrapped (our data keep paths inside the torus);
    the trig sums are 1-periodic.
    """
    if len(states) < 2:
        raise ValueError("need at least two snapshots to advect a path")
    starts = np.atleast_1d(np.asarray(starts, dtype=float)).tolist()
    times = np.array([s.t for s in states])
    grid = states[0].u.grid

    positions, rho_along, mass_along = ([np.empty(len(times)) for _ in starts]
                                        for _ in range(3))

    def sample(i: int) -> None:  # X, rho(X) and F(X) of every path at snapshot i
        rho = states[i].rho
        layout = trig_layout(grid, rho.coefficients)
        parts = antiderivative_layout(rho)
        for k, p in enumerate(pos):
            positions[k][i] = p
            rho_along[k][i] = trig_eval(grid, layout, p)
            mass_along[k][i] = antiderivative_eval(grid, parts, p)

    def u_at(layout, x: float) -> float:  # RK4 runs on Python floats
        return float(trig_eval(grid, layout, x))

    pos = list(starts)
    sample(0)
    for i in range(len(times) - 1):
        h = float(times[i + 1] - times[i])
        ca, cb = states[i].u.coefficients, states[i + 1].u.coefficients
        start, mid, end = (trig_layout(grid, c) for c in (ca, 0.5 * (ca + cb), cb))
        for k, p in enumerate(pos):
            k1 = u_at(start, p)
            k2 = u_at(mid, p + 0.5 * h * k1)
            k3 = u_at(mid, p + 0.5 * h * k2)
            k4 = u_at(end, p + h * k3)
            pos[k] = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sample(i + 1)

    return [CharacteristicPath(x_start=x, times=times, positions=X, rho_along=r, mass_along=m)
            for x, X, r, m in zip(starts, positions, rho_along, mass_along)]


def advect_path(states, x_start: float) -> CharacteristicPath:
    """The path from one start: `advect_paths(states, [x_start])[0]`."""
    return advect_paths(states, [x_start])[0]


def check_mass_transport(path1: CharacteristicPath, path2: CharacteristicPath,
                         states) -> float:
    """Max drift over snapshots of the mass F(X_2) - F(X_1) between the two
    paths, read from their `mass_along`."""
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
