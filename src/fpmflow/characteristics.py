"""Characteristic paths dX/dt = u(X, t) over a run's snapshot series, the
cumulative mass profile, mass transport between paths, and the exponential
decay bound check.  A path carries the mass of [0, X(t)] along with it, so
the mass between two paths is read from the paths themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# evaluate_trig is not called here; the benchmark's tracer patches it by this name
from .grid import (DensityField, antiderivative_at, antiderivative_eval,  # noqa: F401
                   antiderivative_layout, evaluate_trig, trig_eval, trig_layout)

__all__ = [
    "CharacteristicPath",
    "DecayBoundReport",
    "mass_profile",
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


def mass_profile(rho: DensityField, x: float) -> float:
    """Cumulative mass int_0^x rho dy by spectral antiderivative."""
    return float(antiderivative_at(rho, [x])[0])


def advect_paths(states, starts) -> list[CharacteristicPath]:
    """Integrate the path from each start (a float or a sequence of them)
    through the snapshot series with classical RK4.

    Between snapshots u is the trig sum of the coefficients interpolated
    linearly in time, so each stage evaluates one row at one point.  The
    trig layouts of an interval's stage rows, and of each snapshot's density
    and antiderivative, are built once and shared by the starts.  Each start
    is stepped on its own with one-point evaluations, so a path does not
    depend on the other starts of the call.  Positions are tracked unwrapped
    (our data keep paths inside the torus); the trig sums are 1-periodic.
    """
    if len(states) < 2:
        raise ValueError("need at least two snapshots to advect a path")
    starts = np.atleast_1d(np.asarray(starts, dtype=float)).tolist()
    times = np.array([s.t for s in states])
    grid = states[0].u.grid
    substeps = 4  # RK4 steps per snapshot interval
    fracs = [j / (2 * substeps) for j in range(2 * substeps + 1)]  # stage times

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
        h = float(times[i + 1] - times[i]) / substeps
        ca = states[i].u.coefficients
        # u's layouts at the stage times, interpolated in layout space; the
        # bits are those of trig_layout(grid, ca + f (cb - ca))
        a0, a1, a2 = trig_layout(grid, ca)
        d0, d1, d2 = trig_layout(grid, states[i + 1].u.coefficients - ca)
        layouts = [(a0 + f * d0, a1 + f * d1, a2 + f * d2) for f in fracs]
        for k, p in enumerate(pos):
            for j in range(0, 2 * substeps, 2):
                k1 = u_at(layouts[j], p)
                k2 = u_at(layouts[j + 1], p + 0.5 * h * k1)
                k3 = u_at(layouts[j + 1], p + 0.5 * h * k2)
                k4 = u_at(layouts[j + 2], p + h * k3)
                p = p + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            pos[k] = p
        del layouts  # so the next interval's layouts replace these, not join them
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
    margin: Optional[float]  # min over checked times of eps e^{-At} - X(t)
    t_checked: Optional[float]  # last time the smallness hypothesis held


def check_decay_bound(path: CharacteristicPath, A: float, m: float,
                      tol: float = 1e-3,
                      delta: float | None = None) -> DecayBoundReport:
    """Verify X(t) <= x_start e^{-A t} (1 + tol) while rho(X(t), t) <= m/2.

    Times after the first smallness violation are not checked; if the
    hypothesis fails from the start, or the path starts outside the
    smallness radius delta, the report is marked not applicable and has no
    margin or checked time.
    """
    eps = path.x_start
    small = path.rho_along <= m / 2.0 + 1e-12
    if not small[0] or (delta is not None and eps > delta + 1e-12):
        return DecayBoundReport(False, False, None, None)
    n_ok = int(np.argmin(small)) if not np.all(small) else len(small)
    times = path.times[:n_ok]
    pos = path.positions[:n_ok]
    bound = eps * np.exp(-A * times)
    margin = float(np.min(bound - pos))
    holds = bool(np.all(pos <= bound * (1.0 + tol) + 1e-15))
    return DecayBoundReport(True, holds, margin, float(times[-1]))
