"""Characteristic paths dX/dt = u(X, t) over a run's snapshot series, the
cumulative mass profile, mass transport between paths, and the exponential
decay bound check.  A path carries the mass of [0, X(t)] along with it, so
the mass between two paths is read from the paths themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import DensityField, antiderivative_at, evaluate_trig, trig_sum

__all__ = [
    "CharacteristicPath",
    "DecayBoundReport",
    "mass_profile",
    "advect_path",
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


def advect_path(states, x_start: float) -> CharacteristicPath:
    """Integrate the path through the snapshot series with classical RK4.

    Between snapshots u is the trig sum of the coefficients interpolated
    linearly in time, so each stage evaluates one row at one point.
    Positions are tracked unwrapped (our data keep paths inside the torus);
    the trig sums are 1-periodic.
    """
    if len(states) < 2:
        raise ValueError("need at least two snapshots to advect a path")
    times = np.array([s.t for s in states])
    grid = states[0].u.grid
    substeps = 4  # RK4 steps per snapshot interval
    fracs = np.arange(2 * substeps + 1) / (2 * substeps)  # stage times

    positions = np.empty(len(times))
    positions[0] = pos = x_start
    for i in range(len(times) - 1):
        h = (times[i + 1] - times[i]) / substeps
        ca = states[i].u.coefficients
        rows = ca + np.outer(fracs, states[i + 1].u.coefficients - ca)

        def u_at(row: int, x: float) -> float:
            return float(trig_sum(grid, rows[row], [x])[0])

        for j in range(0, 2 * substeps, 2):
            k1 = u_at(j, pos)
            k2 = u_at(j + 1, pos + 0.5 * h * k1)
            k3 = u_at(j + 1, pos + 0.5 * h * k2)
            k4 = u_at(j + 2, pos + h * k3)
            pos = pos + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        positions[i + 1] = pos

    return CharacteristicPath(
        x_start=x_start, times=times, positions=positions,
        rho_along=np.array([float(evaluate_trig(s.rho, [p])[0])
                            for s, p in zip(states, positions)]),
        mass_along=np.array([mass_profile(s.rho, p) for s, p in zip(states, positions)]))


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
