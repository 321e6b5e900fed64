"""Characteristic paths dX/dt = u(X, t) over a run's snapshot series, the
cumulative mass profile, mass transport between paths, and the exponential
decay bound check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DensityField, antiderivative_at, evaluate_trig

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
    mass0: float  # mass of [0, x_start] at t = 0
    rho_along: np.ndarray  # density sampled on the path at snapshot times
    mass_along: np.ndarray  # mass of [0, X(t)] at snapshot times


def mass_profile(rho: DensityField, x: float) -> float:
    """Cumulative mass int_0^x rho dy by spectral antiderivative."""
    a = antiderivative_at(rho, [0.0, x])
    return float(a[1] - a[0])


def _wrap(x: float) -> float:
    return (x + 0.5) % 1.0 - 0.5


def advect_path(states, x_start: float) -> CharacteristicPath:
    """Integrate the path through the snapshot series with classical RK4.

    The velocity between snapshots is interpolated linearly in time; spatial
    evaluation uses the trig interpolant of the stored u fields.  Positions
    are tracked unwrapped (our data keep paths inside the torus) and the
    stored samples are wrapped.
    """
    if len(states) < 2:
        raise ValueError("need at least two snapshots to advect a path")
    times = np.array([s.t for s in states])
    fields = [s.u for s in states]
    rhos = [s.rho for s in states]

    positions = np.empty(len(times))
    positions[0] = x_start
    pos = x_start
    substeps = 4  # RK4 steps per snapshot interval
    for i in range(len(times) - 1):
        h_total = times[i + 1] - times[i]
        ua, ub = fields[i], fields[i + 1]

        def u_at(tau_frac: float, x: float) -> float:
            va = float(evaluate_trig(ua, [_wrap(x)])[0])
            vb = float(evaluate_trig(ub, [_wrap(x)])[0])
            return (1.0 - tau_frac) * va + tau_frac * vb

        h = h_total / substeps
        for j in range(substeps):
            f0 = (j) / substeps
            fm = (j + 0.5) / substeps
            f1 = (j + 1.0) / substeps
            k1 = u_at(f0, pos)
            k2 = u_at(fm, pos + 0.5 * h * k1)
            k3 = u_at(fm, pos + 0.5 * h * k2)
            k4 = u_at(f1, pos + h * k3)
            pos = pos + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        positions[i + 1] = pos

    rho_along = np.array([
        float(evaluate_trig(r, [_wrap(p)])[0]) for r, p in zip(rhos, positions)])
    mass_along = np.array([
        mass_profile(r, p) for r, p in zip(rhos, positions)])
    return CharacteristicPath(
        x_start=x_start, times=times, positions=positions,
        mass0=mass_profile(rhos[0], x_start),
        rho_along=rho_along, mass_along=mass_along)


def check_mass_transport(path1: CharacteristicPath, path2: CharacteristicPath,
                         states) -> float:
    """Max drift over snapshots of the mass between the two paths."""
    if len(path1.times) != len(states) or len(path2.times) != len(states):
        raise ValueError("paths and snapshot series must share their time grid")
    if path1.x_start > path2.x_start:
        path1, path2 = path2, path1
    drifts = []
    for i, s in enumerate(states):
        a = antiderivative_at(s.rho, [path1.positions[i], path2.positions[i]])
        drifts.append(float(a[1] - a[0]))
    drifts = np.asarray(drifts)
    return float(np.max(np.abs(drifts - drifts[0])))


@dataclass(frozen=True)
class DecayBoundReport:
    applicable: bool
    holds: bool
    margin: float  # min over checked times of eps e^{-At} - X(t)
    t_checked: float  # last time the smallness hypothesis held


def check_decay_bound(path: CharacteristicPath, A: float, m: float,
                      tol: float = 1e-3,
                      delta: float | None = None) -> DecayBoundReport:
    """Verify X(t) <= x_start e^{-A t} (1 + tol) while rho(X(t), t) <= m/2.

    Times after the first smallness violation are not checked; if the
    hypothesis fails from the start, or the path starts outside the
    smallness radius delta, the report is marked not applicable.
    """
    eps = path.x_start
    if delta is not None and eps > delta + 1e-12:
        return DecayBoundReport(False, False, math.nan, math.nan)
    small = path.rho_along <= m / 2.0 + 1e-12
    if not small[0]:
        return DecayBoundReport(False, False, math.nan, math.nan)
    n_ok = int(np.argmin(small)) if not np.all(small) else len(small)
    times = path.times[:n_ok]
    pos = path.positions[:n_ok]
    bound = eps * np.exp(-A * times)
    margin = float(np.min(bound - pos))
    holds = bool(np.all(pos <= bound * (1.0 + tol) + 1e-15))
    return DecayBoundReport(True, holds, margin, float(times[-1]))
