"""Pseudo-spectral time evolution of the conservative continuity equation
d_t rho = -d_x(rho u) with the nonlocal velocity induced by rho.

The state is kept as rfft coefficients, one row per field.  Each
Runge-Kutta stage makes two batched numpy FFT calls: one irfft for every
physical field the stage needs and one rfft of every product.  Products are
formed in physical space and the quadratic flux is truncated at a fraction
of the Nyquist band (2/3 by default).  Time stepping is the three-stage
strong-stability-preserving Runge-Kutta scheme with a CFL step combining
the transport limit dx/max|u| and the explicit limit of the dissipative
factor hidden in the flux, 1/(max rho (2 pi k_max)^alpha).

The run stops when the spectral tail mass fraction exceeds a threshold:
past that point the solution is not trustworthy and the simulator refuses
to certify anything about it.  The tail fraction is the l1 spectral mass in
the top third of the retained band over the total l1 mass, which makes the
threshold commensurate with amplitude-level error bounds.

One driver, `integrate`, steps every system: this flow and the alignment
system of `extensions`.  It counts the steps, the limit that bound each
step and the step-size range for the run's metadata.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .grid import DensityField, PeriodicGrid, derivative_symbol
from .operators import laplacian_symbol, velocity_symbol

__all__ = [
    "SolverConfig",
    "SimulationState",
    "RunResult",
    "SolverBlowupError",
    "integrate",
    "rhs",
    "stable_dt",
    "step_ssprk3",
    "run",
    "tail_fraction",
]


_TINY = np.finfo(float).tiny  # keeps an all-zero spectrum's fraction at 0


class SolverBlowupError(RuntimeError):
    """Raised when a stage produces non-finite values."""


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    n_points: int
    t_end: float
    cfl: float = 0.4
    dealias_fraction: float = 2.0 / 3.0
    tail_threshold: float = 1e-8
    snapshot_interval: Optional[float] = None
    max_steps: int = 20_000_000
    dt_fixed: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError("dealias fraction must lie in (0, 1]")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if not self.tail_threshold > 0.0:
            raise ValueError("tail_threshold must be positive")
        if self.snapshot_interval is not None and not self.snapshot_interval > 0.0:
            raise ValueError("snapshot_interval must be positive")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        if self.dt_fixed is not None and not self.dt_fixed > 0.0:
            raise ValueError("dt_fixed must be positive")

    @property
    def snapshot_dt(self) -> float:
        return self.snapshot_interval if self.snapshot_interval else self.t_end / 200.0


@dataclass(frozen=True)
class SimulationState:
    t: float
    rho: DensityField
    u: DensityField
    step_count: int
    dt_last: float
    under_resolved: bool
    tail_fraction: float


@dataclass
class RunResult:
    states: list  # snapshot SimulationStates
    records: list  # one entry per observer return value per snapshot
    final_state: SimulationState
    stop_reason: str  # t_end | under_resolved | max_steps | nan
    telemetry: dict  # steps, binding step limits, dt range (see integrate)


class _Workspace:
    """Fourier symbols, dealiasing mask and tail band for one
    (n, alpha, dealias) triple; operates on single fields and on row stacks."""

    def __init__(self, grid: PeriodicGrid, alpha: float, dealias_fraction: float):
        self.grid = grid
        self.alpha = alpha
        n = grid.n
        self.k_max_kept = int(np.floor(dealias_fraction * (n // 2)))
        self.mask = grid.k_half <= self.k_max_kept
        # rows (1, velocity symbol): rho_hat -> the transforms of (rho, u)
        self.rho_u_sym = np.stack((np.ones(n // 2 + 1), velocity_symbol(grid, alpha)))
        self.lap_sym = laplacian_symbol(grid, alpha)
        self.deriv_sym = derivative_symbol(grid)
        self.flux_sym = np.where(self.mask, -self.deriv_sym, 0.0)
        self.tail_band = slice((2 * self.k_max_kept) // 3 + 1, self.k_max_kept + 1)
        self.l1_weights = np.where(
            (grid.k_half > 0) & (grid.k_half < n // 2), 2.0, 1.0)

    def continuity_rates(self, rho_hat: np.ndarray):
        """Transform of the dealiased flux divergence -d_x(rho u), which is
        exactly mass neutral, with rho and the transport velocity u."""
        rho, u = np.fft.irfft(self.rho_u_sym * rho_hat, self.grid.n)
        return self.flux_sym * np.fft.rfft(rho * u), rho, u

    def tail_fraction(self, y_hat: np.ndarray) -> float:
        """Largest tail fraction over the rows of y_hat."""
        a = np.abs(y_hat)
        total = a @ self.l1_weights
        tail = a[..., self.tail_band] @ self.l1_weights[self.tail_band]
        return float((tail / np.maximum(total, _TINY)).max())

    def stable_dt(self, y: np.ndarray, u: np.ndarray, cfl: float):
        """cfl times the tighter step limit, and that limit's name; y holds
        the physical fields, density first."""
        transport = self.grid.dx / (float(np.max(np.abs(u))) + 1e-12)
        rho = y[0] if y.ndim == 2 else y
        rho_peak = max(float(np.max(rho)), 1e-12)
        dissipative = 1.0 / (rho_peak * (2.0 * np.pi * self.k_max_kept) ** self.alpha)
        if transport < dissipative:
            return cfl * transport, "transport"
        return cfl * dissipative, "dissipative"


def _finite(y_hat: np.ndarray, stage: int) -> np.ndarray:
    if not np.isfinite(y_hat).all():
        raise SolverBlowupError(f"non-finite values after stage {stage}")
    return y_hat


def _ssprk3(y_hat: np.ndarray, f0: np.ndarray, rates: Callable, dt: float) -> np.ndarray:
    """One Shu-Osher SSP-RK3 step of the transforms y_hat, given the stage-1
    tendency f0."""
    y1 = _finite(y_hat + dt * f0, 1)
    y2 = _finite(0.75 * y_hat + 0.25 * (y1 + dt * rates(y1)[0]), 2)
    return _finite(y_hat / 3.0 + (2.0 / 3.0) * (y2 + dt * rates(y2)[0]), 3)


def integrate(y0: np.ndarray, rates: Callable, ws: _Workspace,
              config: SolverConfig, snapshot: Callable):
    """Step the transforms y_hat = rfft(y0) with SSP-RK3 from t = 0.

    y0 holds one field per row, density first.  rates(y_hat) returns
    (tendency_hat, y, u): the transform of the tendency, the physical fields
    of the stage (density first) and the transport velocity.
    snapshot(t, y, u, tail, steps, dt_last) builds the state recorded at
    each snapshot time from the stage-1 fields.  Stops on t_end,
    under-resolution of any row, the step budget, or non-finite values; on
    the last the final state is the last finite one and is not recorded.
    Returns (states, final_state, stop_reason, telemetry); telemetry holds
    the step count, how many steps each limit bound (transport, dissipative,
    snapshot, t_end, fixed), and the dt range (None before the first step).
    """
    y_hat, t, steps, dt_last = np.fft.rfft(y0), 0.0, 0, 0.0
    next_snap = 0.0
    states = []
    limits = dict.fromkeys(("transport", "dissipative", "snapshot", "t_end", "fixed"), 0)
    dt_min, dt_max = np.inf, 0.0
    while True:
        f0, y, u = rates(y_hat)
        tail = ws.tail_fraction(y_hat)
        if tail > config.tail_threshold:
            stop_reason = "under_resolved"
            break
        if t >= next_snap - 1e-13 * max(1.0, t):
            states.append(snapshot(t, y, u, tail, steps, dt_last))
            next_snap += config.snapshot_dt
        if t >= config.t_end - 1e-13 * config.t_end:
            stop_reason = "t_end"
            break
        if steps >= config.max_steps:
            stop_reason = "max_steps"
            break
        dt, limit = ((config.dt_fixed, "fixed") if config.dt_fixed
                     else ws.stable_dt(y, u, config.cfl))
        if config.t_end - t < dt:
            dt, limit = config.t_end - t, "t_end"
        if t < next_snap and next_snap - t < dt:
            dt, limit = next_snap - t, "snapshot"
        try:
            y_hat = _ssprk3(y_hat, f0, rates, dt)
        except SolverBlowupError:
            stop_reason = "nan"
            break
        t += dt
        dt_last = dt
        steps += 1
        limits[limit] += 1
        dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)

    final = snapshot(t, y, u, tail, steps, dt_last)
    if stop_reason != "nan" and (not states or states[-1].t < t - 1e-13):
        states.append(final)
    return states, final, stop_reason, {
        "steps": steps, "step_limits": limits,
        "dt_min": dt_min if steps else None, "dt_max": dt_max if steps else None}


def _state(config: SolverConfig, grid: PeriodicGrid, t: float, y: np.ndarray,
           u: np.ndarray, tail: float, steps: int = 0,
           dt_last: float = 0.0) -> SimulationState:
    return SimulationState(t=t, rho=DensityField(grid, y), u=DensityField(grid, u),
                           step_count=steps, dt_last=dt_last,
                           under_resolved=tail > config.tail_threshold,
                           tail_fraction=tail)


def rhs(rho: DensityField, alpha: float, dealias_fraction: float = 2.0 / 3.0) -> DensityField:
    """Flux divergence -d_x(rho u), dealiased, exactly mass neutral."""
    ws = _Workspace(rho.grid, alpha, dealias_fraction)
    f_hat = ws.continuity_rates(np.fft.rfft(rho.values))[0]
    return DensityField(rho.grid, np.fft.irfft(f_hat, rho.grid.n))


def tail_fraction(rho: DensityField, dealias_fraction: float = 2.0 / 3.0) -> float:
    """l1 spectral mass fraction in the top third of the retained band."""
    return _Workspace(rho.grid, 1.0, dealias_fraction).tail_fraction(np.fft.rfft(rho.values))


def stable_dt(state: SimulationState, config: SolverConfig) -> float:
    ws = _Workspace(state.rho.grid, config.alpha, config.dealias_fraction)
    return ws.stable_dt(state.rho.values, state.u.values, config.cfl)[0]


def step_ssprk3(state: SimulationState, dt: float, config: SolverConfig) -> SimulationState:
    """One SSP-RK3 step; recomputes the induced velocity for the new state."""
    ws = _Workspace(state.rho.grid, config.alpha, config.dealias_fraction)
    rho_hat = np.fft.rfft(state.rho.values)
    y_hat = _ssprk3(rho_hat, ws.continuity_rates(rho_hat)[0], ws.continuity_rates, dt)
    _, y, u = ws.continuity_rates(y_hat)
    return _state(config, ws.grid, state.t + dt, y, u, ws.tail_fraction(y_hat),
                  state.step_count + 1, dt)


def initial_state(rho0: DensityField, config: SolverConfig) -> SimulationState:
    ws = _Workspace(rho0.grid, config.alpha, config.dealias_fraction)
    y_hat = np.fft.rfft(rho0.values)
    return _state(config, ws.grid, 0.0, rho0.values, ws.continuity_rates(y_hat)[2],
                  ws.tail_fraction(y_hat))


def run(rho0: DensityField, config: SolverConfig,
        observers: tuple[Callable, ...] = ()) -> RunResult:
    """Integrate to t_end, stopping early on under-resolution, step budget,
    or non-finite values.  Observers run on every snapshot; their non-None
    return values are collected in records (grouped per snapshot when there
    are several observers).
    """
    if rho0.grid.n != config.n_points:
        raise ValueError("initial data grid does not match the configuration")
    ws = _Workspace(rho0.grid, config.alpha, config.dealias_fraction)
    states, final, stop_reason, telemetry = integrate(
        rho0.values, ws.continuity_rates, ws, config, partial(_state, config, ws.grid))
    records: list = []
    for state in states:
        outputs = [o for o in (obs(state) for obs in observers) if o is not None]
        if len(outputs) == 1:
            records.append(outputs[0])
        elif outputs:
            records.append(tuple(outputs))
    return RunResult(states=states, records=records, final_state=final,
                     stop_reason=stop_reason, telemetry=telemetry)
