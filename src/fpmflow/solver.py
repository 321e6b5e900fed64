"""Pseudo-spectral time evolution of the conservative continuity equation
d_t rho = -d_x(rho u) with the nonlocal velocity induced by rho.

The state is kept as rfft coefficients, one row per field.  Each
Runge-Kutta stage makes two batched numpy FFT calls: one irfft for every
physical field the stage needs and one rfft of every product.  Products are
formed in physical space and the quadratic flux is truncated at two thirds
of the Nyquist band (Orszag's 2/3 rule, J. Atmos. Sci. 28 (1971) 1074).

Time stepping is the classic fourth-order Runge-Kutta scheme (stages at 0,
dt/2, dt/2 and dt) in Lawson form.  Linearised about a constant density c,
the dealiased flux of the continuity flow is the diagonal dissipation
-c (2 pi |k|)^alpha on the kept band; the stepper integrates that part
exactly by the factor E = exp(-c (2 pi |k|)^alpha dt/2), the only one its
stages need, and steps only the remainder explicitly.  Each step takes c
to be the midrange (max rho + min rho) / 2 of its start density, which
makes the dissipation left to the explicit stages, max|rho - c|, least:
the split of a variable mobility into a constant part and a remainder
(Zhu, Chen, Shen & Tikare, Phys. Rev. E 60 (1999) 3564).  So the factors
are formed anew each step; the k = 0 rate is 0, so the mass is never
touched.  Lawson methods can lose order on stiff problems (Hochbruck &
Ostermann, Acta Numerica 19 (2010) 209); on these runs the step-halving
order stays near 4.

The step size is controlled by the interaction-picture RK4(3) pair of
Balac & Mahe (Comput. Phys. Commun. 184 (2013) 1211): the embedded
third-order solution takes the remainder N4 at the new value in place of
the last stage's N3, so the step minus it is dt/6 (N3 - N4), and N4 comes
from the rates call that is the next step's first stage (first same as
last).  err, the sup norm of that difference, bounded from the spectrum,
estimates the local error.  The next step is the last one times
min(5, max(0.2, 0.9 (tol / err)^(1/4))); it does not grow right after a
rejected step (Hairer, Norsett & Wanner, Solving ODEs I, II.4), and a step
cut short to land on a snapshot or t_end does not shrink it.  cfl times
the tighter of the transport limit 2 sqrt 2/(2 pi k_max max|u|) and the
explicit limit of the dissipation left to the explicit stages,
2/(max|rho - c| (2 pi k_max)^alpha), is the floor: a longer step is taken
when the estimate allows it and retried shorter when it does not, never
below the floor.  cfl times the transport limit caps every step.  That
limit is classic RK4's stability interval on the imaginary axis, 2 sqrt 2
(Hairer & Wanner, Solving ODEs II, IV.2), over the largest advection rate
of the kept band, so cfl = 1 is on the boundary; it is 1.35 to 1.37 times
dx/max|u| for n >= 64.  A step that would not reach the next
output time (snapshot or t_end) is evened out: the time left to it is split
into equal steps no longer than the step, so no short step is left before
it.  The tolerance is relative to the density: tol = rtol min rho, so that
err <= tol keeps the error at each point within rtol times the density
there.  rtol is 2e-9 at cfl 0.4 and scales as cfl^4, so cfl stays the one
accuracy dial.  Near vacuum the dissipation vanishes and nothing damps
the step errors, which there are of one sign and add up: under a sup-norm
tolerance of 1e-9, rho(0) of the cccf data (n = 2048, alpha = 1.5) reaches
1.0e-8 at t = 0.025, against 1.1e-12 at the floor.  When rtol min rho lies
within the rounding of the density, eps max|rho|, as on data with vacuum,
no estimate is formed and every step is the floor.  There the floor
limits accuracy, not stability: on even data with rho0(0) = 0, whose exact
solution keeps rho(0, t) = 0, the floor holds rho(0) below 2e-8 on cccf
(n = 2048, alpha = 1) to t = 0.12.

The run stops when the spectral tail mass fraction exceeds a threshold:
past that point the solution is not trustworthy and the simulator refuses
to certify anything about it.  The tail fraction is the l1 spectral mass in
the top third of the retained band over the total l1 mass, which makes the
threshold commensurate with amplitude-level error bounds.

One driver, `integrate`, steps any system that a workspace describes by
its state, the fields' transforms that the state stands for, its rates
and the state entries their diagonal linear part acts on: this flow, on
all of whose state it acts, and the alignment system of `extensions`,
whose state makes it diagonal, on one row.  The driver makes no FFT call
of its own; its stop rule and error norm read the fields.  It builds each
snapshot as a SimulationState from the rows of the rates, hands it to
the observers at once, keeps it only if asked, and returns a RunResult
that counts the accepted and rejected steps, the limit that bound each
step, the step-size range, the largest tail fraction and the FFT calls
for the run's metadata.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import DensityField, PeriodicGrid, derivative_symbol
from .operators import _check_alpha, velocity_symbol

__all__ = [
    "SolverConfig",
    "SimulationState",
    "RunResult",
    "integrate",
    "run",
]


_TINY = np.finfo(float).tiny  # keeps an all-zero spectrum's fraction at 0
_EPS = np.finfo(float).eps
_RTOL = 2e-9  # the step controller's tolerance at cfl 0.4, per unit of min rho
_DEALIAS = 2.0 / 3.0  # the kept fraction of the Nyquist band
_RK4_IMAG = 2.0 * math.sqrt(2.0)  # classic RK4's stability interval on the imaginary axis


@dataclass(frozen=True)
class SolverConfig:
    alpha: float
    n_points: int
    t_end: float
    cfl: float = 0.4
    tail_threshold: float = 1e-8
    snapshot_interval: Optional[float] = None
    max_steps: int = 20_000_000
    dt_fixed: Optional[float] = None

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if not 0.0 < self.t_end < np.inf:
            raise ValueError("t_end must be finite and positive")
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
    step_count: int
    dt_last: float
    tail_fraction: float
    rho: DensityField
    u: DensityField
    G: Optional[DensityField] = None  # alignment system: d_x u - Lambda^alpha rho


@dataclass
class RunResult:
    """What `integrate` returns for either system."""

    states: list  # snapshot SimulationStates, or [] unless kept
    records: list  # each observer's return value per snapshot, in order
    final_state: SimulationState
    stop_reason: str  # t_end | under_resolved | max_steps | nan
    telemetry: dict  # steps, binding step limits, dt range, tail_max, FFT calls (see integrate)
    wall_split: dict  # seconds spent stepping and in observers


class _Workspace:
    """The continuity flow on one (n, alpha) pair: its state (the transforms
    themselves), rates, and the Fourier symbols, dealiasing mask and tail
    band they use.  `integrate` steps any subclass that overrides to_state,
    fields and rates and sets stiff, the state entries that the linear rates
    of remainder and flow act on.  The norms read the fields of a state,
    one field or a row stack."""

    stiff = ...

    def __init__(self, grid: PeriodicGrid, alpha: float):
        self.grid = grid
        self.alpha = alpha
        n = grid.n
        self.k_max_kept = int(np.floor(_DEALIAS * (n // 2)))
        self.mask = grid.k_half <= self.k_max_kept
        # rows (1, velocity symbol): rho_hat -> the transforms of (rho, u)
        self.rho_u_sym = np.stack((np.ones(n // 2 + 1), velocity_symbol(grid, alpha)))
        self.flux_sym = np.where(self.mask, -derivative_symbol(grid), 0.0)
        # the flux linearised about a unit constant density: -mask (2 pi k)^alpha
        self.lin = np.real(self.flux_sym * self.rho_u_sym[1])
        self.tail_band = slice((2 * self.k_max_kept) // 3 + 1, self.k_max_kept + 1)
        self.l1_weights = np.where(
            (grid.k_half > 0) & (grid.k_half < n // 2), 2.0, 1.0)

    def to_state(self, y0: np.ndarray) -> np.ndarray:
        """The stepped state of the physical rows y0: their transforms."""
        return np.fft.rfft(y0)

    def fields(self, y_hat: np.ndarray) -> np.ndarray:
        """The transforms of the fields of the state y_hat: y_hat itself."""
        return y_hat

    def rates(self, rho_hat: np.ndarray):
        """Transform of the dealiased flux divergence -d_x(rho u), which is
        exactly mass neutral, and the rows (rho, u)."""
        y = np.fft.irfft(self.rho_u_sym * rho_hat, self.grid.n)
        return self.flux_sym * np.fft.rfft(y[0] * y[1]), y

    def remainder(self, y: np.ndarray, f: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """The tendency f minus the linear rates lam y[stiff], in place in f."""
        f[self.stiff] -= lam * y[self.stiff]
        return f

    def flow(self, lam: np.ndarray, h: float) -> Callable:
        """The exact linear flow over h, in place: y[stiff] times exp(h lam)."""
        e = np.exp(h * lam)

        def flow(y):
            y[self.stiff] *= e
            return y
        return flow

    def tail_fraction(self, y_hat: np.ndarray) -> float:
        """Largest tail fraction over the fields of the state y_hat."""
        a = np.abs(self.fields(y_hat))
        total = a @ self.l1_weights
        tail = a[..., self.tail_band] @ self.l1_weights[self.tail_band]
        return float((tail / np.maximum(total, _TINY)).max())

    def sup_bound(self, y_hat: np.ndarray) -> float:
        """Largest over the fields of the state y_hat of the l1 spectral
        mass over n, which bounds the field's sup norm in physical space."""
        return float((np.abs(self.fields(y_hat)) @ self.l1_weights).max()) / self.grid.n

    def step_limits(self, y: np.ndarray, cfl: float,
                    rtol: float) -> tuple[dict, float, float]:
        """cfl times the transport limit 2 sqrt 2/(2 pi k_max max|u|) and
        the explicit dissipative limit 2/(max|rho - c| (2 pi k_max)^alpha),
        by name; the center c, the density whose dissipation the stepper
        integrates exactly; and the error tolerance rtol min rho, or 0 when
        that lies within the rounding of the density, eps max|rho|.  y
        holds the physical fields, density first and transport velocity
        second.

        Each limit divides a stability interval of classic RK4 by the
        largest rate of the kept band: 2 sqrt 2 on the imaginary axis by
        the advection rate 2 pi k_max max|u|, and 2, inside the real-axis
        interval of about 2.79, by the dissipation left to the stages.

        c is the midrange (max rho + min rho) / 2, which makes max|rho - c|
        least, rounded to 24 significant bits: any constant serves, and a
        rounded one gives densities that agree to roundoff the same factors,
        so that the stepper keeps the equation's exact symmetries
        (translation, reflection, dilation) to roundoff.  The rounding is
        single precision's, but not a float32 cast, whose overflow above
        3.4e38 would leave no floor."""
        lo, hi = y[:2].min(axis=1).tolist(), y[:2].max(axis=1).tolist()
        u_peak = max(hi[1], -lo[1]) + 1e-12
        transport = _RK4_IMAG / (2.0 * np.pi * self.k_max_kept * u_peak)
        mantissa, exponent = math.frexp(0.5 * (hi[0] + lo[0]))
        center = math.ldexp(round(mantissa * 2**24), exponent - 24)
        rho_peak = max(hi[0] - center, center - lo[0], 1e-12)
        dissipative = 2.0 / (rho_peak * (2.0 * np.pi * self.k_max_kept) ** self.alpha)
        tol = rtol * lo[0]
        if tol <= _EPS * max(hi[0], -lo[0]):
            tol = 0.0
        caps = {"transport": cfl * transport, "dissipative": cfl * dissipative}
        return caps, center, tol


def _step_ratio(error: float, tol: float) -> float:
    """The controller's factor on the step, 0.9 (tol / error)^(1/4) kept
    within [0.2, 5]; an infinite error gives 0.2."""
    return min(5.0, max(0.2, 0.9 * (tol / max(error, _TINY)) ** 0.25))


def _lawson_rk4(y_hat: np.ndarray, n0: np.ndarray, ws: _Workspace, dt: float,
                lam: np.ndarray, err: np.ndarray) -> np.ndarray:
    """One classic RK4 step (c = 0, 1/2, 1/2, 1) of the state y_hat in
    Lawson form, given the stage-1 remainder n0 = ws.remainder(y_hat, f0):
    the linear rates A, lam on ws.stiff, are integrated exactly by the
    in-place E = ws.flow(lam, dt / 2) on copies, and N = f - A y explicitly.

    Returns the new transforms E^2 y + dt / 6 S, S = E (E N0 + 2 N1 + 2 N2)
    + N3, N_i being the remainder of stage i + 1.  S is built unscaled in
    one accumulator and scaled once, which keeps the exact symmetries to
    roundoff.  err holds each stage's value in turn and then N3, for the
    caller's estimate; it is finite only if every stage is.  y_hat and n0
    are left as they are, so a rejected step is retried from them."""
    flow = ws.flow(lam, dt / 2.0)
    np.multiply(n0, dt / 2.0, out=err)
    err += y_hat
    flow(err)  # stage 2: E (y + dt/2 N0)
    k = ws.remainder(err, ws.rates(err)[0], lam)  # N1
    s = flow(n0.copy())
    k *= 2.0
    s += k
    k *= dt / 4.0
    np.copyto(err, y_hat)
    flow(err)
    err += k  # stage 3: E y + dt/2 N1
    del k  # not held while the stage's rates are formed (peak memory)
    k = ws.remainder(err, ws.rates(err)[0], lam)  # N2
    k *= 2.0
    s += k
    k *= dt / 2.0
    np.copyto(err, y_hat)
    flow(err)
    err += k
    flow(err)  # stage 4: E (E y + dt N2)
    del k
    k = ws.remainder(err, ws.rates(err)[0], lam)  # N3
    flow(s)
    s += k
    s *= dt / 6.0
    np.copyto(err, y_hat)
    s += flow(flow(err))
    np.copyto(err, k)
    return s


@np.errstate(over="ignore", invalid="ignore")  # the error estimate catches non-finite stages
def integrate(y0: np.ndarray, ws: _Workspace, config: SolverConfig,
              observers: tuple[Callable, ...] = (), keep_states: bool = True) -> RunResult:
    """Step the state y_hat = ws.to_state(y0) of the system ws with Lawson
    RK4 from t = 0.

    y0 holds one field per row, density first.  ws.rates(y_hat) returns
    (tendency_hat, y): the tendency of the state and the physical rows of
    the stage, u being the transport velocity and each row a field of the
    SimulationState in that order.  The tail fraction and the error norm
    read ws.fields(y_hat), the transforms of the fields.  The linear rates
    about the center c of the step's start density (see
    _Workspace.step_limits), lam = c ws.lin on the entries ws.stiff, are
    integrated exactly by ws.flow and the rest, ws.remainder, explicitly.
    The dissipative floor is measured from c, and dt_fixed steps take the
    same c.

    Each step is proposed by the error controller (see the module
    docstring), raised to the floor and capped by the transport limit.  If
    it reaches the next output time, t_end or the next snapshot time, it
    is clamped to it; if not, it is shortened to gap / ceil(gap / dt), gap
    being the time left to it, and keeps the label of the limit that set
    it; dt_fixed steps are only clamped.  A step above the floor
    whose estimate exceeds the tolerance, or whose stages go non-finite, is
    retried shorter, never below the floor.  With no tolerance (vacuum) the
    step is the floor, and dt_fixed takes every step at dt_fixed; neither
    forms an estimate.  Each attempt's last rates call, at its new value,
    gives the estimate and, once the attempt is accepted, the next step's
    first stage, so an accepted step makes four rates calls.  The snapshot
    at each snapshot time is built from the stage-1 rows, and every
    observer runs on it at once.  Stops on t_end, under-resolution of any
    row, the step budget of accepted steps, or a non-finite step at the
    floor; on the last the final state is the last finite one and is not a
    snapshot.  Returns a RunResult: records holds the observers' return
    values snapshot by snapshot, in observer order, and states every
    snapshot if keep_states, else nothing; its telemetry holds the accepted
    steps, the rejected ones, how many accepted steps each limit bound
    (transport, dissipative, error, snapshot, t_end, fixed), the dt range
    (None before the first step), tail_max, the largest tail fraction at
    any step start, the one that stopped the run included, and the numpy
    FFT calls: to_state's rfft and two per rates call; wall_split splits the
    seconds here into "observers" and "stepping".
    """
    start = time.perf_counter()
    y_hat, t, steps, dt_last = ws.to_state(y0), 0.0, 0, 0.0
    attempts = 0  # each makes four rates calls (see _lawson_rk4)

    def state():
        return SimulationState(t, steps, dt_last, tail, *(DensityField(ws.grid, row) for row in y))

    def snapshot(s):
        nonlocal observer_s, snap_t
        begin = time.perf_counter()
        with np.errstate(over="warn", invalid="warn"):  # numpy's default, not the stepper's
            records.extend(obs(s) for obs in observers)
        observer_s += time.perf_counter() - begin
        if keep_states:
            states.append(s)
        snap_t = s.t

    rtol = _RTOL * (config.cfl / 0.4) ** 4
    err = np.empty_like(y_hat)  # every step's stages and error estimate
    wanted = 0.0  # the controller's next step; the first step is the floor
    next_snap = 0.0
    snap_t = -math.inf  # the last snapshot's time
    states, records, observer_s = [], [], 0.0
    limits = dict.fromkeys(
        ("transport", "dissipative", "error", "snapshot", "t_end", "fixed"), 0)
    rejected = 0
    dt_min, dt_max, tail_max = np.inf, 0.0, 0.0
    f, y = ws.rates(y_hat)  # stage 1 of the first step
    while True:
        tail = ws.tail_fraction(y_hat)
        tail_max = max(tail_max, tail)
        if tail > config.tail_threshold:
            stop_reason = "under_resolved"
            break
        if t >= next_snap - 1e-13 * max(1.0, t):
            snapshot(state())
            next_snap += config.snapshot_dt
        if t >= config.t_end - 1e-13 * config.t_end:
            stop_reason = "t_end"
            break
        if steps >= config.max_steps:
            stop_reason = "max_steps"
            break
        caps, center, tol = ws.step_limits(y, config.cfl, rtol)
        lam = center * ws.lin  # lin[0] = 0: the mass is never touched
        if config.dt_fixed:
            dt = floor = config.dt_fixed
            limit = floor_limit = "fixed"
            tol = 0.0
        else:
            limit = floor_limit = min(caps, key=caps.get)
            dt = floor = caps[limit]
            if wanted > floor:
                dt, limit = ((wanted, "error") if wanted < caps["transport"]
                             else (caps["transport"], "transport"))
        gap, gap_limit = config.t_end - t, "t_end"
        if t < next_snap and next_snap - t < gap:
            gap, gap_limit = next_snap - t, "snapshot"
        if gap < dt:
            dt, limit = gap, gap_limit
        elif not config.dt_fixed:  # even out the steps to the output time
            dt = gap / math.ceil(gap / dt)
        n0 = ws.remainder(y_hat, f, lam)
        retried = False
        while True:
            y_next = _lawson_rk4(y_hat, n0, ws, dt, lam, err)
            f, y_next_rows = ws.rates(y_next)  # the next step's stage 1
            attempts += 1
            if tol:  # dt / 6 (N3 - N4), N4 = f - A y_next the remainder there
                err -= f
                error = dt / 6.0 * ws.sup_bound(ws.remainder(y_next, err, -lam))
            else:
                error = 0.0 if np.isfinite(y_next).all() else math.inf
            if not math.isfinite(error):  # a stage went non-finite
                error = math.inf
            if error <= tol or dt <= floor:
                break
            rejected += 1
            retried = True
            dt, limit = dt * _step_ratio(error, tol), "error"
            if dt <= floor:
                dt, limit = floor, floor_limit
        if error == math.inf:
            stop_reason = "nan"
            break
        y_hat, y = y_next, y_next_rows
        t += dt
        dt_last = dt
        steps += 1
        limits[limit] += 1
        dt_min, dt_max = min(dt_min, dt), max(dt_max, dt)
        ratio = _step_ratio(error, tol)
        if not tol:  # no estimate: the next one starts from the floor
            wanted = 0.0
        elif retried:  # no growth right after a rejection
            wanted = dt * min(ratio, 1.0)
        elif limit in ("snapshot", "t_end"):  # an output clamp does not shrink it
            wanted = max(dt * ratio, wanted)
        else:
            wanted = dt * ratio

    final = state()
    if stop_reason != "nan" and snap_t < t - 1e-13:
        snapshot(final)
    return RunResult(states, records, final, stop_reason, {
        "steps": steps, "rejected": rejected, "step_limits": limits,
        "dt_min": dt_min if steps else None, "dt_max": dt_max if steps else None,
        "tail_max": tail_max, "fft_calls": 1 + 2 * (1 + 4 * attempts)},
        {"stepping": time.perf_counter() - start - observer_s, "observers": observer_s})


def run(rho0: DensityField, config: SolverConfig,
        observers: tuple[Callable, ...] = (), keep_states: bool = True) -> RunResult:
    """Integrate the continuity flow to t_end, stopping early on
    under-resolution, step budget, or non-finite values.  The observers run
    on each snapshot as it is made (see integrate); states holds every
    snapshot unless keep_states is False.
    """
    if rho0.grid.n != config.n_points:
        raise ValueError("initial data grid does not match the configuration")
    ws = _Workspace(rho0.grid, config.alpha)
    return integrate(rho0.values, ws, config, observers, keep_states)
