"""Observer suite: per-snapshot scalar observables, the layer-density
minimization oracle, the enhanced-velocity-bound link checker, and run
classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .grid import DensityField, evaluate_trig, spectral_derivative
from .operators import (_QUADRATURE_POINTS, OperatorParams, _gauss_jacobi,
                        _jacobi_endpoint_integral, compute_A, compute_delta,
                        decompose_velocity)
from .solver import SimulationState

__all__ = [
    "DiagnosticsRecord",
    "EstimateConstants",
    "constants_for",
    "observe",
    "make_observer",
    "bathtub_min",
    "verify_enhanced_bound_derivation",
    "classify_run",
]

@dataclass(frozen=True)
class DiagnosticsRecord:
    t: float
    mass: float
    rho_min: float
    rho_max: float
    zeta_min_half: float  # min of d_x rho over [0, 1/2]
    c1_norm: float  # max |d_x rho|
    u_max_on_delta: float  # max of u over [0, delta]
    enhanced_margin: float  # max of u + A x over the applicable set (-inf if empty)
    tail_fraction: float
    dt: float

    def as_row(self) -> tuple:
        return tuple(getattr(self, name) for name in RECORD_FIELDS)


RECORD_FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))


@dataclass(frozen=True)
class EstimateConstants:
    """Constants entering the velocity estimates for one run."""

    alpha: float
    m: float
    rho_max: float
    delta: float
    A: float


def constants_for(alpha: float, rho0: DensityField) -> EstimateConstants:
    m = rho0.mean
    rho_max = float(rho0.values.max())
    return EstimateConstants(alpha=alpha, m=m, rho_max=rho_max,
                             delta=compute_delta(alpha),
                             A=compute_A(alpha, m, rho_max))


def observe(state: SimulationState, constants: EstimateConstants) -> DiagnosticsRecord:
    """All scalar observables of one snapshot.

    The enhanced margin max(u + A x) is evaluated only on grid points of
    [0, delta] where rho <= m/2; when no point qualifies the margin is the
    -inf sentinel.
    """
    rho = state.rho
    grid = rho.grid
    x = grid.nodes
    zeta = spectral_derivative(rho).values
    right = x >= 0.0
    u = state.u.values

    on_delta = right & (x <= constants.delta + 1e-15)
    applicable = on_delta & (rho.values <= constants.m / 2.0)
    margin = float(np.max(u[applicable] + constants.A * x[applicable])) \
        if np.any(applicable) else -math.inf

    return DiagnosticsRecord(
        t=state.t,
        mass=rho.mean,
        rho_min=float(rho.values.min()),
        rho_max=float(rho.values.max()),
        zeta_min_half=float(zeta[right].min()),
        c1_norm=float(np.max(np.abs(zeta))),
        u_max_on_delta=float(np.max(u[on_delta])),
        enhanced_margin=margin,
        tail_fraction=state.tail_fraction,
        dt=state.dt_last,
    )


def make_observer(constants: EstimateConstants):
    return lambda state: observe(state, constants)


# --------------------------------------------------------------------------
# layer-density minimization (bathtub) oracle

def _check_bathtub_inputs(xs, fs, M, lam):
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if xs.ndim != 1 or xs.shape != fs.shape or len(xs) < 2:
        raise ValueError("need matching 1d sample arrays with at least 2 points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("sample abscissae must be strictly increasing")
    if M <= 0.0 or lam <= 0.0:
        raise ValueError("layer bound and budget must be positive")
    tol = 1e-10 * max(float(np.max(np.abs(fs))), 1.0)
    if np.any(np.diff(fs) > tol):
        raise ValueError("samples must be monotone nonincreasing")
    if np.any(fs < -tol):
        raise ValueError("samples must be positive")
    if lam >= M * (xs[-1] - xs[0]):
        raise ValueError("budget exceeds the maximal layer mass")
    return xs, fs


def bathtub_min(xs, fs, M: float, lam: float) -> float:
    """Minimum of int omega f over layer densities 0 <= omega <= M with
    int omega >= lam, for decreasing positive f: the right-aligned plateau
    M int_{b - lam/M}^b f, integrated from the samples' linear interpolant.
    """
    xs, fs = _check_bathtub_inputs(xs, fs, M, lam)
    b = xs[-1]
    c = b - lam / M
    grid = np.unique(np.concatenate(([c], xs[xs > c], [b])))
    vals = np.interp(grid, xs, fs)
    return M * float(np.trapezoid(vals, grid))


# --------------------------------------------------------------------------
# enhanced-bound derivation links

@dataclass(frozen=True)
class EnhancedBoundReport:
    applicable: bool
    h_positive: bool
    h_decreasing: bool
    mass_lower_ok: bool
    mass_integral: float
    III: float
    III_lower: float
    III_ok: bool
    II1: float
    II1_ok: bool

    @property
    def all_ok(self) -> bool:
        return (self.applicable and self.h_positive and self.h_decreasing
                and self.mass_lower_ok and self.III_ok and self.II1_ok)


def verify_enhanced_bound_derivation(rho: DensityField, params: OperatorParams, x: float,
                                     m: float, rho_max: float) -> EnhancedBoundReport:
    """Check each link of the enhanced velocity bound at one point:
    the weight h(x, y) = (y-x)^-a - (y+x)^-a is positive and nonincreasing
    on (x, 1/2]; the excess mass int_x^1/2 (rho - rho(x)) is at least m/4;
    the weighted excess III is at least A x; and II1 <= -III.

    III carries the velocity normalization so it compares against the
    decomposition's II1 directly.
    """
    if not 0.0 <= x <= 0.5:
        raise ValueError("decomposition point must lie in [0, 1/2]")
    tol = 1e-8
    alpha = params.alpha
    delta = compute_delta(alpha)
    rho_x = float(evaluate_trig(rho, [x])[0])
    if x > delta + 1e-12 or rho_x > m / 2.0 + tol:
        return EnhancedBoundReport(False, False, False, False, math.nan,
                                   math.nan, math.nan, False, math.nan, False)

    ys = np.linspace(x + 1e-6, 0.5, 2001)
    h = (ys - x) ** (-alpha) - (ys + x) ** (-alpha)
    h_positive = bool(np.all(h >= -tol))
    h_decreasing = bool(np.all(np.diff(h) <= tol * max(float(h.max()), 1.0)))

    xg, wg = _gauss_jacobi(_QUADRATURE_POINTS, 0.0)  # rho at these nodes serves two integrals
    mid, half = 0.5 * (x + 0.5), 0.5 * (0.5 - x)
    yq = mid + half * xg
    rho_q = evaluate_trig(rho, yq)
    mass_integral = half * float(np.dot(wg, rho_q - rho_x))
    mass_lower_ok = mass_integral >= m / 4.0 - tol

    # III = int_x^1/2 (rho(y) - rho(x)) h(x, y) dy, singular branch by Jacobi
    def phi(y):
        return (evaluate_trig(rho, y) - rho_x) / (y - x)

    III = _jacobi_endpoint_integral(phi, x, 0.5, 1.0 - alpha, _QUADRATURE_POINTS)
    III -= half * float(np.dot(wg, (rho_q - rho_x) * (yq + x) ** (-alpha)))
    III *= params.c_velocity
    A = compute_A(alpha, m, rho_max)
    III_ok = III >= A * x - tol

    II1 = decompose_velocity(rho, params, x).II1
    II1_ok = II1 <= -III + max(tol, 1e-6 * abs(III))

    return EnhancedBoundReport(True, h_positive, h_decreasing, mass_lower_ok,
                               mass_integral, III, A * x, III_ok, II1, II1_ok)


# --------------------------------------------------------------------------
# run classification

def classify_run(records) -> dict:
    """Qualitative regime verdict from the c1-norm series.

    c1_growth: after the initial dissipative transient (up to the global
    minimum of the series), the norm rises quasi-monotonically (dips below
    the running maximum bounded by dip_tolerance) by at least growth_factor
    over the initial value.  c1_bounded: the norm never exceeds
    bounded_factor times the initial value.  Anything else: inconclusive.
    The thresholds are artifact choices.
    """
    growth_factor, bounded_factor, dip_tolerance = 5.0, 2.0, 0.05
    series = [r.c1_norm for r in records]
    if len(series) < 10:
        raise ValueError("classification needs at least 10 records")
    c0 = series[0]
    peak = max(series)
    if peak <= 1e-12:
        return {"verdict": "c1_bounded", "growth_factor": 1.0}
    factor = peak / max(c0, 1e-300)
    if factor <= bounded_factor:
        return {"verdict": "c1_bounded", "growth_factor": factor}
    i_min = int(np.argmin(series))
    i_peak = int(np.argmax(series))
    running = -math.inf
    quasi_monotone = i_peak > i_min
    for v in series[i_min:i_peak + 1]:
        running = max(running, v)
        if v < (1.0 - dip_tolerance) * running:
            quasi_monotone = False
            break
    if factor >= growth_factor and quasi_monotone:
        return {"verdict": "c1_growth", "growth_factor": factor}
    return {"verdict": "inconclusive", "growth_factor": factor}
