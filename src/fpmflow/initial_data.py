"""Initial density families: even, bounded, vanishing at the origin and
nondecreasing on [0, 1/2] (the cccf / vacuum-plateau / smooth-monotone
families), plus a strictly positive control profile for contrast runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import DensityField, PeriodicGrid, spectral_derivative

__all__ = [
    "InitialDataSpec",
    "HypothesisReport",
    "gen_cccf",
    "gen_vacuum_plateau",
    "gen_smooth_monotone",
    "gen_positive_control",
    "make_initial_data",
    "validate_hypotheses",
    "smooth_transition",
]


@dataclass(frozen=True)
class InitialDataSpec:
    """Named initial-data selection for runs and config files."""

    kind: str  # cccf | vacuum_plateau | smooth_monotone | positive_control
    rho_max: float = 2.0
    x0: float = 0.15
    transition_width: float = 0.1
    offset: float = 1.5

    def __post_init__(self):
        if self.kind not in ("cccf", "vacuum_plateau", "smooth_monotone",
                             "positive_control"):
            raise ValueError(f"unknown initial data kind {self.kind!r}")
        if self.rho_max <= 0.0:
            raise ValueError("rho_max must be positive")
        _check_vacuum(self.x0, self.transition_width)
        _check_offset(self.offset)


def _check_vacuum(x0: float, width: float) -> None:
    if x0 <= 0.0 or width <= 0.0:
        raise ValueError("vacuum half-width and transition width must be positive")
    if x0 + width > 0.5 + 1e-12:
        raise ValueError("vacuum plus transition exceeds the half torus")


def _check_offset(offset: float) -> None:
    if offset <= 1.0:
        raise ValueError("offset must exceed 1 for strict positivity")


@dataclass(frozen=True)
class HypothesisReport:
    h1: bool
    h2: bool
    h3: bool
    m: float
    rho_max_observed: float
    x0: float


def smooth_transition(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp on [0, 1]: the normalized integral of exp(-1/(s(1-s))).

    Flat to all orders at both ends; evaluated by cumulative Gauss panels
    between the requested (sorted, deduplicated) sample points, so monotone
    nondecreasing by construction.
    """
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, 0.0, 1.0)
    pts = np.unique(np.concatenate(([0.0, 1.0], tc.ravel())))
    xg, wg = leggauss(12)

    def integrand(s):
        inner = s * (1.0 - s)
        safe = np.maximum(inner, 1e-300)
        return np.where(inner > 0.0, np.exp(-1.0 / safe), 0.0)

    panels = np.empty(len(pts) - 1)
    for i, (a, b) in enumerate(zip(pts[:-1], pts[1:])):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        panels[i] = half * np.dot(wg, integrand(mid + half * xg))
    cumulative = np.concatenate(([0.0], np.cumsum(panels)))
    total = cumulative[-1]
    lookup = dict(zip(pts, cumulative / total))
    return np.array([lookup[v] for v in tc.ravel()]).reshape(tc.shape)


def gen_cccf(grid: PeriodicGrid) -> DensityField:
    """The single-point-vacuum profile 1 - cos(2 pi x)."""
    return DensityField(grid, 1.0 - np.cos(2.0 * np.pi * grid.nodes))


def gen_vacuum_plateau(grid: PeriodicGrid, x0: float = 0.15, width: float = 0.1,
                       rho_max: float = 2.0) -> DensityField:
    """Vacuum interval [-x0, x0], plateau at rho_max, C-infinity transitions."""
    _check_vacuum(x0, width)
    r = np.abs(grid.nodes)
    return DensityField(grid, rho_max * smooth_transition((r - x0) / width))


def gen_smooth_monotone(grid: PeriodicGrid, rho_max: float = 2.0) -> DensityField:
    """Single-point vacuum with an infinitely flat touch at the origin."""
    r = np.abs(grid.nodes)
    return DensityField(grid, rho_max * smooth_transition(2.0 * r))


def gen_positive_control(grid: PeriodicGrid, offset: float = 1.5) -> DensityField:
    """Strictly positive contrast profile offset - cos(2 pi x); min = offset - 1."""
    _check_offset(offset)
    return DensityField(grid, offset - np.cos(2.0 * np.pi * grid.nodes))


def make_initial_data(grid: PeriodicGrid, spec: InitialDataSpec) -> DensityField:
    if spec.kind == "cccf":
        return gen_cccf(grid)
    if spec.kind == "vacuum_plateau":
        return gen_vacuum_plateau(grid, spec.x0, spec.transition_width, spec.rho_max)
    if spec.kind == "smooth_monotone":
        return gen_smooth_monotone(grid, spec.rho_max)
    return gen_positive_control(grid, spec.offset)


def validate_hypotheses(rho0: DensityField, tol: float = 1e-10) -> HypothesisReport:
    """Check evenness, bounds, and vanishing-at-origin monotonicity on [0, 1/2].

    The report carries failures rather than raising; x0 is the first node in
    [0, 1/2] where the density exceeds the detection threshold.
    """
    v = rho0.values
    grid = rho0.grid
    rho_max_obs = float(v.max())
    scale = max(rho_max_obs, 1.0)

    mirrored = np.roll(v[::-1], 1)
    h1 = bool(np.max(np.abs(v - mirrored)) <= tol * scale)
    h2 = bool(v.min() >= -tol * scale)

    i0 = grid.node_index(0.0)
    zeta = spectral_derivative(rho0).values
    right = grid.nodes >= 0.0
    zeta_scale = max(float(np.max(np.abs(zeta))), 1.0)
    h3 = bool(abs(v[i0]) <= tol * scale
              and zeta[right].min() >= -tol * zeta_scale)

    threshold = tol * scale
    idx = np.nonzero(right & (v > threshold))[0]
    x0 = float(grid.nodes[idx[0]]) if len(idx) else 0.5

    return HypothesisReport(h1=h1, h2=h2, h3=h3, m=rho0.mean,
                            rho_max_observed=rho_max_obs, x0=x0)
