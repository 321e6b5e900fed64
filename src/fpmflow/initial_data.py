"""Initial density families: even, bounded, vanishing at the origin and
nondecreasing on [0, 1/2] (the cccf / vacuum-plateau / smooth-monotone
families), plus a strictly positive control profile for contrast runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import DensityField, PeriodicGrid, spectral_derivative
from .operators import _gauss_jacobi

__all__ = [
    "KINDS",
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


KINDS = ("cccf", "vacuum_plateau", "positive_control", "smooth_monotone")  # --preset order


@dataclass(frozen=True)
class InitialDataSpec:
    """Named initial-data selection for runs and config files."""

    kind: str  # one of KINDS
    rho_max: float = 2.0
    x0: float = 0.15
    transition_width: float = 0.1
    offset: float = 1.5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown initial data kind {self.kind!r}")
        if not self.rho_max > 0.0:
            raise ValueError("rho_max must be positive")
        _check_vacuum(self.x0, self.transition_width)
        _check_offset(self.offset)


def _check_vacuum(x0: float, width: float) -> None:
    if not (x0 > 0.0 and width > 0.0):
        raise ValueError("vacuum half-width and transition width must be positive")
    if not x0 + width <= 0.5 + 1e-12:
        raise ValueError("vacuum plus transition exceeds the half torus")


def _check_offset(offset: float) -> None:
    if not offset > 1.0:
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
    nodes, weights = _gauss_jacobi(12, 0.0)
    mid, half = 0.5 * (pts[:-1] + pts[1:]), 0.5 * np.diff(pts)
    s = mid[:, None] + half[:, None] * nodes  # one row of nodes per panel
    inner = s * (1.0 - s)
    safe = np.maximum(inner, 1e-300)
    panels = half * (np.where(inner > 0.0, np.exp(-1.0 / safe), 0.0) @ weights)
    cumulative = np.concatenate(([0.0], np.cumsum(panels)))
    return (cumulative / cumulative[-1])[np.searchsorted(pts, tc)]


def gen_cccf(grid: PeriodicGrid) -> DensityField:
    """The single-point-vacuum profile 1 - cos(2 pi x)."""
    return DensityField(grid, 1.0 - np.cos(2.0 * np.pi * grid.nodes))


def gen_vacuum_plateau(grid: PeriodicGrid, x0: float = 0.15, width: float = 0.1,
                       rho_max: float = 2.0) -> DensityField:
    """Vacuum interval [-x0, x0], plateau at rho_max, C-infinity transitions."""
    _check_vacuum(x0, width)
    r = np.abs(grid.nodes)
    with np.errstate(over="ignore"):  # a width far below dx: the ramp clips +-inf to 0 or 1
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


def validate_hypotheses(rho0: DensityField) -> HypothesisReport:
    """Check evenness, bounds, and vanishing-at-origin monotonicity on [0, 1/2],
    each to 1e-10 of the field's scale.

    The report carries failures rather than raising; x0 is the first node in
    [0, 1/2] where the density exceeds that tolerance.
    """
    v = rho0.values
    grid = rho0.grid
    rho_max_obs = float(v.max())
    tol = 1e-10 * max(rho_max_obs, 1.0)

    mirrored = np.roll(v[::-1], 1)
    h1 = bool(np.max(np.abs(v - mirrored)) <= tol)
    h2 = bool(v.min() >= -tol)

    i0 = grid.node_index(0.0)
    zeta = spectral_derivative(rho0).values
    right = grid.nodes >= 0.0
    zeta_tol = 1e-10 * max(float(np.max(np.abs(zeta))), 1.0)
    h3 = bool(abs(v[i0]) <= tol and zeta[right].min() >= -zeta_tol)

    idx = np.nonzero(right & (v > tol))[0]
    x0 = float(grid.nodes[idx[0]]) if len(idx) else 0.5

    return HypothesisReport(h1=h1, h2=h2, h3=h3, m=rho0.mean,
                            rho_max_observed=rho_max_obs, x0=x0)
