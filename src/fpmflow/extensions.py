"""Alignment-system reformulation in 1D and the multi-dimensional slab
reduction checks.

The 1D system evolves (rho, u) with the velocity as an unknown driven by a
singular-kernel alignment force; the diagnostic field G = d_x u - Lambda^a rho
is transported, so data prepared with G = 0 must keep it at discretization
level and reproduce the induced-velocity flow of the main solver.

The multi-d part is static: velocities of slab densities rho(x1) on the 2D
torus, their reduction to the 1D formula, the plane-slice constant c', and
the spectral-gap quantity that obstructs the reformulation above 1D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gamma as gamma_fn, roots_jacobi

from .grid import DensityField, apply_multiplier
from .operators import (_check_alpha, _integrate_steep_left,
                        _jacobi_endpoint_integral, velocity_spectral)
from .solver import SolverConfig, _Workspace, integrate

__all__ = [
    "AlignmentState",
    "AlignmentResult",
    "alignment_force",
    "run_alignment",
    "c_prime",
    "slab_check_2d",
    "spectral_gap_2d",
    "SlabReport",
]


@dataclass(frozen=True)
class AlignmentState:
    t: float
    rho: DensityField
    u: DensityField
    G: DensityField  # d_x u - Lambda^alpha rho


@dataclass
class AlignmentResult:
    states: list
    final_state: AlignmentState
    stop_reason: str
    telemetry: dict  # see solver.integrate


def _u_tendency(ws: _Workspace, rho: np.ndarray, u: np.ndarray, g: np.ndarray):
    """Transform of -u g - Lambda^a(rho u), the u tendency when
    g = d_x u - Lambda^a rho and the alignment force when g = -Lambda^a rho,
    and the masked transform of rho u, from one batched rfft."""
    rho_u_hat, w_hat = ws.mask * np.fft.rfft(np.stack((rho * u, u * g)))
    return -(w_hat + ws.lap_sym * rho_u_hat), rho_u_hat


def _alignment_rates(ws: _Workspace, y_hat: np.ndarray):
    """Tendency transforms of the stacked (rho, u) state, the physical fields
    (rho, u, G) from one batched irfft, and u."""
    rho_hat, u_hat = y_hat
    y = np.fft.irfft(np.stack((rho_hat, u_hat, ws.deriv_sym * u_hat
                               - ws.lap_sym * rho_hat)), ws.grid.n)
    du_hat, rho_u_hat = _u_tendency(ws, y[0], y[1], y[2])
    return np.stack((ws.flux_sym * rho_u_hat, du_hat)), y, y[1]


def alignment_force(rho: DensityField, u: DensityField, alpha: float,
                    dealias_fraction: float = 2.0 / 3.0) -> DensityField:
    """Alignment interaction in commutator form u Lambda^a rho - Lambda^a(rho u).

    Algebraically identical to the singular-kernel interaction integral with
    the same normalization as the symmetric operator; the identity is pinned
    by a quadrature oracle in the tests.
    """
    if rho.grid is not u.grid and rho.grid.n != u.grid.n:
        raise ValueError("fields must share a grid")
    ws = _Workspace(rho.grid, alpha, dealias_fraction)
    minus_lap_rho = apply_multiplier(rho, -ws.lap_sym).values
    force_hat = _u_tendency(ws, rho.values, u.values, minus_lap_rho)[0]
    return DensityField(rho.grid, np.fft.irfft(force_hat, rho.grid.n))


def run_alignment(rho0: DensityField, u0: DensityField,
                  config: SolverConfig) -> AlignmentResult:
    """Evolve the coupled (rho, u) system with the main solver's Heun RK3
    driver, dealiasing and stop rules; the tail check covers both fields.

    Linearised about (m, 0), with m the mean density, the rates per mode
    are upper-triangular: u_hat relaxes at lambda = -m (2 pi k)^a on the
    kept band and feeds rho_hat at r lambda, r = i (2 pi k)^(1 - a)
    (ws.shear).  The stepper integrates that part exactly: its flow keeps
    rho_hat - r u_hat, the linear part of -G_hat / Lambda^a, and scales
    u_hat by exp(t lambda).  So G = 0 data keep G at roundoff level, and
    the dissipative step limit is measured from m, as in `run`.
    """
    if rho0.grid.n != config.n_points or u0.grid.n != config.n_points:
        raise ValueError("initial data grids do not match the configuration")
    grid = rho0.grid
    ws = _Workspace(grid, config.alpha, config.dealias_fraction)

    def snapshot(t, y, u, tail, steps, dt_last) -> AlignmentState:
        return AlignmentState(t=t, rho=DensityField(grid, y[0]), u=DensityField(grid, u),
                              G=DensityField(grid, y[2]))

    states, final, stop_reason, telemetry = integrate(
        np.stack((rho0.values, u0.values)), partial(_alignment_rates, ws), ws,
        config, snapshot, shear=ws.shear)
    return AlignmentResult(states=states, final_state=final,
                           stop_reason=stop_reason, telemetry=telemetry)


# --------------------------------------------------------------------------
# multi-dimensional slab reduction

def c_prime(n: int, alpha: float, n_nodes: int = 48) -> float:
    """Plane-slice constant omega_{n-1} int_0^inf (1+r^2)^(-(n+alpha)/2) r^(n-2) dr.

    omega_{n-1} is the surface area of the unit sphere in R^(n-1).  The
    substitution r = tan(theta) turns the integral into a Gauss-Jacobi form
    with weight (pi/2 - theta)^alpha; the value must be stable under node
    doubling to 1e-8 relative.
    """
    if n < 2:
        raise ValueError("slab reduction needs dimension n >= 2")
    _check_alpha(alpha)
    omega = 2.0 * math.pi ** ((n - 1) / 2.0) / gamma_fn((n - 1) / 2.0)

    def radial(n_jac: int) -> float:
        # integrand cos^alpha(theta) sin^(n-2)(theta) on [0, pi/2]; factor out
        # the (pi/2 - theta)^alpha endpoint behavior as the Jacobi weight
        xi, wi = roots_jacobi(n_jac, alpha, 0.0)
        theta = math.pi / 2.0 * (xi + 1.0) / 2.0
        edge = math.pi / 2.0 - theta
        phi = (np.cos(theta) / edge) ** alpha * np.sin(theta) ** (n - 2)
        return (math.pi / 4.0) ** (alpha + 1.0) * float(np.dot(wi, phi))

    value = radial(n_nodes)
    refined = radial(2 * n_nodes)
    if abs(value - refined) > 1e-8 * abs(refined):
        raise ArithmeticError("plane-slice constant quadrature did not converge")
    result = omega * refined
    if not (result > 0.0 and math.isfinite(result)):
        raise ArithmeticError("plane-slice constant must be positive and finite")
    return result


@dataclass(frozen=True)
class SlabReport:
    u2_max: float
    u1_mismatch: float
    c_prime_value: float
    real_space_ratio: float
    real_space_rel_err: float
    spectral_gap: float


def _grid2d_wavenumbers(n: int):
    k = np.fft.fftfreq(n, d=1.0 / n)
    k1 = k[:, None]
    k2 = k[None, :]
    return k1, k2


def slab_velocity_2d(field2d: np.ndarray, alpha: float):
    """Velocity of a 2D density by the gradient-of-potential multiplier
    -i 2 pi k_j (2 pi |k|)^(alpha-2), zero at k = 0.

    The sign matches the 1D induced velocity on slab spectra, the same
    convention pin used for the 1D transform.
    """
    n = field2d.shape[0]
    k1, k2 = _grid2d_wavenumbers(n)
    kk = 2.0 * np.pi * np.sqrt(k1 ** 2 + k2 ** 2)
    kk[0, 0] = 1.0
    scale = kk ** (alpha - 2.0)
    scale[0, 0] = 0.0
    hat = np.fft.fft2(field2d)
    u1 = np.real(np.fft.ifft2(-2j * np.pi * k1 * scale * hat))
    u2 = np.real(np.fft.ifft2(-2j * np.pi * k2 * scale * hat))
    return u1, u2


def spectral_gap_2d(u1: np.ndarray, u2: np.ndarray) -> float:
    """Max over the grid of tr((grad u)^2) - (div u)^2 for a 2D velocity."""
    n = u1.shape[0]
    k1, k2 = _grid2d_wavenumbers(n)
    h1, h2 = np.fft.fft2(u1), np.fft.fft2(u2)

    def d(hat, kk):
        return np.real(np.fft.ifft2(2j * np.pi * kk * hat))

    d1u1, d2u1 = d(h1, k1), d(h1, k2)
    d1u2, d2u2 = d(h2, k1), d(h2, k2)
    gap = 2.0 * d1u2 * d2u1 - 2.0 * d1u1 * d2u2
    return float(np.max(np.abs(gap)))


def _mollifier(x: np.ndarray, r0: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < r0
    out = np.zeros_like(x)
    s = np.where(inside, 1.0 - (x / r0) ** 2, 1.0)
    out[inside] = np.exp(-1.0 / s[inside])
    return out


def _free_space_inner(y1: float, alpha: float) -> float:
    """int_R (y1^2 + y2^2)^(-(2+alpha)/2) dy2 by geometric Gauss cells plus a
    second-order analytic tail; independent of the plane-slice constant."""
    xg, wg = leggauss(24)
    a = abs(y1)
    Y = 200.0 * a
    total = _integrate_steep_left(
        lambda y2: (y1 ** 2 + y2 ** 2) ** (-(2.0 + alpha) / 2.0), 0.0, Y,
        scale=a, nodes=xg, weights=wg)
    tail = Y ** (-1.0 - alpha) / (1.0 + alpha) \
        - (2.0 + alpha) * y1 ** 2 * Y ** (-3.0 - alpha) / (2.0 * (3.0 + alpha))
    return 2.0 * (total + tail)


def _free_space_ratio(alpha: float) -> float:
    """Ratio of the 2D plane integral to the 1D odd-kernel integral on a
    compactly supported profile; equals the plane-slice constant."""
    x1, r0, n_jac = 0.1, 0.2, 48  # profile centre and radius, Gauss-Jacobi nodes

    def odd_diff(s):
        return (_mollifier(x1 - s, r0) - _mollifier(x1 + s, r0)) / s

    def plane(s):
        inner = np.array([_free_space_inner(v, alpha) for v in s])
        return odd_diff(s) * (s ** (1.0 + alpha) * inner)

    K = _jacobi_endpoint_integral(odd_diff, 0.0, x1 + r0, 1.0 - alpha, n_jac)
    J = _jacobi_endpoint_integral(plane, 0.0, x1 + r0, 1.0 - alpha, n_jac)
    return J / K


def slab_check_2d(rho0_1d: DensityField, alpha: float) -> SlabReport:
    """Static multi-d reduction checks on slab data rho(x1, x2) = rho0(x1):
    the transverse velocity vanishes, the longitudinal velocity matches the
    1D formula at multiplier exactness, the spectral gap vanishes, and the
    free-space quadrature reproduces the plane-slice constant.
    """
    n = rho0_1d.grid.n
    field2d = np.broadcast_to(rho0_1d.values[:, None], (n, n)).copy()
    u1, u2 = slab_velocity_2d(field2d, alpha)
    u_1d = velocity_spectral(rho0_1d, alpha).values
    u1_mismatch = float(np.max(np.abs(u1 - u_1d[:, None])))
    u2_max = float(np.max(np.abs(u2)))
    gap = spectral_gap_2d(u1, u2)
    cp = c_prime(2, alpha)
    ratio = _free_space_ratio(alpha)
    return SlabReport(u2_max=u2_max, u1_mismatch=u1_mismatch,
                      c_prime_value=cp, real_space_ratio=ratio,
                      real_space_rel_err=abs(ratio - cp) / cp,
                      spectral_gap=gap)
