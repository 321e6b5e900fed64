"""Alignment-system reformulation in 1D and the multi-dimensional slab
reduction checks.

The 1D system evolves (rho, u) with the velocity as an unknown driven by a
singular-kernel alignment force; the diagnostic field G = d_x u - Lambda^a rho
is transported, so data prepared with G = 0 must keep it at discretization
level and reproduce the induced-velocity flow of the main solver.  Its
workspace, a `solver._Workspace` whose state, rates, remainder and flow are
the pair's, is stepped by `solver.integrate`, which returns the same
RunResult as `run`, whose states also carry G.

The multi-d part is static: slab velocities on a strip of the 2D torus and
their reduction to the 1D formula, the closed-form plane-slice constant c',
and the spectral-gap quantity that obstructs the reformulation above 1D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DensityField, derivative_symbol
from .operators import (_check_alpha, _integrate_steep_left, _jacobi_endpoint_integral,
                        laplacian_symbol, velocity_spectral)
from .solver import RunResult, SolverConfig, _Workspace, integrate

__all__ = [
    "run_alignment",
    "c_prime",
    "slab_check_2d",
    "spectral_gap_2d",
    "SlabReport",
]


class _Alignment(_Workspace):
    """The pair as `integrate` steps it, in the state (w, u_hat), w =
    rho_hat - shear u_hat: its rates and the exact flow of their linear
    part, which is diagonal in that state (see run_alignment)."""

    def __init__(self, grid, alpha: float):
        super().__init__(grid, alpha)
        self.lap_sym = laplacian_symbol(grid, alpha)
        self.deriv_sym = derivative_symbol(grid)
        self.neg_mask = -self.mask.astype(float)
        # shear = flux_sym / lin = i (2 pi k)^(1 - a) on the kept band, 0 off it
        self.shear = np.divide(self.flux_sym, self.lin, out=np.zeros_like(self.flux_sym),
                               where=self.lin != 0.0)

    def to_state(self, y0: np.ndarray) -> np.ndarray:
        """The state (w, u_hat) of the physical rows (rho, u)."""
        y_hat = super().to_state(y0)
        y_hat[0] -= self.shear * y_hat[1]
        return y_hat

    def fields(self, y_hat: np.ndarray) -> np.ndarray:
        """The transforms (rho_hat, u_hat) of the state (w, u_hat)."""
        rho_u_hat = y_hat.copy()
        rho_u_hat[0] += self.shear * y_hat[1]
        return rho_u_hat

    def tendencies(self, f: np.ndarray) -> np.ndarray:
        """Rewrite in place the transforms f = (P, W) of (rho u, u g) into
        (shear W, lin P - mask W): the w tendency when g = d_x u - Lambda^a
        rho, and the u tendency then, or the alignment force when g =
        -Lambda^a rho."""
        p = self.lin * f[0]
        np.multiply(self.shear, f[1], out=f[0])
        f[1] *= self.neg_mask
        f[1] += p
        return f

    def rates(self, y_hat: np.ndarray):
        """Tendency transforms of the state (w, u_hat) and the physical rows
        (rho, u, G) from one batched irfft."""
        spec = np.empty((3, y_hat.shape[1]), dtype=complex)
        np.multiply(self.shear, y_hat[1], out=spec[0])
        spec[0] += y_hat[0]  # rho_hat
        spec[1] = y_hat[1]
        np.multiply(self.deriv_sym, y_hat[1], out=spec[2])
        spec[2] -= self.lap_sym * spec[0]
        y = np.fft.irfft(spec, self.grid.n)
        del spec  # not held while the products are transformed (peak memory)
        return self.tendencies(_products_hat(*y)), y

    def remainder(self, y: np.ndarray, f: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """f minus the linear rates (0, lam u_hat), in place."""
        f[1] -= lam * y[1]
        return f

    def flow(self, lam: np.ndarray, h: float):
        """The exact linear flow over h, in place or into out: w kept and
        u_hat times exp(h lam)."""
        e = np.exp(h * lam)

        def flow(y, out=None):
            if out is not None:
                out[0] = y[0]
                np.multiply(y[1], e, out=out[1])
                return out
            y[1] *= e
            return y
        return flow


def _products_hat(rho: np.ndarray, u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Transforms of (rho u, u g) from one batched rfft."""
    prod = np.empty((2, len(u)))
    np.multiply(rho, u, out=prod[0])
    np.multiply(u, g, out=prod[1])
    return np.fft.rfft(prod)


def run_alignment(rho0: DensityField, u0: DensityField, config: SolverConfig,
                  observers: tuple = (), keep_states: bool = True) -> RunResult:
    """Evolve the coupled (rho, u) system with the main solver's Lawson RK4
    driver, dealiasing and stop rules; the tail check covers both fields.
    Returns integrate's RunResult: its states carry G, and the observers
    and keep_states act as in `solver.run`.

    Linearised about (c, 0), with c the midrange of the step's start
    density (see `solver.integrate`), the rates per mode are
    upper-triangular in (rho_hat, u_hat): u_hat relaxes at lambda =
    -c (2 pi k)^a on the kept band and feeds rho_hat at r lambda, r =
    i (2 pi k)^(1 - a), the workspace's shear.  In the state (w, u_hat)
    that the pair is stepped in, w = rho_hat - r u_hat, which is
    -G_hat / Lambda^a on the kept band, that part is diagonal: the flow
    keeps w and scales u_hat by exp(t lambda).  rates, the stop rule and
    the error norm read (rho_hat, u_hat).  r does not depend on c, so G = 0
    data keep G at roundoff level, and the dissipative floor of the step is
    measured from c, as in `run`.
    """
    if rho0.grid.n != config.n_points or u0.grid.n != config.n_points:
        raise ValueError("initial data grids do not match the configuration")
    return integrate(np.stack((rho0.values, u0.values)), _Alignment(rho0.grid, config.alpha),
                     config, observers, keep_states)


# --------------------------------------------------------------------------
# multi-dimensional slab reduction

def c_prime(n: int, alpha: float) -> float:
    """Plane-slice constant omega_{n-1} int_0^inf (1+r^2)^(-(n+alpha)/2) r^(n-2) dr.

    omega_{n-1} is the surface area of the unit sphere in R^(n-1).  The
    radial integral is the Beta integral B((n-1)/2, (1+alpha)/2) / 2 (DLMF
    5.12.3): c' = pi^((n-1)/2) Gamma((1+alpha)/2) / Gamma((n+alpha)/2).
    """
    if n < 2:
        raise ValueError("slab reduction needs dimension n >= 2")
    _check_alpha(alpha)
    return math.pi ** ((n - 1) / 2) * math.gamma((1 + alpha) / 2) / math.gamma((n + alpha) / 2)


@dataclass(frozen=True)
class SlabReport:
    u2_max: float
    u1_mismatch: float
    c_prime: float
    real_space_ratio: float
    real_space_rel_err: float
    spectral_gap: float


def _grid2d_wavenumbers(shape):
    """Integer wavenumbers of an n1 x n2 array: k1 a column, k2 a row."""
    return np.ix_(*(np.fft.fftfreq(n, d=1.0 / n) for n in shape))


def slab_velocity_2d(field2d: np.ndarray, alpha: float):
    """Velocity of a 2D density by the gradient-of-potential multiplier
    -i 2 pi k_j (2 pi |k|)^(alpha-2), zero at k = 0.

    The sign matches the 1D induced velocity on slab spectra, the same
    convention pin used for the 1D transform.
    """
    k1, k2 = _grid2d_wavenumbers(field2d.shape)
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
    k1, k2 = _grid2d_wavenumbers(u1.shape)
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
    a = abs(y1)
    Y = 200.0 * a
    total = _integrate_steep_left(
        lambda y2: (y1 ** 2 + y2 ** 2) ** (-(2.0 + alpha) / 2.0), 0.0, Y,
        a, 24)
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
    free-space quadrature reproduces the plane-slice constant.  The data have
    no k2 != 0 modes at any width, so the checks run on an (n, 8) strip,
    whose FFTs still carry those rows, not on an n x n grid.
    """
    field2d = np.broadcast_to(rho0_1d.values[:, None], (rho0_1d.grid.n, 8))
    u1, u2 = slab_velocity_2d(field2d, alpha)
    u_1d = velocity_spectral(rho0_1d, alpha).values
    u1_mismatch = float(np.max(np.abs(u1 - u_1d[:, None])))
    u2_max = float(np.max(np.abs(u2)))
    gap = spectral_gap_2d(u1, u2)
    cp = c_prime(2, alpha)
    ratio = _free_space_ratio(alpha)
    return SlabReport(u2_max=u2_max, u1_mismatch=u1_mismatch,
                      c_prime=cp, real_space_ratio=ratio,
                      real_space_rel_err=abs(ratio - cp) / cp,
                      spectral_gap=gap)
