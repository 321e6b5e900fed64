"""Nonlocal operators on the torus: fractional Laplacian, odd-kernel velocity,
the velocity decomposition, kernel positivity sums, and the derived constants.

Each operator has two routes:

* spectral: Fourier multiplier (2 pi |k|)^alpha for the fractional Laplacian
  and -i sgn(k) (2 pi |k|)^(alpha-1) for the velocity;
* kernel: principal-value quadrature of the periodized singular integral,
  with the singular cell folded symmetrically and integrated by Gauss-Jacobi
  rules.  The periodic images share one rule (``_image_weights``): the
  1-periodic integrand is evaluated once on one period's Gauss nodes, which
  carry the summed image weights sum_l (l + w)^(-p) -- images 1 .. L exactly,
  the remainder by a moment expansion in Hurwitz zeta functions.

The kernel normalization c_alpha is calibrated so the symmetric kernel
reproduces the multiplier (2 pi)^alpha on cos(2 pi x).  The odd velocity
kernel then carries normalization c_alpha / alpha: integrating the defining
identity by parts converts the symmetric-kernel constant into the odd-kernel
one with exactly that factor.  Both routes are pinned by tests against the
multiplier path; the constants coincide only at alpha = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi, zeta as hurwitz_zeta

from .grid import DensityField, apply_multiplier, evaluate_trig

__all__ = [
    "OperatorParams",
    "VelocityDecomposition",
    "make_params",
    "calibrate_c_alpha",
    "fractional_laplacian_spectral",
    "fractional_laplacian_kernel",
    "velocity_spectral",
    "velocity_kernel",
    "decompose_velocity",
    "kernel_sum_S",
    "kernel_tail_bound",
    "compute_C",
    "compute_delta",
    "compute_A",
    "laplacian_symbol",
    "velocity_symbol",
]


@dataclass(frozen=True)
class OperatorParams:
    """Kernel-quadrature configuration for one value of alpha."""

    alpha: float
    c_alpha: float
    kernel_truncation: int = 64
    quadrature_points: int = 64

    def __post_init__(self):
        _check_quadrature(self.alpha, self.kernel_truncation, self.quadrature_points)
        if self.c_alpha <= 0.0:
            raise ValueError("c_alpha must be positive")

    @property
    def c_velocity(self) -> float:
        """Normalization of the odd velocity kernel (= c_alpha / alpha)."""
        return self.c_alpha / self.alpha


@dataclass(frozen=True)
class VelocityDecomposition:
    """Velocity at one point split into the near part I over [0, x] and the
    far parts II1 (aligned-sign intervals) and II2 (opposing intervals)."""

    I: float
    II1: float
    II2: float
    total: float


# --------------------------------------------------------------------------
# quadrature helpers

_SING_HALF_WIDTH = 0.25  # half width of the symmetric singular cell
_TAIL_MOMENTS = 6  # terms of the image-tail expansion


def _check_alpha(alpha: float) -> None:
    """Reject a fractional order outside (0, 2)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")


def _check_quadrature(alpha: float, kernel_truncation: int, quadrature_points: int):
    _check_alpha(alpha)
    if kernel_truncation < 8:
        raise ValueError("kernel truncation must be at least 8 images")
    if quadrature_points < 8:
        raise ValueError("need at least 8 quadrature points per cell")


def _gauss_cell(fun, a, b, nodes, weights):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    s = mid + half * nodes
    return half * float(np.dot(weights, fun(s)))


def _binom_neg(p: float, j: int) -> float:
    # binomial(-p, j) for real p > 0
    out = 1.0
    for i in range(j):
        out *= -(p + i) / (i + 1)
    return out


def _image_weights(w, p: float, L: int, start: int = 0) -> np.ndarray:
    """sum_{l >= 1} (l + w)^(-p) at each node offset w, |w| <= 1.

    Images 1 .. L are summed exactly; the remainder expands (l + w)^(-p)
    about each integer l > L, so its j-th term is binomial(-p, j) w^j
    zeta(p + j, L + 1).  start = 1 drops the j = 0 term, whose integral
    vanishes against a mean-zero integrand.
    """
    w = np.asarray(w, dtype=float)
    images = np.arange(1.0, L + 1.0)[:, None]
    out = np.sum((images + w) ** (-p), axis=0)
    for j in range(start, _TAIL_MOMENTS):
        out += _binom_neg(p, j) * float(hurwitz_zeta(p + j, L + 1)) * w ** j
    return out


def _periodized_singular_integral(G, p: float, L: int, n_quad: int,
                                  mean_zero: bool = False) -> float:
    """integral_0^infty G(s) s^(-p) ds for smooth 1-periodic G vanishing at 0.

    G must vanish to order q at s = 0 with q - p > -1 (q = 1 for the odd
    velocity fold, q = 2 for symmetric folds).  Layout: Gauss-Jacobi with
    weight s^(q-p) on the singular cell [0, h]; Gauss-Legendre on [h, 1/2];
    the unit cells around every image l >= 1 fold onto [-1/2, 1/2], where G
    is evaluated once and weighted by the image sum.
    """
    q = int(math.floor(p))
    if q - p <= -1.0 + 1e-14:
        q += 1
    total = _jacobi_endpoint_integral(lambda s: G(s) / s ** q, 0.0,
                                      _SING_HALF_WIDTH, q - p, max(24, n_quad // 2))
    xg, wg = leggauss(n_quad)
    total += _gauss_cell(lambda t: G(t) * t ** (-p), _SING_HALF_WIDTH, 0.5, xg, wg)
    sig = 0.5 * xg
    images = _image_weights(sig, p, L, start=1 if mean_zero else 0)
    return total + float(np.dot(0.5 * wg * images, G(sig)))


def _jacobi_endpoint_integral(fun_phi, a: float, b: float, nu: float, n: int) -> float:
    """integral_a^b phi(t) (t - a)^nu dt with smooth phi, by Gauss-Jacobi."""
    if b <= a:
        return 0.0
    xi, wi = roots_jacobi(n, 0.0, nu)
    t = a + (b - a) * (xi + 1.0) / 2.0
    return ((b - a) / 2.0) ** (nu + 1.0) * float(np.dot(wi, fun_phi(t)))


def _integrate_steep_left(fun, a: float, b: float, scale: float,
                          nodes, weights) -> float:
    """Gauss-Legendre on cells doubling away from a steep-but-regular left end."""
    total = 0.0
    left = a
    width = min(scale, b - a)
    while left < b - 1e-15:
        right = min(left + width, b)
        total += _gauss_cell(fun, left, right, nodes, weights)
        left = right
        width *= 2.0
    return total


# --------------------------------------------------------------------------
# constants

def compute_C(alpha: float) -> float:
    """Image-sum bounding constant 2^(alpha+1) (1 + 2 alpha)."""
    return 2.0 ** (alpha + 1.0) * (1.0 + 2.0 * alpha)


def compute_delta(alpha: float) -> float:
    """Smallness radius min{1/4, (1/(3C))^(1/(1+alpha))}."""
    C = compute_C(alpha)
    return min(0.25, (1.0 / (3.0 * C)) ** (1.0 / (1.0 + alpha)))


def compute_A(alpha: float, m: float, rho_max: float) -> float:
    """Enhanced-decay rate alpha * m / (4 rho_max)."""
    if m <= 0.0 or rho_max <= 0.0:
        raise ValueError("mass and density bound must be positive")
    if m > rho_max * (1.0 + 1e-12):
        raise ValueError("mass on the unit torus cannot exceed the density bound")
    return alpha * m / (4.0 * rho_max)


def calibrate_c_alpha(alpha: float, kernel_truncation: int = 64,
                      quadrature_points: int = 64) -> float:
    """Pin the kernel normalization to the Fourier symbol (2 pi |k|)^alpha.

    Runs the raw (c = 1) periodized kernel quadrature on cos(2 pi x) at x = 0,
    where the exact answer is (2 pi)^alpha, and returns the ratio.  A halved
    truncation must reproduce the value to 1e-6 or the quadrature is broken.
    """
    _check_quadrature(alpha, kernel_truncation, quadrature_points)

    def G(s):
        return 2.0 - 2.0 * np.cos(2.0 * np.pi * s)

    def raw(L):
        return _periodized_singular_integral(G, 1.0 + alpha, L, quadrature_points)

    full = raw(kernel_truncation)
    half = raw(max(8, kernel_truncation // 2))
    c_full = (2.0 * np.pi) ** alpha / full
    c_half = (2.0 * np.pi) ** alpha / half
    if abs(c_full - c_half) > 1e-6 * abs(c_full):
        raise ArithmeticError(
            f"kernel calibration did not converge under truncation refinement "
            f"({c_half} vs {c_full})")
    return c_full


def make_params(alpha: float, kernel_truncation: int = 64,
                quadrature_points: int = 64) -> OperatorParams:
    """Calibrated operator parameters for one alpha."""
    c = calibrate_c_alpha(alpha, kernel_truncation=kernel_truncation,
                          quadrature_points=quadrature_points)
    return OperatorParams(alpha=alpha, c_alpha=c,
                          kernel_truncation=kernel_truncation,
                          quadrature_points=quadrature_points)


def kernel_tail_bound(params: OperatorParams, scale: float) -> float:
    """Analytic bound on the discarded images: scale * int_L^infty z^(-1-alpha) dz."""
    L = params.kernel_truncation
    return params.c_alpha * scale * L ** (-params.alpha) / params.alpha


# --------------------------------------------------------------------------
# spectral route

def laplacian_symbol(grid, alpha: float) -> np.ndarray:
    return (2.0 * np.pi * grid.k_half.astype(float)) ** alpha + 0j


def velocity_symbol(grid, alpha: float) -> np.ndarray:
    k = grid.k_half.astype(float)
    sym = np.zeros(len(k), dtype=complex)
    sym[1:] = -1j * (2.0 * np.pi * k[1:]) ** (alpha - 1.0)
    # odd symbol, so 0 at Nyquist: at dealias fraction 1 the stepper's linear
    # rates and shear keep that mode and use this entry before any irfft
    sym[-1] = 0.0
    return sym


def fractional_laplacian_spectral(f: DensityField, alpha: float) -> DensityField:
    """(-d^2/dx^2)^(alpha/2) via the multiplier (2 pi |k|)^alpha."""
    _check_alpha(alpha)
    return apply_multiplier(f, laplacian_symbol(f.grid, alpha))


def velocity_spectral(rho: DensityField, alpha: float) -> DensityField:
    """Velocity induced by rho: multiplier -i sgn(k) (2 pi |k|)^(alpha-1).

    Sign fixed so that rho = 1 - cos(2 pi x) at alpha = 1 gives
    u = -sin(2 pi x), i.e. nonpositive on [0, 1/2] for monotone data.
    """
    _check_alpha(alpha)
    return apply_multiplier(rho, velocity_symbol(rho.grid, alpha))


# --------------------------------------------------------------------------
# kernel route

def fractional_laplacian_kernel(f: DensityField, params: OperatorParams,
                                x: float) -> float:
    """Principal-value quadrature of c_alpha int (f(x) - f(y)) |x-y|^(-1-alpha) dy.

    The cell around y = x is folded to the even difference
    2 f(x) - f(x+s) - f(x-s), which vanishes to second order.
    """
    fx = float(evaluate_trig(f, [x])[0])

    def G(s):
        return 2.0 * fx - evaluate_trig(f, x + s) - evaluate_trig(f, x - s)

    raw = _periodized_singular_integral(
        G, 1.0 + params.alpha, params.kernel_truncation, params.quadrature_points)
    return params.c_alpha * raw


def velocity_kernel(rho: DensityField, params: OperatorParams, x: float) -> float:
    """Quadrature of the odd-kernel velocity integral at one point.

    The symmetric fold of c (rho(y) - rho(x)) / (sgn(x-y) |x-y|^alpha) over
    the periodized line is int_0^infty (rho(x-s) - rho(x+s)) s^(-alpha) ds;
    the per-period mean of the folded numerator vanishes, which the far-image
    expansion exploits (its j = 0 moment is dropped exactly).
    """

    def G(s):
        return evaluate_trig(rho, x - s) - evaluate_trig(rho, x + s)

    raw = _periodized_singular_integral(
        G, params.alpha, params.kernel_truncation, params.quadrature_points,
        mean_zero=True)
    return params.c_velocity * raw


def _check_even(rho: DensityField) -> None:
    v = rho.values
    mirrored = np.roll(v[::-1], 1)  # node -x_j is node (n - j) mod n
    if np.max(np.abs(v - mirrored)) > 1e-8 * max(np.max(np.abs(v)), 1.0):
        raise ValueError("velocity decomposition requires an even density")


def decompose_velocity(rho: DensityField, params: OperatorParams,
                       x: float) -> VelocityDecomposition:
    """Split u(x) into I (near integral over [0, x]) and II1/II2 (far images).

    Follows the even-symmetry rewrite of the velocity integral on [0, infty):
    I integrates over y in [0, x]; II covers y > x and splits per unit period
    into the aligned-sign intervals [l+x, l+1-x] (II1) and the opposing
    intervals [l-x, l+x] (II2).  All three carry the velocity normalization,
    so I + II1 + II2 equals the velocity at x.
    """
    _check_even(rho)
    if not 0.0 <= x <= 0.5:
        raise ValueError("decomposition point must lie in [0, 1/2]")
    alpha = params.alpha
    L = params.kernel_truncation
    nq = params.quadrature_points
    xg, wg = leggauss(nq)
    c_u = params.c_velocity
    rho_x = float(evaluate_trig(rho, [x])[0])

    if x < 1e-14:
        return VelocityDecomposition(0.0, 0.0, 0.0, 0.0)

    # I = int_0^x (rho(y) - rho(x)) [ (x+y)^-a + (x-y)^-a ] dy, substituted
    # s = x - y so the singular branch becomes phi(s) s^(1-a) at s = 0.
    def phi_near(s):
        return (evaluate_trig(rho, x - s) - rho_x) / s

    I_val = c_u * _jacobi_endpoint_integral(phi_near, 0.0, x, 1.0 - alpha, nq)
    I_val += c_u * _gauss_cell(
        lambda s: (evaluate_trig(rho, x - s) - rho_x) * (2.0 * x - s) ** (-alpha),
        0.0, x, xg, wg)
    if x > 0.5 - 1e-14:
        # every II1 cell is empty and u(1/2) = 0 for even rho, so II2 = -I
        return VelocityDecomposition(I=I_val, II1=0.0, II2=-I_val, total=0.0)

    # II1, l = 0 cell [x, 1-x]: kernel (x+y)^-a - (y-x)^-a, singular at y = x.
    def phi_far(y):
        return -(evaluate_trig(rho, y) - rho_x) / (y - x)

    II1 = _jacobi_endpoint_integral(phi_far, x, 1.0 - x, 1.0 - alpha, nq)
    II1 += _integrate_steep_left(
        lambda y: (evaluate_trig(rho, y) - rho_x) * (x + y) ** (-alpha),
        x, 1.0 - x, scale=max(x, 1e-3), nodes=xg, weights=wg)

    # images l >= 1: the cells [l+x, l+1-x] (II1) and [l-x, l+x] (II2) fold
    # onto w = y - l with kernel sum_l (l+w+x)^-a - (l+w-x)^-a; the j = 0
    # tail terms cancel in the difference
    def far(w):
        kernel = (_image_weights(w + x, alpha, L, start=1)
                  - _image_weights(w - x, alpha, L, start=1))
        return (evaluate_trig(rho, w) - rho_x) * kernel

    II1 = c_u * (II1 + _gauss_cell(far, x, 1.0 - x, xg, wg))
    II2 = c_u * _gauss_cell(far, -x, x, xg, wg)

    total = I_val + II1 + II2
    return VelocityDecomposition(I=I_val, II1=II1, II2=II2, total=total)


# --------------------------------------------------------------------------
# kernel positivity sum

def kernel_sum_S(x: float, y: float, alpha: float, L: int = 64):
    """Antisymmetrized image sum over |l| <= L of
    |x-y-l|^(-1-alpha) - |x+y-l|^(-1-alpha), plus its analytic tail bound.

    Returns (value, tail_bound).  The positivity statement is
    value >= -tail_bound for x, y in [0, 1/2].  The diagonal x = y has a
    divergent l = 0 term and returns (inf, 0.0) as a sentinel.
    """
    if alpha <= 0.0:
        raise ValueError("the positivity sum requires alpha > 0")
    if L < 8:
        raise ValueError("image truncation must be at least 8")
    if abs(x - y) < 1e-15:
        return math.inf, 0.0
    l = np.arange(-L, L + 1, dtype=float)
    minus = np.abs(x - y - l) ** (-1.0 - alpha)
    plus = np.abs(x + y - l) ** (-1.0 - alpha)
    value = float(np.sum(minus - plus))
    # paired images cancel to second order; each far pair is bounded by
    # (1+alpha)(2+alpha) 4xy (l-1)^(-3-alpha); the bound also carries the
    # floating-point summation allowance so the positivity statement is
    # checkable at roundoff-level values
    tail_bound = 4.0 * x * y * (1.0 + alpha) * max(L - 1, 1) ** (-2.0 - alpha)
    tail_bound += 8.0 * np.finfo(float).eps * float(np.sum(minus + plus))
    return value, tail_bound
