"""Nonlocal operators on the torus: fractional Laplacian, odd-kernel velocity,
the velocity decomposition, kernel positivity sums, and the derived constants.

Each operator has two routes:

* spectral: Fourier multiplier (2 pi |k|)^alpha for the fractional Laplacian
  and -i sgn(k) (2 pi |k|)^(alpha-1) for the velocity;
* kernel: principal-value quadrature of the periodized singular integral,
  with the singular cell folded symmetrically and integrated by Gauss-Jacobi
  rules.  The periodic images share one rule (``_image_weights``): the
  1-periodic integrand is evaluated once on one period's Gauss nodes, which
  carry the summed image weights sum_l (l + w)^(-p): images 1 .. _IMAGES
  exactly and all the rest by a moment expansion in Hurwitz zeta functions.

The symmetric kernel's normalization c_alpha is the closed form C(1, alpha/2)
of Di Nezza, Palatucci & Valdinoci (Bull. Sci. Math. 2012).  The odd velocity
kernel carries c_alpha / alpha: integrating the defining identity by parts
converts one constant into the other with exactly that factor.  Both routes
are pinned by tests against the multiplier path.

Every Gauss rule in the package comes from one builder, `_gauss_jacobi`: the
Gauss-Legendre panels are its Jacobi exponent 0 case.  Its nodes are the
Jacobi matrix's eigenvalues (Golub & Welsch, Math. Comp. 1969) after one
Newton step on the three-term recurrence, with weights from P_n' at the
nodes, not the eigenvectors (Hale & Townsend, SIAM J. Sci. Comput. 2013).
Hurwitz zeta is summed by Euler-Maclaurin (DLMF 25.11).  Rules are built on
first use, once per size and Jacobi exponent, shared read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import DensityField, apply_multiplier, evaluate_trig

__all__ = [
    "OperatorParams",
    "VelocityDecomposition",
    "make_params",
    "fractional_laplacian_spectral",
    "fractional_laplacian_kernel",
    "velocity_spectral",
    "velocity_kernel",
    "decompose_velocity",
    "kernel_sum_S",
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

    def __post_init__(self):
        _check_alpha(self.alpha)

    @property
    def c_alpha(self) -> float:
        """Symmetric-kernel normalization C(1, alpha/2) in closed form."""
        a = self.alpha
        return a * 2.0 ** (a - 1.0) * math.gamma(0.5 + 0.5 * a) / (
            math.sqrt(math.pi) * math.gamma(1.0 - 0.5 * a))

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

_QUADRATURE_POINTS = 64  # Gauss points per quadrature cell
_SING_HALF_WIDTH = 0.25  # half width of the symmetric singular cell
_TAIL_MOMENTS = 6  # terms of the image-tail expansion
_IMAGES = 64  # images summed exactly before the tail expansion takes over


def _check_alpha(alpha: float) -> None:
    """Reject a fractional order outside (0, 2)."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")


def _jacobi_ratio(n: int, nu: float, y):
    """R_n = P_n^(0,nu)(t) / P_n^(0,nu)(-1) and dR_n/dt at t = y - 1, by the
    recurrence on R_k - R_(k-1): being O(y), they keep nodes near t = -1 to full
    relative precision, which the plain recurrence loses for nu < 0."""
    g = (nu + 2.0) / (2.0 * (nu + 1.0))
    d, dd = -g * y, np.full_like(y, -g)
    r, dr = 1.0 + d, dd
    for k in range(2, n + 1):
        c = 2.0 * k + nu
        b = (k - 1.0) ** 2 * c / ((k + nu) ** 2 * (c - 2.0))
        g = (c - 1.0) * c / (2.0 * (k + nu) ** 2)
        d, dd = b * d - g * y * r, b * dd - g * (r + y * dr)
        r, dr = r + d, dr + dd
    return r, dr


@lru_cache(maxsize=32)
def _gauss_jacobi(n: int, nu: float):
    """n-point Gauss-Jacobi nodes and weights for (1 + t)^nu on [-1, 1],
    read-only; the weights are 2^(nu+1) / ((1 - t^2) P_n'(t)^2).  nu = 0
    gives the Gauss-Legendre rule."""
    k = np.arange(1, n)
    c = 2.0 * k + nu
    jacobi = np.diag(np.r_[nu / (nu + 2.0), nu * nu / (c * (c + 2.0))])
    jacobi[k, k - 1] = 2.0 * k * (k + nu) / (c * np.sqrt(c * c - 1.0))
    y = 1.0 + np.linalg.eigvalsh(jacobi)
    r, dr = _jacobi_ratio(n, nu, y)
    y -= r / dr
    if y[0] - 1.0 <= -1.0:  # the first node rounds onto the singular end
        raise ValueError(f"the Gauss-Jacobi rule for (1 + t)^{nu!r} rounds a node onto "
                         "t = -1; nu lies too near -1")
    # P_n' = R_n' P_n(-1), and |P_n(-1)| = binomial(n + nu, n)
    dp = _jacobi_ratio(n, nu, y)[1] * np.prod(1.0 + nu / np.arange(1.0, n + 1.0))
    rule = y - 1.0, 2.0 ** (nu + 1.0) / ((2.0 - y) * y * dp * dp)
    for a in rule:
        a.setflags(write=False)
    return rule


def _gauss_cell(fun, a, b, n: int) -> float:
    """integral_a^b fun by the n-point Gauss-Legendre rule."""
    nodes, weights = _gauss_jacobi(n, 0.0)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.dot(weights, fun(mid + half * nodes)))


def _hurwitz_zeta(s: float, a: int) -> float:
    """Hurwitz zeta(s, a) for s > 1 and a >= 9; the Bernoulli terms at
    N = a + 8 are B_2j / (2j)! s (s+1) .. (s+2j-2) N^(1-s-2j), j = 1 .. 7."""
    N = a + 8.0
    out = sum((a + k) ** -s for k in range(8))
    out += N ** (1.0 - s) / (s - 1.0) + 0.5 * N ** -s
    term = s * N ** (-s - 1.0)
    for j, b in enumerate((1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                           -691 / 1307674368000, 1 / 74724249600)):
        out += b * term
        term *= (s + 2 * j + 1) * (s + 2 * j + 2) / (N * N)
    return out


def _image_weights(w, p: float, start: int = 0) -> np.ndarray:
    """sum_{l >= 1} (l + w)^(-p) at each node offset w, |w| <= 1.

    Images 1 .. L = _IMAGES are summed exactly; the remainder expands
    (l + w)^(-p) about each integer l > L, so its j-th term is
    binomial(-p, j) w^j zeta(p + j, L + 1).  start = 1 drops the j = 0 term,
    whose integral vanishes against a mean-zero integrand.
    """
    w = np.asarray(w, dtype=float)
    images = np.arange(1.0, _IMAGES + 1.0)[:, None]
    out = np.sum((images + w) ** (-p), axis=0)
    binom = 1.0  # binomial(-p, j)
    for j in range(_TAIL_MOMENTS):
        if j >= start:
            out += binom * _hurwitz_zeta(p + j, _IMAGES + 1) * w ** j
        binom *= -(p + j) / (j + 1)
    return out


def _periodized_singular_integral(G, p: float, mean_zero: bool = False) -> float:
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
                                      _SING_HALF_WIDTH, q - p, _QUADRATURE_POINTS // 2)
    total += _gauss_cell(lambda t: G(t) * t ** (-p), _SING_HALF_WIDTH, 0.5,
                         _QUADRATURE_POINTS)
    xg, wg = _gauss_jacobi(_QUADRATURE_POINTS, 0.0)
    sig = 0.5 * xg
    images = _image_weights(sig, p, start=1 if mean_zero else 0)
    return total + float(np.dot(0.5 * wg * images, G(sig)))


def _jacobi_endpoint_integral(fun_phi, a: float, b: float, nu: float, n: int) -> float:
    """integral_a^b phi(t) (t - a)^nu dt with smooth phi, by Gauss-Jacobi."""
    if b <= a:
        return 0.0
    xi, wi = _gauss_jacobi(n, nu)
    t = a + (b - a) * (xi + 1.0) / 2.0
    return ((b - a) / 2.0) ** (nu + 1.0) * float(np.dot(wi, fun_phi(t)))


def _integrate_steep_left(fun, a: float, b: float, scale: float, n: int) -> float:
    """n-point Gauss-Legendre on cells doubling away from a steep-but-regular
    left end.  fun is called once per cell: the kernel route's integrands
    build a phase matrix that grows with the points per call, so batching
    the cells would raise peak memory."""
    total = 0.0
    left = a
    width = min(scale, b - a)
    while left < b - 1e-15:
        right = min(left + width, b)
        total += _gauss_cell(fun, left, right, n)
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
    if not (0.0 < m < math.inf and 0.0 < rho_max < math.inf):
        raise ValueError("mass and density bound must be positive and finite")
    if m > rho_max * (1.0 + 1e-12):
        raise ValueError("mass on the unit torus cannot exceed the density bound")
    return alpha * m / (4.0 * rho_max)


def make_params(alpha: float) -> OperatorParams:
    """Kernel-quadrature parameters for one alpha."""
    return OperatorParams(alpha)


# --------------------------------------------------------------------------
# spectral route

def laplacian_symbol(grid, alpha: float) -> np.ndarray:
    return (2.0 * np.pi * grid.k_half.astype(float)) ** alpha + 0j


def velocity_symbol(grid, alpha: float) -> np.ndarray:
    k = grid.k_half.astype(float)
    sym = np.zeros(len(k), dtype=complex)
    sym[1:] = -1j * (2.0 * np.pi * k[1:]) ** (alpha - 1.0)
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
    2 f(x) - f(x+s) - f(x-s) = 4 sum_k c_k e^{2 pi i k x} sin^2(pi k s),
    which vanishes to second order; summed over k, it loses no digits to
    the cancellation of the point values near s = 0.
    """
    k = f.grid.k_half[1:]
    a = 8.0 * np.real(f.coefficients[1:] * np.exp(2j * np.pi * k * x))
    a[-1] *= 0.5  # the Nyquist term has no conjugate partner

    def G(s):
        return np.sin(np.pi * np.multiply.outer(s, k)) ** 2 @ a

    raw = _periodized_singular_integral(G, 1.0 + params.alpha)
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

    raw = _periodized_singular_integral(G, params.alpha, mean_zero=True)
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
    c_u = params.c_velocity
    rho_x = float(evaluate_trig(rho, [x])[0])

    if x < 1e-14:
        return VelocityDecomposition(0.0, 0.0, 0.0, 0.0)

    # I = int_0^x (rho(y) - rho(x)) [ (x+y)^-a + (x-y)^-a ] dy, substituted
    # s = x - y so the singular branch becomes phi(s) s^(1-a) at s = 0.
    def phi_near(s):
        return (evaluate_trig(rho, x - s) - rho_x) / s

    I_val = c_u * _jacobi_endpoint_integral(phi_near, 0.0, x, 1.0 - alpha, _QUADRATURE_POINTS)
    I_val += c_u * _gauss_cell(
        lambda s: (evaluate_trig(rho, x - s) - rho_x) * (2.0 * x - s) ** (-alpha),
        0.0, x, _QUADRATURE_POINTS)
    if x > 0.5 - 1e-14:
        # every II1 cell is empty and u(1/2) = 0 for even rho, so II2 = -I
        return VelocityDecomposition(I=I_val, II1=0.0, II2=-I_val, total=0.0)

    # II1, l = 0 cell [x, 1-x]: kernel (x+y)^-a - (y-x)^-a, singular at y = x.
    def phi_far(y):
        return -(evaluate_trig(rho, y) - rho_x) / (y - x)

    II1 = _jacobi_endpoint_integral(phi_far, x, 1.0 - x, 1.0 - alpha, _QUADRATURE_POINTS)
    II1 += _integrate_steep_left(
        lambda y: (evaluate_trig(rho, y) - rho_x) * (x + y) ** (-alpha),
        x, 1.0 - x, max(x, 1e-3), _QUADRATURE_POINTS)

    # images l >= 1: the cells [l+x, l+1-x] (II1) and [l-x, l+x] (II2) fold
    # onto w = y - l with kernel sum_l (l+w+x)^-a - (l+w-x)^-a; the j = 0
    # tail terms cancel in the difference
    def far(w):
        kernel = (_image_weights(w + x, alpha, start=1)
                  - _image_weights(w - x, alpha, start=1))
        return (evaluate_trig(rho, w) - rho_x) * kernel

    II1 = c_u * (II1 + _gauss_cell(far, x, 1.0 - x, _QUADRATURE_POINTS))
    II2 = c_u * _gauss_cell(far, -x, x, _QUADRATURE_POINTS)

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
