"""Uniform periodic grid on the unit torus with paired physical/spectral views.

The torus is [-1/2, 1/2) with nodes x_j = -1/2 + j/n.  Fields are expanded in
the modes e^{2 pi i k x}, so a Fourier multiplier m(k) acts on the integer
wavenumber k.  Real fields are stored as sample vectors; the half-spectrum
coefficients c_k (k = 0 .. n/2) are cached per field, and `trig_sum` evaluates
any such row off the grid.  Every multiplier outside the time stepper goes
through `apply_multiplier`, which takes a half-spectrum symbol, works on the
plain rfft of the samples as the stepper does, and leaves the imaginary part
of the Nyquist entry to irfft, which drops it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PeriodicGrid:
    """Discretization of the unit torus [-1/2, 1/2) with n equispaced nodes."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)):
            raise TypeError(f"grid size must be an integer, got {self.n!r}")
        if self.n < 8:
            raise ValueError(f"grid needs at least 8 points, got {self.n}")
        if self.n % 2 != 0:
            raise ValueError(f"grid size must be even, got {self.n}")

    @cached_property
    def nodes(self) -> np.ndarray:
        x = -0.5 + np.arange(self.n) / self.n
        x.setflags(write=False)
        return x

    @cached_property
    def dx(self) -> float:
        return 1.0 / self.n

    @cached_property
    def k_half(self) -> np.ndarray:
        """Nonnegative wavenumbers 0 .. n/2 (rfft layout)."""
        k = np.arange(self.n // 2 + 1)
        k.setflags(write=False)
        return k

    @cached_property
    def _node_phase(self) -> np.ndarray:
        # (-1)^k translates rfft output (origin at x=0 ordering) to true
        # coefficients of e^{2 pi i k x} for nodes starting at x=-1/2
        ph = np.where(self.k_half % 2 == 0, 1.0, -1.0)
        ph.setflags(write=False)
        return ph

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """Half-spectrum coefficients c_k of the trig interpolant of `values`."""
        return np.fft.rfft(values) / self.n * self._node_phase

    def node_index(self, x: float) -> int:
        """Index of the grid node closest to x (wrapped into the torus)."""
        j = round((x + 0.5) * self.n)
        return int(j % self.n)


def make_grid(n_points: int) -> PeriodicGrid:
    return PeriodicGrid(n_points)


@dataclass(frozen=True)
class DensityField:
    """Real scalar samples on a PeriodicGrid with cached spectral coefficients."""

    grid: PeriodicGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError(f"values shape {v.shape} does not match grid size {self.grid.n}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @cached_property
    def coefficients(self) -> np.ndarray:
        """Coefficients c_k for k = 0 .. n/2; c_0 equals the mean."""
        c = self.grid.coefficients(self.values)
        c.setflags(write=False)
        return c

    @property
    def mean(self) -> float:
        return float(self.values.mean())


def apply_multiplier(f: DensityField, symbol: np.ndarray) -> DensityField:
    """Apply the Fourier multiplier with half-spectrum `symbol` (k = 0 .. n/2)."""
    sym = np.asarray(symbol, dtype=complex)
    if sym.shape != f.grid.k_half.shape:
        raise ValueError("symbol array must cover wavenumbers 0 .. n/2")
    return DensityField(f.grid, np.fft.irfft(sym * np.fft.rfft(f.values), f.grid.n))


def derivative_symbol(grid: PeriodicGrid) -> np.ndarray:
    sym = 2j * np.pi * grid.k_half.astype(complex)
    # 0 at Nyquist: at dealias fraction 1 the stepper's flux, linear rates
    # and shear keep that mode and use this entry before any irfft
    sym[-1] = 0.0
    return sym


def spectral_derivative(f: DensityField) -> DensityField:
    return apply_multiplier(f, derivative_symbol(f.grid))


def trig_sum(grid: PeriodicGrid, c: np.ndarray, xs) -> np.ndarray:
    """c_0 + 2 Re sum_{0<k<n/2} c_k e^{2 pi i k x} + c_{n/2} cos(pi n x) of a
    half-spectrum coefficient row c at arbitrary points; 1-periodic in x."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    k_mid = grid.k_half[1:-1]
    out = np.empty(len(xs))
    block = 2048  # points per phase matrix
    for lo in range(0, len(xs), block):
        xb = xs[lo:lo + block]
        phases = np.exp(2j * np.pi * np.outer(xb, k_mid))
        out[lo:lo + block] = (
            c[0].real
            + 2.0 * (phases @ c[1:-1]).real
            + c[-1].real * np.cos(np.pi * grid.n * xb)
        )
    return out


def evaluate_trig(f: DensityField, xs) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary points.

    Exact at the nodes and for any resolved trig polynomial.
    """
    return trig_sum(f.grid, f.coefficients, xs)


def antiderivative_at(f: DensityField, xs) -> np.ndarray:
    """Antiderivative F(x) = mean * x + (periodic part), with F(0) = 0.

    Spectrally exact for resolved fields; usable for mass integrals
    int_a^b f = F(b) - F(a) on unwrapped coordinates.  The periodic part is
    the trig sum of c_k / (2 pi i k) less its value at 0, plus a Nyquist sine.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    c = f.coefficients
    n = f.grid.n
    a = np.zeros_like(c)
    a[1:-1] = c[1:-1] / (2j * np.pi * f.grid.k_half[1:-1])
    periodic = trig_sum(f.grid, a, xs) - trig_sum(f.grid, a, [0.0])[0]
    return c[0].real * xs + periodic + c[-1].real * np.sin(np.pi * n * xs) / (np.pi * n)
