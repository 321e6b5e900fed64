"""Uniform periodic grid on the unit torus with paired physical/spectral views.

The torus is [-1/2, 1/2) with nodes x_j = -1/2 + j/n.  Fields are expanded in
the modes e^{2 pi i k x}, so a Fourier multiplier m(k) acts on the integer
wavenumber k.  Real fields are stored as sample vectors; the half-spectrum
coefficients c_k (k = 0 .. n/2) are cached per field, and `trig_sum` evaluates
any such row off the grid.  It factors each phase: with k = qB + r,
B = isqrt(n/2 - 1) + 1 and Q = ceil((n/2) / B),

    sum_k c_k e^{2 pi i k x} = sum_q e^{2 pi i qB x} sum_r c_{qB+r} e^{2 pi i r x},

so a point costs B + Q complex exponentials (46 at n = 1024, 64 at
n = 2048) instead of n/2 - 1, and the inner sums are one matrix product
with the coefficients laid out as a zero-padded (Q, B) matrix:
`trig_layout` builds that layout once per row, and `trig_eval` evaluates
it at one point or at a block of points.  Every multiplier outside the time
stepper goes through `apply_multiplier`, which takes a half-spectrum symbol,
works on the plain rfft of the samples as the stepper does, and leaves the
imaginary part of the Nyquist entry to irfft, which drops it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import numpy.fft  # noqa: F401  (numpy 2 loads np.fft on first use; load it here)


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

    @cached_property
    def _trig_rows(self) -> tuple[int, np.ndarray]:
        """trig_sum's block width B = isqrt(n/2 - 1) + 1 and its exponent
        row: 2 pi i r for r < B, then 2 pi i B q for q < Q = ceil((n/2) / B)."""
        half = self.n // 2
        b = math.isqrt(half - 1) + 1
        row = 2j * np.pi * np.concatenate((np.arange(b), b * np.arange(-(-half // b))))
        row.setflags(write=False)
        return b, row

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


def trig_layout(grid: PeriodicGrid, c: np.ndarray):
    """trig_sum's layout of a half-spectrum row c: (C, c_0, c_{n/2}), where
    C[r, q] = c_{qB+r} is the zero-padded (B, Q) matrix of the factorised
    phases (module docstring).  Built once, it serves any number of
    `trig_eval` calls.  It copies c entry by entry, so for a float f the
    layout of a + f d is, entry by entry, that of a plus f times that of d,
    in the same bits up to the sign of a zero c_0 or c_{n/2}."""
    b, row = grid._trig_rows
    cqr = np.zeros((len(row) - b) * b, dtype=complex)
    cqr[1:grid.n // 2] = c[1:-1]
    return cqr.reshape(-1, b).T, c[0].real, c[-1].real


def trig_eval(grid: PeriodicGrid, layout, x):
    """The trig sum of one row's `trig_layout` at x: one point as a float (a
    float comes back, without the set-up of an array of points) or a 1-D
    array of at most TRIG_BLOCK points.  The one kernel behind `trig_sum`,
    `evaluate_trig` and `antiderivative_at`; a float gives the bits of the
    same point alone in an array."""
    cqr, c0, cn = layout
    b, row = grid._trig_rows
    phases = np.exp(np.multiply.outer(x, row))  # e^{2 pi i r x}, then e^{2 pi i qB x}
    inner = phases[..., :b] @ cqr
    inner *= phases[..., b:]
    return c0 + 2.0 * inner.real.sum(axis=-1) + cn * np.cos(np.pi * grid.n * x)


TRIG_BLOCK = 2048  # points per phase matrix


def _in_blocks(kernel, xs) -> np.ndarray:
    """kernel over the points xs (any shape), TRIG_BLOCK points at a time."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.empty(len(xs))
    for lo in range(0, len(xs), TRIG_BLOCK):
        out[lo:lo + TRIG_BLOCK] = kernel(xs[lo:lo + TRIG_BLOCK])
    return out


def trig_sum(grid: PeriodicGrid, c: np.ndarray, xs) -> np.ndarray:
    """c_0 + 2 Re sum_{0<k<n/2} c_k e^{2 pi i k x} + c_{n/2} cos(pi n x) of a
    half-spectrum coefficient row c at arbitrary points; 1-periodic in x.
    The interior sum runs on factorised phases k = qB + r (module docstring)."""
    layout = trig_layout(grid, c)
    return _in_blocks(lambda xb: trig_eval(grid, layout, xb), xs)


def evaluate_trig(f: DensityField, xs) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary points.

    Exact at the nodes and for any resolved trig polynomial.
    """
    return trig_sum(f.grid, f.coefficients, xs)


def antiderivative_layout(f: DensityField):
    """What `antiderivative_eval` needs of f, built once: the `trig_layout`
    of the periodic part's row c_k / (2 pi i k), its trig sum at 0, c_0 and
    c_{n/2}."""
    c = f.coefficients
    a = np.zeros_like(c)
    a[1:-1] = c[1:-1] / (2j * np.pi * f.grid.k_half[1:-1])
    layout = trig_layout(f.grid, a)
    return layout, trig_eval(f.grid, layout, 0.0), c[0].real, c[-1].real


def antiderivative_eval(grid: PeriodicGrid, parts, x):
    """`antiderivative_at` of the field whose `antiderivative_layout` is
    parts, at x as `trig_eval` takes it."""
    layout, at_zero, c0, cn = parts
    n = grid.n
    periodic = trig_eval(grid, layout, x) - at_zero
    return c0 * x + periodic + cn * np.sin(np.pi * n * x) / (np.pi * n)


def antiderivative_at(f: DensityField, xs) -> np.ndarray:
    """Antiderivative F(x) = mean * x + (periodic part), with F(0) = 0.

    Spectrally exact for resolved fields; usable for mass integrals
    int_a^b f = F(b) - F(a) on unwrapped coordinates.  The periodic part is
    the trig sum of c_k / (2 pi i k) less its value at 0, plus a Nyquist sine.
    """
    parts = antiderivative_layout(f)
    return _in_blocks(lambda xb: antiderivative_eval(f.grid, parts, xb), xs)
