"""Uniform periodic grid on the unit torus with paired physical/spectral views.

The torus is [-1/2, 1/2) with nodes x_j = -1/2 + j/n.  Fields are expanded in
the modes e^{2 pi i k x}, so a Fourier multiplier m(k) acts on the integer
wavenumber k.  Real fields are stored as sample vectors; the half-spectrum
coefficients c_k (k = 0 .. n/2) are cached per field, and `trig_eval`
evaluates any such row off the grid.  It factors each phase: with k = qB + r,
B = isqrt(n/2 - 1) + 1 and Q = ceil((n/2) / B),

    sum_k c_k e^{2 pi i k x} = sum_q e^{2 pi i qB x} sum_r c_{qB+r} e^{2 pi i r x},

so a point costs B + Q complex exponentials (46 at n = 1024, 64 at
n = 2048) instead of n/2 - 1, and the inner sums are one matrix product
with the coefficients laid out as a zero-padded (Q, B) matrix:
`trig_layout` builds that layout once per row, and `trig_eval` evaluates
it at one point or at any number of points.  At one point it can evaluate
several layouts from one phase vector, and at 0 the phase vector is a unit
row with no exponential, so a tracked characteristic point costs 4 phase
vectors per snapshot interval (three RK4 stages, then u, rho and F read
together at the snapshot) and none for F's constant.  Every multiplier
outside the time stepper goes through `apply_multiplier`, which takes a
half-spectrum symbol, works on the plain rfft of the samples as the stepper
does, and leaves the imaginary part of the Nyquist entry to irfft, which
drops it.
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
        """trig_eval's block width B = isqrt(n/2 - 1) + 1 and its exponent
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
    return 2j * np.pi * grid.k_half.astype(complex)


def spectral_derivative(f: DensityField) -> DensityField:
    return apply_multiplier(f, derivative_symbol(f.grid))


def trig_layout(grid: PeriodicGrid, c: np.ndarray):
    """The layout of a half-spectrum row c: (C, c_0, c_{n/2}), where
    C[r, q] = c_{qB+r} is the zero-padded (B, Q) matrix of the factorised
    phases (module docstring).  Built once, it serves any number of
    `trig_eval` calls.  It copies c entry by entry, so for a float f the
    layout of a + f d is, entry by entry, that of a plus f times that of d,
    and the layout of 0.5 (a + b) is half the sum of theirs, in the same
    bits up to the sign of a zero c_0 or c_{n/2}."""
    b, row = grid._trig_rows
    cqr = np.zeros((len(row) - b) * b, dtype=complex)
    cqr[1:grid.n // 2] = c[1:-1]
    return cqr.reshape(-1, b).T, c[0].real, c[-1].real


TRIG_BLOCK = 2048  # points per phase matrix


def trig_eval(grid: PeriodicGrid, layout, x):
    """c_0 + 2 Re sum_{0<k<n/2} c_k e^{2 pi i k x} + c_{n/2} cos(pi n x) of
    the row whose `trig_layout` is layout, 1-periodic in x: at one point as
    a float (a float comes back, without the set-up of an array of points)
    or at a 1-D sequence of points, TRIG_BLOCK points per phase matrix.  At
    a float, layout may also be a list of layouts: their values come back as
    a list, from one phase vector, each in the bits of its own call.  At the
    float 0.0 every phase is exactly 1, so the phase vector is a unit row
    and takes no exponential.  The one off-grid evaluation kernel; a float
    gives the bits of the same point alone in an array."""
    b, row = grid._trig_rows
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
        if len(x) > TRIG_BLOCK:
            out = np.empty(len(x))
            for lo in range(0, len(x), TRIG_BLOCK):
                out[lo:lo + TRIG_BLOCK] = trig_eval(grid, layout, x[lo:lo + TRIG_BLOCK])
            return out
        phases = np.multiply.outer(x, row)  # e^{2 pi i r x}, then e^{2 pi i qB x}
        np.exp(phases, out=phases)  # in place: one phase matrix, not two
    elif x == 0.0:
        phases = np.ones(len(row), dtype=complex)
    else:
        phases = np.exp(x * row)
    many = isinstance(layout, list)
    values = []
    for cqr, c0, cn in layout if many else (layout,):
        inner = phases[..., :b] @ cqr
        inner *= phases[..., b:]
        values.append(c0 + 2.0 * inner.real.sum(axis=-1) + cn * np.cos(np.pi * grid.n * x))
    return values if many else values[0]


def evaluate_trig(f: DensityField, xs) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary points.

    Exact at the nodes and for any resolved trig polynomial.
    """
    return trig_eval(f.grid, trig_layout(f.grid, f.coefficients), np.atleast_1d(xs))


def antiderivative_layout(f: DensityField):
    """What `antiderivative_eval` needs of f, built once: (layout, c_0,
    c_{n/2}), where layout is the `trig_layout` of the periodic part's row
    c_k / (2 pi i k) with its constant set to minus that row's trig sum at
    0, so that the periodic part vanishes at 0 (`trig_eval` takes that sum
    from a unit phase row, with no exponential)."""
    c = f.coefficients
    a = np.zeros(len(c), dtype=complex)
    np.divide(c[1:-1], 2j * np.pi * f.grid.k_half[1:-1], out=a[1:-1])
    cqr, _, cn = layout = trig_layout(f.grid, a)
    return (cqr, -trig_eval(f.grid, layout, 0.0), cn), c[0].real, c[-1].real


def antiderivative_eval(grid: PeriodicGrid, parts, x, periodic=None):
    """`antiderivative_at` of the field whose `antiderivative_layout` is
    parts, at x as `trig_eval` takes it; periodic is the `trig_eval` of
    parts' layout at x, when the caller has it already."""
    layout, c0, cn = parts
    if periodic is None:
        periodic = trig_eval(grid, layout, x)
    n = grid.n
    return c0 * x + periodic + cn * np.sin(np.pi * n * x) / (np.pi * n)


def antiderivative_at(f: DensityField, xs) -> np.ndarray:
    """Antiderivative F(x) = mean * x + (periodic part), with F(0) = 0.

    Spectrally exact for resolved fields; usable for mass integrals
    int_a^b f = F(b) - F(a) on unwrapped coordinates.  The periodic part is
    the trig sum of c_k / (2 pi i k) less its value at 0, plus a Nyquist sine.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    return antiderivative_eval(f.grid, antiderivative_layout(f), xs)
