"""Grid construction, transforms, multipliers, interpolation."""

import numpy as np
import pytest

from fpmflow.grid import (DensityField, antiderivative_at, apply_multiplier,
                          evaluate_trig, make_grid, spectral_derivative)


class TestMakeGrid:
    def test_nodes_n8(self):
        grid = make_grid(8)
        assert np.allclose(grid.nodes, -0.5 + np.arange(8) / 8)
        assert grid.nodes[0] == -0.5
        assert grid.nodes[-1] == 0.375

    def test_rejects_odd(self):
        with pytest.raises(ValueError, match="even"):
            make_grid(9)

    def test_rejects_seven(self):
        with pytest.raises(ValueError):
            make_grid(7)

    def test_rejects_float_size(self):
        with pytest.raises(TypeError, match="integer"):
            make_grid(64.0)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError, match="at least 8"):
            make_grid(4)

    def test_spacing_exact(self):
        grid = make_grid(512)
        assert grid.dx == 1.0 / 512
        assert np.all(np.diff(grid.nodes) == grid.dx)

    def test_no_duplicated_endpoint(self):
        grid = make_grid(64)
        assert grid.nodes[-1] < 0.5

    def test_wavenumber_range(self):
        grid = make_grid(16)
        assert grid.k_half[0] == 0
        assert grid.k_half[-1] == 8


class TestTransforms:
    def test_mean_is_zero_mode(self):
        grid = make_grid(64)
        rng = np.random.default_rng(1)
        f = DensityField(grid, rng.normal(size=64))
        assert abs(f.coefficients[0].real - f.mean) < 1e-14
        assert abs(f.coefficients[0].imag) < 1e-14

    def test_single_mode_coefficient(self):
        grid = make_grid(64)
        f = DensityField(grid, np.cos(2 * np.pi * 3 * grid.nodes))
        c = f.coefficients
        assert abs(c[3] - 0.5) < 1e-14
        others = np.abs(c)
        assert others[:3].max() < 1e-14 and others[4:].max() < 1e-14

    def test_parseval(self):
        grid = make_grid(256)
        rng = np.random.default_rng(7)
        f = DensityField(grid, rng.normal(size=256))
        # the half spectrum counts each interior mode twice (k and -k)
        c = f.coefficients
        w = np.where((grid.k_half > 0) & (grid.k_half < 128), 2.0, 1.0)
        spec = float(np.sum(w * np.abs(c) ** 2))
        phys = float(np.mean(f.values ** 2))
        assert abs(spec - phys) < 1e-10 * phys

    def test_rejects_nonfinite(self):
        grid = make_grid(8)
        with pytest.raises(ValueError, match="finite"):
            DensityField(grid, np.array([1.0, np.nan] + [0.0] * 6))


class TestSpectralDerivative:
    def test_sin(self):
        grid = make_grid(64)
        f = DensityField(grid, np.sin(2 * np.pi * grid.nodes))
        d = spectral_derivative(f)
        assert np.max(np.abs(d.values - 2 * np.pi * np.cos(2 * np.pi * grid.nodes))) < 1e-10

    def test_constant(self):
        grid = make_grid(32)
        d = spectral_derivative(DensityField(grid, np.full(32, 3.7)))
        assert np.max(np.abs(d.values)) == 0.0

    def test_one_minus_cos(self):
        grid = make_grid(64)
        f = DensityField(grid, 1.0 - np.cos(2 * np.pi * grid.nodes))
        d = spectral_derivative(f)
        assert np.max(np.abs(d.values - 2 * np.pi * np.sin(2 * np.pi * grid.nodes))) < 1e-10


class TestApplyMultiplier:
    def test_identity(self):
        grid = make_grid(64)
        rng = np.random.default_rng(3)
        f = DensityField(grid, rng.normal(size=64))
        out = apply_multiplier(f, np.ones(33))
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_derivative_symbol(self):
        grid = make_grid(64)
        f = DensityField(grid, np.cos(2 * np.pi * grid.nodes))
        out = apply_multiplier(f, 2j * np.pi * grid.k_half)
        assert np.max(np.abs(out.values + 2 * np.pi * np.sin(2 * np.pi * grid.nodes))) < 1e-10

    def test_abs_symbol_eigenfunction(self):
        grid = make_grid(64)
        f = DensityField(grid, np.cos(2 * np.pi * grid.nodes))
        out = apply_multiplier(f, 2 * np.pi * grid.k_half)
        assert np.max(np.abs(out.values - 2 * np.pi * f.values)) < 1e-10

    @pytest.mark.parametrize("length", (16, 18, 32))
    def test_rejects_wrong_length(self, length):
        grid = make_grid(32)
        f = DensityField(grid, np.ones(32))
        with pytest.raises(ValueError, match="0 .. n/2"):
            apply_multiplier(f, np.ones(length))

    def test_linearity(self):
        grid = make_grid(64)
        rng = np.random.default_rng(5)
        fa = rng.normal(size=64)
        fb = rng.normal(size=64)
        sym = (2 * np.pi * grid.k_half) ** 0.7
        out_sum = apply_multiplier(DensityField(grid, 2.0 * fa + 3.0 * fb), sym)
        a = apply_multiplier(DensityField(grid, fa), sym)
        b = apply_multiplier(DensityField(grid, fb), sym)
        assert np.max(np.abs(out_sum.values - 2.0 * a.values - 3.0 * b.values)) < 1e-12


class TestTrigInterpolate:
    def test_resolved_mode_exact(self):
        grid = make_grid(64)
        f = DensityField(grid, np.cos(2 * np.pi * grid.nodes))
        assert abs(evaluate_trig(f, [1.0 / 3.0])[0] - np.cos(2 * np.pi / 3.0)) < 1e-10

    def test_nodal_values(self):
        grid = make_grid(32)
        rng = np.random.default_rng(11)
        f = DensityField(grid, rng.normal(size=32))
        vals = evaluate_trig(f, grid.nodes)
        assert np.max(np.abs(vals - f.values)) < 1e-12

    def test_refined_grid_oracle(self):
        # smooth bump against direct evaluation on a 4x finer grid
        coarse = make_grid(128)
        fine = make_grid(512)
        profile = lambda x: np.exp(np.cos(2 * np.pi * x) * 1.5)
        f = DensityField(coarse, profile(coarse.nodes))
        xs = fine.nodes
        interp = evaluate_trig(f, xs)
        assert np.max(np.abs(interp - profile(xs))) < 1e-8

    def test_wraps_outside_period(self):
        grid = make_grid(64)
        f = DensityField(grid, np.sin(2 * np.pi * grid.nodes))
        assert abs(evaluate_trig(f, [0.7])[0] - evaluate_trig(f, [-0.3])[0]) < 1e-12


class TestAntiderivative:
    def test_mean_plus_periodic(self):
        grid = make_grid(128)
        f = DensityField(grid, 1.0 - np.cos(2 * np.pi * grid.nodes))
        vals = antiderivative_at(f, [0.0, 0.25, 0.5])
        exact = lambda x: x - np.sin(2 * np.pi * x) / (2 * np.pi)
        assert abs(vals[0]) < 1e-14
        assert abs(vals[1] - exact(0.25)) < 1e-12
        assert abs(vals[2] - exact(0.5)) < 1e-12

    def test_closed_forms_across_blocks(self):
        # 5,000 points fill three 2,048-point phase matrices
        grid = make_grid(128)
        f = DensityField(grid, 1.0 - np.cos(2 * np.pi * grid.nodes))
        xs = np.linspace(-0.5, 0.5, 5000)
        assert np.max(np.abs(evaluate_trig(f, xs) - (1.0 - np.cos(2 * np.pi * xs)))) < 1e-12
        exact = xs - np.sin(2 * np.pi * xs) / (2 * np.pi)
        assert np.max(np.abs(antiderivative_at(f, xs) - exact)) < 1e-12
