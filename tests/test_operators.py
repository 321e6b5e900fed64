"""Nonlocal operators: calibration, dual routes, decomposition, constants."""

import dataclasses
import math

import numpy as np
import pytest

from fpmflow.grid import DensityField, make_grid
from fpmflow.initial_data import gen_cccf, gen_smooth_monotone, gen_vacuum_plateau
from fpmflow.operators import (OperatorParams, calibrate_c_alpha, compute_A,
                               compute_C, compute_delta, decompose_velocity,
                               fractional_laplacian_kernel,
                               fractional_laplacian_spectral, kernel_sum_S,
                               make_params, velocity_kernel, velocity_spectral)

ALPHAS = (0.3, 0.5, 1.0, 1.5, 1.9)


@pytest.fixture(scope="module")
def params_by_alpha():
    return {a: make_params(a) for a in ALPHAS}


@pytest.fixture(scope="module")
def grid():
    return make_grid(256)


@pytest.fixture(scope="module")
def cccf(grid):
    return gen_cccf(grid)


class TestCalibration:
    def test_alpha_one_is_reciprocal_pi(self, params_by_alpha):
        assert abs(params_by_alpha[1.0].c_alpha - 1.0 / math.pi) < 1e-8

    def test_truncation_stability(self):
        c16 = calibrate_c_alpha(0.5, kernel_truncation=16)
        c64 = calibrate_c_alpha(0.5, kernel_truncation=64)
        assert abs(c16 - c64) < 1e-6 * c64

    @pytest.mark.parametrize("quantity", ("velocity", "laplacian", "II1", "II2"))
    def test_kernel_values_truncation_stability(self, quantity, params_by_alpha,
                                                grid, cccf):
        # at a fixed c_alpha, 16 and 64 exact images must agree: the image-tail
        # expansion covers the rest, so a dropped or misweighted image shows
        evaluate = {
            "velocity": velocity_kernel,
            "laplacian": fractional_laplacian_kernel,
            "II1": lambda rho, p, x: decompose_velocity(rho, p, x).II1,
            "II2": lambda rho, p, x: decompose_velocity(rho, p, x).II2,
        }[quantity]
        for rho in (cccf, gen_vacuum_plateau(grid)):
            for alpha, p64 in params_by_alpha.items():
                p16 = dataclasses.replace(p64, kernel_truncation=16)
                for x in (0.05, 0.2, 0.4):
                    v64, v16 = evaluate(rho, p64, x), evaluate(rho, p16, x)
                    assert abs(v64 - v16) <= 1e-8 * max(abs(v64), 1.0), (alpha, x)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_closed_form_cross_check(self, alpha, params_by_alpha):
        # c = alpha / (2 int_0^inf sin(w) w^-alpha dw), by parts from the
        # symmetric-kernel normalization
        from scipy.special import gamma
        if alpha == 1.0:
            s = math.pi / 2.0
        elif alpha < 1.0:
            s = gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)
        else:
            s = gamma(2.0 - alpha) * math.cos(math.pi * alpha / 2.0) / (1.0 - alpha)
        assert abs(params_by_alpha[alpha].c_alpha - alpha / (2 * s)) < 2e-6

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            calibrate_c_alpha(2.0)
        with pytest.raises(ValueError):
            OperatorParams(alpha=0.0, c_alpha=1.0)


class TestSpectralRoutes:
    def test_laplacian_eigenfunction(self, grid):
        f = DensityField(grid, np.cos(2 * np.pi * grid.nodes))
        out = fractional_laplacian_spectral(f, 1.0)
        assert np.max(np.abs(out.values - 2 * np.pi * f.values)) < 1e-10

    def test_laplacian_second_mode(self, grid):
        f = DensityField(grid, np.cos(4 * np.pi * grid.nodes))
        out = fractional_laplacian_spectral(f, 0.5)
        assert np.max(np.abs(out.values - (4 * np.pi) ** 0.5 * f.values)) < 1e-10

    def test_laplacian_kills_constants(self, grid):
        out = fractional_laplacian_spectral(DensityField(grid, np.full(grid.n, 2.2)), 1.3)
        assert np.max(np.abs(out.values)) < 1e-10

    def test_velocity_sign_convention(self, grid, cccf):
        u = velocity_spectral(cccf, 1.0)
        assert np.max(np.abs(u.values + np.sin(2 * np.pi * grid.nodes))) < 1e-10

    def test_velocity_of_constant(self, grid):
        u = velocity_spectral(DensityField(grid, np.full(grid.n, 1.5)), 0.7)
        assert np.max(np.abs(u.values)) < 1e-12

    @pytest.mark.parametrize("alpha", (0.5, 1.5))
    def test_even_density_gives_odd_velocity(self, grid, alpha):
        rho = DensityField(grid, 1.0 + 0.3 * np.cos(2 * np.pi * grid.nodes)
                           + 0.1 * np.cos(6 * np.pi * grid.nodes))
        u = velocity_spectral(rho, alpha).values
        mirrored = np.roll(u[::-1], 1)
        assert np.max(np.abs(u + mirrored)) < 1e-10


class TestKernelRoutes:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_laplacian_duality(self, alpha, params_by_alpha, cccf):
        params = params_by_alpha[alpha]
        spectral = fractional_laplacian_spectral(cccf, alpha)
        for x in (-0.37, -0.1, 0.0, 0.25, 0.44):
            j = cccf.grid.node_index(x)
            got = fractional_laplacian_kernel(cccf, params, cccf.grid.nodes[j])
            assert abs(got - spectral.values[j]) < 1e-4

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_velocity_duality(self, alpha, params_by_alpha, cccf):
        params = params_by_alpha[alpha]
        spectral = velocity_spectral(cccf, alpha)
        for x in (-0.31, 0.1, 0.2, 0.45):
            j = cccf.grid.node_index(x)
            got = velocity_kernel(cccf, params, cccf.grid.nodes[j])
            assert abs(got - spectral.values[j]) < 1e-4

    def test_kernel_laplacian_constant(self, params_by_alpha, grid):
        f = DensityField(grid, np.full(grid.n, 3.0))
        assert abs(fractional_laplacian_kernel(f, params_by_alpha[1.0], 0.2)) < 1e-10

    def test_velocity_kernel_odd_at_origin(self, params_by_alpha, cccf):
        assert abs(velocity_kernel(cccf, params_by_alpha[0.5], 0.0)) < 1e-8

    def test_velocity_kernel_alpha_one_closed_form(self, params_by_alpha, cccf):
        got = velocity_kernel(cccf, params_by_alpha[1.0], 0.1)
        assert abs(got + np.sin(0.2 * np.pi)) < 1e-4


class TestDecomposition:
    @pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
    def test_total_matches_kernel(self, alpha, params_by_alpha, cccf):
        params = params_by_alpha[alpha]
        for x in (0.05, 0.2, 0.4):
            dec = decompose_velocity(cccf, params, x)
            ref = velocity_kernel(cccf, params, x)
            assert abs(dec.total - ref) <= 1e-8 * max(abs(ref), 1e-6)

    @pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
    @pytest.mark.parametrize("kind", ("cccf", "plateau", "smooth"))
    def test_sign_structure_on_monotone_family(self, alpha, kind, params_by_alpha):
        grid = make_grid(256)
        rho = {"cccf": gen_cccf(grid),
               "plateau": gen_vacuum_plateau(grid, 0.15, 0.2, 2.0),
               "smooth": gen_smooth_monotone(grid, 1.0)}[kind]
        params = params_by_alpha[alpha]
        delta = compute_delta(alpha)
        for x in (0.25 * delta, 0.6 * delta, delta):
            dec = decompose_velocity(rho, params, x)
            assert dec.I <= 1e-8
            assert dec.II1 <= 1e-8
            assert dec.II2 >= -1e-8
            assert dec.I + dec.II2 <= 1e-8  # near-part domination below delta

    def test_constant_density_all_zero(self, params_by_alpha):
        grid = make_grid(64)
        rho = DensityField(grid, np.full(64, 1.0))
        dec = decompose_velocity(rho, params_by_alpha[1.0], 0.2)
        assert abs(dec.I) < 1e-12 and abs(dec.II1) < 1e-10 and abs(dec.II2) < 1e-10

    def test_rejects_non_even(self, params_by_alpha):
        grid = make_grid(64)
        rho = DensityField(grid, 1.0 + 0.4 * np.sin(2 * np.pi * grid.nodes))
        with pytest.raises(ValueError, match="even"):
            decompose_velocity(rho, params_by_alpha[1.0], 0.1)

    def test_at_origin_zero(self, params_by_alpha, cccf):
        dec = decompose_velocity(cccf, params_by_alpha[0.5], 0.0)
        assert dec.total == 0.0

    # I(1/2) on cccf (n = 256) from the general quadrature path
    I_AT_HALF = {0.3: -0.5503037873501243, 0.5: -0.6030996335693917,
                 1.0: -0.7759291740995724, 1.5: -0.8608154493388225,
                 1.9: -0.3627110380846281}

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_at_half_zero(self, alpha, params_by_alpha, cccf):
        # u(1/2) = 0 for even rho and every II1 cell is empty, so II2 = -I
        params = params_by_alpha[alpha]
        dec = decompose_velocity(cccf, params, 0.5)
        assert abs(dec.total) <= 1e-14
        assert dec.II1 == 0.0 and dec.II2 == -dec.I
        assert dec.I == pytest.approx(self.I_AT_HALF[alpha], rel=1e-12, abs=0)
        # I is continuous up to x = 1/2
        assert abs(dec.I - decompose_velocity(cccf, params, 0.5 - 1e-9).I) < 1e-7


class TestVelocitySign:
    @pytest.mark.parametrize("alpha", (0.3, 0.5, 1.0, 1.5, 1.9))
    def test_nonpositive_on_smallness_interval(self, alpha):
        # monotone even data keep u <= 0 on [0, delta]
        grid = make_grid(512)
        delta = compute_delta(alpha)
        for rho in (gen_cccf(grid), gen_vacuum_plateau(grid, 0.1, 0.15, 1.5),
                    gen_smooth_monotone(grid, 2.0)):
            u = velocity_spectral(rho, alpha).values
            sel = (grid.nodes >= 0.0) & (grid.nodes <= delta)
            assert np.max(u[sel]) <= 1e-8


class TestKernelSum:
    def test_zero_at_y_zero(self):
        value, _ = kernel_sum_S(0.3, 0.0, 1.0, 64)
        assert value == 0.0

    def test_diagonal_sentinel(self):
        value, bound = kernel_sum_S(0.2, 0.2, 0.7, 64)
        assert math.isinf(value) and bound == 0.0

    def test_value_against_direct_summation(self):
        value, bound = kernel_sum_S(0.3, 0.1, 1.0, 10_000)
        l = np.arange(-10_000, 10_001)
        direct = np.sum(np.abs(0.2 - l) ** -2.0 - np.abs(0.4 - l) ** -2.0)
        assert abs(value - direct) < 1e-12 * abs(direct)
        assert value >= -bound
        assert value > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            kernel_sum_S(0.1, 0.2, -1.0, 64)
        with pytest.raises(ValueError):
            kernel_sum_S(0.1, 0.2, 1.0, 4)


class TestConstants:
    def test_C_examples(self):
        assert compute_C(1.0) == 12.0
        assert abs(compute_C(0.5) - 4.0 * math.sqrt(2.0)) < 1e-14
        assert abs(compute_C(1e-9) - 2.0) < 1e-6

    def test_delta_examples(self):
        assert abs(compute_delta(1.0) - 1.0 / 6.0) < 1e-12
        expected = (1.0 / (3.0 * 4.0 * math.sqrt(2.0))) ** (2.0 / 3.0)
        assert abs(compute_delta(0.5) - expected) < 1e-14

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_delta_capped(self, alpha):
        assert compute_delta(alpha) <= 0.25

    def test_A_examples(self):
        assert compute_A(1.0, 1.0, 2.0) == 0.125
        assert abs(compute_A(0.5, 1.0, 2.0) - 1.0 / 16.0) < 1e-15
        assert compute_A(1.0, 1e-12, 2.0) < 1e-12

    def test_A_rejects_bad_input(self):
        with pytest.raises(ValueError):
            compute_A(1.0, -1.0, 2.0)
        with pytest.raises(ValueError):
            compute_A(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            compute_A(1.0, 3.0, 2.0)
