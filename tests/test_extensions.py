"""Alignment system, slab reduction, plane-slice constant, spectral gap."""

import math

import numpy as np
import pytest

from fpmflow.grid import DensityField, apply_multiplier, make_grid, spectral_derivative
from fpmflow.initial_data import gen_cccf
from fpmflow.operators import (fractional_laplacian_spectral, make_params,
                               velocity_spectral)
from fpmflow.operators import _periodized_singular_integral
from fpmflow.extensions import (_Alignment, _products_hat, c_prime,
                                run_alignment, slab_check_2d, slab_velocity_2d,
                                spectral_gap_2d)
from fpmflow.solver import SolverConfig, _Workspace, run


def alignment_force(rho: DensityField, u: DensityField, alpha: float) -> DensityField:
    """Alignment interaction in commutator form u Lambda^a rho - Lambda^a(rho u).

    Algebraically identical to the singular-kernel interaction integral with
    the same normalization as the symmetric operator; the identity is pinned
    by a quadrature oracle below.  It is the u tendency of the alignment
    system with G replaced by -Lambda^a rho (see extensions._Alignment.tendencies).
    """
    if rho.grid is not u.grid and rho.grid.n != u.grid.n:
        raise ValueError("fields must share a grid")
    ws = _Alignment(rho.grid, alpha)
    minus_lap_rho = apply_multiplier(rho, -ws.lap_sym).values
    force_hat = ws.tendencies(_products_hat(rho.values, u.values, minus_lap_rho))[1]
    return DensityField(rho.grid, np.fft.irfft(force_hat, rho.grid.n))


@pytest.fixture(scope="module")
def grid():
    return make_grid(256)


class TestAlignmentRates:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_matches_stacked_formula(self, alpha):
        ws = _Alignment(make_grid(64), alpha)
        rng = np.random.default_rng(4)
        y_hat = np.fft.rfft(rng.normal(size=(2, 64)))
        w, u_hat = y_hat  # the state: w = rho_hat - shear u_hat
        rho_hat = ws.shear * u_hat + w
        # the rates written with one np.stack per transform
        y = np.fft.irfft(np.stack((rho_hat, u_hat, ws.deriv_sym * u_hat
                                   - ws.lap_sym * rho_hat)), 64)
        rho_u_hat, ug_hat = ws.mask * np.fft.rfft(np.stack((y[0] * y[1], y[1] * y[2])))
        # the u tendency -mask (W + lap_sym P) reads the linearised flux
        # symbol lin = -mask (2 pi k)^alpha, which is -mask lap_sym up to
        # the rounding of (2 pi k) (2 pi k)^(alpha - 1)
        np.testing.assert_allclose(ws.lin, -(ws.mask * ws.lap_sym.real),
                                   rtol=4 * np.finfo(float).eps, atol=0)
        # w = -G_hat / Lambda^a on the kept band, so its tendency is the
        # transport of G alone: shear W
        tendency = np.stack((ws.shear * ug_hat, ws.lin * rho_u_hat - ug_hat))
        got_tendency, got_y = ws.rates(y_hat)
        assert np.array_equal(got_y, y)
        assert np.array_equal(got_tendency, tendency)
        assert not np.shares_memory(ws.rates(y_hat)[1], got_y)  # fresh rows

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    def test_g_row_is_minus_lambda_w(self, alpha):
        # on the kept band w = -G_hat / Lambda^a: the G row that rates forms
        # from rho_hat = w + shear u_hat is irfft(-lap_sym w) to roundoff
        # (the shear reaches (2 pi 21)^(1/2), about 11, at alpha = 0.5)
        ws = _Alignment(make_grid(64), alpha)
        y_hat = ws.mask * np.fft.rfft(np.random.default_rng(5).normal(size=(2, 64)))
        g = ws.rates(y_hat)[1][2]
        want = np.fft.irfft(-ws.lap_sym * y_hat[0], 64)
        assert np.abs(g - want).max() <= 16 * np.finfo(float).eps * np.abs(want).max()

    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_norms_read_rho_and_u(self, alpha):
        # the stop rule and the error norm read the fields (rho_hat, u_hat),
        # not the state (w, u_hat)
        grid = make_grid(64)
        ws = _Alignment(grid, alpha)
        y_hat = np.fft.rfft(np.random.default_rng(6).normal(size=(2, 64)))
        rows = ws.fields(y_hat)
        flow = _Workspace(grid, alpha)
        assert ws.tail_fraction(y_hat) == flow.tail_fraction(rows)
        assert ws.sup_bound(y_hat) == flow.sup_bound(rows)


class TestAlignmentForce:
    def test_rejects_fields_on_other_grids(self, grid):
        with pytest.raises(ValueError, match="share a grid"):
            alignment_force(gen_cccf(grid), gen_cccf(make_grid(128)), 1.0)

    def test_constant_velocity_no_force(self, grid):
        rho = gen_cccf(grid)
        u = DensityField(grid, np.full(grid.n, 0.7))
        out = alignment_force(rho, u, 1.0)
        assert np.max(np.abs(out.values)) < 1e-10

    def test_constant_density_reduces_to_dissipation(self, grid):
        # rho = c: the interaction becomes -c Lambda^alpha u, the dissipative
        # term of the scalar velocity equation with unit density
        u = DensityField(grid, 0.2 * np.sin(2 * np.pi * grid.nodes)
                         + 0.05 * np.sin(4 * np.pi * grid.nodes))
        rho = DensityField(grid, np.full(grid.n, 1.0))
        out = alignment_force(rho, u, 0.8)
        expected = -fractional_laplacian_spectral(u, 0.8).values
        assert np.max(np.abs(out.values - expected)) < 1e-10

    @pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
    def test_commutator_matches_singular_quadrature(self, alpha):
        # oracle: direct periodized quadrature of the interaction integral
        grid = make_grid(128)
        rng = np.random.default_rng(9)
        rho = DensityField(grid, 1.5 + 0.4 * np.cos(2 * np.pi * grid.nodes)
                           + 0.2 * np.cos(6 * np.pi * grid.nodes))
        u = DensityField(grid, 0.3 * np.sin(2 * np.pi * grid.nodes)
                         + 0.1 * np.sin(4 * np.pi * grid.nodes))
        params = make_params(alpha)
        force = alignment_force(rho, u, alpha)
        from fpmflow.grid import evaluate_trig

        def oracle(x):
            ux = float(evaluate_trig(u, [x])[0])

            def G(s):
                return ((evaluate_trig(u, x + s) - ux) * evaluate_trig(rho, x + s)
                        + (evaluate_trig(u, x - s) - ux) * evaluate_trig(rho, x - s))

            raw = _periodized_singular_integral(G, 1.0 + alpha)
            return params.c_alpha * raw

        for x in (-0.3, 0.0, 0.17, 0.42):
            j = grid.node_index(x)
            assert abs(force.values[j] - oracle(grid.nodes[j])) < 1e-4


class TestAlignmentRun:
    @pytest.mark.parametrize("n_rho, n_u", [(128, 64), (64, 128), (128, 128)])
    def test_rejects_grids_other_than_the_config(self, n_rho, n_u):
        cfg = SolverConfig(alpha=1.0, n_points=64, t_end=0.01)
        rho0, u0 = gen_cccf(make_grid(n_rho)), gen_cccf(make_grid(n_u))
        with pytest.raises(ValueError, match="do not match the configuration"):
            run_alignment(rho0, u0, cfg)
    def test_g_zero_preserved_and_matches_main_solver(self):
        n, alpha, t_end = 512, 1.0, 0.06
        grid = make_grid(n)
        rho0 = gen_cccf(grid)
        u0 = velocity_spectral(rho0, alpha)
        cfg = SolverConfig(alpha=alpha, n_points=n, t_end=t_end,
                           snapshot_interval=0.01)
        ares = run_alignment(rho0, u0, cfg)
        mres = run(rho0, cfg)
        assert ares.stop_reason == "t_end" and mres.stop_reason == "t_end"
        for s in ares.states:
            dux = np.max(np.abs(spectral_derivative(s.u).values))
            assert np.max(np.abs(s.G.values)) <= 1e-6 * max(dux, 1e-300)
        diff = np.max(np.abs(ares.final_state.rho.values
                             - mres.final_state.rho.values))
        assert diff < 1e-6

    def test_g_zero_takes_the_main_solver_steps(self):
        # both systems integrate the same linear part exactly and measure the
        # dissipative limit from the density's midrange, so on G = 0 data
        # they take the same steps and their densities agree to roundoff
        n, alpha, t_end = 512, 1.0, 0.06
        grid = make_grid(n)
        rho0 = gen_cccf(grid)
        cfg = SolverConfig(alpha=alpha, n_points=n, t_end=t_end,
                           snapshot_interval=0.01)
        ares = run_alignment(rho0, velocity_spectral(rho0, alpha), cfg)
        mres = run(rho0, cfg)
        assert ares.telemetry["steps"] == mres.telemetry["steps"] == 75
        diff = np.max(np.abs(ares.final_state.rho.values
                             - mres.final_state.rho.values))
        assert diff <= 1e-12

    def test_linear_relaxation_is_exact(self):
        # one step ten times past the explicit limit 1/(max rho (2 pi k_max)^a):
        # a small mode near k_max decays in u by exactly exp(-m (2 pi k)^a dt),
        # and the factor keeps G = 0
        n, alpha, m, k, eps = 256, 1.5, 1.2, 80, 1e-6
        grid = make_grid(n)
        dt = 10.0 / (m * (2 * np.pi * 85) ** alpha)
        rho0 = DensityField(grid, m + eps * np.cos(2 * np.pi * k * grid.nodes))
        u0 = velocity_spectral(rho0, alpha)
        cfg = SolverConfig(alpha=alpha, n_points=n, t_end=dt, dt_fixed=dt,
                           snapshot_interval=dt, tail_threshold=1.0)
        res = run_alignment(rho0, u0, cfg)
        assert res.telemetry["steps"] == 1
        final = res.final_state
        mode = 2 * np.fft.rfft(final.u.values)[k] / n
        mode0 = 2 * np.fft.rfft(u0.values)[k] / n
        assert abs(mode - mode0 * np.exp(-m * (2 * np.pi * k) ** alpha * dt)) <= eps ** 2
        assert np.max(np.abs(final.G.values)) <= 1e-12

    def test_burgers_reduction(self):
        # rho near 1 with small velocity: the u-equation follows the scalar
        # fractional-dissipation equation; oracle is an independent RK4 line
        n, alpha, t_end = 256, 0.8, 0.1
        grid = make_grid(n)
        amp = 1e-3
        u0 = DensityField(grid, amp * np.sin(2 * np.pi * grid.nodes))
        rho0 = DensityField(grid, np.ones(n))
        cfg = SolverConfig(alpha=alpha, n_points=n, t_end=t_end,
                           snapshot_interval=t_end, dt_fixed=1e-4)
        ares = run_alignment(rho0, u0, cfg)

        k = grid.k_half.astype(float)
        lap = (2 * np.pi * k) ** alpha
        dsym = 2j * np.pi * k
        dsym[-1] = 0.0

        def burgers_rhs(u):
            ux = np.fft.irfft(dsym * np.fft.rfft(u), n)
            return -u * ux - np.fft.irfft(lap * np.fft.rfft(u), n)

        u = u0.values.copy()
        dt = 1e-4
        steps = round(t_end / dt)
        for _ in range(steps):
            k1 = burgers_rhs(u)
            k2 = burgers_rhs(u + 0.5 * dt * k1)
            k3 = burgers_rhs(u + 0.5 * dt * k2)
            k4 = burgers_rhs(u + dt * k3)
            u = u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.max(np.abs(ares.final_state.u.values - u)) < 1e-6


class TestCPrime:
    def test_closed_form_n2_alpha1(self):
        # omega_1 = 2 and the radial integral is 1
        assert abs(c_prime(2, 1.0) - 2.0) < 1e-10

    @pytest.mark.parametrize("alpha", (0.3, 0.5, 1.0, 1.5, 1.9, 1.99))
    def test_positive_finite(self, alpha):
        v = c_prime(2, alpha)
        assert v > 0.0 and math.isfinite(v)

    def test_refinement_stability(self):
        # at alpha = 1, r = tan(theta) makes the radial integral elementary:
        # n = 3: omega_2 = 2 pi, int sin cos dtheta = 1/2;
        # n = 4: omega_3 = 4 pi, int sin^2 cos dtheta = 1/3
        assert abs(c_prime(3, 1.0) - math.pi) < 1e-14 * math.pi
        assert abs(c_prime(4, 1.0) - 4.0 * math.pi / 3.0) < 1e-14 * 4.0 * math.pi / 3.0

    def test_higher_dimension_computes(self):
        v = c_prime(3, 1.0)
        assert v > 0.0 and math.isfinite(v)

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            c_prime(1, 1.0)


class TestSlab:
    @pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
    def test_slab_reduction(self, alpha):
        rho0 = gen_cccf(make_grid(128))
        rep = slab_check_2d(rho0, alpha)
        assert rep.u2_max < 1e-12
        assert rep.u1_mismatch < 1e-12
        assert rep.spectral_gap < 1e-12
        assert rep.real_space_rel_err < 1e-3

    def test_strip_matches_square_grid(self):
        # slab data have no k2 != 0 modes, so an (n, 8) strip carries the
        # same velocity columns as the n x n grid
        rho0 = gen_cccf(make_grid(64))
        square = np.broadcast_to(rho0.values[:, None], (64, 64)).copy()
        u1_sq, u2_sq = slab_velocity_2d(square, 1.0)
        u1, u2 = slab_velocity_2d(square[:, :8].copy(), 1.0)
        assert u1.shape == u2.shape == (64, 8)
        assert np.max(np.abs(u1 - u1_sq[:, :8])) < 1e-14
        assert np.max(np.abs(u2)) < 1e-14
        assert spectral_gap_2d(u1, u2) < 1e-12


class TestSpectralGap:
    def test_shear_flow_vanishes(self):
        n = 64
        x2 = (-0.5 + np.arange(n) / n)[None, :]
        u1 = np.broadcast_to(np.sin(2 * np.pi * x2), (n, n)).copy()
        u2 = np.zeros((n, n))
        assert spectral_gap_2d(u1, u2) < 1e-12

    def test_generic_field_nonzero(self):
        n = 64
        x = -0.5 + np.arange(n) / n
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        u1 = np.sin(2 * np.pi * X1) * np.cos(2 * np.pi * X2)
        u2 = np.cos(2 * np.pi * X1) * np.sin(4 * np.pi * X2)
        gap = spectral_gap_2d(u1, u2)
        assert math.isfinite(gap) and gap > 1e-3

    def test_slab_velocity_gap_vanishes(self):
        rho0 = gen_cccf(make_grid(64))
        field2d = np.broadcast_to(rho0.values[:, None], (64, 64)).copy()
        u1, u2 = slab_velocity_2d(field2d, 1.0)
        assert spectral_gap_2d(u1, u2) < 1e-12
