"""Initial data generators and hypothesis validation."""

import numpy as np
import pytest

from fpmflow.grid import make_grid, spectral_derivative, DensityField
from fpmflow.initial_data import (InitialDataSpec, gen_cccf, gen_positive_control,
                                  gen_smooth_monotone, gen_vacuum_plateau,
                                  make_initial_data, smooth_transition,
                                  validate_hypotheses)
from fpmflow.operators import _gauss_cell


@pytest.fixture(scope="module")
def grid():
    return make_grid(1024)


class TestCccf:
    def test_endpoint_values(self, grid):
        rho = gen_cccf(grid)
        assert abs(rho.values[grid.node_index(0.0)]) < 1e-15
        assert abs(rho.values[grid.node_index(-0.5)] - 2.0) < 1e-15

    def test_mass(self, grid):
        assert abs(gen_cccf(grid).mean - 1.0) < 1e-12

    def test_hypotheses(self, grid):
        rep = validate_hypotheses(gen_cccf(grid))
        assert rep.h1 and rep.h2 and rep.h3
        assert abs(rep.m - 1.0) < 1e-12
        assert rep.x0 <= grid.dx + 1e-15


class TestVacuumPlateau:
    def test_values(self, grid):
        rho = gen_vacuum_plateau(grid, 0.15, 0.1, 2.0)
        assert rho.values[grid.node_index(0.0)] == 0.0
        assert abs(rho.values[grid.node_index(-0.5)] - 2.0) < 1e-12
        vacuum = np.abs(grid.nodes) <= 0.15
        assert np.max(np.abs(rho.values[vacuum])) == 0.0

    def test_gradient_nonnegative(self, grid):
        # absolute bound needs the ramp fully resolved (n >= 2048 at width 0.1)
        fine = make_grid(2048)
        rho = gen_vacuum_plateau(fine, 0.15, 0.1, 2.0)
        zeta = spectral_derivative(rho).values
        assert zeta[fine.nodes >= 0].min() >= -1e-10

    def test_spectrally_smooth(self, grid):
        # tail falls below 1e-12 inside the resolved band at n = 1024 and the
        # whole top third sits below it once the ramp is fully resolved
        rho = gen_vacuum_plateau(grid, 0.15, 0.1, 2.0)
        c = np.abs(rho.coefficients)
        assert c[grid.k_half >= int(0.8 * grid.n / 2)].max() < 1e-12
        fine = make_grid(2048)
        cf = np.abs(gen_vacuum_plateau(fine, 0.15, 0.1, 2.0).coefficients)
        assert cf[fine.k_half > fine.n // 3].max() < 1e-12

    def test_hypotheses_and_x0(self, grid):
        rep = validate_hypotheses(gen_vacuum_plateau(grid, 0.15, 0.1, 2.0))
        assert rep.h1 and rep.h2 and rep.h3
        # threshold detection lands inside the infinitely flat start of the ramp
        assert 0.15 <= rep.x0 <= 0.15 + 0.05

    def test_analytic_mass(self, grid):
        # vacuum 2 x0, two ramps of mean rho_max/2, plateau for the rest
        rho = gen_vacuum_plateau(grid, 0.15, 0.1, 2.0)
        assert abs(rho.mean - 2.0 * (1.0 - 2 * 0.15 - 0.1)) < 1e-10

    def test_rejects_overlapping_transition(self, grid):
        with pytest.raises(ValueError):
            gen_vacuum_plateau(grid, 0.45, 0.1, 2.0)


class TestSmoothMonotone:
    def test_hypotheses(self, grid):
        rep = validate_hypotheses(gen_smooth_monotone(grid, 2.0))
        assert rep.h1 and rep.h2 and rep.h3

    def test_mass_is_half_peak(self, grid):
        rho = gen_smooth_monotone(grid, 2.0)
        assert abs(rho.mean - 1.0) < 1e-12


class TestPositiveControl:
    def test_min_and_mass(self, grid):
        rho = gen_positive_control(grid, 1.1)
        assert abs(rho.values.min() - 0.1) < 1e-12
        assert abs(rho.mean - 1.1) < 1e-12

    def test_even(self, grid):
        rho = gen_positive_control(grid, 1.5)
        mirrored = np.roll(rho.values[::-1], 1)
        assert np.max(np.abs(rho.values - mirrored)) < 1e-12

    def test_h3_fails(self, grid):
        rep = validate_hypotheses(gen_positive_control(grid, 1.1))
        assert rep.h1 and rep.h2 and not rep.h3

    def test_rejects_small_offset(self, grid):
        with pytest.raises(ValueError):
            gen_positive_control(grid, 1.0)


class TestValidateHypotheses:
    def test_shifted_field_fails_h1(self, grid):
        rho = DensityField(grid, 1.0 - np.cos(2 * np.pi * (grid.nodes - 0.07)))
        rep = validate_hypotheses(rho)
        assert not rep.h1

    def test_negative_field_fails_h2(self, grid):
        rho = DensityField(grid, np.cos(2 * np.pi * grid.nodes))
        assert not validate_hypotheses(rho).h2


class TestSmoothTransition:
    def test_endpoints_and_monotone(self):
        t = np.linspace(-0.5, 1.5, 201)
        v = smooth_transition(t)
        assert v[0] == 0.0 and v[-1] == 1.0
        assert np.all(np.diff(v) >= 0.0)

    def test_symmetry(self):
        t = np.linspace(0.0, 1.0, 11)
        v = smooth_transition(t)
        assert np.max(np.abs(v + v[::-1] - 1.0)) < 1e-12

    def test_matches_panel_by_panel_sum(self):
        # shuffled, repeated and out-of-range points, in a 2-D array: each
        # maps to the cumulative 12-point Gauss sum over the panels between
        # the sorted distinct points, as one _gauss_cell call per panel
        rng = np.random.default_rng(7)
        t = rng.permutation(np.r_[np.linspace(-0.2, 1.2, 301), rng.uniform(0, 1, 99)])
        t = np.r_[t, t[:100]].reshape(4, 125)
        v = smooth_transition(t)

        def integrand(s):
            inner = s * (1.0 - s)
            return np.where(inner > 0.0, np.exp(-1.0 / np.maximum(inner, 1e-300)), 0.0)

        pts = np.unique(np.r_[0.0, 1.0, np.clip(t, 0.0, 1.0).ravel()])
        cumulative = np.cumsum([0.0] + [_gauss_cell(integrand, a, b, 12)
                                        for a, b in zip(pts[:-1], pts[1:])])
        want = dict(zip(pts, cumulative / cumulative[-1]))
        ref = np.array([want[x] for x in np.clip(t, 0.0, 1.0).ravel()]).reshape(t.shape)
        assert v.shape == t.shape
        assert np.max(np.abs(v - ref)) <= 1e-15
        order = np.argsort(t, axis=None)
        assert np.all(np.diff(v.ravel()[order]) >= 0.0)


class TestSpec:
    def test_dispatch(self, grid):
        for kind in ("cccf", "vacuum_plateau", "smooth_monotone", "positive_control"):
            rho = make_initial_data(grid, InitialDataSpec(kind=kind))
            assert np.all(np.isfinite(rho.values))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            InitialDataSpec(kind="unknown")

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            InitialDataSpec(kind="vacuum_plateau", x0=0.45, transition_width=0.1)

    @pytest.mark.parametrize("rho_max", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_rho_max(self, rho_max):
        with pytest.raises(ValueError, match="rho_max must be positive"):
            InitialDataSpec(kind="smooth_monotone", rho_max=rho_max)
