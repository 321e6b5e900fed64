"""Observables, the minimization oracle pair, bound-derivation links, and
run classification."""

import math

import numpy as np
import pytest

from fpmflow.grid import DensityField, make_grid
from fpmflow.initial_data import gen_cccf, gen_vacuum_plateau
from fpmflow.diagnostics import (DiagnosticsRecord, bathtub_brute, bathtub_min,
                                 classify_run, constants_for, observe,
                                 verify_enhanced_bound_derivation)
from fpmflow.operators import make_params
from fpmflow.solver import SolverConfig, run


@pytest.fixture(scope="module")
def params_one():
    return make_params(1.0)


def _state_for(rho, alpha=1.0):
    cfg = SolverConfig(alpha=alpha, n_points=rho.grid.n, t_end=1.0, max_steps=0)
    return run(rho, cfg).final_state


class TestObserve:
    def test_constant_density(self):
        grid = make_grid(256)
        rho = DensityField(grid, np.full(256, 1.3))
        cons = constants_for(1.0, rho)
        rec = observe(_state_for(rho), cons)
        assert rec.rho_min == rec.rho_max == 1.3
        assert rec.c1_norm == 0.0
        assert abs(rec.u_max_on_delta) < 1e-12

    def test_cccf_closed_forms(self):
        grid = make_grid(512)
        rho = gen_cccf(grid)
        cons = constants_for(1.0, rho)
        rec = observe(_state_for(rho), cons)
        assert abs(cons.delta - 1.0 / 6.0) < 1e-12 and abs(cons.A - 0.125) < 1e-15
        # u = -sin(2 pi x) on [0, 1/6] peaks at x = 0
        assert abs(rec.u_max_on_delta) < 1e-12
        # margin of -sin(2 pi x) + x/8 on the applicable set is at x = 0
        assert rec.enhanced_margin <= 1e-12
        assert abs(rec.mass - 1.0) < 1e-14
        assert abs(rec.c1_norm - 2 * np.pi) < 1e-8

    def test_empty_applicable_set_sentinel(self):
        grid = make_grid(256)
        rho = DensityField(grid, np.full(256, 2.0))
        cons = constants_for(1.0, rho)
        # constant 2.0 exceeds m/2 = 1.0 everywhere: sentinel margin
        rec = observe(_state_for(rho), cons)
        assert rec.enhanced_margin == -math.inf

    def test_record_row_order(self):
        grid = make_grid(256)
        rho = gen_cccf(grid)
        rec = observe(_state_for(rho), constants_for(1.0, rho))
        row = rec.as_row()
        assert row[0] == rec.t and row[-1] == rec.dt
        assert len(row) == 10


class TestBathtub:
    def test_flat_function(self):
        xs = np.linspace(0.0, 1.0, 101)
        assert abs(bathtub_min(xs, np.ones(101), 1.0, 0.5) - 0.5) < 1e-12

    def test_linear_function(self):
        xs = np.linspace(0.0, 1.0, 1001)
        got = bathtub_min(xs, 1.0 - xs, 2.0, 1.0)
        assert abs(got - 0.25) < 1e-9

    def test_brute_full_occupancy_limit(self):
        xs = np.linspace(0.0, 1.0, 101)
        fs = 2.0 - xs
        lam = 0.999 * 1.0  # just under M (b - a)
        got = bathtub_brute(xs, fs, 1.0, lam, n_cells=20_000)
        full = np.trapezoid(fs, xs)
        assert got < full
        assert abs(got - full) < 0.01 * full

    def test_brute_is_right_aligned_for_decreasing_f(self):
        xs = np.linspace(0.0, 1.0, 501)
        fs = np.exp(-3 * xs)
        M, lam = 1.5, 0.6
        brute = bathtub_brute(xs, fs, M, lam, n_cells=50_000)
        analytic = bathtub_min(xs, fs, M, lam)
        assert abs(brute - analytic) < 1e-4 * analytic

    def test_refinement_convergence(self):
        xs = np.linspace(0.0, 1.0, 2001)
        fs = 1.0 / (1.0 + xs) ** 2
        M, lam = 1.0, 0.4
        exact = bathtub_min(xs, fs, M, lam)
        errs = [abs(bathtub_brute(xs, fs, M, lam, n_cells=n) - exact)
                for n in (1_000, 10_000, 100_000)]
        assert errs[2] < errs[0]
        assert errs[2] < 1e-6

    def test_rejects_excess_budget(self):
        xs = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="budget"):
            bathtub_min(xs, np.ones(11), 1.0, 1.5)

    def test_rejects_non_monotone(self):
        xs = np.linspace(0.0, 1.0, 11)
        fs = np.ones(11)
        fs[5] = 2.0
        with pytest.raises(ValueError, match="nonincreasing"):
            bathtub_min(xs, fs, 1.0, 0.5)


class TestEnhancedBoundLinks:
    def test_cccf_all_links(self, params_one):
        rho = gen_cccf(make_grid(512))
        report = verify_enhanced_bound_derivation(rho, params_one, 0.05,
                                                  m=1.0, rho_max=2.0)
        assert report.applicable and report.all_ok
        assert report.mass_integral >= 0.25
        assert report.III >= 0.125 * 0.05

    def test_gate_not_applicable(self, params_one):
        rho = gen_cccf(make_grid(512))
        # rho(0.4) = 1 - cos(0.8 pi) > m/2 and x > delta
        report = verify_enhanced_bound_derivation(rho, params_one, 0.4,
                                                  m=1.0, rho_max=2.0)
        assert not report.applicable

    def test_vacuum_point_passes(self, params_one):
        rho = gen_vacuum_plateau(make_grid(512), 0.1, 0.15, 2.0)
        report = verify_enhanced_bound_derivation(rho, params_one, 0.05,
                                                  m=rho.mean, rho_max=2.0)
        assert report.applicable and report.all_ok


def _fake_records(series):
    return [DiagnosticsRecord(t=float(i), mass=1.0, rho_min=0.0, rho_max=2.0,
                              zeta_min_half=0.0, c1_norm=float(v),
                              u_max_on_delta=0.0, enhanced_margin=0.0,
                              tail_fraction=0.0, dt=1e-3)
            for i, v in enumerate(series)]


class TestClassifyRun:
    def test_growth_series(self):
        series = [1.0, 0.95, 0.9] + list(np.geomspace(0.9, 8.0, 20))
        out = classify_run(_fake_records(series))
        assert out["verdict"] == "c1_growth"
        assert out["growth_factor"] >= 5.0

    def test_bounded_series(self):
        series = 1.0 + 0.3 * np.sin(np.linspace(0, 6, 30))
        out = classify_run(_fake_records(series))
        assert out["verdict"] == "c1_bounded"

    def test_constant_zero_series(self):
        out = classify_run(_fake_records([0.0] * 12))
        assert out["verdict"] == "c1_bounded"
        assert out["growth_factor"] == 1.0

    def test_non_monotone_growth_is_inconclusive(self):
        series = [1.0] + list(np.geomspace(1.0, 6.0, 10))
        series = series + [3.0, 7.0]  # 50% crash inside the rise
        out = classify_run(_fake_records(series))
        assert out["verdict"] == "inconclusive"

    def test_deterministic(self):
        series = list(np.geomspace(1.0, 9.0, 15))
        recs = _fake_records(series)
        assert classify_run(recs) == classify_run(recs)

    def test_needs_ten_records(self):
        with pytest.raises(ValueError):
            classify_run(_fake_records([1.0] * 9))
