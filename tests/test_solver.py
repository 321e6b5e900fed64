"""Time integration: flux, step control, conservation, stop logic."""

import numpy as np
import pytest

from fpmflow.extensions import run_alignment
from fpmflow.grid import DensityField, make_grid
from fpmflow.initial_data import gen_cccf, gen_positive_control
from fpmflow.operators import velocity_spectral
from fpmflow.solver import (SolverConfig, initial_state, rhs, run, stable_dt,
                            step_ssprk3, tail_fraction)


@pytest.fixture(scope="module")
def grid():
    return make_grid(256)


class TestRhs:
    def test_constant_density(self, grid):
        out = rhs(DensityField(grid, np.full(grid.n, 1.3)), alpha=1.0)
        assert np.max(np.abs(out.values)) < 1e-13

    def test_mean_exactly_zero(self, grid):
        rng = np.random.default_rng(0)
        rho = DensityField(grid, 1.5 + 0.3 * np.cos(2 * np.pi * grid.nodes)
                           + 0.01 * rng.normal(size=grid.n))
        out = rhs(rho, alpha=0.7)
        assert abs(out.mean) < 1e-14

    def test_cccf_alpha_one_closed_form(self, grid):
        # u = -sin(2 pi x); flux rho u = -sin + sin cos; -d_x(rho u) closed form
        rho = gen_cccf(grid)
        out = rhs(rho, alpha=1.0)
        x = grid.nodes
        expected = 2 * np.pi * np.cos(2 * np.pi * x) - 2 * np.pi * np.cos(4 * np.pi * x)
        assert np.max(np.abs(out.values - expected)) < 1e-8


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("snapshot_interval", 0.0), ("snapshot_interval", -1.0),
        ("max_steps", -5), ("dt_fixed", 0.0), ("dt_fixed", -1e-3),
        ("tail_threshold", 0.0)])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(alpha=1.0, n_points=256, t_end=1.0, **{field: value})


class TestStableDt:
    def test_dissipative_limit_formula(self):
        grid = make_grid(256)
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=1.0)
        state = initial_state(DensityField(grid, np.ones(256)), cfg)
        dt = stable_dt(state, cfg)
        assert abs(dt - 0.4 / (2 * np.pi * 85)) < 1e-15

    def test_transport_scaling(self):
        # fabricate a transport-dominated state: tiny density, large velocity
        grid = make_grid(256)
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=1.0)
        rho = DensityField(grid, 1e-6 * (1.0 + 0.5 * np.cos(2 * np.pi * grid.nodes)))
        u1 = DensityField(grid, np.sin(2 * np.pi * grid.nodes))
        u2 = DensityField(grid, 2.0 * np.sin(2 * np.pi * grid.nodes))
        s1 = initial_state(rho, cfg)
        object.__setattr__(s1, "u", u1)
        s2 = initial_state(rho, cfg)
        object.__setattr__(s2, "u", u2)
        dt1, dt2 = stable_dt(s1, cfg), stable_dt(s2, cfg)
        assert dt1 > 0 and dt2 > 0
        assert abs(dt1 / dt2 - 2.0) < 1e-6

    def test_positive(self, grid):
        cfg = SolverConfig(alpha=0.5, n_points=256, t_end=1.0)
        state = initial_state(gen_cccf(grid), cfg)
        assert stable_dt(state, cfg) > 0


class TestStep:
    def test_constant_is_fixed_point(self, grid):
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=1.0)
        state = initial_state(DensityField(grid, np.full(grid.n, 2.0)), cfg)
        new = step_ssprk3(state, 1e-3, cfg)
        assert np.max(np.abs(new.rho.values - 2.0)) < 1e-14
        assert new.t == 1e-3 and new.step_count == 1

    def test_mass_drift_thousand_steps(self, grid):
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=1.0)
        state = initial_state(gen_positive_control(grid, 1.5), cfg)
        m0 = state.rho.mean
        dt = 0.5 * stable_dt(state, cfg)
        for _ in range(1000):
            state = step_ssprk3(state, dt, cfg)
        assert abs(state.rho.mean - m0) < 1e-11

    def test_richardson_order_three(self, grid):
        rho0 = gen_positive_control(grid, 1.5)
        T = 0.05
        final = {}
        for div in (1, 2, 4):
            cfg = SolverConfig(alpha=1.0, n_points=256, t_end=T,
                               dt_fixed=1e-3 / div, snapshot_interval=T)
            final[div] = run(rho0, cfg).final_state.rho.values
        d1 = np.max(np.abs(final[1] - final[2]))
        d2 = np.max(np.abs(final[2] - final[4]))
        order = np.log2(d1 / d2)
        assert abs(order - 3.0) <= 0.2


class TestRun:
    def test_positive_control_reaches_t_end(self, grid):
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=0.5,
                           snapshot_interval=0.05)
        res = run(gen_positive_control(grid, 1.5), cfg)
        assert res.stop_reason == "t_end"
        assert abs(res.final_state.t - 0.5) < 1e-12

    def test_constant_data_stays_constant(self, grid):
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=0.2,
                           snapshot_interval=0.05)
        res = run(DensityField(grid, np.full(grid.n, 1.0)), cfg)
        assert res.stop_reason == "t_end"
        assert np.max(np.abs(res.final_state.rho.values - 1.0)) < 1e-13

    def test_cccf_stops_under_resolved_with_gradient_growth(self):
        # growth reachable before the stop scales with resolution; n = 1024
        # with a classification-grade threshold passes 5x
        grid = make_grid(1024)
        cfg = SolverConfig(alpha=1.0, n_points=1024, t_end=5.0,
                           snapshot_interval=2e-3, tail_threshold=3e-3)
        res = run(gen_cccf(grid), cfg)
        assert res.stop_reason == "under_resolved"
        assert res.final_state.under_resolved
        from fpmflow.grid import spectral_derivative
        z0 = 2 * np.pi
        z_end = np.max(np.abs(spectral_derivative(res.states[-1].rho).values))
        assert z_end >= 5.0 * z0

    def test_max_steps_stop(self, grid):
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=10.0, max_steps=5,
                           snapshot_interval=10.0)
        res = run(gen_positive_control(grid, 1.5), cfg)
        assert res.stop_reason == "max_steps"
        assert res.final_state.step_count == 5

    def test_grid_mismatch_rejected(self, grid):
        cfg = SolverConfig(alpha=1.0, n_points=512, t_end=0.1)
        with pytest.raises(ValueError, match="grid"):
            run(gen_cccf(grid), cfg)

    def test_nan_stop_reason(self, grid):
        # CFL-violating fixed step with the trust monitor disabled blows up;
        # the run reports nan and keeps the last finite state
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=100.0, dt_fixed=0.5,
                           snapshot_interval=100.0, tail_threshold=10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            res = run(gen_cccf(grid), cfg)
        assert res.stop_reason == "nan"
        assert np.all(np.isfinite(res.final_state.rho.values))

    def test_symmetry_preserved(self, grid):
        cfg = SolverConfig(alpha=0.5, n_points=256, t_end=0.2,
                           snapshot_interval=0.05)
        rho0 = gen_cccf(grid)
        res = run(rho0, cfg)
        v = res.final_state.rho.values
        mirrored = np.roll(v[::-1], 1)
        assert np.max(np.abs(v - mirrored)) < 1e-9
        # the alignment system keeps rho even and u odd
        final = run_alignment(rho0, velocity_spectral(rho0, 0.5), cfg).final_state
        rho, u = final.rho.values, final.u.values
        assert np.max(np.abs(rho - np.roll(rho[::-1], 1))) < 1e-9
        assert np.max(np.abs(u + np.roll(u[::-1], 1))) < 1e-9

    def test_spatial_refinement_agreement(self):
        # resolved run: doubling the grid changes the solution below 1e-6
        finals = {}
        for n in (256, 512):
            grid = make_grid(n)
            cfg = SolverConfig(alpha=1.0, n_points=n, t_end=0.1,
                               snapshot_interval=0.1)
            res = run(gen_positive_control(grid, 1.5), cfg)
            assert res.stop_reason == "t_end"
            finals[n] = res.final_state.rho
        coarse = finals[256].values
        fine = finals[512].values[::2]
        assert np.max(np.abs(coarse - fine)) < 1e-6

    def test_snapshot_cadence(self, grid):
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=0.2,
                           snapshot_interval=0.05)
        res = run(gen_positive_control(grid, 1.5), cfg)
        times = [s.t for s in res.states]
        assert times[0] == 0.0
        assert abs(times[-1] - 0.2) < 1e-12
        assert len(times) == 5


# stop reason -> (initial data, config overrides); snapshots every 0.01 unless
# the interval exceeds the run
STOPS = {
    "t_end": (gen_positive_control, dict(t_end=0.02)),
    "max_steps": (gen_positive_control, dict(t_end=10.0, max_steps=5,
                                             snapshot_interval=10.0)),
    "under_resolved": (gen_cccf, dict(t_end=5.0)),
    # CFL-violating fixed step with the trust monitor disabled
    "nan": (gen_cccf, dict(t_end=100.0, dt_fixed=0.5, snapshot_interval=100.0,
                           tail_threshold=10.0)),
}


class TestStopRules:
    @pytest.mark.parametrize("stop", STOPS)
    @pytest.mark.parametrize("system", ("run", "run_alignment"))
    def test_stop(self, system, stop):
        gen, overrides = STOPS[stop]
        grid = make_grid(128)
        rho0 = gen(grid)
        cfg = SolverConfig(alpha=1.0, n_points=128,
                           **{"snapshot_interval": 0.01, **overrides})
        with np.errstate(over="ignore", invalid="ignore"):
            if system == "run":
                res = run(rho0, cfg)
            else:
                res = run_alignment(rho0, velocity_spectral(rho0, 1.0), cfg)
        assert res.stop_reason == stop
        final = res.final_state
        assert np.all(np.isfinite(final.rho.values))
        assert np.all(np.isfinite(final.u.values))
        times = [s.t for s in res.states]
        if stop == "nan":
            # the last finite state is the result, not a snapshot
            assert times == [0.0]
            return
        assert times[-1] == final.t
        if stop == "t_end":
            assert np.allclose(times, [0.0, 0.01, 0.02], rtol=0, atol=1e-12)
        elif stop == "max_steps":
            assert times[0] == 0.0 and len(times) == 2 and final.t > 0.0
        else:
            assert final.t < cfg.t_end and len(times) >= 2
            assert np.allclose(times[:-1], 0.01 * np.arange(len(times) - 1),
                               rtol=0, atol=1e-12)
            assert times[-2] < final.t


# dt, t_end and snapshot interval are powers of two, so fixed-step times add
# up exactly: 16 steps and 5 snapshots
_FIXED = dict(t_end=2.0 ** -6, dt_fixed=2.0 ** -10, snapshot_interval=2.0 ** -8)


@pytest.fixture(scope="module")
def skewed():
    """Asymmetric positive data on 128 points and its induced velocity."""
    grid = make_grid(128)
    x = grid.nodes
    rho0 = DensityField(grid, 1.5 + 0.3 * np.cos(2 * np.pi * x)
                        + 0.2 * np.sin(4 * np.pi * x))
    return rho0, velocity_spectral(rho0, 1.0)


def _fixed_step_run(system, rho0, u0, scale=1.0):
    """Fixed-step run of one system; scale divides every time in _FIXED."""
    cfg = SolverConfig(alpha=1.0, n_points=128,
                       **{key: value / scale for key, value in _FIXED.items()})
    return run(rho0, cfg) if system == "run" else run_alignment(rho0, u0, cfg)


@pytest.mark.parametrize("system", ("run", "run_alignment"))
class TestExactSymmetries:
    def test_amplitude_scaling(self, system, skewed):
        # u is linear in rho, so 2 rho0 evolves as 2 rho(2t); scaling by 2 is
        # exact in floating point, so the runs agree bit for bit
        rho0, u0 = skewed
        grid = rho0.grid
        a = _fixed_step_run(system, rho0, u0).final_state
        b = _fixed_step_run(system, DensityField(grid, 2 * rho0.values),
                            DensityField(grid, 2 * u0.values), scale=2.0).final_state
        assert np.array_equal(b.rho.values, 2 * a.rho.values)
        assert np.array_equal(b.u.values, 2 * a.u.values)

    def test_translation_by_grid_cells(self, system, skewed):
        rho0, u0 = skewed

        def shift(f):
            return DensityField(f.grid, np.roll(f.values, 37))

        a = _fixed_step_run(system, rho0, u0).final_state
        b = _fixed_step_run(system, shift(rho0), shift(u0)).final_state
        assert np.max(np.abs(b.rho.values - shift(a.rho).values)) <= 1e-14
        assert np.max(np.abs(b.u.values - shift(a.u).values)) <= 1e-14

    def test_fft_budget(self, system, skewed, monkeypatch):
        # two batched transforms per stage: at most 6 numpy FFT calls per
        # step, plus one per snapshot and one at the stop
        calls = []
        for name in ("rfft", "irfft"):
            def counted(*args, _fft=getattr(np.fft, name), **kwargs):
                calls.append(_fft)
                return _fft(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        res = _fixed_step_run(system, *skewed)
        assert len(res.states) == 5
        assert len(calls) <= 6 * 16 + len(res.states) + 1


class TestTelemetry:
    def test_dissipative_limit_dominates_stiff_run(self, grid):
        # positive data at alpha = 1.5: the dissipative limit binds
        cfg = SolverConfig(alpha=1.5, n_points=256, t_end=0.005,
                           snapshot_interval=0.001)
        res = run(gen_positive_control(grid, 1.5), cfg)
        tel = res.telemetry
        limits = tel["step_limits"]
        assert tel["steps"] == res.final_state.step_count == sum(limits.values())
        assert limits["dissipative"] > 0.9 * tel["steps"]
        assert limits["transport"] == limits["fixed"] == 0
        assert 1 <= limits["snapshot"] + limits["t_end"] <= 5
        assert 0.0 < tel["dt_min"] <= tel["dt_max"]

    @pytest.mark.parametrize("system", ("run", "run_alignment"))
    def test_fixed_step_counts(self, system, skewed):
        res = _fixed_step_run(system, *skewed)
        assert res.telemetry == {"steps": 16, "dt_min": 2.0 ** -10, "dt_max": 2.0 ** -10,
                                 "step_limits": {"transport": 0, "dissipative": 0,
                                                 "snapshot": 0, "t_end": 0, "fixed": 16}}


class TestTailFraction:
    def test_smooth_field_tiny(self, grid):
        assert tail_fraction(gen_cccf(grid)) < 1e-14

    def test_rough_field_large(self, grid):
        rng = np.random.default_rng(2)
        rough = DensityField(grid, rng.normal(size=grid.n))
        assert tail_fraction(rough) > 1e-2
