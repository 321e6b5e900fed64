"""Time integration: flux, step control, conservation, stop logic."""

import numpy as np
import pytest

from fpmflow.extensions import run_alignment
from fpmflow.grid import DensityField, make_grid
from fpmflow.initial_data import gen_cccf, gen_positive_control
from fpmflow.operators import velocity_spectral
from fpmflow.solver import SolverConfig, _Workspace, run


@pytest.fixture(scope="module")
def grid():
    return make_grid(256)


def _initial_state(rho, alpha=1.0):
    """The t = 0 state of a run: rho, its velocity and its tail fraction."""
    cfg = SolverConfig(alpha=alpha, n_points=rho.grid.n, t_end=1.0, max_steps=0)
    return run(rho, cfg).final_state


def _first_dt(rho, alpha):
    """The step size a run picks for its first step."""
    cfg = SolverConfig(alpha=alpha, n_points=rho.grid.n, t_end=1.0, max_steps=1)
    return run(rho, cfg).telemetry["dt_min"]


def _zero_mean_wave(grid):
    """Sign-changing data of mean zero, where the integrating factor is 1."""
    x = grid.nodes
    return DensityField(grid, np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x))


def rhs(rho, alpha):
    """Flux divergence -d_x(rho u) of the continuity flow, dealiased at 2/3."""
    f_hat = _Workspace(rho.grid, alpha, 2.0 / 3.0).continuity_rates(np.fft.rfft(rho.values))[0]
    return DensityField(rho.grid, np.fft.irfft(f_hat, rho.grid.n))


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
        # the mean's dissipation is integrated exactly, so the limit is
        # measured from the mean: max|rho - 1| = 0.5
        grid = make_grid(256)
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=1.0, max_steps=1)
        rho = DensityField(grid, 1.0 + 0.5 * np.cos(2 * np.pi * grid.nodes))
        tel = run(rho, cfg).telemetry
        assert tel["step_limits"]["dissipative"] == 1
        assert abs(tel["dt_min"] - 0.4 / (0.5 * 2 * np.pi * 85)) < 1e-15

    def test_transport_scaling(self):
        # fabricate a transport-dominated state: tiny density, large velocity
        grid = make_grid(256)
        ws = _Workspace(grid, 1.0, 2.0 / 3.0)
        rho = 1e-6 * (1.0 + 0.5 * np.cos(2 * np.pi * grid.nodes))
        u1 = np.sin(2 * np.pi * grid.nodes)
        (dt1, limit1), (dt2, limit2) = (ws.stable_dt(rho, u, 0.4) for u in (u1, 2.0 * u1))
        assert limit1 == limit2 == "transport"
        assert dt1 > 0 and dt2 > 0
        assert abs(dt1 / dt2 - 2.0) < 1e-6

    def test_positive(self, grid):
        assert _first_dt(gen_cccf(grid), 0.5) > 0


class TestStep:
    def test_constant_is_fixed_point(self, grid):
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=1e-3, dt_fixed=1e-3,
                           snapshot_interval=1e-3)
        new = run(DensityField(grid, np.full(grid.n, 2.0)), cfg).final_state
        assert np.max(np.abs(new.rho.values - 2.0)) < 1e-14
        assert new.t == 1e-3 and new.step_count == 1

    def test_mass_drift_thousand_steps(self, grid):
        rho0 = gen_positive_control(grid, 1.5)
        dt = 2.0 ** -13  # a power of two, so 1000 steps land on t_end exactly
        assert dt <= 0.5 * _first_dt(rho0, 1.0)
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=1000 * dt, dt_fixed=dt,
                           snapshot_interval=1000 * dt)
        final = run(rho0, cfg).final_state
        assert final.step_count == 1000
        assert abs(final.rho.mean - rho0.mean) < 1e-11

    def test_mean_dissipation_is_exact(self, grid):
        # one step ten times past the explicit dissipative limit: a small
        # mode near k_max on a constant decays by exactly exp(-m (2 pi k)^a dt)
        alpha, m, k, eps = 1.5, 1.2, 80, 1e-6
        dt = 10.0 / (m * (2 * np.pi * 85) ** alpha)
        rho0 = DensityField(grid, m + eps * np.cos(2 * np.pi * k * grid.nodes))
        cfg = SolverConfig(alpha=alpha, n_points=256, t_end=dt, dt_fixed=dt,
                           snapshot_interval=dt, tail_threshold=1.0)
        final = run(rho0, cfg).final_state
        assert final.step_count == 1
        amplitude = 2 * np.fft.rfft(final.rho.values)[k].real / grid.n
        assert abs(amplitude - eps * np.exp(-m * (2 * np.pi * k) ** alpha * dt)) <= eps ** 2

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
            res = run(_zero_mean_wave(grid), cfg)
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


# stop reason -> (initial data, config overrides); snapshots every 0.01
# unless the interval exceeds the run
STOPS = {
    "t_end": (gen_positive_control, dict(t_end=0.02)),
    "max_steps": (gen_positive_control, dict(t_end=10.0, max_steps=5,
                                             snapshot_interval=10.0)),
    "under_resolved": (gen_cccf, dict(t_end=5.0)),
    # CFL-violating fixed step with the trust monitor disabled; both systems
    # integrate the mean's dissipation exactly and relax cccf to its mean at
    # any step, so they get zero-mean data, where the factor is 1
    "nan": (_zero_mean_wave, dict(t_end=100.0, dt_fixed=0.5, snapshot_interval=100.0,
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
        assert res.telemetry["fft_calls"] == len(calls)


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
        # 17 stage-1 rates calls (one per step and one at the stop) and two
        # more per step, each one irfft and one rfft, after the first rfft
        res = _fixed_step_run(system, *skewed)
        assert res.telemetry == {"steps": 16, "dt_min": 2.0 ** -10, "dt_max": 2.0 ** -10,
                                 "step_limits": {"transport": 0, "dissipative": 0,
                                                 "snapshot": 0, "t_end": 0, "fixed": 16},
                                 "fft_calls": 1 + 2 * (17 + 2 * 16)}


class TestTailFraction:
    def test_smooth_field_tiny(self, grid):
        assert _initial_state(gen_cccf(grid)).tail_fraction < 1e-14

    def test_rough_field_large(self, grid):
        rng = np.random.default_rng(2)
        rough = DensityField(grid, rng.normal(size=grid.n))
        assert _initial_state(rough).tail_fraction > 1e-2


class TestOneMultiplierPath:
    @pytest.mark.parametrize("n", (96, 256))
    @pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
    def test_library_velocity_is_run_velocity(self, n, alpha):
        # the library operator and the stepper apply the velocity symbol
        # the same way, so the t = 0 velocity agrees bit for bit
        grid = make_grid(n)
        x = grid.nodes
        rng = np.random.default_rng(n)
        rho0 = DensityField(grid, 1.5 + 0.3 * np.cos(2 * np.pi * x)
                            + 0.2 * np.sin(4 * np.pi * x) + 0.01 * rng.normal(size=n))
        u_run = _initial_state(rho0, alpha).u.values
        assert np.array_equal(velocity_spectral(rho0, alpha).values, u_run)

    @pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
    def test_no_nyquist_entry_at_full_band(self, alpha):
        # at dealias fraction 1 the kept band includes the Nyquist mode, and
        # the stepper's symbols are used there before any irfft drops it
        ws = _Workspace(make_grid(64), alpha, 1.0)
        assert ws.mask[-1]
        assert ws.deriv_sym[-1] == 0.0
        assert ws.lin[-1] == 0.0
        assert ws.shear[-1] == 0.0
