"""Time integration: flux, step control, conservation, stop logic."""

import numpy as np
import pytest

from fpmflow import extensions
from fpmflow.extensions import run_alignment
from fpmflow.grid import DensityField, make_grid
from fpmflow.initial_data import gen_cccf, gen_positive_control, gen_vacuum_plateau
from fpmflow.operators import velocity_spectral
from fpmflow.solver import SolverConfig, _lawson_rk4, _Workspace, run


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
    """Sign-changing data of mean zero and negative midrange, on which the
    integrating factors do not damp."""
    x = grid.nodes
    return DensityField(grid, np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x))


def rhs(rho, alpha):
    """Flux divergence -d_x(rho u) of the continuity flow, dealiased at 2/3."""
    f_hat = _Workspace(rho.grid, alpha).rates(np.fft.rfft(rho.values))[0]
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
        ("tail_threshold", 0.0), ("t_end", np.nan), ("t_end", np.inf),
        ("cfl", 0.0), ("cfl", 1.5)])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{"alpha": 1.0, "n_points": 256, "t_end": 1.0, field: value})


class TestStableDt:
    def test_dissipative_limit_formula(self):
        # the midrange's dissipation is integrated exactly, so the limit is
        # measured from it: max|rho - 1| = 0.5, and the limit is
        # 2 / (max|rho - c| (2 pi k_max)^alpha); the first step is that cap
        # evened out over the first snapshot interval, t_end / 200 = 0.005
        grid = make_grid(256)
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=1.0, max_steps=1)
        rho = DensityField(grid, 1.0 + 0.5 * np.cos(2 * np.pi * grid.nodes))
        ws = _Workspace(grid, 1.0)
        u = velocity_spectral(rho, 1.0).values
        caps, _, _ = ws.step_limits(np.stack((rho.values, u)), 0.4, 0.0)
        cap = 0.4 * 2 / (0.5 * 2 * np.pi * 85)
        assert abs(caps["dissipative"] - cap) < 1e-15
        tel = run(rho, cfg).telemetry
        assert tel["step_limits"]["dissipative"] == 1
        assert tel["dt_min"] == cfg.snapshot_dt / np.ceil(cfg.snapshot_dt / cap) == 0.0025

    def test_floor_is_measured_from_the_midrange(self, grid):
        # the center c = (max + min) / 2 (to single precision), here not
        # the mean, makes max|rho - c| = (max - min) / 2 least
        ws = _Workspace(grid, 1.0)
        x = grid.nodes
        rho = 1.0 + 0.5 * np.cos(2 * np.pi * x) + 0.25 * np.cos(4 * np.pi * x)
        caps, center, _ = ws.step_limits(np.stack((rho, np.zeros(grid.n))), 0.4, 0.0)
        lo, hi = rho.min(), rho.max()
        assert center == pytest.approx(0.5 * (hi + lo), rel=1e-7)
        assert abs(center - rho.mean()) > 0.1
        assert caps["dissipative"] == pytest.approx(
            0.4 * 2 / (0.5 * (hi - lo) * (2 * np.pi * 85)), rel=1e-7)

    def test_transport_scaling(self):
        # fabricate a transport-dominated state: tiny density, large velocity
        grid = make_grid(256)
        ws = _Workspace(grid, 1.0)
        rho = 1e-6 * (1.0 + 0.5 * np.cos(2 * np.pi * grid.nodes))
        u1 = np.sin(2 * np.pi * grid.nodes)
        (caps1, _, _), (caps2, _, _) = (ws.step_limits(np.stack((rho, u)), 0.4, 0.0)
                                        for u in (u1, 2.0 * u1))
        for caps in (caps1, caps2):
            assert 0 < caps["transport"] < caps["dissipative"]
        assert abs(caps1["transport"] / caps2["transport"] - 2.0) < 1e-6
        # RK4's imaginary-axis interval 2 sqrt 2 over the largest advection
        # rate of the kept band, 2 pi k_max max|u|, k_max = 85
        assert caps1["transport"] == pytest.approx(
            0.4 * 2 * np.sqrt(2) / (2 * np.pi * 85 * np.abs(u1).max()), rel=1e-11)

    def test_transport_limit_is_stable_at_cfl_one(self):
        # at cfl = 1 the transport limit sits on RK4's stability boundary;
        # the vacuum-plateau data have no estimate, so every step is the
        # floor, and the run still reaches t_end with a tail near 1e-8
        grid = make_grid(1024)
        cfg = SolverConfig(alpha=1.0, n_points=1024, t_end=0.0076, snapshot_interval=0.0076,
                           cfl=1.0, tail_threshold=1.0)
        res = run(gen_vacuum_plateau(grid), cfg)
        tel = res.telemetry
        assert res.stop_reason == "t_end" and res.final_state.t == pytest.approx(cfg.t_end)
        assert tel["rejected"] == 0 and tel["step_limits"]["transport"] >= 1
        assert tel["tail_max"] <= 2e-8

    def test_transport_limit_accuracy(self):
        # on vacuum data the floor limits accuracy: at the default cfl the
        # snapshots stay within 5e-7 of a run at cfl 0.05 (2.1e-7 measured)
        grid = make_grid(1024)
        rho0 = gen_vacuum_plateau(grid)
        runs = [run(rho0, SolverConfig(alpha=1.0, n_points=1024, t_end=0.0076,
                                       snapshot_interval=2e-4, tail_threshold=1.0, cfl=cfl))
                for cfl in (0.4, 0.05)]
        assert [r.stop_reason for r in runs] == ["t_end", "t_end"]
        assert len(runs[0].states) == len(runs[1].states) == 39
        gap = max(np.max(np.abs(s.rho.values - r.rho.values))
                  for s, r in zip(*(r.states for r in runs)))
        assert gap <= 5e-7

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

    def test_richardson_order_four(self, grid):
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
        assert abs(order - 4.0) <= 0.2


@pytest.mark.parametrize("alpha", (0.5, 1.5))
@pytest.mark.parametrize("system", (_Workspace, extensions._Alignment))
class TestLinearPart:
    """A workspace's remainder and flow must describe one linear part A,
    or the Lawson step is silently inconsistent."""

    @staticmethod
    def _linear_part(system, alpha):
        ws = system(make_grid(64), alpha)
        rng = np.random.default_rng(11)
        shape = (2, 33) if system is extensions._Alignment else (33,)
        return ws, 1.3 * ws.lin, rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def test_remainder_subtracts_the_flow_generator(self, system, alpha):
        # the central difference of the flow at 0 is A y, which the
        # remainder of the tendency A y leaves at the difference's error
        ws, lam, y = self._linear_part(system, alpha)
        h = 1e-5 / np.abs(lam).max()
        a_y = (ws.flow(lam, h)(y.copy()) - ws.flow(lam, -h)(y.copy())) / (2 * h)
        residual = ws.remainder(y, a_y.copy(), lam)
        assert np.abs(residual).max() <= 1e-8 * np.abs(a_y).max()

    def test_flow_is_a_group(self, system, alpha):
        # two flows over h are the flow over 2h; the flow acts in place and
        # returns its argument, and on the pair leaves row 0 (w) bit for bit
        ws, lam, y = self._linear_part(system, alpha)
        h = 1e-3
        kept, twice = y.copy(), y.copy()
        assert ws.flow(lam, h)(ws.flow(lam, h)(twice)) is twice
        once = ws.flow(lam, 2 * h)(y)
        assert once is y
        assert np.abs(twice - once).max() <= 1e-14 * np.abs(once).max()
        if system is extensions._Alignment:
            assert np.array_equal(twice[0], kept[0]) and np.array_equal(once[0], kept[0])

    def test_step_keeps_its_inputs_for_a_retry(self, system, alpha):
        # integrate retries a rejected step from y_hat and n0 and forms its
        # estimate from err: the step leaves y_hat and n0 bit for bit and
        # ends with err holding N3, the stage-4 remainder
        ws, lam, _ = self._linear_part(system, alpha)
        rng = np.random.default_rng(14)
        shape = (2, 64) if system is extensions._Alignment else 64
        y_hat = ws.to_state(1.0 + 0.1 * rng.normal(size=shape))
        n0 = ws.remainder(y_hat, ws.rates(y_hat)[0], lam)
        kept_y, kept_n0 = y_hat.copy(), n0.copy()
        dt, err = 1e-3, np.full_like(y_hat, np.nan)
        _lawson_rk4(y_hat, n0, ws, dt, lam, err)
        assert np.array_equal(y_hat, kept_y) and np.array_equal(n0, kept_n0)

        def flow(v):  # E, on a copy
            return ws.flow(lam, dt / 2)(v.copy())

        def remainder(v):
            return ws.remainder(v, ws.rates(v)[0], lam)
        n1 = remainder(flow(y_hat + dt / 2 * n0))
        n2 = remainder(flow(y_hat) + dt / 2 * n1)
        assert np.array_equal(err, remainder(flow(flow(y_hat) + dt * n2)))


@pytest.mark.parametrize("system", (_Workspace, extensions._Alignment))
def test_fields_of_the_state_are_the_transforms(system):
    # the continuity flow steps the transforms themselves; the pair steps
    # (w, u_hat), whose fields come back to a few ulp of the largest entry
    # (the shear reaches about 11 at alpha = 0.5, n = 64)
    rng = np.random.default_rng(13)
    for alpha in (0.5, 1.0, 1.5):
        ws = system(make_grid(64), alpha)
        y0 = rng.normal(size=(2, 64) if system is extensions._Alignment else 64)
        got, want = ws.fields(ws.to_state(y0)), np.fft.rfft(y0)
        if system is _Workspace:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * np.abs(want).max()


def test_alignment_flow_keeps_w_and_scales_u():
    # the pair's linear part is diagonal in (w, u_hat): 0 on w, lam on u_hat
    ws = extensions._Alignment(make_grid(64), 1.0)
    rng = np.random.default_rng(12)
    y = rng.normal(size=(2, 33)) + 1j * rng.normal(size=(2, 33))
    lam, kept = 1.3 * ws.lin, y.copy()
    ws.flow(lam, 0.01)(y)
    assert np.array_equal(y[0], kept[0])
    assert np.array_equal(y[1], np.exp(0.01 * lam) * kept[1])


class TestStepControl:
    def test_cfl_is_the_accuracy_dial(self, grid):
        # the tolerance scales as cfl^4, and so does the error against a
        # fine fixed-step run; at cfl 0.4 the error stays below the per-step
        # tolerance, 2e-9 min rho = 1e-9 on these data
        rho0 = gen_positive_control(grid, 1.5)
        T = 0.01
        ref = run(rho0, SolverConfig(alpha=1.5, n_points=256, t_end=T, dt_fixed=T / 2048,
                                     snapshot_interval=T)).final_state.rho.values
        err = {}
        for cfl in (0.4, 0.2):
            res = run(rho0, SolverConfig(alpha=1.5, n_points=256, t_end=T, cfl=cfl,
                                         snapshot_interval=T))
            assert res.telemetry["step_limits"]["error"] > 0.5 * res.telemetry["steps"]
            err[cfl] = np.max(np.abs(res.final_state.rho.values - ref))
        assert err[0.4] < 1e-9
        assert 12.0 < err[0.4] / err[0.2] < 22.0

    def test_rejected_steps_are_retried(self, grid, monkeypatch):
        # an estimate read 1e3 times too large on every fifth attempt makes
        # that attempt miss the tolerance unless it is at the floor: it is
        # retried shorter from the same state, and only accepted steps
        # count, against max_steps as well
        rho0 = gen_positive_control(grid, 1.5)
        cfg = dict(alpha=1.5, n_points=256, t_end=0.005, snapshot_interval=0.001)
        plain = run(rho0, SolverConfig(**cfg))
        attempts = []
        sup_bound = _Workspace.sup_bound

        def inflated(ws, err):
            attempts.append(None)
            return sup_bound(ws, err) * (1e3 if len(attempts) % 5 == 0 else 1.0)

        monkeypatch.setattr(_Workspace, "sup_bound", inflated)
        res = run(rho0, SolverConfig(**cfg))
        tel = res.telemetry
        assert res.stop_reason == "t_end" and res.final_state.t == pytest.approx(0.005)
        assert tel["rejected"] > 0
        assert len(attempts) == tel["steps"] + tel["rejected"]
        assert tel["steps"] == res.final_state.step_count == sum(tel["step_limits"].values())
        # one rates call at the start and four per attempt: three stages and
        # the next step's stage 1, which also gives the attempt's estimate
        assert tel["fft_calls"] == 1 + 2 * (1 + 4 * len(attempts))
        gap = np.max(np.abs(res.final_state.rho.values - plain.final_state.rho.values))
        assert gap < 1e-9
        attempts.clear()
        capped = run(rho0, SolverConfig(**cfg, max_steps=tel["steps"] - 1))
        assert capped.stop_reason == "max_steps"
        assert capped.final_state.step_count == tel["steps"] - 1

    def test_tolerance_is_relative_to_min_density(self, grid):
        # sup|e| <= rtol min rho makes |e(x)| <= rtol rho(x) at every node;
        # a minimum within the rounding of the density gives no tolerance
        ws = _Workspace(grid, 1.5)
        u = np.zeros(grid.n)
        positive = gen_positive_control(grid, 1.5).values
        assert ws.step_limits(np.stack((positive, u)), 0.4, 2e-9)[2] == 2e-9 * positive.min()
        for floor in (0.0, -1e-14, 1e-18):
            vacuum = gen_cccf(grid).values + floor
            assert ws.step_limits(np.stack((vacuum, u)), 0.4, 2e-9)[2] == 0.0

    def test_vacuum_data_take_the_floor(self, grid, monkeypatch):
        # with no tolerance no estimate is formed: every step is the floor
        rho0 = gen_cccf(grid)
        estimates = []
        monkeypatch.setattr(_Workspace, "sup_bound", lambda ws, err: estimates.append(err))
        res = run(rho0, SolverConfig(alpha=1.5, n_points=256, t_end=0.005,
                                     snapshot_interval=0.001))
        tel = res.telemetry
        assert res.stop_reason == "t_end" and not estimates
        assert tel["step_limits"]["error"] == tel["rejected"] == 0
        assert tel["step_limits"]["dissipative"] > 0.9 * tel["steps"]

    def test_non_finite_attempt_is_retried(self, grid, monkeypatch):
        # a non-finite estimate on one attempt above the floor, as when a
        # stage overflows: that attempt is retried shorter and the run goes on
        rho0 = gen_positive_control(grid, 1.5)
        cfg = SolverConfig(alpha=1.5, n_points=256, t_end=0.005, snapshot_interval=0.001)
        attempts = []
        sup_bound = _Workspace.sup_bound

        def poisoned(ws, err):
            attempts.append(None)
            return np.nan if len(attempts) == 10 else sup_bound(ws, err)

        monkeypatch.setattr(_Workspace, "sup_bound", poisoned)
        res = run(rho0, cfg)
        assert res.stop_reason == "t_end" and res.final_state.t == pytest.approx(0.005)
        assert res.telemetry["rejected"] >= 1
        assert np.isfinite(res.final_state.rho.values).all()

    def test_non_finite_at_the_floor_stops(self, grid, monkeypatch):
        # from the tenth attempt on every estimate is non-finite: the step
        # is retried down to the floor, and there the run stops with nan,
        # keeping the last finite state
        rho0 = gen_positive_control(grid, 1.5)
        cfg = SolverConfig(alpha=1.5, n_points=256, t_end=0.005, snapshot_interval=0.001)
        attempts = []
        sup_bound = _Workspace.sup_bound

        def poisoned(ws, err):
            attempts.append(None)
            return np.nan if len(attempts) >= 10 else sup_bound(ws, err)

        monkeypatch.setattr(_Workspace, "sup_bound", poisoned)
        res = run(rho0, cfg)
        tel = res.telemetry
        assert res.stop_reason == "nan"
        assert tel["steps"] == 9 and tel["rejected"] >= 1
        assert len(attempts) == tel["steps"] + tel["rejected"] + 1
        assert res.final_state.step_count == 9 and res.final_state.t < cfg.t_end
        assert np.isfinite(res.final_state.rho.values).all()
        assert res.states[-1].t <= res.final_state.t


class TestRun:
    def test_positive_control_reaches_t_end(self, grid):
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=0.5,
                           snapshot_interval=0.05)
        res = run(gen_positive_control(grid, 1.5), cfg)
        assert res.stop_reason == "t_end"
        assert abs(res.final_state.t - 0.5) < 1e-12

    @pytest.mark.parametrize("system", ("run", "run_alignment"))
    def test_huge_density_reaches_t_end(self, system):
        # the step's center is a density of 1e50, beyond float32's range;
        # rounding it must leave a finite center and a positive step floor
        rho0 = gen_positive_control(make_grid(64), 1e50)
        cfg = SolverConfig(alpha=1.0, n_points=64, t_end=1e-3)
        res = (run(rho0, cfg) if system == "run"
               else run_alignment(rho0, velocity_spectral(rho0, 1.0), cfg))
        assert res.stop_reason == "t_end"
        assert abs(res.final_state.t - 1e-3) < 1e-15

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
        assert res.final_state.tail_fraction > cfg.tail_threshold
        from fpmflow.grid import spectral_derivative
        z0 = 2 * np.pi
        z_end = np.max(np.abs(spectral_derivative(res.states[-1].rho).values))
        assert z_end >= 5.0 * z0

    def test_steps_to_an_output_time_are_even(self):
        # a controlled step that would not reach the next output time is
        # shortened to an even share of the gap, so no short clamp step
        # follows; a fixed step is taken as given
        grid = make_grid(256)
        cfg = dict(alpha=1.0, n_points=256, t_end=0.05, snapshot_interval=1e-3)
        tel = run(gen_cccf(grid), SolverConfig(**cfg)).telemetry
        assert tel["dt_min"] >= 0.5 * tel["dt_max"]
        fixed = run(gen_cccf(grid), SolverConfig(**cfg, dt_fixed=3e-4)).telemetry
        assert fixed["dt_max"] == 3e-4 and fixed["step_limits"]["fixed"] > 0

    @pytest.mark.parametrize("system, t_end, bound", (("run", 0.12, 3e-8),
                                                      ("run_alignment", 0.1, 2e-9)))
    def test_vacuum_point_stays_empty(self, system, t_end, bound):
        # on even data with rho0(0) = 0, u(0) = 0, so rho(0, t) = 0 holds
        # exactly; what the run shows there is the integrator's error
        grid = make_grid(2048)
        rho0 = gen_cccf(grid)
        cfg = SolverConfig(alpha=1.0, n_points=2048, t_end=t_end, snapshot_interval=1e-3)
        at_zero = (lambda s: abs(s.rho.values[1024]),)  # node 1024 is x = 0
        if system == "run":
            res = run(rho0, cfg, at_zero, keep_states=False)
        else:
            res = run_alignment(rho0, velocity_spectral(rho0, 1.0), cfg, at_zero,
                                keep_states=False)
        assert res.stop_reason == "t_end" and res.records[0] == 0.0
        assert max(res.records) <= bound

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

    def test_observers_keep_numpy_warnings(self, grid):
        # observers run inside the stepping loop, but not under its silenced
        # overflow and invalid-value warnings
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=0.01)
        with pytest.raises(RuntimeWarning, match="overflow"):
            run(gen_cccf(grid), cfg, observers=(lambda s: np.float64(1e300) * 1e300,))

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
    # integrate the dissipation about the density's midrange exactly and
    # relax cccf to it at any step, so they get data whose midrange is
    # negative, where the factors do not damp
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
        assert (final.tail_fraction > cfg.tail_threshold) == (stop == "under_resolved")
        assert np.all(np.isfinite(final.rho.values))
        assert np.all(np.isfinite(final.u.values))
        times = [s.t for s in res.states]
        if stop == "nan":
            # the last finite state is the result, not a snapshot
            assert times == [0.0]
            return
        assert res.states[-1] is final  # the stopping state is the last snapshot
        if stop == "t_end":
            assert np.allclose(times, [0.0, 0.01, 0.02], rtol=0, atol=1e-12)
        elif stop == "max_steps":
            assert times[0] == 0.0 and len(times) == 2 and final.t > 0.0
        else:
            assert final.t < cfg.t_end and len(times) >= 2
            assert np.allclose(times[:-1], 0.01 * np.arange(len(times) - 1),
                               rtol=0, atol=1e-12)
            assert times[-2] < final.t

    @pytest.mark.parametrize("stop", STOPS)
    @pytest.mark.parametrize("system", ("run", "run_alignment"))
    def test_observers_run_as_snapshots_are_made(self, system, stop):
        # the inline records equal a post-run pass over the states, which
        # are all kept by default; without them the run ends the same
        gen, overrides = STOPS[stop]
        grid = make_grid(128)
        rho0 = gen(grid)
        cfg = SolverConfig(alpha=1.0, n_points=128,
                           **{"snapshot_interval": 0.01, **overrides})
        observers = (lambda s: (s.t, s.step_count), lambda s: float(s.rho.values.sum()))
        results = []
        for keep in ({}, {"keep_states": False}):
            with np.errstate(over="ignore", invalid="ignore"):
                if system == "run":
                    results.append(run(rho0, cfg, observers, **keep))
                else:
                    results.append(run_alignment(rho0, velocity_spectral(rho0, 1.0), cfg,
                                                 observers, **keep))
        kept, streamed = results
        assert kept.records == [obs(s) for s in kept.states for obs in observers]
        assert len(kept.records) == 2 * len(kept.states)
        assert streamed.states == []
        assert streamed.records == kept.records
        assert streamed.stop_reason == kept.stop_reason == stop
        assert streamed.telemetry == kept.telemetry
        a, b = kept.final_state, streamed.final_state
        assert (a.t, a.step_count, a.dt_last, a.tail_fraction) == \
            (b.t, b.step_count, b.dt_last, b.tail_fraction)
        assert np.array_equal(a.rho.values, b.rho.values)
        assert np.array_equal(a.u.values, b.u.values)


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

    def test_reflection(self, system, skewed):
        # x -> -x maps solutions to solutions with u negated; node -x_j is
        # node (n - j) mod n
        rho0, u0 = skewed

        def mirror(f, sign=1.0):
            return DensityField(f.grid, sign * np.roll(f.values[::-1], 1))

        a = _fixed_step_run(system, rho0, u0).final_state
        b = _fixed_step_run(system, mirror(rho0), mirror(u0, -1.0)).final_state
        assert np.max(np.abs(b.rho.values - mirror(a.rho).values)) <= 1e-14
        assert np.max(np.abs(b.u.values - mirror(a.u, -1.0).values)) <= 1e-14

    @pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
    def test_dilation(self, system, alpha):
        # rho(2x, 2^alpha t) solves the equation, with velocity
        # 2^(alpha - 1) u(2x, 2^alpha t): on twice the grid, with the step
        # and t_end divided by 2^alpha, the run of the dilated data is the
        # run of the data taken twice over
        def fixed_run(rho0, scale):
            t_end = 2.0 ** -6 / scale
            cfg = SolverConfig(alpha=alpha, n_points=rho0.grid.n, t_end=t_end,
                               dt_fixed=2.0 ** -12 / scale, snapshot_interval=t_end)
            if system == "run":
                return run(rho0, cfg).final_state
            return run_alignment(rho0, velocity_spectral(rho0, alpha), cfg).final_state

        grid = make_grid(256)
        x = grid.nodes
        rho0 = DensityField(grid, 1.5 + 0.3 * np.cos(2 * np.pi * x)
                            + 0.2 * np.sin(4 * np.pi * x))
        pick = (np.arange(512) + 128) % 256  # 2 x_i is node pick[i] of 256, mod 1
        a = fixed_run(rho0, 1.0)
        b = fixed_run(DensityField(make_grid(512), rho0.values[pick]), 2.0 ** alpha)
        assert np.max(np.abs(b.rho.values - a.rho.values[pick])) <= 1e-15
        assert np.max(np.abs(b.u.values - 2.0 ** (alpha - 1) * a.u.values[pick])) <= 4e-15

    def test_fft_budget(self, system, skewed, monkeypatch):
        # two batched transforms per stage after the first rfft, so at most
        # 8 numpy FFT calls per step, with room for one per snapshot and one
        # at the stop
        calls, rate_calls = [], []
        for name in ("rfft", "irfft"):
            def counted(*args, _fft=getattr(np.fft, name), **kwargs):
                calls.append(_fft)
                return _fft(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        for owner, name in ((_Workspace, "rates"), (extensions._Alignment, "rates")):
            def counted_rates(*args, _rates=getattr(owner, name)):
                rate_calls.append(None)
                return _rates(*args)
            monkeypatch.setattr(owner, name, counted_rates)
        res = _fixed_step_run(system, *skewed)
        assert len(res.states) == 5
        assert len(calls) == 1 + 2 * len(rate_calls)
        assert len(calls) <= 8 * 16 + len(res.states) + 1
        assert res.telemetry["fft_calls"] == len(calls)


class TestTelemetry:
    def test_dissipative_limit_dominates_stiff_run(self):
        # positive data at alpha = 1.5 on 1024 points: the dissipative limit
        # is only the floor of the first step; the estimate then lets the
        # step grow to the transport cap, which binds over two thirds of
        # the steps (19 of 27), and the run takes under a fifth of the
        # steps the floor of t = 0 would take, 0.4 * 2 / (max|rho - 1.5|
        # (2 pi 341)^1.5) each
        grid = make_grid(1024)
        cfg = SolverConfig(alpha=1.5, n_points=1024, t_end=0.005,
                           snapshot_interval=0.001)
        res = run(gen_positive_control(grid, 1.5), cfg)
        tel = res.telemetry
        limits = tel["step_limits"]
        assert tel["steps"] == res.final_state.step_count == sum(limits.values())
        assert limits["dissipative"] == 1
        assert limits["error"] >= 1
        assert limits["transport"] > 2 / 3 * tel["steps"]
        assert limits["fixed"] == tel["rejected"] == 0
        assert 1 <= limits["snapshot"] + limits["t_end"] <= 5
        assert 0.0 < tel["dt_min"] <= tel["dt_max"]
        floor = 0.4 * 2 / (2 * np.pi * 341) ** 1.5
        assert tel["steps"] < 0.2 * cfg.t_end / floor

    def test_vacuum_run_fft_budget(self):
        # on vacuum data every step is the dissipative floor, which is an
        # accuracy limit there, not a stability one: the fourth-order step
        # spans a whole snapshot interval, so the run's FFT calls fall
        # though a step makes 8 of them
        grid = make_grid(256)
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=0.05, snapshot_interval=1e-3)
        tel = run(gen_cccf(grid), cfg).telemetry
        assert tel["steps"] <= 50 and tel["fft_calls"] <= 403

    def test_tail_max_is_the_largest_tail_at_a_step_start(self, grid):
        # with a snapshot at every step start, tail_max is the largest
        # snapshot tail; a run stopped under-resolved reports the tail that
        # stopped it
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=2.0 ** -6,
                           dt_fixed=2.0 ** -10, snapshot_interval=2.0 ** -10)
        res = run(gen_cccf(grid), cfg)
        assert len(res.states) == 17
        assert res.telemetry["tail_max"] == max(s.tail_fraction for s in res.states) > 0.0
        stopped = run(gen_cccf(grid), SolverConfig(alpha=1.0, n_points=256, t_end=5.0))
        assert stopped.stop_reason == "under_resolved"
        assert stopped.telemetry["tail_max"] == stopped.final_state.tail_fraction \
            > max(s.tail_fraction for s in stopped.states[:-1])

    @pytest.mark.parametrize("system", ("run", "run_alignment"))
    def test_fixed_step_counts(self, system, skewed):
        # one rates call at the start and four per step (three stages and
        # the next step's stage 1), each one irfft and one rfft, after the
        # first rfft
        res = _fixed_step_run(system, *skewed)
        assert 0.0 < res.telemetry.pop("tail_max") < 1e-8
        assert res.telemetry == {"steps": 16, "rejected": 0,
                                 "dt_min": 2.0 ** -10, "dt_max": 2.0 ** -10,
                                 "step_limits": {"transport": 0, "dissipative": 0,
                                                 "error": 0, "snapshot": 0, "t_end": 0,
                                                 "fixed": 16},
                                 "fft_calls": 1 + 2 * (1 + 4 * 16)}
        assert res.final_state.step_count == 16
        assert res.final_state.dt_last == 2.0 ** -10


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
