"""Characteristic paths, mass transport, decay bound."""

import numpy as np
import pytest

from fpmflow.grid import (DensityField, antiderivative_at, evaluate_trig, make_grid, trig_eval,
                          trig_layout)
from fpmflow.initial_data import gen_cccf, gen_positive_control, gen_vacuum_plateau
from fpmflow.characteristics import (CharacteristicPath, PathTracer, advect_path,
                                     advect_paths, check_decay_bound, check_mass_transport)
from fpmflow.solver import SolverConfig, run


@pytest.fixture(scope="module")
def cccf_run():
    grid = make_grid(1024)
    cfg = SolverConfig(alpha=1.0, n_points=1024, t_end=0.1,
                       snapshot_interval=1e-3)
    return run(gen_cccf(grid), cfg)


@pytest.fixture(scope="module")
def control_run():
    grid = make_grid(512)
    cfg = SolverConfig(alpha=1.0, n_points=512, t_end=0.4,
                       snapshot_interval=1e-3)
    return run(gen_positive_control(grid, 1.5), cfg)


class TestMassProfile:
    def test_cccf_half(self):
        rho = gen_cccf(make_grid(256))
        assert abs(antiderivative_at(rho, [0.5])[0] - 0.5) < 1e-12

    def test_zero_at_origin(self):
        rho = gen_cccf(make_grid(256))
        assert antiderivative_at(rho, [0.0])[0] == 0.0

    def test_monotone_for_nonnegative_density(self):
        rho = gen_cccf(make_grid(256))
        xs = np.linspace(0.0, 0.5, 40)
        vals = [antiderivative_at(rho, [x])[0] for x in xs]
        assert np.all(np.diff(vals) >= -1e-14)


class TestAdvectPath:
    def test_origin_is_fixed_point(self, cccf_run):
        path = advect_path(cccf_run.states, 0.0)
        assert np.max(np.abs(path.positions)) < 1e-10

    def test_constant_density_paths_static(self):
        grid = make_grid(256)
        cfg = SolverConfig(alpha=1.0, n_points=256, t_end=0.1,
                           snapshot_interval=5e-3)
        res = run(DensityField(grid, np.full(256, 1.0)), cfg)
        path = advect_path(res.states, 0.3)
        assert np.max(np.abs(path.positions - 0.3)) < 1e-13

    def test_cccf_path_nonincreasing(self, cccf_run):
        path = advect_path(cccf_run.states, 0.1)
        assert np.all(np.diff(path.positions) <= 1e-8)

    def test_paths_stay_ordered(self, cccf_run):
        paths = [advect_path(cccf_run.states, xs) for xs in (0.05, 0.15, 0.3)]
        for a, b in zip(paths, paths[1:]):
            assert np.all(b.positions - a.positions > -1e-8)

    def test_mass0_attached(self, cccf_run):
        path = advect_path(cccf_run.states, 0.2)
        rho0 = cccf_run.states[0].rho
        assert abs(path.mass_along[0] - antiderivative_at(rho0, [0.2])[0]) < 1e-14

    def test_needs_two_snapshots(self, cccf_run):
        with pytest.raises(ValueError):
            advect_path(cccf_run.states[:1], 0.1)


@pytest.fixture(scope="module")
def plateau_run():
    # the plateau's transitions need n = 1024 to start resolved; the run
    # stops under-resolved near t = 0.0076
    grid = make_grid(1024)
    cfg = SolverConfig(alpha=1.0, n_points=1024, t_end=0.05,
                       snapshot_interval=5e-4)
    res = run(gen_vacuum_plateau(grid), cfg)
    assert len(res.states) >= 10
    return res


def _mass_at(rho, x):
    """F(x) of rho from its own c_k / (2 pi i k) row, evaluated at the
    points [0.0] and [x], apart from antiderivative_layout."""
    grid, c = rho.grid, rho.coefficients
    a = np.zeros_like(c)
    a[1:-1] = c[1:-1] / (2j * np.pi * grid.k_half[1:-1])
    layout = trig_layout(grid, a)
    periodic = trig_eval(grid, layout, [x])[0] - trig_eval(grid, layout, [0.0])[0]
    return c[0].real * x + periodic + c[-1].real * np.sin(np.pi * grid.n * x) / (np.pi * grid.n)


def _advect_stage_by_stage(states, x_start):
    """Path advection as one trig sum of a freshly laid out row per RK4
    stage, one step per snapshot interval: the rows of the interval's two
    snapshots and of their average, at its midpoint.  The reference for the
    bits of advect_paths."""
    times = np.array([s.t for s in states])
    grid = states[0].u.grid
    positions = np.empty(len(times))
    positions[0] = pos = x_start
    for i in range(len(times) - 1):
        h = times[i + 1] - times[i]
        ca, cb = states[i].u.coefficients, states[i + 1].u.coefficients

        def u_at(row, x):
            return float(trig_eval(grid, trig_layout(grid, row), [x])[0])

        k1 = u_at(ca, pos)
        k2 = u_at(0.5 * (ca + cb), pos + 0.5 * h * k1)
        k3 = u_at(0.5 * (ca + cb), pos + 0.5 * h * k2)
        k4 = u_at(cb, pos + h * k3)
        positions[i + 1] = pos = pos + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    rho_along = [float(evaluate_trig(s.rho, [p])[0]) for s, p in zip(states, positions)]
    mass_along = [_mass_at(s.rho, p) for s, p in zip(states, positions)]
    return positions, np.array(rho_along), np.array(mass_along)


def _same(path_a, path_b) -> bool:
    return all(np.array_equal(getattr(path_a, k), getattr(path_b, k))
               for k in ("times", "positions", "rho_along", "mass_along"))


class TestAdvectPaths:
    @pytest.mark.parametrize("x_start", [0.0, 0.03, 0.12, 0.2, 0.45, -0.1])
    def test_matches_stage_by_stage_loop_exactly(self, plateau_run, x_start):
        path = advect_path(plateau_run.states, x_start)
        positions, rho_along, mass_along = _advect_stage_by_stage(plateau_run.states, x_start)
        assert np.all(path.positions == positions)
        assert np.all(path.rho_along == rho_along)
        assert np.all(path.mass_along == mass_along)

    def test_many_starts_match_separate_calls(self, plateau_run):
        starts = [0.05, 0.2, 0.0, 0.3, 0.05]
        paths = advect_paths(plateau_run.states, starts)
        assert [p.x_start for p in paths] == starts
        for x, path in zip(starts, paths):
            assert _same(path, advect_paths(plateau_run.states, [x])[0])
            assert _same(path, advect_path(plateau_run.states, x))
        assert advect_paths(plateau_run.states, []) == []

    def test_float_start_is_a_one_start_list(self, plateau_run):
        (path,) = advect_paths(plateau_run.states, 0.1)
        assert path.x_start == 0.1
        assert _same(path, advect_paths(plateau_run.states, [0.1])[0])

    @pytest.mark.parametrize("starts", [0.1, [0.1, 0.2]])
    def test_needs_two_snapshots(self, plateau_run, starts):
        with pytest.raises(ValueError, match="two snapshots"):
            advect_paths(plateau_run.states[:1], starts)

    def test_mass_at_origin_stays_exactly_zero(self, plateau_run):
        for s in plateau_run.states:
            assert antiderivative_at(s.rho, [0.0])[0] == 0.0
        assert advect_paths(plateau_run.states, [0.0, 0.1])[0].mass_along[0] == 0.0


# (preset, n, t_end, snapshot interval, starts, stop reason): a run that
# reaches t_end; the plateau run, which stops under-resolved, its stop state
# the last snapshot; starts on both sides of 0, one repeated
TRACED_RUNS = {
    "t_end": (gen_cccf, 256, 0.02, 1e-3, [0.05, 0.25], "t_end"),
    "under_resolved": (gen_vacuum_plateau, 1024, 0.05, 5e-4, [0.05, 0.2], "under_resolved"),
    "both_sides": (gen_cccf, 256, 0.02, 1e-3, [-0.2, 0.05, -0.2, 0.3], "t_end"),
}


class TestPathTracer:
    @pytest.mark.parametrize("case", TRACED_RUNS)
    def test_observer_matches_advect_paths_exactly(self, case):
        gen, n, t_end, interval, starts, stop_reason = TRACED_RUNS[case]
        tracer = PathTracer(starts)
        res = run(gen(make_grid(n)), SolverConfig(alpha=1.0, n_points=n, t_end=t_end,
                                                  snapshot_interval=interval),
                  observers=(tracer,), keep_states=True)
        assert res.stop_reason == stop_reason
        assert len(res.records) == len(res.states) >= 10
        assert res.states[-1].t == res.final_state.t
        traced = tracer.paths(res.records)
        assert [p.x_start for p in traced] == starts
        for path, stored in zip(traced, advect_paths(res.states, starts), strict=True):
            assert _same(path, stored)


def _advect_in_substeps(states, x_start, substeps):
    """The path from x_start with `substeps` RK4 steps per snapshot interval
    through the same linearly interpolated u: a reference for the error of
    advect_paths' one step."""
    grid = states[0].u.grid
    positions = [x_start]
    pos = x_start
    for a, b in zip(states[:-1], states[1:]):
        h = (b.t - a.t) / substeps
        ca, cb = a.u.coefficients, b.u.coefficients

        def u_at(f, x):
            return float(trig_eval(grid, trig_layout(grid, ca + f * (cb - ca)), x))

        for j in range(substeps):
            f = j / substeps
            k1 = u_at(f, pos)
            k2 = u_at(f + 0.5 / substeps, pos + 0.5 * h * k1)
            k3 = u_at(f + 0.5 / substeps, pos + 0.5 * h * k2)
            k4 = u_at(f + 1.0 / substeps, pos + h * k3)
            pos = pos + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        positions.append(pos)
    return np.array(positions)


class TestPathAccuracy:
    STARTS = [0.03, 0.12, 0.2, 0.45, -0.1]

    def test_interpolation_not_the_step_bounds_the_error(self, plateau_run):
        # the same run with snapshots twice as dense; its even snapshots
        # fall on the plateau run's snapshot times
        grid = make_grid(1024)
        cfg = SolverConfig(alpha=1.0, n_points=1024, t_end=0.05,
                           snapshot_interval=2.5e-4)
        dense = run(gen_vacuum_plateau(grid), cfg).states
        states = plateau_run.states
        m = min(len(states), (len(dense) + 1) // 2) - 1  # a stopped run's last is off the grid
        assert m >= 10
        states, dense = states[:m], dense[:2 * m - 1]
        assert np.allclose([s.t for s in states], [s.t for s in dense[::2]], rtol=0, atol=1e-14)
        step_error = interpolation_error = moved = 0.0
        for x, path, halved in zip(self.STARTS, advect_paths(states, self.STARTS),
                                   advect_paths(dense, self.STARTS)):
            reference = _advect_in_substeps(states, x, 16)
            step_error = max(step_error, np.max(np.abs(path.positions - reference)))
            interpolation_error = max(interpolation_error, np.max(np.abs(
                _advect_in_substeps(dense, x, 16)[::2] - reference)))
            moved = max(moved, np.max(np.abs(halved.positions[::2] - path.positions)))
        # one step per interval lies within 1% of the interpolation error of
        # a path taken with 16 steps per interval
        assert step_error <= 0.01 * interpolation_error
        # and halving the snapshot interval moves the paths 100 times as far
        assert moved >= 100.0 * step_error


class TestMassTransport:
    def test_identical_paths_zero_drift(self, cccf_run):
        p = advect_path(cccf_run.states, 0.2)
        assert check_mass_transport(p, p, cccf_run.states) == 0.0

    def test_rejects_other_time_grid(self, cccf_run):
        p1, p2 = advect_paths(cccf_run.states, [0.05, 0.2])
        with pytest.raises(ValueError, match="share their time grid"):
            check_mass_transport(p1, p2, cccf_run.states[1:])
        short = advect_path(cccf_run.states[:3], 0.2)
        with pytest.raises(ValueError, match="share their time grid"):
            check_mass_transport(p1, short, cccf_run.states)

    def test_cccf_drift_small(self, cccf_run):
        p1 = advect_path(cccf_run.states, 0.05)
        p2 = advect_path(cccf_run.states, 0.25)
        assert check_mass_transport(p1, p2, cccf_run.states) < 1e-5

    def test_drift_matches_antiderivative_pass(self, cccf_run):
        # mass_along carries F(X) per snapshot, so the drift equals a fresh
        # antiderivative pass over the two paths, in either order
        p1 = advect_path(cccf_run.states, 0.05)
        p2 = advect_path(cccf_run.states, 0.25)
        between = np.array([np.diff(antiderivative_at(s.rho, [x1, x2]))[0] for s, x1, x2
                            in zip(cccf_run.states, p1.positions, p2.positions)])
        expected = np.max(np.abs(between - between[0]))
        assert abs(check_mass_transport(p1, p2, cccf_run.states) - expected) <= 1e-15
        assert abs(check_mass_transport(p2, p1, cccf_run.states) - expected) <= 1e-15

    def test_control_drift_small(self, control_run):
        p1 = advect_path(control_run.states, 0.1)
        p2 = advect_path(control_run.states, 0.3)
        assert check_mass_transport(p1, p2, control_run.states) < 1e-5

    def test_drift_shrinks_with_snapshot_interval(self):
        # temporal interpolation of u dominates the path error budget
        drifts = {}
        for snap in (4e-3, 2e-3):
            grid = make_grid(512)
            cfg = SolverConfig(alpha=1.0, n_points=512, t_end=0.4,
                               snapshot_interval=snap)
            res = run(gen_positive_control(grid, 1.5), cfg)
            p1 = advect_path(res.states, 0.1)
            p2 = advect_path(res.states, 0.3)
            drifts[snap] = check_mass_transport(p1, p2, res.states)
        assert drifts[2e-3] < 0.5 * drifts[4e-3]


class TestDecayBound:
    def test_zero_rate_reduces_to_monotone_bound(self, cccf_run):
        path = advect_path(cccf_run.states, 0.1)
        report = check_decay_bound(path, A=0.0, m=1.0)
        assert report.applicable and report.holds

    def test_cccf_with_enhanced_rate(self, cccf_run):
        path = advect_path(cccf_run.states, 0.05)
        report = check_decay_bound(path, A=0.125, m=1.0)
        assert report.applicable and report.holds
        assert report.t_checked == path.times[-1]

    def test_not_applicable_when_density_large(self, cccf_run):
        # a path starting where rho0 > m/2 fails the smallness gate at t = 0
        path = advect_path(cccf_run.states, 0.45)
        report = check_decay_bound(path, A=0.125, m=1.0)
        assert not report.applicable

    def test_outside_smallness_radius_not_applicable(self, cccf_run):
        path = advect_path(cccf_run.states, 0.25)
        report = check_decay_bound(path, A=0.125, m=1.0, delta=1.0 / 6.0)
        assert not report.applicable
        # rho <= m/2 at +-0.15, but |start| lies outside delta = 0.1
        for xs in (0.15, -0.15):
            path = advect_path(cccf_run.states, xs)
            assert not check_decay_bound(path, A=0.125, m=1.0, delta=0.1).applicable

    def test_mirrored_start(self, cccf_run):
        # cccf is even, so the path from -eps mirrors the path from eps, and
        # the check reads both by their distance from the vacuum point 0
        plus, minus = advect_paths(cccf_run.states, [0.05, -0.05])
        assert np.max(np.abs(minus.positions + plus.positions)) <= 1e-15
        reports = [check_decay_bound(p, A=0.125, m=1.0, delta=1.0 / 6.0)
                   for p in (plus, minus)]
        assert reports[0] == reports[1]
        assert reports[0].applicable and reports[0].holds
        assert np.array_equal(minus.decay_envelope(0.125), plus.decay_envelope(0.125))

    def test_margin_is_the_least_relative_room_after_t0(self):
        # the bound is met with equality at t = 0, so t = 0 is left out
        times = np.array([0.0, 1.0, 2.0])
        bound = 0.1 * np.exp(-0.5 * times)
        small = np.zeros(3)

        def report(x_start, positions):
            path = CharacteristicPath(x_start, times, np.asarray(positions),
                                      small, small)
            return check_decay_bound(path, A=0.5, m=1.0)

        assert report(0.1, [0.1, 0.5 * bound[1], 0.75 * bound[2]]).margin == pytest.approx(0.25)
        assert report(-0.1, [-0.1, -0.5 * bound[1], -bound[2]]).margin == pytest.approx(0.0)
        failed = report(0.1, [0.1, 1.5 * bound[1], bound[2]])
        assert not failed.holds and failed.margin == pytest.approx(-0.5)
        # the origin is a fixed point with a zero bound: no room to report
        assert report(0.0, [0.0, 0.0, 0.0]).margin is None


class TestMassConcentration:
    def test_mass_bounded_by_endpoint_density(self, cccf_run):
        # monotone profiles concentrate: the mass left of the path never
        # exceeds position times the density at the path
        for xs in (0.05, 0.1, 0.15):
            path = advect_path(cccf_run.states, xs)
            bound = path.positions * path.rho_along
            assert np.all(path.mass_along <= bound + 1e-10)
