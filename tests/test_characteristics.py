"""Characteristic paths, mass transport, decay bound."""

import numpy as np
import pytest

from fpmflow.grid import DensityField, antiderivative_at, evaluate_trig, make_grid, trig_sum
from fpmflow.initial_data import gen_cccf, gen_positive_control, gen_vacuum_plateau
from fpmflow.characteristics import (advect_path, advect_paths, check_decay_bound,
                                     check_mass_transport, mass_profile)
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
        assert abs(mass_profile(rho, 0.5) - 0.5) < 1e-12

    def test_zero_at_origin(self):
        rho = gen_cccf(make_grid(256))
        assert mass_profile(rho, 0.0) == 0.0

    def test_monotone_for_nonnegative_density(self):
        rho = gen_cccf(make_grid(256))
        xs = np.linspace(0.0, 0.5, 40)
        vals = [mass_profile(rho, x) for x in xs]
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
        assert abs(path.mass_along[0] - mass_profile(rho0, 0.2)) < 1e-14

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


def _advect_stage_by_stage(states, x_start):
    """Path advection as one trig_sum call per RK4 stage, the loop that
    advect_paths replaced; the reference for its bits."""
    times = np.array([s.t for s in states])
    grid = states[0].u.grid
    fracs = np.arange(9) / 8
    positions = np.empty(len(times))
    positions[0] = pos = x_start
    for i in range(len(times) - 1):
        h = (times[i + 1] - times[i]) / 4
        ca = states[i].u.coefficients
        rows = ca + np.outer(fracs, states[i + 1].u.coefficients - ca)

        def u_at(row, x):
            return float(trig_sum(grid, rows[row], [x])[0])

        for j in range(0, 8, 2):
            k1 = u_at(j, pos)
            k2 = u_at(j + 1, pos + 0.5 * h * k1)
            k3 = u_at(j + 1, pos + 0.5 * h * k2)
            k4 = u_at(j + 2, pos + h * k3)
            pos = pos + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        positions[i + 1] = pos
    rho_along = [float(evaluate_trig(s.rho, [p])[0]) for s, p in zip(states, positions)]
    mass_along = [mass_profile(s.rho, p) for s, p in zip(states, positions)]
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
            assert mass_profile(s.rho, 0.0) == 0.0
        assert advect_paths(plateau_run.states, [0.0, 0.1])[0].mass_along[0] == 0.0


class TestMassTransport:
    def test_identical_paths_zero_drift(self, cccf_run):
        p = advect_path(cccf_run.states, 0.2)
        assert check_mass_transport(p, p, cccf_run.states) == 0.0

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


class TestMassConcentration:
    def test_mass_bounded_by_endpoint_density(self, cccf_run):
        # monotone profiles concentrate: the mass left of the path never
        # exceeds position times the density at the path
        for xs in (0.05, 0.1, 0.15):
            path = advect_path(cccf_run.states, xs)
            bound = path.positions * path.rho_along
            assert np.all(path.mass_along <= bound + 1e-10)
