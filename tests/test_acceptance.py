"""Acceptance criteria, one test (or parametrized family) per criterion.

Each check prints a `[criterion N] PASS/FAIL` line (visible with `pytest -s`
or in captured output on failure).  Expensive runs are shared module-scoped
fixtures; the full module takes about 18 s on a 2-core machine, and the
two strict-xfail growth runs at alpha = 1.5 take about 5.2 s (vacuum-plateau)
and 4.3 s (cccf).

The regime-separation criterion at alpha = 1.5 is marked strict-xfail: the
vacuum floor lifts before any fivefold gradient growth.  Measured on cccf at
n = 2048 with the default step: rho(0) stays at the time-stepping error
(<= 5e-12 to t = 0.020, 4.5e-9 at t = 0.030; about 1e-11 to t = 0.028 at
cfl 0.1) while the tail fraction stays below 2e-10.  Then an unresolved
layer at the vacuum point lifts it: rho(0) is 8e-8 at t = 0.032, 6e-6 at
t = 0.034 and 0.16 at t = 0.048, at either step size.  Roundoff does not
cause the lift: with a constant eps in {0, 1e-9, 1e-7} added to the data
(n = 1024, snapshots every 5e-4), rho(0) - eps first exceeds 1e-6 in the
same snapshot, t = 0.0315.
"""

import math

import numpy as np
import pytest

from fpmflow.grid import make_grid, spectral_derivative
from fpmflow.initial_data import gen_cccf, gen_positive_control, gen_vacuum_plateau
from fpmflow.operators import (compute_A, compute_C, compute_delta,
                               fractional_laplacian_kernel,
                               fractional_laplacian_spectral, kernel_sum_S,
                               make_params, velocity_kernel, velocity_spectral)
from fpmflow.characteristics import advect_path, check_decay_bound, check_mass_transport
from fpmflow.diagnostics import bathtub_min, classify_run, constants_for, make_observer
from fpmflow.extensions import run_alignment, slab_check_2d
from fpmflow.solver import SolverConfig, run
from test_diagnostics import bathtub_brute

N_FULL = 2048


def _report(criterion: str, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------- fixtures

def _certify_run(alpha, rho0_fn, t_end, snap):
    grid = make_grid(N_FULL)
    rho0 = rho0_fn(grid)
    cfg = SolverConfig(alpha=alpha, n_points=N_FULL, t_end=t_end,
                       snapshot_interval=snap)
    cons = constants_for(alpha, rho0)
    res = run(rho0, cfg, observers=(make_observer(cons),))
    return res, cons, cfg


CERTIFY_CONFIGS = {
    ("cccf", 0.5): (0.8, 2e-3),
    ("cccf", 1.0): (0.25, 1e-3),
    ("cccf", 1.5): (0.06, 2e-4),
    ("plateau", 0.5): (0.3, 1e-3),
    ("plateau", 1.0): (0.05, 2e-4),
    ("plateau", 1.5): (0.02, 5e-5),
}


@pytest.fixture(scope="module")
def certify_runs():
    out = {}
    for (kind, alpha), (t_end, snap) in CERTIFY_CONFIGS.items():
        fn = gen_cccf if kind == "cccf" else \
            (lambda g: gen_vacuum_plateau(g, 0.15, 0.1, 2.0))
        out[(kind, alpha)] = _certify_run(alpha, fn, t_end, snap)
    return out


GROWTH_CONFIGS = {
    ("cccf", 0.5): dict(t_end=0.64, data=lambda g: gen_cccf(g)),
    ("cccf", 1.0): dict(t_end=0.155, data=lambda g: gen_cccf(g)),
    ("cccf", 1.5): dict(t_end=0.06, data=lambda g: gen_cccf(g)),
    ("plateau", 0.5): dict(t_end=0.62,
                           data=lambda g: gen_vacuum_plateau(g, 0.1, 0.3, 2.0)),
    ("plateau", 1.0): dict(t_end=0.162,
                           data=lambda g: gen_vacuum_plateau(g, 0.05, 0.4, 2.0)),
    ("plateau", 1.5): dict(t_end=0.06,
                           data=lambda g: gen_vacuum_plateau(g, 0.1, 0.3, 2.0)),
}


def _growth_run(kind, alpha):
    spec = GROWTH_CONFIGS[(kind, alpha)]
    grid = make_grid(N_FULL)
    rho0 = spec["data"](grid)
    cfg = SolverConfig(alpha=alpha, n_points=N_FULL, t_end=spec["t_end"],
                       snapshot_interval=spec["t_end"] / 120,
                       tail_threshold=2e-2)
    cons = constants_for(alpha, rho0)
    return run(rho0, cfg, observers=(make_observer(cons),))


@pytest.fixture(scope="module")
def alignment_pair():
    out = {}
    for n in (1024, 2048):
        grid = make_grid(n)
        rho0 = gen_cccf(grid)
        u0 = velocity_spectral(rho0, 1.0)
        cfg = SolverConfig(alpha=1.0, n_points=n, t_end=0.1,
                           snapshot_interval=5e-3)
        out[n] = (run_alignment(rho0, u0, cfg), run(rho0, cfg))
    return out


# ------------------------------------------------------------- criterion 1

ALPHAS_DUALITY = (0.3, 0.5, 1.0, 1.5, 1.9)


@pytest.mark.parametrize("alpha", ALPHAS_DUALITY)
def test_criterion_1_operator_duality(alpha):
    grid = make_grid(256)
    rho = gen_cccf(grid)
    params = make_params(alpha)
    lap = fractional_laplacian_spectral(rho, alpha)
    vel = velocity_spectral(rho, alpha)
    xs = grid.nodes[:: grid.n // 16]
    worst = 0.0
    for x in xs:
        j = grid.node_index(x)
        worst = max(worst, abs(fractional_laplacian_kernel(rho, params, x)
                               - lap.values[j]))
        worst = max(worst, abs(velocity_kernel(rho, params, x) - vel.values[j]))
    _report("1", worst < 1e-4,
            f"alpha={alpha}: kernel-vs-spectral max deviation {worst:.2e} < 1e-4")


def test_criterion_1_velocity_closed_form():
    grid = make_grid(256)
    u = velocity_spectral(gen_cccf(grid), 1.0)
    err = float(np.max(np.abs(u.values + np.sin(2 * np.pi * grid.nodes))))
    _report("1", err < 1e-8, f"alpha=1 velocity equals -sin(2 pi x) to {err:.2e}")


# ------------------------------------------------------------- criterion 2

def test_criterion_2_constants():
    ok = (compute_C(1.0) == 12.0
          and abs(compute_delta(1.0) - 1.0 / 6.0) < 1e-12
          and compute_A(1.0, 1.0, 2.0) == 0.125)
    _report("2", ok, "C(1) = 12, delta(1) = 1/6, A(1,1,2) = 0.125")


# ------------------------------------------------------------- criterion 3

@pytest.mark.parametrize("alpha", (0.3, 1.0, 1.7))
def test_criterion_3_kernel_sum_positivity(alpha):
    pts = np.linspace(0.0, 0.5, 50)
    worst = math.inf
    for x in pts:
        for y in pts:
            value, bound = kernel_sum_S(x, y, alpha, L=10_000)
            if math.isinf(value):
                continue
            worst = min(worst, value + bound)
    _report("3", worst >= 0.0,
            f"alpha={alpha}: min over 50x50 grid of S + tail_bound = {worst:.3e} >= 0")


# ------------------------------------------------------------- criterion 4

def test_criterion_4_bathtub_oracle_agreement():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        n_samp = 4001
        xs = np.linspace(0.0, 1.0, n_samp)
        drops = rng.uniform(0.0, 1.0, n_samp - 1)
        fs = 0.05 + np.concatenate(([1.0], 1.0 - np.cumsum(drops) / drops.sum()))
        M = rng.uniform(0.5, 3.0)
        lam = rng.uniform(0.1, 0.9) * M
        a = bathtub_min(xs, fs, M, lam)
        b = bathtub_brute(xs, fs, M, lam, n_cells=100_000)
        worst = max(worst, abs(a - b))
    # the enhanced-bound weight instance: h(x, .) on (x, 1/2], x = 0.05
    x, alpha = 0.05, 1.0
    ys = np.linspace(0.06, 0.5, 8001)
    h = (ys - x) ** (-alpha) - (ys + x) ** (-alpha)
    rho_x = 1.0 - math.cos(2 * math.pi * x)
    M = 2.0 - rho_x
    lam = 0.25
    a = bathtub_min(ys, h, M, lam)
    b = bathtub_brute(ys, h, M, lam, n_cells=100_000)
    worst = max(worst, abs(a - b))
    _report("4", worst < 1e-6,
            f"analytic vs greedy minimizer max gap {worst:.2e} < 1e-6 "
            f"(20 random + weight-instance)")


# ------------------------------------------------------------- criterion 5

@pytest.mark.parametrize("kind,alpha", list(CERTIFY_CONFIGS))
def test_criterion_5_online_invariants(kind, alpha, certify_runs):
    res, cons, cfg = certify_runs[(kind, alpha)]
    recs = [r for r in res.records if r.tail_fraction <= cfg.tail_threshold]
    assert len(recs) >= 2, "resolved window is empty"
    m0 = recs[0].mass
    mass_drift = max(abs(r.mass - m0) for r in recs)
    rho_min = min(r.rho_min for r in recs)
    rho_max = max(r.rho_max for r in recs)
    zeta_rel = min(r.zeta_min_half / max(r.c1_norm, 1e-300) for r in recs)
    u_max = max(r.u_max_on_delta for r in recs)
    margin = max(r.enhanced_margin for r in recs)
    ok = (mass_drift < 1e-11
          and rho_min >= -1e-8 * cons.rho_max
          and rho_max <= cons.rho_max * (1 + 1e-8)
          and zeta_rel >= -1e-6
          and u_max <= 1e-8
          and margin <= 1e-6)
    _report("5", ok,
            f"{kind} alpha={alpha} ({len(recs)} resolved records to "
            f"t={recs[-1].t:.4f}): mass drift {mass_drift:.1e}, "
            f"rho in [{rho_min:.1e}, {rho_max:.10f}], "
            f"zeta_min/c1 {zeta_rel:.1e}, max u on [0,delta] {u_max:.1e}, "
            f"enhanced margin {margin:.1e}")


# ------------------------------------------------------------- criterion 6

def test_criterion_6_characteristic_decay(certify_runs):
    res, cons, cfg = certify_runs[("plateau", 1.0)]
    A = compute_A(1.0, cons.m, cons.rho_max)
    path = advect_path(res.states, 0.15)
    report = check_decay_bound(path, A, cons.m)
    p1 = advect_path(res.states, 0.05)
    p2 = advect_path(res.states, 0.25)
    drift = check_mass_transport(p1, p2, res.states)
    ok = report.applicable and report.holds and drift < 1e-5
    _report("6", ok,
            f"X(t; x0) within e^-At envelope (margin {report.margin:.2e}, "
            f"checked to t={report.t_checked:.4f}); pair mass drift {drift:.2e} < 1e-5")


# ------------------------------------------------------------- criterion 7

GROWTH_CASES = [("cccf", 0.5), ("cccf", 1.0), ("plateau", 0.5), ("plateau", 1.0)]
UNATTAINABLE = [("cccf", 1.5), ("plateau", 1.5)]


@pytest.mark.parametrize("kind,alpha", GROWTH_CASES)
def test_criterion_7_growth_regime(kind, alpha):
    res = _growth_run(kind, alpha)
    verdict = classify_run(res.records)
    ok = verdict["verdict"] == "c1_growth" and verdict["growth_factor"] >= 5.0
    _report("7", ok,
            f"{kind} alpha={alpha}: {verdict['verdict']} with factor "
            f"{verdict['growth_factor']:.2f} (stop {res.stop_reason})")


@pytest.mark.parametrize("kind,alpha", UNATTAINABLE)
@pytest.mark.xfail(
    strict=True,
    reason="for alpha = 1.5 an unresolved layer at the vacuum point lifts "
           "the floor at t ~ 0.030 (n = 2048), before any fivefold gradient "
           "growth; adding eps <= 1e-7 to the data leaves the lift time "
           "unchanged, so roundoff does not cause it (see module docstring)")
def test_criterion_7_growth_regime_alpha_15(kind, alpha):
    res = _growth_run(kind, alpha)
    verdict = classify_run(res.records)
    ok = verdict["verdict"] == "c1_growth" and verdict["growth_factor"] >= 5.0
    _report("7", ok,
            f"{kind} alpha={alpha}: {verdict['verdict']} with factor "
            f"{verdict['growth_factor']:.2f}")


@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
def test_criterion_7_bounded_regime(alpha):
    grid = make_grid(N_FULL)
    rho0 = gen_positive_control(grid, 1.5)
    cfg = SolverConfig(alpha=alpha, n_points=N_FULL, t_end=2.0,
                       cfl=1.0 if alpha == 1.5 else 0.4,
                       snapshot_interval=0.02)
    res = run(rho0, cfg, observers=(make_observer(constants_for(alpha, rho0)),))
    verdict = classify_run(res.records)
    ok = res.stop_reason == "t_end" and verdict["verdict"] == "c1_bounded"
    _report("7", ok,
            f"positive control alpha={alpha}: {verdict['verdict']} "
            f"(factor {verdict['growth_factor']:.3f}) over t_end=2")


# ------------------------------------------------------------- criterion 8

def test_criterion_8_alignment_consistency(alignment_pair):
    g_ratio = {}
    rho_diff = {}
    for n, (ares, mres) in alignment_pair.items():
        ratios = []
        for s in ares.states:
            dux = float(np.max(np.abs(spectral_derivative(s.u).values)))
            ratios.append(float(np.max(np.abs(s.G.values))) / max(dux, 1e-300))
        g_ratio[n] = max(ratios)
        times_a = [s.t for s in ares.states]
        times_m = [s.t for s in mres.states]
        common = min(len(times_a), len(times_m))
        assert abs(times_a[common - 1] - times_m[common - 1]) < 1e-12
        rho_diff[n] = float(np.max(np.abs(
            ares.states[common - 1].rho.values - mres.states[common - 1].rho.values)))
    floor = 1e-10
    improving = ((g_ratio[2048] <= g_ratio[1024] or g_ratio[2048] < floor)
                 and (rho_diff[2048] <= rho_diff[1024] or rho_diff[2048] < floor))
    ok = (g_ratio[1024] < 1e-6 and g_ratio[2048] < 1e-6
          and rho_diff[1024] < 1e-6 and rho_diff[2048] < 1e-6 and improving)
    _report("8", ok,
            f"|G|/|d_x u| = {g_ratio[1024]:.1e} (n=1024) -> {g_ratio[2048]:.1e} "
            f"(n=2048); rho trajectory gap {rho_diff[1024]:.1e} -> {rho_diff[2048]:.1e}")


# ------------------------------------------------------------- criterion 9

@pytest.mark.parametrize("alpha", (0.5, 1.0, 1.5))
def test_criterion_9_slab_reduction(alpha):
    rho0 = gen_cccf(make_grid(256))
    rep = slab_check_2d(rho0, alpha)
    ok = (rep.u2_max < 1e-12 and rep.u1_mismatch < 1e-12
          and rep.spectral_gap < 1e-12 and rep.real_space_rel_err < 1e-3)
    _report("9", ok,
            f"alpha={alpha}: max|u2| = {rep.u2_max:.1e}, u1 mismatch = "
            f"{rep.u1_mismatch:.1e}, gap = {rep.spectral_gap:.1e}, "
            f"plane-constant rel err = {rep.real_space_rel_err:.1e}")


# ------------------------------------------------------------ criterion 10

# (alpha, base step, t_end); at alpha = 1.5 the base step is ~5x the explicit
# dissipative limit 1/(rho_max (2 pi k_max)^alpha), so the order is that of
# the integrating-factor scheme on a stiff problem
TEMPORAL_ORDER_INPUTS = ((1.0, 1e-3, 0.05), (1.5, 1.6e-4, 0.0128))


def test_criterion_10_temporal_order():
    # both systems, the alignment system on G = 0 data
    grid = make_grid(256)
    rho0 = gen_positive_control(grid, 1.5)
    systems = {"run": run,
               "run_alignment": lambda rho0, cfg: run_alignment(
                   rho0, velocity_spectral(rho0, cfg.alpha), cfg)}
    for name, system in systems.items():
        for alpha, dt, t_end in TEMPORAL_ORDER_INPUTS:
            finals = {}
            for div in (1, 2, 4):
                cfg = SolverConfig(alpha=alpha, n_points=256, t_end=t_end,
                                   dt_fixed=dt / div, snapshot_interval=t_end)
                finals[div] = system(rho0, cfg).final_state.rho.values
            d1 = float(np.max(np.abs(finals[1] - finals[2])))
            d2 = float(np.max(np.abs(finals[2] - finals[4])))
            order = math.log2(d1 / d2)
            _report("10", abs(order - 4.0) <= 0.2,
                    f"{name}, alpha={alpha}, base dt {dt:g}: step-halving order "
                    f"{order:.3f} within 4.0 +/- 0.2")


def test_criterion_10_deterministic_reruns(tmp_path):
    from fpmflow.cli import main
    args = ["simulate", "--preset", "cccf", "--alpha", "1.0", "--n", "512",
            "--t-end", "0.04", "--snapshot-interval", "0.004", "--no-plots"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.glob("*.csv"))
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes()
                    for n in names)
    _report("10", identical and bool(names),
            f"{len(names)} CSV artifacts byte-identical across reruns")
