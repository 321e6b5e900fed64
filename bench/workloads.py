"""The benchmark's workloads: inputs, body, output check and fingerprint.

Every workload drives fpmflow from outside, through ``fpmflow.cli.main`` or
the public library functions, looked up on their modules at call time so
that the tracer's patches see them.  Each has a ``full`` profile (the sizes
the benchmark measures) and a ``tiny`` profile for the smoke test.

The output check never compares step counts or CSV bytes: a correct faster
integrator changes both.  It compares invariants, and fingerprints taken at
snapshot times against ``reference.json`` within ``FINGERPRINT_RTOL``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

MODULES = ("cli", "grid", "operators", "initial_data", "solver",
           "characteristics", "diagnostics", "extensions", "output")

# Loose enough for a different stable time integrator at these step sizes,
# tight enough that a wrong flux, symbol or quadrature shows.
FINGERPRINT_RTOL = 1e-6
FINGERPRINT_NODES = 16  # field samples per fingerprinted snapshot


def load_modules() -> dict:
    """Import every fpmflow module; short name -> module."""
    import importlib
    return {name: importlib.import_module(f"fpmflow.{name}") for name in MODULES}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict  # profile -> settings
    build: Callable  # (mods, cfg, seed) -> inputs dict
    body: Callable  # (mods, inputs, workdir) -> output
    check: Callable  # (inputs, output) -> list of failure strings
    fingerprint: Callable  # (inputs, output) -> {label: [t, values...]}


# ------------------------------------------------------------ shared helpers

def _common_inputs(mods, cfg, spec):
    grid = mods["grid"].make_grid(cfg["n"])
    rho0 = mods["initial_data"].make_initial_data(grid, spec)
    constants = mods["diagnostics"].constants_for(cfg["alpha"], rho0)
    config = mods["solver"].SolverConfig(
        alpha=cfg["alpha"], n_points=cfg["n"], t_end=cfg["t_end"],
        snapshot_interval=cfg.get("snapshot_interval"))
    return {"grid": grid, "rho0": rho0, "constants": constants,
            "config": config, "cfg": cfg}


def _cli_argv(command, preset, cfg):
    argv = [command, "--preset", preset, "--alpha", repr(cfg["alpha"]),
            "--n", str(cfg["n"]), "--t-end", repr(cfg["t_end"])]
    if cfg.get("snapshot_interval"):
        argv += ["--snapshot-interval", repr(cfg["snapshot_interval"])]
    return argv + list(cfg.get("extra", ()))


def _run_cli(mods, argv, workdir):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = mods["cli"].main(argv + ["--out", str(workdir)])
    return {"rc": rc, "stdout": out.getvalue(), "dir": Path(workdir)}


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body])
            for i, name in enumerate(header)}


def _node_samples(values):
    values = np.asarray(values)
    idx = np.linspace(0, len(values), FINGERPRINT_NODES, endpoint=False).astype(int)
    return [float(v) for v in values[idx]]


def _cli_fingerprint(output, snapshot_indices, columns):
    """Time-series columns and snapshot-file field samples at the given
    snapshot indices (the CLI writes every 10th snapshot file)."""
    series = _read_csv(output["dir"] / "timeseries.csv")
    fp = {}
    for i in snapshot_indices:
        row = [float(series[c][i]) for c in columns]
        snap = _read_csv(output["dir"] / f"snapshot_{i:04d}.csv")
        fp[f"snapshot_{i}"] = [float(series["t"][i])] + row \
            + _node_samples(snap["rho"]) + _node_samples(snap["u"])
    return fp


def compare_fingerprint(got: dict, ref: dict) -> list:
    """Failures of ``got`` against ``ref``: times to 1e-9, values to
    FINGERPRINT_RTOL relative to max(|ref|, 1)."""
    failures = []
    for label, want in ref.items():
        have = got.get(label)
        if have is None or len(have) != len(want):
            failures.append(f"fingerprint {label}: missing or wrong length")
            continue
        if abs(have[0] - want[0]) > 1e-9:
            failures.append(f"fingerprint {label}: t={have[0]!r}, want {want[0]!r}")
            continue
        worst = max(abs(h - w) / max(abs(w), 1.0) for h, w in zip(have[1:], want[1:]))
        if not worst <= FINGERPRINT_RTOL:
            failures.append(f"fingerprint {label}: relative gap {worst:.2e}")
    return failures


# ------------------------------------------------------------- verify-cccf

def _verify_build(mods, cfg, seed):
    spec = mods["initial_data"].InitialDataSpec(kind="cccf")
    return _common_inputs(mods, cfg, spec)


def _verify_body(mods, inputs, workdir):
    return _run_cli(mods, _cli_argv("verify", "cccf", inputs["cfg"]), workdir)


def _verify_check(inputs, output):
    failures = []
    if output["rc"] != 0:
        failures.append(f"exit code {output['rc']}")
    report = json.loads(output["stdout"])
    if report.get("all_ok") is not True:
        failures.append(f"verify report not all_ok: {report.get('checks')}")
    return failures


def _verify_fingerprint(inputs, output):
    return _cli_fingerprint(output, inputs["cfg"]["fingerprint_snapshots"],
                            ("mass", "rho_min", "rho_max", "c1_norm"))


# ---------------------------------------------------------- stiff-positive

def _stiff_build(mods, cfg, seed):
    spec = mods["initial_data"].InitialDataSpec(kind="positive_control")
    return _common_inputs(mods, cfg, spec)


def _stiff_body(mods, inputs, workdir):
    return _run_cli(mods, _cli_argv("simulate", "positive-control", inputs["cfg"]),
                    workdir)


def _t_end_reached(meta, t_end):
    failures = []
    if meta["stop_reason"] != "t_end":
        failures.append(f"stop_reason {meta['stop_reason']}, want t_end")
    if abs(meta["t_final"] - t_end) > 1e-12 * t_end:
        failures.append(f"t_final {meta['t_final']!r}, want {t_end!r}")
    return failures


def _stiff_check(inputs, output):
    failures = [] if output["rc"] == 0 else [f"exit code {output['rc']}"]
    meta = json.loads((output["dir"] / "metadata.json").read_text())
    failures += _t_end_reached(meta, inputs["cfg"]["t_end"])
    series = _read_csv(output["dir"] / "timeseries.csv")
    drift = float(np.max(np.abs(series["mass"] - series["mass"][0])))
    if not drift <= 1e-11:
        failures.append(f"mass drift {drift:.2e} > 1e-11")
    lo, hi = inputs["rho0"].values.min(), inputs["rho0"].values.max()
    slack = 1e-10 * hi
    if not (series["rho_min"].min() >= lo - slack
            and series["rho_max"].max() <= hi + slack):
        failures.append(f"rho left its initial range [{lo}, {hi}]: "
                        f"[{series['rho_min'].min()!r}, {series['rho_max'].max()!r}]")
    return failures


def _stiff_fingerprint(inputs, output):
    return _cli_fingerprint(output, inputs["cfg"]["fingerprint_snapshots"],
                            ("mass", "rho_min", "rho_max", "c1_norm"))


# ------------------------------------------------------------- paths-audit

# Path starts straddle the smallness radius delta = 1/6 (alpha = 1), so some
# decay bounds apply and some do not; audit points stay inside the vacuum
# interval |x| < 0.15, where every enhanced-bound link is applicable.
PATH_START_RANGE = (0.03, 0.30)
AUDIT_X_RANGE = (0.01, 0.12)
PAIR_DRIFT_TOL = 1e-5  # criterion 6


def _paths_build(mods, cfg, seed):
    spec = mods["initial_data"].InitialDataSpec(kind="vacuum_plateau")
    inputs = _common_inputs(mods, cfg, spec)
    inputs["params"] = mods["operators"].make_params(cfg["alpha"])
    rng = np.random.default_rng(seed)
    inputs["starts"] = [float(x) for x in
                        np.sort(rng.uniform(*PATH_START_RANGE, cfg["paths"]))]
    # snapshot draws are fractions of the snapshot list, whose length is
    # only known after the run
    inputs["audit"] = [(float(f), float(x)) for f, x in zip(
        rng.uniform(0.0, 1.0, cfg["audit_points"]),
        rng.uniform(*AUDIT_X_RANGE, cfg["audit_points"]))]
    return inputs


def _paths_body(mods, inputs, workdir):
    cons = inputs["constants"]
    diagnostics, characteristics = mods["diagnostics"], mods["characteristics"]
    result = mods["solver"].run(
        inputs["rho0"], inputs["config"],
        observers=(diagnostics.make_observer(cons),))
    paths = [characteristics.advect_path(result.states, x) for x in inputs["starts"]]
    decay = [characteristics.check_decay_bound(p, cons.A, cons.m, delta=cons.delta)
             for p in paths]
    drift = characteristics.check_mass_transport(paths[0], paths[-1], result.states)
    audits = []
    for frac, x in inputs["audit"]:
        state = result.states[min(int(frac * len(result.states)),
                                  len(result.states) - 1)]
        audits.append(diagnostics.verify_enhanced_bound_derivation(
            state.rho, inputs["params"], x, cons.m, cons.rho_max))
    return {"result": result, "decay": decay, "drift": drift, "audits": audits}


def _paths_check(inputs, output):
    failures = [f"decay bound fails for path from {x}: margin {r.margin:.2e}"
                for x, r in zip(inputs["starts"], output["decay"])
                if r.applicable and not r.holds]
    if not output["drift"] <= PAIR_DRIFT_TOL:
        failures.append(f"pair mass drift {output['drift']:.2e} > {PAIR_DRIFT_TOL}")
    failures += [f"enhanced bound at x={x}: {r}"
                 for (_, x), r in zip(inputs["audit"], output["audits"])
                 if not r.all_ok]
    return failures


def _paths_fingerprint(inputs, output):
    states = output["result"].states
    return {f"snapshot_{i}": [states[i].t] + _node_samples(states[i].rho.values)
            + _node_samples(states[i].u.values)
            for i in inputs["cfg"]["fingerprint_snapshots"]}


# ------------------------------------------------------------------- align

ALIGN_G_TOL = 1e-8  # max |G| on G = 0 data; it stays near 1e-10 here


def _align_build(mods, cfg, seed):
    spec = mods["initial_data"].InitialDataSpec(kind="cccf")
    return _common_inputs(mods, cfg, spec)


def _align_body(mods, inputs, workdir):
    return _run_cli(mods, _cli_argv("align", "cccf", inputs["cfg"]), workdir)


def _align_check(inputs, output):
    failures = [] if output["rc"] == 0 else [f"exit code {output['rc']}"]
    meta = json.loads((output["dir"] / "metadata.json").read_text())
    failures += _t_end_reached(meta, inputs["cfg"]["t_end"])
    series = _read_csv(output["dir"] / "alignment_timeseries.csv")
    g = float(np.max(series["g_norm"]))
    if not g <= ALIGN_G_TOL:
        failures.append(f"max |G| {g:.2e} > {ALIGN_G_TOL}")
    return failures


def _align_fingerprint(inputs, output):
    series = _read_csv(output["dir"] / "alignment_timeseries.csv")
    return {f"snapshot_{i}": [float(series[c][i]) for c in ("t", "rho_min", "rho_max")]
            for i in inputs["cfg"]["fingerprint_snapshots"]}


# ---------------------------------------------------------------- registry

WORKLOADS = {w.name: w for w in (
    Workload(
        name="verify-cccf",
        why="the criterion-5 certify run users run most; only workload where "
            "output writing and observers are a visible share",
        configs={
            "full": dict(alpha=1.0, n=2048, t_end=0.25, snapshot_interval=1e-3,
                         fingerprint_snapshots=(10, 50, 100)),
            "tiny": dict(alpha=1.0, n=128, t_end=0.02, snapshot_interval=2e-3,
                         fingerprint_snapshots=(0, 10)),
        },
        build=_verify_build, body=_verify_body, check=_verify_check,
        fingerprint=_verify_fingerprint),
    Workload(
        name="stiff-positive",
        why="dissipative step limit binds and the solver is ~99% of the work; "
            "time-stepping changes show here",
        configs={
            # t_end 0.03 (16k steps, ~6 s) left 2-3 bodies per run, too few
            # for a steady median; 0.01 keeps the same step limit and peak
            "full": dict(alpha=1.5, n=1024, t_end=0.01, extra=("--no-plots",),
                         fingerprint_snapshots=(50, 100, 200)),
            "tiny": dict(alpha=1.5, n=128, t_end=0.01, extra=("--no-plots",),
                         fingerprint_snapshots=(100, 200)),
        },
        build=_stiff_build, body=_stiff_body, check=_stiff_check,
        fingerprint=_stiff_fingerprint),
    Workload(
        name="paths-audit",
        why="characteristic paths and kernel-route audits dominate via "
            "evaluate_trig; the solver is ~2%, so solver changes leave it flat",
        configs={
            "full": dict(alpha=1.0, n=1024, t_end=0.05, snapshot_interval=2e-4,
                         paths=8, audit_points=6, fingerprint_snapshots=(10, 30)),
            # the plateau's transitions need n = 1024 to start resolved
            "tiny": dict(alpha=1.0, n=1024, t_end=0.001, snapshot_interval=2e-4,
                         paths=2, audit_points=1, fingerprint_snapshots=(5,)),
        },
        build=_paths_build, body=_paths_body, check=_paths_check,
        fingerprint=_paths_fingerprint),
    Workload(
        name="align",
        why="two coupled fields stepped by the alignment system's own loop; "
            "merging the stepping drivers must not slow it",
        configs={
            "full": dict(alpha=1.0, n=2048, t_end=0.1, snapshot_interval=5e-3,
                         fingerprint_snapshots=(5, 10, 20)),
            "tiny": dict(alpha=1.0, n=128, t_end=0.01, snapshot_interval=2e-3,
                         fingerprint_snapshots=(2, 5)),
        },
        build=_align_build, body=_align_body, check=_align_check,
        fingerprint=_align_fingerprint),
)}


def check_output(workload: Workload, inputs, output, reference) -> list:
    """All failures of one body's output: invariants, then fingerprints."""
    failures = workload.check(inputs, output)
    if reference is None:
        return failures + ["no reference fingerprint"]
    return failures + compare_fingerprint(workload.fingerprint(inputs, output),
                                          reference)
