"""Command-line front end: run experiments, verify estimate invariants,
track characteristics, run the alignment system, check the slab reduction,
print calibrated constants, and sweep parameters.

Configs are flat key = value files (TOML-compatible scalars); command-line
flags override file values.  Exit codes: 0 success, 1 malformed config or
flag value, 2 invariant failure in verify mode, 3 stopped under-resolved when
the run was required to reach t_end.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .characteristics import advect_path, check_decay_bound, check_mass_transport
from .diagnostics import classify_run, constants_for, make_observer
from .extensions import run_alignment, slab_check_2d
from .grid import make_grid, spectral_derivative
from .initial_data import InitialDataSpec, make_initial_data, validate_hypotheses
from .operators import (compute_A, compute_C, compute_delta, kernel_tail_bound,
                        make_params, velocity_spectral)
from .output import fmt, write_csv, write_metadata, write_snapshot, write_timeseries
from .solver import SolverConfig, run
from .svgplot import line_chart

PRESETS = ("cccf", "vacuum-plateau", "positive-control", "smooth-monotone")


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    """Parse a flat key = value file; values are TOML-style scalars."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        out[key] = _parse_scalar(value)
    return out


def _parse_scalar(text: str):
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    if (text.startswith('"') and text.endswith('"')) or \
       (text.startswith("'") and text.endswith("'")):
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


# (key, flag, type, default) per run key; a tuple type lists the allowed names
RUN_KEYS = (
    ("preset", "--preset", PRESETS, "cccf"),
    ("alpha", "--alpha", float, 1.0),
    ("n_points", "--n", int, 1024),
    ("t_end", "--t-end", float, 0.5),
    ("cfl", "--cfl", float, 0.4),
    ("dealias_fraction", "--dealias-fraction", float, 2.0 / 3.0),
    ("tail_threshold", "--tail-threshold", float, 1e-8),
    ("snapshot_interval", "--snapshot-interval", float, None),
    ("max_steps", "--max-steps", int, 20_000_000),
    ("rho_max", "--rho-max", float, 2.0),
    ("x0", "--x0", float, 0.15),
    ("width", "--width", float, 0.1),
    ("offset", "--offset", float, 1.5),
    ("require_t_end", "--require-t-end", bool, False),
)
_TYPES = {key: kind for key, _, kind, _ in RUN_KEYS}


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", type=str, help="flat key = value config file")
    for key, flag, kind, _ in RUN_KEYS:
        how = ({"action": "store_true"} if kind is bool else
               {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
        p.add_argument(flag, dest=key, default=None, **how)
    p.add_argument("--no-plots", action="store_true")
    p.add_argument("--snapshot-stride", type=int, default=10,
                   help="write every k-th snapshot CSV")
    p.add_argument("--out", type=str, default="out")


def _typed(key: str, value):
    """value, if key is a run key and value has its type; a float key also
    takes an int, and no number key takes a bool."""
    kind = _TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    ok = (value in kind if isinstance(kind, tuple) else
          type(value) is kind or (kind is float and type(value) is int))
    if not ok:
        name = "one of " + ", ".join(kind) if isinstance(kind, tuple) else kind.__name__
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    return value


def _settings(args) -> dict:
    settings = {key: default for key, _, _, default in RUN_KEYS}
    if args.config:
        cfg = load_config(args.config)
        settings.update((key, _typed(key, value)) for key, value in cfg.items())
    flags = vars(args)
    settings.update((key, flags[key]) for key in _TYPES if flags[key] is not None)
    return settings


def _fields_of(cls, settings) -> dict:
    """The settings whose run key names a field of the dataclass cls."""
    return {f.name: settings[f.name] for f in fields(cls) if f.name in settings}


def _inputs(settings):
    """Initial data and solver config from settings.  A value that the grid,
    the initial data or SolverConfig rejects is a config error."""
    try:
        grid = make_grid(settings["n_points"])
        spec = InitialDataSpec(kind=settings["preset"].replace("-", "_"),
                               transition_width=settings["width"],
                               **_fields_of(InitialDataSpec, settings))
        config = SolverConfig(**_fields_of(SolverConfig, settings))
        return make_initial_data(grid, spec), config
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _execute(settings):
    rho0, config = _inputs(settings)
    constants = constants_for(settings["alpha"], rho0)
    t0 = time.time()
    result = run(rho0, config, observers=(make_observer(constants),))
    wall = time.time() - t0
    return rho0, config, constants, result, wall


def _finish(settings, out_dir, result, wall, **extra) -> int:
    """Write the run's metadata.json and return its exit code: 3 if it
    stopped under-resolved when required to reach t_end, else 0."""
    write_metadata(out_dir / "metadata.json", {
        "settings": settings, "stop_reason": result.stop_reason,
        "wall_time": wall, "steps": result.telemetry["steps"],
        "t_final": result.final_state.t, "run": result.telemetry, **extra,
    })
    return 3 if settings["require_t_end"] and result.stop_reason == "under_resolved" else 0


def _write_artifacts(settings, args, result, wall) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_timeseries(out_dir / "timeseries.csv", result.records)
    for i, state in enumerate(result.states):
        if i % max(1, args.snapshot_stride) == 0 or i == len(result.states) - 1:
            write_snapshot(out_dir / f"snapshot_{i:04d}.csv", state)
    if not args.no_plots:
        xs = result.states[0].rho.grid.nodes
        picks = result.states[:: max(1, len(result.states) // 6)]
        line_chart([(xs, s.rho.values, f"t={s.t:.4g}") for s in picks],
                   out_dir / "rho_snapshots.svg", title="density snapshots",
                   xlabel="x", ylabel="rho")
        ts = [r.t for r in result.records]
        line_chart([(ts, [r.c1_norm for r in result.records], "max |d_x rho|")],
                   out_dir / "c1_norm.svg", title="gradient norm",
                   xlabel="t", ylabel="c1", logy=True)
    return _finish(settings, out_dir, result, wall)


def cmd_simulate(args) -> int:
    settings = _settings(args)
    rho0, config, constants, result, wall = _execute(settings)
    code = _write_artifacts(settings, args, result, wall)
    print(f"stop_reason={result.stop_reason} t={result.final_state.t:.6g} "
          f"steps={result.final_state.step_count} artifacts in {args.out}")
    return code


_INVARIANT_TOLS = dict(mass_drift=1e-11, rho_min=1e-8, rho_max=1e-8,
                       monotonicity=1e-6, velocity_sign=1e-8,
                       enhanced_margin=1e-6)


def check_invariants(records, constants, tail_threshold,
                     monotone_data: bool = True) -> dict:
    """Per-invariant margins over the resolved window of a record series.

    The sign and monotonicity estimates only apply to even monotone data;
    for other data they are reported informationally but not enforced.
    """
    resolved = [r for r in records if r.tail_fraction <= tail_threshold]
    if not resolved:
        return {"resolved_records": 0, "all_ok": False}
    m0 = resolved[0].mass
    rho_max0 = constants.rho_max
    tol = _INVARIANT_TOLS
    margins = {
        "mass_drift": max(abs(r.mass - m0) for r in resolved),
        "rho_min": min(r.rho_min for r in resolved),
        "rho_max": max(r.rho_max for r in resolved),
        "zeta_min_over_c1": min(r.zeta_min_half / max(r.c1_norm, 1e-300)
                                for r in resolved),
        "u_max_on_delta": max(r.u_max_on_delta for r in resolved),
        "enhanced_margin": max(r.enhanced_margin for r in resolved),
    }
    checks = {
        "mass_drift": margins["mass_drift"] <= tol["mass_drift"],
        "rho_min": margins["rho_min"] >= -tol["rho_min"] * rho_max0,
        "rho_max": margins["rho_max"] <= rho_max0 * (1 + tol["rho_max"]),
    }
    if monotone_data:
        checks.update({
            "monotonicity": margins["zeta_min_over_c1"] >= -tol["monotonicity"],
            "velocity_sign": margins["u_max_on_delta"] <= tol["velocity_sign"],
            "enhanced_margin": margins["enhanced_margin"] <= tol["enhanced_margin"],
        })
    return {"resolved_records": len(resolved), "checks": checks,
            "margins": margins, "all_ok": all(checks.values())}


def cmd_verify(args) -> int:
    settings = _settings(args)
    rho0, config, constants, result, wall = _execute(settings)
    hyp = validate_hypotheses(rho0)
    report = check_invariants(result.records, constants, config.tail_threshold,
                              monotone_data=hyp.h1 and hyp.h3)
    report["hypotheses"] = {"h1": hyp.h1, "h2": hyp.h2, "h3": hyp.h3}
    report["stop_reason"] = result.stop_reason
    report["verdict"] = classify_run(result.records) if len(result.records) >= 10 else None
    code = _write_artifacts(settings, args, result, wall)
    print(json.dumps(report, indent=2, default=str))
    return code if report["all_ok"] else 2


def cmd_characteristics(args) -> int:
    settings = _settings(args)
    out_dir = Path(args.out)
    try:
        starts = [float(s) for s in args.x_start.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--x-start: {exc}") from exc
    rho0, config, constants, result, wall = _execute(settings)
    if len(result.states) < 2:
        raise ConfigError(
            f"run stopped {result.stop_reason} at t = {result.final_state.t:.6g} "
            f"with {len(result.states)} snapshot(s); paths need at least two")
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [advect_path(result.states, xs) for xs in starts]
    for xs, path in zip(starts, paths):
        bound = path.x_start * np.exp(-constants.A * path.times)
        rows = zip(path.times, path.positions, path.mass_along, bound)
        write_csv(out_dir / f"path_{xs:+.4f}.csv".replace("+", ""),
                  ("t", "X", "mass_along", "decay_bound"), rows)
    reports = [check_decay_bound(p, constants.A, constants.m,
                                 delta=constants.delta) for p in paths]
    summary = {"decay_reports": [r.__dict__ for r in reports], "pair_mass_drift": None}
    if len(paths) >= 2:
        summary["pair_mass_drift"] = check_mass_transport(paths[0], paths[1], result.states)
    code = _finish(settings, out_dir, result, wall, x_start=starts, **summary)
    print(json.dumps(summary, indent=2, default=str))
    return code


def cmd_align(args) -> int:
    settings = _settings(args)
    out_dir = Path(args.out)
    rho0, config = _inputs(settings)
    out_dir.mkdir(parents=True, exist_ok=True)
    u0 = velocity_spectral(rho0, config.alpha)
    t0 = time.time()
    result = run_alignment(rho0, u0, config)
    wall = time.time() - t0
    rows = []
    for s in result.states:
        g_norm = float(np.max(np.abs(s.G.values)))
        dux = float(np.max(np.abs(spectral_derivative(s.u).values)))
        rows.append((s.t, float(s.rho.values.min()), float(s.rho.values.max()),
                     g_norm, g_norm / max(dux, 1e-300)))
    write_csv(out_dir / "alignment_timeseries.csv",
              ("t", "rho_min", "rho_max", "g_norm", "g_over_dux"), rows)
    code = _finish(settings, out_dir, result, wall)
    print(f"stop_reason={result.stop_reason} records={len(result.states)} "
          f"max g_norm={max(r[3] for r in rows):.3e}")
    return code


def cmd_reduce(args) -> int:
    settings = _settings(args)
    rho0, _ = _inputs(settings)
    report = slab_check_2d(rho0, settings["alpha"])
    payload = {
        "alpha": settings["alpha"], "n": settings["n_points"],
        "u2_max": report.u2_max, "u1_mismatch": report.u1_mismatch,
        "c_prime": report.c_prime_value,
        "real_space_ratio": report.real_space_ratio,
        "real_space_rel_err": report.real_space_rel_err,
        "spectral_gap": report.spectral_gap,
    }
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_metadata(out_dir / "slab_report.json", payload)
    print(json.dumps(payload, indent=2))
    return 0


def cmd_constants(args) -> int:
    try:
        params = make_params(args.alpha, kernel_truncation=args.images,
                             quadrature_points=args.quadrature_points)
        payload = {
            "alpha": args.alpha,
            "c_alpha": params.c_alpha,
            "c_velocity": params.c_velocity,
            "C": compute_C(args.alpha),
            "delta": compute_delta(args.alpha),
            "A": compute_A(args.alpha, args.m, args.rho_max),
            "image_truncation": params.kernel_truncation,
            "truncation_tail_bound": kernel_tail_bound(params, args.rho_max),
        }
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(json.dumps(payload, indent=2))
    return 0


def cmd_sweep(args) -> int:
    settings = _settings(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    axis = args.axis
    values = [_parse_scalar(v) for v in args.values.split(",")] if args.values else []
    rows = []
    for value in values:
        row_settings = dict(settings)
        try:
            row_settings[axis] = _typed(axis, value)
            rho0, config, constants, result, wall = _execute(row_settings)
            if len(result.records) >= 10:
                verdict = classify_run(result.records)
            else:
                verdict = {"verdict": "inconclusive", "growth_factor": math.nan}
            inv = check_invariants(result.records, constants, config.tail_threshold)
            rows.append((value, verdict["verdict"], verdict["growth_factor"],
                         result.stop_reason, result.final_state.t,
                         inv["margins"]["rho_min"] if inv.get("margins") else math.nan,
                         inv["margins"]["u_max_on_delta"] if inv.get("margins") else math.nan,
                         "" if inv["all_ok"] else "invariant_failure"))
        except Exception as exc:  # keep sweeping, record the failure
            rows.append((value, "error", math.nan, "error", math.nan,
                         math.nan, math.nan, f"{type(exc).__name__}: {exc}"))
    header = (axis, "verdict", "growth_factor", "stop_reason", "t_final",
              "rho_min", "u_max_on_delta", "note")
    path = out_dir / "sweep.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([str(row[0]), str(row[1]),
                             fmt(row[2]) if isinstance(row[2], float) else str(row[2]),
                             str(row[3]), fmt(row[4]), fmt(row[5]), fmt(row[6]),
                             str(row[7])])
    print(f"sweep table: {path} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpmflow",
        description="pseudo-spectral runs and estimate verification for the "
                    "1D nonlocal continuity flow")
    sub = parser.add_subparsers(dest="command", required=True)
    runs = {}
    for name, func, text in (
            ("simulate", cmd_simulate, "run and write artifacts"),
            ("verify", cmd_verify, "run and check estimate invariants"),
            ("characteristics", cmd_characteristics, "run and trace characteristic paths"),
            ("align", cmd_align, "run the coupled alignment system"),
            ("reduce", cmd_reduce, "2D slab reduction checks"),
            ("sweep", cmd_sweep, "sweep one parameter, one run per value")):
        runs[name] = p = sub.add_parser(name, help=text)
        _add_run_flags(p)
        p.set_defaults(func=func)
    runs["characteristics"].add_argument("--x-start", type=str, default="0.05,0.25",
                                         help="comma-separated start points")
    runs["sweep"].add_argument("--axis", choices=("alpha", "n_points", "x0", "offset"),
                               required=True)
    runs["sweep"].add_argument("--values", type=str, required=True,
                               help="comma-separated values")

    p = sub.add_parser("constants", help="print calibrated constants as JSON")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--rho-max", type=float, default=2.0, dest="rho_max")
    p.add_argument("--images", type=int, default=64)
    p.add_argument("--quadrature-points", type=int, default=64,
                   dest="quadrature_points")
    p.set_defaults(func=cmd_constants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
