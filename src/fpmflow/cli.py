"""Command-line front end: run experiments, verify estimate invariants,
track characteristics, run the alignment system, check the slab reduction,
print the derived constants, and sweep parameters.

Configs are flat key = value files (TOML-compatible scalars); command-line
flags override file values.  Exit codes: 0 success, 1 a usage error, a bad
config or flag value or an --out that cannot be made, 2 invariant failure in
verify mode, 3 stopped before t_end when the run was required to reach it.

The argument parser is built once, at import, and every `main` call reuses
it.
"""

from __future__ import annotations

import argparse
import math
import operator
import os
import shutil
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .characteristics import PathTracer, check_decay_bound, check_mass_transport
from .diagnostics import classify_run, constants_for, make_observer
from .extensions import run_alignment, slab_check_2d
from .grid import make_grid, spectral_derivative
from .initial_data import KINDS, InitialDataSpec, make_initial_data, validate_hypotheses
from .operators import (compute_A, compute_C, compute_delta, fractional_laplacian_spectral,
                        make_params, velocity_spectral)
from .output import dumps, write_csv, write_metadata, write_snapshot, write_timeseries
from .solver import SolverConfig, run
from .svgplot import line_chart

PRESETS = tuple(kind.replace("_", "-") for kind in KINDS)
SNAPSHOT_STRIDE = 10  # write every 10th snapshot CSV, and the last


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser, and so its sub-parsers, whose usage errors are config errors."""

    def error(self, message):
        raise ConfigError(message)


def load_config(path) -> dict:
    """Parse a flat key = value file; values are TOML-style scalars."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    p.add_argument("--out", type=str, default="out")


def _typed(key: str, value):
    """value, if key is a run key and value has its type; a float key also
    takes an int, no number key takes a bool, and a float must be finite
    (metadata.json is strict JSON)."""
    kind = _TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    ok = (value in kind if isinstance(kind, tuple) else
          type(value) is kind or (kind is float and type(value) is int))
    if not ok:
        name = "one of " + ", ".join(kind) if isinstance(kind, tuple) else kind.__name__
        raise ConfigError(f"{key} must be {name}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return value


def _settings(args) -> dict:
    settings = {key: default for key, _, _, default in RUN_KEYS}
    if args.config:
        cfg = load_config(args.config)
        settings.update((key, _typed(key, value)) for key, value in cfg.items())
    flags = vars(args)
    settings.update((key, _typed(key, flags[key])) for key in _TYPES if flags[key] is not None)
    return settings


def _fields_of(cls, settings) -> dict:
    """The settings whose run key names a field of the dataclass cls."""
    return {f.name: settings[f.name] for f in fields(cls) if f.name in settings}


def _inputs(settings, stepped=True):
    """Initial data and solver config from settings.  A value that the grid,
    the initial data or SolverConfig rejects is a config error, and so is
    initial data whose mean, derivative or fractional Laplacian overflows,
    or, if the data are to be stepped, whose flux rho0 u0 does."""
    try:
        grid = make_grid(settings["n_points"])
        spec = InitialDataSpec(kind=settings["preset"].replace("-", "_"),
                               transition_width=settings["width"],
                               **_fields_of(InitialDataSpec, settings))
        config = SolverConfig(**_fields_of(SolverConfig, settings))
        rho0 = make_initial_data(grid, spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(rho0.mean):
            raise ConfigError("the initial density's mean overflows; "
                              "lower rho_max or offset")
        try:  # fields of the first snapshot's observers and of align's G, and
            # u0, whose multiplier is below Lambda^a's at every k
            spectral_derivative(rho0)
            fractional_laplacian_spectral(rho0, config.alpha)
            u0 = velocity_spectral(rho0, config.alpha).values
        except ValueError as exc:
            raise ConfigError("the initial density's derivative or fractional "
                              "Laplacian overflows; lower rho_max") from exc
        # the first stage's flux transform, not finite if rho0 u0 is not;
        # u scales with rho, so the product overflows first
        if stepped and not np.isfinite(np.fft.rfft(rho0.values * u0)).all():
            raise ConfigError("the initial flux rho u overflows; lower rho_max or offset")
    return rho0, config


def _out_dir(args) -> Path:
    """The --out directory, made before the first step; a config error if it cannot be."""
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: {exc}") from exc
    return out_dir


def _prepare(args):
    """A run command's settings, initial data, solver config and --out, checked in order."""
    settings = _settings(args)
    rho0, config = _inputs(settings, stepped=args.command != "reduce")
    return settings, rho0, config, _out_dir(args)


def _execute(rho0, config, out_dir=None, charted=None, observe=None):
    """Run rho0 with observe, by default the estimate observer.  With an
    out_dir, every SNAPSHOT_STRIDE-th snapshot CSV is written there as the
    run makes it, and the last snapshot after the run, so at most one
    unwritten snapshot is held; a list charted receives (t, rho values) of
    each one written.  Returns the constants, the RunResult, the run's wall
    time and the seconds spent writing snapshots, which wall_split's
    observers exclude."""
    try:
        constants = constants_for(config.alpha, rho0)
    except ValueError as exc:  # a mass that underflows to 0
        raise ConfigError(str(exc)) from exc
    if observe is None:
        observe = make_observer(constants)
    seen, unwritten, write_s = 0, None, 0.0  # snapshots seen; the latest, if not written

    def write(i, state):
        nonlocal write_s
        begin = time.perf_counter()
        write_snapshot(out_dir / f"snapshot_{i:04d}.csv", state)
        if charted is not None:
            charted.append((state.t, state.rho.values))
        write_s += time.perf_counter() - begin

    def keep(state):  # every SNAPSHOT_STRIDE-th snapshot now, the last after the run
        nonlocal seen, unwritten
        if seen % SNAPSHOT_STRIDE:
            unwritten = state
        else:
            write(seen, state)
            unwritten = None
        seen += 1
        return observe(state)

    t0 = time.perf_counter()
    try:
        result = run(rho0, config, observers=(observe if out_dir is None else keep,),
                     keep_states=False)
    except ValueError as exc:  # a step floor that underflows
        raise ConfigError(str(exc)) from exc
    wall = time.perf_counter() - t0
    result.wall_split["observers"] -= write_s
    if unwritten is not None:
        write(seen - 1, unwritten)
    return constants, result, wall, write_s


def _finish(settings, out_dir, result, wall, output_s, **extra) -> int:
    """Write the run's metadata.json and return its exit code: 3 if it
    stopped before t_end when required to reach it, else 0.  output_s
    is the seconds spent writing the other artifacts."""
    write_metadata(out_dir / "metadata.json", {
        "settings": settings, "stop_reason": result.stop_reason,
        "wall_time": wall, "wall_split": {**result.wall_split, "output": output_s},
        "steps": result.telemetry["steps"],
        "t_final": result.final_state.t, "run": result.telemetry, **extra,
    })
    return 3 if settings["require_t_end"] and result.stop_reason != "t_end" else 0


_INVARIANT_TOLS = dict(mass_drift=1e-11, rho_min=1e-8, rho_max=1e-8,
                       monotonicity=1e-6, velocity_sign=1e-8,
                       enhanced_margin=1e-6)


def check_invariants(records, constants, tail_threshold,
                     monotone_data: bool = True) -> dict:
    """Per-invariant margins over the resolved window of a record series,
    and for each failed check the first record that broke it (its t, its
    value and the bound it broke).

    The sign and monotonicity estimates only apply to even monotone data;
    for other data they are reported informationally but not enforced.
    """
    resolved = [r for r in records if r.tail_fraction <= tail_threshold]
    if not resolved:
        return {"resolved_records": 0, "all_ok": False}
    m0 = resolved[0].mass
    rho_max0 = constants.rho_max
    tol = _INVARIANT_TOLS
    series = {  # invariant: (margin name, per-record value, is an upper bound, bound)
        "mass_drift": ("mass_drift", lambda r: abs(r.mass - m0), True, tol["mass_drift"]),
        "rho_min": ("rho_min", lambda r: r.rho_min, False, -tol["rho_min"] * rho_max0),
        "rho_max": ("rho_max", lambda r: r.rho_max, True, rho_max0 * (1 + tol["rho_max"])),
        "monotonicity": ("zeta_min_over_c1",
                         lambda r: r.zeta_min_half / max(r.c1_norm, 1e-300), False,
                         -tol["monotonicity"]),
        "velocity_sign": ("u_max_on_delta", lambda r: r.u_max_on_delta, True,
                          tol["velocity_sign"]),
        "enhanced_margin": ("enhanced_margin", lambda r: r.enhanced_margin, True,
                            tol["enhanced_margin"]),
    }
    enforced = ("mass_drift", "rho_min", "rho_max")
    if monotone_data:
        enforced += ("monotonicity", "velocity_sign", "enhanced_margin")
    margins, checks, first_violation = {}, {}, {}
    for name, (key, value, upper, bound) in series.items():
        values = [value(r) for r in resolved]
        margins[key] = (max if upper else min)(values)
        if name not in enforced:
            continue
        holds = operator.le if upper else operator.ge
        checks[name] = holds(margins[key], bound)
        if not checks[name]:
            i = next(i for i, v in enumerate(values) if not holds(v, bound))
            first_violation[name] = {"t": resolved[i].t, "value": values[i],
                                     "tolerance": bound}
    if margins["enhanced_margin"] == -math.inf:  # nowhere applicable (null, passes)
        margins["enhanced_margin"] = None
    return {"resolved_records": len(resolved), "checks": checks,
            "margins": margins, "first_violation": first_violation,
            "all_ok": all(checks.values())}


def _certify(rho0, constants, config, result) -> dict:
    """verify's report, which sweep's rows read too: monotone checks on H1 and H3 data only."""
    hyp = validate_hypotheses(rho0)
    report = check_invariants(result.records, constants, config.tail_threshold,
                              monotone_data=hyp.h1 and hyp.h3)
    report["hypotheses"] = {"h1": hyp.h1, "h2": hyp.h2, "h3": hyp.h3}
    report["stop_reason"] = result.stop_reason
    resolved = [r for r in result.records if r.tail_fraction <= config.tail_threshold]
    report["verdict"] = classify_run(resolved) if len(resolved) >= 10 else None
    return report


def cmd_run(args) -> int:
    """simulate and verify: run with the estimate observer and write the
    snapshot CSVs, the timeseries, the charts unless --no-plots, and the
    metadata.  verify then prints its certificate and exits 2 if an
    invariant failed."""
    settings, rho0, config, out_dir = _prepare(args)
    charted = None if args.no_plots else []
    constants, result, wall, write_s = _execute(rho0, config, out_dir, charted)
    t0 = time.perf_counter()
    write_timeseries(out_dir / "timeseries.csv", result.records)
    if charted is not None:
        xs = result.final_state.rho.grid.nodes
        picks = charted[:: max(1, len(charted) // 6)]
        line_chart([(xs, rho, f"t={t:.4g}") for t, rho in picks],
                   out_dir / "rho_snapshots.svg", title="density snapshots",
                   xlabel="x", ylabel="rho")
        ts = [r.t for r in result.records]
        line_chart([(ts, [r.c1_norm for r in result.records], "max |d_x rho|")],
                   out_dir / "c1_norm.svg", title="gradient norm",
                   xlabel="t", ylabel="c1", logy=True)
    code = _finish(settings, out_dir, result, wall, write_s + time.perf_counter() - t0)
    if args.command == "simulate":
        print(f"stop_reason={result.stop_reason} t={result.final_state.t:.6g} "
              f"steps={result.final_state.step_count} artifacts in {args.out}")
        return code
    report = _certify(rho0, constants, config, result)
    print(dumps(report))
    return code if report["all_ok"] else 2


def cmd_characteristics(args) -> int:
    try:
        starts = [float(s) for s in args.x_start.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--x-start: {exc}") from exc
    if not all(-0.5 <= xs <= 0.5 for xs in starts):  # on the torus, so finite
        need = "lie in [-1/2, 1/2]" if all(map(math.isfinite, starts)) else "be finite"
        raise ConfigError(f"--x-start: start points must {need}, got {args.x_start!r}")
    names = {}  # path file name -> start, in start order
    for xs in starts:
        name = f"path_{xs:+.4f}.csv".replace("+", "")
        if name in names:
            raise ConfigError(f"--x-start: starts {names[name]!r} and {xs!r} "
                              f"would both write {name}")
        names[name] = xs
    settings, rho0, config, out_dir = _prepare(args)
    tracer = PathTracer(starts)
    constants, result, wall, _ = _execute(rho0, config, observe=tracer)
    if len(result.records) < 2:
        raise ConfigError(
            f"run stopped {result.stop_reason} at t = {result.final_state.t:.6g} "
            f"with {len(result.records)} snapshot(s); paths need at least two")
    paths = tracer.paths(result.records)
    t0 = time.perf_counter()
    for name, path in zip(names, paths):
        rows = np.column_stack((path.times, path.positions, path.mass_along,
                                path.decay_envelope(constants.A)))
        write_csv(out_dir / name, ("t", "X", "mass_along", "decay_bound"), rows)
    output_s = time.perf_counter() - t0
    reports = [check_decay_bound(p, constants.A, constants.m,
                                 delta=constants.delta) for p in paths]
    summary = {"decay_reports": [r.__dict__ for r in reports], "pair_mass_drift": None}
    if len(paths) >= 2:
        summary["pair_mass_drift"] = check_mass_transport(paths[0], paths[-1], result.records)
    code = _finish(settings, out_dir, result, wall, output_s, x_start=starts, **summary)
    print(dumps(summary))
    return code


def cmd_align(args) -> int:
    settings, rho0, config, out_dir = _prepare(args)
    u0 = velocity_spectral(rho0, config.alpha)

    def row(s):  # one alignment_timeseries.csv row per snapshot
        g_norm = float(np.max(np.abs(s.G.values)))
        dux = float(np.max(np.abs(spectral_derivative(s.u).values)))
        return (s.t, float(s.rho.values.min()), float(s.rho.values.max()),
                g_norm, g_norm / max(dux, 1e-300))

    t0 = time.perf_counter()
    try:
        result = run_alignment(rho0, u0, config, observers=(row,), keep_states=False)
    except ValueError as exc:  # a step floor that underflows
        raise ConfigError(str(exc)) from exc
    wall = time.perf_counter() - t0
    rows = np.array(result.records)
    t0 = time.perf_counter()
    write_csv(out_dir / "alignment_timeseries.csv",
              ("t", "rho_min", "rho_max", "g_norm", "g_over_dux"), rows)
    code = _finish(settings, out_dir, result, wall, time.perf_counter() - t0)
    print(f"stop_reason={result.stop_reason} records={len(rows)} "
          f"max g_norm={rows[:, 3].max():.3e}")
    return code


def cmd_reduce(args) -> int:
    settings, rho0, _, out_dir = _prepare(args)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            report = asdict(slab_check_2d(rho0, settings["alpha"]))
    except ValueError as exc:  # a Gauss-Jacobi node on its rule's singular end
        raise ConfigError(str(exc)) from exc
    if not all(map(math.isfinite, report.values())):
        # the (n, 8) strip's 2D FFT sums 8n values, so it overflows first
        raise ConfigError("the slab check's 2D transforms overflow; lower rho_max or offset")
    payload = {"alpha": settings["alpha"], "n": settings["n_points"], **report}
    if args.out:  # an empty --out writes no report
        write_metadata(out_dir / "slab_report.json", payload)
    print(dumps(payload))
    return 0


def cmd_constants(args) -> int:
    try:
        params = make_params(args.alpha)
        payload = {
            "alpha": args.alpha,
            "c_alpha": params.c_alpha,
            "c_velocity": params.c_velocity,
            "C": compute_C(args.alpha),
            "delta": compute_delta(args.alpha),
            "A": compute_A(args.alpha, args.m, args.rho_max),
        }
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(dumps(payload))
    return 0


def cmd_sweep(args) -> int:
    settings = _settings(args)
    out_dir = _out_dir(args)
    axis = args.axis
    values = [_parse_scalar(v) for v in args.values.split(",")] if args.values else []
    rows = []
    for value in values:
        try:
            rho0, config = _inputs({**settings, axis: _typed(axis, value)})
            constants, result, _, _ = _execute(rho0, config)
            report = _certify(rho0, constants, config, result)
            verdict = report["verdict"] or dict(verdict="inconclusive", growth_factor=math.nan)
            margins = report.get("margins", {})
            rows.append((str(value), verdict["verdict"], verdict["growth_factor"],
                         result.stop_reason, result.final_state.t,
                         *(margins.get(k, math.nan) for k in ("rho_min", "u_max_on_delta")),
                         "" if report["all_ok"] else "invariant_failure"))
        except Exception as exc:  # keep sweeping, record the failure
            rows.append((str(value), "error", math.nan, "error", math.nan,
                         math.nan, math.nan, f"{type(exc).__name__}: {exc}"))
    header = (axis, "verdict", "growth_factor", "stop_reason", "t_final",
              "rho_min", "u_max_on_delta", "note")
    path = out_dir / "sweep.csv"
    write_csv(path, header, rows)
    print(f"sweep table: {path} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fpmflow",
        description="pseudo-spectral runs and estimate verification for the "
                    "1D nonlocal continuity flow")
    sub = parser.add_subparsers(dest="command", required=True)
    runs = {}
    for name, func, text in (
            ("simulate", cmd_run, "run and write artifacts"),
            ("verify", cmd_run, "run and check estimate invariants"),
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

    p = sub.add_parser("constants", help="print the derived constants as JSON")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--rho-max", type=float, default=2.0, dest="rho_max")
    p.set_defaults(func=cmd_constants)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    new_out = False
    try:
        args = _PARSER.parse_args(argv)
        new_out = getattr(args, "out", "") and not os.path.exists(args.out)
        return args.func(args)
    except ConfigError as exc:
        if new_out:  # a run refused after its --out was made leaves none behind
            shutil.rmtree(args.out, ignore_errors=True)
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
