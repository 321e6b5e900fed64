#!/usr/bin/env python3
"""Benchmark for fpmflow: end-to-end timings per workload, or per-layer
metrics from a traced run.

    python3 bench/run.py --workload verify-cccf --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all        # every workload, one table

Run from the root of a source checkout; fpmflow is imported from ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_mib``); with ``--trace 1`` the per-layer ones.  Details, spans and
the environment go to ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NPROC = os.cpu_count() or 1

# BLAS and OpenMP pools are sized before numpy loads.  One thread: fpmflow's
# only BLAS work is evaluate_trig's matrix-vector products, which a second
# thread does not speed up, and a spinning second OpenBLAS thread made them
# ~3x slower whenever the other core was busy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_mib": "MiB"}
SETUP_PROBES = 3  # set-up is timed in this many fresh interpreters


# per-layer metrics besides "<layer>.self_s" for every layer
LAYER_METRIC_UNITS = {
    "solver.steps": "count",
    "solver.us_per_step": "us",
    "solver.fft_per_step": "count",
    "diagnostics.observe_calls": "count",
    "diagnostics.observe_us": "us",
    "diagnostics.enhanced_bound_s": "s",
    "operators.kernel_calls": "count",
    "operators.kernel_s": "s",
    "operators.trig_evals_per_kernel_call": "count",
    "operators.make_params_s": "s",
    "initial_data.s": "s",
    "grid.evaluate_trig_calls": "count",
    "grid.evaluate_trig_points": "count",
    "grid.evaluate_trig_s": "s",
    "characteristics.advect_s": "s",
    "characteristics.paths": "count",
    "output.write_s": "s",
    "output.files": "count",
    "output.bytes": "bytes",
    "extensions.run_alignment_s": "s",
    "extensions.fft_calls": "count",
    "fft.calls": "count",
    "fft.s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def import_fpmflow():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import fpmflow  # noqa: F401  (the first import is part of set-up)
    sys.path.insert(0, str(HERE))
    import workloads
    return workloads, workloads.load_modules()


def setup_probe(name: str, profile: str, seed: int) -> int:
    """Child process: time the first import and the building of the inputs."""
    start = time.perf_counter()
    workloads, mods = import_fpmflow()
    wl = workloads.WORKLOADS[name]
    wl.build(mods, wl.configs[profile], seed)
    print(repr(time.perf_counter() - start))
    return 0


def time_setup(name: str, profile: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--profile", profile, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def dir_size(path: Path):
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class Session:
    """One workload measured in this process."""

    def __init__(self, name, profile, seed):
        self.workloads, self.mods = import_fpmflow()
        self.wl = self.workloads.WORKLOADS[name]
        self.profile = profile
        self.seed = seed
        ref = json.loads((HERE / "reference.json").read_text())
        self.reference = ref.get(profile, {}).get(name)
        self.inputs = None
        self.attempted = 0
        self.failures = []  # (attempt number, messages)
        self.last_output_size = (0, 0)

    def build(self):
        self.inputs = self.wl.build(self.mods, self.wl.configs[self.profile],
                                    self.seed)

    def attempt(self, tracer=None, after_body=None):
        """Run the body once and check its output; ``after_body`` is called
        between the two.  Returns the body's wall time in seconds."""
        self.attempted += 1
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
        try:
            start = time.perf_counter()
            if tracer is None:
                output = self.wl.body(self.mods, self.inputs, workdir)
            else:
                with tracer.installed(self.mods), tracer.span("bench.body"):
                    output = self.wl.body(self.mods, self.inputs, workdir)
            elapsed = time.perf_counter() - start
            if after_body is not None:
                after_body()
            self.last_output_size = dir_size(workdir)
            problems = self.workloads.check_output(self.wl, self.inputs, output,
                                                   self.reference)
        except Exception:  # an operation that fails counts, the run goes on
            elapsed = float("nan")
            problems = [traceback.format_exc()]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if problems:
            self.failures.append((self.attempted, problems))
            for p in problems:
                print(f"[{self.wl.name}] check failed: {p}", file=sys.stderr)
        return elapsed

    def peak_mib(self):
        """Peak traced allocation of one body, in its own untimed pass."""
        import tracemalloc
        peaks = []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            self.attempt(after_body=lambda: peaks.append(
                tracemalloc.get_traced_memory()[1]))
        finally:
            tracemalloc.stop()
        if not peaks:
            raise RuntimeError("the memory pass raised; no peak to report")
        return (peaks[0] - base) / 2**20


def finite(samples):
    """Drop the NaN times of bodies that raised; fail if none is left."""
    kept = [s for s in samples if s == s]
    if not kept:
        raise RuntimeError("every body raised; nothing to report")
    return kept


def timed_loop(seconds, body):
    """Call ``body`` until ``seconds`` have passed (at least once)."""
    deadline = time.perf_counter() + seconds
    body()
    while time.perf_counter() < deadline:
        body()


def measure_end_to_end(name, profile, seed, seconds):
    from calibrate import REFERENCE_S, SpeedProbe
    setup = time_setup(name, profile, seed)
    session = Session(name, profile, seed)
    session.build()
    probe = SpeedProbe()
    peak = session.peak_mib()  # doubles as the warm-up
    walls, probes = [], [probe()]

    def probed_body():
        walls.append(session.attempt())
        probes.append(probe())

    timed_loop(seconds, probed_body)
    # each body scaled by the machine speed measured just before and after it
    normalised = finite([REFERENCE_S * w / ((before + after) / 2)
                         for w, before, after in zip(walls, probes, probes[1:])])
    metrics = {"wall_s": statistics.median(normalised),
               "setup_s": statistics.median(setup),
               "peak_mib": peak}
    details = {"wall_samples": normalised, "raw_wall_samples": walls,
               "raw_wall_median_s": statistics.median(finite(walls)),
               "probe_samples": probes, "setup_samples": setup}
    tail = tail_percentile(normalised)
    if tail:
        details["wall_tail"] = tail
    return session, metrics, details


def tail_percentile(samples):
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    ordered = sorted(samples)
    return {"percentile": pct,
            "value_s": ordered[min(n - 1, int(pct / 100 * n))],
            "samples": n}


def layer_metrics(tracer, wall, output_size):
    """Per-layer metrics of one traced body."""
    m = {f"{layer}.self_s": s for layer, s in tracer.self_times().items()}
    steps = tracer.steps
    m["solver.steps"] = steps
    m["solver.us_per_step"] = 1e6 * m["solver.self_s"] / steps if steps else 0.0
    run_ffts = tracer.fft_within["solver.run"] - tracer.fft_within["diagnostics.observe"]
    m["solver.fft_per_step"] = run_ffts / steps if steps else 0.0
    calls, secs = tracer.inclusive("diagnostics.observe")
    m["diagnostics.observe_calls"] = calls
    m["diagnostics.observe_us"] = 1e6 * secs / calls if calls else 0.0
    m["diagnostics.enhanced_bound_s"] = tracer.inclusive(
        "diagnostics.verify_enhanced_bound_derivation")[1]
    calls, secs = tracer.inclusive("operators.decompose_velocity")
    m["operators.kernel_calls"] = calls
    m["operators.kernel_s"] = secs
    inner = tracer.count_within("grid.evaluate_trig", "operators.decompose_velocity")
    m["operators.trig_evals_per_kernel_call"] = inner / calls if calls else 0.0
    calls, secs = tracer.inclusive("grid.evaluate_trig")
    m["grid.evaluate_trig_calls"] = calls
    m["grid.evaluate_trig_points"] = tracer.trig_points
    m["grid.evaluate_trig_s"] = secs
    calls, secs = tracer.inclusive("characteristics.advect_path")
    m["characteristics.advect_s"] = secs
    m["characteristics.paths"] = calls
    m["output.write_s"] = tracer.outermost_s("output")
    m["output.files"], m["output.bytes"] = output_size
    m["extensions.run_alignment_s"] = tracer.inclusive("extensions.run_alignment")[1]
    m["extensions.fft_calls"] = tracer.fft_within["extensions.run_alignment"]
    m["fft.calls"] = tracer.fft_calls
    m["fft.s"] = tracer.fft_s
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - sum(tracer.self_times().values())
    return m


def measure_per_layer(name, profile, seed, seconds):
    from tracer import Tracer
    session = Session(name, profile, seed)
    setup_tracer = Tracer()
    with setup_tracer.installed(session.mods):
        session.build()
    session.attempt()  # warm-up
    traced, untraced, per_body, last = [], [], [], None

    def traced_then_untraced():
        nonlocal last
        tracer = Tracer()
        wall = session.attempt(tracer)
        if wall == wall:
            traced.append(wall)
            per_body.append(layer_metrics(tracer, wall, session.last_output_size))
            last = tracer
        untraced.append(session.attempt())

    timed_loop(seconds, traced_then_untraced)
    traced, base = finite(traced), finite(untraced)
    metrics = {key: statistics.median(body[key] for body in per_body)
               for key in per_body[0]}
    metrics["operators.make_params_s"] = setup_tracer.inclusive(
        "operators.make_params")[1]
    metrics["initial_data.s"] = setup_tracer.inclusive(
        "initial_data.make_initial_data")[1]
    metrics["trace.overhead_frac"] = min(traced) / min(base) - 1
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{name}-seed{seed}.spans.jsonl"
    last.dump(spans_path)
    details = {"traced_samples": traced, "untraced_samples": untraced,
               "spans": str(spans_path.relative_to(ROOT))}
    return session, metrics, details


def run_workload(name, args):
    if args.trace:
        session, metrics, details = measure_per_layer(
            name, args.profile, args.seed, args.seconds)
        units = {f"{layer}.self_s": "s" for layer in session.workloads.MODULES}
        units.update(LAYER_METRIC_UNITS)
    else:
        session, metrics, details = measure_end_to_end(
            name, args.profile, args.seed, args.seconds)
        units = END_TO_END_UNITS
    missing = set(units) ^ set(metrics)
    if missing:
        raise RuntimeError(f"metric set mismatch: {sorted(missing)}")
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = dict(result, workload=name, seed=args.seed, profile=args.profile,
                  seconds=args.seconds, trace=args.trace,
                  fail_frac=len(session.failures) / session.attempted,
                  details=details, environment=environment(),
                  inputs=session.wl.configs[args.profile])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")
    return result, record


def print_report(name, record):
    print(f"== {name}  seed={record['seed']}  profile={record['profile']}  "
          f"trace={record['trace']}  attempted={record['attempted']}  "
          f"failed={record['failed']}  fail_frac={record['fail_frac']:.3g}")
    for key, m in record["metrics"].items():
        print(f"   {key:<40} {m['value']:>16.6g} {m['unit']}")
    tail = record["details"].get("wall_tail")
    n = len(record["details"].get("wall_samples", ()))
    if n:
        print(f"   wall_s over {n} samples; raw median "
              f"{record['details']['raw_wall_median_s']:.6g} s")
    if tail:
        print(f"   wall_s p{tail['percentile']} = {tail['value_s']:.6g} s "
              f"over {tail['samples']} samples")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--profile", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fpmflow" / "__init__.py").is_file():
        print(f"bench: no fpmflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.profile, args.seed)
    workloads, _ = import_fpmflow()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"bench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        result, record = run_workload(name, args)
        print_report(name, record)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
