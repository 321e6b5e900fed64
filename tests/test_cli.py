"""CLI subcommands, config parsing, artifact determinism, exit codes."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fpmflow
from fpmflow import cli
from fpmflow.characteristics import advect_path, check_mass_transport
from fpmflow.cli import RUN_KEYS, ConfigError, check_invariants, load_config, main
from fpmflow.diagnostics import (DiagnosticsRecord, EstimateConstants, constants_for,
                                 make_observer)
from fpmflow.extensions import run_alignment
from fpmflow.grid import PeriodicGrid, make_grid, spectral_derivative
from fpmflow.initial_data import KINDS, InitialDataSpec, make_initial_data
from fpmflow.operators import velocity_spectral
from fpmflow.output import write_csv, write_snapshot, write_timeseries
from fpmflow.solver import SolverConfig, run
from fpmflow.svgplot import line_chart

DOCS = Path(__file__).resolve().parents[1] / "docs" / "configuration.md"
SRC = Path(fpmflow.__file__).resolve().parents[1]  # the fpmflow these tests import


def run_cli(*argv):
    return main(list(argv))


def run_python(*args, cwd):
    """Run a fresh interpreter that imports the same fpmflow, with every
    warning an error as in the tests; check=True."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], cwd=cwd, check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error"})


# per numeric run key, its largest accepted value at which a run at --n 16
# stays finite, and the preset that reads it (cccf if every preset does)
EDGE_LARGEST = {"alpha": "1.9999999999999998", "t_end": repr(sys.float_info.max),
                "cfl": "1.0", "tail_threshold": repr(sys.float_info.max),
                "snapshot_interval": repr(sys.float_info.max), "max_steps": str(sys.maxsize),
                "rho_max": "7e153", "x0": "0.4", "width": "0.35", "offset": "1e307"}
EDGE_PRESETS = {"rho_max": "vacuum-plateau", "x0": "vacuum-plateau",
                "width": "vacuum-plateau", "offset": "positive-control"}


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_stdout(capsys):
    """The captured stdout parsed as strict JSON: NaN or Infinity raises."""
    return json.loads(capsys.readouterr().out, parse_constant=_no_constant)


@pytest.fixture(autouse=True)
def strict_json(tmp_path):
    """Every JSON file a test writes parses without NaN or Infinity."""
    yield
    for path in tmp_path.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=_no_constant)


class TestConfigFile:
    def test_parse_scalars(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment\n"
            "alpha = 0.5\n"
            "n_points = 256\n"
            't_end = 0.1\n'
            'preset = "cccf"\n'
            "require_t_end = false\n")
        out = load_config(cfg)
        assert out == {"alpha": 0.5, "n_points": 256, "t_end": 0.1,
                       "preset": "cccf", "require_t_end": False}

    def test_malformed_line_reports_position(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 0.5\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            load_config(cfg)

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        # unparsable lines, values of the wrong type, non-finite floats,
        # and values the grid, the initial data or SolverConfig rejects all
        # exit 1 with a message, before any run; a preset's keys are checked
        # under every preset
        cfg = tmp_path / "bad.cfg"
        for text in ("whatever", "alpha = abc", "alpha = 3.0",
                     "n_points = 100.5", "snapshot_interval = -1",
                     "max_steps = -5", "alpha = true", 'require_t_end = "no"',
                     "max_steps = 2.5", 'preset = "positive_control"',
                     'preset = "cccf"\noffset = 0.5',
                     'preset = "cccf"\nx0 = 0.45', 'preset = "cccf"\nwidth = 0',
                     'preset = "cccf"\noffset = nan', 'preset = "cccf"\nx0 = nan',
                     "t_end = nan", "t_end = inf", "rho_max = inf",
                     "tail_threshold = inf", "snapshot_interval = inf",
                     "alpha =", "= 0.5", "dealias_fraction = 0.5"):
            cfg.write_text("t_end = 0.001\n" + text + "\n")
            code = run_cli("simulate", "--config", str(cfg), "--no-plots",
                           "--out", str(tmp_path / "o"))
            assert code == 1, text
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, text
            assert not (tmp_path / "o").exists(), text

    @pytest.mark.parametrize("content", (None, b"alpha = \xff\n"),
                             ids=("missing", "not_utf8"))
    def test_unreadable_config_exit_code(self, content, tmp_path, capsys):
        # a missing file and a file that is not UTF-8 exit 1 with a message
        cfg = tmp_path / "run.cfg"
        if content is not None:
            cfg.write_bytes(content)
        code = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: ")
        assert not (tmp_path / "o").exists()

    def test_float_key_takes_int(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1\nn_points = 64\nt_end = 0.001\n"
                       "require_t_end = true\n")
        out = tmp_path / "o"
        assert run_cli("simulate", "--config", str(cfg), "--no-plots",
                       "--out", str(out)) == 0
        settings = json.loads((out / "metadata.json").read_text())["settings"]
        assert settings["alpha"] == 1 and settings["require_t_end"] is True

    @pytest.mark.parametrize("argv, message", [
        (("characteristics", "--n", "64", "--t-end", "0.001",
          "--x-start", "0.1,abc"), "could not convert string to float: 'abc'"),
        (("constants", "--alpha", "2.5"), "alpha must lie in (0, 2)"),
        (("constants", "--alpha", "1", "--m", "3", "--rho-max", "2"),
         "cannot exceed the density bound"),
        # the image count is a constant of the kernel route, not a flag
        (("constants", "--alpha", "1", "--images", "4"), "unrecognized arguments: --images 4"),
        # vacuum-plateau data at n = 64 stop under-resolved at t = 0, so no
        # path can be advected through the one snapshot
        (("characteristics", "--preset", "vacuum-plateau", "--n", "64",
          "--t-end", "0.001"), "under_resolved at t = 0 with 1 snapshot"),
        (("characteristics", "--n", "64", "--t-end", "0.001",
          "--x-start", "nan,0.2"), "start points must be finite, got 'nan,0.2'"),
        (("characteristics", "--n", "64", "--t-end", "0.001",
          "--x-start", "0.1,-inf"), "start points must be finite, got '0.1,-inf'"),
        (("simulate", "--n", "64", "--t-end", "0.001", "--rho-max", "inf"),
         "rho_max must be finite, got inf"),
        (("constants", "--alpha", "1", "--m", "nan"), "positive and finite"),
        (("constants", "--alpha", "1", "--rho-max", "inf"), "positive and finite"),
        # both starts format to path_0.0500.csv; the second would replace the first
        (("characteristics", "--n", "64", "--t-end", "0.001",
          "--x-start", "0.05,0.050001"),
         "starts 0.05 and 0.050001 would both write path_0.0500.csv"),
        # a start off the torus would make a file name of any length, and the
        # decay check reads |start| as the distance from the vacuum point 0
        (("characteristics", "--n", "64", "--t-end", "0.001", "--x-start", "1e300,0.2"),
         "start points must lie in [-1/2, 1/2], got '1e300,0.2'"),
        (("characteristics", "--n", "64", "--t-end", "0.001", "--x-start", "0.2,-0.5001"),
         "start points must lie in [-1/2, 1/2], got '0.2,-0.5001'"),
        # usage errors that argparse finds are config errors too
        (("verify", "--n", "abc"), "argument --n: invalid int value: 'abc'"),
        # a value that starts with '-' reads as a flag unless written --x-start=...
        (("characteristics", "--x-start", "-0.05,0.05"),
         "argument --x-start: expected one argument"),
        # the flux keeps 2/3 of the Nyquist band on every grid, not a flag
        (("simulate", "--n", "64", "--dealias-fraction", "0.5"), "unrecognized arguments"),
        # finite data whose mean overflows in its sum have no finite mass
        *((("simulate", "--preset", preset, flag, value, "--n", "64", "--t-end", "0.001"),
           "the initial density's mean overflows")
          for preset, flag, value in (("positive-control", "--offset", "1e307"),
                                      ("positive-control", "--offset", "5e306"),
                                      ("vacuum-plateau", "--rho-max", "1e307"),
                                      ("smooth-monotone", "--rho-max", "1e308"))),
        # a finite mean, but the first snapshot's d_x rho or Lambda^a rho overflows
        *(((*argv, "--t-end", "0.001"),
           "the initial density's derivative or fractional Laplacian overflows")
          for argv in (("simulate", "--preset", "vacuum-plateau", "--rho-max", "1e305",
                        "--n", "1024", "--no-plots"),
                       ("verify", "--preset", "vacuum-plateau", "--rho-max", "1e305",
                        "--n", "1024", "--no-plots"),
                       ("simulate", "--preset", "smooth-monotone", "--rho-max", "1e306",
                        "--n", "64"),
                       ("align", "--preset", "vacuum-plateau", "--rho-max", "1e305",
                        "--n", "1024"),
                       ("align", "--preset", "vacuum-plateau", "--rho-max", "1e303",
                        "--alpha", "1.9", "--n", "1024"),
                       ("reduce", "--preset", "vacuum-plateau", "--rho-max", "1e305",
                        "--n", "1024"))),
        # finite 1D fields, but the slab check's (n, 8) strip FFT sums 8n values
        (("reduce", "--preset", "positive-control", "--offset", "1e306", "--n", "64"),
         "the slab check's 2D transforms overflow"),
        # finite t = 0 fields, but the first stage's flux rho0 u0 overflows,
        # since u scales with rho
        *(((command, "--preset", "vacuum-plateau", "--rho-max", "1e160", "--n", "1024",
            "--t-end", "0.001", "--no-plots"), "the initial flux rho u overflows")
          for command in ("simulate", "verify", "align")),
        # a density whose mean underflows to 0 has no mass for the estimate
        # constants, which align and reduce do not compute
        *(((command, "--preset", "smooth-monotone", "--rho-max", "5e-324", "--n", "64",
            "--t-end", "0.001", "--no-plots"), "mass and density bound must be positive")
          for command in ("simulate", "verify", "characteristics")),
        # the step floor, cfl times the tighter step limit, rounds to 0 or
        # is subnormal; the second would step ~2e-312 at a time
        *(((command, "--cfl", cfl, "--n", "64", "--no-plots", *t_end),
           "the step floor underflows")
          for command in ("simulate", "align") for cfl in ("5e-324", "1e-310")
          for t_end in ((), ("--t-end", "0.001"))),
        # the slab check's Gauss-Jacobi rule for s^(1 - alpha) has its
        # first node on s = 0, where the plane integrand is singular
        (("reduce", "--alpha", "1.9999999999999998", "--n", "64"),
         "rounds a node onto t = -1"),
    ])
    def test_bad_flag_exit_code(self, argv, message, tmp_path, capsys):
        # rejected flag values exit 1 with a one-line message and write nothing
        out = tmp_path / "o"
        extra = ("--out", str(out)) if argv[0] != "constants" else ()
        assert run_cli(*argv, *extra) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert message in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, t_end", [
        # the largest plateau whose flux stays finite runs until under-resolved
        (("--preset", "vacuum-plateau", "--rho-max", "1e152", "--n", "1024"), None),
        # u is O(1) on the offset, so rho0 u0 stays finite; both densities
        # lie beyond float32's range, yet the floor's center, rounded to 24
        # significant bits, stays finite
        *((("--preset", "positive-control", "--offset", offset, "--n", "64"), 0.001)
          for offset in ("1e160", "1e50"))])
    def test_finite_flux_is_stepped(self, argv, t_end, tmp_path):
        out = tmp_path / "o"
        assert run_cli("simulate", *argv, "--t-end", "0.001", "--no-plots",
                       "--out", str(out)) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["steps"] > 0
        assert meta["t_final"] == t_end if t_end else meta["stop_reason"] == "under_resolved"

    @pytest.mark.parametrize("argv, stop", [
        # steps to the output time overflow: the steps are not evened out
        *(((command, "--t-end", "1e308", "--snapshot-interval", "1e308", "--max-steps", "5"),
           "under_resolved") for command in ("simulate", "align")),
        # (r - x0) / width overflows: the ramp is a step at this grid
        *((("simulate", "--preset", "vacuum-plateau", "--width", width), "under_resolved")
          for width in ("5e-324", "1e-310")),
        (("reduce", "--alpha", "1.999"), None)])
    def test_extreme_values_run(self, argv, stop, tmp_path):
        # values at the ends of the float range run without a warning
        out = tmp_path / "o"
        assert run_cli(*argv, "--n", "64", "--no-plots", "--out", str(out)) == 0
        if stop:
            meta = json.loads((out / "metadata.json").read_text())
            assert meta["stop_reason"] == stop and meta["steps"] <= 5

    @pytest.mark.parametrize("value", ("min-normal", "5e-324", "largest",
                                       "0", "-1", "nan", "inf", "-inf"))
    @pytest.mark.parametrize("key", EDGE_LARGEST)
    @pytest.mark.parametrize("command", ("simulate", "verify", "characteristics",
                                         "align", "reduce"))
    def test_edge_values(self, command, key, value, tmp_path, capsys):
        # every edge value of every numeric run key, with charts on: the run
        # exits with a documented code and at most one line on stderr, a
        # refusal leaves no --out, and any other run draws both charts (a
        # traceback or a numpy warning fails the test)
        value = {"min-normal": repr(sys.float_info.min), "largest": EDGE_LARGEST[key]}.get(
            value, value)
        flag = next(flag for name, flag, *_ in RUN_KEYS if name == key)
        out = tmp_path / "o"
        code = run_cli(command, "--preset", EDGE_PRESETS.get(key, "cccf"), "--n", "16",
                       "--t-end", "1e-3", "--max-steps", "40", f"{flag}={value}",
                       "--out", str(out))
        assert code in (0, 1, 2, 3)
        assert capsys.readouterr().err.count("\n") <= 1
        if code == 1:
            assert not out.exists()
        elif command in ("simulate", "verify"):
            assert (out / "rho_snapshots.svg").exists() and (out / "c1_norm.svg").exists()

    def test_n_points_upper_edge(self):
        # memory alone bounds --n: the grid takes the largest even int64 and
        # allocates nothing until its nodes or wavenumbers are asked for
        grid = PeriodicGrid(2**63 - 2)
        assert vars(grid) == {"n": 2**63 - 2}

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alphaa = 0.5\n")
        code = run_cli("simulate", "--config", str(cfg), "--out",
                       str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err == "config error: unknown config key 'alphaa'\n"

    def test_help_exits_zero(self, capsys):
        # usage errors exit 1 through ConfigError; --help still exits 0
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fpmflow verify")


class TestCsv:
    def test_numeric_rows_match_fmt(self, tmp_path):
        # the one-call formatting of a float array writes every value as
        # format(v, ".17g") does, signed zero and non-finite values included
        values = np.array([[-0.0, np.nan, np.inf], [-np.inf, 5e-324, 1e300],
                           [0.1, -2.5e-17, 1.0 / 3.0]])
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b", "c"), values)
        lines = ["a,b,c"] + [",".join(format(v, ".17g") for v in row) for row in values]
        assert path.read_text() == "\n".join(lines) + "\n"
        write_csv(path, ("a", "b", "c"), values[:0])
        assert path.read_text() == "a,b,c\n"


class TestDocs:
    def test_docs_table_matches_run_keys(self):
        # the key column of docs/configuration.md lists the run keys in the
        # order of the cli table
        rows = [line.split("|")[1].strip() for line in DOCS.read_text().splitlines()
                if line.startswith("| `")]
        assert [row.strip("`") for row in rows] == [key for key, *_ in RUN_KEYS]

    def test_defaults_match_dataclasses(self):
        # a run key that sets a SolverConfig or InitialDataSpec field has
        # that field's default
        renamed = {"width": "transition_width"}
        shared = 0
        for cls in (SolverConfig, InitialDataSpec):
            defaults = {f.name: f.default for f in dataclasses.fields(cls)
                        if f.default is not dataclasses.MISSING}
            for key, _, _, default in RUN_KEYS:
                field = renamed.get(key, key)
                if field in defaults:
                    assert default == defaults[field], key
                    shared += 1
        assert shared == 8


class TestSimulate:
    def test_artifacts_and_determinism(self, tmp_path):
        args = ["simulate", "--preset", "cccf", "--alpha", "1.0", "--n", "256",
                "--t-end", "0.02", "--snapshot-interval", "0.005", "--no-plots"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        ts1 = (out1 / "timeseries.csv").read_bytes()
        ts2 = (out2 / "timeseries.csv").read_bytes()
        assert ts1 == ts2
        snaps1 = sorted(p.name for p in out1.glob("snapshot_*.csv"))
        assert snaps1
        for name in snaps1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        meta = json.loads((out1 / "metadata.json").read_text())
        assert meta["stop_reason"] == "t_end"
        assert "settings" in meta and "code_version" in meta
        run = meta["run"]  # step telemetry of solver.integrate
        assert run["steps"] == meta["steps"] == sum(run["step_limits"].values()) > 0
        assert 0.0 < run["dt_min"] <= run["dt_max"]
        assert 0.0 < run["tail_max"] < 1e-8  # below the default stop threshold
        split = meta["wall_split"]  # seconds stepping, in observers, writing
        assert set(split) == {"stepping", "observers", "output"}
        assert min(split.values()) > 0.0
        assert split["stepping"] + split["observers"] <= meta["wall_time"]

    def test_timeseries_header(self, tmp_path):
        out = tmp_path / "o"
        run_cli("simulate", "--preset", "positive-control", "--alpha", "1.0",
                "--n", "256", "--t-end", "0.02", "--snapshot-interval", "0.01",
                "--no-plots", "--out", str(out))
        header = (out / "timeseries.csv").read_text().splitlines()[0]
        assert header == ("t,mass,rho_min,rho_max,zeta_min_half,c1_norm,"
                          "u_max_on_delta,enhanced_margin,tail_fraction,dt")

    def test_plots_emitted(self, tmp_path):
        out = tmp_path / "o"
        run_cli("simulate", "--preset", "cccf", "--alpha", "1.0", "--n", "256",
                "--t-end", "0.02", "--snapshot-interval", "0.005",
                "--out", str(out))
        svg = (out / "rho_snapshots.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        assert (out / "c1_norm.svg").exists()

    def test_smooth_monotone_preset(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli("simulate", "--preset", "smooth-monotone", "--alpha",
                       "0.5", "--n", "256", "--t-end", "0.02",
                       "--snapshot-interval", "0.01", "--no-plots",
                       "--out", str(out))
        assert code == 0
        assert (out / "timeseries.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "verify", "characteristics", "align"])
    def test_require_t_end_exit_three(self, command, tmp_path):
        out = tmp_path / "o"
        code = run_cli(command, "--preset", "cccf", "--alpha", "1.0",
                       "--n", "256", "--t-end", "5.0",
                       "--snapshot-interval", "0.01", "--require-t-end",
                       "--no-plots", "--out", str(out))
        assert code == 3
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["stop_reason"] == "under_resolved"

    @pytest.mark.parametrize("command", ["simulate", "verify", "characteristics", "align"])
    def test_require_t_end_on_step_budget(self, command, tmp_path):
        # t_end is the only stop that reaches t_end: a run out of steps exits 3
        out = tmp_path / "o"
        code = run_cli(command, "--n", "64", "--t-end", "0.01", "--max-steps", "3",
                       "--snapshot-interval", "1e-5", "--require-t-end",
                       "--no-plots", "--out", str(out))
        assert code == 3
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["stop_reason"] == "max_steps" and meta["t_final"] < 0.01


# cccf at alpha = 1 on 128 points, snapshots every `interval`: a run that
# stops under-resolved after 13 snapshots (the stop state is the last), one
# whose t_end lies off the snapshot grid (the state at t_end is the last), and that run
# with 155 snapshots and charts on, whose density chart draws every 2nd of
# the 17 snapshots written (a count at which len // 6 and len // 5 differ)
STREAMED_RUNS = {
    "under_resolved": dict(t_end=0.5, interval=0.004, written=(0, 10, 13)),
    "off_grid_t_end": dict(t_end=0.0123, interval=0.001, written=(0, 10, 13)),
    "charts": dict(t_end=0.0123, interval=8e-5, written=(*range(0, 151, 10), 154)),
}


def _csvs(out: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}


class TestStreamedArtifacts:
    """simulate and verify write each snapshot CSV as the run makes it and
    hold no written snapshot; their CSVs and charts are those written from
    every state of the same run, as they always were.  characteristics
    traces its paths as the snapshots arrive and holds none either."""

    @pytest.mark.parametrize("case", STREAMED_RUNS)
    @pytest.mark.parametrize("command", ("simulate", "verify"))
    def test_csvs_match_writing_from_all_states(self, command, case, tmp_path):
        t_end, interval, written = (STREAMED_RUNS[case][key]
                                    for key in ("t_end", "interval", "written"))
        plots = case == "charts"
        out = tmp_path / "cli"
        run_cli(command, "--preset", "cccf", "--alpha", "1.0", "--n", "128",
                "--t-end", repr(t_end), "--snapshot-interval", repr(interval),
                *(() if plots else ("--no-plots",)), "--out", str(out))
        rho0 = make_initial_data(make_grid(128), InitialDataSpec("cccf"))
        res = run(rho0, SolverConfig(alpha=1.0, n_points=128, t_end=t_end,
                                     snapshot_interval=interval),
                  observers=(make_observer(constants_for(1.0, rho0)),))
        assert len(res.states) == written[-1] + 1
        assert res.stop_reason == ("under_resolved" if case == "under_resolved" else "t_end")
        ref = tmp_path / "ref"
        ref.mkdir()
        write_timeseries(ref / "timeseries.csv", res.records)
        # every 10th snapshot and the last are written
        kept = [s for i, s in enumerate(res.states)
                if i % 10 == 0 or i == len(res.states) - 1]
        for i, state in zip(written, kept, strict=True):
            write_snapshot(ref / f"snapshot_{i:04d}.csv", state)
        assert list(_csvs(ref)) == [*(f"snapshot_{i:04d}.csv" for i in written),
                                    "timeseries.csv"]
        assert _csvs(out) == _csvs(ref)
        if plots:  # the chart draws every max(1, len // 6)-th written snapshot
            picks = kept[:: max(1, len(kept) // 6)]
            assert len(picks) == 9
            line_chart([(rho0.grid.nodes, s.rho.values, f"t={s.t:.4g}") for s in picks],
                       ref / "rho_snapshots.svg", title="density snapshots",
                       xlabel="x", ylabel="rho")
            assert ((out / "rho_snapshots.svg").read_bytes()
                    == (ref / "rho_snapshots.svg").read_bytes())
        else:
            assert not list(out.glob("*.svg"))

    def test_align_rows_match_all_states(self, tmp_path):
        out = tmp_path / "o"
        run_cli("align", "--preset", "cccf", "--alpha", "1.0", "--n", "128",
                "--t-end", "0.0123", "--snapshot-interval", "0.001", "--out", str(out))
        rho0 = make_initial_data(make_grid(128), InitialDataSpec("cccf"))
        res = run_alignment(rho0, velocity_spectral(rho0, 1.0),
                            SolverConfig(alpha=1.0, n_points=128, t_end=0.0123,
                                         snapshot_interval=0.001))
        rows = []
        for s in res.states:
            g_norm = float(np.max(np.abs(s.G.values)))
            dux = float(np.max(np.abs(spectral_derivative(s.u).values)))
            rows.append((s.t, float(s.rho.values.min()), float(s.rho.values.max()),
                         g_norm, g_norm / max(dux, 1e-300)))
        write_csv(tmp_path / "ref.csv", ("t", "rho_min", "rho_max", "g_norm", "g_over_dux"),
                  np.array(rows))
        assert len(rows) == 14
        assert ((out / "alignment_timeseries.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_peak_memory_is_bounded(self, tmp_path):
        # 201 snapshots of (rho, u) at n = 1024 hold 201 * 16 n bytes;
        # simulate keeps 21 of them
        n = 1024
        tracemalloc.start()
        try:
            code = run_cli("simulate", "--preset", "positive-control", "--alpha", "1.0",
                           "--n", str(n), "--t-end", "0.002", "--no-plots",
                           "--out", str(tmp_path / "o"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        count = len((tmp_path / "o" / "timeseries.csv").read_text().splitlines()) - 1
        assert count >= 200
        assert peak < 0.5 * count * 16 * n

    def test_plots_add_no_peak_memory(self, tmp_path):
        # the charts are written in blocks from the kept arrays; drawn point
        # by point they added 0.78 MiB to this run's 0.46 MiB peak.  The
        # --no-plots run goes first, so it bears any one-time allocation.
        peaks = {}
        for plots in (("--no-plots",), ()):
            tracemalloc.start()
            try:
                code = run_cli("verify", "--preset", "cccf", "--n", "2048",
                               "--t-end", "0.02", "--snapshot-interval", "1e-3", *plots,
                               "--out", str(tmp_path / str(len(plots))))
                peaks[plots] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
        assert (tmp_path / "0" / "rho_snapshots.svg").exists()
        assert peaks[()] - peaks[("--no-plots",)] <= 0.1 * 2**20

    def test_peak_memory_does_not_grow_with_snapshots(self, tmp_path):
        # 21 and 201 snapshots of (rho, u) at n = 2048 (32 KiB each): holding
        # every 10th grew the peak from 0.47 to 1.11 MiB; written as they are
        # made, only the records grow (0.40 to 0.48 MiB)
        peaks = []
        for t_end in ("0.001", "0.01"):
            tracemalloc.start()
            try:
                code = run_cli("simulate", "--preset", "positive-control", "--alpha", "1.0",
                               "--n", "2048", "--t-end", t_end, "--snapshot-interval", "5e-5",
                               "--no-plots", "--out", str(tmp_path / t_end))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert len(list((tmp_path / "0.01").glob("snapshot_*.csv"))) == 21
        assert peaks[1] - peaks[0] < 0.25 * 2**20

    def test_characteristics_peak_memory_does_not_grow_with_snapshots(self, tmp_path):
        # 21 and 201 snapshots of (rho, u) at n = 1024 (16 KiB each): tracing
        # the paths after the run from every state grew the peak from 0.79 to
        # 6.59 MiB; traced as the snapshots are made, only the rows grow
        peaks = []
        for interval in ("1e-3", "1e-4"):
            tracemalloc.start()
            try:
                code = run_cli("characteristics", "--preset", "cccf", "--n", "1024",
                               "--t-end", "0.02", "--snapshot-interval", interval,
                               "--x-start", "0.05,0.25", "--out", str(tmp_path / interval))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        rows = (tmp_path / "1e-4" / "path_0.0500.csv").read_text().splitlines()
        assert len(rows) == 1 + 201
        assert peaks[1] - peaks[0] < 0.5 * 2**20


class TestVerify:
    def test_positive_control_passes(self, tmp_path, capsys):
        code = run_cli("verify", "--preset", "positive-control", "--alpha",
                       "1.0", "--n", "256", "--t-end", "0.2",
                       "--snapshot-interval", "0.02", "--no-plots",
                       "--out", str(tmp_path / "o"))
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["all_ok"]
        assert report["hypotheses"] == {"h1": True, "h2": True, "h3": False}
        meta = json.loads((tmp_path / "o" / "metadata.json").read_text())
        assert set(meta["wall_split"]) == {"stepping", "observers", "output"}

    def test_tail_fraction_uses_solver_band(self, tmp_path, capsys):
        # the observer must report the solver's own tail fraction, so the
        # under-resolved stop record is not certified
        out = tmp_path / "o"
        code = run_cli("verify", "--preset", "cccf", "--alpha", "1.0",
                       "--n", "512", "--t-end", "0.25",
                       "--snapshot-interval", "0.001", "--no-plots",
                       "--out", str(out))
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stop_reason"] == "under_resolved"
        rows = (out / "timeseries.csv").read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[8]) > 1e-8
        assert report["resolved_records"] == len(rows) - 1

    def test_verdict_reads_the_resolved_records(self, tmp_path, capsys):
        # the record that stopped the run is past the tail threshold: the
        # verdict reads only the records the invariants are certified on
        out = tmp_path / "o"
        code = run_cli("verify", "--preset", "cccf", "--n", "256", "--t-end", "0.5",
                       "--no-plots", "--out", str(out))
        assert code == 0
        report = strict_stdout(capsys)
        assert report["stop_reason"] == "under_resolved"
        with open(out / "timeseries.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        c1 = [float(r["c1_norm"]) for r in rows if float(r["tail_fraction"]) <= 1e-8]
        assert len(c1) == report["resolved_records"] == len(rows) - 1
        assert report["verdict"] == {"verdict": "c1_bounded", "growth_factor": max(c1) / c1[0]}

    def test_no_applicable_margin_is_null(self, tmp_path, capsys):
        # with offset 3 no snapshot has a point with rho <= m/2: the
        # enhanced margin is null in strict JSON and does not fail the run
        code = run_cli("verify", "--preset", "positive-control", "--offset", "3",
                       "--alpha", "1.0", "--n", "128", "--t-end", "0.01",
                       "--no-plots", "--out", str(tmp_path / "o"))
        assert code == 0
        report = strict_stdout(capsys)
        assert report["margins"]["enhanced_margin"] is None
        assert report["all_ok"]

    def test_no_resolved_record_fails(self, tmp_path, capsys):
        # below every record's tail fraction nothing is certified: exit 2
        code = run_cli("verify", "--preset", "cccf", "--n", "128", "--t-end", "0.01",
                       "--tail-threshold", "1e-30", "--no-plots", "--out", str(tmp_path / "o"))
        assert code == 2
        report = strict_stdout(capsys)
        assert report["resolved_records"] == 0 and report["all_ok"] is False

    @pytest.mark.parametrize("rho_max", ["0.1", "2", "100", *(pytest.param(
        r, marks=pytest.mark.xfail(strict=True, reason=(
            "enhanced_margin fails at t = 0 on small densities: the link III >= A x "
            "breaks because III scales with rho but compute_A, alpha m / (4 rho_max), "
            "does not"))) for r in ("0.05", "0.02"))])
    def test_smooth_monotone_at_every_scale(self, rho_max, tmp_path, capsys):
        code = run_cli("verify", "--preset", "smooth-monotone", "--rho-max", rho_max,
                       "--n", "256", "--t-end", "0.001", "--no-plots",
                       "--out", str(tmp_path / "o"))
        report = strict_stdout(capsys)
        assert code == 0 and report["all_ok"], report["first_violation"]

    def test_cccf_window_passes(self, tmp_path, capsys):
        code = run_cli("verify", "--preset", "cccf", "--alpha", "1.0",
                       "--n", "512", "--t-end", "0.08",
                       "--snapshot-interval", "0.005", "--no-plots",
                       "--out", str(tmp_path / "o"))
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["velocity_sign"]
        assert report["checks"]["monotonicity"]
        # steps to each snapshot are evened out, so none is shorter than half
        # the longest; a step makes 8 FFT calls (four rates calls, the last
        # giving the next step's first stage), and the run 3 more: the first
        # rfft and the first rates call
        run = json.loads((tmp_path / "o" / "metadata.json").read_text())["run"]
        assert run["dt_min"] >= 0.5 * run["dt_max"]
        assert run["fft_calls"] == 8 * run["steps"] + 3


def _records(count, **bad):
    """count passing cccf-like records; record 3 takes the fields in bad."""
    good = dict(mass=1.0, rho_min=0.0, rho_max=2.0, zeta_min_half=0.0, c1_norm=1.0,
                u_max_on_delta=0.0, enhanced_margin=-0.1, tail_fraction=0.0, dt=1e-3)
    return [DiagnosticsRecord(t=0.01 * i, **{**good, **(bad if i == 3 else {})})
            for i in range(count)]


class TestFirstViolation:
    constants = EstimateConstants(alpha=1.0, m=1.0, rho_max=2.0, delta=1 / 6, A=0.125)

    def test_empty_when_all_ok(self):
        report = check_invariants(_records(6), self.constants, 1e-8)
        assert report["all_ok"] and report["first_violation"] == {}

    @pytest.mark.parametrize("invariant, bad, value, tolerance", [
        ("mass_drift", dict(mass=1.0 + 1e-9), 1e-9, 1e-11),
        ("rho_min", dict(rho_min=-1e-3), -1e-3, -2e-8),
        ("rho_max", dict(rho_max=2.5), 2.5, 2.0 * (1 + 1e-8)),
        ("monotonicity", dict(zeta_min_half=-0.5), -0.5, -1e-6),
        ("velocity_sign", dict(u_max_on_delta=0.2), 0.2, 1e-8),
        ("enhanced_margin", dict(enhanced_margin=0.3), 0.3, 1e-6),
    ])
    def test_names_the_bad_record(self, invariant, bad, value, tolerance):
        records = _records(6, **bad)
        report = check_invariants(records, self.constants, 1e-8)
        assert not report["all_ok"]
        assert [k for k, ok in report["checks"].items() if not ok] == [invariant]
        first = report["first_violation"]
        assert list(first) == [invariant]
        assert first[invariant]["t"] == records[3].t
        assert first[invariant]["value"] == pytest.approx(value, rel=1e-6)
        assert first[invariant]["tolerance"] == pytest.approx(tolerance, rel=1e-12)

    def test_first_of_several(self):
        records = _records(6, u_max_on_delta=0.2)
        records[5] = dataclasses.replace(records[5], u_max_on_delta=0.4)
        first = check_invariants(records, self.constants, 1e-8)["first_violation"]
        assert first["velocity_sign"]["t"] == records[3].t
        assert first["velocity_sign"]["value"] == 0.2

    def test_unenforced_estimate_is_not_a_violation(self):
        records = _records(6, u_max_on_delta=0.2)
        report = check_invariants(records, self.constants, 1e-8, monotone_data=False)
        assert report["all_ok"] and report["first_violation"] == {}
        assert report["margins"]["u_max_on_delta"] == 0.2


class TestConstants:
    def test_json_payload(self, capsys):
        assert run_cli("constants", "--alpha", "1.0", "--m", "1",
                       "--rho-max", "2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["A", "C", "alpha", "c_alpha", "c_velocity", "delta"]
        assert payload["C"] == 12.0
        assert abs(payload["delta"] - 1.0 / 6.0) < 1e-12
        assert payload["A"] == 0.125
        assert abs(payload["c_alpha"] - 0.3183098861837907) < 1e-6

    def test_stdout_is_strict_json(self, capsys):
        assert run_cli("constants", "--alpha", "1.0") == 0
        payload = strict_stdout(capsys)
        assert list(payload) == sorted(payload)
        assert payload["A"] == 0.125


class TestCharacteristicsCommand:
    def test_path_csv(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("characteristics", "--preset", "cccf", "--alpha", "1.0",
                       "--n", "256", "--t-end", "0.05",
                       "--snapshot-interval", "0.002",
                       "--x-start", "0.05,0.25", "--out", str(out))
        assert code == 0
        csvs = sorted(out.glob("path_*.csv"))
        assert len(csvs) == 2
        header = csvs[0].read_text().splitlines()[0]
        assert header == "t,X,mass_along,decay_bound"
        payload = json.loads(capsys.readouterr().out)
        assert payload["pair_mass_drift"] < 1e-5
        # 0.05 lies inside the smallness radius, 0.25 does not
        assert payload["decay_reports"][0]["applicable"]
        assert payload["decay_reports"][0]["holds"]
        assert payload["decay_reports"][1] == {"applicable": False, "holds": False,
                                               "margin": None, "t_checked": None}
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["run"]["steps"] == meta["steps"] > 0
        assert meta["pair_mass_drift"] == payload["pair_mass_drift"]
        split = meta["wall_split"]
        assert set(split) == {"stepping", "observers", "output"}
        assert min(split.values()) > 0.0
        assert split["stepping"] + split["observers"] <= meta["wall_time"]
        # no report applies when both starts lie outside the smallness radius
        assert run_cli("characteristics", "--preset", "cccf", "--alpha", "1.0",
                       "--n", "256", "--t-end", "0.05", "--snapshot-interval", "0.002",
                       "--x-start", "0.3,0.4", "--out", str(tmp_path / "outside")) == 0
        reports = strict_stdout(capsys)["decay_reports"]
        assert reports == 2 * [{"applicable": False, "holds": False,
                                "margin": None, "t_checked": None}]

    def test_mirrored_starts(self, tmp_path, capsys):
        # cccf is even: the paths from -0.05 and 0.05 mirror each other, and
        # the decay check and decay_bound column read both by |start|
        out = tmp_path / "o"
        assert run_cli("characteristics", "--preset", "cccf", "--n", "256",
                       "--t-end", "0.05", "--snapshot-interval", "0.002",
                       "--x-start=-0.05,0.05", "--out", str(out)) == 0
        minus, plus = json.loads(capsys.readouterr().out)["decay_reports"]
        assert minus == plus and plus["holds"] and plus["margin"] > 0
        cols = [np.loadtxt(out / name, delimiter=",", skiprows=1, unpack=True)
                for name in ("path_-0.0500.csv", "path_0.0500.csv")]
        (_, x_minus, _, bound_minus), (_, x_plus, _, bound_plus) = cols
        assert np.max(np.abs(x_minus + x_plus)) <= 1e-15
        assert np.array_equal(bound_minus, bound_plus)

    def test_pair_drift_uses_outer_starts(self, tmp_path, capsys):
        # with three starts the drift is taken between the first and the last
        settings = ("--preset", "cccf", "--n", "256", "--t-end", "0.05",
                    "--snapshot-interval", "0.002")
        assert run_cli("characteristics", *settings, "--x-start", "0.05,0.15,0.25",
                       "--out", str(tmp_path / "o")) == 0
        drift = json.loads(capsys.readouterr().out)["pair_mass_drift"]
        grid = make_grid(256)
        states = run(make_initial_data(grid, InitialDataSpec("cccf")),
                     SolverConfig(alpha=1.0, n_points=256, t_end=0.05,
                                  snapshot_interval=0.002)).states
        outer = [advect_path(states, xs) for xs in (0.05, 0.25)]
        assert drift == check_mass_transport(*outer, states)
        # a start's path is the same in any start order, and beside a start
        # on the other side of 0, whose mass_along is negative
        for name, starts, same in (("reversed", "0.25,0.15,0.05", ("0.0500", "0.1500", "0.2500")),
                                   ("sides", "-0.15,0.05,0.25", ("0.0500", "0.2500"))):
            assert run_cli("characteristics", *settings, f"--x-start={starts}",
                           "--out", str(tmp_path / name)) == 0
            for start in same:
                assert ((tmp_path / name / f"path_{start}.csv").read_bytes()
                        == (tmp_path / "o" / f"path_{start}.csv").read_bytes())


    def test_starts_on_the_torus_ends(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("characteristics", "--n", "64", "--t-end", "0.01",
                       "--x-start=-0.5,0.5", "--out", str(out)) == 0
        assert sorted(p.name for p in out.glob("path_*.csv")) == [
            "path_-0.5000.csv", "path_0.5000.csv"]


class TestAlignCommand:
    def test_g_column(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli("align", "--preset", "cccf", "--alpha", "1.0",
                       "--n", "256", "--t-end", "0.03",
                       "--snapshot-interval", "0.01", "--out", str(out))
        assert code == 0
        lines = (out / "alignment_timeseries.csv").read_text().splitlines()
        assert lines[0] == "t,rho_min,rho_max,g_norm,g_over_dux"
        g_over = [float(line.split(",")[4]) for line in lines[1:]]
        assert max(g_over) < 1e-6
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["steps"] == meta["run"]["steps"] > 0
        assert meta["run"]["step_limits"]["snapshot"] + meta["run"]["step_limits"]["t_end"] >= 3
        # the rows are made by an observer, as each snapshot arrives
        assert set(meta["wall_split"]) == {"stepping", "observers", "output"}
        assert min(meta["wall_split"].values()) > 0.0
        # on positive data at alpha = 1.5 the error estimate sets steps
        out = tmp_path / "positive"
        assert run_cli("align", "--preset", "positive-control", "--alpha", "1.5",
                       "--n", "256", "--t-end", "0.01", "--snapshot-interval", "0.002",
                       "--out", str(out)) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["stop_reason"] == "t_end" and meta["run"]["step_limits"]["error"] > 0

    def test_bad_value_writes_nothing(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("align", "--alpha", "3.0", "--n", "64",
                       "--out", str(out)) == 1
        assert not out.exists()


class TestReduceCommand:
    def test_json_report(self, capsys):
        code = run_cli("reduce", "--preset", "cccf", "--alpha", "1.0",
                       "--n", "64", "--out", "")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["u2_max"] < 1e-12
        assert payload["u1_mismatch"] < 1e-12
        assert payload["real_space_rel_err"] < 1e-3

    def test_stdout_is_the_report(self, tmp_path, capsys):
        # stdout is strict JSON with sorted keys, the slab_report.json payload
        out = tmp_path / "o"
        assert run_cli("reduce", "--alpha", "1.5", "--n", "64", "--out", str(out)) == 0
        payload = strict_stdout(capsys)
        assert list(payload) == sorted(payload)
        report = json.loads((out / "slab_report.json").read_text())
        assert report.pop("code_version")
        assert report == payload
        assert set(payload) == {"alpha", "n", "u2_max", "u1_mismatch", "c_prime",
                                "real_space_ratio", "real_space_rel_err",
                                "spectral_gap"}


class TestSweep:
    def test_empty_values(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli("sweep", "--axis", "alpha", "--values", "",
                       "--preset", "cccf", "--n", "256", "--t-end", "0.01",
                       "--out", str(out))
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1  # header only

    def test_offset_sweep(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli("sweep", "--axis", "offset", "--values", "1.2,1.5",
                       "--preset", "positive-control", "--alpha", "1.0",
                       "--n", "512", "--t-end", "0.3",
                       "--snapshot-interval", "0.02", "--out", str(out))
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            assert line.split(",")[1] == "c1_bounded"

    def test_alpha_sweep_growth_verdicts(self, tmp_path):
        # single-point-vacuum data classify as growth across alpha with a
        # classification-grade stop threshold
        out = tmp_path / "o"
        code = run_cli("sweep", "--axis", "alpha", "--values", "0.5,1.0",
                       "--preset", "cccf", "--n", "1024", "--t-end", "2.0",
                       "--snapshot-interval", "0.004",
                       "--tail-threshold", "0.003", "--out", str(out))
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] == "c1_growth"
            assert float(cells[2]) >= 5.0
            assert cells[3] == "under_resolved"

    def test_failures_recorded_per_row(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli("sweep", "--axis", "alpha", "--values", "1.0,7.0",
                       "--preset", "positive-control", "--n", "256",
                       "--t-end", "0.05", "--snapshot-interval", "0.01",
                       "--out", str(out))
        assert code == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert all(len(row) == 8 for row in rows)
        assert rows[2][1] == "error"
        assert rows[2][7] == "ConfigError: alpha must lie in (0, 2), got 7.0"


class TestSweepAppliesVerifysRule:
    """A sweep row is the verify report of the same run: its note says
    invariant_failure exactly when verify exits 2, and its margins are
    verify's (NaN where verify resolves no record).  Every run passes at the
    default tail threshold, and none resolves a record at 1e-30."""

    @pytest.mark.parametrize("preset, alpha, t_end, tail", [
        *(("cccf", alpha, "0.05", "1e-8") for alpha in ("0.5", "1.0", "1.5")),
        ("cccf", "1.0", "0.05", "1e-30"),
        *(("positive-control", alpha, "0.05", "1e-8") for alpha in ("0.5", "1.0", "1.5")),
        # monotonicity fails on these positive data late in the run; verify
        # does not enforce it there (H3 fails), and neither does sweep
        ("positive-control", "1.9", "0.5", "1e-8"),
        ("positive-control", "1.0", "0.05", "1e-30"),
    ])
    def test_row_matches_verify(self, preset, alpha, t_end, tail, tmp_path, capsys):
        run = ("--preset", preset, "--n", "128", "--t-end", t_end, "--tail-threshold", tail)
        code = run_cli("verify", *run, "--alpha", alpha, "--no-plots",
                       "--out", str(tmp_path / "v"))
        report = strict_stdout(capsys)
        assert run_cli("sweep", *run, "--axis", "alpha", "--values", alpha,
                       "--out", str(tmp_path / "s")) == 0
        with open(tmp_path / "s" / "sweep.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert code == (2 if tail == "1e-30" else 0)
        assert (row["note"] == "invariant_failure") == (code == 2)
        margins = report.get("margins", {})
        for key in ("rho_min", "u_max_on_delta"):
            np.testing.assert_equal(float(row[key]), margins.get(key, math.nan))


class TestPresets:
    def test_choices_are_the_initial_data_kinds(self, capsys):
        # the kinds in InitialDataSpec's spelling, in the order --help shows
        presets = dict((key, kind) for key, _, kind, _ in RUN_KEYS)["preset"]
        assert presets == tuple(kind.replace("_", "-") for kind in KINDS)
        assert presets == ("cccf", "vacuum-plateau", "positive-control", "smooth-monotone")
        assert run_cli("simulate", "--preset", "bogus") == 1
        err = capsys.readouterr().err
        places = [err.index(preset) for preset in presets]
        assert places == sorted(places)


class TestUnusableOut:
    """An --out that cannot be made is a config error before the first step."""

    @pytest.mark.parametrize("command", ["simulate", "verify", "characteristics",
                                         "align", "reduce", "sweep"])
    @pytest.mark.parametrize("under_file", [True, False], ids=("under_a_file", "a_file"))
    def test_exit_one_before_the_run(self, command, under_file, tmp_path, capsys,
                                     monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "x" if under_file else blocker

        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        for name in ("run", "run_alignment", "slab_check_2d"):
            monkeypatch.setattr(cli, name, no_run)
        extra = ("--axis", "alpha", "--values", "0.5,1.0") if command == "sweep" else ()
        assert run_cli(command, "--n", "64", "--t-end", "0.01", *extra,
                       "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --out: ")
        assert "Traceback" not in captured.err and captured.out == ""
        assert blocker.read_text() == "kept"


def _artifacts(out: Path) -> dict:
    """File name -> contents; metadata.json parsed, without its timings."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "metadata.json":
            meta = json.loads(path.read_text())
            del meta["wall_time"], meta["wall_split"]
            files[path.name] = meta
        else:
            files[path.name] = path.read_bytes()
    return files


class TestProcess:
    def test_cold_start_skips_scipy(self, tmp_path):
        # no command loads scipy or numpy.polynomial (the Gauss rules are
        # built in operators), and numpy.fft is loaded at import, not inside
        # the first run
        script = textwrap.dedent("""
            import sys
            import fpmflow.cli as cli
            assert "numpy.fft" in sys.modules
            run = ["--n", "64", "--t-end", "0.01"]
            for i, argv in enumerate((
                    ["simulate", *run],
                    ["verify", "--preset", "positive-control", *run, "--no-plots"],
                    ["align", *run, "--no-plots"],
                    ["characteristics", *run, "--x-start", "0.1,0.3"],
                    ["sweep", "--axis", "alpha", "--values", "0.5,1.5", *run])):
                assert cli.main(argv + ["--out", f"o{i}"]) == 0, argv
            assert cli.main(["constants", "--alpha", "1"]) == 0
            assert cli.main(["reduce", "--n", "64", "--out", ""]) == 0
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, loaded
            assert "numpy.polynomial" not in sys.modules
        """)
        run_python("-c", script, cwd=tmp_path)
        assert (tmp_path / "o0" / "rho_snapshots.svg").exists()
        assert len(list((tmp_path / "o3").glob("path_*.csv"))) == 2

    def test_parser_reuse_leaks_nothing(self, tmp_path, capsys):
        # main reuses one parser: a run with --no-plots, then one without,
        # and a config error, then a good run, write what fresh processes do
        run = ("simulate", "--n", "64", "--t-end", "0.01")
        calls = ((*run, "--no-plots"), run, (*run, "--alpha", "3.0"), run)
        codes = [run_cli(*argv, "--out", str(tmp_path / f"same{i}"))
                 for i, argv in enumerate(calls)]
        assert codes == [0, 0, 1, 0]
        assert capsys.readouterr().err.startswith("config error: alpha must lie")
        assert not (tmp_path / "same2").exists()
        for i in (0, 1, 3):
            run_python("-m", "fpmflow.cli", *calls[i], "--out", f"fresh{i}",
                       cwd=tmp_path)
            same = _artifacts(tmp_path / f"same{i}")
            assert same == _artifacts(tmp_path / f"fresh{i}")
            assert ("rho_snapshots.svg" in same) == (i > 0)
