"""CLI subcommands, config parsing, artifact determinism, exit codes."""

import csv
import dataclasses
import json
from pathlib import Path

import pytest

from fpmflow.cli import RUN_KEYS, ConfigError, load_config, main
from fpmflow.initial_data import InitialDataSpec
from fpmflow.solver import SolverConfig

DOCS = Path(__file__).resolve().parents[1] / "docs" / "configuration.md"


def run_cli(*argv):
    return main(list(argv))


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
        # unparsable lines, values of the wrong type, and values the grid,
        # the initial data or SolverConfig rejects all exit 1 with a
        # message, before any run; a preset's keys are checked under every
        # preset
        cfg = tmp_path / "bad.cfg"
        for text in ("whatever", "alpha = abc", "alpha = 3.0",
                     "n_points = 100.5", "snapshot_interval = -1",
                     "max_steps = -5", "alpha = true", 'require_t_end = "no"',
                     "max_steps = 2.5", 'preset = "positive_control"',
                     'preset = "cccf"\noffset = 0.5',
                     'preset = "cccf"\nx0 = 0.45', 'preset = "cccf"\nwidth = 0'):
            cfg.write_text(text + "\nt_end = 0.001\n")
            code = run_cli("simulate", "--config", str(cfg), "--no-plots",
                           "--out", str(tmp_path / "o"))
            assert code == 1, text
            assert capsys.readouterr().err.startswith("config error: "), text
            assert not (tmp_path / "o").exists(), text

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
        (("constants", "--alpha", "1", "--images", "4"), "at least 8 images"),
        # vacuum-plateau data at n = 64 stop under-resolved at t = 0, so no
        # path can be advected through the one snapshot
        (("characteristics", "--preset", "vacuum-plateau", "--n", "64",
          "--t-end", "0.001"), "under_resolved at t = 0 with 1 snapshot"),
    ])
    def test_bad_flag_exit_code(self, argv, message, tmp_path, capsys):
        # rejected flag values exit 1 with a message and write nothing
        out = tmp_path / "o"
        extra = ("--out", str(out)) if argv[0] == "characteristics" else ()
        assert run_cli(*argv, *extra) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alphaa = 0.5\n")
        code = run_cli("simulate", "--config", str(cfg), "--out",
                       str(tmp_path / "o"))
        assert code == 1


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
        assert shared == 9


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

    def test_tail_fraction_uses_solver_band(self, tmp_path, capsys):
        # at dealias fraction 1/2 the observer must report the solver's own
        # tail fraction, so the under-resolved stop record is not certified
        out = tmp_path / "o"
        code = run_cli("verify", "--preset", "cccf", "--alpha", "1.0",
                       "--n", "512", "--t-end", "0.25",
                       "--snapshot-interval", "0.001",
                       "--dealias-fraction", "0.5", "--no-plots",
                       "--out", str(out))
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stop_reason"] == "under_resolved"
        rows = (out / "timeseries.csv").read_text().splitlines()[1:]
        assert float(rows[-1].split(",")[8]) > 1e-8
        assert report["resolved_records"] == len(rows) - 1

    def test_cccf_window_passes(self, tmp_path, capsys):
        code = run_cli("verify", "--preset", "cccf", "--alpha", "1.0",
                       "--n", "512", "--t-end", "0.08",
                       "--snapshot-interval", "0.005", "--no-plots",
                       "--out", str(tmp_path / "o"))
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["velocity_sign"]
        assert report["checks"]["monotonicity"]


class TestConstants:
    def test_json_payload(self, capsys):
        assert run_cli("constants", "--alpha", "1.0", "--m", "1",
                       "--rho-max", "2", "--images", "16",
                       "--quadrature-points", "32") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["C"] == 12.0
        assert abs(payload["delta"] - 1.0 / 6.0) < 1e-12
        assert payload["A"] == 0.125
        assert abs(payload["c_alpha"] - 0.3183098861837907) < 1e-6


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
        assert not payload["decay_reports"][1]["applicable"]
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["run"]["steps"] == meta["steps"] > 0
        assert meta["pair_mass_drift"] == payload["pair_mass_drift"]


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
