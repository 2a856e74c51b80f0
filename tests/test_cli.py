"""Command-line interface: workflows, config resolution, exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from cipgnav import cli
from cipgnav.cli import hash_epochs, main
from cipgnav.sensors import load_stream, synchronize
from cipgnav.sim import benchmark_scenario, generate
from cipgnav.trajectory import read_trajectory
from tests.conftest import make_streams
from tests.test_adapters import write_bluerov2_sources

SHORT_SIM = ["--scenario", "circle", "--duration", "10", "--circle-radius", "10",
             "--noise", "bluerov2", "--seed", "5"]


def simulate_into(tmp_path, extra=()):
    out = tmp_path / "data"
    rc = main(["simulate", *SHORT_SIM, *extra, "--out", str(out)])
    assert rc == 0
    return out


class TestSimulate:
    def test_writes_streams_and_manifest(self, tmp_path):
        out = simulate_into(tmp_path)
        for name in ("imu.csv", "dvl.csv", "ahrs.csv", "gt.csv", "scenario.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "scenario.json").read_text())
        assert manifest["kind"] == "circle"
        assert manifest["seed"] == 5
        imu = load_stream(out / "imu.csv", "imu")
        assert len(imu) == 1000

    def test_bad_duration_is_usage_error(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", "circle", "--duration", "-5",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "duration" in capsys.readouterr().err

    def test_print_config_resolution_order(self, tmp_path, capsys):
        config = tmp_path / "opts.cfg"
        config.write_text("# comment line\nduration = 30\nseed = 9\n")
        rc = main(["simulate", "--config", str(config), "--duration", "40",
                   "--print-config", "--out", str(tmp_path / "x")])
        assert rc == 0
        text = capsys.readouterr().out
        # Command line beats the config file; the file beats defaults.
        assert "duration = 40" in text.replace("40.0", "40")
        assert "seed = 9" in text

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "opts.cfg"
        config.write_text("durattion = 30\n")
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "durattion" in capsys.readouterr().err

    def test_removed_gps_rate_option_rejected(self, tmp_path, capsys):
        config = tmp_path / "opts.cfg"
        config.write_text("gps_rate = 2\n")
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "gps_rate" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--gps-rate", "2", "--out", str(tmp_path / "x")])
        assert exc_info.value.code == 2

    def test_malformed_config_line_names_line(self, tmp_path, capsys):
        config = tmp_path / "opts.cfg"
        config.write_text("duration 30\n")
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert ":1: expected 'key = value'" in capsys.readouterr().err


class TestEstimate:
    def test_full_pipeline_and_metadata(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        traj = tmp_path / "traj.csv"
        rc = main(["estimate", "--input", str(data), "--estimator", "cipg",
                   "--out", str(traj)])
        assert rc == 0
        points = read_trajectory(traj)
        assert len(points) == 50
        assert points[0].flag == "warmup"

        meta = json.loads((tmp_path / "traj.meta.json").read_text())
        assert meta["estimator"] == "cipg"
        assert meta["epoch_hash"].startswith("sha256:")
        assert meta["params"]["horizon"] == 5
        assert meta["counts"]["warmup"] == 4
        assert meta["input"]["mode"] == "files"

    @pytest.mark.parametrize("command", [["estimate", "--estimator", "ekf"],
                                         ["compare", "--estimators", "ekf"]],
                             ids=["estimate", "compare"])
    def test_input_streams_loaded_once(self, tmp_path, monkeypatch, command):
        data = simulate_into(tmp_path)
        loaded = []

        def counting_load(path, kind):
            loaded.append(kind)
            return load_stream(path, kind)

        monkeypatch.setattr(cli, "load_stream", counting_load)
        rc = main([*command, "--input", str(data), "--out", str(tmp_path / "out.csv")])
        assert rc == 0
        assert sorted(loaded) == ["ahrs", "dvl", "gt", "imu"]

    def test_scenario_source_without_files(self, tmp_path):
        traj = tmp_path / "traj.csv"
        rc = main(["estimate", *SHORT_SIM, "--estimator", "ekf", "--out", str(traj)])
        assert rc == 0
        assert len(read_trajectory(traj)) == 50

    def test_out_parent_directories_created(self, tmp_path):
        traj = tmp_path / "runs" / "nested" / "traj.csv"
        rc = main(["estimate", *SHORT_SIM, "--estimator", "ekf", "--out", str(traj)])
        assert rc == 0
        assert traj.exists()
        assert traj.with_suffix(".meta.json").exists()

    def test_input_and_scenario_conflict(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        rc = main(["estimate", "--input", str(data), "--scenario", "circle",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_missing_input_dir(self, tmp_path, capsys):
        rc = main(["estimate", "--input", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 3

    def test_corrupt_csv_is_data_error(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        (data / "dvl.csv").write_text("t,vx,vy,vz\n0.2,one,0,0\n")
        rc = main(["estimate", "--input", str(data), "--out", str(tmp_path / "t.csv")])
        assert rc == 3

    @pytest.mark.parametrize("stream", ["ahrs", "gt"])
    def test_zero_quaternion_is_data_error_with_line(self, tmp_path, capsys, stream):
        data = simulate_into(tmp_path)
        path = data / f"{stream}.csv"
        lines = path.read_text().splitlines()
        t = lines[5].split(",")
        lines[5] = ",".join(t[:-4] + ["0.0"] * 4)
        lines.insert(3, "")  # blank lines are skipped but still counted
        path.write_text("\n".join(lines) + "\n")
        rc = main(["estimate", "--input", str(data), "--out", str(tmp_path / "t.csv")])
        assert rc == 3
        assert f"{path}:line 7: cannot normalize quaternion" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_estimation_error(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        rc = main(["estimate", "--input", str(data), "--estimator", "cipg",
                   "--alpha", "1e200", "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "diverged" in capsys.readouterr().err

    def test_unknown_estimator(self, tmp_path, capsys):
        rc = main(["estimate", *SHORT_SIM, "--estimator", "ukf",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_replay_from_metadata_is_bitwise(self, tmp_path):
        data = simulate_into(tmp_path)
        traj = tmp_path / "traj.csv"
        assert main(["estimate", "--input", str(data), "--out", str(traj)]) == 0
        replay = tmp_path / "replay.csv"
        rc = main(["estimate", "--from-metadata", str(tmp_path / "traj.meta.json"),
                   "--out", str(replay)])
        assert rc == 0
        assert replay.read_bytes() == traj.read_bytes()

    def test_replay_of_scenario_metadata_with_gps_keys_is_bitwise(self, tmp_path):
        # Scenario metadata of earlier versions records gps_rate and
        # gps_origin, which never changed the epoch stream.
        traj = tmp_path / "traj.csv"
        assert main(["estimate", *SHORT_SIM, "--dvl-frame", "body", "--out", str(traj)]) == 0
        meta = json.loads((tmp_path / "traj.meta.json").read_text())
        meta["input"]["scenario"].update(gps_rate=2.0, gps_origin=[42.0, 3.0])
        old_meta = tmp_path / "old.meta.json"
        old_meta.write_text(json.dumps(meta, indent=2))
        replay = tmp_path / "replay.csv"
        rc = main(["estimate", "--from-metadata", str(old_meta), "--out", str(replay)])
        assert rc == 0
        assert replay.read_bytes() == traj.read_bytes()

    def test_replay_detects_changed_inputs(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        traj = tmp_path / "traj.csv"
        assert main(["estimate", "--input", str(data), "--out", str(traj)]) == 0
        # Tamper with one measurement; the epoch hash must catch it.
        dvl = (data / "dvl.csv").read_text().splitlines()
        parts = dvl[1].split(",")
        parts[1] = repr(float(parts[1]) + 1e-3)
        dvl[1] = ",".join(parts)
        (data / "dvl.csv").write_text("\n".join(dvl) + "\n")
        rc = main(["estimate", "--from-metadata", str(tmp_path / "traj.meta.json"),
                   "--out", str(tmp_path / "replay.csv")])
        assert rc == 2
        assert "does not match the metadata" in capsys.readouterr().err


class TestHashEpochs:
    """Recorded metadata replays only while the digest of an epoch stream is unchanged."""

    def test_constant_streams_digest(self):
        assert hash_epochs(synchronize(*make_streams())) == (
            "sha256:0776bc804f13d78a44e031cac18c61a066bc913b08fcd421dfc3f8468c4493db")

    def test_benchmark_scenario_digest(self):
        assert hash_epochs(generate(benchmark_scenario(0, 20.0)).epochs()) == (
            "sha256:5425a0d8515d981eb6ac61f2fbdeb5e1f951d06ae5191af3cdace42efb1f8512")


class TestEvaluate:
    def test_reports_metrics(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        traj = tmp_path / "traj.csv"
        assert main(["estimate", "--input", str(data), "--out", str(traj)]) == 0
        report_file = tmp_path / "report.txt"
        errors_file = tmp_path / "errors.csv"
        rc = main(["evaluate", "--estimate", str(traj), "--truth", str(data / "gt.csv"),
                   "--report", str(report_file), "--errors", str(errors_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total_error_m" in out
        assert "ate_rmse_m" in out
        assert report_file.exists() and errors_file.exists()

    def test_accepts_trajectory_truth(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        traj = tmp_path / "traj.csv"
        assert main(["estimate", "--input", str(data), "--out", str(traj)]) == 0
        rc = main(["evaluate", "--estimate", str(traj), "--truth", str(traj)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total_error_m = 0.0" in out

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["evaluate", "--estimate", str(tmp_path / "a.csv"),
                   "--truth", str(tmp_path / "b.csv")])
        assert rc == 3


class TestCompare:
    def test_table_lists_all_estimators(self, tmp_path, capsys):
        out_file = tmp_path / "table.txt"
        rc = main(["compare", *SHORT_SIM, "--estimators", "cipg,ekf,inekf",
                   "--out", str(out_file)])
        assert rc == 0
        text = capsys.readouterr().out
        for col in ("cipg", "ekf", "inekf"):
            assert col in text
        for row in ("total_error_m", "ate_rmse_m", "runtime_s"):
            assert row in text
        assert out_file.read_text() == text

    def test_rejects_unknown_estimator(self, tmp_path, capsys):
        rc = main(["compare", *SHORT_SIM, "--estimators", "cipg,magic"])
        assert rc == 2


class TestAdapt:
    def test_adapt_then_estimate(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_bluerov2_sources(src, n=60)
        canon = tmp_path / "canon"
        rc = main(["adapt", "--adapter", "bluerov2_csv", "--input", str(src),
                   "--out", str(canon)])
        assert rc == 0
        assert "imu" in capsys.readouterr().out
        rc = main(["estimate", "--input", str(canon), "--estimator", "ekf",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 0

    def test_unknown_adapter(self, tmp_path, capsys):
        rc = main(["adapt", "--adapter", "nope", "--input", str(tmp_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert "cipgnav" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2
