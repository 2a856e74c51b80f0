"""Command-line interface: workflows, config resolution, exit codes."""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from cipgnav import cli
from cipgnav.cli import hash_epochs, main
from cipgnav.errors import (
    AlignmentError,
    DegenerateQuaternionError,
    DivergenceError,
    NumericalError,
    ParseError,
    SpecError,
    StreamOrderError,
    SyncGapError,
)
from cipgnav.metrics import truth_from_gt
from cipgnav.preintegration import NavState
from cipgnav.quat import quat_from_yaw, quat_multiply, quat_to_rotation
from cipgnav.sensors import load_stream, synchronize
from cipgnav.sim import benchmark_scenario, generate
from cipgnav.trajectory import TrajectoryPoint, read_trajectory, write_trajectory
from tests.conftest import make_streams
from tests.test_adapters import write_bluerov2_sources
from tests.test_cascade import diverge

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

    @pytest.mark.parametrize("option, value, field", [
        ("--circle-radius", "inf", "circle_radius"),
        ("--circle-radius", "nan", "circle_radius"),
        ("--initial-heading", "nan", "initial_heading"),
    ])
    def test_non_finite_geometry_is_usage_error(self, tmp_path, capsys, option, value, field):
        rc = main(["simulate", "--scenario", "circle", option, value,
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"error: {field} must be finite" in capsys.readouterr().err

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
        assert meta["epoch_hash"].startswith("sha256-v2:")
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

    def test_only_compare_builds_truth(self, tmp_path, monkeypatch):
        # estimate reads gt.csv for the initial state alone.
        data = simulate_into(tmp_path)
        built = []

        def counting_truth(samples):
            built.append(len(samples))
            return truth_from_gt(samples)

        monkeypatch.setattr(cli, "truth_from_gt", counting_truth)
        assert main(["estimate", "--input", str(data), "--out", str(tmp_path / "a.csv")]) == 0
        assert built == []
        assert main(["compare", "--input", str(data), "--estimators", "ekf"]) == 0
        assert built == [51]

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

    @pytest.mark.parametrize("stream", ["ahrs", "gt"])
    def test_overflowing_quaternion_is_data_error_with_line(self, tmp_path, capsys, stream):
        # |q|^2 of a 1e200 component overflows, which once loaded as a zero quaternion.
        data = simulate_into(tmp_path)
        path = data / f"{stream}.csv"
        lines = path.read_text().splitlines()
        lines[5] = ",".join(lines[5].split(",")[:-4] + ["1e200", "0", "0", "0"])
        path.write_text("\n".join(lines) + "\n")
        rc = main(["estimate", "--input", str(data), "--out", str(tmp_path / "t.csv")])
        assert rc == 3
        assert f"{path}:line 6: quaternion" in capsys.readouterr().err

    def test_divergence_is_estimation_error(self, tmp_path, capsys, monkeypatch):
        data = simulate_into(tmp_path)
        diverge(monkeypatch, "_orientation_step")
        rc = main(["estimate", "--input", str(data), "--estimator", "cipg",
                   "--out", str(tmp_path / "t.csv")])
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

    def test_out_defaults(self, tmp_path, monkeypatch):
        # estimate writes ./trajectory.csv; a replay writes the output its metadata records.
        monkeypatch.chdir(tmp_path)
        assert main(["estimate", *SHORT_SIM]) == 0
        (tmp_path / "trajectory.csv").unlink()
        traj = tmp_path / "runs" / "traj.csv"
        assert main(["estimate", *SHORT_SIM, "--out", str(traj)]) == 0
        original = traj.read_bytes()
        traj.unlink()
        assert main(["estimate", "--from-metadata", str(tmp_path / "runs" / "traj.meta.json")]) == 0
        assert traj.read_bytes() == original
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize("mode", ["files", "scenario"])
    def test_replay_metadata_equals_original(self, tmp_path, mode):
        source = ["--input", str(simulate_into(tmp_path))] if mode == "files" else SHORT_SIM
        assert main(["estimate", *source, "--out", str(tmp_path / "traj.csv")]) == 0
        rc = main(["estimate", "--from-metadata", str(tmp_path / "traj.meta.json"),
                   "--out", str(tmp_path / "replay.csv")])
        assert rc == 0
        original, replayed = (json.loads((tmp_path / f"{name}.meta.json").read_text())
                              for name in ("traj", "replay"))
        assert list(replayed) == list(original)
        assert original["counts"]["warmup"] > 0
        for meta in (original, replayed):
            del meta["runtime_s"], meta["output"]
        assert replayed == original

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

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--alpha", "nan"], "alpha must be positive, got nan"),
        (["compare", "--horizon", "1"], "horizon must be >= 2, got 1"),
        (["estimate", "--horizon", "20"], "alpha * horizon must be < 2 for the window solver "
                                          "to converge, got alpha 0.1 * horizon 20 = 2"),
        (["estimate", "--estimator", "inekf", "--r-scale=-1"],
         "r_scale must be finite and positive, got -1.0"),
        (["estimate", "--estimator", "inekf", "--q-att=-1e-3"],
         "q_att must be finite and >= 0, got -0.001"),
        (["compare", "--q-pos=nan"], "q_pos must be finite and >= 0, got nan"),
    ], ids=["estimate-alpha", "compare-horizon", "estimate-alpha-times-horizon",
            "inekf-r-scale", "inekf-q-att", "compare-q-pos"])
    def test_bad_parameter_reported_before_input_loads(self, tmp_path, capsys, argv, message):
        # The bad parameter is reported, not the malformed imu.csv.
        data = simulate_into(tmp_path)
        lines = (data / "imu.csv").read_text().splitlines()
        lines[200] = lines[200].replace(",", ",bogus", 1)
        (data / "imu.csv").write_text("\n".join(lines) + "\n")
        assert main(["estimate", "--input", str(data), "--out", str(tmp_path / "a.csv")]) == 3
        assert "imu.csv:line 201" in capsys.readouterr().err
        rc = main([*argv, "--input", str(data), "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_replay_refuses_text_digest_metadata(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        traj = tmp_path / "traj.csv"
        assert main(["estimate", "--input", str(data), "--out", str(traj)]) == 0
        meta = json.loads((tmp_path / "traj.meta.json").read_text())
        # A digest in the text format that earlier versions recorded.
        meta["epoch_hash"] = "sha256:" + "0" * 64
        old_meta = tmp_path / "old.meta.json"
        old_meta.write_text(json.dumps(meta, indent=2))
        replay = tmp_path / "replay.csv"
        rc = main(["estimate", "--from-metadata", str(old_meta), "--out", str(replay)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "recorded with the text digest" in err
        assert "earlier cipgnav" in err
        assert "re-run `cipgnav estimate`" in err and "sha256-v2" in err
        assert "the input data changed" not in err
        assert not replay.exists()


class TestHashEpochs:
    """Recorded metadata replays only while the digest of an epoch stream is unchanged."""

    def test_constant_streams_digest(self):
        assert hash_epochs(synchronize(*make_streams())) == (
            "sha256-v2:8bc258624ef9fa7fd5445d18063887623aa62d37310c6757c46949926fd121cf")

    def test_benchmark_scenario_digest(self):
        assert hash_epochs(generate(benchmark_scenario(0, 20.0)).epochs()) == (
            "sha256-v2:c34301d4f21711a49faa00d42442f0dd33ae97331a754f06a13e4a100664859f")

    def test_digest_is_sha256_of_documented_arrays(self):
        epochs = generate(benchmark_scenario(1, 5.0)).epochs()
        parts = [np.array([[e.t, e.t_prev, len(e.imu_burst)] for e in epochs]),
                 np.concatenate([e.imu_burst for e in epochs]),
                 np.array([e.dvl for e in epochs]),
                 np.array([e.ahrs for e in epochs])]
        expected = hashlib.sha256(b"".join(p.astype("<f8").tobytes() for p in parts))
        assert hash_epochs(epochs) == "sha256-v2:" + expected.hexdigest()

    def test_one_ulp_changes_digest(self):
        epochs = generate(benchmark_scenario(0, 5.0)).epochs()
        digest = hash_epochs(epochs)
        burst = epochs[7].imu_burst.copy()
        burst[3, 4] = np.nextafter(burst[3, 4], np.inf)
        bumped = list(epochs)
        bumped[7] = replace(epochs[7], imu_burst=burst)
        assert hash_epochs(bumped) != digest
        for field in ("dvl", "ahrs"):
            values = getattr(epochs[7], field).copy()
            values[1] = np.nextafter(values[1], -np.inf)
            bumped = list(epochs)
            bumped[7] = replace(epochs[7], **{field: values})
            assert hash_epochs(bumped) != digest

    def test_moved_burst_boundary_changes_digest(self):
        epochs = generate(benchmark_scenario(0, 5.0)).epochs()
        a, b = epochs[7], epochs[8]
        moved = list(epochs)
        moved[7] = replace(a, imu_burst=a.imu_burst[:-1])
        moved[8] = replace(b, imu_burst=np.vstack([a.imu_burst[-1:], b.imu_burst]))
        # The concatenated bursts are the same rows; only the boundary moved.
        np.testing.assert_array_equal(np.concatenate([e.imu_burst for e in moved]),
                                      np.concatenate([e.imu_burst for e in epochs]))
        assert hash_epochs(moved) != hash_epochs(epochs)


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

    @pytest.mark.parametrize("column, value", [
        ("px", "nan"), ("qw", "1e200"), ("quaternion", "0"), ("flag", "bogus"),
    ], ids=["nan-position", "overflowing-quaternion", "zero-quaternion", "unknown-flag"])
    def test_bad_trajectory_row_is_data_error_with_line(self, tmp_path, capsys, column, value):
        # A NaN once scored as total_error_m = nan with exit 0, a bad quaternion
        # failed with exit 1 and an unknown flag with exit 2, naming neither the
        # file nor the line.
        data = simulate_into(tmp_path)
        traj = tmp_path / "traj.csv"
        assert main(["estimate", "--input", str(data), "--out", str(traj)]) == 0
        lines = traj.read_text().splitlines()
        fields = lines[5].split(",")
        if column == "quaternion":
            fields[7:11] = [value] * 4
        else:
            fields[lines[0].split(",").index(column)] = value
        lines[5] = ",".join(fields)
        traj.write_text("\n".join(lines) + "\n")
        rc = main(["evaluate", "--estimate", str(traj), "--truth", str(data / "gt.csv")])
        assert rc == 3
        assert f"{traj}:line 6: " in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["evaluate", "--estimate", str(tmp_path / "a.csv"),
                   "--truth", str(tmp_path / "b.csv")])
        assert rc == 3

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--lever-arm", "nan"], "lever_arm must be finite and >= 0, got nan"),
        (["evaluate", "--rpe-delta", "nan"], "rpe_delta must be finite and positive, got nan"),
        (["evaluate", "--lever-arm=-1"], "lever_arm must be finite and >= 0, got -1.0"),
        (["evaluate", "--n-align-fixes", "0", "--align"],
         "n_align_fixes must be an integer >= 2, got 0"),
        (["evaluate", "--rpe-delta", "0"], "rpe_delta must be finite and positive, got 0.0"),
        (["compare", "--lever-arm", "inf"], "lever_arm must be finite and >= 0, got inf"),
    ], ids=["lever-arm-nan", "rpe-delta-nan", "lever-arm-negative", "n-align-fixes-0",
            "rpe-delta-0", "compare-lever-arm-inf"])
    def test_bad_metric_option_reported_before_input_loads(self, tmp_path, capsys, argv,
                                                           message):
        # The inputs do not exist: loading them first would exit 3.
        missing = tmp_path / "missing"
        inputs = (["--input", str(missing)] if argv[0] == "compare" else
                  ["--estimate", str(missing / "a.csv"), "--truth", str(missing / "gt.csv")])
        assert main([*argv, *inputs]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_aligned_yawed_and_shifted_truth_scores_zero(self, tmp_path, capsys):
        # An estimate that is truth in another local frame aligns back onto it.
        data = simulate_into(tmp_path)
        truth = truth_from_gt(load_stream(data / "gt.csv", "gt"))[0]
        yaw, shift = 0.8, np.array([40.0, -25.0, 3.0])
        Rz, q_yaw = quat_to_rotation(quat_from_yaw(yaw)), quat_from_yaw(yaw)
        moved = [TrajectoryPoint(p.t, NavState(Rz @ p.nav.position + shift, Rz @ p.nav.velocity,
                                               quat_multiply(q_yaw, p.nav.orientation)))
                 for p in truth]
        reports = {}
        for name, points in (("copy", truth), ("moved", moved)):
            write_trajectory(points, tmp_path / f"{name}.csv")
            rc = main(["evaluate", "--estimate", str(tmp_path / f"{name}.csv"), "--truth",
                       str(data / "gt.csv"), "--align", "--report", str(tmp_path / f"{name}.txt"),
                       "--errors", str(tmp_path / f"{name}-errors.csv")])
            assert rc == 0
            capsys.readouterr()
            reports[name] = dict(line.split(" = ") for line in
                                 (tmp_path / f"{name}.txt").read_text().splitlines())
            errors = np.loadtxt(tmp_path / f"{name}-errors.csv", delimiter=",", skiprows=1)
            assert errors.shape == (len(truth), 5)
            np.testing.assert_allclose(errors[:, 1:], 0.0, atol=1e-9)
        assert reports["moved"].keys() == reports["copy"].keys()
        for key, value in reports["moved"].items():
            assert float(value) == pytest.approx(float(reports["copy"][key]), abs=1e-9), key
        assert float(reports["moved"]["total_error_m"]) < 1e-9


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

    def test_n_align_fixes_is_an_unknown_config_key(self, tmp_path, capsys):
        # compare never aligns, so it takes no alignment window; evaluate does.
        cfg = tmp_path / "compare.cfg"
        cfg.write_text("n_align_fixes = 10\n")
        rc = main(["compare", *SHORT_SIM, "--config", str(cfg)])
        assert rc == 2
        assert "unknown keys ['n_align_fixes']" in capsys.readouterr().err

    @pytest.mark.parametrize("names", [",", "cipg,ekf,cipg"], ids=["empty", "repeated"])
    def test_rejects_empty_or_repeated_estimators_before_loading(self, tmp_path, capsys, names):
        # The input directory does not exist: loading it first would exit 3.
        rc = main(["compare", "--input", str(tmp_path / "missing"), "--estimators", names])
        assert rc == 2
        assert f"got {names!r}" in capsys.readouterr().err


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


class TestOverlongCsvField:
    """A field over csv's 131,072-character limit is a data error naming its line."""

    @staticmethod
    def put_field(path, line, column):
        lines = path.read_text().splitlines()
        fields = lines[line - 1].split(",")
        fields[column] = "x" * 140_000
        lines[line - 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")

    def test_sensor_stream(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        self.put_field(data / "dvl.csv", 3, 1)
        rc = main(["estimate", "--input", str(data), "--out", str(tmp_path / "t.csv")])
        assert rc == 3
        assert f"{data / 'dvl.csv'}:line 3: malformed CSV" in capsys.readouterr().err

    def test_trajectory(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        traj = tmp_path / "t.csv"
        assert main(["estimate", "--input", str(data), "--out", str(traj)]) == 0
        self.put_field(traj, 4, 2)
        rc = main(["evaluate", "--estimate", str(traj), "--truth", str(data / "gt.csv")])
        assert rc == 3
        assert f"{traj}:line 4: malformed CSV" in capsys.readouterr().err

    def test_adapter_source(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        write_bluerov2_sources(src)
        self.put_field(src / "dvl_a50.csv", 3, 1)
        rc = main(["adapt", "--adapter", "bluerov2_csv", "--input", str(src),
                   "--out", str(tmp_path / "canon")])
        assert rc == 3
        assert f"{src / 'dvl_a50.csv'}:line 3: malformed CSV" in capsys.readouterr().err


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


class TestNonFiniteValues:
    @pytest.mark.parametrize("command, option, value", [
        ("simulate", "--accel-bias", "inf,0,0"),
        ("estimate", "--gyro-bias", "nan,0,0"),
    ])
    def test_vector_option_rejected_by_parser(self, tmp_path, capsys, command, option, value):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            main([command, *SHORT_SIM, option, value, "--out", str(out)])
        assert exc_info.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err
        assert not out.exists()

    def test_vector_in_config_file_rejected(self, tmp_path, capsys):
        config = tmp_path / "opts.cfg"
        config.write_text("gyro_bias = nan,0,0\n")
        rc = main(["estimate", *SHORT_SIM, "--config", str(config),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "bad value for gyro_bias" in capsys.readouterr().err

    def test_nan_step_size_is_usage_error(self, tmp_path, capsys):
        rc = main(["estimate", *SHORT_SIM, "--alpha", "nan", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "alpha must be positive, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [
    (DivergenceError("boom"), 1),
    (NumericalError("boom"), 1),
    (AlignmentError("boom"), 1),
    (DegenerateQuaternionError("boom"), 1),
    (ParseError("boom"), 3),
    (StreamOrderError("boom"), 3),
    (SyncGapError("boom"), 3),
    (FileNotFoundError("boom"), 3),
    (OSError("boom"), 3),
    (SpecError("boom"), 2),
    (ValueError("boom"), 2),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_exit_code_per_error_class(monkeypatch, capsys, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_adapt", fail)
    assert main(["adapt", "--adapter", "a", "--input", "b", "--out", "c"]) == code
    assert capsys.readouterr().err == "error: boom\n"
