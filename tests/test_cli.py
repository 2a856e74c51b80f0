"""Command-line interface: workflows, config resolution, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from cipgnav import cli
from cipgnav.adapters import resolve_adapter
from cipgnav.baselines import FilterConfig
from cipgnav.cascade import CascadeConfig
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
from cipgnav.ipg import IpgParams
from cipgnav.metrics import MetricsConfig, truth_from_gt
from cipgnav.preintegration import GravityModel, ImuBiases, NavState
from cipgnav.quat import quat_from_yaw, quat_multiply, quat_to_rotation
from cipgnav.sensors import load_stream, synchronize
from cipgnav.sim import NoiseSpec, ScenarioSpec, benchmark_scenario, generate
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

    def test_undecodable_byte_in_config_file_names_the_line(self, tmp_path, capsys):
        # Once a UnicodeDecodeError naming neither the file nor the line.  A byte that
        # is not UTF-8 in a comment is ignored with the comment.
        config = tmp_path / "opts.cfg"
        config.write_bytes(b"# caf\xe9\nseed = 9\nduration = 3\xe9\n")
        rc = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {config}:3: not UTF-8 text: 'duration = 3\\udce9'\n")
        assert not (tmp_path / "x").exists()
        config.write_bytes(b"# caf\xe9\nseed = 9\n")
        assert main(["simulate", "--config", str(config), "--print-config", "--out", "x"]) == 0
        assert "seed = 9\n" in capsys.readouterr().out

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

    def test_replay_names_both_causes_of_a_digest_mismatch(self, tmp_path, capsys):
        # A scenario run recorded by a version whose simulated streams rounded
        # differently: its digest is not the one this version computes.
        assert main(["estimate", *SHORT_SIM, "--out", str(tmp_path / "traj.csv")]) == 0
        meta = json.loads((tmp_path / "traj.meta.json").read_text())
        digest, meta["epoch_hash"] = meta["epoch_hash"], "sha256-v2:" + "0" * 64
        old_meta = tmp_path / "old.meta.json"
        old_meta.write_text(json.dumps(meta, indent=2))
        capsys.readouterr()
        rc = main(["estimate", "--from-metadata", str(old_meta), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: epoch stream does not match the metadata (got {digest}, recorded "
            f"sha256-v2:{'0' * 64}): the input data changed, or a cipgnav whose streams "
            "round differently recorded the metadata; re-run `cipgnav estimate` with the "
            "same input and options to record this version's digest\n")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["estimate", "--alpha", "nan"], "alpha must be finite and positive, got nan"),
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

    @pytest.mark.parametrize("flags, named", [
        (["--horizon", "7"], "--horizon"),
        (["--duration", "30"], "--duration"),
        (["--gyro-bias", "0,0,0"], "--gyro-bias"),
        (["--input", "somewhere"], "--input"),
        (["--config", "opts.cfg"], "--config"),
        (["--print-config"], "--print-config"),
        (["--horizon", "7", "--print-config", "--seed", "0"], "--seed, --horizon, --print-config"),
    ], ids=["estimator-option", "scenario-option", "imu-model-option", "input", "config",
            "print-config", "several"])
    def test_replay_refuses_run_options(self, tmp_path, capsys, flags, named):
        # Such a flag was once ignored: the run replayed with the recorded options.
        assert main(["estimate", *SHORT_SIM, "--out", str(tmp_path / "traj.csv")]) == 0
        capsys.readouterr()
        replay = tmp_path / "replay.csv"
        rc = main(["estimate", "--from-metadata", str(tmp_path / "traj.meta.json"), *flags,
                   "--out", str(replay)])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: --from-metadata replays the options and "
                                       f"input its file records; it takes no {named}\n")
        assert not replay.exists() and not replay.with_suffix(".meta.json").exists()

    def test_replay_takes_out_and_metadata(self, tmp_path):
        traj = tmp_path / "traj.csv"
        assert main(["estimate", *SHORT_SIM, "--out", str(traj)]) == 0
        meta = tmp_path / "elsewhere" / "replay.json"
        rc = main(["estimate", "--from-metadata", str(tmp_path / "traj.meta.json"),
                   "--out", str(tmp_path / "replay.csv"), "--metadata", str(meta)])
        assert rc == 0
        assert (tmp_path / "replay.csv").read_bytes() == traj.read_bytes()
        assert json.loads(meta.read_text())["output"] == str(tmp_path / "replay.csv")

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m["input"]["scenario"].update(dvl_rate=5.0), "scenario: unknown keys "
         "['dvl_rate']"),
        (lambda m: m["input"]["scenario"]["noise"].update(dvl_rate=5.0),
         "scenario noise: unknown keys ['dvl_rate']"),
        (lambda m: m["input"]["scenario"]["biases"].update(mag=[0, 0, 0]),
         "scenario biases: unknown keys ['mag']"),
        (lambda m: m.pop("epoch_hash"), "{path}: the metadata has no 'epoch_hash' key"),
        (lambda m: m["params"].pop("alpha"), "{path}: the metadata has no 'alpha' key"),
        (lambda m: m["input"].pop("scenario"), "{path}: the metadata has no 'scenario' key"),
        (lambda m: m.pop("output"), "{path}: the metadata has no 'output' key"),
        (None, "{path}: the metadata is not a JSON object"),  # the metadata in a list
    ], ids=["scenario-key", "noise-key", "biases-key", "no-epoch-hash", "no-param",
            "no-scenario", "no-output", "not-an-object"])
    def test_malformed_metadata_is_usage_error(self, tmp_path, capsys, edit, message):
        # Each once escaped as a TypeError or KeyError traceback with exit 1.
        assert main(["estimate", *SHORT_SIM, "--out", str(tmp_path / "traj.csv")]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "traj.meta.json").read_text())
        bad = tmp_path / "bad.meta.json"
        if edit is None:
            meta = [meta]
        else:
            edit(meta)
        bad.write_text(json.dumps(meta))
        rc = main(["estimate", "--from-metadata", str(bad)])  # no --out: "output" is read
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: " + message.format(path=bad))

    @pytest.mark.parametrize("edit, key", [
        (lambda m: m.update(input=5), "input"),
        (lambda m: m["input"].update(scenario=5), "input"),
        (lambda m: m.update(epoch_hash=5), "epoch_hash"),
        (lambda m: m.update(params=5), "params"),
    ], ids=["input", "scenario", "epoch-hash", "params"])
    def test_metadata_value_of_wrong_type_is_usage_error(self, tmp_path, capsys, edit, key):
        # Each once escaped as a TypeError or AttributeError traceback with exit 1.
        assert main(["estimate", *SHORT_SIM, "--estimator", "ekf",
                     "--out", str(tmp_path / "traj.csv")]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "traj.meta.json").read_text())
        edit(meta)
        bad = tmp_path / "bad.meta.json"
        bad.write_text(json.dumps(meta))
        replay = tmp_path / "replay.csv"
        rc = main(["estimate", "--from-metadata", str(bad), "--out", str(replay)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: the metadata's {key!r} has a value of the wrong type (")
        assert not replay.exists() and not replay.with_suffix(".meta.json").exists()

    @pytest.mark.parametrize("estimator, key, value, reason", [
        ("cipg", "alpha", "x", "alpha must be a real number, got 'x'"),
        ("cipg", "horizon", "5", "horizon must be an integer, got '5'"),
        ("ekf", "q_pos", "x", "q_pos must be a real number, got 'x'"),
        ("cipg", "alpha", "0.5", "alpha must be a real number, got '0.5'"),
        ("ekf", "q_pos", "5", "q_pos must be a real number, got '5'"),
        ("ekf", "r_scale", "x", "r_scale must be a real number, got 'x'"),
    ], ids=["cascade-float", "cascade-integer", "filter-float", "cascade-numeric-string",
            "filter-numeric-string", "r-scale"])
    def test_metadata_parameter_a_config_refuses_is_usage_error(
            self, tmp_path, capsys, estimator, key, value, reason):
        # Each once printed the config class's message alone, without the file,
        # and a float's without the key; a numeric string for a float once replayed.
        assert main(["estimate", *SHORT_SIM, "--estimator", estimator,
                     "--out", str(tmp_path / "traj.csv")]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "traj.meta.json").read_text())
        meta["params"][key] = value
        bad = tmp_path / "bad.meta.json"
        bad.write_text(json.dumps(meta))
        replay = tmp_path / "replay.csv"
        rc = main(["estimate", "--from-metadata", str(bad), "--out", str(replay)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: the metadata's {key!r} is refused: {reason}\n"
        assert not replay.exists()

    @pytest.mark.parametrize("part, key, value, reason", [
        ("input", "seed", 1.5, "seed must be an integer, got 1.5"),
        ("input", "seed", "x", "seed must be an integer, got 'x'"),
        ("input", "seed", -1, "seed must be >= 0, got -1"),
        ("input", "duration", True, "duration must be a real number, got True"),
        ("input", "duration", 10**400, "duration must be finite and positive, got a value "
                                       "beyond the float range"),
        ("input", "kind", "spiral", "kind must be one of ('stationary', 'line', 'circle', "
                                    "'lawnmower', 'waypoints'), got 'spiral'"),
        ("initial", "position", float("nan"), "position must be 3 finite values, got {}"),
        ("initial", "velocity", float("-inf"), "velocity must be 3 finite values, got {}"),
    ], ids=["seed-float", "seed-str", "seed-negative", "duration-bool", "duration-beyond-float",
            "kind", "initial-nan", "initial-inf"])
    def test_metadata_scenario_or_initial_value_refused_names_file_and_key(
            self, tmp_path, capsys, part, key, value, reason):
        # Each once ended in a traceback, a message naming no file (numpy's, or an
        # epoch digest mismatch), or, for the initial state, a replay writing NaN rows.
        assert main(["estimate", *SHORT_SIM, "--out", str(tmp_path / "traj.csv")]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "traj.meta.json").read_text())
        if part == "input":
            meta["input"]["scenario"][key] = value
        else:
            meta["initial"][key][0] = value
            reason = reason.format(meta["initial"][key])
        bad = tmp_path / "bad.meta.json"
        bad.write_text(json.dumps(meta))
        replay = tmp_path / "replay.csv"
        rc = main(["estimate", "--from-metadata", str(bad), "--out", str(replay)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {bad}: the metadata's {part!r} is refused: {reason}\n"
        assert not replay.exists() and not replay.with_suffix(".meta.json").exists()

    def test_metadata_parameters_refused_together_name_the_file(self, tmp_path, capsys):
        # alpha * horizon = 2.1: each value alone is accepted.
        assert main(["estimate", *SHORT_SIM, "--out", str(tmp_path / "traj.csv")]) == 0
        capsys.readouterr()
        meta = json.loads((tmp_path / "traj.meta.json").read_text())
        meta["params"].update(alpha=0.35, horizon=6)
        bad = tmp_path / "bad.meta.json"
        bad.write_text(json.dumps(meta))
        rc = main(["estimate", "--from-metadata", str(bad), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: alpha * horizon must be < 2")

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


class TestUndecodableByte:
    """A byte that is not UTF-8 once failed with exit 2 and a UnicodeDecodeError
    naming neither the file nor the line; it is a data error with its line."""

    @staticmethod
    def put_byte(path, line, field=1):
        lines = path.read_bytes().split(b"\n")
        fields = lines[line - 1].split(b",")
        fields[field] += b"\xe9"
        lines[line - 1] = b",".join(fields)
        path.write_bytes(b"\n".join(lines))

    def test_sensor_stream(self, tmp_path, capsys):
        data = simulate_into(tmp_path)
        self.put_byte(data / "dvl.csv", 4)
        rc = main(["estimate", "--input", str(data), "--out", str(tmp_path / "t.csv")])
        assert rc == 3
        assert f"{data / 'dvl.csv'}:line 4: non-numeric value" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [1, 4], ids=["header", "body"])
    def test_trajectory_truth(self, tmp_path, capsys, line):
        # evaluate reads the truth's header to tell a trajectory from a gt stream.
        data = simulate_into(tmp_path)
        traj = tmp_path / "t.csv"
        assert main(["estimate", "--input", str(data), "--out", str(traj)]) == 0
        capsys.readouterr()
        estimate = tmp_path / "estimate.csv"
        estimate.write_bytes(traj.read_bytes())
        self.put_byte(traj, line)
        rc = main(["evaluate", "--estimate", str(estimate), "--truth", str(traj)])
        assert rc == 3
        assert f"{traj}:line {line}: " in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b'{\n  "command": "estimate",\n  not json\n}', "{path}:3: not valid JSON: Expecting "
     "property name enclosed in double quotes (column 3)"),
    (b'{"command": "estimate", "x": "caf\xe9"}', "{path}: not UTF-8 text"),
], ids=["not-json", "not-utf8"])
@pytest.mark.parametrize("command", ["estimate", "adapt"])
def test_bad_json_file_names_the_file(tmp_path, capsys, content, message, command):
    # Both once printed the decoder's message alone, naming neither file nor line.
    path = tmp_path / "in.json"
    path.write_bytes(content)
    argv = {"estimate": ["estimate", "--from-metadata", str(path)],
            "adapt": ["adapt", "--adapter", str(path), "--input", str(tmp_path),
                      "--out", str(tmp_path / "out")]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


class TestHashEpochs:
    """Recorded metadata replays only while the digest of an epoch stream is unchanged."""

    def test_constant_streams_digest(self):
        assert hash_epochs(synchronize(*make_streams())) == (
            "sha256-v2:8bc258624ef9fa7fd5445d18063887623aa62d37310c6757c46949926fd121cf")

    def test_benchmark_scenario_digest(self):
        assert hash_epochs(generate(benchmark_scenario(0, 20.0)).epochs()) == (
            "sha256-v2:6bffdbec59e1cc7367c8be50c5991314d95a4f7f32b7bd69d52bf57363ea9341")

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
         "n_align_fixes must be >= 2, got 0"),
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

    def test_zero_quaternion_row_is_dropped(self, tmp_path, capsys):
        # Such a row once made adapt exit 1, naming neither the file nor the line.
        src = tmp_path / "src"
        src.mkdir()
        write_bluerov2_sources(src)
        with open(src / "attitude.csv", "a") as fh:
            fh.write("2500,0,0,0,0\n")
        rc = main(["adapt", "--adapter", "bluerov2_csv", "--input", str(src),
                   "--out", str(tmp_path / "canon")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ahrs: read 21 rows from attitude.csv, wrote 20, dropped 1" in out

    def test_bad_time_offset_names_the_stream(self, tmp_path, capsys):
        spec = resolve_adapter("bluerov2_csv")
        spec["streams"]["imu"]["time"]["offset"] = "abc"
        (tmp_path / "adapter.json").write_text(json.dumps(spec))
        rc = main(["adapt", "--adapter", str(tmp_path / "adapter.json"), "--input", str(tmp_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "imu: time offset must be a finite number, got 'abc'" in capsys.readouterr().err


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


# `estimate --print-config` with no flag and no config file, as the CLI printed it
# when its schema stated each default itself.
PRINT_CONFIG_DEFAULTS = """\
accel_bias = (0.0, 0.0, 0.0)
accel_density = None
ahrs_std = None
alpha = 0.1
circle_radius = 100.0
delta = 1.0
duration = 100.0
dvl_frame = nav
dvl_std = None
estimator = cipg
fallback = abort
gravity = (0.0, 0.0, 9.81)
gyro_bias = (0.0, 0.0, 0.0)
gyro_density = None
horizon = 5
imu_rate = 100.0
initial_heading = 0.0
iterations = 3
k0_scale = 0.001
lawnmower_leg = 40.0
lawnmower_spacing = 10.0
meas_rate = 5.0
noise = none
p0_scale = 0.1
q_att = 1e-08
q_pos = 1e-08
q_vel = 4e-06
r_scale = 0.1
scenario = circle
seed = 0
speed = 0.5
waypoints = None
"""


class TestParser:
    def test_print_config_of_the_defaults(self, capsys):
        assert main(["estimate", "--print-config"]) == 0
        assert capsys.readouterr().out == PRINT_CONFIG_DEFAULTS

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert "cipgnav" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    def test_defaults_equal_the_library_defaults(self):
        # The options default to the library configs' fields, and the builders map
        # them back: with no flag and no config file, the CLI must build the configs
        # the library builds by default.
        cfg = cli.resolve_options(argparse.Namespace(), cli.SCENARIO_OPTS, cli.ESTIMATOR_OPTS,
                                  cli.EVALUATE_OPTS)
        cascade = cli.build_cascade_config(cfg, None)
        assert cascade.params == IpgParams() and cascade.fallback == CascadeConfig().fallback
        filters, default = cli.build_filter_config(cfg), FilterConfig()
        for name in ("p0_scale", "r_vel", "r_att", "q_pos", "q_vel", "q_att"):
            np.testing.assert_array_equal(getattr(filters, name), getattr(default, name))
        assert cli._from_options(MetricsConfig, cfg) == MetricsConfig()
        scenario, default = cli.build_scenario(cfg), ScenarioSpec()
        assert scenario.noise == NoiseSpec.preset("none")
        for name in (f.name for f in fields(ScenarioSpec) if f.name not in ("biases", "gravity")):
            assert getattr(scenario, name) == getattr(default, name), name
        for built in (cascade, filters, scenario):
            np.testing.assert_array_equal(built.biases.accel, ImuBiases().accel)
            np.testing.assert_array_equal(built.biases.gyro, ImuBiases().gyro)
            np.testing.assert_array_equal(built.gravity.vector, GravityModel().vector)


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
        assert "alpha must be finite and positive, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("option, name", [
        ("--alpha", "alpha"), ("--delta", "delta"), ("--k0-scale", "k0_scale")])
    def test_infinite_step_size_is_usage_error(self, tmp_path, capsys, option, name):
        # --delta inf and --k0-scale inf once ran, and exited 1 with a divergence
        # of the orientation stage at the first epoch.
        out = tmp_path / "t.csv"
        rc = main(["estimate", "--scenario", "line", "--duration", "5", option, "inf",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {name} must be finite and positive, got inf\n"
        assert not out.exists()


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
