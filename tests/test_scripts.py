"""scripts/trajectory_diff.py: the per-quantity comparison behind its 1e-12 gate."""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trajectory_diff.py"


@pytest.fixture(scope="module")
def trajectory_diff():
    spec = importlib.util.spec_from_file_location("trajectory_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_max_deviation_of_finite_pairs(trajectory_diff):
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    pairs = [(a, a), (a, a + [[0.0, 5e-13], [-2e-13, 0.0]])]
    assert trajectory_diff.max_deviation(pairs) == pytest.approx(5e-13, rel=1e-3)
    assert trajectory_diff.max_deviation(pairs) <= trajectory_diff.TOLERANCE
    assert trajectory_diff.max_deviation([]) == 0.0


@pytest.mark.parametrize("old, new, reads", [
    ([0.0, np.nan], [0.0, 1.0], "nan"),
    ([0.0, 1.0], [0.0, np.nan], "nan"),
    ([np.inf, 1.0], [np.inf, 1.0], "nan"),
    ([0.0, 1.0], [0.0, -np.inf], "inf"),
], ids=["nan-vs-finite", "finite-vs-nan", "inf-minus-inf", "finite-vs-inf"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_difference_fails(trajectory_diff, old, new, reads):
    # The bad pair sits between two equal ones so that no later pair can hide it.
    same = (np.zeros(2), np.zeros(2))
    dev = trajectory_diff.max_deviation([same, (np.array(old), np.array(new)), same])
    assert f"{dev:g}" == reads
    assert not dev <= trajectory_diff.TOLERANCE


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_report_deviation_counts_nan_on_both_sides_as_equal(trajectory_diff):
    dev, bitwise = trajectory_diff.report_deviation([1.0, np.nan, 0.0, np.inf],
                                                    [1.0, np.nan, -0.0, np.inf])
    assert dev == 0.0
    assert bitwise == 3  # -0.0 equals 0.0 but differs in its sign bit


@pytest.mark.parametrize("old, new, reads", [
    ([1.0, np.nan], [1.0, 2.0], "nan"),
    ([1.0, 2.0], [1.0, np.nan], "nan"),
    ([1.0, 2.0], [1.0, 2.0 + 1e-9], "1e-09"),
], ids=["nan-vs-finite", "finite-vs-nan", "over-tolerance"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_report_deviation_fails_on_one_sided_nan_or_excess(trajectory_diff, old, new, reads):
    dev, bitwise = trajectory_diff.report_deviation(old, new)
    assert f"{dev:.3g}" == reads
    assert not dev <= trajectory_diff.TOLERANCE
    assert bitwise == 1


def test_imu_gaps_has_unequal_bursts_and_true_biases(trajectory_diff):
    # Every 7th IMU row dropped: bursts of 17 or 18 rows with 0.02 s spacings,
    # and the scenario's biases configured, where the survey has uniform
    # 20-row bursts and zero configured biases.
    m = {name: importlib.import_module(f"cipgnav.{name}")
         for name in ("preintegration", "sensors", "sim")}
    configs = trajectory_diff.CONFIGS
    spec = replace(m["sim"].benchmark_scenario(3, 10.0), imu_rate=configs["imu-gaps"]["imu_rate"])
    _, epochs, _, _, biases = trajectory_diff.config_inputs(m, configs["imu-gaps"], spec)
    assert {len(e.imu_burst) for e in epochs[1:]} == {17, 18}
    spacings = np.concatenate([np.diff(e.imu_burst[:, 0]) for e in epochs])
    assert spacings.max() == pytest.approx(0.02) and spacings.min() == pytest.approx(0.01)
    assert biases is spec.biases and biases.accel.all() and biases.gyro.all()
    _, epochs, _, _, biases = trajectory_diff.config_inputs(m, configs["survey"], spec)
    assert {len(e.imu_burst) for e in epochs[1:]} == {20}
    assert not (biases.accel.any() or biases.gyro.any())


def test_read_back_rows_are_the_trees_own_round_trip(trajectory_diff, tmp_path):
    # The files configuration's trajectories line compares what each tree's
    # write_trajectory then read_trajectory gives; on one tree that is what
    # the package's round trip gives, bit for bit, flags included.
    from cipgnav import cascade, sim, trajectory

    run = sim.generate(sim.benchmark_scenario(0, 10.0))
    points = cascade.run_cascade(run.epochs(), cascade.CascadeConfig(initial=run.initial_nav()))
    rows, flags = trajectory_diff.read_back_rows({"trajectory": trajectory}, points)
    path = tmp_path / "t.csv"
    trajectory.write_trajectory(points, path)
    back = trajectory.read_trajectory(path)
    expected = np.array([[p.t, *p.nav.position, *p.nav.velocity, *p.nav.orientation]
                         for p in back])
    assert rows.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert flags == [p.flag for p in points] and "warmup" in flags
    assert trajectory_diff.read_back_deviation([((rows, flags), (rows.copy(), flags))] * 2) == (
        0.0, rows.size * 2, rows.size * 2, True)


def test_read_back_deviation_reports_ulps_flags_and_lengths(trajectory_diff):
    rows = np.array([[0.2, 1.0, 2.0], [0.4, 3.0, 4.0]])
    moved = rows.copy()
    moved[1, 2] = np.nextafter(4.0, 5.0)
    dev, bitwise, total, equal = trajectory_diff.read_back_deviation(
        [((rows, ["ok", "ok"]), (moved, ["ok", "ok"]))])
    assert dev == np.nextafter(4.0, 5.0) - 4.0 and (bitwise, total, equal) == (5, 6, True)
    assert not trajectory_diff.read_back_deviation(
        [((rows, ["ok", "ok"]), (rows, ["ok", "fallback"]))])[3]
    assert not trajectory_diff.read_back_deviation(
        [((rows, ["ok", "ok"]), (rows[:1], ["ok"]))])[3]


def test_adapt_line_is_the_trees_own_adapt(trajectory_diff, tmp_path):
    # The files configuration's adapt line compares what each tree's adapt writes
    # from the script's girona_csv sources; on one tree that is adapt's own output,
    # and it converts back to the generated streams.
    from cipgnav import adapters, sensors, sim

    run = sim.generate(sim.benchmark_scenario(0, 10.0))
    digests, counts = trajectory_diff.adapted({"adapters": adapters}, run)
    trajectory_diff.write_girona(run, tmp_path / "src")
    out = tmp_path / "out"
    log = adapters.adapt("girona_csv", tmp_path / "src", out)
    assert digests == {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in out.iterdir()}
    assert counts == {"imu": (1000, 1000, 0), "dvl": (50, 50, 0), "ahrs": (50, 50, 0),
                      "gt": (51, 51, 0)}
    assert [c for kind in ("dvl", "ahrs", "gt") for c in log.streams[kind].conversions] == [
        "body-frame velocity -> navigation frame (via AHRS)", "euler (deg) -> quaternion",
        "quaternion order xyzw -> wxyz"]
    imu, dvl, ahrs, gt = (sensors.load_stream(out / f"{kind}.csv", kind)
                          for kind in ("imu", "dvl", "ahrs", "gt"))
    np.testing.assert_allclose(imu, run.imu, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(dvl, run.dvl, rtol=0.0, atol=1e-12)
    dots = np.sum(ahrs[:, 1:] * run.ahrs[:, 1:], axis=1)  # the sign is hemisphere_align's
    np.testing.assert_allclose(np.abs(dots), 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal([s.position for s in gt], [p.nav.position for p in run.truth])
    np.testing.assert_allclose([s.orientation for s in gt], [p.nav.orientation for p in run.truth],
                               rtol=0.0, atol=1e-15)


def test_adapt_agreement_reports_csvs_and_row_counts(trajectory_diff):
    result = ({"imu.csv": "ab12"}, {"imu": (3, 3, 0)})
    assert trajectory_diff.adapt_agreement([(result, result)] * 2) == (True, True)
    assert trajectory_diff.adapt_agreement(
        [(result, result), (result, ({"imu.csv": "ab13"}, result[1]))]) == (False, True)
    assert trajectory_diff.adapt_agreement(
        [(result, (result[0], {"imu": (3, 2, 1)})), (result, result)]) == (True, False)


@pytest.fixture(scope="module")
def cli_outputs(trajectory_diff):
    from cipgnav import cli

    return trajectory_diff.cli_outputs({"cli": cli})


def test_cli_line_is_the_trees_own_cli(trajectory_diff, cli_outputs, capsys, tmp_path):
    # On one tree the cli line's items are what cli.main prints and writes.
    from cipgnav import cli

    assert cli.main(["estimate", "--print-config"]) == 0
    assert cli_outputs["estimate --print-config (defaults)"] == (0, capsys.readouterr().out, "")
    for command, (config, flags) in trajectory_diff.CLI_CONFIGS.items():
        (tmp_path / "run.cfg").write_text(config)
        assert cli.main([command, "--config", str(tmp_path / "run.cfg"), *flags,
                         "--print-config", "--out", "unused"]) == 0
        assert cli_outputs[f"{command} --print-config (config)"] == (
            0, capsys.readouterr().out, "")
    assert "seed = 7\n" in cli_outputs["estimate --print-config (config)"][1]  # the flag wins
    assert "horizon = 6\n" in cli_outputs["compare --print-config (config)"][1]  # the file's
    assert (["--horizon"], "window length N (epochs)", "int", "None", None, False) in (
        cli_outputs["estimate options"])
    assert [row[0] for row in cli_outputs["evaluate options"]] == sorted(
        row[0] for row in cli_outputs["evaluate options"])
    assert {"simulate imu.csv", "simulate gt.csv", "simulate scenario.json"} <= set(cli_outputs)
    meta = cli_outputs["estimate ekf metadata"]
    assert meta["estimator"] == "ekf" and "runtime_s" not in meta and "output" not in meta
    assert meta["input"]["scenario"]["seed"] == 3
    assert cli_outputs["estimate ekf run"] == (0, "")
    assert cli_outputs["estimate ekf csv"].startswith(b"t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,flag")


def test_cli_line_reports_a_changed_default(trajectory_diff, cli_outputs, monkeypatch):
    from cipgnav import cli

    assert trajectory_diff.cli_differences(cli_outputs, dict(cli_outputs)) == []
    monkeypatch.setitem(cli.DEFAULTS, "horizon", 4)
    changed = trajectory_diff.cli_outputs({"cli": cli})
    assert trajectory_diff.cli_differences(cli_outputs, changed) == [
        "compare --print-config (defaults)", "estimate --print-config (defaults)",
        "estimate cipg csv", "estimate cipg metadata", "estimate ekf metadata",
        "estimate inekf metadata"]
    del changed["simulate run"]
    assert trajectory_diff.cli_differences(cli_outputs, changed)[-1] == "simulate run"
