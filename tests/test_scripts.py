"""scripts/trajectory_diff.py: the one comparison rule behind its 1e-12 gate, and
the items each tree's run gives it; scripts/mutants.py: its table against the
source, and one must-kill mutant killed; scripts/kernel_spread.py: its verdict,
and one run under another OpenBLAS kernel."""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import platform
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trajectory_diff():
    return load_script("trajectory_diff")


@pytest.fixture(scope="module")
def mutants():
    return load_script("mutants")


@pytest.fixture(scope="module")
def kernel_spread():
    return load_script("kernel_spread")


def spread_arrays(rng) -> dict:
    """Arrays as ``kernel_spread.under_core`` returns them, for seeds 0 and 1."""
    return {f"{seed} {name}": rng.normal(size=(5, 10 if name in ("cipg", "ekf", "inekf") else 4))
            for seed in (0, 1) for name in ("imu", "dvl", "ahrs", "cipg", "ekf", "inekf")}


@pytest.mark.parametrize("edit, status", [(None, 0), ("1 ahrs", 1), ("0 cipg", 1)],
                         ids=["filters-only", "ahrs", "cipg"])
def test_kernel_spread_requires_bit_equal_streams_and_cipg(kernel_spread, monkeypatch, capsys,
                                                           edit, status):
    base = spread_arrays(np.random.default_rng(3))
    base["1 ekf"][2, 4], base["0 inekf"][4, 7] = 1.0, 0.5
    other = {key: value.copy() for key, value in base.items()}
    other["1 ekf"][2, 4] += 2.0**-43  # the filters move by their BLAS products
    other["0 inekf"][4, 7] -= 2.0**-49
    if edit:
        other[edit][0, 0] = np.nextafter(other[edit][0, 0], np.inf)
    monkeypatch.setattr(kernel_spread, "under_core",
                        lambda src, core, seeds, out: base if core is None else other)
    assert kernel_spread.main(["src", "--cores", "Prescott"]) == status
    row = capsys.readouterr().out
    verdict = f"{edit.split()[1]} DIFFER" if edit else "streams and cipg bit-equal"
    assert row == (f"Prescott   {verdict}; ekf max|d position| 0 max|d velocity| 1.14e-13 "
                   "max|d quaternion| 0; inekf max|d position| 0 max|d velocity| 0 "
                   "max|d quaternion| 1.78e-15\n")


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the OpenBLAS kernels named are x86-64 ones")
def test_kernel_spread_under_another_kernel(kernel_spread, monkeypatch, capsys):
    monkeypatch.setattr(kernel_spread, "DURATION", 10.0)
    src = Path(importlib.import_module("cipgnav").__file__).resolve().parents[1]
    assert kernel_spread.main([str(src), "--seeds", "0", "--cores", "Prescott"]) == 0
    assert capsys.readouterr().out.startswith("Prescott   streams and cipg bit-equal; ekf ")


def test_mutant_table_matches_the_source(mutants):
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names)) >= 10
    for m in mutants.MUTANTS:
        assert mutants.source(m).read_text(encoding="utf-8").count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        assert (mutants.ROOT / m.target.split("::")[0]).is_file(), m.name


def test_must_kill_mutant_is_killed(mutants, capsys):
    # One pytest run of the unmutated copy and one of the mutant, on one node.
    node = "tests/test_cascade.py::TestVelocityStage::test_closed_form_matches_ipg_step"
    assert mutants.main(["--only", "velocity-b-sign", "--tests", node]) == 0
    assert capsys.readouterr().out == f"{'killed':9s} {'velocity-b-sign':30s} {node}\n"


def test_deviation_of_finite_arrays(trajectory_diff):
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    dev, bitwise = trajectory_diff.deviation(a, a + [[0.0, 5e-13], [-2e-13, 0.0]])
    assert dev == pytest.approx(5e-13, rel=1e-3) and dev <= trajectory_diff.TOLERANCE
    assert bitwise == 2
    assert trajectory_diff.deviation(np.empty((0, 3)), np.empty((0, 3))) == (0.0, 0)


@pytest.mark.parametrize("old, new, reads", [
    ([0.0, np.nan], [0.0, 1.0], "nan"),
    ([0.0, 1.0], [0.0, np.nan], "nan"),
    ([np.inf, 1.0], [np.inf, 1.0], "nan"),
    ([0.0, 1.0], [0.0, -np.inf], "inf"),
], ids=["nan-vs-finite", "finite-vs-nan", "inf-minus-inf", "finite-vs-inf"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_difference_fails(trajectory_diff, old, new, reads):
    # The bad value sits between two equal ones so that no later value can hide it.
    dev, bitwise = trajectory_diff.deviation([0.0, *old, 0.0], [0.0, *new, 0.0])
    assert f"{dev:g}" == reads
    assert not dev <= trajectory_diff.TOLERANCE
    assert bitwise == (4 if old[0] == new[0] == np.inf else 3)  # inf - inf fails, bit-equal


def test_deviation_counts_nan_on_both_sides_as_equal(trajectory_diff):
    dev, bitwise = trajectory_diff.deviation([1.0, np.nan, 0.0], [1.0, np.nan, -0.0])
    assert dev == 0.0
    assert bitwise == 2  # -0.0 equals 0.0 but differs in its sign bit


SEEDS = (0, 1, 2)


def hand_built_tree() -> dict:
    """A table as ``run_tree`` returns it, built by hand: an estimator line, and a
    metrics (with NaN values), trajectories, adapt and streams line, over three seeds,
    and a cli line."""
    rng = np.random.default_rng(7)
    tree = {("survey", "cipg"): {}, ("files", "metrics"): {}, ("files", "trajectories"): {},
            ("files", "adapt"): {}, ("files", "streams"): {}}
    for seed in SEEDS:
        tree["survey", "cipg"].update({
            ("t", seed): [0.2, 0.4], ("flags", seed): ["warmup", "ok"],
            ("position", seed): rng.normal(size=(2, 3)),
            ("velocity", seed): rng.normal(size=(2, 3)),
            ("quaternion", seed): rng.normal(size=(2, 4))})
        report = rng.normal(size=26)
        report[[10, 23]] = np.nan  # as an RPE of a run too short for its horizon
        report[7] = (0.1, 0.2, 0.6)[seed]  # total_error_m of the default report
        tree["files", "metrics"]["cipg", seed] = report
        tree["files", "trajectories"].update({("rows", "cipg", seed): rng.normal(size=(2, 11)),
                                              ("flags", "cipg", seed): ["warmup", "ok"]})
        tree["files", "adapt"].update({("csv", seed): {"imu.csv": "ab12", "gt.csv": "cd34"},
                                       ("rows", seed): {"imu": (3, 3, 0), "gt": (2, 2, 0)}})
        tree["files", "streams"].update({(kind, seed): rng.normal(size=(4, 4))
                                         for kind in ("imu", "dvl", "ahrs")})
    tree["", "cli"] = {("estimate --print-config (defaults)",): (0, "horizon = 5\n", ""),
                       ("simulate imu.csv",): b"t,ax,ay,az,gx,gy,gz\n"}
    return tree


def printed_rows(out: str) -> dict:
    """{(configuration, line): the rest of its row} of ``report``'s output."""
    return {(text[:12].strip(), text[13:25].strip()): text[26:]
            for text in out.splitlines() if text[13:25].strip() and not text.startswith("seeds ")}


def moved(by):
    def move(value):
        value = value.copy()
        value[-1, -1] += by
        return value
    return move


@pytest.mark.parametrize("row, item, edit", [
    (("survey", "cipg"), ("position", 1), moved(2e-12)),
    (("survey", "cipg"), ("velocity", 0), moved(2e-12)),
    (("survey", "cipg"), ("quaternion", 2), moved(-2e-12)),
    (("survey", "cipg"), ("position", 0), lambda v: np.where(v == v[0, 0], np.nan, v)),
    (("survey", "cipg"), ("flags", 1), lambda flags: ["warmup", "fallback"]),
    (("survey", "cipg"), ("t", 2), lambda t: [0.2, np.nextafter(0.4, 1.0)]),
    (("files", "metrics"), ("cipg", 1), lambda v: np.append(v[:-1], np.nan)),
    (("files", "metrics"), ("cipg", 0), lambda v: v + np.eye(26)[3] * 2e-12),
    (("files", "trajectories"), ("rows", "cipg", 2), lambda rows: rows[:1]),
    (("files", "trajectories"), ("flags", "cipg", 0), lambda flags: ["ok", "ok"]),
    (("files", "adapt"), ("csv", 1), lambda csv: {**csv, "gt.csv": "cd35"}),
    (("files", "adapt"), ("rows", 2), lambda rows: {**rows, "imu": (3, 2, 1)}),
    (("files", "streams"), ("dvl", 0), lambda v: np.where(v == v[2, 1], np.nextafter(v, 9), v)),
    (("", "cli"), ("estimate --print-config (defaults)",),
     lambda out: (0, "horizon = 4\n", "")),
    (("", "cli"), ("simulate imu.csv",), None),
], ids=["position", "velocity", "quaternion", "nan-on-one-side", "flag", "epoch-time",
        "report-nan-on-one-side", "report-over-tolerance", "read-back-length",
        "read-back-flags", "adapt-digest", "adapt-row-count", "stream-ulp", "cli-changed",
        "cli-missing"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_one_changed_item_makes_its_row_differ(trajectory_diff, capsys, row, item, edit):
    old, new = hand_built_tree(), hand_built_tree()
    if edit is None:
        del new[row][item]
    else:
        new[row][item] = edit(new[row][item])
    assert trajectory_diff.report(old, new) == 1
    rows = printed_rows(capsys.readouterr().out)
    assert list(rows) == list(old)
    assert rows[row].endswith("DIFFER: " + " ".join(map(str, item)))
    assert all(text.split("; ")[-1].startswith("equal (") for key, text in rows.items()
               if key != row)
    tolerance = trajectory_diff.LINE_TOLERANCE.get(row[1], trajectory_diff.TOLERANCE)
    assert trajectory_diff.compare(old[row], new[row], tolerance)[3] == [item]


def test_same_tree_twice_is_equal_and_prints_the_medians(trajectory_diff, capsys):
    # NaN on both sides of the metrics line counts as equal.
    assert trajectory_diff.report(hand_built_tree(), hand_built_tree()) == 0
    out = capsys.readouterr().out
    rows = printed_rows(out)
    assert rows["survey", "cipg"] == ("max|d position| 0 max|d velocity| 0 max|d quaternion| 0; "
                                      "60/60 values bit-equal; 3 ok, 3 warmup; equal (15 items)")
    assert rows["files", "metrics"] == "max|d cipg| 0; 78/78 values bit-equal; equal (3 items)"
    assert rows["files", "adapt"] == "equal (6 items)"
    assert rows["", "cli"] == "equal (2 items)"
    for side in ("old", "new"):
        assert f"{side} total error median (mean): cipg 0.2000 (0.3000)\n" in out


def test_streams_are_exact_and_other_lines_within_tolerance(trajectory_diff):
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    near = a + [[0.0, 5e-13], [0.0, 0.0]]
    assert trajectory_diff.compare({("imu", 0): a}, {("imu", 0): near})[3] == []
    assert trajectory_diff.compare({("imu", 0): a}, {("imu", 0): near}, 0.0)[3] == [("imu", 0)]
    assert trajectory_diff.LINE_TOLERANCE == {"streams": 0.0}


def test_total_error_indexes_the_default_report(trajectory_diff):
    from cipgnav import metrics

    names = [name for name, _ in metrics.TrajectoryReport(np.zeros(3), np.zeros(3),
                                                          *[0.0] * 7).rows()]
    assert names[trajectory_diff.TOTAL_ERROR] == "total_error_m"


@pytest.mark.parametrize("seeds", ["5-3", "", "a", "1,,2", "-1", "0-2,5-3", "1-b"])
def test_bad_seed_list_is_usage_error(trajectory_diff, capsys, seeds):
    # 5-3 once compared nothing and failed with a TypeError traceback, '' and
    # a with a ValueError traceback; an empty list would compare nothing and pass.
    with pytest.raises(SystemExit) as exc_info:
        trajectory_diff.main(["old", "new", "--seeds", seeds])
    assert exc_info.value.code == 2
    assert "argument --seeds" in capsys.readouterr().err


def test_parse_seeds(trajectory_diff):
    assert trajectory_diff.parse_seeds("0,3,5-7") == [0, 3, 5, 6, 7]
    assert trajectory_diff.parse_seeds("0-19") == list(range(20))


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
    line = {("rows", "cipg", 0): rows, ("flags", "cipg", 0): flags}
    assert trajectory_diff.compare(line, {("rows", "cipg", 0): rows.copy(),
                                          ("flags", "cipg", 0): list(flags)}) == (
        {"rows": 0.0}, rows.size, rows.size, [])


def test_trajectories_line_reports_ulps_flags_and_lengths(trajectory_diff):
    rows = np.array([[0.2, 1.0, 2.0], [0.4, 3.0, 4.0]])
    moved = rows.copy()
    moved[1, 2] = np.nextafter(4.0, 5.0)
    old = {("rows", "ekf", 0): rows, ("flags", "ekf", 0): ["ok", "ok"]}
    assert trajectory_diff.compare(old, {**old, ("rows", "ekf", 0): moved}) == (
        {"rows": np.nextafter(4.0, 5.0) - 4.0}, 5, 6, [])
    assert trajectory_diff.compare(old, {**old, ("flags", "ekf", 0): ["ok", "fallback"]})[3] == [
        ("flags", "ekf", 0)]
    assert trajectory_diff.compare(old, {**old, ("rows", "ekf", 0): rows[:1]})[1:] == (
        0, 0, [("rows", "ekf", 0)])


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

    def differ(old, new):
        line = [{(name,): value for name, value in outputs.items()} for outputs in (old, new)]
        return sorted(name for name, in trajectory_diff.compare(*line)[3])

    assert differ(cli_outputs, dict(cli_outputs)) == []
    monkeypatch.setitem(cli.DEFAULTS, "horizon", 4)
    changed = trajectory_diff.cli_outputs({"cli": cli})
    assert differ(cli_outputs, changed) == [
        "compare --print-config (defaults)", "estimate --print-config (defaults)",
        "estimate cipg csv", "estimate cipg metadata", "estimate ekf metadata",
        "estimate inekf metadata"]
    del changed["simulate run"]
    assert differ(cli_outputs, changed)[-1] == "simulate run"


@pytest.fixture
def restore_cipgnav():
    """Put back the cipgnav modules that ``import_tree`` replaces."""
    def ours():
        return [name for name in sys.modules if name == "cipgnav" or name.startswith("cipgnav.")]

    saved = {name: sys.modules[name] for name in ours()}
    yield
    for name in ours():
        del sys.modules[name]
    sys.modules.update(saved)


def test_changed_default_delta_differs_in_its_rows_alone(trajectory_diff, tmp_path, capsys,
                                                        monkeypatch, restore_cipgnav):
    # A copy of the tree whose IpgParams takes delta 0.5 by default: every cipg
    # result changes, so its trajectories, the reports, the read-back rows and the
    # CLI's cipg outputs differ, and nothing of the filters or the data does.
    src = SCRIPTS.parent / "src"
    changed = tmp_path / "src"
    shutil.copytree(src, changed, ignore=shutil.ignore_patterns("__pycache__"))
    ipg = changed / "cipgnav" / "ipg.py"
    text = ipg.read_text()
    assert text.count("    delta: float = 1.0\n") == 1
    ipg.write_text(text.replace("    delta: float = 1.0\n", "    delta: float = 0.5\n"))
    monkeypatch.setattr(trajectory_diff, "DURATION", 10.0)
    assert trajectory_diff.main([str(src), str(changed), "--seeds", "0"]) == 1
    rows = printed_rows(capsys.readouterr().out)
    configs = trajectory_diff.CONFIGS
    expected = {(config, line) for config in configs for line in ("cipg", "metrics")}
    expected |= {("files", "trajectories"), ("", "cli")}
    assert {key for key, text in rows.items() if "DIFFER: " in text} == expected
    assert {key for key, text in rows.items() if "DIFFER: " not in text} == {
        (config, line) for config, c in configs.items()
        for line in (*c["estimators"][1:], "streams")} | {("files", "adapt")}
    assert rows["", "cli"].startswith("DIFFER: estimate --print-config (defaults), ")
