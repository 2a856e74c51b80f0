#!/usr/bin/env python3
"""Compare the trajectories and their metrics of two source trees of cipgnav.

Imports the package from OLD_SRC, then from NEW_SRC (each a directory that
contains ``cipgnav/``), runs the estimators on ``benchmark_scenario`` for
each seed in seven configurations, and prints per estimator and
configuration the max |difference| of position, velocity and quaternion over
all seeds and epochs, and whether the per-epoch flags are equal, with the
count of each flag.  The two trees must agree to within TOLERANCE (1e-12) in
every quantity.  One ``streams`` line per configuration says whether the
imu, dvl and ahrs arrays that each tree's ``sim.generate`` made are equal
(``np.array_equal``) for every seed; these must be equal exactly.

One ``metrics`` line per configuration compares the accuracy reports: each
tree scores its own trajectories against its own truth with its own
``metrics.evaluate_trajectories``, once with the default ``MetricsConfig``
and once with ``align=True``.  The line gives the max |difference| over every
report row of every estimator and seed (NaN on both sides counts as equal)
and how many of the values are equal bit for bit; every row must agree to
within TOLERANCE.

One ``trajectories`` line, in the ``files`` configuration, compares the
trajectory CSVs: each tree writes every estimator's rows with its own
``trajectory.write_trajectory`` and reads them back with its own
``read_trajectory``.  As the ``metrics`` line does, it gives the max
|difference| between the two trees' read-back rows (t, position, velocity,
quaternion) over every estimator and seed, against TOLERANCE, and how many
of the values are equal bit for bit; the read-back flags must be equal.

One ``adapt`` line, in the ``files`` configuration, compares dataset
ingestion: each seed's streams are written in the source layout of the
builtin ``girona_csv`` adapter by this script's own writer (gyro in deg/s,
DVL in the body frame, AHRS as roll, pitch and yaw in degrees, ground truth
with xyzw quaternions), and each tree converts them with its own
``adapters.adapt``.  The line says whether every CSV written is equal byte
for byte across the trees and whether each stream's rows read, written and
dropped are equal; both must be.

One ``cli`` line compares the command line: each tree's ``cli.main`` runs in
this process, and the line lists every item below that differs, or says
that all are equal.  The items are the ``--print-config`` output of
``simulate``, ``estimate`` and ``compare``, with the defaults and with a
config file plus flags (CLI_CONFIGS); each subcommand's option
table, sorted by flag (flags, help, type, default, choices, required); the
bytes of every file that ``simulate --out`` writes for CLI_SCENARIO; and for
each estimator the trajectory CSV of ``estimate`` on CLI_SCENARIO and its
metadata JSON without ``runtime_s`` and ``output``.

Configurations:
    survey        100 Hz IMU, window N=5, 3 inner iterations; cipg, EKF, InEKF
    long-window    25 Hz IMU, window N=10, 10 inner iterations; cipg, EKF, InEKF
    dvl-nan       survey settings with a NaN DVL row at every 50th epoch from
                  epoch 20; cipg only, with fallback="deadreckon".  Each NaN
                  row drives the cascade through N fallback epochs, the last
                  of which reseeds from the NaN row itself, so this is the
                  configuration that runs the fallback and reseed paths.  The
                  filters are skipped: they refuse a non-finite measurement
                  with a NumericalError naming the epoch.
    files         survey settings, cipg, EKF, InEKF, on epochs read back from
                  CSV files: each tree writes each seed's run to a temporary
                  directory with its own ``SyntheticRun.write``, loads it with
                  its own ``sensors.load_stream`` and ``synchronize``, and
                  starts from the gt.csv pose and the first DVL velocity, as
                  ``cipgnav estimate --input`` does.  This is the
                  configuration that covers CSV writing and loading, and the
                  one with the ``trajectories`` and ``adapt`` lines.
    body-dvl      survey settings with the DVL generated in the body frame;
                  cipg, EKF, InEKF on ``SyntheticRun.epochs()``, which
                  rotates it into the navigation frame with
                  ``sensors.dvl_body_to_nav``.  This is the configuration
                  that covers body-frame DVL generation and rotation.
    near-bound     25 Hz IMU, window N=19, 10 inner iterations, alpha 0.1
                  (alpha * N = 1.9, just under the bound of 2); cipg only.
                  The preconditioner recursion contracts most slowly here,
                  so a change in the rounding of the inner iterations shows
                  most.
    imu-gaps      survey settings with every 7th IMU row dropped before
                  ``sensors.synchronize``, so that bursts hold 17 or 18
                  samples and 0.02 s spacings appear, and with the scenario's
                  true IMU biases configured in ``CascadeConfig`` and
                  ``FilterConfig``; cipg, EKF, InEKF.  This is the
                  configuration with bursts of unequal length and nonzero
                  bias subtraction.

Exits 1 if any max |dp|, |dv|, |dq|, report or read-back difference exceeds
TOLERANCE or is not finite (a NaN or infinite difference reads nan or inf),
any flag (or epoch timestamp, or read-back flag) differs, any generated
stream differs, any adapted CSV or row count differs, or any ``cli`` item
differs, 0 otherwise.

Example:
    python3 scripts/trajectory_diff.py old_checkout/src src --seeds 0-19
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

DURATION = 100.0  # seconds of each benchmark scenario
TOLERANCE = 1e-12  # largest accepted max |difference| of any quantity
ESTIMATORS = ("cipg", "ekf", "inekf")
STREAMS = ("imu", "dvl", "ahrs")
# The cli line's inputs: a noisy, biased scenario for simulate and estimate, and per
# command a config file and flags, some over its options, for --print-config.
CLI_SCENARIO = ["--scenario", "lawnmower", "--duration", "20", "--noise", "bluerov2",
                "--accel-bias", "0.01,0,-0.01", "--gyro-bias", "0,0.001,0", "--seed", "3"]
_SCENARIO_CONFIG = "# a comment\ndvl_frame = body\nwaypoints = 0,0,0; 10,5,0\nseed = 4\n"
_ESTIMATOR_CONFIG = "horizon = 6\nalpha = 0.2\nr_scale = 0.05\ngravity = 0,0,9.8\n"
CLI_CONFIGS = {
    "simulate": (_SCENARIO_CONFIG, ["--seed", "7", "--noise", "bluerov2", "--dvl-std", "0.03"]),
    "estimate": (_SCENARIO_CONFIG + _ESTIMATOR_CONFIG,
                 ["--seed", "7", "--horizon", "4", "--estimator", "ekf", "--duration", "30"]),
    "compare": (_SCENARIO_CONFIG + _ESTIMATOR_CONFIG + "lever_arm = 2\n",
                ["--rpe-delta", "2.5", "--q-vel", "1e-5", "--fallback", "deadreckon"]),
}
CONFIGS = {
    "survey": dict(imu_rate=100.0, horizon=5, iterations=3, estimators=ESTIMATORS),
    "long-window": dict(imu_rate=25.0, horizon=10, iterations=10, estimators=ESTIMATORS),
    "dvl-nan": dict(imu_rate=100.0, horizon=5, iterations=3, estimators=("cipg",),
                    nan_dvl=slice(20, None, 50)),
    "files": dict(imu_rate=100.0, horizon=5, iterations=3, estimators=ESTIMATORS,
                  files=True),
    "body-dvl": dict(imu_rate=100.0, horizon=5, iterations=3, estimators=ESTIMATORS,
                     dvl_frame="body"),
    "near-bound": dict(imu_rate=25.0, horizon=19, iterations=10, alpha=0.1,
                       estimators=("cipg",)),
    "imu-gaps": dict(imu_rate=100.0, horizon=5, iterations=3, estimators=ESTIMATORS,
                     drop_imu_every=7),
}


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def import_tree(src: Path) -> dict:
    """Import cipgnav from ``src`` alone, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "cipgnav" or m.startswith("cipgnav.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"cipgnav.{name}")
                for name in ("adapters", "baselines", "cascade", "cli", "ipg",
                             "preintegration", "sensors", "metrics", "sim", "trajectory")}
    finally:
        sys.path.remove(str(src))
    origin = Path(mods["cascade"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"imported cipgnav from {origin}, not from {src}")
    return mods


def read_back(m: dict, run):
    """Epochs, initial state and truth of ``run`` after a round trip through CSV files."""
    sensors = m["sensors"]
    with tempfile.TemporaryDirectory() as tmp:
        run.write(tmp)
        imu, dvl, ahrs, gt = (sensors.load_stream(Path(tmp) / f"{kind}.csv", kind)
                              for kind in ("imu", "dvl", "ahrs", "gt"))
    epochs = sensors.synchronize(imu, dvl, ahrs)
    initial = m["preintegration"].NavState(gt[0].position, epochs[0].dvl, gt[0].orientation)
    return epochs, initial, m["metrics"].truth_from_gt(gt)[0]


def read_back_rows(m: dict, points):
    """``points`` written with the tree's ``write_trajectory`` and read back with its
    ``read_trajectory``: an (n, 11) array of t, position, velocity and quaternion
    rows, and the flags."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        m["trajectory"].write_trajectory(points, path)
        back = m["trajectory"].read_trajectory(path)
    rows = [[p.t, *p.nav.position, *p.nav.velocity, *p.nav.orientation] for p in back]
    return np.array(rows, dtype=float).reshape(len(back), 11), [p.flag for p in back]


def read_back_deviation(pairs) -> tuple[float, int, int, bool]:
    """Over (old, new) pairs of ``read_back_rows`` results: the largest |old - new|
    row value, how many values are equal bit for bit, of how many, and whether
    the rows have the same shape and the flags are equal in every pair."""
    compared = [(a[0].ravel(), b[0].ravel()) for a, b in pairs if a[0].shape == b[0].shape]
    equal = len(compared) == len(pairs) and all(a[1] == b[1] for a, b in pairs)
    dev, n_bitwise = report_deviation(np.concatenate([np.empty(0)] + [a for a, _ in compared]),
                                      np.concatenate([np.empty(0)] + [b for _, b in compared]))
    return dev, n_bitwise, sum(a[0].size for a, _ in pairs), equal


def write_table(path: Path, header: str, rows) -> None:
    """Write ``header`` and then the rows of an array, each number as its ``repr``."""
    path.write_text("\n".join([header, *(",".join(map(repr, row)) for row in rows.tolist())])
                    + "\n")


def write_girona(run, src: Path) -> None:
    """Write ``run``'s streams in the source layout of the builtin ``girona_csv``
    adapter, with numpy alone: gyro in deg/s, the DVL rotated into the body frame by
    the AHRS quaternion of its row (the generator samples both at the same times), the
    AHRS as roll, pitch and yaw in degrees, and ground truth with xyzw quaternions."""
    src.mkdir()
    w, x, y, z = run.ahrs[:, 1:].T
    R = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                  [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                  [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    body = np.einsum("ijk,ki->kj", R, run.dvl[:, 1:])  # R(q)^T v
    euler = np.degrees(np.column_stack([
        np.arctan2(2 * (w * x + y * z), 1 - 2 * (x * x + y * y)),
        np.arcsin(np.clip(2 * (w * y - z * x), -1.0, 1.0)),
        np.arctan2(2 * (w * z + x * y), 1 - 2 * (y * y + z * z))]))
    truth = np.array([[p.t, *p.nav.position, *p.nav.orientation[1:], p.nav.orientation[0]]
                      for p in run.truth])
    imu = np.column_stack([run.imu[:, :4], np.degrees(run.imu[:, 4:])])
    write_table(src / "imu_adis.csv", "stamp,ax,ay,az,wx,wy,wz", imu)
    write_table(src / "dvl_linkquest.csv", "stamp,u,v,w", np.column_stack([run.dvl[:, :1], body]))
    write_table(src / "ahrs_xsens.csv", "stamp,roll_deg,pitch_deg,yaw_deg",
                np.column_stack([run.ahrs[:, :1], euler]))
    write_table(src / "odometry.csv", "stamp,north,east,depth,qx,qy,qz,qw", truth)


def adapted(m: dict, run) -> tuple[dict, dict]:
    """``run`` written by ``write_girona`` and converted with the tree's ``adapters.adapt``
    and ``girona_csv``: the SHA-256 of each CSV written, by file name, and each stream's
    rows read, written and dropped."""
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "src", Path(tmp) / "out"
        write_girona(run, src)
        log = m["adapters"].adapt("girona_csv", src, out)
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.iterdir())}
    return digests, {kind: (s.rows_read, s.rows_written, s.rows_dropped)
                     for kind, s in log.streams.items()}


def adapt_agreement(pairs) -> tuple[bool, bool]:
    """Over (old, new) pairs of ``adapted`` results: whether the CSVs written are equal
    byte for byte, and whether the row counts are equal, in every pair."""
    return all(a[0] == b[0] for a, b in pairs), all(a[1] == b[1] for a, b in pairs)


def run_cli(cli, argv) -> tuple:
    """``cli.main(argv)`` in this process: its exit code, stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def option_table(parser) -> list:
    """A parser's options sorted by flag: flags, help, type, default, choices, required."""
    return sorted((action.option_strings, action.help,
                   getattr(action.type, "__name__", repr(action.type)), repr(action.default),
                   action.choices, action.required) for action in parser._actions)


def cli_outputs(m: dict) -> dict:
    """The items of the ``cli`` line (see the module docs) by name, from the tree's
    ``cli.main``."""
    cli = m["cli"]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for command, (config, flags) in CLI_CONFIGS.items():
            (tmp / f"{command}.cfg").write_text(config)
            for label, extra in (("defaults", []),
                                 ("config", ["--config", str(tmp / f"{command}.cfg"), *flags])):
                out[f"{command} --print-config ({label})"] = run_cli(
                    cli, [command, *extra, "--print-config", "--out", str(tmp / "unused")])
        commands = next(action.choices for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        for command, parser in commands.items():
            out[f"{command} options"] = option_table(parser)
        code, text, err = run_cli(cli, ["simulate", *CLI_SCENARIO, "--out", str(tmp / "sim")])
        out["simulate run"] = code, text.replace(str(tmp), "TMP"), err
        for path in sorted((tmp / "sim").glob("*")):
            out[f"simulate {path.name}"] = path.read_bytes()
        for name in ESTIMATORS:
            csv = tmp / f"{name}.csv"
            code, _, err = run_cli(cli, ["estimate", *CLI_SCENARIO, "--estimator", name,
                                         "--out", str(csv)])  # stdout holds the runtime
            out[f"estimate {name} run"] = code, err
            if code == 0:
                meta = json.loads(csv.with_suffix(".meta.json").read_text())
                del meta["runtime_s"], meta["output"]
                out[f"estimate {name} csv"] = csv.read_bytes()
                out[f"estimate {name} metadata"] = meta
    return out


def cli_differences(old: dict, new: dict) -> list:
    """The names of the ``cli_outputs`` items that differ, or that one side lacks."""
    return [item for item in sorted(old.keys() | new.keys()) if old.get(item) != new.get(item)]


def config_inputs(m: dict, c: dict, spec):
    """The run generated from ``spec`` and, for configuration ``c``, its epochs,
    initial state and truth, and the IMU biases the estimators are configured with."""
    run = m["sim"].generate(spec)
    if c.get("files"):
        epochs, initial, truth = read_back(m, run)
    else:
        epochs, initial, truth = run.epochs(), run.initial_nav(), run.truth
    biases = m["preintegration"].ImuBiases()
    if "drop_imu_every" in c:
        kept = np.arange(len(run.imu)) % c["drop_imu_every"] != c["drop_imu_every"] - 1
        epochs = m["sensors"].synchronize(run.imu[kept], run.dvl, run.ahrs)
        biases = spec.biases
    for k in range(len(epochs))[c.get("nan_dvl", slice(0))]:
        epochs[k] = replace(epochs[k], dvl=np.full(3, np.nan))
    return run, epochs, initial, truth, biases


def run_tree(src: Path, seeds) -> dict:
    """{(config, estimator, seed): (t, position, velocity, quaternion, flags, report
    values)}, {(config, "streams", seed): (imu, dvl, ahrs)} of the generated run, and,
    in a configuration with CSV files, {(config, "read-back", estimator, seed):
    read_back_rows} and {(config, "adapt", seed): adapted}; and {"cli": cli_outputs}.

    The report values are the rows of the default and then the aligned report."""
    m = import_tree(src)
    metrics_configs = {align: m["metrics"].MetricsConfig(align=align) for align in (False, True)}
    out = {"cli": cli_outputs(m)}
    for config, c in CONFIGS.items():
        params = m["ipg"].IpgParams(**{key: c[key] for key in ("horizon", "iterations", "alpha")
                                       if key in c})
        for seed in seeds:
            spec = replace(m["sim"].benchmark_scenario(seed, DURATION), imu_rate=c["imu_rate"],
                           dvl_frame=c.get("dvl_frame", "nav"))
            run, epochs, initial, truth, biases = config_inputs(m, c, spec)
            out[config, "streams", seed] = tuple(getattr(run, kind) for kind in STREAMS)
            if c.get("files"):
                out[config, "adapt", seed] = adapted(m, run)
            fallback = "deadreckon" if "nan_dvl" in c else "abort"
            runners = {
                "cipg": lambda: m["cascade"].run_cascade(epochs, m["cascade"].CascadeConfig(
                    params=params, biases=biases, initial=initial, fallback=fallback)),
                "ekf": lambda: m["baselines"].run_ekf(
                    epochs, m["baselines"].FilterConfig(biases=biases), initial=initial),
                "inekf": lambda: m["baselines"].run_inekf(
                    epochs, m["baselines"].FilterConfig(biases=biases), initial=initial),
            }
            for name in c["estimators"]:
                points = runners[name]()
                out[config, name, seed] = (
                    np.array([p.t for p in points]),
                    np.array([p.nav.position for p in points]),
                    np.array([p.nav.velocity for p in points]),
                    np.array([p.nav.orientation for p in points]),
                    [p.flag for p in points],
                    [value for align in (False, True) for _, value in m["metrics"]
                     .evaluate_trajectories(points, truth, metrics_configs[align]).rows()],
                )
                if c.get("files"):
                    out[config, "read-back", name, seed] = read_back_rows(m, points)
    return out


def max_deviation(pairs) -> float:
    """Largest |old - new| entry over (old, new) array pairs; 0.0 for none.

    A NaN difference (NaN on either side, or inf - inf) gives NaN and an
    infinite one inf, so neither can pass a ``<= TOLERANCE`` test.
    """
    devs = [np.max(np.abs(np.subtract(old, new)), initial=0.0) for old, new in pairs]
    return float(np.max(devs, initial=0.0))  # np.max, unlike max(), propagates NaN


def report_deviation(old, new) -> tuple[float, int]:
    """Largest |old - new| over two equal-length lists of report values, with NaN
    on both sides (or equal infinities) counting as equal, and how many values
    are equal bit for bit (NaN on both sides included)."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    both_nan = np.isnan(old) & np.isnan(new)
    equal = (old == new) | both_nan
    bitwise = (old.view(np.int64) == new.view(np.int64)) | both_nan
    return max_deviation([(old[~equal], new[~equal])]), int(bitwise.sum())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_src", type=Path, help="source tree of the reference version")
    parser.add_argument("new_src", type=Path, help="source tree of the changed version")
    parser.add_argument("--seeds", default="0-19", help="seed list such as 0-19 or 0,3,5-7")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        old = run_tree(args.old_src, seeds)
        new = run_tree(args.new_src, seeds)

    print(f"seeds {args.seeds}, {DURATION:g} s each, tolerance {TOLERANCE:g}")
    print(f"{'config':12s} {'estimator':9s} {'max|dp| m':>10s} {'max|dv| m/s':>11s} "
          f"{'max|dq|':>10s}  flags")
    same = True
    for config, c in CONFIGS.items():
        for name in c["estimators"]:
            flags_equal = True
            counts = {}
            compared = []
            for seed in seeds:
                a, b = old[config, name, seed], new[config, name, seed]
                if not np.array_equal(a[0], b[0]):  # different epochs: nothing to compare
                    flags_equal = False
                    continue
                flags_equal &= a[4] == b[4]
                compared.append((a, b))
                for flag in b[4]:
                    counts[flag] = counts.get(flag, 0) + 1
            dev = np.array([max_deviation((a[k], b[k]) for a, b in compared) for k in (1, 2, 3)])
            within = bool(np.all(dev <= TOLERANCE))
            same &= flags_equal and within
            summary = ", ".join(f"{n} {f}" for f, n in sorted(counts.items()))
            verdict = f"equal ({summary})" if flags_equal else "DIFFER"
            excess = "" if within else "  OVER TOLERANCE"
            print(f"{config:12s} {name:9s} {dev[0]:10.3g} {dev[1]:11.3g} {dev[2]:10.3g}  "
                  f"{verdict}{excess}")
        reports = [(old[config, name, seed][5], new[config, name, seed][5])
                   for name in c["estimators"] for seed in seeds]
        dev, n_bitwise = report_deviation(*(np.concatenate(side) for side in zip(*reports)))
        n_values = sum(len(a) for a, _ in reports)
        within = dev <= TOLERANCE
        same &= within
        excess = "" if within else "  OVER TOLERANCE"
        print(f"{config:12s} {'metrics':9s} {dev:10.3g}  "
              f"{n_bitwise}/{n_values} report values equal bit for bit{excess}")
        if c.get("files"):
            dev, n_bitwise, n_values, flags_equal = read_back_deviation(
                [(old[config, "read-back", name, seed], new[config, "read-back", name, seed])
                 for name in c["estimators"] for seed in seeds])
            within = dev <= TOLERANCE
            same &= within and flags_equal
            excess = "" if within else "  OVER TOLERANCE"
            flags = "flags equal" if flags_equal else "flags or rows DIFFER"
            print(f"{config:12s} {'trajectories':9s} {dev:7.3g}  {n_bitwise}/{n_values} "
                  f"read-back values equal bit for bit, {flags}{excess}")
            csvs, counts = adapt_agreement([(old[config, "adapt", seed], new[config, "adapt", seed])
                                            for seed in seeds])
            same &= csvs and counts
            print(f"{config:12s} {'adapt':9s} CSVs {'equal' if csvs else 'DIFFER'} byte for byte, "
                  f"row counts {'equal' if counts else 'DIFFER'}")
        differ = [kind for k, kind in enumerate(STREAMS)
                  if not all(np.array_equal(old[config, "streams", seed][k],
                                            new[config, "streams", seed][k]) for seed in seeds)]
        same &= not differ
        verdict = f"DIFFER: {', '.join(differ)}" if differ else f"{'/'.join(STREAMS)} equal"
        print(f"{config:12s} {'streams':9s} {verdict}")
    differ = cli_differences(old["cli"], new["cli"])
    same &= not differ
    verdict = f"DIFFER: {', '.join(differ)}" if differ else f"{len(new['cli'])} items equal"
    print(f"{'cli':12s} {'outputs':9s} {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
