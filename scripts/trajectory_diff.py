#!/usr/bin/env python3
"""Compare two source trees of cipgnav: trajectories, metrics, files and CLI.

Imports the package from OLD_SRC, then from NEW_SRC (each a directory that
contains ``cipgnav/``), and runs each tree on ``benchmark_scenario`` for each
seed in seven configurations.  A tree's run is a table of lines,
{(configuration, line): {item: value}}, where an item is a tuple whose first
entry names its quantity.  One rule compares each item across the trees:

- float arrays of one shape agree if their max |difference| is within the
  line's tolerance: TOLERANCE (1e-12), or 0 for ``streams``.  NaN on both
  sides counts as equal; NaN on one side, or inf - inf, reads nan and fails;
- every other value (epoch times, flags, digests, row counts, CLI outputs)
  must be equal (``==``);
- an item that only one tree has, or two arrays of different shapes, differ.

The lines of each configuration, with their items per seed:
    cipg, ekf, inekf  each estimator's trajectory: epoch times, flags, and the
                  position, velocity and quaternion arrays.
    metrics       per estimator, the rows of the accuracy reports of the
                  tree's ``metrics.evaluate_trajectories`` for its own
                  trajectory and truth, default and then with ``align=True``.
    streams       the imu, dvl and ahrs arrays of the tree's ``sim.generate``.
    trajectories  (files only) per estimator, the rows (t, position,
                  velocity, quaternion) and flags that the tree's
                  ``write_trajectory`` writes and its ``read_trajectory``
                  reads back.
    adapt         (files only) the streams written by ``write_girona`` in the
                  source layout of the builtin ``girona_csv`` adapter and
                  converted by the tree's ``adapters.adapt``: the SHA-256 of
                  each CSV written, and each stream's rows read, written and
                  dropped.
and once, from the tree's ``cli.main`` run in this process:
    cli           the ``--print-config`` output of ``simulate``, ``estimate``
                  and ``compare``, with the defaults and with a config file
                  plus flags (CLI_CONFIGS); each subcommand's option table;
                  the bytes of every file that ``simulate --out`` writes for
                  CLI_SCENARIO; and per estimator the trajectory CSV of
                  ``estimate`` on CLI_SCENARIO and its metadata JSON without
                  ``runtime_s`` and ``output``.

Each line prints one row: the max |difference| per quantity, how many array
values are equal bit for bit, the count of each flag, and ``equal`` or the
names of the items that differ.  Each ``metrics`` row also prints each
tree's median and mean total error per estimator over the seeds; with
``--seeds 0-19`` the survey row's are the README's 20-seed table.

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

Exits 1 if any row differs, 0 otherwise.  An empty or malformed seed list
is a usage error (exit 2).

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
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

DURATION = 100.0  # seconds of each benchmark scenario
TOLERANCE = 1e-12  # largest accepted max |difference| of any quantity
LINE_TOLERANCE = {"streams": 0.0}  # the lines held to another tolerance
TOTAL_ERROR = 7  # index of total_error_m in TrajectoryReport.rows()
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
    """The seeds of a list such as 0-19 or 0,3,5-7.  An empty list, a part that is
    not a seed or a range, and a range that runs backwards are refused."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        first, last = int(lo), int(hi or lo)  # argparse makes a ValueError a usage error
        if last < first:
            raise argparse.ArgumentTypeError(f"the range {part!r} holds no seed")
        seeds.extend(range(first, last + 1))
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
    """{(configuration, line): {item: value}} of the tree at ``src`` (see the module
    docs); the ``cli`` line's configuration is ``""``."""
    m = import_tree(src)
    metrics_configs = [m["metrics"].MetricsConfig(align=align) for align in (False, True)]
    out = {}
    for config, c in CONFIGS.items():
        params = m["ipg"].IpgParams(**{key: c[key] for key in ("horizon", "iterations", "alpha")
                                       if key in c})
        files = ("trajectories", "adapt") if c.get("files") else ()
        lines = {line: {} for line in (*c["estimators"], "metrics", *files, "streams")}
        for seed in seeds:
            spec = replace(m["sim"].benchmark_scenario(seed, DURATION), imu_rate=c["imu_rate"],
                           dvl_frame=c.get("dvl_frame", "nav"))
            run, epochs, initial, truth, biases = config_inputs(m, c, spec)
            lines["streams"].update({(kind, seed): getattr(run, kind) for kind in STREAMS})
            if files:
                digests, counts = adapted(m, run)
                lines["adapt"].update({("csv", seed): digests, ("rows", seed): counts})
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
                lines[name].update({
                    ("t", seed): [p.t for p in points],
                    ("flags", seed): [p.flag for p in points],
                    ("position", seed): np.array([p.nav.position for p in points]),
                    ("velocity", seed): np.array([p.nav.velocity for p in points]),
                    ("quaternion", seed): np.array([p.nav.orientation for p in points]),
                })
                lines["metrics"][name, seed] = np.array([
                    value for config_ in metrics_configs for _, value in
                    m["metrics"].evaluate_trajectories(points, truth, config_).rows()])
                if files:
                    rows, flags = read_back_rows(m, points)
                    lines["trajectories"].update({("rows", name, seed): rows,
                                                  ("flags", name, seed): flags})
        out.update({(config, line): items for line, items in lines.items()})
    out["", "cli"] = {(name,): value for name, value in cli_outputs(m).items()}
    return out


def deviation(old, new) -> tuple[float, int]:
    """Largest |old - new| over two float arrays of one shape, and how many values
    are equal bit for bit.  NaN on both sides counts as equal; NaN on one side, or
    inf - inf, gives nan and an infinite difference inf, so that neither passes a
    ``<= tolerance`` test."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    both_nan = np.isnan(old) & np.isnan(new)
    diff = np.subtract(old, new, out=np.zeros(old.shape), where=~both_nan)
    bitwise = (old.view(np.int64) == new.view(np.int64)) | both_nan
    return float(np.max(np.abs(diff), initial=0.0)), int(bitwise.sum())  # np.max keeps NaN


def compare(old: dict, new: dict, tolerance: float = TOLERANCE) -> tuple:
    """Judge one line, {item: value} of each tree, by the rule of the module docs: the
    max |difference| per quantity over its arrays, how many array values are equal bit
    for bit, of how many, and the items that differ."""
    deviations, bitwise, values, differ = {}, 0, 0, []
    for item in dict.fromkeys([*old, *new]):
        a, b = old.get(item), new.get(item)
        if isinstance(a, np.ndarray) and np.shape(a) == np.shape(b):
            dev, n_bitwise = deviation(a, b)
            deviations[item[0]] = np.maximum(deviations.get(item[0], 0.0), dev)  # keeps NaN
            bitwise, values = bitwise + n_bitwise, values + a.size
            same = dev <= tolerance
        else:
            same = item in old and item in new and not isinstance(a, np.ndarray) and a == b
        if not same:
            differ.append(item)
    return deviations, bitwise, values, differ


def total_errors(items: dict) -> str:
    """Median and mean total error per estimator of a ``metrics`` line's items."""
    totals = {}
    for (name, _), values in items.items():
        totals.setdefault(name, []).append(values[TOTAL_ERROR])
    return "  ".join(f"{name} {np.median(t):.4f} ({np.mean(t):.4f})"
                     for name, t in totals.items())


def report(old: dict, new: dict) -> int:
    """Print one row per line of two trees' ``run_tree`` tables; 1 if any row
    differs, else 0."""
    status = 0
    for config, line in dict.fromkeys([*old, *new]):
        a, b = old.get((config, line), {}), new.get((config, line), {})
        deviations, bitwise, values, differ = compare(a, b, LINE_TOLERANCE.get(line, TOLERANCE))
        flags = Counter(flag for item, value in b.items() if item[0] == "flags" for flag in value)
        cells = [" ".join(f"max|d {q}| {dev:.3g}" for q, dev in deviations.items()),
                 f"{bitwise}/{values} values bit-equal" if values else "",
                 ", ".join(f"{n} {flag}" for flag, n in sorted(flags.items())),
                 "DIFFER: " + ", ".join(" ".join(map(str, item)) for item in differ)
                 if differ else f"equal ({len(b)} items)"]
        print(f"{config:12s} {line:12s} " + "; ".join(cell for cell in cells if cell))
        if line == "metrics":
            for side, items in (("old", a), ("new", b)):
                print(f"{'':25s} {side} total error median (mean): {total_errors(items)}")
        status |= bool(differ)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_src", type=Path, help="source tree of the reference version")
    parser.add_argument("new_src", type=Path, help="source tree of the changed version")
    parser.add_argument("--seeds", type=parse_seeds, default="0-19",
                        help="seed list such as 0-19 or 0,3,5-7")
    args = parser.parse_args(argv)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        old = run_tree(args.old_src, args.seeds)
        new = run_tree(args.new_src, args.seeds)
    print(f"seeds {','.join(map(str, args.seeds))}, {DURATION:g} s each, "
          f"tolerance {TOLERANCE:g} (streams exact)")
    return report(old, new)


if __name__ == "__main__":
    sys.exit(main())
