#!/usr/bin/env python3
"""Compare the trajectories and their metrics of two source trees of cipgnav.

Imports the package from OLD_SRC, then from NEW_SRC (each a directory that
contains ``cipgnav/``), runs the estimators on ``benchmark_scenario`` for
each seed in six configurations, and prints per estimator and
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
                  configuration that covers CSV writing and loading.
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

Exits 1 if any max |dp|, |dv|, |dq| or report difference exceeds TOLERANCE
or is not finite (a NaN or infinite difference reads nan or inf), any flag
(or epoch timestamp) differs, or any generated stream differs, 0 otherwise.

Example:
    python3 scripts/trajectory_diff.py old_checkout/src src --seeds 0-19
"""

from __future__ import annotations

import argparse
import importlib
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
                for name in ("baselines", "cascade", "ipg", "preintegration", "sensors",
                             "metrics", "sim")}
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


def run_tree(src: Path, seeds) -> dict:
    """{(config, estimator, seed): (t, position, velocity, quaternion, flags, report
    values)}, and {(config, "streams", seed): (imu, dvl, ahrs)} of the generated run.

    The report values are the rows of the default and then the aligned report."""
    m = import_tree(src)
    metrics_configs = {align: m["metrics"].MetricsConfig(align=align) for align in (False, True)}
    out = {}
    for config, c in CONFIGS.items():
        params = m["ipg"].IpgParams(**{key: c[key] for key in ("horizon", "iterations", "alpha")
                                       if key in c})
        for seed in seeds:
            spec = replace(m["sim"].benchmark_scenario(seed, DURATION), imu_rate=c["imu_rate"],
                           dvl_frame=c.get("dvl_frame", "nav"))
            run = m["sim"].generate(spec)
            out[config, "streams", seed] = tuple(getattr(run, kind) for kind in STREAMS)
            if c.get("files"):
                epochs, initial, truth = read_back(m, run)
            else:
                epochs, initial, truth = run.epochs(), run.initial_nav(), run.truth
            fallback = "abort"
            if "nan_dvl" in c:
                fallback = "deadreckon"
                for k in range(len(epochs))[c["nan_dvl"]]:
                    epochs[k] = replace(epochs[k], dvl=np.full(3, np.nan))
            runners = {
                "cipg": lambda: m["cascade"].run_cascade(epochs, m["cascade"].CascadeConfig(
                    params=params, initial=initial, fallback=fallback)),
                "ekf": lambda: m["baselines"].run_ekf(
                    epochs, m["baselines"].FilterConfig(), initial=initial),
                "inekf": lambda: m["baselines"].run_inekf(
                    epochs, m["baselines"].FilterConfig(), initial=initial),
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
        differ = [kind for k, kind in enumerate(STREAMS)
                  if not all(np.array_equal(old[config, "streams", seed][k],
                                            new[config, "streams", seed][k]) for seed in seeds)]
        same &= not differ
        verdict = f"DIFFER: {', '.join(differ)}" if differ else f"{'/'.join(STREAMS)} equal"
        print(f"{config:12s} {'streams':9s} {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
