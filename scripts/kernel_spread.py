#!/usr/bin/env python3
"""Run one source tree under several OpenBLAS kernels and compare the results.

OpenBLAS built with DYNAMIC_ARCH picks its kernel by CPU at run time, and the
environment variable OPENBLAS_CORETYPE overrides the pick.  For the default
kernel and for each core type named, a child Python whose environment alone
sets OPENBLAS_CORETYPE imports cipgnav from SRC, generates
``benchmark_scenario`` for each seed (100 s) and runs cipg, the EKF and the
InEKF with their default configs.  Each core type's results are compared
with the default kernel's by ``trajectory_diff.deviation``:

- the imu, dvl and ahrs streams and the cipg trajectory must be bit-equal,
  as the package forms them with no BLAS call;
- the EKF and InEKF keep BLAS products in their covariance algebra, so their
  spread is printed as measured: the max |difference| of positions,
  velocities and quaternions over all seeds.

Exits 1 if a stream or a cipg trajectory differs, 0 otherwise.  The core
types are x86-64 kernel names.

Example:
    python3 scripts/kernel_spread.py src --seeds 0-19 --cores Haswell Prescott
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from trajectory_diff import deviation, parse_seeds  # noqa: E402

DURATION = 100.0  # seconds of each benchmark scenario
STREAMS = ("imu", "dvl", "ahrs")
EXACT = (*STREAMS, "cipg")  # bit-equal under every kernel
MEASURED = ("ekf", "inekf")  # their spread is printed
CHILD = "import runpy, sys; runpy.run_path(sys.argv[1])['run_seeds'](*sys.argv[2:])"


def run_seeds(out, seeds, duration) -> None:
    """The child's work: streams and (position, velocity, quaternion) rows of each
    estimator for every seed of the comma-separated ``seeds``, saved to ``out``."""
    from cipgnav.baselines import FilterConfig, run_ekf, run_inekf
    from cipgnav.cascade import CascadeConfig, run_cascade
    from cipgnav.sim import benchmark_scenario, generate

    arrays = {}
    for seed in map(int, seeds.split(",")):
        run = generate(benchmark_scenario(seed, float(duration)))
        epochs = run.epochs()
        arrays.update({f"{seed} {kind}": getattr(run, kind) for kind in STREAMS})
        for name, points in [("cipg", run_cascade(epochs, CascadeConfig())),
                             ("ekf", run_ekf(epochs, FilterConfig())),
                             ("inekf", run_inekf(epochs, FilterConfig()))]:
            arrays[f"{seed} {name}"] = np.array(
                [[*p.nav.position, *p.nav.velocity, *p.nav.orientation] for p in points])
    np.savez(out, **arrays)


def under_core(src: Path, core, seeds: list, out: Path) -> dict:
    """``run_seeds`` in a child whose environment sets OPENBLAS_CORETYPE to ``core``
    (None: the default kernel); returns its arrays."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([str(src), *filter(None, [env.get("PYTHONPATH")])])
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    subprocess.run([sys.executable, "-c", CHILD, __file__, str(out),
                    ",".join(map(str, seeds)), str(DURATION)], env=env, check=True)
    with np.load(out) as data:
        return dict(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", type=Path, help="directory that contains cipgnav/")
    parser.add_argument("--seeds", type=parse_seeds, default=[0], help="e.g. 0-19")
    parser.add_argument("--cores", nargs="+", default=["Haswell", "Prescott"],
                        help="OPENBLAS_CORETYPE values to compare with the default kernel")
    args = parser.parse_args(argv)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        base = under_core(args.src, None, args.seeds, Path(tmp) / "default.npz")
        for core in args.cores:
            other = under_core(args.src, core, args.seeds, Path(tmp) / f"{core}.npz")
            differ = sorted({key.split()[1] for key in base if key.split()[1] in EXACT
                             and base[key].tobytes() != other[key].tobytes()})
            status |= bool(differ)
            cells = [f"{', '.join(differ)} DIFFER" if differ else "streams and cipg bit-equal"]
            for name in MEASURED:
                keys = [key for key in base if key.split()[1] == name]
                spread = [max(deviation(base[key][:, cols], other[key][:, cols])[0]
                              for key in keys)
                          for cols in (slice(0, 3), slice(3, 6), slice(6, 10))]
                cells.append(f"{name} max|d position| {spread[0]:.3g} max|d velocity| "
                             f"{spread[1]:.3g} max|d quaternion| {spread[2]:.3g}")
            print(f"{core:<10} " + "; ".join(cells), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
