#!/usr/bin/env python3
"""Run a table of source mutants against the tests and report which survive.

Each row of MUTANTS is one mutant: the file under ``src/cipgnav``, an exact
old text that occurs once in it, the new text, a name, whether the tests
must kill it, and its pytest target, by default the test module of its file
(``tests/test_baselines.py`` for ``baselines.py``).  For each mutant the
script copies ``src/`` to a temporary directory, makes the one replacement
there, and runs pytest on the row's target (or on ``--tests``) with that
copy first on the import path; the checkout itself is never changed.  A
mutant is killed when pytest fails.  Before the mutants, the unmutated copy
must pass every target.

Prints one line per mutant: killed or survived, its name, and the first
failing test of a killed one.  Exits 1 if a must-kill mutant survives, and 2
if the unmutated source fails a target or a row's old text does not occur
exactly once in its file (the table no longer matches the source).

The table holds mutants of the cascade's per-epoch code (the reduced
preconditioner update, the velocity stage's two-scalar composition, the
finiteness checks, the per-block lists of window terms, and the orientation
stage's hemisphere signs and the test that reruns their pass), of the
filters (the EKF predict's float loop: its spacing refusal, gyro bias,
strapdown order, attitude and error-transition blocks; the measurement
updates on Python floats, the InEKF's measurement rows and the runners'
reading check), of the field rules in ``errors.py``, of the burst table's
accelerometer refusal, of the CLI's naming of a refused metadata value, of
the fixed-order kernel ``quat.ordered_matmul`` and of the simulator's
navigation-to-body rotation.  A row that may survive says why.  Each mutant takes one pytest run of its target,
about 10 s for ``tests/test_cascade.py``, 30 s for ``tests/test_cli.py``
and 3 s for the others; none of this runs in tier-1.

Example:
    python3 scripts/mutants.py
    python3 scripts/mutants.py --only velocity-b-sign --tests tests/test_cascade.py::TestVelocityStage
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str  # under src/cipgnav
    old: str
    new: str
    name: str
    must_kill: bool
    tests: str | None = None  # pytest target; None: the test module of ``file``

    @property
    def target(self) -> str:
        return self.tests or f"tests/test_{Path(self.file).stem}.py"


MUTANTS = [
    # The reduced preconditioner update K' = c K + alpha (N-1) zeta (zeta^T K) + alpha I.
    Mutant("cascade.py", "keep, pull = 1.0 - alpha * (1.0 + rows), alpha * rows",
           "keep, pull = 1.0 - alpha * rows, alpha * rows", "precond-keep-constant", True),
    Mutant("cascade.py", "keep, pull = 1.0 - alpha * (1.0 + rows), alpha * rows",
           "keep, pull = 1.0 - alpha * (1.0 + rows), alpha * (rows + 1)",
           "precond-pull-constant", True),
    Mutant("cascade.py", "keep * k01 + pa * m1,", "keep * k01 - pa * m1,",
           "precond-off-diagonal-sign", True),
    Mutant("cascade.py", "keep * k33 + pd * m3 + alpha,", "keep * k33 + pd * m3,",
           "precond-diagonal-identity", True),
    Mutant("cascade.py", "pa, pb, pc, pd = pull * a, pull * b, pull * c, pull * d",
           "pa, pb, pc, pd = pull * a, pull * c, pull * b, pull * d",
           "precond-row-scale", True),
    # The velocity stage's d iterations composed as zeta_d = A zeta + B misfit.
    Mutant("cascade.py", "A - step * (n * A)", "A - step * A", "velocity-a-factor", True),
    Mutant("cascade.py", "B - step * (n * B + 1.0)", "B - step * (n * B - 1.0)",
           "velocity-b-sign", True),
    Mutant("cascade.py", "gain - alpha * (n * gain - 1.0)", "gain - alpha * (n * gain + 1.0)",
           "velocity-gain-sign", True),
    Mutant("cascade.py", "x = [A * a + B * m for a, m in zip(zeta, misfit)]",
           "x = [A * a - B * m for a, m in zip(zeta, misfit)]", "velocity-compose-sign", True),
    Mutant("cascade.py", "for a, b, c, u, v, w in (sums[:6], sums[6:12], sums[12:]))",
           "for a, b, c, u, v, w in (sums[:6], sums[12:], sums[6:12]))",
           "velocity-sums-order", True),
    # The finiteness checks.
    Mutant("cascade.py", "if not (all(map(math.isfinite, x)) and math.isfinite(gain)):",
           "if not math.isfinite(gain):", "velocity-check-gain-only", True),
    Mutant("cascade.py", "if not math.isfinite(norm + sum(k_next)) and not (",
           "if not math.isfinite(norm) and not (", "orientation-check-norm-only", True),
    Mutant("cascade.py", "if not math.isfinite(norm + sum(k_next)) and not (",
           "if not math.isfinite(norm + sum(k_next)) or not (", "orientation-check-sum-only",
           True),
    # The per-block lists: the maps for the warm start (M_1) and the estimate (M_{N-1}).
    Mutant("cascade.py", "W.tolist(), M[:, 0].tolist(),\n                       M[:, -1].tolist()",
           "W.tolist(), M[:, -1].tolist(),\n                       M[:, 0].tolist()",
           "block-first-last-swapped", True),
    Mutant("cascade.py", "start = ahrs[first:first + count]",
           "start = ahrs[first + 1:first + 1 + count]", "block-start-row", True),
    # The row pass of the orientation stage: the hemisphere signs of z_0 and of the
    # W_j, and the test that reruns it once the iterate may have crossed a hemisphere.
    Mutant("cascade.py", "s = -1.0 if dot < 0.0 else 1.0", "s = -1.0 if dot <= 0.0 else 1.0",
           "hemisphere-zero-dot", True),
    Mutant("cascade.py", "if dot < 0.0:\n                    p, q, r, t, dot",
           "if dot <= 0.0:\n                    p, q, r, t, dot", "row-zero-dot", True),
    Mutant("cascade.py", "if not e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3 < bound:", "if i == 0:",
           "row-pass-never-reruns", True),
    Mutant("cascade.py", "margin = low / (2.0 * w_max)", "margin = low / w_max",
           "row-pass-margin-not-halved", True),
    Mutant("cascade.py", "margin = low / (2.0 * w_max)", "margin = low / 2.0",
           "row-pass-margin-without-w-max", True),
    # The overflowing window's IMU row.
    Mutant("cascade.py", "return float(epoch.imu_burst[bad[0] if bad.size else -1, 0])",
           "return float(epoch.imu_burst[-1, 0])", "overflow-row-last", True),
    # May survive: normalizing M_1 zeta once instead of twice moves the warm
    # start by at most an ulp, which no tolerance of ipg_step's comparison sees.
    Mutant("cascade.py", "_unit(_unit(warm))", "_unit(warm)", "warm-single-normalize", False),
    # The filters: the EKF predict's float loop (its refusal, bias, strapdown order,
    # attitude and transition blocks), the updates' float algebra and H.
    Mutant("baselines.py", "ndt = -dt", "ndt = dt", "ekf-transition-sign", True),
    Mutant("baselines.py",
           "H += [1.0, dt * w2, -(dt * w1), -(dt * w2), 1.0, dt * w0, dt * w1, -(dt * w0), 1.0]",
           "H += [1.0, -(dt * w2), dt * w1, dt * w2, 1.0, -(dt * w0), -(dt * w1), dt * w0, 1.0]",
           "ekf-gyro-block-sign", True),
    Mutant("baselines.py", "w0 - c0, w1 - c1, w2 - c2", "w0, w1, w2", "ekf-gyro-bias-kept", True),
    Mutant("baselines.py",
           "p0, p1, p2 = p0 + dt * v0, p1 + dt * v1, p2 + dt * v2\n"
           "            v0, v1, v2 = v0 + dt * (f0 + g0), v1 + dt * (f1 + g1), v2 + dt * (f2 + g2)",
           "v0, v1, v2 = v0 + dt * (f0 + g0), v1 + dt * (f1 + g1), v2 + dt * (f2 + g2)\n"
           "            p0, p1, p2 = p0 + dt * v0, p1 + dt * v1, p2 + dt * v2",
           "ekf-position-end-velocity", True),
    Mutant("baselines.py", "rotation_entries(\n                _unit((qw, qx, qy, qz)))",
           "rotation_entries(\n                (qw, qx, qy, qz))", "ekf-unnormalized-attitude", True),
    Mutant("baselines.py", "if dt <= 0.0:", "if dt < 0.0:", "ekf-zero-spacing-accepted", True),
    Mutant("baselines.py",
           "unpack_burst(burst, t_start, config.biases.gyro, config.biases.accel)\n        raise",
           "raise", "ekf-degenerate-before-spacing", True),
    Mutant("baselines.py", "q_meas = [-mw, -mx, -my, -mz]", "q_meas = [mw, mx, my, mz]",
           "ekf-no-hemisphere-flip", True),
    Mutant("baselines.py", "product_entries([w, -x, -y, -z], q_meas)",
           "product_entries([w, x, y, z], q_meas)", "ekf-innovation-conjugate", True),
    Mutant("baselines.py", "P = IKH @ P @ IKH.T + (K * config._r) @ K.T", "P = IKH @ P @ IKH.T",
           "ekf-joseph-no-krk", True),
    Mutant("quat.py", "half = 0.5 * angle\n        s = math.sin(half)",
           "half = angle\n        s = math.sin(half)", "correction-full-angle", True,
           "tests/test_baselines.py"),
    Mutant("baselines.py", "H[0:3, 0:3] = _skew(state.velocity)",
           "H[0:3, 0:3] = -_skew(state.velocity)", "inekf-velocity-row-sign", True),
    Mutant("baselines.py", '("ahrs", epoch.ahrs), *rows]', '("ahrs", epoch.ahrs)]',
           "filter-imu-readings-unchecked", True),
    # The field rules, through the table of tests/test_errors.py.
    Mutant("errors.py", "isinstance(value, numbers.Real) or isinstance(value, bool)",
           "isinstance(value, numbers.Real)", "real-accepts-bool", True),
    Mutant("errors.py", "isinstance(value, numbers.Real) or isinstance(value, bool)",
           "isinstance(value, (numbers.Real, str)) or isinstance(value, bool)",
           "real-accepts-numeric-string", True),
    Mutant("errors.py", '"positive": value > 0.0', '"positive": value >= 0.0',
           "real-positive-inclusive", True),
    Mutant("errors.py", "if not (within and math.isfinite(value)):", "if not within:",
           "real-finiteness-dropped", True),
    Mutant("errors.py", "except OverflowError:", "except ZeroDivisionError:",
           "real-overflow-escapes", True),
    Mutant("errors.py", "and all(map(math.isfinite, xs)) and", "and",
           "vector-finiteness-dropped", True),
    Mutant("errors.py", "(not positive or min(xs) > 0)", "(not positive or min(xs) >= 0)",
           "vector-positive-inclusive", True),
    Mutant("errors.py", "shown = xs if value is v else value", "shown = xs",
           "vector-quotes-converted", True),
    Mutant("errors.py", "isinstance(value, numbers.Integral)", "isinstance(value, numbers.Real)",
           "count-accepts-float", True),
    Mutant("errors.py", "type(value) is type(option) and value == option", "value == option",
           "one-of-any-type", True),
    # The accelerometer refusal of BurstInput.from_epochs: the raise, and the flag
    # that sends a burst with a non-finite reading to it.
    Mutant("preintegration.py", "if bad.size:\n                    raise NumericalError(",
           "if False:\n                    raise NumericalError(", "accel-refusal-removed", True,
           "tests/test_cascade.py"),
    Mutant("preintegration.py", "\n                    | ~np.isfinite(accel).all(axis=(1, 2))]",
           "]", "accel-flag-dropped", True, "tests/test_cascade.py"),
    # --from-metadata names the file and key of a refused scenario or initial value.
    Mutant("cli.py", "except ValueError as exc:\n            raise SpecError(",
           "except OSError as exc:\n            raise SpecError(", "metadata-refusal-unnamed",
           True),
    # The fixed-order kernel: row norms back on BLAS matmul, whose rounding the
    # run-time kernel decides, and the sum taken from the last index.
    Mutant("quat.py", "return np.sqrt(_ordered_sum(X * X))",
           "return np.sqrt(X[..., None, :] @ X[..., :, None])[..., 0, 0]", "row-norms-on-blas",
           True, "tests/test_baselines.py::TestBlasKernel"),
    Mutant("quat.py", "total = P[..., 0]\n    for i in range(1, P.shape[-1]):",
           "total = P[..., -1]\n    for i in range(P.shape[-1] - 2, -1, -1):",
           "kernel-sum-reversed", True, "tests/test_quat.py"),
    # The simulator's navigation-to-body rotation of the specific force and DVL rows.
    Mutant("sim.py", "ordered_matmul(np.swapaxes(R, 1, 2), X[:, :, None])",
           "ordered_matmul(R, X[:, :, None])", "sim-body-untransposed", True,
           "tests/test_sim.py::TestBlockGeneration"),
]


def source(mutant: Mutant, src: Path = ROOT / "src") -> Path:
    return src / "cipgnav" / mutant.file


def run_tests(src: Path, tests: list) -> str | None:
    """Run pytest on ``tests`` with ``src`` first on the import path; returns None
    if they pass, else the first failing test (or pytest's last line)."""
    # No bytecode: a mutant of the same size, written within the same second as
    # the last one, would otherwise run from the last one's cached bytecode.
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                             "-p", "no:cacheprovider", *tests],
                            cwd=ROOT, env=env, capture_output=True, text=True)
    if result.returncode == 0:
        return None
    lines = result.stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else (lines[-1] if lines else f"exit {result.returncode}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    parser.add_argument("--tests", nargs="+",
                        help="pytest targets, relative to the checkout, for every mutant "
                             "(default: each row's own target)")
    args = parser.parse_args(argv)
    names = [m.name for m in MUTANTS]
    unknown = sorted(set(args.only or ()) - set(names))
    if unknown:
        parser.error(f"unknown mutants {unknown}; the table has {names}")
    mutants = [m for m in MUTANTS if args.only is None or m.name in args.only]

    stale = [m.name for m in mutants if source(m).read_text(encoding="utf-8").count(m.old) != 1]
    if stale:
        print(f"error: the old text of {stale} does not occur exactly once in its file",
              file=sys.stderr)
        return 2
    targets = {m.name: args.tests or [m.target] for m in mutants}
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for tests in dict.fromkeys(map(tuple, targets.values())):
            failure = run_tests(src, list(tests))
            if failure is not None:
                print(f"error: the unmutated source fails {' '.join(tests)}: {failure}",
                      file=sys.stderr)
                return 2
        status = 0
        for mutant in mutants:
            path = source(mutant, src)
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            failure = run_tests(src, targets[mutant.name])
            path.write_text(original, encoding="utf-8")
            verdict = "killed" if failure else "survived"
            note = failure or ("MUST BE KILLED" if mutant.must_kill else "may survive")
            print(f"{verdict:9s} {mutant.name:30s} {note}", flush=True)
            status |= failure is None and mutant.must_kill
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
