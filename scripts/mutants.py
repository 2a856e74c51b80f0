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
finiteness checks, the per-block lists of window terms and the conjugate in
their rows, and the orientation stage's hemisphere signs and the test that
reruns their pass), of the filters (the one strapdown loop both predicts
run: its gyro bias, strapdown order, attitude, increment, error order and
start, the spacing refusal and the frame its warning names; the moment rows'
suffix sums, side of the step, origin and centering; the EKF's transition
sign and frame maps, whose attitude block the linearization test must see,
the InEKF's T2 term and a noise block; the measurement updates on Python
floats, the InEKF's measurement rows, innovation frame, correction side,
hemisphere and left Jacobian, and the runners' reading check), of
the field rules in ``errors.py``, of the burst table's refusal of a
non-finite reading, of the CLI's naming of a refused metadata value, of the
fixed-order kernel ``quat.ordered_matmul``, of ``quat``'s formulas (a
rotation entry's sign, the columns of rows of any leading shape, the rotation
vector's hemisphere, the rotation-vector map's half angle and first-order
branch, and the orthogonality test of Shepperd's method) and the
running product's increment, of the two stages' closed-form fixed points
(``tests/oracles.py``), of products put back on BLAS,
of ``synchronize`` (the epoch bounds, the nearest-AHRS rule, the order
check), of the CSV loader's unit-norm rule through each parse path, of
``truth_from_gt``'s end rows, of the simulator's navigation-to-body
rotation, of the CLI's choice of the gt row for the initial state, and rows
that the symmetry table ``tests/test_equivariance.py`` must kill (the EKF's
attitude innovation in the navigation frame, body-frame DVL rotated by the
conjugate, and the epoch period on float32 times).  A row that may survive
says why.  Each mutant takes one pytest run of its target,
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


# Lines of the filters' one strapdown loop, in its order.
_BIAS = ("        a0, a1, a2, w0, w1, w2 = a0 - b0, a1 - b1, a2 - b2, w0 - c0, w1 - c1, "
         "w2 - c2\n")
_ATTITUDE = "        r00, r01, r02, r10, r11, r12, r20, r21, r22 = attitude\n"
_FORCE = ("        f0 = r00 * a0 + r01 * a1 + r02 * a2\n"
          "        f1 = r10 * a0 + r11 * a1 + r12 * a2\n"
          "        f2 = r20 * a0 + r21 * a1 + r22 * a2\n")
_STEP = ("        p0, p1, p2 = p0 + dt * v0, p1 + dt * v1, p2 + dt * v2\n"
         "        r0, r1, r2 = r0 + dt * v0, r1 + dt * v1, r2 + dt * v2\n"
         "        v0, v1, v2 = v0 + dt * (f0 + g0), v1 + dt * (f1 + g1), v2 + dt * (f2 + g2)\n")
_STEP_SWAPPED = "".join(reversed(_STEP.splitlines(keepends=True)))
_MOMENTS = ("        moments += (ak * g0 + v0, ak * g1 + v1, ak * g2 + v2,\n"
            "                    bk * g0 + ak * v0 + r0, bk * g1 + ak * v1 + r1, "
            "bk * g2 + ak * v2 + r2,\n"
            "                    ak, 1.0)\n")
# Each increment normalized before the spacings are checked: a NaN gyro reading
# then raises before a later non-positive spacing and before the warning.
_EARLY_PRODUCTS = "    [_unit((1.0, *row[4:])) for row in rows]\n"
_SPACINGS = "    dts, dt_array = _spacings(rows, t_start)\n"
_EKF_LOOP = "tests/test_baselines.py::TestBatchedPredict::test_ekf_matches_per_sample_loop"
_INEKF_LOOP = "tests/test_baselines.py::TestBatchedPredict::test_inekf_matches_per_sample_loop"
_UPDATE_ORACLE = "tests/test_baselines.py::TestUpdatesAgainstArrayOracles::test_inekf_update"
_TABLE = "tests/test_equivariance.py"

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
    Mutant("cascade.py", "b0, b1, b2, v0, v1, v2, c0, c1, c2, w0, w1, w2 = sums",
           "c0, c1, c2, w0, w1, w2, b0, b1, b2, v0, v1, v2 = sums",
           "velocity-sums-order", True),
    # The finiteness checks.
    Mutant("cascade.py", "if not (all(map(math.isfinite, x)) and math.isfinite(gain)):",
           "if not math.isfinite(gain):", "velocity-check-gain-only", True),
    Mutant("cascade.py", "if not math.isfinite(norm + sum(k_next)) and not (",
           "if not math.isfinite(norm) and not (", "orientation-check-norm-only", True),
    Mutant("cascade.py", "if not math.isfinite(norm + sum(k_next)) and not (",
           "if not math.isfinite(norm + sum(k_next)) or not (", "orientation-check-sum-only",
           True),
    # The per-block lists: the rotations for the warm start (U_1) and the estimate
    # (U_{N-1}), and the conjugate in W_j = Z_j * conj(U_j) / |U_j|.
    Mutant("cascade.py", "W.tolist(), U[:, 0].tolist(),\n                       U[:, -1].tolist()",
           "W.tolist(), U[:, -1].tolist(),\n                       U[:, 0].tolist()",
           "block-first-last-swapped", True),
    Mutant("cascade.py", "quat_product(ahrs[inputs], quat_conjugate(U))",
           "quat_product(ahrs[inputs], U)", "window-conjugate-dropped", True),
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
    # The filters' one strapdown loop (``_strapdown``) and the spacing pass in it,
    # which both predicts run, against both filters' tests: the gyro bias, the
    # strapdown order, the attitude taken from the unnormalized product, the
    # increment's rates, the spacing refusal, the frame the warning names, the
    # error order and the chain's start.
    Mutant("baselines.py", _BIAS, _BIAS.replace("w0 - c0, w1 - c1, w2 - c2", "w0, w1, w2"),
           "gyro-bias-kept", True),
    Mutant("baselines.py", _STEP, _STEP_SWAPPED, "position-end-velocity", True),
    Mutant("baselines.py", "        attitude = rotation_entries(unit)\n",
           "        attitude = rotation_entries((qw, qx, qy, qz))\n", "unnormalized-attitude", True),
    Mutant("baselines.py", "(1.0, h * w0, h * w1, h * w2)", "(1.0, h * w1, h * w0, h * w2)",
           "increment-rates-swapped", True),
    Mutant("baselines.py", "if dt <= 0.0:\n            raise ValueError(",
           "if dt < 0.0:\n            raise ValueError(", "zero-spacing-accepted", True),
    Mutant("baselines.py", "stacklevel=5", "stacklevel=4", "spacing-warning-own-frame", True,
           "tests/test_baselines.py::TestBatchedPredict::test_large_spacing_warns_once"),
    Mutant("baselines.py", _SPACINGS, _EARLY_PRODUCTS + _SPACINGS, "degenerate-before-spacing", True),
    Mutant("baselines.py", "qw, qx, qy, qz = orientation.tolist()",
           "qw, qx, qy, qz = 1.0, 0.0, 0.0, 0.0", "identity-start", True),
    # The moment rows: the InEKF's a_k summing its own sample's spacing, the EKF's
    # rows taken before their step, every row taken after its step, the EKF's rows
    # from absolute positions (exact but for rounding, which moving the burst 1 km
    # shows) and its table left uncentered.
    Mutant("baselines.py", "sums if after else sums[1:]", "sums", "inekf-suffix-own-spacing", True,
           _INEKF_LOOP),
    Mutant("baselines.py", "sums if after else sums[1:]", "sums[1:]", "ekf-rows-before-step", True,
           _EKF_LOOP),
    Mutant("baselines.py", _MOMENTS + _BIAS + _ATTITUDE + _FORCE + _STEP,
           _BIAS + _ATTITUDE + _FORCE + _STEP + _MOMENTS, "moment-after-step", True),
    Mutant("baselines.py", "(0.0, 0.0, 0.0) if after else (p0, p1, p2)", "(p0, p1, p2)",
           "ekf-rows-absolute-position", True, "tests/test_baselines.py::TestOneTransition"),
    Mutant("baselines.py", "reshape(-1, 8) - (v0, v1, v2, r0, r1, r2, 0.0, 0.0)", "reshape(-1, 8)",
           "ekf-rows-uncentered", True, _EKF_LOOP),
    # The transitions: the EKF's U with its sign flipped; its frame maps with R0 and
    # R1 swapped, which turns the attitude block R1^T R0 the other way, and with R0
    # twice, which makes it I, as a burst that does not turn (the linearization
    # test must kill it); the InEKF's W = -T2 g left out (Phi without T2 A^2); and
    # one sign of the noise's -q_att [sum dt u]x block.
    Mutant("baselines.py", "(v0 - x0, v1 - x1, v2 - x2)", "(x0 - v0, x1 - v1, x2 - v2)",
           "ekf-transition-sign", True, _EKF_LOOP),
    Mutant("baselines.py", "maps.put(_FRAME_ROTATIONS, rotations)",
           "maps.put(_FRAME_ROTATIONS, rotations[9:] + rotations[:9])", "ekf-gyro-block-sign", True,
           _EKF_LOOP),
    Mutant("baselines.py", "maps.put(_FRAME_ROTATIONS, rotations)",
           "maps.put(_FRAME_ROTATIONS, rotations[:9] * 2)", "ekf-attitude-block-identity", True,
           "tests/test_baselines.py::TestPredictLinearization::test_ekf"),
    Mutant("baselines.py", "(-(T2 * g0), -(T2 * g1), -(T2 * g2))", "(0.0, 0.0, 0.0)",
           "inekf-transition-without-a2", True, _INEKF_LOOP),
    Mutant("baselines.py", "qS, 0.0, 0.0, 0.0, u2, -u1,", "qS, 0.0, 0.0, 0.0, -u2, u1,",
           "noise-cross-sign", True, _INEKF_LOOP),
    # The EKF update's float algebra: the hemisphere flip, the innovation's conjugate
    # and the Joseph form's K R K^T; and the correction's rotation-vector map.
    Mutant("baselines.py", "q_meas = [-mw, -mx, -my, -mz]", "q_meas = [mw, mx, my, mz]",
           "ekf-no-hemisphere-flip", True),
    Mutant("baselines.py", "product_entries([w, -x, -y, -z], q_meas)",
           "product_entries([w, x, y, z], q_meas)", "ekf-innovation-conjugate", True),
    Mutant("baselines.py", "P = IKH.dot(P).dot(IKH.T) + (K * config._r).dot(K.T)",
           "P = IKH.dot(P).dot(IKH.T)",
           "ekf-joseph-no-krk", True),
    Mutant("quat.py", "half = 0.5 * angle\n    s = math.sin(half)",
           "half = angle\n    s = math.sin(half)", "correction-full-angle", True,
           "tests/test_baselines.py"),
    # The InEKF update's float forms: one sign of H's [v]x block, the attitude
    # innovation taken in the body frame (conj(q) (x) q_meas, where the
    # right-invariant error lives in the navigation frame), the correction
    # Exp(-dx) X applied on the right (q (x) q_c), the orientation left off the
    # w >= 0 hemisphere after the update, the left Jacobian's first-order factor
    # and the sign of its S S term; and in quat the rotation vector's hemisphere
    # flip and R R^T's entry (0, 1) summed as (R^T R)_01, which passes every
    # rotation but misjudges perturbed ones.
    Mutant("baselines.py", "= -v2, v1, v2, -v0, -v1, v0", "= -v2, v1, v2, v0, -v1, v0",
           "inekf-velocity-row-sign", True, _UPDATE_ORACLE),
    Mutant("baselines.py", "product_entries(q, (w, -x, -y, -z))",
           "product_entries((w, -x, -y, -z), q)", "inekf-innovation-body-frame", True,
           _UPDATE_ORACLE),
    Mutant("baselines.py", "product_entries(qc, state.orientation.tolist())",
           "product_entries(state.orientation.tolist(), qc)", "inekf-correction-on-right", True,
           _UPDATE_ORACLE),
    Mutant("baselines.py", "n = -n if q[0] < 0.0 else n", "n = n", "inekf-hemisphere-not-kept",
           True, "tests/test_baselines.py::TestOneStrapdown"),
    Mutant("baselines.py", "c1, c2 = 0.5, 1.0 / 6.0", "c1, c2 = 1.0, 1.0 / 6.0",
           "se23-first-order-factor", True, "tests/test_baselines.py::TestSe23Exp"),
    Mutant("baselines.py", "(e + c1 * a) + c2 * b", "(e + c1 * a) - c2 * b", "se23-ss-sign",
           True, "tests/test_baselines.py::TestSe23Exp"),
    # The rotation-vector map's float core against its rows and the array oracle:
    # the full angle in place of the half angle, and the first-order branch dropped.
    Mutant("quat.py", "half = 0.5 * angle\n    s = math.sin(half)",
           "half = angle\n    s = math.sin(half)", "rotvec-core-full-angle", True,
           "tests/test_quat.py::TestRotvec"),
    Mutant("quat.py", "if angle < 1e-12:", "if angle < 0.0:", "rotvec-core-first-order-dropped",
           True, "tests/test_quat.py::TestRotvec"),
    Mutant("quat.py", "if w < 0.0:\n        w, x, y, z = -w, -x, -y, -z",
           "if False:\n        w, x, y, z = -w, -x, -y, -z", "rotvec-hemisphere-flip-dropped", True,
           "tests/test_quat.py::TestRotvec"),
    Mutant("quat.py", "abs(r00 * r10 + r01 * r11 + r02 * r12)", "abs(r00 * r01 + r10 * r11 + r20 * r21)",
           "orthogonality-index-swapped", True,
           "tests/test_quat.py::TestRotationToQuatOracle::test_refusal_table"),
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
    # The reading refusal of BurstInput.from_epochs: the raise, its gyro half, the
    # sensor it names, and the flag that sends a burst with a non-finite
    # accelerometer reading to it (a non-finite gyro one makes the norms NaN).
    Mutant("preintegration.py", "if bad.size:\n                    sensor =",
           "if False:\n                    sensor =", "accel-refusal-removed", True,
           "tests/test_cascade.py"),
    Mutant("preintegration.py", "bad = np.flatnonzero(~(accel_ok & gyro_ok))",
           "bad = np.flatnonzero(~accel_ok)", "gyro-refusal-dropped", True,
           "tests/test_cascade.py"),
    Mutant("preintegration.py", '"gyro" if accel_ok[bad[0]] else "accelerometer"',
           '"gyro" if gyro_ok[bad[0]] else "accelerometer"', "reading-sensor-misnamed", True,
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
    # The window terms back on BLAS matmul, which the product guard refuses.
    Mutant("cascade.py", "ordered_matmul(rotation_rows(U[:, :-1] / norms[:, :-1, None]),\n"
           "                                  bursts.body_dv[inputs[:, 1:], :, None])",
           "(rotation_rows(U[:, :-1] / norms[:, :-1, None])\n"
           "                                  @ bursts.body_dv[inputs[:, 1:], :, None])",
           "window-terms-on-blas", True, "tests/test_package.py"),
    # Each quaternion formula's one set of expressions: a sign in rotation_entries,
    # the columns of rows (..., k) taken as X.T, which reverses every axis, and
    # the Euler increment of running_product with two rates swapped.
    Mutant("quat.py", "return [1.0 - (yy + zz), xy - wz, xz + wy,",
           "return [1.0 - (yy + zz), xy + wz, xz + wy,", "rotation-entry-sign", True,
           "tests/test_quat.py"),
    Mutant("quat.py", "else np.moveaxis(X, -1, 0)", "else X.T", "components-all-axes-reversed",
           True, "tests/test_quat.py::TestRowKernels::test_rows_of_any_leading_shape"),
    Mutant("preintegration.py", "product_entries(rows[-1], (1.0, hx, hy, hz))",
           "product_entries(rows[-1], (1.0, hy, hx, hz))", "running-product-rates-swapped",
           True, "tests/test_cascade.py"),
    # The stages' closed-form fixed points (tests/oracles.py): the velocity
    # misfit with its gravity-and-DVL part negated, and z_0 left out of u.
    Mutant("cascade.py", "misfit = [r00 * a0 + r01 * a1 + r02 * a2 + u0,",
           "misfit = [r00 * a0 + r01 * a1 + r02 * a2 - u0,", "fixed-point-velocity-misfit",
           True, "tests/test_cascade.py::TestFixedPoints"),
    Mutant("cascade.py", "u0, u1, u2, u3, low = s * z0, s * z1, s * z2, s * z3, abs(dot)",
           "u0, u1, u2, u3, low = 0.0, 0.0, 0.0, 0.0, abs(dot)", "fixed-point-orientation-z0",
           True, "tests/test_cascade.py::TestFixedPoints"),
    # The per-sample references back on BLAS, against the cross-kernel oracle.
    Mutant("preintegration.py", "v + dt * (rotate_vector(q, specific_force) + g),",
           "v + dt * (quat_to_rotation(q) @ specific_force + g),", "per-sample-on-blas", True,
           "tests/test_baselines.py::TestBlasKernel"),
    # synchronize: the IMU rows an epoch takes (those up to and at its t), the
    # nearest AHRS sample (the earlier on a tie) and the order check.
    Mutant("sensors.py", 'his = np.searchsorted(imu_t, ts, side="right")',
           'his = np.searchsorted(imu_t, ts, side="left")', "sync-epoch-bound-left", True),
    Mutant("sensors.py", "nearest = np.where(d_after < d_before, after, before)",
           "nearest = np.where(d_after <= d_before, after, before)", "sync-tie-takes-later",
           True),
    Mutant("sensors.py", "~(stream[1:, 0] > stream[:-1, 0])", "~(stream[1:, 0] >= stream[:-1, 0])",
           "sync-order-accepts-repeat", True),
    # The loader's unit-norm test, through each parse path's tests: a norm below 1
    # kept as read.  The strict comparison is equivalent: a norm kept or divided
    # by 1.0 gives the same bits, and |n - 1|, a multiple of 2^-53 near 1, never
    # equals 1e-12 exactly.
    Mutant("sensors.py", "np.abs(norms - 1.0)[:, None] <= fmt.unit_tol",
           "(norms - 1.0)[:, None] <= fmt.unit_tol", "unit-tol-one-sided-bulk", True,
           "tests/test_sensors.py::TestLoaderPaths::test_quaternion_norm_rule[bulk]"),
    Mutant("sensors.py", "np.abs(norms - 1.0)[:, None] <= fmt.unit_tol",
           "(norms - 1.0)[:, None] <= fmt.unit_tol", "unit-tol-one-sided-rows", True,
           "tests/test_sensors.py::TestLoaderPaths::test_quaternion_norm_rule[rows]"),
    Mutant("sensors.py", "np.abs(norms - 1.0)[:, None] <= fmt.unit_tol",
           "np.abs(norms - 1.0)[:, None] < fmt.unit_tol", "unit-tol-strict", False),
    # truth_from_gt's velocities: one-sided first differences at the two ends.
    Mutant("metrics.py", "vel = np.gradient(pos, t, axis=0)",
           "vel = np.gradient(pos, t, axis=0, edge_order=2)", "truth-edge-order-2", True),
    # The simulator's navigation-to-body rotation of the specific force and DVL rows.
    Mutant("sim.py", "ordered_matmul(np.swapaxes(R, 1, 2), X[:, :, None])",
           "ordered_matmul(R, X[:, :, None])", "sim-body-untransposed", True,
           "tests/test_sim.py::TestBlockGeneration"),
    # The symmetry table (tests/test_equivariance.py): the EKF's attitude innovation
    # taken in the navigation frame, q_meas * q_est^-1, which a yaw turns; body-frame
    # DVL rotated by the AHRS reading's conjugate; and the epoch period on float32
    # times, which loses the clock's digits at t = 1e6 s.
    Mutant("baselines.py", "product_entries([w, -x, -y, -z], q_meas)",
           "product_entries(q_meas, [w, -x, -y, -z])", "ekf-innovation-nav-frame", True,
           _TABLE),
    Mutant("sensors.py", "rotate_vector(ahrs[nearest, 1:], out[:, 1:])",
           "rotate_vector(ahrs[nearest, 1:] * [1.0, -1.0, -1.0, -1.0], out[:, 1:])",
           "dvl-body-conjugated", True, _TABLE),
    Mutant("cascade.py", "dt = epoch.t - epochs[k - 1].t",
           "dt = float(np.float32(epoch.t) - np.float32(epochs[k - 1].t))",
           "epoch-period-float32", True, _TABLE),
    # --input's initial state taken from gt.csv's first row, not the stream start's.
    Mutant("cli.py", "first = gt[k]", "first = gt[0]", "initial-from-first-gt-row", True,
           "tests/test_cli.py::TestInitialStateFromGt"),
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
