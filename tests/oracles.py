"""Reference models the package's closed forms are tested against.

``ORIENTATION_MODEL`` states the cascade's orientation stage as a generic
``WindowModel`` for ``ipg_step`` (state: a quaternion; input: a burst's
``rot_increment``, with the gyro bias already folded in).  The cascade runs
the closed form ``cascade._orientation_step`` instead, which must match it.
``window_terms`` builds one window's terms of that closed form on its own,
its rotations U_j and rows W_j as Hamilton products on Python floats, the
reference for ``cascade._window_terms``, which builds them per block of
windows.  ``window_maps`` chains the same rotations as 4x4
right-multiplication matrices (``right_matrix``), the independent reference
whose column 0 must equal U_j bit for bit.

``velocity_step`` is the velocity stage on arrays: each burst's increment
rotated from the orientation where it starts (``burst_start_orientations``
and ``velocity_increments``), the offsets their running sums, and the
scalar-gain recursion on the window's misfit.  ``cascade._velocity_step``
gets the same from per-window sums in O(1) and must match it.

``velocity_fixed_point`` and ``orientation_fixed_point`` are where the two
stages stop as the inner iterations go on, in closed form and without
``ipg_step``: the mean of the DVL rows minus the increment offsets, and
the sign-aligned mean of the AHRS rows carried back to the window start,
normalized.  Both stages must reach them at a large iteration count.

``read_trajectory`` and ``write_trajectory`` are the trajectory CSV reader,
which parsed each row on its own, and writer that ``trajectory.py`` had
before it went through ``sensors.load_csv`` and ``sensors.write_csv``: the
values read and the bytes written must equal theirs bit for bit.  The reader
keeps a quaternion within 1e-12 of unit norm as read, as the trajectory
format now declares, and normalizes any other.

``adapt`` is ``adapters.adapt`` as it was before it read each source stream
into one array: a ``csv.DictReader`` dict per row, a sort and de-duplication
of those rows in Python, one converter per stream kind, one orientation
conversion per row, and ground truth as GroundTruthSample written by
``save_stream``.  The CSVs the package's ``adapt`` writes must equal its
bytes, and the ConversionLog its log, except for the line that now records a
ground-truth orientation conversion.  A quaternion of zero or overflowing
norm crashes it, where the package drops and counts the row.

``scenario_to_dict`` is ``sim.ScenarioSpec.to_dict`` as it was written out
field by field, before it was built from ``dataclasses.fields``: the package's
must give an equal dict, with its keys in the same order.

``float_dot``, ``float_norm`` and ``float_matmul`` are sums of products on Python
floats in index order, written out on their own: the order in which
``quat.ordered_matmul`` sums, and so the reference for every row norm, dot and
small stacked product the package forms through it.

``rotation_to_quat`` is Shepperd's method on numpy scalars, with
``np.linalg.det``, which ``inekf_update`` below takes the attitude innovation
through.  Its test |R R^T - I| <= 1e-6 + 1e-5 I forms R R^T by
``float_matmul``, each entry summed in index order.  ``test_quat`` checks it
against scipy's ``Rotation``.

``euler_from_quat`` is the inverse of ``quat.quat_from_euler``: it checks
that map's intrinsic x-y-z convention.

``ekf_update`` and ``inekf_update`` are the filters' measurement updates as
they were on numpy arrays, before their vector algebra ran on Python floats:
the innovation, the Hamilton products and the rotation-vector maps on 3- and
4-element arrays with numpy's cos and sin, H built from ``np.zeros``, the
left Jacobian from ``np.eye`` and 3x3 array operations, and ``kalman_update``
through ``np.atleast_2d`` and ``np.eye``.  The EKF's oracle writes its
Joseph update without H = [[0, I, 0], [I, 0, 0]], by the rows H selects: H P
is P's velocity rows over its attitude rows, S those rows' columns in the
same order plus R, I - K H the identity with K's halves subtracted from the
columns they select, and K R K^T = (K r) K^T for the diagonal r of R.  Each
equals its product with H exactly, so the package's EKF update, which calls
``kalman_update`` with H, must equal it bit for bit.  The InEKF's array forms
keep the rotation as a 3x3 matrix, formed by ``quat_to_rotation`` from the
state's orientation and returned in an ``InekfArrays``; the package's InEKF
update must equal its covariance bit for bit and its mean within 1e-12, its
orientation compared through ``quat_to_rotation``.

``inekf_predict`` is the InEKF predict as it was on arrays, before its mean
ran on Python floats and its covariance went to closed form: the burst
unpacked once, the increments' rotations built in one batched call and
chained in sample order, ``cumsum`` giving the velocities and positions
(``strapdown``), and the F_k and Ad-mapped Q_k stacks stepped through
P <- F_k P F_k^T + Q_k by ``_propagate_cov``.  The package's predict must
equal its mean and its covariance within 1e-12, and raise and warn as it
does.

``strapdown_loop`` is ``baselines._strapdown`` as it was before its step was
written out in the loop: each step calls ``product_entries`` with the
increment (1, dt w / 2), ``_unit`` and ``rotation_entries``, and both sides
form the start and end rotations.  The package's loop must give its end
state, moment rows and rotations bit for bit, and raise as it does.

``noise_sum`` is ``baselines._propagate``'s noise N as it was before it became
one linear map of the moment product G: each block of N written out on
Python floats from G's entries (``_moment_block`` for the blocks q_att (tr Y I -
Y) + c I), 81 entries in one literal.  The map must give the same N to a few
ulps of its largest entry.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cipgnav.adapters import (
    ACCEL_UNITS,
    ANGLE_UNITS,
    GYRO_UNITS,
    TIME_UNITS,
    VELOCITY_UNITS,
    ConversionLog,
    StreamLog,
    load_adapter,
)
from cipgnav.baselines import (
    EkfState,
    _check_cov,
    _finish_cov,
    _gain,
    _PSD_TOL,
    _spacings,
)
from cipgnav.errors import (
    DegenerateQuaternionError,
    DivergenceError,
    NumericalError,
    ParseError,
    StreamOrderError,
)
from cipgnav.ipg import IpgParams, WindowModel
from cipgnav.preintegration import NavState, unpack_burst
from cipgnav.quat import (
    _NORM_EPS,
    _unit,
    hemisphere_align,
    ordered_matmul,
    product_entries,
    quat_from_euler,
    quat_from_rotvec,
    quat_normalize,
    quat_product,
    quat_to_rotation,
    rotation_entries,
    rotation_rows,
    unit_rows,
)
from cipgnav.sensors import GroundTruthSample, dvl_body_to_nav, open_csv, save_stream
from cipgnav.trajectory import FLAGS, TRAJECTORY_COLUMNS, TrajectoryPoint


def float_dot(a, b) -> float:
    """sum_i a_i b_i on Python floats, ((a_0 b_0 + a_1 b_1) + a_2 b_2) + ..., and
    0.0 for empty vectors."""
    products = [x * y for x, y in zip(np.asarray(a, dtype=float).tolist(),
                                      np.asarray(b, dtype=float).tolist())]
    total = products[0] if products else 0.0
    for p in products[1:]:
        total += p
    return total


def float_norm(v) -> float:
    """sqrt(float_dot(v, v))."""
    return math.sqrt(float_dot(v, v))


def float_matmul(A, B) -> np.ndarray:
    """A @ B of a 2-D A and a 1-D or 2-D B, each entry a ``float_dot``."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if B.ndim == 1:
        return np.array([float_dot(row, B) for row in A], dtype=float)
    return np.array([[float_dot(row, col) for col in B.T] for row in A], dtype=float).reshape(
        len(A), B.shape[1])


def float_product(a, b) -> list:
    """The Hamilton product a * b of two quaternions on Python floats."""
    aw, ax, ay, az = np.asarray(a, dtype=float).tolist()
    bw, bx, by, bz = np.asarray(b, dtype=float).tolist()
    return [aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw]


def right_matrix(r) -> np.ndarray:
    """The 4x4 matrix M with M q = q * r for every quaternion q."""
    rw, rx, ry, rz = np.asarray(r, dtype=float).tolist()
    return np.array([[rw, -rx, -ry, -rz], [rx, rw, rz, -ry], [ry, -rz, rw, rx],
                     [rz, ry, -rx, rw]])


def normalize_jacobian(y) -> np.ndarray:
    """Jacobian of y -> y/|y| evaluated at y (any dimension)."""
    y = np.asarray(y, dtype=float)
    n = float(np.linalg.norm(y))
    if n <= _NORM_EPS:
        raise DegenerateQuaternionError("normalize() is not differentiable at the origin")
    u = y / n
    return (np.eye(len(y)) - np.outer(u, u)) / n


def _align_quat_blocks(predicted: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Flip each measured quaternion block onto the predicted hemisphere."""
    Zb = Z.reshape(-1, 4).copy()
    Pb = predicted.reshape(-1, 4)
    flip = np.sum(Zb * Pb, axis=1) < 0.0
    Zb[flip] *= -1.0
    return Zb.reshape(-1)


def _orientation_dynamics(q, rot_increment):
    return quat_normalize(quat_product(q, rot_increment))


def _orientation_dynamics_jacobian(q, rot_increment):
    raw = quat_product(np.asarray(q, dtype=float), rot_increment)
    return normalize_jacobian(raw) @ right_matrix(rot_increment)


ORIENTATION_MODEL = WindowModel(
    state_dim=4,
    meas_dim=4,
    dynamics=_orientation_dynamics,
    measurement=lambda q: q,
    dynamics_jacobian=_orientation_dynamics_jacobian,
    measurement_jacobian=lambda q: np.eye(4),
    post_iterate=quat_normalize,
    align_measurements=_align_quat_blocks,
)


def window_maps(rot_increments) -> np.ndarray:
    """One window's rotations as 4x4 maps M_j (N-1, 4, 4), M_j q = q * U_j, from its
    increments (N-1, 4): q * U_{j-1} * r_j = R(r_j) R(U_{j-1}) q, so M_j = R(r_j)
    @ M_{j-1}, each product a ``float_matmul``, with R(r) = ``right_matrix(r)``."""
    M = [right_matrix(rot_increments[0])]
    for r in rot_increments[1:]:
        M.append(float_matmul(right_matrix(r), M[-1]))
    return np.array(M).reshape(len(rot_increments), 4, 4)


def window_terms(ahrs, rot_increments):
    """One window's rotations U_1 = r_1, U_j = U_{j-1} * r_j (N-1, 4) and rows W_j =
    Z_j * conj(U_j) / |U_j| (N-1, 4), from its AHRS rows Z_j (N, 4) and
    increments r_j (N-1, 4), as Hamilton products on Python floats; raises
    DegenerateQuaternionError on a zero or NaN |U_j| and NumericalError on an
    infinite one."""
    U = [np.asarray(rot_increments[0], dtype=float).tolist()]
    for r in rot_increments[1:]:
        U.append(float_product(U[-1], r))
    norms = np.array([float_norm(u) for u in U])
    if not (norms > _NORM_EPS).all():
        raise DegenerateQuaternionError(f"cannot normalize quaternion with norm {norms.min():.3e}")
    if not np.isfinite(norms).all():
        raise NumericalError("non-finite stacked Jacobian entry in the orientation window")
    W = [[c / n for c in float_product(z, [uw, -ux, -uy, -uz])]
         for z, (uw, ux, uy, uz), n in zip(ahrs[1:], U, norms.tolist())]
    return np.array(U).reshape(-1, 4), np.array(W).reshape(-1, 4)


def burst_start_orientations(M, zeta) -> np.ndarray:
    """Orientations (N-1, 4) where each burst of a window starts, rows 0..N-2 of
    its stacked map: zeta, then normalize(M_j zeta) for j = 1..N-2."""
    zeta = np.asarray(zeta, dtype=float)
    return np.vstack([zeta, unit_rows(M @ zeta)[0][:-1]])


def velocity_increments(body_dv, duration, quats, g) -> np.ndarray:
    """Navigation-frame velocity gained over each burst, from the unit orientation
    in ``quats`` (one row per burst, used as given) at its start:
    R(q_j) @ body_dv_j + duration_j * g."""
    return (rotation_rows(quats) @ body_dv[:, :, None])[:, :, 0] + duration[:, None] * g


def velocity_step(params: IpgParams, dvl, zeta, k: float, increments):
    """The velocity stage on a window's DVL rows (N, 3) and increments (N-1, 3):
    offsets c_i, the sums of the first i increments (c_0 = 0), and N-row
    recursion k' = k - alpha (N k - 1), zeta' = zeta - delta k sum_i (zeta +
    c_i - z_i).  Returns zeta + c_{N-1}, zeta + increments[0] and k."""
    n = len(dvl)
    offsets = np.vstack([np.zeros(3), np.cumsum(increments, axis=0)])
    misfit = np.sum(offsets - dvl, axis=0).tolist()
    x = np.asarray(zeta, dtype=float).tolist()
    for i in range(params.iterations):
        k_next = k - params.alpha * (n * k - 1.0)
        gain = params.delta * k
        x_next = [a - gain * (n * a + m) for a, m in zip(x, misfit)]
        if not (all(map(math.isfinite, x_next)) and math.isfinite(k_next)):
            raise DivergenceError("window solver produced a non-finite value", iteration=i)
        x, k = x_next, k_next
    zeta = np.array(x)
    return zeta + offsets[-1], zeta + increments[0], k


def velocity_fixed_point(dvl, increments) -> np.ndarray:
    """Where ``velocity_step``'s recursion stops, from a window's DVL rows (N, 3)
    and increments (N-1, 3): N zeta + misfit = 0, so zeta* = -misfit / N, the
    mean of the DVL rows minus the offsets c_i.  Returns zeta* + c_{N-1}, the
    estimate the stage emits there."""
    offsets = np.vstack([np.zeros(3), np.cumsum(increments, axis=0)])
    return -np.sum(offsets - dvl, axis=0) / len(dvl) + offsets[-1]


def orientation_fixed_point(ahrs, rot_increments, start, passes: int = 10):
    """Where the orientation stage stops, from a window's AHRS rows (N, 4) and
    increments (N-1, 4): zeta* = u / |u|, u = s_0 z_0 + sum_j s_j W_j (W_j from
    ``window_terms``), the signs s = sign(row . zeta*), +1 on a zero dot,
    consistent with zeta*.  The signs start at ``start`` and are iterated
    until they repeat, in at most ``passes`` passes.  Returns zeta* and the
    estimate zeta* * U_{N-1}, normalized."""
    U, W = window_terms(ahrs, rot_increments)
    rows = np.vstack([ahrs[0], W])
    zeta, signs = np.asarray(start, dtype=float), None
    for _ in range(passes):
        dots = np.array([float_dot(row, zeta) for row in rows])
        now = np.where(dots < 0.0, -1.0, 1.0)
        if signs is not None and (now == signs).all():
            return zeta, quat_normalize(float_product(zeta, U[-1]))
        signs = now
        u = np.sum(signs[:, None] * rows, axis=0)
        zeta = u / float_norm(u)
    raise AssertionError(f"the hemisphere signs did not settle in {passes} passes")


def scenario_to_dict(spec) -> dict:
    return {
        "kind": spec.kind,
        "duration": spec.duration,
        "speed": spec.speed,
        "imu_rate": spec.imu_rate,
        "meas_rate": spec.meas_rate,
        "circle_radius": spec.circle_radius,
        "lawnmower_leg": spec.lawnmower_leg,
        "lawnmower_spacing": spec.lawnmower_spacing,
        "waypoints": None if spec.waypoints is None else [list(w) for w in spec.waypoints],
        "initial_heading": spec.initial_heading,
        "dvl_frame": spec.dvl_frame,
        "noise": {
            "accel_density": spec.noise.accel_density,
            "gyro_density": spec.noise.gyro_density,
            "dvl_std": spec.noise.dvl_std,
            "ahrs_std": spec.noise.ahrs_std,
        },
        "biases": {
            "accel": [float(v) for v in spec.biases.accel],
            "gyro": [float(v) for v in spec.biases.gyro],
        },
        "gravity": [float(v) for v in spec.gravity.vector],
        "seed": int(spec.seed),
    }


def write_trajectory(points, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for p in points:
            row = [p.t, *p.nav.position, *p.nav.velocity, *p.nav.orientation]
            writer.writerow([repr(float(v)) for v in row] + [p.flag])


def read_trajectory(path):
    """Load a trajectory CSV one row at a time, each quaternion through NavState,
    except one whose norm is within 1e-12 of 1, which is kept as read.

    Raises ParseError naming the line on a non-finite value, a quaternion
    of zero or overflowing norm or an unknown flag, and StreamOrderError on
    a timestamp that does not increase.
    """
    path = Path(path)
    points = []
    prev_t = None
    # An overflowing quaternion norm is refused below, so numpy need not warn of it.
    with open_csv(path) as reader, np.errstate(over="ignore"):
        try:
            header = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise ParseError("empty trajectory file", line=1, path=path) from None
        if header != TRAJECTORY_COLUMNS:
            raise ParseError(
                f"header {','.join(header)!r} does not match trajectory schema",
                line=1,
                path=path,
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRAJECTORY_COLUMNS):
                raise ParseError(
                    f"expected {len(TRAJECTORY_COLUMNS)} columns, got {len(row)}",
                    line=line_no,
                    path=path,
                )
            try:
                values = [float(v) for v in row[:-1]]
            except ValueError as exc:
                raise ParseError(f"non-numeric value ({exc})", line=line_no, path=path) from None
            if not all(map(math.isfinite, values)):
                raise ParseError("non-finite value", line=line_no, path=path)
            flag = row[-1].strip()
            if flag not in FLAGS:
                raise ParseError(f"unknown trajectory flag {flag!r}; expected one of {FLAGS}",
                                 line=line_no, path=path)
            t = values[0]
            if prev_t is not None and t <= prev_t:
                raise StreamOrderError(f"{path}: non-monotonic timestamp at t={t!r} (line {line_no})")
            prev_t = t
            try:
                nav = NavState(np.array(values[1:4]), np.array(values[4:7]),
                               np.array(values[7:11]))
            except DegenerateQuaternionError as exc:
                raise ParseError(str(exc), line=line_no, path=path) from None
            q = np.array(values[7:11])
            if abs(math.sqrt(q @ q) - 1.0) <= 1e-12:
                nav = NavState.exact(nav.position, nav.velocity, q)
            points.append(TrajectoryPoint(t, nav, flag))
    return points


def _orientation_columns(kind: str, cfg: dict) -> list:
    if kind == "gt" and not ("q1" in cfg["columns"] or "roll" in cfg["columns"]):
        return []
    if cfg.get("mode", "quaternion") == "euler":
        return ["roll", "pitch", "yaw"]
    return ["q1", "q2", "q3", "q4"]


def _read_rows(path: Path, cfg: dict, wanted: list, log: StreamLog):
    """Return sorted (t_seconds, {name: value}) rows; drop and count unusable ones."""
    tcol = cfg["time"]["column"]
    tscale = TIME_UNITS[cfg["time"].get("unit", "s")]
    toffset = float(cfg["time"].get("offset", 0.0))
    colmap = cfg["columns"]
    delimiter = cfg.get("delimiter", ",")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        if reader.fieldnames is None:
            raise ParseError("empty file", line=1, path=path)
        header = reader.fieldnames = [h.strip() for h in reader.fieldnames]
        missing = [c for c in [tcol] + [colmap[w] for w in wanted] if c not in header]
        if missing:
            raise ParseError(
                f"source columns {missing} not found in header {header}", line=1, path=path
            )
        for row in reader:
            log.rows_read += 1
            try:
                t = float(row[tcol]) * tscale + toffset
                values = {w: float(row[colmap[w]]) for w in wanted}
            except (TypeError, ValueError, KeyError):
                log.rows_dropped += 1
                continue
            if not math.isfinite(t) or not all(math.isfinite(v) for v in values.values()):
                log.rows_dropped += 1
                continue
            rows.append((t, values))
    rows.sort(key=lambda r: r[0])
    deduped = []
    for t, values in rows:
        if deduped and t <= deduped[-1][0]:
            log.rows_dropped += 1
            continue
        deduped.append((t, values))
    return deduped


def _table(rows, n_values):
    return np.array([[t, *v.values()] for t, v in rows], dtype=float).reshape(-1, 1 + n_values)


def _convert_imu(path, cfg, log: StreamLog, warnings: list):
    a_scale = ACCEL_UNITS[cfg.get("accel_unit", "m/s^2")]
    g_scale = GYRO_UNITS[cfg.get("gyro_unit", "rad/s")]
    if a_scale != 1.0:
        log.conversions.append(f"accel {cfg['accel_unit']} -> m/s^2 (x{a_scale:g})")
    if g_scale != 1.0:
        log.conversions.append(f"gyro {cfg['gyro_unit']} -> rad/s (x{g_scale:g})")
    imu = _table(_read_rows(path, cfg, ["ax", "ay", "az", "gx", "gy", "gz"], log), 6)
    imu[:, 1:4] *= a_scale
    imu[:, 4:7] *= g_scale
    if len(imu):
        norms = np.linalg.norm(imu[:200, 1:4], axis=1)
        mean_norm = float(np.mean(norms))
        if mean_norm < 5.0:
            warnings.append(
                f"imu: mean |accel| over the first {len(norms)} samples is "
                f"{mean_norm:.2f} m/s^2, far below gravity; the source may be "
                "gravity-compensated, which this pipeline does not expect"
            )
        elif mean_norm > 15.0:
            warnings.append(
                f"imu: mean |accel| over the first {len(norms)} samples is "
                f"{mean_norm:.2f} m/s^2, far above gravity; check accel_unit"
            )
    return imu


def _convert_dvl(path, cfg, log: StreamLog):
    scale = VELOCITY_UNITS[cfg.get("velocity_unit", "m/s")]
    if scale != 1.0:
        log.conversions.append(f"velocity {cfg['velocity_unit']} -> m/s (x{scale:g})")
    dvl = _table(_read_rows(path, cfg, ["vx", "vy", "vz"], log), 3)
    dvl[:, 1:] *= scale
    return dvl


def _orientation_from_row(cfg, values):
    if cfg.get("mode", "quaternion") == "euler":
        scale = ANGLE_UNITS[cfg.get("angle_unit", "rad")]
        return quat_from_euler(
            scale * values["roll"], scale * values["pitch"], scale * values["yaw"]
        )
    q = np.array([values["q1"], values["q2"], values["q3"], values["q4"]])
    if cfg.get("order", "wxyz") == "xyzw":
        q = np.array([q[3], q[0], q[1], q[2]])
    return quat_normalize(q)


def _convert_ahrs(path, cfg, log: StreamLog):
    if cfg.get("mode", "quaternion") == "euler":
        log.conversions.append(f"euler ({cfg.get('angle_unit', 'rad')}) -> quaternion")
    elif cfg.get("order", "wxyz") == "xyzw":
        log.conversions.append("quaternion order xyzw -> wxyz")
    rows = _read_rows(path, cfg, _orientation_columns("ahrs", cfg), log)
    ahrs = np.empty((len(rows), 5))
    ahrs[:, 0] = [t for t, _ in rows]
    if rows:
        ahrs[:, 1:] = hemisphere_align([_orientation_from_row(cfg, v) for _, v in rows])
    return ahrs


def _convert_gt(path, cfg, log: StreamLog):
    orientation = _orientation_columns("gt", cfg)
    rows = _read_rows(path, cfg, ["px", "py", "pz", *orientation], log)
    quats = [None] * len(rows)
    if orientation and rows:
        quats = hemisphere_align([_orientation_from_row(cfg, v) for _, v in rows])
    return [GroundTruthSample(t, np.array([v["px"], v["py"], v["pz"]]), q)
            for (t, v), q in zip(rows, quats)]


def adapt(spec: dict, src_dir, out_dir) -> ConversionLog:
    """Convert the sources of ``src_dir`` into ``out_dir`` with an adapter description."""
    spec = load_adapter(spec)
    src_dir = Path(src_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    clog = ConversionLog(adapter=spec.get("name", "unnamed"))
    converted = {}
    for kind, cfg in spec["streams"].items():
        path = src_dir / cfg["file"]
        slog = StreamLog(file=str(cfg["file"]))
        offset = float(cfg["time"].get("offset", 0.0))
        unit = cfg["time"].get("unit", "s")
        if unit != "s":
            slog.conversions.append(f"time {unit} -> s")
        if offset != 0.0:
            slog.conversions.append(f"time offset {offset:+g} s")
        if kind == "imu":
            converted[kind] = _convert_imu(path, cfg, slog, clog.warnings)
        elif kind == "dvl":
            converted[kind] = _convert_dvl(path, cfg, slog)
        elif kind == "ahrs":
            converted[kind] = _convert_ahrs(path, cfg, slog)
        else:
            converted[kind] = _convert_gt(path, cfg, slog)
        if not len(converted[kind]):
            raise ParseError(f"stream {kind!r}: no usable rows after conversion", path=path)
        clog.streams[kind] = slog
    if spec["streams"]["dvl"].get("frame", "nav") == "body":
        clog.streams["dvl"].conversions.append("body-frame velocity -> navigation frame (via AHRS)")
        converted["dvl"] = dvl_body_to_nav(converted["dvl"], converted["ahrs"])
    for kind, stream in converted.items():
        save_stream(stream, out_dir / f"{kind}.csv", kind)
        clog.streams[kind].rows_written = len(stream)
    return clog


def _as_finite(q, name):
    q = np.asarray(q, dtype=float)
    if not np.isfinite(q).all():
        raise ValueError(f"non-finite {name}: {q!r}")
    return q


def _quat_multiply(a, b):
    return quat_normalize(quat_product(_as_finite(a, "left quaternion"),
                                       _as_finite(b, "right quaternion")))


def _rotvec_to_quat(v):
    """quat_from_rotvec of one vector with numpy's cos and sin; its first-order
    branch is the package's rows."""
    v = _as_finite(v, "rotation vector")
    angle = float_norm(v)
    if angle < 1e-12:
        return quat_from_rotvec(v[None])[0]
    half = 0.5 * angle
    return np.concatenate([np.atleast_1d(np.cos(half)), np.sin(half) * (v / angle)])


def rotation_to_quat(R):
    R = np.asarray(R, dtype=float)
    if not (np.abs(float_matmul(R, R.T) - np.eye(3)) <= 1e-6 + 1e-5 * np.eye(3)).all() \
            or np.linalg.det(R) < 0.0:
        raise ValueError("matrix is not a rotation")
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] >= R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    q = quat_normalize(q)
    return -q if q[0] < 0.0 else q


def euler_from_quat(q) -> np.ndarray:
    """Intrinsic roll/pitch/yaw (x-y-z, rad) of a unit quaternion."""
    w, x, y, z = quat_normalize(q)
    roll = np.arctan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    pitch = np.arcsin(np.clip(2.0 * (w * y - z * x), -1.0, 1.0))
    yaw = np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return np.array([roll, pitch, yaw])


def _quat_to_rotvec(q):
    q = quat_normalize(q)
    if q[0] < 0.0:
        q = -q
    w = min(float(q[0]), 1.0)
    vec = q[1:]
    s = float_norm(vec)
    if s < 1e-12:
        return 2.0 * vec
    angle = 2.0 * np.arctan2(s, w)
    return angle * vec / s


def _skew(v):
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 1], S[..., 0, 2], S[..., 1, 2] = -z, y, -x
    S[..., 1, 0], S[..., 2, 0], S[..., 2, 1] = z, -y, x
    return S


def _kalman_update(P, H, R, innovation):
    P = np.asarray(P, dtype=float)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    y = np.atleast_1d(np.asarray(innovation, dtype=float))
    K = _gain(H @ P @ H.T + R, H @ P)
    dx = K @ y
    IKH = np.eye(P.shape[0]) - K @ H
    P_post = IKH @ P @ IKH.T + K @ R @ K.T
    return dx, 0.5 * (P_post + P_post.T)


def _se23_exp(xi):
    xi = np.asarray(xi, dtype=float)
    theta, dv, dp = xi[0:3], xi[3:6], xi[6:9]
    R = quat_to_rotation(_rotvec_to_quat(theta))
    angle = float_norm(theta)
    S = _skew(theta)
    if angle < 1e-8:
        J = np.eye(3) + 0.5 * S + S @ S / 6.0
    else:
        a2 = angle * angle
        J = (np.eye(3) + (1.0 - np.cos(angle)) / a2 * S
             + (angle - np.sin(angle)) / (a2 * angle) * (S @ S))
    return R, J @ dv, J @ dp


def ekf_update(state, dvl, ahrs, config):
    nav, P = state.nav, state.cov
    q_meas = np.asarray(ahrs, dtype=float)
    if float_dot(q_meas, nav.orientation) < 0.0:
        q_meas = -q_meas
    q_est = nav.orientation
    attitude = 2.0 * _quat_multiply(np.array([q_est[0], -q_est[1], -q_est[2], -q_est[3]]),
                                    q_meas)[1:]
    y = np.concatenate([np.asarray(dvl, dtype=float) - nav.velocity, attitude])
    rows = [3, 4, 5, 0, 1, 2]  # (dv, dtheta) of (dtheta, dv, dp)
    HP = P[rows]
    K = _gain(HP[:, rows] + config._r_matrix, HP)
    dx = K @ y
    IKH = np.eye(9)
    IKH[:, rows] -= K
    P = IKH @ P @ IKH.T + (K * np.concatenate([config.r_vel, config.r_att])) @ K.T
    P = 0.5 * (P + P.T)
    position = nav.position + dx[6:9]
    velocity = nav.velocity + dx[3:6]
    orientation = _quat_multiply(nav.orientation, _rotvec_to_quat(dx[0:3]))
    P = _check_cov(P, _PSD_TOL, "ekf_update") if config.validate else P
    return EkfState(NavState.exact(position, velocity, orientation), P)


@dataclass
class InekfArrays:
    """An InEKF state as the array forms below give it: its rotation a 3x3 matrix."""

    rotation: np.ndarray
    velocity: np.ndarray
    position: np.ndarray
    cov: np.ndarray


def inekf_update(state, dvl, ahrs, config):
    R = quat_to_rotation(state.orientation)
    R_meas = quat_to_rotation(ahrs)
    y_vel = np.asarray(dvl, dtype=float) - state.velocity
    y_att = _quat_to_rotvec(rotation_to_quat(R_meas @ R.T))
    y = np.concatenate([y_vel, y_att])
    H = np.zeros((6, 9))
    H[0:3, 0:3] = _skew(state.velocity)
    H[0:3, 3:6] = H[3:6, 0:3] = -np.eye(3)
    dx, P = _kalman_update(state.cov, H, config._r_matrix, y)
    Rc, dv, dp = _se23_exp(-dx)
    rotation = Rc @ R
    velocity = Rc @ state.velocity + dv
    position = Rc @ state.position + dp
    P = _check_cov(P, _PSD_TOL, "inekf_update") if config.validate else P
    return InekfArrays(rotation, velocity, position, P)


def strapdown(p, v, R, dts, accel, g):
    """Positions and velocities at the M+1 sample boundaries, each (M+1, 3), from
    the attitudes R[k] at the start of each sample, accumulated by ``cumsum``."""
    vs = np.empty((len(dts) + 1, 3))
    vs[0] = v
    vs[1:] = dts[:, None] * (ordered_matmul(R, accel[:, :, None])[:, :, 0] + g)
    np.cumsum(vs, axis=0, out=vs)
    ps = np.empty_like(vs)
    ps[0] = p
    np.multiply(dts[:, None], vs[:-1], out=ps[1:])
    np.cumsum(ps, axis=0, out=ps)
    return ps, vs


def _propagate_cov(P, F, Q):
    """P <- F[k] P F[k]^T + Q[k] for each sample k in turn."""
    for Fk, Qk in zip(F, Q):
        P = Fk.dot(P).dot(Fk.T) + Qk
    return P


def inekf_predict(state, burst, config, t_start):
    dts, a, w = unpack_burst(burst, t_start, config.biases.gyro, config.biases.accel)
    increments = np.concatenate([np.ones((len(dts), 1)), 0.5 * dts[:, None] * w], axis=1)
    chain = [quat_to_rotation(state.orientation)]
    for dR in quat_to_rotation(increments):
        chain.append(chain[-1].dot(dR))
    rotations = np.array(chain)
    R = rotations[:-1]
    ps, vs = strapdown(state.position, state.velocity, R, dts, a, config.gravity.vector)
    dt = dts[:, None, None]
    F = np.empty((len(dts), 9, 9))
    F[:] = np.eye(9)
    F[:, 3:6, 0:3] = dt * _skew(config.gravity.vector)
    F[:, 6:9, 3:6] = dt * np.eye(3)
    Ad = np.zeros((len(dts), 9, 9))
    Ad[:, 0:3, 0:3] = Ad[:, 3:6, 3:6] = Ad[:, 6:9, 6:9] = R
    Ad[:, 3:6, 0:3] = _skew(vs[:-1]) @ R
    Ad[:, 6:9, 0:3] = _skew(ps[:-1]) @ R
    qb = np.repeat([config.q_att, config.q_vel, config.q_pos], 3)
    Q = (Ad * qb) @ Ad.transpose(0, 2, 1) * dt
    P = _finish_cov(_propagate_cov(state.cov, F, Q), config, "inekf_predict")
    return InekfArrays(rotations[-1], vs[-1], ps[-1], P)


def strapdown_loop(rows, t_start, config, orientation, velocity, position, after):
    dts, dt_array = _spacings(rows, t_start)
    b0, b1, b2 = config.biases.accel.tolist()
    c0, c1, c2 = config.biases.gyro.tolist()
    g0, g1, g2 = config.gravity.vector.tolist()
    qw, qx, qy, qz = orientation.tolist()
    v0, v1, v2 = velocity.tolist()
    p0, p1, p2 = position.tolist()
    r0, r1, r2 = (0.0, 0.0, 0.0) if after else (p0, p1, p2)
    a = b = 0.0
    sums = [(a, b)]
    for dt in reversed(dts):
        a, b = a + dt, b + dt * a
        sums.append((a, b))
    sums.reverse()
    unit = _unit((qw, qx, qy, qz))
    first = attitude = rotation_entries(unit)
    moments = []
    for dt, (_, a0, a1, a2, w0, w1, w2), (ak, bk) in zip(dts, rows, sums if after else sums[1:]):
        moments += (ak * g0 + v0, ak * g1 + v1, ak * g2 + v2,
                    bk * g0 + ak * v0 + r0, bk * g1 + ak * v1 + r1, bk * g2 + ak * v2 + r2,
                    ak, 1.0)
        a0, a1, a2, w0, w1, w2 = a0 - b0, a1 - b1, a2 - b2, w0 - c0, w1 - c1, w2 - c2
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = attitude
        f0 = r00 * a0 + r01 * a1 + r02 * a2
        f1 = r10 * a0 + r11 * a1 + r12 * a2
        f2 = r20 * a0 + r21 * a1 + r22 * a2
        p0, p1, p2 = p0 + dt * v0, p1 + dt * v1, p2 + dt * v2
        r0, r1, r2 = r0 + dt * v0, r1 + dt * v1, r2 + dt * v2
        v0, v1, v2 = v0 + dt * (f0 + g0), v1 + dt * (f1 + g1), v2 + dt * (f2 + g2)
        h = 0.5 * dt
        qw, qx, qy, qz = product_entries((qw, qx, qy, qz), (1.0, h * w0, h * w1, h * w2))
        unit = _unit((qw, qx, qy, qz))
        attitude = rotation_entries(unit)
    end, rotations = (unit, [v0, v1, v2], [p0, p1, p2]), first + attitude
    T, T2 = sums[0]
    if not after:
        transition = (-(T * g0), -(T * g1), -(T * g2)), (-(T2 * g0), -(T2 * g1), -(T2 * g2)), T
        return end, transition, np.fromiter(moments, float).reshape(-1, 8), dt_array, rotations
    x0, x1, x2, x3, x4, x5 = moments[:6]
    transition = (v0 - x0, v1 - x1, v2 - x2), (r0 - x3, r1 - x4, r2 - x5), T
    del moments[:8]
    moments += (v0, v1, v2, r0, r1, r2, 0.0, 1.0)
    X = np.fromiter(moments, float).reshape(-1, 8) - (v0, v1, v2, r0, r1, r2, 0.0, 0.0)
    return end, transition, X, dt_array, rotations


def _moment_block(rows, c, q, extra) -> tuple:
    (y00, y01, y02), (y10, y11, y12), (y20, y21, y22) = [row[c:c + 3] for row in rows]
    return ((q * (y11 + y22) + extra, -q * y01, -q * y02),
            (-q * y10, q * (y00 + y22) + extra, -q * y12),
            (-q * y20, -q * y21, q * (y00 + y11) + extra))


def noise_sum(G, q_att, q_vel, q_pos) -> np.ndarray:
    """N of the 8x8 moment product G and the noise densities."""
    G = np.asarray(G, dtype=float).tolist()
    qa, qv, S = q_att, q_vel, G[7][7]
    u0, u1, u2, w0, w1, w2 = [qa * row[7] for row in G[:6]]
    vv0, vv1, vv2 = _moment_block(G[0:3], 0, qa, qv * S)
    vp0, vp1, vp2 = _moment_block(G[3:6], 0, qa, qv * G[6][7])
    pv0, pv1, pv2 = zip(vp0, vp1, vp2)
    pp0, pp1, pp2 = _moment_block(G[3:6], 3, qa, qv * G[6][6] + q_pos * S)
    qS = qa * S
    return np.array([
        qS, 0.0, 0.0, 0.0, u2, -u1, 0.0, w2, -w1,
        0.0, qS, 0.0, -u2, 0.0, u0, -w2, 0.0, w0,
        0.0, 0.0, qS, u1, -u0, 0.0, w1, -w0, 0.0,
        0.0, -u2, u1, *vv0, *vp0,
        u2, 0.0, -u0, *vv1, *vp1,
        -u1, u0, 0.0, *vv2, *vp2,
        0.0, -w2, w1, *pv0, *pp0,
        w2, 0.0, -w0, *pv1, *pp1,
        -w1, w0, 0.0, *pv2, *pp2,
    ]).reshape(9, 9)
