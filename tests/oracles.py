"""Reference models the package's closed forms are tested against.

``ORIENTATION_MODEL`` states the cascade's orientation stage as a generic
``WindowModel`` for ``ipg_step`` (state: a quaternion; input: a burst's
``rot_increment``, with the gyro bias already folded in).  The cascade runs
the closed form ``cascade._orientation_step`` instead, which must match it.
``window_terms`` builds one window's terms of that closed form on its own,
the reference for ``cascade._window_terms``, which builds them per block of
windows.

``velocity_step`` is the velocity stage on arrays: each burst's increment
rotated from the orientation where it starts (``burst_start_orientations``
and ``velocity_increments``), the offsets their running sums, and the
scalar-gain recursion on the window's misfit.  ``cascade._velocity_step``
gets the same from per-window sums in O(1) and must match it.

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

``ekf_update`` and ``inekf_update`` are the filters' measurement updates as
they were on numpy arrays, before their vector algebra ran on Python floats:
the innovation, the Hamilton products and the rotation-vector maps on 3- and
4-element arrays with numpy's cos and sin, H built from ``np.zeros``, and
``kalman_update`` through ``np.atleast_2d`` and ``np.eye``.  The package's
updates must equal them bit for bit.
"""

from __future__ import annotations

import csv
import math
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
from cipgnav.baselines import EkfState, InekfState, _check_cov, _gain, _PSD_TOL
from cipgnav.errors import (
    DegenerateQuaternionError,
    DivergenceError,
    NumericalError,
    ParseError,
    StreamOrderError,
)
from cipgnav.ipg import IpgParams, WindowModel
from cipgnav.preintegration import NavState
from cipgnav.quat import (
    _NORM_EPS,
    hemisphere_align,
    quat_from_euler,
    quat_from_rotvec,
    quat_normalize,
    quat_product,
    quat_right_matrix,
    quat_to_rotation,
    rotation_rows,
    rotation_to_quat,
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
    return normalize_jacobian(raw) @ quat_right_matrix(rot_increment)


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


def window_terms(ahrs, rot_increments):
    """One window's M_j (N-1, 4, 4) and W_j = M_j^T Z_j / |U_j| (N-1, 4), from its
    AHRS rows (N, 4) and increments (N-1, 4), raising DegenerateQuaternionError
    on a zero or NaN |U_j| and NumericalError on an infinite one."""
    # q * U_{j-1} * r_j = R(r_j) R(U_{j-1}) q, so M_j = R(r_j) @ M_{j-1}.
    M = quat_right_matrix(rot_increments)
    for j in range(1, len(M)):
        M[j] = float_matmul(M[j], M[j - 1])
    norms = np.array([float_norm(u) for u in M[:, :, 0]])  # column 0 of M_j is U_j
    if not (norms > _NORM_EPS).all():
        raise DegenerateQuaternionError(f"cannot normalize quaternion with norm {norms.min():.3e}")
    if not np.isfinite(norms).all():
        raise NumericalError("non-finite stacked Jacobian entry in the orientation window")
    return M, np.array([float_matmul(m.T, z) for m, z in zip(M, ahrs[1:])]) / norms[:, None]


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
    K = _gain(P[3:, 3:] + config._r_matrix, P[3:])
    dx = K @ y
    IKH = np.eye(9)
    IKH[:, 3:] -= K
    P = IKH @ P @ IKH.T + (K * config._r) @ K.T
    P = 0.5 * (P + P.T)
    position = nav.position + dx[0:3]
    velocity = nav.velocity + dx[3:6]
    orientation = _quat_multiply(nav.orientation, _rotvec_to_quat(dx[6:9]))
    P = _check_cov(P, _PSD_TOL, "ekf_update") if config.validate else P
    return EkfState(NavState.exact(position, velocity, orientation), P)


def inekf_update(state, dvl, ahrs, config):
    R_meas = quat_to_rotation(ahrs)
    y_vel = np.asarray(dvl, dtype=float) - state.velocity
    y_att = _quat_to_rotvec(rotation_to_quat(R_meas @ state.rotation.T))
    y = np.concatenate([y_vel, y_att])
    H = np.zeros((6, 9))
    H[0:3, 0:3] = _skew(state.velocity)
    H[0:3, 3:6] = H[3:6, 0:3] = -np.eye(3)
    dx, P = _kalman_update(state.cov, H, config._r_matrix, y)
    Rc, dv, dp = _se23_exp(-dx)
    rotation = Rc @ state.rotation
    velocity = Rc @ state.velocity + dv
    position = Rc @ state.position + dp
    P = _check_cov(P, _PSD_TOL, "inekf_update") if config.validate else P
    return InekfState(rotation, velocity, position, P)
