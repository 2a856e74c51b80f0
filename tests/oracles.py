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
values read and the bytes written must equal theirs bit for bit.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

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
    quat_normalize,
    quat_product,
    quat_right_matrix,
    rotation_rows,
    unit_rows,
)
from cipgnav.sensors import open_csv
from cipgnav.trajectory import FLAGS, TRAJECTORY_COLUMNS, TrajectoryPoint


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
        M[j] = M[j] @ M[j - 1]
    _, norms = unit_rows(M[:, :, 0])  # column 0 of M_j is U_j
    if not np.isfinite(norms).all():
        raise NumericalError("non-finite stacked Jacobian entry in the orientation window")
    return M, (ahrs[1:, None, :] @ M)[:, 0, :] / norms[:, None]


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


def write_trajectory(points, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for p in points:
            row = [p.t, *p.nav.position, *p.nav.velocity, *p.nav.orientation]
            writer.writerow([repr(float(v)) for v in row] + [p.flag])


def read_trajectory(path):
    """Load a trajectory CSV one row at a time, each quaternion through NavState.

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
            points.append(TrajectoryPoint(t, nav, flag))
    return points
