"""Filter baselines over the same epoch streams: error-state EKF and InEKF.

Both filters propagate their mean with the strapdown kernels of
``preintegrate_burst`` and fuse the DVL velocity and AHRS attitude at every
epoch with Joseph-form covariance updates.

The EKF tracks a 9-dim error state (position, velocity, body-frame attitude
angle).  The InEKF keeps the state as a matrix Lie group element (rotation,
velocity, position) with a right-invariant error; its deterministic error
propagation is state-independent, which makes the group-affine invariance
checks exact up to floating point.

Prediction works on a whole IMU burst at a time.  The burst is unpacked once
into arrays of spacings and bias-corrected readings; the per-sample
attitudes, velocities and positions, the error transitions F_k and the
process noise Q_k are formed with array operations over the burst.  What
stays per sample is the covariance recursion P <- F_k P F_k^T + Q_k, which
is sequential by nature, and, in the InEKF, the 3x3 rotation chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericalError
from .preintegration import GravityModel, ImuBiases, NavState, running_product, unpack_burst
from .preintegration import preintegrate_burst  # noqa: F401  kept as a module attribute: perfbench times it
from .quat import (
    quat_from_rotvec,
    quat_multiply,
    quat_to_rotation,
    rotation_to_quat,
)
from .trajectory import TrajectoryPoint

__all__ = [
    "FilterConfig",
    "EkfState",
    "InekfState",
    "kalman_update",
    "ekf_predict",
    "ekf_update",
    "inekf_predict",
    "inekf_update",
    "run_ekf",
    "run_inekf",
    "se23_exp",
]


_EYE3 = np.eye(3)
_EYE9 = np.eye(9)


def _skew(v) -> np.ndarray:
    """[v]x of a 3-vector, or of each row of an (..., 3) array as (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 1], S[..., 0, 2], S[..., 1, 2] = -z, y, -x
    S[..., 1, 0], S[..., 2, 0], S[..., 2, 1] = z, -y, x
    return S


@dataclass(frozen=True)
class FilterConfig:
    """Shared EKF/InEKF tuning.

    The initial and measurement covariances default to 0.1 * I.  Process
    noise defaults are continuous densities at consumer-IMU datasheet scale
    (per-axis position / velocity / attitude), discretized per sample dt.
    """

    p0_scale: float = 0.1
    r_vel: np.ndarray = field(default_factory=lambda: 0.1 * np.ones(3))
    r_att: np.ndarray = field(default_factory=lambda: 0.1 * np.ones(3))
    q_pos: float = 1e-8
    q_vel: float = 4e-6
    q_att: float = 1e-8
    biases: ImuBiases = field(default_factory=ImuBiases)
    gravity: GravityModel = field(default_factory=GravityModel)
    validate: bool = False
    psd_tol: float = 1e-9

    def q_diag(self) -> np.ndarray:
        return np.concatenate(
            [np.full(3, self.q_pos), np.full(3, self.q_vel), np.full(3, self.q_att)]
        )

    def r_matrix(self) -> np.ndarray:
        return np.diag(np.concatenate([np.asarray(self.r_vel), np.asarray(self.r_att)]))


@dataclass
class EkfState:
    """Mean NavState plus 9x9 covariance over (dp, dv, dtheta_body)."""

    nav: NavState
    cov: np.ndarray

    @classmethod
    def start(cls, nav: NavState, config: FilterConfig) -> "EkfState":
        return cls(nav.copy(), config.p0_scale * np.eye(9))


@dataclass
class InekfState:
    """Group element (rotation, velocity, position) plus 9x9 right-invariant covariance.

    The error ordering is (attitude, velocity, position).
    """

    rotation: np.ndarray
    velocity: np.ndarray
    position: np.ndarray
    cov: np.ndarray

    @classmethod
    def start(cls, nav: NavState, config: FilterConfig) -> "InekfState":
        return cls(
            quat_to_rotation(nav.orientation),
            nav.velocity.copy(),
            nav.position.copy(),
            config.p0_scale * np.eye(9),
        )

    def as_matrix(self) -> np.ndarray:
        X = np.eye(5)
        X[:3, :3] = self.rotation
        X[:3, 3] = self.velocity
        X[:3, 4] = self.position
        return X

    def nav(self) -> NavState:
        return NavState(self.position.copy(), self.velocity.copy(),
                        rotation_to_quat(self.rotation))


def _check_cov(P: np.ndarray, tol: float, what: str) -> np.ndarray:
    P = 0.5 * (P + P.T)
    if not np.all(np.isfinite(P)):
        raise NumericalError(f"{what}: covariance has non-finite entries")
    eig_min = float(np.linalg.eigvalsh(P)[0])
    if eig_min < -tol:
        raise NumericalError(f"{what}: covariance lost positive semidefiniteness "
                             f"(min eigenvalue {eig_min:.3e})")
    return P


def kalman_update(P, H, R, innovation):
    """Joseph-form linear update; returns (state correction, posterior covariance)."""
    P = np.asarray(P, dtype=float)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    y = np.atleast_1d(np.asarray(innovation, dtype=float))
    S = H @ P @ H.T + R
    try:
        K = np.linalg.solve(S, H @ P).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"innovation covariance is singular: {exc}") from None
    dx = K @ y
    IKH = np.eye(P.shape[0]) - K @ H
    P_post = IKH @ P @ IKH.T + K @ R @ K.T
    return dx, 0.5 * (P_post + P_post.T)


# Entry (i, j) of quat_to_rotation(q) is BASE + OUTER * (qq[A] + INNER * qq[B])
# with qq = 2 q q^T flattened; e.g. R[0, 1] = 2xy - 2wz, R[0, 0] = 1 - (2yy + 2zz).
_ROT_A = np.array([10, 6, 7, 6, 5, 11, 7, 11, 5])
_ROT_B = np.array([15, 3, 2, 3, 15, 1, 2, 1, 10])
_ROT_INNER = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
_ROT_BASE = np.eye(3).ravel()
_ROT_OUTER = 1.0 - 2.0 * _ROT_BASE


def _rotation_rows(quats: np.ndarray) -> np.ndarray:
    """quat_to_rotation of each row of an (M, 4) array of unit quaternions, as (M, 3, 3)."""
    qq = ((2.0 * quats)[:, :, None] * quats[:, None, :]).reshape(-1, 16)
    R = _ROT_BASE + _ROT_OUTER * (qq[:, _ROT_A] + _ROT_INNER * qq[:, _ROT_B])
    return R.reshape(-1, 3, 3)


def _unit_rows(quats: np.ndarray) -> np.ndarray:
    return quats / np.linalg.norm(quats, axis=1, keepdims=True)


def _strapdown(p, v, R, dts, accel, g):
    """Positions and velocities at the M+1 sample boundaries, each (M+1, 3).

    R[k] is the attitude at the start of sample k; the updates are those of
    ``propagate_position`` and ``propagate_velocity``, accumulated in sample
    order by ``cumsum``.
    """
    dv = dts[:, None] * ((R @ accel[:, :, None])[:, :, 0] + g)
    vs = np.cumsum(np.vstack([v, dv]), axis=0)
    ps = np.cumsum(np.vstack([p, dts[:, None] * vs[:-1]]), axis=0)
    return ps, vs


def _propagate_cov(P, F, Q):
    """P <- F[k] P F[k]^T + Q[k] for each sample k in turn."""
    for Fk, Qk in zip(F, Q):
        P = Fk.dot(P).dot(Fk.T) + Qk  # ndarray.dot: less call overhead than @ on 9x9
    return P



def ekf_predict(state: EkfState, burst, config: FilterConfig, t_start: float) -> EkfState:
    """Propagate mean and covariance through an IMU burst.

    The mean follows ``preintegrate_burst``: position, velocity and
    orientation are each updated from the state at the start of the sample
    interval.  The error transition of sample k, on (dp, dv, dtheta), is
    F_k = [[I, dt I, 0], [0, I, -dt R [a]x], [0, 0, I - dt [w]x]], with
    diagonal process noise scaled by dt.

    The burst is evaluated as a whole: one running quaternion product gives
    every per-sample attitude, ``cumsum`` the velocities and positions, and
    the F_k and noise stacks are built in a few array operations.  Only the
    covariance recursion P <- F_k P F_k^T + Q_k steps through the samples.
    """
    nav = state.nav
    dts, a, w = unpack_burst(burst, t_start, config.biases.gyro, config.biases.accel)
    quats = _unit_rows(running_product(nav.orientation, dts, w))
    R = _rotation_rows(quats[:-1])
    ps, vs = _strapdown(nav.position, nav.velocity, R, dts, a, config.gravity.vector)

    dt = dts[:, None, None]
    F = np.broadcast_to(_EYE9, (len(dts), 9, 9)).copy()
    F[:, 0:3, 3:6] = dt * _EYE3
    F[:, 3:6, 6:9] = -dt * (R @ _skew(a))
    F[:, 6:9, 6:9] = _EYE3 - dt * _skew(w)
    P = _propagate_cov(state.cov, F, np.diag(config.q_diag()) * dt)
    if config.validate:
        P = _check_cov(P, config.psd_tol, "ekf_predict")
    else:
        P = 0.5 * (P + P.T)
    return EkfState(NavState(ps[-1], vs[-1], quats[-1]), P)


def _attitude_innovation(q_est, q_meas) -> np.ndarray:
    """Small-angle body-frame attitude innovation 2 * vec(q_est^-1 * q_meas)."""
    q_meas = np.asarray(q_meas, dtype=float)
    if float(q_meas @ q_est) < 0.0:
        q_meas = -q_meas
    dq = quat_multiply(
        np.array([q_est[0], -q_est[1], -q_est[2], -q_est[3]]), q_meas
    )
    return 2.0 * dq[1:]


def ekf_update(state: EkfState, dvl, ahrs, config: FilterConfig) -> EkfState:
    """Fuse a DVL velocity and an AHRS quaternion in one stacked update."""
    nav = state.nav
    y = np.concatenate([np.asarray(dvl, dtype=float) - nav.velocity,
                        _attitude_innovation(nav.orientation, ahrs)])
    H = np.zeros((6, 9))
    H[0:3, 3:6] = np.eye(3)
    H[3:6, 6:9] = np.eye(3)
    dx, P = kalman_update(state.cov, H, config.r_matrix(), y)
    position = nav.position + dx[0:3]
    velocity = nav.velocity + dx[3:6]
    orientation = quat_multiply(nav.orientation, quat_from_rotvec(dx[6:9]))
    if config.validate:
        P = _check_cov(P, config.psd_tol, "ekf_update")
    return EkfState(NavState(position, velocity, orientation), P)


def _left_jacobian_so3(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    angle = float(np.linalg.norm(theta))
    S = _skew(theta)
    if angle < 1e-8:
        return np.eye(3) + 0.5 * S + S @ S / 6.0
    a2 = angle * angle
    return (
        np.eye(3)
        + (1.0 - np.cos(angle)) / a2 * S
        + (angle - np.sin(angle)) / (a2 * angle) * (S @ S)
    )


def se23_exp(xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponential of a (attitude, velocity, position) tangent vector.

    Returns the group element blocks (rotation, velocity offset, position
    offset) using the closed-form SO(3) exponential and left Jacobian.
    """
    xi = np.asarray(xi, dtype=float)
    theta, dv, dp = xi[0:3], xi[3:6], xi[6:9]
    R = quat_to_rotation(quat_from_rotvec(theta))
    J = _left_jacobian_so3(theta)
    return R, J @ dv, J @ dp


def inekf_predict(state: InekfState, burst, config: FilterConfig, t_start: float) -> InekfState:
    """Propagate the group mean and the right-invariant covariance.

    The mean uses the per-sample kernels of ``preintegrate_burst``; the
    rotation update is the renormalized Euler quaternion step applied as a
    right rotation increment, so the deterministic propagation commutes
    with left group translations.  Sample k propagates the error with the
    right-invariant A-matrix, F_k = I + dt [[0, 0, 0], [[g]x, 0, 0], [0, I, 0]]
    on (attitude, velocity, position), and adds the body-frame noise mapped
    by the adjoint of the state at the start of the sample,
    Q_k = Ad_k Qb Ad_k^T dt (Hartley et al., IJRR 39(4), 2020).

    The burst is evaluated as a whole: the per-sample increment matrices are
    built in one batched operation and chained onto the start rotation,
    ``cumsum`` gives the velocities and positions, and the F_k, Ad_k and Q_k
    stacks are built in a few array operations.  Only the 3x3 rotation chain
    and the covariance recursion P <- F_k P F_k^T + Q_k step through the
    samples.
    """
    dts, a, w = unpack_burst(burst, t_start, config.biases.gyro, config.biases.accel)
    increments = np.column_stack([np.ones(len(dts)), 0.5 * dts[:, None] * w])
    # Chained in sample order, as the per-sample loop does: the single product
    # R0 * R(r_1 * ... * r_k) moved this filter's 100 s trajectories by 2e-12 m.
    rotations = [state.rotation]
    for dR in _rotation_rows(_unit_rows(increments)):
        rotations.append(rotations[-1].dot(dR))
    R = np.array(rotations[:-1])
    g = config.gravity.vector
    ps, vs = _strapdown(state.position, state.velocity, R, dts, a, g)

    dt = dts[:, None, None]
    F = np.broadcast_to(_EYE9, (len(dts), 9, 9)).copy()
    F[:, 3:6, 0:3] = dt * _skew(g)
    F[:, 6:9, 3:6] = dt * _EYE3
    Ad = np.zeros((len(dts), 9, 9))
    Ad[:, 0:3, 0:3] = Ad[:, 3:6, 3:6] = Ad[:, 6:9, 6:9] = R
    Ad[:, 3:6, 0:3] = _skew(vs[:-1]) @ R
    Ad[:, 6:9, 0:3] = _skew(ps[:-1]) @ R
    qb = np.concatenate([np.full(3, config.q_att), np.full(3, config.q_vel),
                         np.full(3, config.q_pos)])
    Q = (Ad * qb) @ Ad.transpose(0, 2, 1) * dt
    P = _propagate_cov(state.cov, F, Q)
    if config.validate:
        P = _check_cov(P, config.psd_tol, "inekf_predict")
    else:
        P = 0.5 * (P + P.T)
    return InekfState(rotations[-1], vs[-1], ps[-1], P)


def inekf_update(state: InekfState, dvl, ahrs, config: FilterConfig) -> InekfState:
    """Fuse DVL velocity and AHRS attitude in the right-invariant error frame.

    With the right-invariant error Exp(xi) = X_est * X_true^-1, the
    linearized measurement rows are [ [v]x, -I, 0 ] for the velocity
    innovation z - v_est and [ -I, 0, 0 ] for the attitude innovation
    Log(R_meas R_est^T); the correction applies as X <- Exp(-K y) * X.
    """
    R_meas = quat_to_rotation(ahrs)
    y_vel = np.asarray(dvl, dtype=float) - state.velocity
    dR = R_meas @ state.rotation.T
    q_err = rotation_to_quat(dR)
    angle_axis = q_err[1:]
    s = float(np.linalg.norm(angle_axis))
    if s < 1e-12:
        y_att = 2.0 * angle_axis
    else:
        angle = 2.0 * np.arctan2(s, float(q_err[0]))
        y_att = angle * angle_axis / s
    y = np.concatenate([y_vel, y_att])

    H = np.zeros((6, 9))
    H[0:3, 0:3] = _skew(state.velocity)
    H[0:3, 3:6] = -np.eye(3)
    H[3:6, 0:3] = -np.eye(3)
    dx, P = kalman_update(state.cov, H, config.r_matrix(), y)

    Rc, dv, dp = se23_exp(-dx)
    rotation = Rc @ state.rotation
    velocity = Rc @ state.velocity + dv
    position = Rc @ state.position + dp
    if config.validate:
        P = _check_cov(P, config.psd_tol, "inekf_update")
    return InekfState(rotation, velocity, position, P)


def _check_measurements(name: str, k: int, epoch) -> None:
    """Raise NumericalError naming the filter, epoch and stream of a non-finite measurement."""
    for stream, values in (("dvl", epoch.dvl), ("ahrs", epoch.ahrs)):
        if not np.isfinite(values).all():
            raise NumericalError(f"{name}: non-finite {stream} measurement at epoch {k} "
                                 f"(t={epoch.t!r}): {values!r}")


def run_ekf(epochs, config: FilterConfig, initial: Optional[NavState] = None):
    """EKF over an epoch stream; returns one TrajectoryPoint per epoch."""
    epochs = list(epochs)
    if not epochs:
        raise ValueError("run_ekf needs at least one epoch")
    from .sensors import initial_nav_from_epochs

    nav0 = initial.copy() if initial is not None else initial_nav_from_epochs(epochs)
    state = EkfState.start(nav0, config)
    t_prev = epochs[0].t_prev
    points = []
    for k, epoch in enumerate(epochs):
        _check_measurements("run_ekf", k, epoch)
        state = ekf_predict(state, epoch.imu_burst, config, t_prev)
        state = ekf_update(state, epoch.dvl, epoch.ahrs, config)
        points.append(TrajectoryPoint(epoch.t, state.nav.copy(), "ok"))
        t_prev = epoch.t
    return points


def run_inekf(epochs, config: FilterConfig, initial: Optional[NavState] = None):
    """InEKF over an epoch stream; returns one TrajectoryPoint per epoch."""
    epochs = list(epochs)
    if not epochs:
        raise ValueError("run_inekf needs at least one epoch")
    from .sensors import initial_nav_from_epochs

    nav0 = initial.copy() if initial is not None else initial_nav_from_epochs(epochs)
    state = InekfState.start(nav0, config)
    t_prev = epochs[0].t_prev
    points = []
    for k, epoch in enumerate(epochs):
        _check_measurements("run_inekf", k, epoch)
        state = inekf_predict(state, epoch.imu_burst, config, t_prev)
        state = inekf_update(state, epoch.dvl, epoch.ahrs, config)
        points.append(TrajectoryPoint(epoch.t, state.nav(), "ok"))
        t_prev = epoch.t
    return points
