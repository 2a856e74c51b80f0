"""Filter baselines over the same epoch streams: error-state EKF and InEKF.

Both filters propagate their mean with the same strapdown kernels as
``preintegrate_burst`` and fuse the DVL velocity and AHRS attitude at every
epoch with Joseph-form covariance updates.

The EKF tracks a 9-dim error state (position, velocity, body-frame attitude
angle).  The InEKF keeps the state as a matrix Lie group element (rotation,
velocity, position) with a right-invariant error; its deterministic error
propagation is state-independent, which makes the group-affine invariance
checks exact up to floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericalError
from .preintegration import GravityModel, ImuBiases, NavState, _check_dt
from .preintegration import preintegrate_burst  # noqa: F401  kept as a module attribute: perfbench times it
from .quat import (
    quat_from_rotvec,
    quat_multiply,
    quat_normalize,
    quat_product,
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


def _skew(v) -> np.ndarray:
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


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


def ekf_predict(state: EkfState, burst, config: FilterConfig, t_start: float) -> EkfState:
    """Propagate mean and covariance through an IMU burst.

    The mean follows ``preintegrate_burst`` step for step: position,
    velocity and orientation are each updated from the state at the start of
    the sample interval.  Per sample:
    F = [[I, dt I, 0], [0, I, -dt R [a]x], [0, 0, I - dt [w]x]]
    on the (dp, dv, dtheta) error, plus diagonal process noise scaled by dt.
    """
    p = state.nav.position
    v = state.nav.velocity
    q = state.nav.orientation
    P = state.cov
    g = config.gravity.vector
    Qc = np.diag(config.q_diag())
    t_prev = float(t_start)
    for sample in burst:
        dt = sample.t - t_prev
        if dt <= 0.0:
            raise ValueError(f"non-positive IMU dt at t={sample.t!r}")
        dt = _check_dt(dt)
        R = quat_to_rotation(q)
        a = np.asarray(sample.accel, dtype=float) - config.biases.accel
        w = np.asarray(sample.gyro, dtype=float) - config.biases.gyro
        F = np.eye(9)
        F[0:3, 3:6] = dt * np.eye(3)
        F[3:6, 6:9] = -dt * (R @ _skew(a))
        F[6:9, 6:9] = np.eye(3) - dt * _skew(w)
        P = F @ P @ F.T + Qc * dt
        inc = np.concatenate(([1.0], 0.5 * dt * w))
        p, v, q = p + dt * v, v + dt * (R @ a + g), quat_normalize(quat_product(q, inc))
        t_prev = sample.t
    nav = NavState(p, v, q)
    if config.validate:
        P = _check_cov(P, config.psd_tol, "ekf_predict")
    else:
        P = 0.5 * (P + P.T)
    return EkfState(nav, P)


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

    The mean uses the same per-sample kernels as preintegrate_burst (the
    rotation update is the renormalized Euler quaternion step expressed as a
    right rotation increment), so the deterministic propagation commutes
    with left group translations exactly.
    """
    R = state.rotation
    v = state.velocity
    p = state.position
    P = state.cov
    g = config.gravity.vector
    Qb = np.diag(np.concatenate([np.full(3, config.q_att), np.full(3, config.q_vel),
                                 np.full(3, config.q_pos)]))
    t_prev = float(t_start)
    for sample in burst:
        dt = sample.t - t_prev
        if dt <= 0.0:
            raise ValueError(f"non-positive IMU dt at t={sample.t!r}")
        a = np.asarray(sample.accel, dtype=float) - config.biases.accel
        w = np.asarray(sample.gyro, dtype=float) - config.biases.gyro

        F = np.eye(9)
        F[3:6, 0:3] = dt * _skew(g)
        F[6:9, 3:6] = dt * np.eye(3)
        Ad = np.zeros((9, 9))
        Ad[0:3, 0:3] = R
        Ad[3:6, 0:3] = _skew(v) @ R
        Ad[3:6, 3:6] = R
        Ad[6:9, 0:3] = _skew(p) @ R
        Ad[6:9, 6:9] = R
        P = F @ P @ F.T + (Ad @ Qb @ Ad.T) * dt

        inc = quat_normalize(np.concatenate(([1.0], 0.5 * dt * w)))
        p = p + dt * v
        v = v + dt * (R @ a + g)
        R = R @ quat_to_rotation(inc)
        t_prev = sample.t
    if config.validate:
        P = _check_cov(P, config.psd_tol, "inekf_predict")
    else:
        P = 0.5 * (P + P.T)
    return InekfState(R, v, p, P)


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
    for epoch in epochs:
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
    for epoch in epochs:
        state = inekf_predict(state, epoch.imu_burst, config, t_prev)
        state = inekf_update(state, epoch.dvl, epoch.ahrs, config)
        points.append(TrajectoryPoint(epoch.t, state.nav(), "ok"))
        t_prev = epoch.t
    return points
