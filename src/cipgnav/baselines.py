"""Filter baselines over the same epoch streams: error-state EKF and InEKF.

Both filters propagate their mean with the strapdown expressions of
``preintegrate_burst`` and fuse the DVL velocity and AHRS attitude at every
epoch with Joseph-form covariance updates.

The EKF tracks a 9-dim error state (position, velocity, body-frame attitude
angle).  The InEKF keeps the state as a matrix Lie group element (rotation,
velocity, position) with a right-invariant error; its deterministic error
propagation is state-independent, which makes the group-affine invariance
checks exact up to floating point.

Prediction works on a whole IMU burst at a time.  The EKF reads the burst
once as Python floats and walks it in one loop that forms each sample's
attitude, velocity and position and the two state-dependent blocks of its
error transition F_k.  No BLAS call forms its predicted mean, which is
therefore the same bits under every BLAS kernel (OpenBLAS picks one per CPU
at run time).  It propagates its covariance in burst form, with BLAS
products: one backward pass of suffix products F_M ... F_{k+1}, one 9x9
product per sample, and one product for the whole noise sum.  The InEKF
unpacks the burst once into arrays of spacings and bias-corrected readings,
forms the per-sample attitudes, velocities, positions, F_k and process noise
Q_k with array operations, and steps its covariance recursion
P <- F_k P F_k^T + Q_k and its 3x3 rotation chain sample by sample.  The EKF
update uses that its measurements select error-state rows 3..8 and forms no
product with H.  Each ``FilterConfig`` builds its matrices once: on 3- to
9-element arrays a numpy call costs more than its arithmetic.

For the same reason both updates run their vector algebra on Python floats:
the innovation, the hemisphere test, the Hamilton products, the rotation
vector maps and the mean correction, with math's cos and sin (see ``quat``).
Elementwise float arithmetic rounds as numpy's does, and norms are summed in
index order (``quat``), so only the matrix products are left to numpy, and
each update's result equals its array form bit for bit (the InEKF amplifies a
last-bit change about 10^4-fold over a run).  Both updates refuse a
non-finite DVL or AHRS reading with NumericalError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateQuaternionError, NumericalError, _finite3, _one_of, _real
from .preintegration import (
    GravityModel,
    ImuBiases,
    NavState,
    _check_dt,
    _strapdown,
    unpack_burst,
)
from .preintegration import preintegrate_burst  # noqa: F401  kept as a module attribute: perfbench times it
from .quat import (
    _norm,
    _unit,
    product_entries,
    quat_from_rotvec,
    quat_normalize,
    quat_to_rotation,
    quat_to_rotvec,
    rotation_entries,
    rotation_to_quat,
)
from .sensors import initial_nav_from_epochs
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
# The InEKF's measurement rows without their one state-dependent block, [v]x at H[0:3, 0:3].
_H_INEKF = np.zeros((6, 9))
_H_INEKF[0:3, 3:6] = _H_INEKF[3:6, 0:3] = -_EYE3
_H_INEKF.setflags(write=False)
_PSD_TOL = 1e-9  # the most negative covariance eigenvalue a validating filter accepts


def _skew(v) -> np.ndarray:
    """[v]x of a 3-vector, or of each row of an (..., 3) array as (..., 3, 3)."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:  # one vector: its entries on Python floats
        x, y, z = v.tolist()
        return np.array([0.0, -z, y, z, 0.0, -x, -y, x, 0.0]).reshape(3, 3)
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 1], S[..., 0, 2], S[..., 1, 2] = -z, y, -x
    S[..., 1, 0], S[..., 2, 0], S[..., 2, 1] = z, -y, x
    return S


@dataclass(frozen=True, eq=False)
class FilterConfig:
    """Shared EKF/InEKF tuning.

    The initial and measurement covariances default to 0.1 * I.  Process
    noise defaults are continuous densities at consumer-IMU datasheet scale
    (per-axis position / velocity / attitude), discretized per sample dt.
    ``p0_scale`` and ``q_*`` must be finite and >= 0 and ``r_vel`` and ``r_att``
    three finite values > 0 (the rules of ``errors``), kept read-only so that the
    matrices built from them here stay current.
    A config compares and hashes by identity, as its array fields have no
    single truth value: it equals only itself, and ``dataclasses.replace``
    gives a new config that equals neither the old one nor another copy.
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

    def __post_init__(self):
        for name in ("p0_scale", "q_pos", "q_vel", "q_att"):
            object.__setattr__(self, name, _real(name, getattr(self, name), ">= 0"))
        for name in ("r_vel", "r_att"):  # copies the caller cannot change
            object.__setattr__(self, name, _finite3(name, getattr(self, name), positive=True))
        _one_of("validate", self.validate, (False, True))
        q = np.repeat([self.q_pos, self.q_vel, self.q_att], 3)
        r = np.concatenate([self.r_vel, self.r_att])
        vars(self).update(_q=q, _g_skew=_skew(self.gravity.vector), _r=r, _r_matrix=np.diag(r))
        for value in (self.r_vel, self.r_att, self._q, self._g_skew, self._r, self._r_matrix):
            value.setflags(write=False)

    def q_diag(self) -> np.ndarray:
        return self._q


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

    def nav(self) -> NavState:
        return NavState.exact(self.position.copy(), self.velocity.copy(),
                              quat_normalize(rotation_to_quat(self.rotation)))


def _check_cov(P: np.ndarray, tol: float, what: str) -> np.ndarray:
    P = 0.5 * (P + P.T)
    if not np.all(np.isfinite(P)):
        raise NumericalError(f"{what}: covariance has non-finite entries")
    eig_min = float(np.linalg.eigvalsh(P)[0])
    if eig_min < -tol:
        raise NumericalError(f"{what}: covariance lost positive semidefiniteness "
                             f"(min eigenvalue {eig_min:.3e})")
    return P


def _gain(S, HP):
    """Kalman gain (S^-1 H P)^T; a singular innovation covariance S raises NumericalError."""
    try:
        return np.linalg.solve(S, HP).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"innovation covariance is singular: {exc}") from None


def kalman_update(P, H, R, innovation):
    """Joseph-form linear update; returns (state correction, posterior covariance).

    H has one row per measurement (a 1-D H is one row), R is square and the
    innovation a vector, both of the measurements' size.
    """
    P = np.asarray(P, dtype=float)
    H = np.asarray(H, dtype=float).reshape(-1, len(P))
    m = len(H)
    R = np.asarray(R, dtype=float).reshape(m, m)
    y = np.asarray(innovation, dtype=float).reshape(m)
    K = _gain(H @ P @ H.T + R, H @ P)
    dx = K @ y
    IKH = (_EYE9 if len(P) == 9 else np.eye(len(P))) - K @ H
    P_post = IKH @ P @ IKH.T + K @ R @ K.T
    return dx, 0.5 * (P_post + P_post.T)


def _finish_cov(P: np.ndarray, config: FilterConfig, what: str) -> np.ndarray:
    """Symmetrize a filter's new covariance; with ``config.validate``, also check it."""
    if config.validate:
        return _check_cov(P, _PSD_TOL, what)
    return 0.5 * (P + P.T)


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
    diagonal process noise Q_k = diag(q) dt_k.

    The burst is read once as Python floats and walked in one loop.  Per
    sample it forms the spacing and the bias-corrected readings; the running
    product, with the expressions of ``running_product``; the product so far
    over its norm (``_unit``: the root of its ordered sum of squares) and
    its rotation (``rotation_entries``); position and velocity as
    ``_strapdown`` updates them, p with the velocity at the start of the
    sample; and the blocks E_k = -dt R_k [a_k]x and H_k = I - dt [w_k]x of
    F_k, 9 floats each.  No BLAS call forms the mean, so it is the same bits
    under every BLAS kernel.  A non-positive spacing raises ValueError
    naming its row's ``t``; after the loop the largest spacing warns once
    through ``_check_dt``.  A degenerate product (from a NaN reading) is
    reported in ``unpack_burst``'s order: after a later non-positive spacing
    and after the warning.

    The covariance is propagated in burst form, as preintegrated noise is
    (Forster et al., IEEE T-RO 33(1), 2017): one backward pass forms the
    suffix products Phi_k = F_M ... F_{k+1}, one 9x9 product per sample, and
    then P <- Phi_0 P Phi_0^T + sum_k Phi_k Q_k Phi_k^T, the sum as a single
    (9, 9M) @ (9M, 9) product.  It equals the per-sample recursion
    P <- F_k P F_k^T + Q_k up to rounding.  An empty burst leaves the state
    as it is and only symmetrizes P.
    """
    nav = state.nav
    rows = burst.tolist()
    if not rows:
        return EkfState(nav.copy(), _finish_cov(state.cov, config, "ekf_predict"))
    b0, b1, b2 = config.biases.accel.tolist()
    c0, c1, c2 = config.biases.gyro.tolist()
    g0, g1, g2 = config.gravity.vector.tolist()
    p0, p1, p2 = nav.position.tolist()
    v0, v1, v2 = nav.velocity.tolist()
    qw, qx, qy, qz = nav.orientation.tolist()
    t_prev = float(t_start)
    dts, E, H = [], [], []  # E_k = -dt R_k [a_k]x and H_k = I - dt [w_k]x, row-major
    try:
        for t, a0, a1, a2, w0, w1, w2 in rows:
            dt = t - t_prev
            if dt <= 0.0:
                raise ValueError(f"non-positive IMU sample spacing at t={t!r}")
            t_prev = t
            a0, a1, a2, w0, w1, w2 = a0 - b0, a1 - b1, a2 - b2, w0 - c0, w1 - c1, w2 - c2
            r00, r01, r02, r10, r11, r12, r20, r21, r22 = rotation_entries(
                _unit((qw, qx, qy, qz)))
            f0 = r00 * a0 + r01 * a1 + r02 * a2
            f1 = r10 * a0 + r11 * a1 + r12 * a2
            f2 = r20 * a0 + r21 * a1 + r22 * a2
            ndt = -dt
            E += [ndt * (r01 * a2 - r02 * a1), ndt * (r02 * a0 - r00 * a2),
                  ndt * (r00 * a1 - r01 * a0), ndt * (r11 * a2 - r12 * a1),
                  ndt * (r12 * a0 - r10 * a2), ndt * (r10 * a1 - r11 * a0),
                  ndt * (r21 * a2 - r22 * a1), ndt * (r22 * a0 - r20 * a2),
                  ndt * (r20 * a1 - r21 * a0)]
            H += [1.0, dt * w2, -(dt * w1), -(dt * w2), 1.0, dt * w0, dt * w1, -(dt * w0), 1.0]
            p0, p1, p2 = p0 + dt * v0, p1 + dt * v1, p2 + dt * v2
            v0, v1, v2 = v0 + dt * (f0 + g0), v1 + dt * (f1 + g1), v2 + dt * (f2 + g2)
            h = 0.5 * dt
            hx, hy, hz = h * w0, h * w1, h * w2
            qw, qx, qy, qz = (qw - qx * hx - qy * hy - qz * hz,
                              qw * hx + qx + qy * hz - qz * hy,
                              qw * hy - qx * hz + qy + qz * hx,
                              qw * hz + qx * hy - qy * hx + qz)
            dts.append(dt)
        orientation = _unit((qw, qx, qy, qz))
    except DegenerateQuaternionError:
        # A later non-positive spacing, and the large-spacing warning, come first.
        unpack_burst(burst, t_start, config.biases.gyro, config.biases.accel)
        raise
    dts = np.array(dts)
    _check_dt(dts.max())

    F = np.empty((len(dts), 9, 9))
    F[:] = _EYE9
    F[:, 0:3, 3:6] = dts[:, None, None] * _EYE3
    F[:, 3:6, 6:9] = np.array(E).reshape(-1, 3, 3)
    F[:, 6:9, 6:9] = np.array(H).reshape(-1, 3, 3)
    phi = [_EYE9]  # phi[j] = F_{M-1} ... F_{M-j} (0-based F): the last j samples' transition
    for Fk in F[::-1]:
        phi.append(phi[-1].dot(Fk))  # ndarray.dot: less call overhead than @ on 9x9
    # Sample k's noise reaches the burst end through phi[M-1-k]: side by side, in that order.
    B = np.concatenate(phi[:-1], axis=1)
    noise = (B * (dts[::-1, None] * config._q).ravel()) @ B.T
    P = phi[-1].dot(state.cov).dot(phi[-1].T) + noise
    return EkfState(NavState.exact(np.array([p0, p1, p2]), np.array([v0, v1, v2]),
                                   np.array(orientation)),
                    _finish_cov(P, config, "ekf_predict"))


def _readings(what: str, dvl, ahrs):
    """The DVL and AHRS readings as 3 and 4 Python floats; a non-finite one raises
    NumericalError naming ``what``."""
    d, q = np.asarray(dvl, dtype=float).tolist(), np.asarray(ahrs, dtype=float).tolist()
    if not all(map(math.isfinite, d + q)):
        stream, values = ("ahrs", ahrs) if all(map(math.isfinite, d)) else ("dvl", dvl)
        raise NumericalError(f"{what}: non-finite {stream} measurement: {values!r}")
    return d, q


def _attitude_innovation(q_est, q_meas) -> list:
    """Small-angle body-frame attitude innovation 2 * vec(q_est^-1 * q_meas), as 3 floats.

    q_est is a float array and q_meas 4 floats, taken on q_est's hemisphere: it
    is negated when the ordered float sum of their dot product is negative.
    """
    w, x, y, z = q_est.tolist()
    mw, mx, my, mz = q_meas
    if w * mw + x * mx + y * my + z * mz < 0.0:
        q_meas = [-mw, -mx, -my, -mz]
    _, *vec = quat_normalize(np.array(product_entries([w, -x, -y, -z], q_meas))).tolist()
    return [2.0 * c for c in vec]


def ekf_update(state: EkfState, dvl, ahrs, config: FilterConfig) -> EkfState:
    """Fuse a DVL velocity and an AHRS quaternion in one stacked update.

    The measurement matrix H = [0 I] selects the velocity and attitude
    errors, rows 3..8 of the error state, so the Joseph-form update of
    ``kalman_update`` is written without it: H P = P[3:], S = P[3:, 3:] + R,
    I - K H is the identity with K subtracted from columns 3..8, and, R
    being diagonal, K R K^T = (K r) K^T.  Each of these equals its product
    with H exactly, so the result is ``kalman_update(P, H, R, y)`` bit for
    bit, with the same NumericalError on a singular S.  The innovation and the
    mean correction are formed on Python floats; a non-finite reading raises
    NumericalError.
    """
    nav, P = state.nav, state.cov
    (d0, d1, d2), q = _readings("ekf_update", dvl, ahrs)
    v0, v1, v2 = nav.velocity.tolist()
    y = np.array([d0 - v0, d1 - v1, d2 - v2, *_attitude_innovation(nav.orientation, q)])
    K = _gain(P[3:, 3:] + config._r_matrix, P[3:])
    dx = K @ y
    IKH = _EYE9.copy()
    IKH[:, 3:] -= K
    P = IKH @ P @ IKH.T + (K * config._r) @ K.T
    P = 0.5 * (P + P.T)
    p0, p1, p2 = nav.position.tolist()
    c = dx.tolist()
    position = np.array([p0 + c[0], p1 + c[1], p2 + c[2]])
    velocity = np.array([v0 + c[3], v1 + c[4], v2 + c[5]])
    dq = quat_from_rotvec(dx[6:9]).tolist()
    orientation = quat_normalize(np.array(product_entries(nav.orientation.tolist(), dq)))
    # The covariance is exactly symmetric: only a validating filter checks it.
    P = _check_cov(P, _PSD_TOL, "ekf_update") if config.validate else P
    return EkfState(NavState.exact(position, velocity, orientation), P)


def _left_jacobian_so3(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    angle = _norm(theta.tolist())
    S = _skew(theta)
    if angle < 1e-8:
        return _EYE3 + 0.5 * S + S @ S / 6.0
    a2 = angle * angle
    return (
        _EYE3
        + (1.0 - math.cos(angle)) / a2 * S
        + (angle - math.sin(angle)) / (a2 * angle) * (S @ S)
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
    increments = np.concatenate([np.ones((len(dts), 1)), 0.5 * dts[:, None] * w], axis=1)
    # Chained in sample order, as the per-sample loop does: the single product
    # R0 * R(r_1 * ... * r_k) moved this filter's 100 s trajectories by 2e-12 m.
    chain = [state.rotation]
    for dR in quat_to_rotation(increments):
        chain.append(chain[-1].dot(dR))  # faster than np.dot(..., out=) into one array
    rotations = np.array(chain)
    R = rotations[:-1]
    ps, vs = _strapdown(state.position, state.velocity, R, dts, a, config.gravity.vector)

    dt = dts[:, None, None]
    F = np.empty((len(dts), 9, 9))
    F[:] = _EYE9
    F[:, 3:6, 0:3] = dt * config._g_skew
    F[:, 6:9, 3:6] = dt * _EYE3
    Ad = np.zeros((len(dts), 9, 9))
    Ad[:, 0:3, 0:3] = Ad[:, 3:6, 3:6] = Ad[:, 6:9, 6:9] = R
    Ad[:, 3:6, 0:3] = _skew(vs[:-1]) @ R
    Ad[:, 6:9, 0:3] = _skew(ps[:-1]) @ R
    qb = config.q_diag()[::-1]  # (attitude, velocity, position), each block constant
    Q = (Ad * qb) @ Ad.transpose(0, 2, 1) * dt
    P = _finish_cov(_propagate_cov(state.cov, F, Q), config, "inekf_predict")
    return InekfState(rotations[-1], vs[-1], ps[-1], P)


def _inekf_measurement(state: InekfState, d, ahrs):
    """The InEKF's innovation y and measurement rows H for DVL floats ``d`` and an
    AHRS quaternion: y = H xi to first order in the error xi (see ``inekf_update``)."""
    (d0, d1, d2), (v0, v1, v2) = d, state.velocity.tolist()
    R_meas = quat_to_rotation(ahrs)
    y_att = quat_to_rotvec(rotation_to_quat(R_meas @ state.rotation.T))
    H = _H_INEKF.copy()
    H[0:3, 0:3] = _skew(state.velocity)
    return np.array([d0 - v0, d1 - v1, d2 - v2, *y_att.tolist()]), H


def inekf_update(state: InekfState, dvl, ahrs, config: FilterConfig) -> InekfState:
    """Fuse DVL velocity and AHRS attitude in the right-invariant error frame.

    With the right-invariant error Exp(xi) = X_est * X_true^-1, the
    linearized measurement rows are [ [v]x, -I, 0 ] for the velocity
    innovation z - v_est and [ -I, 0, 0 ] for the attitude innovation
    Log(R_meas R_est^T); the correction applies as X <- Exp(-K y) * X.
    A non-finite reading raises NumericalError.
    """
    y, H = _inekf_measurement(state, _readings("inekf_update", dvl, ahrs)[0], ahrs)
    dx, P = kalman_update(state.cov, H, config._r_matrix, y)

    Rc, dv, dp = se23_exp(-dx)
    rotation = Rc @ state.rotation
    velocity = Rc @ state.velocity + dv
    position = Rc @ state.position + dp
    P = _check_cov(P, _PSD_TOL, "inekf_update") if config.validate else P  # as in ekf_update
    return InekfState(rotation, velocity, position, P)


def _run_filter(name, start, predict, update, nav_of, epochs, config, initial):
    """Run ``start``, then ``predict`` and ``update`` at each epoch, emitting ``nav_of(state)``.

    When a step raises, the epoch's readings are checked in the order DVL, AHRS,
    IMU rows: the first non-finite one raises NumericalError naming ``name``, the
    public runner, and the epoch; with none, the step's own error is raised.
    """
    epochs = list(epochs)
    if not epochs:
        raise ValueError(f"{name} needs at least one epoch")
    nav0 = initial.copy() if initial is not None else initial_nav_from_epochs(epochs)
    state = start(nav0, config)
    t_prev = epochs[0].t_prev
    points = []
    for k, epoch in enumerate(epochs):
        try:
            state = predict(state, epoch.imu_burst, config, t_prev)
            state = update(state, epoch.dvl, epoch.ahrs, config)
        except (ValueError, RuntimeError) as exc:
            rows = [("imu", row) for row in epoch.imu_burst.tolist()]
            for stream, values in [("dvl", epoch.dvl), ("ahrs", epoch.ahrs), *rows]:
                if not np.isfinite(values).all():
                    raise NumericalError(f"{name}: non-finite {stream} measurement at epoch "
                                         f"{k} (t={epoch.t!r}): {values!r}") from exc
            raise
        points.append(TrajectoryPoint(epoch.t, nav_of(state), "ok"))
        t_prev = epoch.t
    return points


def run_ekf(epochs, config: FilterConfig, initial: Optional[NavState] = None):
    """EKF over an epoch stream; returns one TrajectoryPoint per epoch."""
    return _run_filter("run_ekf", EkfState.start, ekf_predict, ekf_update,
                       lambda state: state.nav.copy(), epochs, config, initial)


def run_inekf(epochs, config: FilterConfig, initial: Optional[NavState] = None):
    """InEKF over an epoch stream; returns one TrajectoryPoint per epoch."""
    return _run_filter("run_inekf", InekfState.start, inekf_predict, inekf_update,
                       InekfState.nav, epochs, config, initial)
