"""Filter baselines over the same epoch streams: error-state EKF and InEKF.

Both filters propagate their mean with the strapdown expressions of
``preintegrate_burst`` and fuse the DVL velocity and AHRS attitude at every
epoch with Joseph-form covariance updates.

The EKF tracks a 9-dim error state (position, velocity, body-frame attitude
angle).  The InEKF keeps the state as a matrix Lie group element (rotation,
velocity, position) with a right-invariant error, its rotation held as a unit
quaternion as ``NavState`` holds it; its deterministic error propagation is
state-independent, which makes the group-affine invariance checks exact up to
floating point.

Prediction works on a whole IMU burst at a time.  Both filters read the
burst once as Python floats, check its spacings in one pass (``_spacings``)
and walk it in one strapdown loop over a quaternion chain that forms each
sample's attitude, velocity and position: the InEKF's mean is the EKF's
started at its orientation, bit for bit.  No BLAS call forms either
predicted mean, which is therefore the same bits under every BLAS kernel
(OpenBLAS picks one per CPU at run time).  The EKF's loop also forms the two
state-dependent blocks of its error transition F_k, and it propagates its
covariance in burst form, with BLAS products: one backward pass of suffix
products F_M ... F_{k+1}, one 9x9 product per sample, and one product for the
whole noise sum.  The InEKF's F_k = I + dt_k A do not depend on the state and
A^3 = 0, so its covariance needs no per-sample matrix: the burst's transition
is I + T A + T2 A^2, and its noise sum is formed from one 8x8 moment product
(see ``inekf_predict``).  The EKF update uses that its measurements select
error-state rows 3..8 and forms no product with H.  Each ``FilterConfig``
builds its matrices once: on 3- to 9-element arrays a numpy call costs more
than its arithmetic.

For the same reason both updates run their vector algebra on Python floats,
with math's cos and sin (see ``quat``): everything but the gain solve, K y
and the Joseph products.  In the EKF that is the innovation with its
hemisphere test and normalized Hamilton product, and the mean correction,
whose rotation vector goes through ``from_rotvec_entries`` and whose product
is normalized over ``_checked_norm``; the EKF update equals its array form
bit for bit.  In the InEKF it is the attitude innovation (the rotation vector
of q_meas (x) conj(q), normalized once), H's [v]x block and the correction
X <- Exp(-dx) X (``_se23_exp_entries``, which ``se23_exp`` wraps), so its mean
forms no product on BLAS; ``kalman_update`` is called through its module
attribute.  Both updates refuse a non-finite DVL or AHRS reading with
NumericalError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NumericalError, _finite3, _one_of, _real
from .preintegration import (
    GravityModel,
    ImuBiases,
    NavState,
    _check_dt,
)
from .preintegration import preintegrate_burst  # noqa: F401  kept as a module attribute: perfbench times it
from .quat import (
    _checked_norm,
    _norm,
    _unit,
    from_rotvec_entries,
    product_entries,
    rotation_entries,
    rotvec_entries,
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
_EYE3_ENTRIES = _EYE3.ravel().tolist()
_EYE9 = np.eye(9)
# The InEKF's measurement rows without their one state-dependent block, [v]x at H[0:3, 0:3].
_H_INEKF = np.zeros((6, 9))
_H_INEKF[0:3, 3:6] = _H_INEKF[3:6, 0:3] = -_EYE3
_H_INEKF.setflags(write=False)
_PSD_TOL = 1e-9  # the most negative covariance eigenvalue a validating filter accepts


def _skew(v) -> np.ndarray:
    """[v]x of a 3-vector, its entries formed on Python floats."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([0.0, -z, y, z, 0.0, -x, -y, x, 0.0]).reshape(3, 3)


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
        # The InEKF's error dynamics on (attitude, velocity, position): F_k = I + dt_k A,
        # with A^2 = [g]x at rows 6..8, columns 0..2, and A^3 = 0.
        A, A2 = np.zeros((9, 9)), np.zeros((9, 9))
        A[3:6, 0:3] = A2[6:9, 0:3] = _skew(self.gravity.vector)
        A[6:9, 3:6] = _EYE3
        vars(self).update(_q=q, _A=A, _A2=A2, _r=r, _r_matrix=np.diag(r))
        for value in (self.r_vel, self.r_att, self._q, self._A, self._A2, self._r,
                      self._r_matrix):
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
    """Group element (orientation, velocity, position) plus 9x9 right-invariant covariance.

    The rotation is held as a unit quaternion, as ``NavState`` holds it; each
    update leaves it on the w >= 0 hemisphere.  The error ordering is
    (attitude, velocity, position).
    """

    orientation: np.ndarray
    velocity: np.ndarray
    position: np.ndarray
    cov: np.ndarray

    @classmethod
    def start(cls, nav: NavState, config: FilterConfig) -> "InekfState":
        return cls(nav.orientation.copy(), nav.velocity.copy(), nav.position.copy(),
                   config.p0_scale * np.eye(9))

    def nav(self) -> NavState:
        return NavState.exact(self.position.copy(), self.velocity.copy(), self.orientation.copy())


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
    HP = H.dot(P)  # ndarray.dot: less call overhead than @ on arrays this small
    K = _gain(HP.dot(H.T) + R, HP)
    dx = K.dot(y)
    IKH = (_EYE9 if len(P) == 9 else np.eye(len(P))) - K.dot(H)
    P_post = IKH.dot(P).dot(IKH.T) + K.dot(R).dot(K.T)
    return dx, 0.5 * (P_post + P_post.T)


def _finish_cov(P: np.ndarray, config: FilterConfig, what: str) -> np.ndarray:
    """Symmetrize a filter's new covariance; with ``config.validate``, also check it."""
    if config.validate:
        return _check_cov(P, _PSD_TOL, what)
    return 0.5 * (P + P.T)


def _spacings(rows, t_start) -> tuple:
    """The spacings of a burst's rows (lists of 7 floats), the first measured from
    ``t_start``, as a list and as an array, checked in ``unpack_burst``'s order: a
    non-positive one raises ValueError naming its row's ``t``, then the largest
    (NaN if any is NaN) warns once through ``_check_dt``, attributed to the
    predict's caller."""
    dts, t_prev = [], float(t_start)
    for row in rows:
        t = row[0]
        dt = t - t_prev
        if dt <= 0.0:
            raise ValueError(f"non-positive IMU sample spacing at t={t!r}")
        dts.append(dt)
        t_prev = t
    array = np.array(dts)
    _check_dt(array.max(), stacklevel=4)
    return dts, array


def ekf_predict(state: EkfState, burst, config: FilterConfig, t_start: float) -> EkfState:
    """Propagate mean and covariance through an IMU burst.

    The mean follows ``preintegrate_burst``: position, velocity and
    orientation are each updated from the state at the start of the sample
    interval.  The error transition of sample k, on (dp, dv, dtheta), is
    F_k = [[I, dt I, 0], [0, I, -dt R [a]x], [0, 0, I - dt [w]x]], with
    diagonal process noise Q_k = diag(q) dt_k.

    The burst is read once as Python floats.  ``_spacings`` forms and checks
    its spacings first: a non-positive one raises ValueError naming its row's
    ``t``, and the largest warns once through ``_check_dt``.  One loop then
    forms per sample the bias-corrected readings; the product so far over its
    norm (``_unit``: the root of its ordered sum of squares) and its rotation
    (``rotation_entries``); position and velocity as ``preintegrate_burst``
    updates them, p with the velocity at the start of the sample; the blocks
    E_k = -dt R_k [a_k]x and H_k = I - dt [w_k]x of F_k, 9 floats each; and
    the running product by the increment (1, dt/2 w) (``product_entries``, as
    ``running_product`` steps).  No BLAS call forms the mean, so it is the
    same bits under every BLAS kernel.  A degenerate product (from a NaN
    reading) raises DegenerateQuaternionError after every spacing check and
    the warning, in ``unpack_burst``'s order.

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
    dts, dt_array = _spacings(rows, t_start)
    E, H = [], []  # E_k = -dt R_k [a_k]x and H_k = I - dt [w_k]x, row-major
    for dt, (_, a0, a1, a2, w0, w1, w2) in zip(dts, rows):
        a0, a1, a2, w0, w1, w2 = a0 - b0, a1 - b1, a2 - b2, w0 - c0, w1 - c1, w2 - c2
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = rotation_entries(_unit((qw, qx, qy, qz)))
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
        qw, qx, qy, qz = product_entries((qw, qx, qy, qz), (1.0, h * w0, h * w1, h * w2))
    orientation = _unit((qw, qx, qy, qz))

    F = np.empty((len(dts), 9, 9))
    F[:] = _EYE9
    F[:, 0:3, 3:6] = dt_array[:, None, None] * _EYE3
    F[:, 3:6, 6:9] = np.array(E).reshape(-1, 3, 3)
    F[:, 6:9, 6:9] = np.array(H).reshape(-1, 3, 3)
    phi = [_EYE9]  # phi[j] = F_{M-1} ... F_{M-j} (0-based F): the last j samples' transition
    for Fk in F[::-1]:
        phi.append(phi[-1].dot(Fk))  # ndarray.dot: less call overhead than @ on 9x9
    # Sample k's noise reaches the burst end through phi[M-1-k]: side by side, in that order.
    B = np.concatenate(phi[:-1], axis=1)
    noise = (B * (dt_array[::-1, None] * config._q).ravel()) @ B.T
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

    q_est and q_meas are 4 floats each, q_meas taken on q_est's hemisphere: it
    is negated when the ordered float sum of their dot product is negative.  The
    product is normalized on floats over ``_checked_norm``, refused as
    ``quat_normalize`` refuses it.
    """
    w, x, y, z = q_est
    mw, mx, my, mz = q_meas
    if w * mw + x * mx + y * my + z * mz < 0.0:
        q_meas = [-mw, -mx, -my, -mz]
    p = product_entries([w, -x, -y, -z], q_meas)
    n = _checked_norm(p)
    return [2.0 * (c / n) for c in p[1:]]


def ekf_update(state: EkfState, dvl, ahrs, config: FilterConfig) -> EkfState:
    """Fuse a DVL velocity and an AHRS quaternion in one stacked update.

    The measurement matrix H = [0 I] selects the velocity and attitude
    errors, rows 3..8 of the error state, so the Joseph-form update of
    ``kalman_update`` is written without it: H P = P[3:], S = P[3:, 3:] + R,
    I - K H is the identity with K subtracted from columns 3..8, and, R
    being diagonal, K R K^T = (K r) K^T.  Each of these equals its product
    with H exactly, so the result is ``kalman_update(P, H, R, y)`` bit for
    bit, with the same NumericalError on a singular S.  The innovation
    (``_attitude_innovation``) and the mean correction are formed on Python
    floats, the correction's rotation by ``from_rotvec_entries`` and its
    product normalized over ``_checked_norm``: only the gain solve, K y and
    the Joseph products are numpy calls.  A non-finite reading raises
    NumericalError.
    """
    nav, P = state.nav, state.cov
    (d0, d1, d2), q_meas = _readings("ekf_update", dvl, ahrs)
    q_est = nav.orientation.tolist()
    v0, v1, v2 = nav.velocity.tolist()
    y = np.array([d0 - v0, d1 - v1, d2 - v2, *_attitude_innovation(q_est, q_meas)])
    K = _gain(P[3:, 3:] + config._r_matrix, P[3:])
    dx = K.dot(y)  # ndarray.dot: less call overhead than @, the same bits
    IKH = _EYE9.copy()
    IKH[:, 3:] -= K
    P = IKH.dot(P).dot(IKH.T) + (K * config._r).dot(K.T)
    P = 0.5 * (P + P.T)
    p0, p1, p2 = nav.position.tolist()
    c0, c1, c2, c3, c4, c5, *theta = dx.tolist()
    position = np.array([p0 + c0, p1 + c1, p2 + c2])
    velocity = np.array([v0 + c3, v1 + c4, v2 + c5])
    q = product_entries(q_est, from_rotvec_entries(theta))
    n = _checked_norm(q)
    orientation = np.array([c / n for c in q])
    # The covariance is exactly symmetric: only a validating filter checks it.
    P = _check_cov(P, _PSD_TOL, "ekf_update") if config.validate else P
    return EkfState(NavState.exact(position, velocity, orientation), P)


def _apply(m, v) -> list:
    """The 3x3 matrix ``m`` (9 floats, row-major) times the 3 floats ``v``, on floats,
    each entry summed in index order."""
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = m
    v0, v1, v2 = v
    return [m00 * v0 + m01 * v1 + m02 * v2, m10 * v0 + m11 * v1 + m12 * v2,
            m20 * v0 + m21 * v1 + m22 * v2]


def _se23_exp_entries(xi) -> tuple:
    """``se23_exp`` of 9 Python floats, on floats: the unit quaternion q_c of theta =
    xi[0:3] (``from_rotvec_entries``) and J dv, J dp as 3 floats each.  J = I + c1 S +
    c2 S S is the SO(3) left Jacobian, S = [theta]x, with S S = theta theta^T - |theta|^2 I
    (diagonal -(y^2 + z^2), ...) and the series c1, c2 = 1/2, 1/6 below an angle of 1e-8."""
    x, y, z = theta = xi[0:3]
    q = from_rotvec_entries(theta)  # refuses a non-finite theta first
    angle = _norm(theta)
    if angle < 1e-8:
        c1, c2 = 0.5, 1.0 / 6.0
    else:
        a2 = angle * angle
        c1, c2 = (1.0 - math.cos(angle)) / a2, (angle - math.sin(angle)) / (a2 * angle)
    s = (0.0, -z, y, z, 0.0, -x, -y, x, 0.0)
    xy, xz, yz = x * y, x * z, y * z
    ss = (-(y * y + z * z), xy, xz, xy, -(x * x + z * z), yz, xz, yz, -(x * x + y * y))
    J = [(e + c1 * a) + c2 * b for e, a, b in zip(_EYE3_ENTRIES, s, ss)]
    return q, _apply(J, xi[3:6]), _apply(J, xi[6:9])


def se23_exp(xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponential of a (attitude, velocity, position) tangent vector.

    Returns the group element blocks (rotation, velocity offset, position
    offset) using the closed-form SO(3) exponential and left Jacobian: the
    arrays of ``_se23_exp_entries``, its quaternion as ``rotation_entries``.
    """
    q, dv, dp = _se23_exp_entries(np.asarray(xi, dtype=float).tolist())
    return np.array(rotation_entries(q)).reshape(3, 3), np.array(dv), np.array(dp)


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

    The burst is read once as Python floats, its spacings checked by
    ``_spacings`` with ``ekf_predict``'s refusals, warning and error order.
    The mean is ``ekf_predict``'s loop started at the state's orientation, and
    equals its mean bit for bit: no BLAS call forms it.

    The covariance takes closed forms (Forster et al., IEEE T-RO 33(1), 2017,
    propagate the noise of a burst in the same way).  A^3 = 0, so the F_k
    commute and the samples after k carry the error by F_M ... F_{k+1} =
    I + a_k A + b_k A^2, with a_k the sum of their spacings and b_k the sum of
    their pairwise products; the whole burst by Phi = I + T A + T2 A^2
    (``FilterConfig``'s A and A^2).  Each block of Qb is a multiple of I, so R
    drops out of the noise, and with u_k = a_k g + v_k and w_k = b_k g +
    a_k v_k + p_k (v_k, p_k at the start of sample k) the noise sum
    N = sum_k (F_M ... F_{k+1}) Q_k (F_M ... F_{k+1})^T has the blocks
    N_thth = q_att S I, N_thv = -q_att [sum dt u]x, N_thp = -q_att [sum dt w]x,
    N_vv = q_att (tr U - U) + q_vel S I,
    N_vp = q_att (tr X - X) + q_vel (sum dt a) I
    and N_pp = q_att (tr W - W) + (q_vel sum dt a^2 + q_pos S) I, where S is
    the sum of dt, U = sum dt u u^T, X = sum dt w u^T and W = sum dt w w^T.
    A backward pass over the spacings gives a_k and b_k, the strapdown loop
    appends each sample's (u_k, w_k, a_k, 1) to an (M, 8) table x, one BLAS
    product gives every sum as sum_k dt_k x_k x_k^T, N's entries are formed on
    floats, and P <- Phi P Phi^T + N.
    """
    rows = burst.tolist()
    if not rows:
        return InekfState(state.orientation.copy(), state.velocity.copy(), state.position.copy(),
                          _finish_cov(state.cov, config, "inekf_predict"))
    b0, b1, b2 = config.biases.accel.tolist()
    c0, c1, c2 = config.biases.gyro.tolist()
    g0, g1, g2 = config.gravity.vector.tolist()
    p0, p1, p2 = state.position.tolist()
    v0, v1, v2 = state.velocity.tolist()
    dts, dt_array = _spacings(rows, t_start)
    qw, qx, qy, qz = state.orientation.tolist()
    # a_k, b_k: the first and second elementary symmetric sums of the spacings
    # after sample k, so that F_M ... F_{k+1} = I + a_k A + b_k A^2 (A^3 = 0).
    a = b = 0.0
    after = []
    for dt in reversed(dts):
        after.append((a, b))
        a, b = a + dt, b + dt * a
    after.reverse()
    moments = []  # per sample (u_k, w_k, a_k, 1), from v and p at its start
    for dt, (_, a0, a1, a2, w0, w1, w2), (ak, bk) in zip(dts, rows, after):
        moments += (ak * g0 + v0, ak * g1 + v1, ak * g2 + v2,
                    bk * g0 + ak * v0 + p0, bk * g1 + ak * v1 + p1, bk * g2 + ak * v2 + p2,
                    ak, 1.0)
        a0, a1, a2, w0, w1, w2 = a0 - b0, a1 - b1, a2 - b2, w0 - c0, w1 - c1, w2 - c2
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = rotation_entries(_unit((qw, qx, qy, qz)))
        f0 = r00 * a0 + r01 * a1 + r02 * a2
        f1 = r10 * a0 + r11 * a1 + r12 * a2
        f2 = r20 * a0 + r21 * a1 + r22 * a2
        p0, p1, p2 = p0 + dt * v0, p1 + dt * v1, p2 + dt * v2
        v0, v1, v2 = v0 + dt * (f0 + g0), v1 + dt * (f1 + g1), v2 + dt * (f2 + g2)
        h = 0.5 * dt
        qw, qx, qy, qz = product_entries((qw, qx, qy, qz), (1.0, h * w0, h * w1, h * w2))
    orientation = np.array(_unit((qw, qx, qy, qz)))

    X = np.array(moments).reshape(-1, 8)
    G = (X * dt_array[:, None]).T.dot(X).tolist()  # sum_k dt_k x_k x_k^T
    qa, qv, S = config.q_att, config.q_vel, G[7][7]
    u0, u1, u2, w0, w1, w2 = [qa * row[7] for row in G[:6]]  # q_att sum_k dt_k (u_k, w_k)
    vv0, vv1, vv2 = _moment_block(G[0:3], 0, qa, qv * S)
    vp0, vp1, vp2 = _moment_block(G[3:6], 0, qa, qv * G[6][7])
    pv0, pv1, pv2 = zip(vp0, vp1, vp2)
    pp0, pp1, pp2 = _moment_block(G[3:6], 3, qa, qv * G[6][6] + config.q_pos * S)
    qS = qa * S
    N = np.array([
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
    Phi = _EYE9 + a * config._A + b * config._A2  # a, b: T and T2 of the whole burst
    P = _finish_cov(Phi.dot(state.cov).dot(Phi.T) + N, config, "inekf_predict")
    return InekfState(orientation, np.array([v0, v1, v2]), np.array([p0, p1, p2]), P)


def _moment_block(rows, c, q, extra) -> tuple:
    """q (tr Y I - Y) + extra I as three rows of floats, Y the 3x3 block at columns
    c..c+2 of the three lists ``rows``; tr Y - Y_ii is the sum of the other two."""
    (y00, y01, y02), (y10, y11, y12), (y20, y21, y22) = [row[c:c + 3] for row in rows]
    return ((q * (y11 + y22) + extra, -q * y01, -q * y02),
            (-q * y10, q * (y00 + y22) + extra, -q * y12),
            (-q * y20, -q * y21, q * (y00 + y11) + extra))


def _inekf_measurement(state: InekfState, d, q):
    """The InEKF's innovation y and measurement rows H for DVL floats ``d`` and AHRS
    floats ``q``: y = H xi to first order in the error xi (see ``inekf_update``).
    Log(R_meas R^T) is ``rotvec_entries`` of q (x) conj(orientation), which normalizes
    the product once and refuses it as ``quat_normalize`` does (an AHRS reading of
    zero or overflowing norm)."""
    (d0, d1, d2), (v0, v1, v2) = d, state.velocity.tolist()
    w, x, y, z = state.orientation.tolist()
    y_att = rotvec_entries(product_entries(q, (w, -x, -y, -z)))
    H = _H_INEKF.copy()  # [v]x at H[0:3, 0:3], its zero diagonal already there
    H[0, 1], H[0, 2], H[1, 0], H[1, 2], H[2, 0], H[2, 1] = -v2, v1, v2, -v0, -v1, v0
    return np.array([d0 - v0, d1 - v1, d2 - v2, *y_att]), H


def inekf_update(state: InekfState, dvl, ahrs, config: FilterConfig) -> InekfState:
    """Fuse DVL velocity and AHRS attitude in the right-invariant error frame.

    With the right-invariant error Exp(xi) = X_est * X_true^-1, the
    linearized measurement rows are [ [v]x, -I, 0 ] for the velocity
    innovation z - v_est and [ -I, 0, 0 ] for the attitude innovation
    Log(R_meas R_est^T); the correction applies as X <- Exp(-K y) * X, on
    floats: q <- q_c (x) q over ``_checked_norm``, v <- R_c v + J dv and
    p <- R_c p + J dp.  A non-finite reading raises NumericalError.
    """
    y, H = _inekf_measurement(state, *_readings("inekf_update", dvl, ahrs))
    dx, P = kalman_update(state.cov, H, config._r_matrix, y)

    qc, dv, dp = _se23_exp_entries((-dx).tolist())
    q = product_entries(qc, state.orientation.tolist())
    n = _checked_norm(q)
    n = -n if q[0] < 0.0 else n  # the orientation kept on the w >= 0 hemisphere
    Rc = rotation_entries(qc)
    velocity = [a + b for a, b in zip(_apply(Rc, state.velocity.tolist()), dv)]
    position = [a + b for a, b in zip(_apply(Rc, state.position.tolist()), dp)]
    P = _check_cov(P, _PSD_TOL, "inekf_update") if config.validate else P  # as in ekf_update
    return InekfState(np.array([c / n for c in q]), np.array(velocity), np.array(position), P)


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
