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
reads the burst as floats in two such loops around its chain of 3x3 BLAS
rotation products, so its mean is its array form's bit for bit.  Its F_k =
I + dt_k A do not depend on the state and A^3 = 0, so its covariance needs no
per-sample matrix: the burst's transition is I + T A + T2 A^2, and its noise
sum is formed from one 8x8 moment product (see ``inekf_predict``).  The EKF
update uses that its measurements select error-state rows 3..8 and forms no
product with H.  Each ``FilterConfig`` builds its matrices once: on 3- to
9-element arrays a numpy call costs more than its arithmetic.

For the same reason both updates run their vector algebra on Python floats,
with math's cos and sin (see ``quat``).  In the EKF that is everything but
the gain solve, K y and the Joseph products: the innovation with its
hemisphere test and normalized Hamilton product, and the mean correction,
whose rotation vector goes through ``from_rotvec_entries`` and whose product
is normalized over ``_checked_norm``.  In the InEKF it is the measurement's
rotation, Shepperd's method and the rotation vector through their float forms
in ``quat``, H's [v]x block, and ``se23_exp``'s rotation (from the same
``from_rotvec_entries``) and left Jacobian; the product R_meas R^T, the
Joseph update (``kalman_update``, called through its module attribute) and the
group product stay on numpy, and ``InekfState.nav`` reads its quaternion out
on floats.  Elementwise float arithmetic rounds as numpy's does, and norms are
summed in index order (``quat``), so each update's result equals its array
form bit for bit (the InEKF amplifies a last-bit change about 10^4-fold over a
run).  Both updates refuse a non-finite DVL or AHRS reading with
NumericalError.
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
    unpack_burst,
)
from .preintegration import preintegrate_burst  # noqa: F401  kept as a module attribute: perfbench times it
from .quat import (
    _checked_norm,
    _norm,
    _unit,
    from_rotvec_entries,
    product_entries,
    quat_to_rotation,
    rotation_entries,
    rotvec_entries,
    shepperd_entries,
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
        # Normalized again after shepperd_entries: dropping it changes last bits.
        q = _unit(shepperd_entries(self.rotation.ravel().tolist()))
        return NavState.exact(self.position.copy(), self.velocity.copy(), np.array(q))


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


def ekf_predict(state: EkfState, burst, config: FilterConfig, t_start: float) -> EkfState:
    """Propagate mean and covariance through an IMU burst.

    The mean follows ``preintegrate_burst``: position, velocity and
    orientation are each updated from the state at the start of the sample
    interval.  The error transition of sample k, on (dp, dv, dtheta), is
    F_k = [[I, dt I, 0], [0, I, -dt R [a]x], [0, 0, I - dt [w]x]], with
    diagonal process noise Q_k = diag(q) dt_k.

    The burst is read once as Python floats and walked in one loop.  Per
    sample it forms the spacing and the bias-corrected readings; the running
    product by the increment (1, dt/2 w) (``product_entries``, as
    ``running_product`` steps); the product so far over its norm (``_unit``:
    the root of its ordered sum of squares) and its rotation
    (``rotation_entries``); position and velocity as ``preintegrate_burst``
    updates them, p with the velocity at the start of the sample; and the
    blocks E_k = -dt R_k [a_k]x and H_k = I - dt [w_k]x of F_k, 9 floats
    each.  No BLAS call forms the mean, so it is the same bits under every
    BLAS kernel.  A non-positive spacing raises ValueError
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
            qw, qx, qy, qz = product_entries((qw, qx, qy, qz), (1.0, h * w0, h * w1, h * w2))
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


def _left_jacobian_so3(x, y, z, angle) -> np.ndarray:
    """The SO(3) left Jacobian of theta = (x, y, z), given as floats with its norm
    ``angle``: I + c1 S + c2 S S, S = [theta]x, its entries formed on floats around
    the one BLAS product S S (as ``_EYE3 + c1 * S + c2 * (S @ S)`` rounds them)."""
    s = [0.0, -z, y, z, 0.0, -x, -y, x, 0.0]
    S = np.array(s).reshape(3, 3)
    SS = (S @ S).ravel().tolist()
    if angle < 1e-8:
        J = [(e + 0.5 * a) + b / 6.0 for e, a, b in zip(_EYE3_ENTRIES, s, SS)]
    else:
        a2 = angle * angle
        c1, c2 = (1.0 - math.cos(angle)) / a2, (angle - math.sin(angle)) / (a2 * angle)
        J = [(e + c1 * a) + c2 * b for e, a, b in zip(_EYE3_ENTRIES, s, SS)]
    return np.array(J).reshape(3, 3)


def se23_exp(xi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponential of a (attitude, velocity, position) tangent vector.

    Returns the group element blocks (rotation, velocity offset, position
    offset) using the closed-form SO(3) exponential and left Jacobian.  The
    rotation is ``quat_to_rotation(quat_from_rotvec(theta))`` formed on floats
    (``rotation_entries`` of the ``_unit`` of ``from_rotvec_entries``), and the
    left Jacobian J is formed on floats; J dv and J dp are BLAS products.
    """
    xi = np.asarray(xi, dtype=float)
    x, y, z = xi[0:3].tolist()
    R = np.array(rotation_entries(_unit(from_rotvec_entries((x, y, z))))).reshape(3, 3)
    J = _left_jacobian_so3(x, y, z, _norm((x, y, z)))
    return R, J @ xi[3:6], J @ xi[6:9]


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

    The burst is read once as Python floats.  A first loop forms the spacings,
    with ``ekf_predict``'s refusals, warning and error order, the readings and
    each increment's rotation (``rotation_entries`` of its ``_unit``), chained
    on by 3x3 BLAS products in sample order; a second forms R_k a_k in index
    order and advances p with the velocity at the start of the sample, then v.
    So the mean equals the array form bit for bit.

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
    The second loop appends each sample's (u_k, w_k, a_k, 1) to an (M, 8)
    table x, one BLAS product gives every sum as sum_k dt_k x_k x_k^T, N's
    entries are formed on floats, and P <- Phi P Phi^T + N.
    """
    rows = burst.tolist()
    if not rows:
        return InekfState(state.rotation.copy(), state.velocity.copy(), state.position.copy(),
                          _finish_cov(state.cov, config, "inekf_predict"))
    b0, b1, b2 = config.biases.accel.tolist()
    c0, c1, c2 = config.biases.gyro.tolist()
    t_prev = float(t_start)
    dts, accel, increments = [], [], []
    try:
        for t, a0, a1, a2, w0, w1, w2 in rows:
            dt = t - t_prev
            if dt <= 0.0:
                raise ValueError(f"non-positive IMU sample spacing at t={t!r}")
            t_prev = t
            h = 0.5 * dt
            increments += rotation_entries(_unit((1.0, h * (w0 - c0), h * (w1 - c1),
                                                  h * (w2 - c2))))
            accel.append((a0 - b0, a1 - b1, a2 - b2))
            dts.append(dt)
    except DegenerateQuaternionError:
        # A later non-positive spacing, and the large-spacing warning, come first.
        unpack_burst(burst, t_start, config.biases.gyro, config.biases.accel)
        raise
    # Chained in sample order: the single product R0 * R(r_1 * ... * r_k)
    # moved this filter's 100 s trajectories by 2e-12 m.
    chain = [state.rotation]
    for dR in np.array(increments).reshape(-1, 3, 3):
        chain.append(chain[-1].dot(dR))
    # a_k, b_k: the first and second elementary symmetric sums of the spacings
    # after sample k, so that F_M ... F_{k+1} = I + a_k A + b_k A^2 (A^3 = 0).
    a = b = 0.0
    after = []
    for dt in reversed(dts):
        after.append((a, b))
        a, b = a + dt, b + dt * a
    after.reverse()
    g0, g1, g2 = config.gravity.vector.tolist()
    p0, p1, p2 = state.position.tolist()
    v0, v1, v2 = state.velocity.tolist()
    moments = []  # per sample (u_k, w_k, a_k, 1), from v and p at its start
    for dt, (a0, a1, a2), (r00, r01, r02, r10, r11, r12, r20, r21, r22), (ak, bk) in zip(
            dts, accel, np.array(chain[:-1]).reshape(-1, 9).tolist(), after):
        moments += (ak * g0 + v0, ak * g1 + v1, ak * g2 + v2,
                    bk * g0 + ak * v0 + p0, bk * g1 + ak * v1 + p1, bk * g2 + ak * v2 + p2,
                    ak, 1.0)
        f0 = r00 * a0 + r01 * a1 + r02 * a2
        f1 = r10 * a0 + r11 * a1 + r12 * a2
        f2 = r20 * a0 + r21 * a1 + r22 * a2
        p0, p1, p2 = p0 + dt * v0, p1 + dt * v1, p2 + dt * v2
        v0, v1, v2 = v0 + dt * (f0 + g0), v1 + dt * (f1 + g1), v2 + dt * (f2 + g2)
    dts = np.array(dts)
    _check_dt(dts.max())

    X = np.array(moments).reshape(-1, 8)
    G = (X * dts[:, None]).T.dot(X).tolist()  # sum_k dt_k x_k x_k^T
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
    return InekfState(chain[-1], np.array([v0, v1, v2]), np.array([p0, p1, p2]), P)


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
    R_meas is ``quat_to_rotation(q)`` on floats, with its refusal of a zero or
    overflowing norm, and Log(R_meas R^T) is ``rotvec_entries`` of
    ``shepperd_entries``: its quaternion is normalized in each, twice as in the
    array form, so the InEKF keeps its bits."""
    (d0, d1, d2), (v0, v1, v2) = d, state.velocity.tolist()
    norm = _checked_norm(q)
    R_meas = np.array(rotation_entries([c / norm for c in q])).reshape(3, 3)
    y_att = rotvec_entries(shepperd_entries((R_meas @ state.rotation.T).ravel().tolist()))
    H = _H_INEKF.copy()  # [v]x at H[0:3, 0:3], its zero diagonal already there
    H[0, 1], H[0, 2], H[1, 0], H[1, 2], H[2, 0], H[2, 1] = -v2, v1, v2, -v0, -v1, v0
    return np.array([d0 - v0, d1 - v1, d2 - v2, *y_att]), H


def inekf_update(state: InekfState, dvl, ahrs, config: FilterConfig) -> InekfState:
    """Fuse DVL velocity and AHRS attitude in the right-invariant error frame.

    With the right-invariant error Exp(xi) = X_est * X_true^-1, the
    linearized measurement rows are [ [v]x, -I, 0 ] for the velocity
    innovation z - v_est and [ -I, 0, 0 ] for the attitude innovation
    Log(R_meas R_est^T); the correction applies as X <- Exp(-K y) * X.
    A non-finite reading raises NumericalError.
    """
    y, H = _inekf_measurement(state, *_readings("inekf_update", dvl, ahrs))
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
