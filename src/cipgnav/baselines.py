"""Filter baselines over the same epoch streams: error-state EKF and InEKF.

Both filters propagate their mean with the strapdown expressions of
``preintegrate_burst`` and fuse the DVL velocity and AHRS attitude at every
epoch with Joseph-form covariance updates.

Both order their 9-dim error (attitude, velocity, position).  The EKF's
attitude error is a body-frame angle.  The InEKF keeps the state as a matrix
Lie group element (rotation, velocity, position) with a right-invariant error,
its rotation held as a unit quaternion as ``NavState`` holds it; its
deterministic error propagation is state-independent, which makes the
group-affine invariance checks exact up to floating point.

Both predicts work on a whole IMU burst at a time, through one loop and one
propagation function.  ``_strapdown`` reads the burst once as Python floats,
checks its spacings (``_spacings``) and walks it in one strapdown loop over a
quaternion chain, each step written out without a call, so the InEKF's mean is
the EKF's started at its orientation, bit for bit, and no BLAS call forms
either mean (OpenBLAS picks its kernel per CPU at run time).  The loop also
forms one moment row per sample.  ``_propagate`` then forms Phi P Phi^T + N on
the error (attitude, velocity, position) in the navigation frame, Phi = [[I, 0,
0], [-[U]x, I, 0], [-[W]x, T I, I]] and N one per-config linear map of the 8x8
moment product of the rows: the InEKF's U = -T g and W = -T2 g do not depend
on the state, the EKF's are sums of specific force and its body-frame attitude
error goes in and out through the maps T(R0) and T(R1)^T, T(R) = diag(R, I, I)
(see ``ekf_predict``).  Each ``FilterConfig`` builds its matrices once: on 3- to
9-element arrays a numpy call costs more than its arithmetic.

Both updates are one Joseph-form update, ``kalman_update``, called through its
module attribute, with the measurement rows of the DVL velocity and the AHRS
attitude: the EKF's H = [[0, I, 0], [I, 0, 0]], the InEKF's [[[v]x, -I, 0],
[-I, 0, 0]].  Around it each runs its vector algebra on Python floats, with
math's cos and sin (see ``quat``).  In the EKF that is the innovation with its
hemisphere test and normalized Hamilton product, and the mean correction,
whose rotation vector goes through ``from_rotvec_entries`` and whose product
is normalized over ``_checked_norm``.  In the InEKF it is the attitude
innovation (the rotation vector of q_meas (x) conj(q), normalized once), H's
[v]x block and the correction X <- Exp(-dx) X (``_se23_exp_entries``).  So
neither mean forms a product on BLAS.  Both updates refuse a non-finite DVL
or AHRS reading with NumericalError.
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
    _NORM_EPS,
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
]


_EYE3_ENTRIES = np.eye(3).ravel().tolist()
_EYE9 = np.eye(9)
# The flat indices of the entries of Phi that ``_propagate`` sets: the off-diagonal
# entries of -[U]x and of -[W]x, row by row, then those of T I.
_PHI_ENTRIES = np.ravel_multi_index(([3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 6, 7, 8],
                                     [1, 2, 0, 2, 0, 1, 1, 2, 0, 2, 0, 1, 3, 4, 5]), (9, 9))
# T(R) = diag(R, I, I), which maps the EKF's error (dtheta_body, dv, dp) to
# (dtheta_nav, dv, dp), twice: ``ekf_predict`` puts R0 and R1 at _FRAME_ROTATIONS.
_FRAME_MAPS = np.zeros((2, 9, 9))
_FRAME_MAPS[:, 3:9, 3:9] = np.eye(6)
_FRAME_MAPS.setflags(write=False)
_FRAME_ROTATIONS = np.arange(_FRAME_MAPS.size).reshape(_FRAME_MAPS.shape)[:, 0:3, 0:3].ravel()
# The measurement rows of the DVL velocity and the AHRS attitude: the EKF's, and the
# InEKF's without their one state-dependent block, [v]x at H[0:3, 0:3].
_H_EKF, _H_INEKF = np.zeros((2, 6, 9))
_H_EKF[0:3, 3:6] = _H_EKF[3:6, 0:3] = np.eye(3)
_H_INEKF[0:3, 3:6] = _H_INEKF[3:6, 0:3] = -np.eye(3)
_H_EKF.setflags(write=False)
_H_INEKF.setflags(write=False)
# B(x) = [[I, 0, 0], [[x_u]x, I, 0], [[x_w]x, a I, I]], which carries a sample's noise
# to the burst end, is linear in its moment row x = (x_u, x_w, a, 1): B(x) = sum_i
# x_i _NOISE_INPUTS[i].  [e_i]x is row i of _SKEW_BASIS (its row j is e_j x e_i).
_SKEW_BASIS = np.cross(np.eye(3)[None], np.eye(3)[:, None])
_NOISE_INPUTS = np.zeros((8, 9, 9))
_NOISE_INPUTS[0:3, 3:6, 0:3] = _SKEW_BASIS
_NOISE_INPUTS[3:6, 6:9, 0:3] = _SKEW_BASIS
_NOISE_INPUTS[6, 6:9, 3:6] = np.eye(3)
_NOISE_INPUTS[7] = _EYE9
_PSD_TOL = 1e-9  # the most negative covariance eigenvalue a validating filter accepts


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
        # N = sum_k dt_k B(x_k) Q B(x_k)^T is linear in G = sum_k dt_k x_k x_k^T: its
        # column (i, j) is vec(E_i Q E_j^T), each entry one +-q or 0 (an E_i row has at
        # most one nonzero), so the map is exact.
        q = np.repeat([self.q_att, self.q_vel, self.q_pos], 3)
        noise_map = np.einsum("irk,k,jsk->rsij", _NOISE_INPUTS, q, _NOISE_INPUTS).reshape(81, 64)
        vars(self).update(_r_matrix=np.diag(np.concatenate([self.r_vel, self.r_att])),
                          _noise_map=noise_map)
        for value in (self.r_vel, self.r_att, self._r_matrix, self._noise_map):
            value.setflags(write=False)


@dataclass
class EkfState:
    """Mean NavState plus 9x9 covariance over (dtheta_body, dv, dp)."""

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
    ``t_start``, as a list and as an array, checked in ``unpack_burst``'s order: one
    that is not positive (NaN included) raises ValueError naming its row's ``t``,
    then the largest warns once through ``_check_dt``, attributed to the predict's
    caller."""
    dts, t_prev = [], float(t_start)
    for row in rows:
        t = row[0]
        dt = t - t_prev
        if not dt > 0.0:
            raise ValueError(f"non-positive IMU sample spacing at t={t!r}")
        dts.append(dt)
        t_prev = t
    _check_dt(max(dts), stacklevel=5)
    return dts, np.array(dts)


def _strapdown(rows, t_start, config: FilterConfig, orientation, velocity, position,
               after: bool) -> tuple:
    """Both predicts' pass over a burst's rows (lists of 7 floats) from the state
    (``orientation``, ``velocity``, ``position``).  Returns the end orientation,
    velocity and position as floats, the burst's transition (U, W, T) for
    ``_propagate``, its noise rows as an (M, 8) array, the spacings as an array
    and, with ``after`` (None without), the entries of its start and end
    rotations R0 and R1, 18 floats.

    ``_spacings`` checks the spacings first; a backward pass forms (a_k, b_k),
    the first and second elementary symmetric sums of the spacings after sample
    k, and (T, T2) of the whole burst.  Each step is written out in the loop,
    without a call: the running product times the increment (1, dt w / 2),
    ``product_entries`` less its four products by 1.0 (x 1.0 is x in IEEE
    arithmetic), over its norm summed in ``_norm``'s order, and the attitude
    ``rotation_entries`` of that unit quaternion, its expressions unchanged.  A
    degenerate product (from a NaN reading) is refused by ``_unit`` with its
    DegenerateQuaternionError, after every spacing check and the warning, in
    ``unpack_burst``'s order.  So is a product whose norm overflowed (a gyro
    reading past about 3e156 rad/s at 100 Hz), tested once after the loop: a
    step multiplies the norm by |(1, e)| >= 1, so an inf norm stays inf or
    turns NaN, which the loop refuses.

    Before each step the loop appends the row (a g + v, b g + a v + r, a, 1),
    r stepped as p is.  Without ``after`` (the InEKF) r is p and (a, b) =
    (a_k, b_k): row k is sample k's, taken before its step, and (U, W) =
    (-T g, -T2 g).  With ``after`` (the EKF) r starts at 0 and each row takes
    the sums of the sample before, (T, T2) for the first: row k + 1 is sample
    k's, taken after its step, and the end state's row, with (0, 0), closes the
    table.  Less the end state's (v_M, r_M), row 0 is (-U, -W), with U = sum dt f
    and W = sum a dt f, and row k + 1 is (-u_k, -w_k, a_k, 1), the same sums
    over the samples after k; the noise rows are rows 1 to M.
    """
    dts, dt_array = _spacings(rows, t_start)
    b0, b1, b2 = config.biases.accel.tolist()
    c0, c1, c2 = config.biases.gyro.tolist()
    g0, g1, g2 = config.gravity.vector.tolist()
    qw, qx, qy, qz = orientation.tolist()
    v0, v1, v2 = velocity.tolist()
    p0, p1, p2 = position.tolist()
    r0, r1, r2 = (0.0, 0.0, 0.0) if after else (p0, p1, p2)
    a = b = 0.0
    sums = [(a, b)]  # sums[k]: (a, b) of the samples from k on, (0, 0) from M on
    for dt in reversed(dts):
        a, b = a + dt, b + dt * a
        sums.append((a, b))
    sums.reverse()
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = first = rotation_entries(_unit((qw, qx, qy, qz)))
    moments = []
    for dt, (_, a0, a1, a2, w0, w1, w2), (ak, bk) in zip(dts, rows, sums if after else sums[1:]):
        moments += (ak * g0 + v0, ak * g1 + v1, ak * g2 + v2,
                    bk * g0 + ak * v0 + r0, bk * g1 + ak * v1 + r1, bk * g2 + ak * v2 + r2,
                    ak, 1.0)
        a0, a1, a2, w0, w1, w2 = a0 - b0, a1 - b1, a2 - b2, w0 - c0, w1 - c1, w2 - c2
        f0 = r00 * a0 + r01 * a1 + r02 * a2
        f1 = r10 * a0 + r11 * a1 + r12 * a2
        f2 = r20 * a0 + r21 * a1 + r22 * a2
        p0, p1, p2 = p0 + dt * v0, p1 + dt * v1, p2 + dt * v2
        r0, r1, r2 = r0 + dt * v0, r1 + dt * v1, r2 + dt * v2
        v0, v1, v2 = v0 + dt * (f0 + g0), v1 + dt * (f1 + g1), v2 + dt * (f2 + g2)
        h = 0.5 * dt
        e0, e1, e2 = h * w0, h * w1, h * w2  # q (x) (1, e), its products by 1.0 dropped
        qw, qx, qy, qz = (qw - qx * e0 - qy * e1 - qz * e2, qw * e0 + qx + qy * e2 - qz * e1,
                          qw * e1 - qx * e2 + qy + qz * e0, qw * e2 + qx * e1 - qy * e0 + qz)
        norm = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)  # _norm's order
        if not norm > _NORM_EPS:
            _unit((qw, qx, qy, qz))  # raises its DegenerateQuaternionError
        w, x, y, z = qw / norm, qx / norm, qy / norm, qz / norm
        w2, x2, y2, z2 = 2.0 * w, 2.0 * x, 2.0 * y, 2.0 * z  # rotation_entries
        wx, wy, wz, xy, xz, yz = w2 * x, w2 * y, w2 * z, x2 * y, x2 * z, y2 * z
        xx, yy, zz = x2 * x, y2 * y, z2 * z
        r00, r01, r02 = 1.0 - (yy + zz), xy - wz, xz + wy
        r10, r11, r12 = xy + wz, 1.0 - (xx + zz), yz - wx
        r20, r21, r22 = xz - wy, yz + wx, 1.0 - (xx + yy)
    if norm == math.inf:
        _unit((qw, qx, qy, qz))  # raises its DegenerateQuaternionError
    end = (w, x, y, z), [v0, v1, v2], [p0, p1, p2]  # the rows are never empty
    T, T2 = sums[0]
    if not after:
        transition = (-(T * g0), -(T * g1), -(T * g2)), (-(T2 * g0), -(T2 * g1), -(T2 * g2)), T
        return end, transition, np.fromiter(moments, float).reshape(-1, 8), dt_array, None
    x0, x1, x2, x3, x4, x5 = moments[:6]  # row 0, less (v_M, r_M), is (-U, -W)
    transition = (v0 - x0, v1 - x1, v2 - x2), (r0 - x3, r1 - x4, r2 - x5), T
    del moments[:8]
    moments += (v0, v1, v2, r0, r1, r2, 0.0, 1.0)
    X = np.fromiter(moments, float).reshape(-1, 8) - (v0, v1, v2, r0, r1, r2, 0.0, 0.0)
    rotations = first + [r00, r01, r02, r10, r11, r12, r20, r21, r22]
    return end, transition, X, dt_array, rotations


def _propagate(P, U, W, T, X, dt_array, config: FilterConfig, into=None) -> np.ndarray:
    """Phi P Phi^T + N over a burst on the error (attitude, velocity, position) in
    the navigation frame, for both predicts: Phi = [[I, 0, 0], [-[U]x, I, 0],
    [-[W]x, T I, I]], taken after the 9x9 map ``into`` when one is given, and N
    the noise sum of the moment rows X (n, 8) with their spacings ``dt_array``.

    Each block of a sample's noise is a multiple of I, so N depends on the
    burst through one row per sample, x_k = (x_u, x_w, a_k, 1): sample k's
    attitude noise n reaches the end as (n, [x_u]x n, [x_w]x n), its velocity
    noise as (0, n, a_k n) and its position noise as (0, 0, n), that is through
    B(x_k) = [[I, 0, 0], [[x_u]x, I, 0], [[x_w]x, a_k I, I]], linear in x_k.  So
    N = sum_k dt_k B(x_k) Q B(x_k)^T, Q = diag(q_att I, q_vel I, q_pos I), is one
    linear map of the 8x8 moment product G = sum_k dt_k x_k x_k^T, built once per
    config (``FilterConfig._noise_map``, 81 x 64): two BLAS products form N.
    """
    G = (X * dt_array[:, None]).T.dot(X)  # sum_k dt_k x_k x_k^T
    N = config._noise_map.dot(G.ravel()).reshape(9, 9)
    U0, U1, U2 = U
    W0, W1, W2 = W
    Phi = _EYE9.copy()
    Phi.put(_PHI_ENTRIES, [U2, -U1, -U2, U0, U1, -U0, W2, -W1, -W2, W0, W1, -W0, T, T, T])
    if into is not None:
        Phi = Phi.dot(into)
    return Phi.dot(P).dot(Phi.T) + N


def ekf_predict(state: EkfState, burst, config: FilterConfig, t_start: float) -> EkfState:
    """Propagate mean and covariance through an IMU burst.

    The mean follows ``preintegrate_burst``, each sample updated from the state
    at its start (``_strapdown``, which also refuses and warns).  An empty
    burst leaves the state as it is and only symmetrizes P.

    The covariance is that of the exact linearization of this mean.  With the
    attitude error in the navigation frame, dtheta_n = R dtheta_body, sample k
    carries (dtheta_n, dv, dp) by [[I, 0, 0], [-dt [f_k]x, I, 0], [0, dt I, I]],
    f_k = R_k a_k, where the body-frame error turns by R_{k+1}^T R_k, as the
    mean does (Sola, arXiv:1711.02508, on local and global angular errors).
    These compose into ``_propagate``'s Phi, and each sample's noise goes
    through the same form over the samples after it (Forster et al., IEEE
    T-RO 33(1), 2017), from ``_strapdown``'s rows with positions relative to
    the burst start.  P goes in through T(R0) = diag(R0, I, I), which maps
    (dtheta_body, dv, dp) to (dtheta_n, dv, dp), and out through T(R1)^T: the
    result is the recursion P <- F_k P F_k^T + Q_k with attitude blocks
    R_{k+1}^T R_k, up to rounding, and does not depend on where the burst is.
    """
    nav = state.nav
    rows = burst.tolist()
    if not rows:
        return EkfState(nav.copy(), _finish_cov(state.cov, config, "ekf_predict"))
    (q, v, p), transition, X, dt_array, rotations = _strapdown(
        rows, t_start, config, nav.orientation, nav.velocity, nav.position, True)
    maps = _FRAME_MAPS.copy()  # T(R0), T(R1)
    maps.put(_FRAME_ROTATIONS, rotations)
    P = _propagate(state.cov, *transition, X, dt_array, config, maps[0])
    out = maps[1]
    return EkfState(NavState.exact(np.array(p), np.array(v), np.array(q)),
                    _finish_cov(out.T.dot(P).dot(out), config, "ekf_predict"))


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

    The measurement rows H = [[0, I, 0], [I, 0, 0]] select the velocity and
    the attitude error of (dtheta_body, dv, dp), and ``kalman_update`` forms
    the Joseph-form update, raising NumericalError on a singular innovation
    covariance.  The innovation (``_attitude_innovation``) and the mean
    correction (p + dp, v + dv, q (x) Exp(dtheta)) are formed on Python floats,
    the correction's rotation by ``from_rotvec_entries`` and its product
    normalized over ``_checked_norm``.  A non-finite reading raises
    NumericalError.
    """
    nav = state.nav
    (d0, d1, d2), q_meas = _readings("ekf_update", dvl, ahrs)
    q_est = nav.orientation.tolist()
    v0, v1, v2 = nav.velocity.tolist()
    y = [d0 - v0, d1 - v1, d2 - v2, *_attitude_innovation(q_est, q_meas)]
    dx, P = kalman_update(state.cov, _H_EKF, config._r_matrix, y)
    p0, p1, p2 = nav.position.tolist()
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = dx.tolist()
    velocity = np.array([v0 + c3, v1 + c4, v2 + c5])
    position = np.array([p0 + c6, p1 + c7, p2 + c8])
    q = product_entries(q_est, from_rotvec_entries((c0, c1, c2)))
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
    """Exp of an (attitude, velocity, position) tangent vector xi of 9 Python floats,
    on floats: the unit quaternion q_c of theta = xi[0:3] (``from_rotvec_entries``)
    and the offsets J dv, J dp as 3 floats each.  J = I + c1 S + c2 S S is the
    SO(3) left Jacobian, S = [theta]x, with S S = theta theta^T - |theta|^2 I
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

    The mean is ``ekf_predict``'s started at the state's orientation, bit for
    bit (``_strapdown``).  A^3 = 0, so the samples after k carry the error by
    I + a_k A + b_k A^2, a_k the sum of their spacings and b_k that of their
    pairwise products, and the burst by I + T A + T2 A^2: ``_propagate``'s Phi
    with U = -T g and W = -T2 g.  R drops out of the noise, whose rows are
    (u_k, w_k, a_k, 1), u_k = a_k g + v_k and w_k = b_k g + a_k v_k + p_k with
    v_k, p_k at the start of sample k: ``_strapdown``'s rows before each step.
    """
    rows = burst.tolist()
    if not rows:
        return InekfState(state.orientation.copy(), state.velocity.copy(), state.position.copy(),
                          _finish_cov(state.cov, config, "inekf_predict"))
    (q, v, p), transition, X, dt_array, _ = _strapdown(
        rows, t_start, config, state.orientation, state.velocity, state.position, False)
    P = _propagate(state.cov, *transition, X, dt_array, config)
    return InekfState(np.array(q), np.array(v), np.array(p), _finish_cov(P, config, "inekf_predict"))


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
