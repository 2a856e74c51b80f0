"""Two-stage cascaded window observer over synchronized epochs.

Stage 1 estimates orientation: the window dynamics integrate gyro bursts and
the measurements are AHRS quaternions (identity measurement map, hemisphere
aligned to the prediction, renormalized after every inner iteration).  Each
burst is one preintegrated rotation increment r_j, and normalization only
rescales, so window row j is normalize(zeta * U_j) with U_j = r_1 * ... * r_j:
a fixed 4x4 map M_j of the window-start iterate zeta, with M_j^T M_j =
|U_j|^2 I, followed by row normalization.  The stage's normal equations are
therefore closed-form in zeta and a per-epoch (N-1, 4) array, and
``_orientation_step`` forms no Jacobian.  Its inner iterations run on Python
floats (zeta as 4 floats, K as 16): on 4-vectors and 4x4 matrices the
overhead of a numpy call outweighs its arithmetic, as in the velocity
stage's recursion.  ``ORIENTATION_MODEL`` states the
same stage as a generic ``WindowModel`` for ``ipg_step``; it is the
reference the closed form is tested against.

Stage 2 estimates velocity: the measurements are DVL velocities and each
burst is preintegrated once, when it arrives, into a rotation increment and
a body-frame velocity increment.  Every epoch rotates each burst's body-frame
increment by stage 1's orientation at the start of that burst, which gives
the burst's navigation-frame velocity increment in O(1).  The velocity
dynamics do not depend on the velocity state, so the stacked Jacobian is a
stack of identities, the preconditioner stays a scaled identity k*I, and the
inner iterations reduce to an exact scalar-gain recursion in closed form.

Both stages run on one ``IpgParams``.  Position is not windowed: it
integrates the stage-2 velocity estimate over the epoch period.  The
windows roll from the first epoch, whose dead-reckoned state seeds both
iterates, and the first N-1 epochs are emitted as dead-reckoned warmup rows
while they fill.  On divergence the estimator aborts (default) or falls back
to dead reckoning for the epoch and clears the iterates; the next epoch
reseeds them from the direct measurements at its window start.  Dead
reckoning runs from the same preintegrated bursts.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateQuaternionError, DivergenceError, NumericalError
from .ipg import IpgParams, WindowModel
from .ipg import ipg_step  # noqa: F401  kept as a module attribute: perfbench wraps it by name
from .ipg import slide_window  # noqa: F401  kept as a module attribute: perfbench wraps it by name
from .preintegration import (
    GravityModel,
    ImuBiases,
    NavState,
    preintegrate_burst,  # noqa: F401  kept as a module attribute: perfbench wraps it by name
    propagate_orientation,  # noqa: F401  kept as a module attribute: perfbench counts its calls
    running_product,
    unpack_burst,
)
from .quat import (
    _NORM_EPS,
    normalize_jacobian,
    quat_normalize,
    quat_product,
    quat_right_matrix,
    quat_to_rotation,
    unit_rows,
)
from .sensors import initial_nav_from_epochs
from .trajectory import TrajectoryPoint

__all__ = [
    "BurstInput",
    "CascadeConfig",
    "CascadeState",
    "cascade_step",
    "run_cascade",
]

FALLBACK_MODES = ("abort", "deadreckon")
_EYE_16 = tuple(np.eye(4).ravel().tolist())  # I_4 in row-major order


@dataclass(frozen=True)
class BurstInput:
    """IMU burst preintegrated once; the window input between two epochs.

    ``rot_increment`` is the Hamilton product of the per-sample orientation
    increments (1, dt_i/2 * (gyro_i - bias)).  Because per-step quaternion
    renormalization only rescales, ``normalize(q * rot_increment)`` equals
    the sample-by-sample propagation of ``q`` through the whole burst, so
    the window dynamics and their Jacobian cost O(1) per burst.

    ``body_dv`` is sum_i dt_i * R(P_{i-1}) @ (accel_i - accel_bias), where
    P_{i-1} is the normalized product of the increments before sample i, and
    ``duration`` is sum_i dt_i.  For the same reason as above, the velocity
    gained over the burst from orientation ``q`` is
    ``R(q) @ body_dv + duration * g``.

    ``dts`` holds the dt_i and ``body_accel`` the rows
    R(P_{i-1}) @ (accel_i - accel_bias), from which ``_dead_reckon`` forms
    the position increment only for the epochs that dead-reckon.
    """

    rot_increment: np.ndarray  # (4,)
    body_dv: np.ndarray        # (3,)
    duration: float
    dts: np.ndarray            # (M,)
    body_accel: np.ndarray     # (M, 3)


def _make_burst(epoch, gyro_bias, accel_bias=0.0) -> BurstInput:
    dts, accel, gyro = unpack_burst(epoch.imu_burst, epoch.t_prev, gyro_bias, accel_bias)
    products = running_product((1.0, 0.0, 0.0, 0.0), dts, gyro)
    prefixes, _ = unit_rows(products[:-1])
    body_accel = _rotate_rows(prefixes, accel)
    return BurstInput(products[-1], dts @ body_accel, float(dts.sum()), dts, body_accel)


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross(a, b) for (M, 3) rows, by the same expressions, without its overhead."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.column_stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def _rotate_rows(quats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Rotate vecs[i] by quats[i] (body -> nav), vectorized over rows."""
    w = quats[:, :1]
    qv = quats[:, 1:]
    t = 2.0 * _cross_rows(qv, vecs)
    return vecs + w * t + _cross_rows(qv, t)


def _align_quat_blocks(predicted: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Flip each measured quaternion block onto the predicted hemisphere."""
    Zb = Z.reshape(-1, 4).copy()
    Pb = predicted.reshape(-1, 4)
    flip = np.sum(Zb * Pb, axis=1) < 0.0
    Zb[flip] *= -1.0
    return Zb.reshape(-1)


def _orientation_dynamics(q, burst: BurstInput):
    return quat_normalize(quat_product(q, burst.rot_increment))


def _orientation_dynamics_jacobian(q, burst: BurstInput):
    raw = quat_product(np.asarray(q, dtype=float), burst.rot_increment)
    return normalize_jacobian(raw) @ quat_right_matrix(burst.rot_increment)


# The orientation stage as a generic window model (state: quaternion): the
# reference ``_orientation_step`` is tested against.  The gyro bias is
# already folded into each burst's ``rot_increment`` by ``_make_burst``.
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


def _window_terms(ahrs, rot_increments):
    """M_j (N-1, 4, 4) and W_j = M_j^T Z_j / |U_j| (N-1, 4) for ``_orientation_step``."""
    # q * U_{j-1} * r_j = R(r_j) R(U_{j-1}) q, so M_j = R(r_j) @ M_{j-1}.
    M = quat_right_matrix(rot_increments)
    for j in range(1, len(M)):
        M[j] = M[j] @ M[j - 1]
    _, norms = unit_rows(M[:, :, 0])  # column 0 of M_j is U_j
    if not np.isfinite(norms).all():
        raise NumericalError("non-finite stacked Jacobian entry in the orientation window")
    return M, (ahrs[1:, None, :] @ M)[:, 0, :] / norms[:, None]


def _orientation_step(params: IpgParams, ahrs, zeta, K, rot_increments):
    """``ipg_step`` of the orientation stage, on closed-form normal equations.

    With U_0 = 1 and U_j = U_{j-1} * rot_increments[j-1], row j >= 1 of the
    stacked map is P_j = Y_j / |Y_j|, Y_j = M_j zeta with M_j the right-
    multiplication matrix of U_j, and its Jacobian block is J_j = (I - P_j
    P_j^T) M_j / |Y_j|, as normalize(normalize(y) * u) equals normalize(y * u).
    Row 0 is zeta with an identity block.  As M_j^T M_j = |U_j|^2 I, a unit
    zeta gives J_j^T J_j = I - zeta zeta^T, and the AHRS block Z_j, flipped
    onto the hemisphere of P_j by s_j = sign(W_j . zeta), gives J_j^T (P_j -
    s_j Z_j) = -s_j (I - zeta zeta^T) W_j with W_j = M_j^T Z_j / |U_j|.  So
    J^T J = I + (N-1)(I - zeta zeta^T) and J^T r = r_0 + zeta (zeta . w) - w,
    w = sum_j s_j W_j: no Jacobian is formed in the inner iterations.  With
    r_0 = zeta - s_0 z_0, this is J^T r = zeta (1 + sum_j |W_j . zeta|) -
    (s_0 z_0 + w), and a dot of exactly 0 or NaN gives s = +1.

    The inner iterations run on Python floats, zeta as 4 floats and K as 16
    in row-major order, because each numpy call on a 4-vector costs more in
    overhead than in arithmetic.  An iterate whose norm is not finite (a
    non-finite component, or an overflow) or a non-finite K raises
    DivergenceError with the iteration; a norm of at most ``_NORM_EPS``
    raises DegenerateQuaternionError, as ``quat_normalize`` does.

    Returns the current-epoch estimate as a copy (a view would keep every row
    alive), the warm-started iterate, K, and the orientations at the start of
    each burst (rows 0..N-2 of the stacked map); raises DivergenceError,
    NumericalError and DegenerateQuaternionError where ipg_step does.
    """
    M, W = _window_terms(ahrs, rot_increments)
    rows, alpha, delta = len(W), params.alpha, params.delta
    W_rows, z0 = list(map(tuple, W.tolist())), ahrs[0].tolist()
    x, k = zeta.tolist(), K.ravel().tolist()  # k is K in row-major order
    for i in range(params.iterations):
        a, b, c, d = x
        # u = s_0 z_0 + sum_j s_j W_j and scale = 1 + sum_j |W_j . zeta|
        s = -1.0 if z0[0] * a + z0[1] * b + z0[2] * c + z0[3] * d < 0.0 else 1.0
        u0, u1, u2, u3 = s * z0[0], s * z0[1], s * z0[2], s * z0[3]
        scale = 1.0
        for p, q, r, t in W_rows:
            dot = p * a + q * b + r * c + t * d
            if dot < 0.0:
                u0, u1, u2, u3, scale = u0 - p, u1 - q, u2 - r, u3 - t, scale - dot
            else:
                u0, u1, u2, u3, scale = u0 + p, u1 + q, u2 + r, u3 + t, scale + dot
        g0, g1, g2, g3 = a * scale - u0, b * scale - u1, c * scale - u2, d * scale - u3  # J^T r
        k00, k01, k02, k03, k10, k11, k12, k13, k20, k21, k22, k23, k30, k31, k32, k33 = k
        zK = (a * k00 + b * k10 + c * k20 + d * k30, a * k01 + b * k11 + c * k21 + d * k31,
              a * k02 + b * k12 + c * k22 + d * k32, a * k03 + b * k13 + c * k23 + d * k33)
        outer = (a, a, a, a, b, b, b, b, c, c, c, c, d, d, d, d)  # zeta_r for entry (r, c)
        k_next = [kv - alpha * (kv + rows * (kv - xr * zc) - e)
                  for kv, xr, zc, e in zip(k, outer, zK * 4, _EYE_16)]
        y0 = a - delta * (k00 * g0 + k01 * g1 + k02 * g2 + k03 * g3)
        y1 = b - delta * (k10 * g0 + k11 * g1 + k12 * g2 + k13 * g3)
        y2 = c - delta * (k20 * g0 + k21 * g1 + k22 * g2 + k23 * g3)
        y3 = d - delta * (k30 * g0 + k31 * g1 + k32 * g2 + k33 * g3)
        norm = math.sqrt(y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3)
        if not (math.isfinite(norm) and all(map(math.isfinite, k_next))):
            raise DivergenceError("window solver produced a non-finite value", iteration=i)
        if norm <= _NORM_EPS:
            raise DegenerateQuaternionError(f"cannot normalize quaternion with norm {norm:.3e}")
        x, k = [y0 / norm, y1 / norm, y2 / norm, y3 / norm], k_next
    zeta, K = np.array(x), np.array(k).reshape(4, 4)
    P, _ = unit_rows(M @ zeta)
    return P[-1].copy(), quat_normalize(P[0]), K, np.vstack([zeta, P[:-1]])


def _velocity_step(params: IpgParams, dvl, zeta, k: float, increments):
    """``ipg_step`` of the velocity stage, with preconditioner k*I, in closed form.

    The stage is linear with identity maps, so J = [I; ...; I] and K = k*I
    stays a scaled identity.  With c_i the sum of the first i velocity
    increments (c_0 = 0), the inner iterations reduce exactly to (on floats)
    k' = k - alpha * (N k - 1) and zeta' = zeta - delta * k * sum_i (zeta + c_i - z_i).
    Returns the current-epoch estimate zeta + c_{N-1}, the warm-started
    iterate zeta + increments[0] and k; raises DivergenceError as ipg_step does.
    """
    n = len(dvl)
    offsets = np.vstack([np.zeros(3), np.cumsum(increments, axis=0)])
    misfit = np.sum(offsets - dvl, axis=0).tolist()
    x = zeta.tolist()
    for i in range(params.iterations):
        k_next = k - params.alpha * (n * k - 1.0)
        gain = params.delta * k
        x_next = [a - gain * (n * a + m) for a, m in zip(x, misfit)]
        if not (all(map(math.isfinite, x_next)) and math.isfinite(k_next)):
            raise DivergenceError("window solver produced a non-finite value", iteration=i)
        x, k = x_next, k_next
    zeta = np.array(x)
    return zeta + offsets[-1], zeta + increments[0], k


@dataclass(frozen=True)
class CascadeConfig:
    """Cascade parameters; both stages run on ``params``."""

    params: IpgParams = field(default_factory=IpgParams)
    biases: ImuBiases = field(default_factory=ImuBiases)
    gravity: GravityModel = field(default_factory=GravityModel)
    initial: Optional[NavState] = None
    fallback: str = "abort"

    def __post_init__(self):
        if self.fallback not in FALLBACK_MODES:
            raise ValueError(f"fallback must be one of {FALLBACK_MODES}, got {self.fallback!r}")
        # Both stages have lambda_max(J^T J) = N, and the preconditioner recursion
        # K <- K - alpha (K J^T J - I) converges only when alpha * N < 2.
        alpha, horizon = self.params.alpha, self.params.horizon
        if alpha * horizon >= 2.0:
            raise ValueError(f"alpha * horizon must be < 2 for the window solver to converge, "
                             f"got alpha {alpha:g} * horizon {horizon} = {alpha * horizon:g}")


@dataclass
class CascadeState:
    """Mutable per-run state of the cascade estimator.

    ``bursts``, ``ahrs`` and ``dvl`` are rolling windows, oldest first, filled
    from the first epoch; from epoch N on they hold a full window.
    ``q_iterate`` and ``v_iterate`` estimate the window-start orientation and
    velocity, and start from the first epoch's dead-reckoned state.  A
    fallback epoch sets them to None; the next epoch reseeds them from
    ``ahrs[0]`` and ``dvl[0]`` with fresh preconditioners.
    """

    config: CascadeConfig
    nav: NavState
    t_prev: float
    bursts: deque  # maxlen N-1
    ahrs: deque  # maxlen N
    dvl: deque  # maxlen N
    q_precond: np.ndarray  # the 4x4 orientation preconditioner
    v_gain: float  # the velocity preconditioner is v_gain * I
    q_iterate: Optional[np.ndarray] = None
    v_iterate: Optional[np.ndarray] = None

    @classmethod
    def start(cls, config: CascadeConfig, epochs) -> "CascadeState":
        nav = config.initial.copy() if config.initial is not None else initial_nav_from_epochs(epochs)
        n, k0 = config.params.horizon, config.params.k0_scale
        return cls(config, nav, epochs[0].t_prev, deque(maxlen=n - 1), deque(maxlen=n),
                   deque(maxlen=n), k0 * np.eye(4), k0)


def _dead_reckon(nav: NavState, burst: BurstInput, g: np.ndarray) -> NavState:
    """``preintegrate_burst`` of ``nav`` over one burst, from its preintegrated terms.

    The Euler position update p_i = p_{i-1} + dt_i * v_{i-1} sums to
    duration * v + sum_i w_i * (R(q) @ body_accel_i + g) with
    w_i = dt_i * (duration - t_i), t_i the time from the burst start to sample i.
    """
    weights = burst.dts * (burst.duration - np.cumsum(burst.dts))
    R = quat_to_rotation(nav.orientation)
    return NavState(
        nav.position + burst.duration * nav.velocity
        + R @ (weights @ burst.body_accel) + weights.sum() * g,
        nav.velocity + R @ burst.body_dv + burst.duration * g,
        quat_product(nav.orientation, burst.rot_increment),
    )


def cascade_step(state: CascadeState, epoch):
    """Consume one SyncedEpoch and emit a TrajectoryPoint.

    The first N-1 epochs dead-reckon (flag ``warmup``) while the windows
    fill.  Afterwards each epoch slides the windows, runs stage 1 then
    stage 2, and integrates position over the epoch period.
    """
    config = state.config
    burst = _make_burst(epoch, config.biases.gyro, accel_bias=config.biases.accel)
    dt_epoch = epoch.t - state.t_prev
    state.bursts.append(burst)
    state.ahrs.append(epoch.ahrs)
    state.dvl.append(epoch.dvl)

    if len(state.ahrs) < config.params.horizon:
        nav = _dead_reckon(state.nav, burst, config.gravity.vector)
        if len(state.ahrs) == 1:  # the window start
            state.q_iterate, state.v_iterate = nav.orientation.copy(), nav.velocity.copy()
        state.nav = nav
        state.t_prev = epoch.t
        return state, TrajectoryPoint(epoch.t, nav, "warmup")

    ahrs = np.array(state.ahrs, dtype=float)
    dvl = np.array(state.dvl, dtype=float)
    if state.q_iterate is None:
        # After a fallback epoch, restart from the direct measurements of the
        # window start (identity measurement maps).
        k0 = config.params.k0_scale
        state.q_iterate, state.q_precond = quat_normalize(ahrs[0]), k0 * np.eye(4)
        state.v_iterate, state.v_gain = dvl[0], k0

    stage = "orientation"
    try:
        orientation, q_iterate, q_precond, quats = _orientation_step(
            config.params, ahrs, state.q_iterate, state.q_precond,
            [b.rot_increment for b in state.bursts],
        )
        # quats[j] is the orientation where burst j starts.
        increments = (_rotate_rows(quats, np.array([b.body_dv for b in state.bursts]))
                      + np.outer([b.duration for b in state.bursts], config.gravity.vector))
        stage = "velocity"
        velocity, v_iterate, v_gain = _velocity_step(
            config.params, dvl, state.v_iterate, state.v_gain, increments
        )
    except DivergenceError as exc:
        if config.fallback == "abort":
            raise DivergenceError(
                "cascade stage diverged", iteration=exc.iteration, stage=stage, epoch=epoch.t
            ) from exc
        nav = _dead_reckon(state.nav, burst, config.gravity.vector)
        state.nav = nav
        state.t_prev = epoch.t
        state.q_iterate = state.v_iterate = None
        return state, TrajectoryPoint(epoch.t, nav, "fallback")

    position = state.nav.position + velocity * dt_epoch
    nav = NavState.exact(position, velocity, orientation)  # stage 1's estimate is unit

    state.q_iterate, state.q_precond = q_iterate, q_precond
    state.v_iterate, state.v_gain = v_iterate, v_gain
    state.nav = nav
    state.t_prev = epoch.t
    return state, TrajectoryPoint(epoch.t, nav, "ok")


def run_cascade(epochs, config: CascadeConfig):
    """Run the cascade over a full epoch stream; returns one row per epoch."""
    epochs = list(epochs)
    if len(epochs) < config.params.horizon:
        raise ValueError(
            f"need at least horizon={config.params.horizon} epochs, got {len(epochs)}"
        )
    state = CascadeState.start(config, epochs)
    points = []
    for epoch in epochs:
        state, point = cascade_step(state, epoch)
        points.append(point)
    return points
