"""Two-stage cascaded window observer over synchronized epochs.

Stage 1 estimates orientation: the window dynamics integrate gyro bursts and
the measurements are AHRS quaternions (identity measurement map, hemisphere
aligned to the prediction, renormalized after every inner iteration).  Each
burst is one preintegrated rotation increment r_j, and normalization only
rescales, so window row j is normalize(zeta * U_j) with the cumulative
increment U_j = r_1 * ... * r_j: a fixed 4x4 linear map M_j of the
window-start iterate zeta followed by row normalization.  Each epoch builds
the M_j once and runs the inner iterations on the whole window in a few
batched array operations (``_orientation_step``).  ``_OrientationStage.model``
states the same stage as a generic ``WindowModel`` for ``ipg_step``; it is
the reference the batched form is tested against.

Stage 2 estimates velocity: the measurements are DVL velocities and each
burst is preintegrated once, when it arrives, into a rotation increment and
a body-frame velocity increment.  Every epoch rotates each burst's body-frame
increment by stage 1's orientation at the start of that burst, which gives
the burst's navigation-frame velocity increment in O(1).  The velocity
dynamics do not depend on the velocity state, so the stacked Jacobian is a
stack of identities, the preconditioner stays a scaled identity k*I, and the
inner iterations reduce to an exact scalar-gain recursion in closed form.

Position is not windowed: it integrates the stage-2 velocity estimate over
the epoch period.  The first N-1 epochs are emitted as dead-reckoned warmup
rows; on divergence the estimator aborts (default) or falls back to dead
reckoning for the epoch and reseeds the windows from direct measurements.
"""

from __future__ import annotations

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
    preintegrate_burst,
    propagate_orientation,  # noqa: F401  kept as a module attribute: perfbench counts its calls
    running_product,
    unpack_burst,
)
from .quat import _NORM_EPS, normalize_jacobian, quat_normalize, quat_product, quat_right_matrix
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
    """

    rot_increment: np.ndarray  # (4,)
    body_dv: np.ndarray        # (3,)
    duration: float


def _make_burst(epoch, gyro_bias, accel_bias=0.0) -> BurstInput:
    dts, accel, gyro = unpack_burst(epoch.imu_burst, epoch.t_prev, gyro_bias, accel_bias)
    products = running_product((1.0, 0.0, 0.0, 0.0), dts, gyro)
    prefixes = products[:-1]
    prefixes /= np.linalg.norm(prefixes, axis=1, keepdims=True)
    body_dv = dts @ _rotate_rows(prefixes, accel)
    return BurstInput(products[-1], body_dv, float(dts.sum()))


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


class _OrientationStage:
    """Window model for the orientation observer (state: quaternion).

    The gyro bias is already folded into each burst's ``rot_increment`` by
    ``_make_burst``.
    """

    def __init__(self):
        self.model = WindowModel(
            state_dim=4,
            meas_dim=4,
            dynamics=self._dynamics,
            measurement=lambda q: q,
            dynamics_jacobian=self._dynamics_jacobian,
            measurement_jacobian=lambda q: np.eye(4),
            post_iterate=quat_normalize,
            align_measurements=_align_quat_blocks,
        )

    def _dynamics(self, q, burst: BurstInput):
        return quat_normalize(quat_product(q, burst.rot_increment))

    def _dynamics_jacobian(self, q, burst: BurstInput):
        raw = quat_product(np.asarray(q, dtype=float), burst.rot_increment)
        return normalize_jacobian(raw) @ quat_right_matrix(burst.rot_increment)


def _align_quat_blocks(predicted: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Flip each measured quaternion block onto the predicted hemisphere."""
    Zb = Z.reshape(-1, 4).copy()
    Pb = predicted.reshape(-1, 4)
    flip = np.sum(Zb * Pb, axis=1) < 0.0
    Zb[flip] *= -1.0
    return Zb.reshape(-1)


# quats[:, _RIGHT_INDEX] * _RIGHT_SIGN stacks quat_right_matrix over rows.
_RIGHT_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_RIGHT_SIGN = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, -1.0],
                        [1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0]])


def _propagate_rows(M: np.ndarray, zeta: np.ndarray):
    """Rows Y_j = M_j @ zeta, their norms, and Y_j / |Y_j|; guarded like quat_normalize."""
    Y = M @ zeta
    norms = np.sqrt((Y * Y).sum(axis=1))
    if not (norms > _NORM_EPS).all():  # also catches NaN
        raise DegenerateQuaternionError(
            f"cannot normalize window orientation with norm {norms.min():.3e}")
    return Y / norms[:, None], norms


def _orientation_step(params: IpgParams, ahrs, zeta, K, rot_increments):
    """``ipg_step`` of the orientation stage, batched over the window.

    With U_0 = 1 and U_j = U_{j-1} * rot_increments[j-1], row j >= 1 of the
    stacked map is P_j = Y_j / |Y_j| with Y_j = M_j zeta, M_j the
    right-multiplication matrix of U_j, and its Jacobian block is
    (M_j - P_j P_j^T M_j) / |Y_j|: normalize(normalize(y) * u) equals
    normalize(y * u), so this is the chain-rule product exactly.  Row 0 is
    the raw iterate zeta with an identity block.  Each AHRS block is flipped
    onto the hemisphere of its prediction.

    Returns the current-epoch estimate, the warm-started iterate, K, and the
    orientations at the start of each burst (rows 0..N-2 of the stacked
    map); raises DivergenceError, NumericalError and
    DegenerateQuaternionError where ipg_step does.
    """
    # q * U_{j-1} * r_j = R(r_j) R(U_{j-1}) q, so M_j = R(r_j) @ M_{j-1}.
    M = np.asarray(rot_increments)[:, _RIGHT_INDEX] * _RIGHT_SIGN  # (N-1, 4, 4)
    for j in range(1, len(M)):
        M[j] = M[j] @ M[j - 1]
    z0, Z = ahrs[0], ahrs[1:]
    eye = np.eye(4)
    for i in range(params.iterations):
        P, norms = _propagate_rows(M, zeta)
        J = (M - P[:, :, None] * (P[:, None, :] @ M)) / norms[:, None, None]
        if not np.isfinite(J).all():
            raise NumericalError("non-finite stacked Jacobian entry in the orientation window")
        J = J.reshape(-1, 4)
        flip = np.where((Z * P).sum(axis=1) < 0.0, -1.0, 1.0)
        residual = (P - flip[:, None] * Z).reshape(-1)
        r0 = zeta + z0 if z0 @ zeta < 0.0 else zeta - z0
        K_next = K - params.alpha_at(i) * (K + J.T @ (J @ K) - eye)
        zeta_next = zeta - params.delta_at(i) * (K @ (r0 + J.T @ residual))
        if not (np.isfinite(zeta_next).all() and np.isfinite(K_next).all()):
            raise DivergenceError("window solver produced a non-finite value", iteration=i)
        zeta, K = quat_normalize(zeta_next), K_next
    P, _ = _propagate_rows(M, zeta)
    return P[-1], quat_normalize(P[0]), K, np.vstack([zeta, P[:-1]])


def _velocity_step(params: IpgParams, dvl, zeta, k: float, increments):
    """``ipg_step`` of the velocity stage, with preconditioner k*I, in closed form.

    The stage is linear with identity maps, so J = [I; ...; I] and K = k*I
    stays a scaled identity.  With c_i the sum of the first i velocity
    increments (c_0 = 0), the inner iterations reduce exactly to
    k' = k - alpha * (N k - 1) and zeta' = zeta - delta * k * sum_i (zeta + c_i - z_i).
    Returns the current-epoch estimate zeta + c_{N-1}, the warm-started
    iterate zeta + increments[0] and k; raises DivergenceError as ipg_step does.
    """
    n = len(dvl)
    offsets = np.vstack([np.zeros(3), np.cumsum(increments, axis=0)])
    misfit = np.sum(offsets - dvl, axis=0)
    for i in range(params.iterations):
        k_next = k - params.alpha_at(i) * (n * k - 1.0)
        zeta_next = zeta - params.delta_at(i) * k * (n * zeta + misfit)
        if not (np.all(np.isfinite(zeta_next)) and np.isfinite(k_next)):
            raise DivergenceError("window solver produced a non-finite value", iteration=i)
        zeta, k = zeta_next, k_next
    return zeta + offsets[-1], zeta + increments[0], k


@dataclass(frozen=True)
class CascadeConfig:
    """Cascade parameters; both stages share the window length."""

    params: IpgParams = field(default_factory=IpgParams)
    params_velocity: Optional[IpgParams] = None
    biases: ImuBiases = field(default_factory=ImuBiases)
    gravity: GravityModel = field(default_factory=GravityModel)
    initial: Optional[NavState] = None
    fallback: str = "abort"

    def __post_init__(self):
        if self.fallback not in FALLBACK_MODES:
            raise ValueError(f"fallback must be one of {FALLBACK_MODES}, got {self.fallback!r}")
        if self.params_velocity is not None and self.params_velocity.horizon != self.params.horizon:
            raise ValueError(
                "orientation and velocity stages must share the window length: "
                f"{self.params.horizon} != {self.params_velocity.horizon}"
            )

    @property
    def velocity_params(self) -> IpgParams:
        return self.params_velocity if self.params_velocity is not None else self.params


@dataclass
class CascadeState:
    """Mutable per-run state of the cascade estimator."""

    config: CascadeConfig
    nav: NavState
    t_prev: float
    k: int = 0
    pending_bursts: list = field(default_factory=list)
    pending_ahrs: list = field(default_factory=list)
    pending_dvl: list = field(default_factory=list)
    window_start_seed: Optional[NavState] = None
    bursts: tuple = ()  # the window's N-1 bursts, oldest first
    ahrs_window: Optional[np.ndarray] = None  # (N, 4), oldest first
    q_iterate: Optional[np.ndarray] = None  # orientation at the window start
    q_precond: Optional[np.ndarray] = None  # the 4x4 orientation preconditioner
    dvl_window: Optional[np.ndarray] = None  # (N, 3), oldest first
    v_iterate: Optional[np.ndarray] = None  # velocity at the window start
    v_gain: float = 0.0  # the velocity preconditioner is v_gain * I
    needs_reseed: bool = False
    fallback_count: int = 0

    @classmethod
    def start(cls, config: CascadeConfig, epochs) -> "CascadeState":
        nav = config.initial.copy() if config.initial is not None else initial_nav_from_epochs(epochs)
        return cls(config=config, nav=nav, t_prev=epochs[0].t_prev)


def _dead_reckon(state: CascadeState, epoch) -> NavState:
    return preintegrate_burst(
        state.nav, epoch.imu_burst, state.config.biases, state.config.gravity, state.t_prev
    )


def cascade_step(state: CascadeState, epoch, config: CascadeConfig | None = None):
    """Consume one SyncedEpoch and emit a TrajectoryPoint.

    The first N-1 epochs dead-reckon (flag ``warmup``) while the windows
    fill.  Afterwards each epoch slides both windows, runs stage 1 then
    stage 2, and integrates position over the epoch period.
    """
    config = config if config is not None else state.config
    n = config.params.horizon
    burst = _make_burst(epoch, config.biases.gyro, accel_bias=config.biases.accel)
    dt_epoch = epoch.t - state.t_prev
    state.k += 1

    if state.k < n:
        nav = _dead_reckon(state, epoch)
        if state.k == 1:
            state.window_start_seed = nav.copy()
        else:
            state.pending_bursts.append(burst)
        state.pending_ahrs.append(epoch.ahrs)
        state.pending_dvl.append(epoch.dvl)
        state.nav = nav
        state.t_prev = epoch.t
        return state, TrajectoryPoint(epoch.t, nav, "warmup")

    if state.k == n:
        seed = state.window_start_seed
        state.bursts = tuple(state.pending_bursts) + (burst,)
        state.ahrs_window = np.array(state.pending_ahrs + [epoch.ahrs], dtype=float)
        state.q_iterate, state.q_precond = seed.orientation, config.params.k0_scale * np.eye(4)
        state.dvl_window = np.array(state.pending_dvl + [epoch.dvl], dtype=float)
        state.v_iterate, state.v_gain = seed.velocity, config.velocity_params.k0_scale
        state.pending_bursts = []
        state.pending_ahrs = []
        state.pending_dvl = []
    else:
        state.bursts = state.bursts[1:] + (burst,)
        state.ahrs_window = np.vstack([state.ahrs_window[1:], epoch.ahrs])
        state.dvl_window = np.vstack([state.dvl_window[1:], epoch.dvl])
        if state.needs_reseed:
            # After a fallback epoch, restart both iterates from the direct
            # measurements of the new window start (identity measurement maps).
            state.q_iterate = quat_normalize(state.ahrs_window[0])
            state.q_precond = config.params.k0_scale * np.eye(4)
            state.v_iterate, state.v_gain = state.dvl_window[0], config.velocity_params.k0_scale
            state.needs_reseed = False

    stage = "orientation"
    try:
        orientation, q_iterate, q_precond, quats = _orientation_step(
            config.params, state.ahrs_window, state.q_iterate, state.q_precond,
            [b.rot_increment for b in state.bursts],
        )
        # quats[j] is the orientation where burst j starts.
        increments = (_rotate_rows(quats, np.array([b.body_dv for b in state.bursts]))
                      + np.outer([b.duration for b in state.bursts], config.gravity.vector))
        stage = "velocity"
        velocity, v_iterate, v_gain = _velocity_step(
            config.velocity_params, state.dvl_window, state.v_iterate, state.v_gain, increments
        )
    except DivergenceError as exc:
        if config.fallback == "abort":
            raise DivergenceError(
                "cascade stage diverged", iteration=exc.iteration, stage=stage, epoch=epoch.t
            ) from exc
        nav = _dead_reckon(state, epoch)
        state.nav = nav
        state.t_prev = epoch.t
        state.needs_reseed = True
        state.fallback_count += 1
        return state, TrajectoryPoint(epoch.t, nav, "fallback")

    position = state.nav.position + velocity * dt_epoch
    nav = NavState(position, velocity, orientation)

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
