"""Strapdown IMU propagation between measurement epochs.

The continuous model, discretized with explicit Euler steps at the IMU rate:

    dq/dt = 0.5 * q * (0, gyro - gyro_bias)
    dv/dt = R(q) @ (accel - accel_bias) + g
    dp/dt = v

All three updates within a sample interval are evaluated from the state at
the start of the interval and then committed together.  The navigation frame
is NED-like with gravity pointing along +z by default, so a stationary
accelerometer reads (0, 0, -|g|).

This module is the one place that knows how a burst is integrated: the
per-sample kernels, their burst forms (``unpack_burst``, ``running_product``,
``_strapdown``) that the InEKF predict and the cascade's burst checks step
through, and the per-run table ``BurstInput`` with ``dead_reckon`` that the
cascade reads.  The EKF predict writes the same expressions on Python floats
in one loop (see ``baselines``).  Quaternion products and rotations are
``quat.py``'s.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateQuaternionError, NumericalError, _finite3, _one_of
from .quat import (
    _NORM_EPS,
    ordered_matmul,
    quat_normalize,
    quat_product,
    quat_to_rotation,
    rotate_vector,
    rotation_rows,
    row_norms,
    unit_rows,
)

__all__ = [
    "ImuBiases",
    "GravityModel",
    "NavState",
    "propagate_orientation",
    "propagate_velocity",
    "propagate_position",
    "preintegrate_burst",
    "unpack_burst",
    "running_product",
    "BurstInput",
    "dead_reckon",
]

_DT_WARN = 0.05
_GRAVITY_RANGE = (9.7, 9.9)
_BLOCK = 128  # bursts per block of BurstInput.from_epochs: bounds its temporary arrays


@dataclass(frozen=True, eq=False)
class ImuBiases:
    """Additive sensor biases, subtracted from raw IMU readings.

    Compared and hashed by identity, as the array fields have no single
    truth value: a value equals only itself, also after ``dataclasses.replace``.
    """

    accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("accel", "gyro"):
            object.__setattr__(self, name, _finite3(f"{name} bias", getattr(self, name)))
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True, eq=False)
class GravityModel:
    """Navigation-frame gravity vector.

    The magnitude is required to be Earth-plausible (9.7 to 9.9 m/s^2)
    unless ``allow_nonstandard`` is set, which keeps unit mix-ups loud.
    Compared and hashed by identity, as ``ImuBiases`` is.
    """

    vector: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 9.81]))
    allow_nonstandard: bool = False

    def __post_init__(self):
        object.__setattr__(self, "vector", _finite3("gravity vector", self.vector))
        self.vector.setflags(write=False)
        _one_of("allow_nonstandard", self.allow_nonstandard, (False, True))
        mag = self.magnitude
        if not self.allow_nonstandard and not (_GRAVITY_RANGE[0] <= mag <= _GRAVITY_RANGE[1]):
            raise ValueError(
                f"|g| = {mag:.4f} m/s^2 outside {_GRAVITY_RANGE}; "
                "pass allow_nonstandard=True if intentional"
            )

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.vector))


@dataclass
class NavState:
    """Position, velocity (navigation frame) and body orientation."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))

    def __post_init__(self):
        self.position = _finite3("position", self.position)
        self.velocity = _finite3("velocity", self.velocity)
        self.orientation = quat_normalize(self.orientation)

    @classmethod
    def exact(cls, position, velocity, orientation) -> "NavState":
        """Wrap two float 3-vectors and a unit quaternion as they are, unvalidated and bit for bit."""
        new = object.__new__(cls)
        new.position, new.velocity, new.orientation = position, velocity, orientation
        return new

    def copy(self) -> "NavState":
        """Independent copy, bit for bit: the orientation is not normalized again."""
        return NavState.exact(self.position.copy(), self.velocity.copy(), self.orientation.copy())


def _check_dt(dt: float) -> float:
    dt = float(dt)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt > _DT_WARN:
        warnings.warn(f"IMU step dt={dt:.3f} s is large; integration error grows with dt",
                      stacklevel=3)
    return dt


def unpack_burst(burst, t_start: float, gyro_bias, accel_bias):
    """Columns of an ordered (M, 7) IMU burst: spacings and bias-corrected readings.

    Returns ``(dts, accel, gyro)`` with shapes (M,), (M, 3) and (M, 3); the
    first spacing is measured from ``t_start``.  Raises ValueError on a
    non-positive spacing and warns once per burst, through ``_check_dt``,
    when the largest spacing is large.
    """
    dts, accel, gyro = _columns(burst, [float(t_start)], gyro_bias, accel_bias)
    bad = np.flatnonzero(dts <= 0.0)
    if bad.size:
        raise ValueError(f"non-positive IMU sample spacing at t={float(burst[bad[0], 0])!r}")
    if dts.size:
        _check_dt(dts.max())
    return dts, accel, gyro


def _columns(bursts, t_start, gyro_bias, accel_bias):
    """Spacings (..., M) and bias-corrected accel and gyro (..., M, 3) of one (M, 7)
    burst or of a stack (B, M, 7) of equal-length ones, unchecked; ``t_start`` (..., 1)
    holds the time each burst's first spacing is measured from."""
    # np.diff of t_start and the sample times, without its overhead
    dts = bursts[..., 0] - np.concatenate((t_start, bursts[..., :-1, 0]), axis=-1)
    return dts, bursts[..., 1:4] - accel_bias, bursts[..., 4:7] - gyro_bias


def running_product(q0, dts: np.ndarray, gyro: np.ndarray) -> np.ndarray:
    """Unnormalized products q0 * r_1 * ... * r_k, k = 0..M, as an (M+1, 4) array.

    r_i = (1, dt_i/2 * gyro_i) is the Euler increment of ``propagate_orientation``
    before its renormalization, which only rescales, so row k normalized is
    the orientation after k samples.  The product runs on Python floats with
    the operations of ``quat_product``, without per-sample arrays.
    """
    w, x, y, z = (float(c) for c in q0)
    rows = [(w, x, y, z)]
    for hx, hy, hz in (0.5 * dts[:, None] * gyro).tolist():
        w, x, y, z = (w - x * hx - y * hy - z * hz,
                      w * hx + x + y * hz - z * hy,
                      w * hy - x * hz + y + z * hx,
                      w * hz + x * hy - y * hx + z)
        rows.append((w, x, y, z))
    return np.array(rows)


def propagate_orientation(q, gyro, gyro_bias, dt) -> np.ndarray:
    """One Euler step of the quaternion kinematics, renormalized.

    q' = normalize(q + dt * 0.5 * q * (0, gyro - gyro_bias))
    """
    dt = _check_dt(dt)
    rate = np.asarray(gyro, dtype=float) - np.asarray(gyro_bias, dtype=float)
    increment = np.concatenate(([1.0], 0.5 * dt * rate))
    return quat_normalize(quat_product(q, increment))


def propagate_velocity(v, q, accel, accel_bias, gravity, dt) -> np.ndarray:
    """One Euler step of the velocity kinematics.

    v' = v + dt * (R(q) @ (accel - accel_bias) + g)
    """
    dt = _check_dt(dt)
    specific_force = np.asarray(accel, dtype=float) - np.asarray(accel_bias, dtype=float)
    g = gravity.vector if isinstance(gravity, GravityModel) else np.asarray(gravity, dtype=float)
    return np.asarray(v, dtype=float) + dt * (quat_to_rotation(q) @ specific_force + g)


def propagate_position(p, v, dt) -> np.ndarray:
    """p' = p + dt * v."""
    dt = _check_dt(dt)
    return np.asarray(p, dtype=float) + dt * np.asarray(v, dtype=float)


def preintegrate_burst(state: NavState, burst, biases: ImuBiases, gravity: GravityModel,
                       t_start: float) -> NavState:
    """Propagate a NavState through an ordered (M, 7) IMU burst.

    Per-row dt comes from timestamp differences; the first row's dt is
    measured from ``t_start`` (the preceding epoch boundary).  Each row
    applies the expressions of ``propagate_position``, ``propagate_velocity``
    and ``propagate_orientation`` with one ``_check_dt`` per row.  Empty
    bursts return a copy of the input state.
    """
    q = state.orientation.copy()
    v = state.velocity.copy()
    p = state.position.copy()
    g = gravity.vector
    t_prev = float(t_start)
    for row in burst:
        dt = _check_dt(row[0] - t_prev)
        specific_force = row[1:4] - biases.accel
        rate = row[4:7] - biases.gyro
        increment = np.concatenate(([1.0], 0.5 * dt * rate))
        p, v, q = (p + dt * v,
                   v + dt * (quat_to_rotation(q) @ specific_force + g),
                   quat_normalize(quat_product(q, increment)))
        t_prev = row[0]
    return NavState(p, v, q)


def _strapdown(p, v, R, dts, accel, g):
    """Positions and velocities at the M+1 sample boundaries, each (M+1, 3).

    R[k] is the attitude at the start of sample k; the updates are those of
    ``propagate_position`` and ``propagate_velocity``, accumulated in sample
    order by ``cumsum``, in place.
    """
    vs = np.empty((len(dts) + 1, 3))
    vs[0] = v
    vs[1:] = dts[:, None] * (ordered_matmul(R, accel[:, :, None])[:, :, 0] + g)
    np.cumsum(vs, axis=0, out=vs)
    ps = np.empty_like(vs)
    ps[0] = p
    np.multiply(dts[:, None], vs[:-1], out=ps[1:])
    np.cumsum(ps, axis=0, out=ps)
    return ps, vs


@dataclass(frozen=True)
class BurstInput:
    """Every IMU burst of a run, preintegrated once: row j is the window input
    from epoch j-1 (``t_prev`` for j = 0) to epoch j, biases subtracted.

    ``rot_increment`` is the product of the increments (1, dt_i/2 * gyro_i), and
    renormalizing only rescales, so ``normalize(q * rot_increment)`` propagates
    ``q`` through the burst.  With a_i = R(P_{i-1}) @ accel_i, P_{i-1} the unit
    product before sample i, ``body_dv`` is sum_i dt_i a_i and ``duration`` sum_i
    dt_i: the velocity gained from ``q`` is R(q) @ body_dv + duration * g.
    ``body_dp`` is sum_i w_i a_i and ``dp_weight`` sum_i w_i, w_i = dt_i *
    (duration - t_i), t_i the time from the burst start to sample i.
    """

    rot_increment: np.ndarray  # (n, 4)
    body_dv: np.ndarray        # (n, 3)
    duration: np.ndarray       # (n,)
    body_dp: np.ndarray        # (n, 3)
    dp_weight: np.ndarray      # (n,)

    @classmethod
    def from_epochs(cls, epochs, biases: ImuBiases) -> "BurstInput":
        """Preintegrate every epoch's burst, ``_BLOCK`` at a time, each step on all
        bursts of one length at once and rounding as on one burst (sums too),
        so row j equals burst j alone, bit for bit.
        Raises and warns as ``unpack_burst`` and ``unit_rows`` on the running
        products, the last one included, in epoch order; the error of a product
        names the epoch's ``t``.  A non-finite accelerometer reading raises
        NumericalError naming the epoch's ``t`` and the IMU row's, after the
        burst's other checks."""
        table = cls(*(np.empty((len(epochs), *shape)) for shape in [(4,), (3,), (), (3,), ()]))
        for first in range(0, len(epochs), _BLOCK):
            lengths = np.array([len(e.imu_burst) for e in epochs[first:first + _BLOCK]])
            flagged = [table._fill(first + rows, epochs, biases)
                       for rows in map(np.flatnonzero, lengths == np.unique(lengths)[:, None])]
            # Bursts to reject or warn about rerun alone, in epoch order, to raise and warn.
            for e in (epochs[j] for j in np.sort(np.concatenate(flagged))):
                dts, accel, gyro = unpack_burst(e.imu_burst, e.t_prev, biases.gyro, biases.accel)
                try:
                    unit_rows(running_product((1.0, 0.0, 0.0, 0.0), dts, gyro))
                except DegenerateQuaternionError as exc:
                    raise DegenerateQuaternionError(
                        f"IMU burst of the epoch at t={e.t!r}: {exc}") from exc
                bad = np.flatnonzero(~np.isfinite(accel).all(axis=1))
                if bad.size:
                    raise NumericalError(f"IMU burst of the epoch at t={e.t!r}: non-finite "
                                         "accelerometer reading in the IMU row at "
                                         f"t={float(e.imu_burst[bad[0], 0])!r}")
        return table

    def _fill(self, rows, epochs, biases: ImuBiases) -> np.ndarray:
        """Fill ``rows`` (bursts of one length); returns those that may raise or warn."""
        dts, accel, gyro = _columns(np.stack([epochs[j].imu_burst for j in rows]),
                                    [[float(epochs[j].t_prev)] for j in rows],
                                    biases.gyro, biases.accel)
        # (B, M, 4) increments (1, h): quat_product by them rounds as running_product.
        increments = np.concatenate((np.ones((*dts.shape, 1)), 0.5 * dts[:, :, None] * gyro),
                                    axis=2)
        products = [np.tile([1.0, 0.0, 0.0, 0.0], (len(rows), 1))]
        # Silent as running_product's float loop; from_epochs refuses non-finite readings.
        with np.errstate(all="ignore"):
            for increment in increments.transpose(1, 0, 2):
                products.append(quat_product(products[-1], increment))
            products = np.stack(products, axis=1)  # (B, M+1, 4)
            norms = row_norms(products)  # an overflowing one is inf, and passes
            prefixes = (products[:, :-1] / norms[:, :-1, None]).reshape(-1, 4)
            body_accel = ordered_matmul(rotation_rows(prefixes), accel.reshape(-1, 3)[:, :, None])
            body_accel = body_accel.reshape(accel.shape)
            duration = dts.sum(axis=1)
            weights = dts * (duration[:, None] - np.cumsum(dts, axis=1))
            self.body_dv[rows] = ordered_matmul(dts[:, None, :], body_accel)[:, 0, :]
            self.body_dp[rows] = ordered_matmul(weights[:, None, :], body_accel)[:, 0, :]
        self.rot_increment[rows], self.duration[rows] = products[:, -1], duration
        self.dp_weight[rows] = weights.sum(axis=1)
        return rows[~(dts > 0.0).all(axis=1) | ~(norms > _NORM_EPS).all(axis=1)
                    | (np.max(dts, axis=1, initial=0.0) > _DT_WARN)
                    | ~np.isfinite(accel).all(axis=(1, 2))]


def dead_reckon(nav: NavState, bursts: BurstInput, k: int, g: np.ndarray) -> NavState:
    """``preintegrate_burst`` of ``nav`` over burst k of ``bursts``, in O(1): the
    Euler position update p_i = p_{i-1} + dt_i * v_{i-1} sums to duration * v +
    sum_i w_i * (R(q) @ a_i + g) = duration * v + R(q) @ body_dp + dp_weight * g
    (see ``BurstInput``)."""
    q, duration = nav.orientation, bursts.duration[k]
    return NavState(
        nav.position + duration * nav.velocity + rotate_vector(q, bursts.body_dp[k])
        + bursts.dp_weight[k] * g,
        nav.velocity + rotate_vector(q, bursts.body_dv[k]) + duration * g,
        quat_product(q, bursts.rot_increment[k]),
    )
