"""Strapdown IMU propagation between measurement epochs.

The continuous model, discretized with explicit Euler steps at the IMU rate:

    dq/dt = 0.5 * q * (0, gyro - gyro_bias)
    dv/dt = R(q) @ (accel - accel_bias) + g
    dp/dt = v

All three updates within a sample interval are evaluated from the state at
the start of the interval and then committed together.  The navigation frame
is NED-like with gravity pointing along +z by default, so a stationary
accelerometer reads (0, 0, -|g|).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .quat import quat_normalize, quat_product, quat_to_rotation

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
]

_DT_WARN = 0.05
_GRAVITY_RANGE = (9.7, 9.9)


def _vec3(v, name):
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class ImuBiases:
    """Additive sensor biases, subtracted from raw IMU readings."""

    accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gyro: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "accel", _vec3(self.accel, "accel bias"))
        object.__setattr__(self, "gyro", _vec3(self.gyro, "gyro bias"))


@dataclass(frozen=True)
class GravityModel:
    """Navigation-frame gravity vector.

    The magnitude is required to be Earth-plausible (9.7 to 9.9 m/s^2)
    unless ``allow_nonstandard`` is set, which keeps unit mix-ups loud.
    """

    vector: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 9.81]))
    allow_nonstandard: bool = False

    def __post_init__(self):
        v = _vec3(self.vector, "gravity vector")
        object.__setattr__(self, "vector", v)
        mag = float(np.linalg.norm(v))
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
        self.position = _vec3(self.position, "position")
        self.velocity = _vec3(self.velocity, "velocity")
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
    dts = np.diff(burst[:, 0], prepend=float(t_start))
    bad = np.flatnonzero(dts <= 0.0)
    if bad.size:
        raise ValueError(f"non-positive IMU sample spacing at t={float(burst[bad[0], 0])!r}")
    if dts.size:
        _check_dt(dts.max())
    return dts, burst[:, 1:4] - accel_bias, burst[:, 4:7] - gyro_bias


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
