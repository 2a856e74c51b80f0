"""Shared test helpers: random rotations, skew matrices, finite differences, tiny streams."""

from __future__ import annotations

import numpy as np
import pytest


def random_unit_quat(rng: np.random.Generator) -> np.ndarray:
    """Uniform random unit quaternion (scalar-first)."""
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def skew(v) -> np.ndarray:
    """[v]x of a 3-vector: skew(v) @ u is the cross product v x u."""
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def central_difference(fun, x, eps: float = 1e-6) -> np.ndarray:
    """Dense central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x), dtype=float)
    J = np.zeros((f0.size, x.size))
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = eps
        J[:, j] = (np.asarray(fun(x + step)) - np.asarray(fun(x - step))) / (2 * eps)
    return J


def make_streams(duration=2.0, imu_rate=100.0, meas_rate=5.0, accel=(0.0, 0.0, -9.81),
                 gyro=(0.0, 0.0, 0.0), velocity=(0.0, 0.0, 0.0)):
    """Constant-reading IMU/DVL/AHRS stream arrays for synchronization tests."""
    n_imu = int(round(duration * imu_rate))
    imu = np.array([[(i + 1) / imu_rate, *accel, *gyro] for i in range(n_imu)])
    n_meas = int(round(duration * meas_rate))
    meas_t = [(k + 1) / meas_rate for k in range(n_meas)]
    dvl = np.array([[t, *velocity] for t in meas_t])
    ahrs = np.array([[t, 1.0, 0.0, 0.0, 0.0] for t in meas_t])
    return imu, dvl, ahrs


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
