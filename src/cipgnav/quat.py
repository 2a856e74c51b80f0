"""Scalar-first Hamilton quaternions and small rotation helpers.

Quaternions are plain numpy arrays ``[w, x, y, z]``.  A unit quaternion q
represents the attitude of the body frame; ``quat_to_rotation(q)`` maps
body-frame vectors into the navigation frame.  q and -q encode the same
rotation (double cover), so angular distances are computed on the quotient.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateQuaternionError

__all__ = [
    "QUAT_IDENTITY",
    "quat_normalize",
    "quat_product",
    "quat_multiply",
    "quat_conjugate",
    "quat_to_rotation",
    "rotation_to_quat",
    "quat_angular_distance",
    "quat_from_rotvec",
    "quat_to_rotvec",
    "quat_from_yaw",
    "quat_from_euler",
    "euler_from_quat",
    "rotate_vector",
    "hemisphere_align",
    "quat_right_matrix",
    "normalize_jacobian",
]

QUAT_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

_NORM_EPS = 1e-12
_EYE3 = np.eye(3)
_ORTHO_TOL = 1e-6 + 1e-5 * _EYE3


def _as_finite(q, name):
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ValueError(f"non-finite {name}: {q!r}")
    return q


def quat_normalize(q) -> np.ndarray:
    """Scale a 4-vector to unit norm, preserving its sign."""
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise DegenerateQuaternionError(f"non-finite quaternion: {q!r}")
    n = float(np.sqrt(q @ q))
    if n <= _NORM_EPS:
        raise DegenerateQuaternionError(f"cannot normalize quaternion with norm {n:.3e}")
    return q / n


def quat_product(a, b) -> np.ndarray:
    """Hamilton product a*b without renormalization (inputs may be non-unit)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product of two unit quaternions, renormalized."""
    a = _as_finite(a, "left quaternion")
    b = _as_finite(b, "right quaternion")
    return quat_normalize(quat_product(a, b))


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_to_rotation(q) -> np.ndarray:
    """3x3 rotation matrix of a unit quaternion (body -> navigation frame)."""
    w, x, y, z = quat_normalize(q)
    return np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )


def rotation_to_quat(R) -> np.ndarray:
    """Unit quaternion of a rotation matrix (Shepperd's method, w >= 0)."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"expected 3x3 rotation matrix, got shape {R.shape}")
    # |R R^T - I| <= 1e-6 + 1e-5 |I| elementwise, as np.allclose tests it (NaN fails).
    if not (np.abs(R @ R.T - _EYE3) <= _ORTHO_TOL).all() or np.linalg.det(R) < 0.0:
        raise ValueError("matrix is not a rotation: R @ R.T != I or det(R) < 0")
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] >= R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    q = quat_normalize(q)
    if q[0] < 0.0:
        q = -q
    return q


def quat_angular_distance(a, b) -> float:
    """Rotation angle (rad) between two unit quaternions, sign-invariant.

    Returns ``2*acos(|<a, b>|)`` in [0, pi], treating q and -q as one attitude,
    as ``4*atan2(|a - b|, |a + b|)`` with b on a's hemisphere (acos loses digits near 0).
    """
    a = quat_normalize(a)
    b = quat_normalize(b)
    b = -b if a @ b < 0.0 else b
    return 4.0 * math.atan2(np.linalg.norm(a - b), np.linalg.norm(a + b))


def quat_from_rotvec(v) -> np.ndarray:
    """Unit quaternion for a rotation vector (axis * angle, rad)."""
    v = _as_finite(v, "rotation vector")
    angle = float(np.linalg.norm(v))
    if angle < 1e-12:
        # First-order expansion keeps the map smooth through zero.
        q = np.concatenate(([1.0], 0.5 * v))
        return quat_normalize(q)
    axis = v / angle
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


def quat_to_rotvec(q) -> np.ndarray:
    """Rotation vector of a unit quaternion (inverse of quat_from_rotvec)."""
    q = quat_normalize(q)
    if q[0] < 0.0:
        q = -q
    w = min(float(q[0]), 1.0)
    vec = q[1:]
    s = float(np.linalg.norm(vec))
    if s < 1e-12:
        return 2.0 * vec
    angle = 2.0 * np.arctan2(s, w)
    return angle * vec / s


def quat_from_yaw(yaw: float) -> np.ndarray:
    """Quaternion for a rotation of ``yaw`` radians about the +z axis."""
    half = 0.5 * float(yaw)
    return np.array([np.cos(half), 0.0, 0.0, np.sin(half)])


def quat_from_euler(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Quaternion from intrinsic roll/pitch/yaw (x-y-z, rad); inverse of euler_from_quat."""
    hr, hp, hy = 0.5 * float(roll), 0.5 * float(pitch), 0.5 * float(yaw)
    cr, sr = np.cos(hr), np.sin(hr)
    cp, sp = np.cos(hp), np.sin(hp)
    cy, sy = np.cos(hy), np.sin(hy)
    return np.array(
        [
            cr * cp * cy + sr * sp * sy,
            sr * cp * cy - cr * sp * sy,
            cr * sp * cy + sr * cp * sy,
            cr * cp * sy - sr * sp * cy,
        ]
    )


def euler_from_quat(q) -> np.ndarray:
    """Intrinsic roll/pitch/yaw (x-y-z, rad) of a unit quaternion."""
    w, x, y, z = quat_normalize(q)
    roll = np.arctan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    pitch = np.arcsin(np.clip(2.0 * (w * y - z * x), -1.0, 1.0))
    yaw = np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return np.array([roll, pitch, yaw])


def rotate_vector(q, v) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion (body -> navigation frame)."""
    return quat_to_rotation(q) @ np.asarray(v, dtype=float)


def hemisphere_align(quats) -> np.ndarray:
    """Sign-fix a quaternion sequence so consecutive dots are non-negative.

    The first quaternion keeps its sign; every later one is flipped when its
    dot product with the (already fixed) predecessor is negative.
    """
    out = np.array(quats, dtype=float)
    for k in range(1, len(out)):
        if float(out[k] @ out[k - 1]) < 0.0:
            out[k] = -out[k]
    return out


def quat_right_matrix(r) -> np.ndarray:
    """4x4 matrix M with ``M @ q == quat_product(q, r)`` for every q."""
    rw, rx, ry, rz = np.asarray(r, dtype=float)
    return np.array(
        [
            [rw, -rx, -ry, -rz],
            [rx, rw, rz, -ry],
            [ry, -rz, rw, rx],
            [rz, ry, -rx, rw],
        ]
    )


def normalize_jacobian(y) -> np.ndarray:
    """Jacobian of y -> y/|y| evaluated at y (any dimension)."""
    y = np.asarray(y, dtype=float)
    n = float(np.linalg.norm(y))
    if n <= _NORM_EPS:
        raise DegenerateQuaternionError("normalize() is not differentiable at the origin")
    u = y / n
    return (np.eye(len(y)) - np.outer(u, u)) / n
