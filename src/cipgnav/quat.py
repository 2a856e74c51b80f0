"""Scalar-first Hamilton quaternions and small rotation helpers.

Quaternions are plain numpy arrays ``[w, x, y, z]``.  A unit quaternion q
represents the attitude of the body frame; ``quat_to_rotation(q)`` maps
body-frame vectors into the navigation frame.  q and -q encode the same
rotation (double cover), so angular distances are computed on the quotient.

Each quaternion and rotation formula of the package is written here once.
``quat_product``, ``quat_to_rotation``, ``quat_from_rotvec``, ``quat_from_yaw``,
``quat_from_euler``, ``quat_angular_distance``, ``rotate_vector`` and
``quat_right_matrix`` also take rows, (n, 4), (n, 3) or (n,), and row k equals
the call on row k bit for bit, signed zeros included (``np.array_equal``
ignores their sign, ``np.signbit`` does not); ``row_norms``, ``unit_rows`` and
``rotation_rows`` are the kernels under them.  Every sum of products that a
result is built from (a row norm, a dot or a small stacked matrix product) is
summed in index order by elementwise multiply and add (``ordered_matmul``),
which no BLAS kernel, memory layout or SIMD width rounds differently.  One
value skips the row machinery, whose numpy calls cost more than their
arithmetic: ``rotation_rows``, ``quat_product``, ``quat_from_rotvec``,
``quat_to_rotvec`` and ``rotation_to_quat`` run on Python floats, which round
as numpy does (``rotation_entries`` and ``product_entries`` are those paths for
a caller on floats), and a norm of floats is ``_norm``, the same ordered sum.
One rotation vector's cos and sin are math's, which matched numpy's on every
one of 700,000 draws on an AVX-512 x86-64 host with numpy 2.4; arctan2 stays
numpy's, as math's differed from it on about 1.5% of draws there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateQuaternionError

__all__ = [
    "quat_normalize",
    "ordered_matmul",
    "row_norms",
    "unit_rows",
    "quat_product",
    "product_entries",
    "quat_multiply",
    "quat_conjugate",
    "quat_to_rotation",
    "rotation_rows",
    "rotation_entries",
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
]

_NORM_EPS = 1e-12
_EYE3 = np.eye(3)
_ORTHO_TOL = 1e-6 + 1e-5 * _EYE3


def _as_finite(q, name):
    q = np.asarray(q, dtype=float)
    if not np.isfinite(q).all():
        raise ValueError(f"non-finite {name}: {q!r}")
    return q


def quat_normalize(q) -> np.ndarray:
    """Scale a 4-vector to unit norm, preserving its sign.

    Raises DegenerateQuaternionError on a non-finite component, a norm of at
    most ``_NORM_EPS`` or a norm that overflows (components of 1e154 or more).
    """
    q = np.asarray(q, dtype=float)
    n = _norm(q.tolist())  # NaN or inf for a non-finite component
    if not _NORM_EPS < n < math.inf:
        if not np.isfinite(q).all():
            raise DegenerateQuaternionError(f"non-finite quaternion: {q!r}")
        raise DegenerateQuaternionError(f"cannot normalize quaternion with norm {n:.3e}")
    return q / n


def _norm(v) -> float:
    """The norm of a vector of Python floats: the square root of its sum of squares
    in index order, as ``row_norms`` rounds a row."""
    total = 0.0  # adds nothing: a square is never -0.0
    for x in v:
        total += x * x
    return math.sqrt(total)


def _ordered_sum(P) -> np.ndarray:
    """The sum over the last axis of P in index order, ((P_0 + P_1) + P_2) + ...,
    and 0.0 over an empty axis, as numpy's matmul gives it."""
    if not P.shape[-1]:
        return np.zeros(P.shape[:-1])
    total = P[..., 0]
    for i in range(1, P.shape[-1]):
        total = total + P[..., i]
    return total


def ordered_matmul(A, B) -> np.ndarray:
    """``A @ B`` over the last two axes, broadcast over the others, each entry the
    sum of its products in index order by elementwise multiply and add: no BLAS
    kernel, memory layout or SIMD width changes its bits, and a Python-float sum
    in the same order equals it."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    return _ordered_sum(A[..., :, None, :] * B.swapaxes(-1, -2)[..., None, :, :])


def row_norms(X) -> np.ndarray:
    """Norms of the rows of an (n, k) array (0-d for one k-vector): the square root
    of ``ordered_matmul(x[None], x[:, None])``, and of ``_norm`` of the floats."""
    X = np.asarray(X, dtype=float)
    return np.sqrt(_ordered_sum(X * X))


def unit_rows(Y):
    """Rows Y_j / |Y_j| of an (M, n) array and the norms |Y_j|, guarded like quat_normalize.

    An infinite norm passes: a caller that needs finite rows checks the norms.
    """
    Y = np.asarray(Y, dtype=float)
    norms = row_norms(Y)
    if not (norms > _NORM_EPS).all():  # also catches NaN
        raise DegenerateQuaternionError(
            f"cannot normalize quaternion with norm {norms.min():.3e}")
    return Y / norms[:, None], norms


def _components(X):
    """One vector's components as Python floats (cheaper than numpy scalars, and
    rounded alike), or the columns of (n, k) rows."""
    X = np.asarray(X, dtype=float)
    return X.tolist() if X.ndim == 1 else X.T


def _stack_last(*components) -> np.ndarray:
    """Components (floats, or equal-shape arrays) stacked along a new last axis."""
    if isinstance(components[0], float):
        return np.array(components)
    return np.stack(components, axis=-1)


def quat_product(a, b) -> np.ndarray:
    """Hamilton product a*b without renormalization (inputs may be non-unit), or of rows."""
    return _stack_last(*product_entries(_components(a), _components(b)))


def product_entries(a, b) -> list:
    """The 4 components of the Hamilton product a*b of two quaternions given as 4
    Python floats each, on Python floats: ``quat_product`` of one pair.  The same
    expressions evaluate columns of rows for ``quat_product``."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return [
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ]


def quat_multiply(a, b) -> np.ndarray:
    """Hamilton product of two unit quaternions, renormalized."""
    a = _as_finite(a, "left quaternion")
    b = _as_finite(b, "right quaternion")
    return quat_normalize(quat_product(a, b))


def quat_conjugate(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


# Entry (i, j) of R(q) is BASE + OUTER * (qq[A] + INNER * qq[B]) with qq = 2 q q^T
# flattened; e.g. R[0, 1] = 2xy - 2wz, R[0, 0] = 1 - (2yy + 2zz).  BASE is -0.0 off
# the diagonal, which adds nothing to any value, -0.0 included.
_ROT_A = np.array([10, 6, 7, 6, 5, 11, 7, 11, 5])
_ROT_B = np.array([15, 3, 2, 3, 15, 1, 2, 1, 10])
_ROT_INNER = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
_ROT_BASE = np.where(_EYE3, 1.0, -0.0).ravel()
_ROT_OUTER = np.where(_EYE3, -1.0, 1.0).ravel()


def rotation_entries(q) -> list:
    """The 9 entries, row-major, of the rotation matrix of a unit quaternion given
    as 4 Python floats, on Python floats: ``rotation_rows`` of one value.

    These are the table's expressions written out: the products (2 q_a) q_b of
    qq, and multiplications by +-1 and additions of -0.0, which are exact, left out.
    """
    w, x, y, z = q
    w2, x2, y2, z2 = 2.0 * w, 2.0 * x, 2.0 * y, 2.0 * z
    wx, wy, wz, xy, xz, yz = w2 * x, w2 * y, w2 * z, x2 * y, x2 * z, y2 * z
    xx, yy, zz = x2 * x, y2 * y, z2 * z
    return [1.0 - (yy + zz), xy - wz, xz + wy,
            xy + wz, 1.0 - (xx + zz), yz - wx,
            xz - wy, yz + wx, 1.0 - (xx + yy)]


def _unit(y) -> list:
    """A 4-vector of floats over its norm (``_norm``); a norm of at most
    ``_NORM_EPS``, or NaN, raises DegenerateQuaternionError, as in ``unit_rows``."""
    norm = _norm(y)
    if not norm > _NORM_EPS:
        raise DegenerateQuaternionError(f"cannot normalize quaternion with norm {norm:.3e}")
    y0, y1, y2, y3 = y
    return [y0 / norm, y1 / norm, y2 / norm, y3 / norm]


def rotation_rows(unit) -> np.ndarray:
    """Rotation matrices (n, 3, 3) of unit quaternion rows (n, 4), or (3, 3) of one.

    The quaternions are used as given, neither checked nor renormalized.
    """
    unit = np.asarray(unit, dtype=float)
    if unit.ndim == 1:  # the table's expressions on Python floats
        return np.array(rotation_entries(unit.tolist())).reshape(3, 3)
    rows = unit.shape[:-1]
    qq = ((2.0 * unit)[..., :, None] * unit[..., None, :]).reshape(*rows, 16)
    R = _ROT_BASE + _ROT_OUTER * (qq.take(_ROT_A, axis=-1) + _ROT_INNER * qq.take(_ROT_B, axis=-1))
    return R.reshape(*rows, 3, 3)


def quat_to_rotation(q) -> np.ndarray:
    """3x3 rotation matrix (body -> navigation frame) of a quaternion, normalized
    first, or the (n, 3, 3) matrices of (n, 4) rows."""
    q = np.asarray(q, dtype=float)
    return rotation_rows(quat_normalize(q) if q.ndim == 1 else unit_rows(q)[0])


def rotation_to_quat(R) -> np.ndarray:
    """Unit quaternion of a rotation matrix (Shepperd's method, w >= 0)."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"expected 3x3 rotation matrix, got shape {R.shape}")
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R.tolist()
    # |R R^T - I| <= 1e-6 + 1e-5 |I| elementwise, as np.allclose tests it (NaN fails).  A
    # matrix that passes has |det R| near 1, so the sign of the triple product is exact.
    if not (np.abs(R @ R.T - _EYE3) <= _ORTHO_TOL).all() or (
            r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20)
            + r02 * (r10 * r21 - r11 * r20)) < 0.0:
        raise ValueError("matrix is not a rotation: R @ R.T != I or det(R) < 0")
    tr = r00 + r11 + r22
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    elif r00 >= r11 and r00 >= r22:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        q = [(r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s]
    elif r11 >= r22:
        s = math.sqrt(1.0 + r11 - r00 - r22) * 2.0
        q = [(r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s]
    else:
        s = math.sqrt(1.0 + r22 - r00 - r11) * 2.0
        q = [(r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s]
    q = quat_normalize(q)
    return -q if q[0] < 0.0 else q


def quat_angular_distance(a, b):
    """Rotation angle (rad) between two unit quaternions, sign-invariant, or the
    angles of (n, 4) row pairs as an (n,) array.

    Returns ``2*acos(|<a, b>|)`` in [0, pi], treating q and -q as one attitude,
    as ``4*atan2(|a - b|, |a + b|)`` with b on a's hemisphere (acos loses digits near 0).
    Rows use math.atan2, as one value does.
    """
    a, b = (quat_normalize(q) if np.ndim(q) == 1 else unit_rows(q)[0] for q in (a, b))
    b = np.where(_ordered_sum(a * b)[..., None] < 0.0, -b, b)
    num, den = row_norms(a - b), row_norms(a + b)
    if num.ndim == 0:
        return 4.0 * math.atan2(num, den)
    return 4.0 * np.array(list(map(math.atan2, num.tolist(), den.tolist())))


def quat_from_rotvec(v) -> np.ndarray:
    """Unit quaternion for a rotation vector (axis * angle, rad), or for each row.

    A non-finite component, or an angle that overflows, raises ValueError.
    """
    v = np.asarray(v, dtype=float)
    one = v.ndim == 1
    angle = _norm(v.tolist()) if one else row_norms(v)[..., None]
    if not (angle < math.inf if one else (angle < math.inf).all()):  # also NaN
        raise ValueError(f"non-finite rotation vector or angle: {v!r}")
    small = angle < 1e-12
    if one and small:
        return quat_from_rotvec(v[None])[0]
    if one:  # on Python floats; math's cos and sin round as numpy's on the hosts tested
        half = 0.5 * angle
        s = math.sin(half)
        x, y, z = v.tolist()
        return np.array([math.cos(half), s * (x / angle), s * (y / angle), s * (z / angle)])
    if small.any():
        # First-order expansion keeps the map smooth through zero; other rows are exact.
        first = np.concatenate([np.ones_like(angle), 0.5 * v], axis=-1)
        return np.where(small, first / row_norms(first)[..., None],
                        quat_from_rotvec(np.where(small, 1.0, v)))
    half = 0.5 * angle
    return np.concatenate([np.cos(half), np.sin(half) * (v / angle)], axis=-1)


def quat_to_rotvec(q) -> np.ndarray:
    """Rotation vector of a unit quaternion (inverse of quat_from_rotvec), taken on the
    w >= 0 hemisphere; arctan2 is numpy's."""
    w, x, y, z = quat_normalize(q).tolist()
    s = _norm((x, y, z))
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    if s < 1e-12:
        return np.array([2.0 * x, 2.0 * y, 2.0 * z])
    angle = 2.0 * float(np.arctan2(s, min(w, 1.0)))
    return np.array([angle * x / s, angle * y / s, angle * z / s])


def quat_from_yaw(yaw) -> np.ndarray:
    """Quaternion for a rotation of ``yaw`` radians about the +z axis, or a row per yaw."""
    half = 0.5 * np.asarray(yaw, dtype=float)
    zero = np.zeros_like(half)
    return _stack_last(np.cos(half), zero, zero, np.sin(half))


def quat_from_euler(roll, pitch, yaw) -> np.ndarray:
    """Quaternion from intrinsic roll/pitch/yaw (x-y-z, rad), or a row per angle
    triple of equal-shape arrays; inverse of euler_from_quat."""
    hr, hp, hy = (0.5 * np.asarray(angle, dtype=float) for angle in (roll, pitch, yaw))
    cr, sr = np.cos(hr), np.sin(hr)
    cp, sp = np.cos(hp), np.sin(hp)
    cy, sy = np.cos(hy), np.sin(hy)
    return _stack_last(
        cr * cp * cy + sr * sp * sy,
        sr * cp * cy - cr * sp * sy,
        cr * sp * cy + sr * cp * sy,
        cr * cp * sy - sr * sp * cy,
    )


def euler_from_quat(q) -> np.ndarray:
    """Intrinsic roll/pitch/yaw (x-y-z, rad) of a unit quaternion."""
    w, x, y, z = quat_normalize(q)
    roll = np.arctan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    pitch = np.arcsin(np.clip(2.0 * (w * y - z * x), -1.0, 1.0))
    yaw = np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return np.array([roll, pitch, yaw])


def rotate_vector(q, v) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion (body -> navigation frame), or row
    k of an (n, 3) array by row k of an (n, 4) one."""
    return ordered_matmul(quat_to_rotation(q), np.asarray(v, dtype=float)[..., None])[..., 0]


def hemisphere_align(quats) -> np.ndarray:
    """Sign-fix a quaternion sequence so consecutive dots are non-negative.

    The first quaternion keeps its sign; every later one is flipped when its
    dot product with the (already fixed) predecessor is negative: row k keeps
    the sign of row k-1 when the dot d_k of input rows k and k-1 (summed in index
    order) is > 0, flips it when d_k < 0 and resets it to + when d_k is 0 or NaN.
    """
    out = np.array(quats, dtype=float)
    if len(out) > 1:
        dots = _ordered_sum(out[1:] * out[:-1])
        count = np.cumsum(np.concatenate(([0], dots < 0.0)))  # negative dots up to row k
        reset = np.concatenate(([0], np.where((dots < 0.0) | (dots > 0.0), 0, np.arange(1, len(out)))))
        flip = (count - count[np.maximum.accumulate(reset)]) % 2 == 1
        out[flip] = -out[flip]
    return out


# r.take(_RIGHT_INDEX, axis=-1) * _RIGHT_SIGN is [[rw, -rx, -ry, -rz], [rx, rw, rz, -ry],
# [ry, -rz, rw, rx], [rz, ry, -rx, rw]].
_RIGHT_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_RIGHT_SIGN = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, -1.0],
                        [1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0]])


def quat_right_matrix(r) -> np.ndarray:
    """4x4 matrix M with ``M @ q == quat_product(q, r)`` for every q, or (n, 4, 4) of rows."""
    return np.asarray(r, dtype=float).take(_RIGHT_INDEX, axis=-1) * _RIGHT_SIGN

