"""Scalar-first Hamilton quaternions and small rotation helpers.

Quaternions are plain numpy arrays ``[w, x, y, z]``.  A unit quaternion q
represents the attitude of the body frame; ``quat_to_rotation(q)`` maps
body-frame vectors into the navigation frame.  q and -q encode the same
rotation (double cover), so angular distances are computed on the quotient.

Each quaternion and rotation formula of the package is written here once, as
one set of expressions that evaluates either one value's components as Python
floats, which round as numpy does and skip the row machinery whose numpy calls
cost more than their arithmetic, or the columns of rows (``_components``),
stacked back along the last axis: ``product_entries`` serves ``quat_product``
and ``rotation_entries`` serves ``rotation_rows``, and a caller on floats calls
them directly.  ``quat_product``, ``quat_conjugate``, ``quat_to_rotation``,
``rotation_rows`` and ``quat_angular_distance`` take rows of any leading shape,
(..., 4); ``quat_from_rotvec``, ``quat_from_yaw``, ``quat_from_euler`` and
``rotate_vector`` take (n, 4), (n, 3) or (n,) rows.  Row k equals the call on
row k bit for bit, signed zeros included (``np.array_equal`` ignores their
sign, ``np.signbit`` does not); ``row_norms`` and ``unit_rows`` are the kernels
under them.  Every sum of products that a result is built from (a row norm, a
dot or a small stacked matrix product) is summed in index order by
elementwise multiply and add (``ordered_matmul``), which no BLAS kernel,
memory layout or SIMD width rounds differently, and a norm of floats is
``_norm``, the same ordered sum; no norm of the package is numpy's
linear-algebra norm, whose 1-D form is a BLAS dot; this module forms no product
on BLAS.  ``quat_from_rotvec`` on one vector, ``rotation_to_quat`` and
``quat_to_rotvec`` are thin array wrappers around their float forms,
``from_rotvec_entries`` (the rotation-vector map with its first-order branch),
``shepperd_entries`` (whose orthogonality test sums each entry of R R^T in index
order) and ``rotvec_entries``.  No other module writes
a quaternion formula out: the per-sample loops of ``running_product`` and the
filters call the float forms.
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
    "shepperd_entries",
    "quat_angular_distance",
    "quat_from_rotvec",
    "from_rotvec_entries",
    "quat_to_rotvec",
    "rotvec_entries",
    "quat_from_yaw",
    "quat_from_euler",
    "euler_from_quat",
    "rotate_vector",
    "hemisphere_align",
]

_NORM_EPS = 1e-12
_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])  # q * _CONJUGATE is conj(q)
# rotation_to_quat's bounds on |R R^T - I|, 1e-6 + 1e-5 I as np.allclose forms them.
_OFF_DIAG_TOL, _DIAG_TOL = 1e-6, 1e-6 + 1e-5


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
    return q / _checked_norm(q.tolist())


def _checked_norm(q) -> float:
    """``_norm`` of a quaternion given as 4 Python floats, refused as ``quat_normalize``
    refuses it: DegenerateQuaternionError unless ``_NORM_EPS`` < norm < inf."""
    n = _norm(q)  # NaN or inf for a non-finite component
    if not _NORM_EPS < n < math.inf:
        if not all(map(math.isfinite, q)):
            raise DegenerateQuaternionError(f"non-finite quaternion: {np.array(q)!r}")
        raise DegenerateQuaternionError(f"cannot normalize quaternion with norm {n:.3e}")
    return n


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
    """Norms of the rows of an (..., k) array (0-d for one k-vector): the square root
    of ``ordered_matmul(x[None], x[:, None])``, and of ``_norm`` of the floats."""
    X = np.asarray(X, dtype=float)
    return np.sqrt(_ordered_sum(X * X))


def unit_rows(Y):
    """Rows Y_j / |Y_j| of an (..., n) array and the norms |Y_j|, guarded like quat_normalize.

    An infinite norm passes: a caller that needs finite rows checks the norms.
    """
    Y = np.asarray(Y, dtype=float)
    norms = row_norms(Y)
    if not (norms > _NORM_EPS).all():  # also catches NaN
        raise DegenerateQuaternionError(
            f"cannot normalize quaternion with norm {norms.min():.3e}")
    return Y / norms[..., None], norms


def _components(X):
    """One vector's components as Python floats (cheaper than numpy scalars, and
    rounded alike), or the columns of rows (..., k), each of shape (...)."""
    X = np.asarray(X, dtype=float)
    return X.tolist() if X.ndim == 1 else np.moveaxis(X, -1, 0)


def _stack_last(*components) -> np.ndarray:
    """Components (floats, or equal-shape arrays) stacked along a new last axis."""
    if isinstance(components[0], float):
        return np.array(components)
    return np.stack(components, axis=-1)


def quat_product(a, b) -> np.ndarray:
    """Hamilton product a*b without renormalization (inputs may be non-unit), or of
    rows (..., 4): ``product_entries`` on one pair's floats or on the columns."""
    return _stack_last(*product_entries(_components(a), _components(b)))


def product_entries(a, b) -> list:
    """The 4 components of the Hamilton product a*b of two quaternions given as 4
    Python floats each, on Python floats: ``quat_product`` of one pair.  The same
    expressions evaluate the columns of rows for ``quat_product``."""
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
    """Conjugate (w, -x, -y, -z) of a quaternion, or of rows (..., 4)."""
    return np.asarray(q, dtype=float) * _CONJUGATE


def rotation_entries(q) -> list:
    """The 9 entries, row-major, of the rotation matrix of a unit quaternion given
    as 4 Python floats, on Python floats.  The same expressions evaluate the
    columns of rows for ``rotation_rows``.
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
    """Rotation matrices (..., 3, 3) of unit quaternion rows (..., 4), or (3, 3) of
    one: ``rotation_entries`` on their columns, or on one value's floats.

    The quaternions are used as given, neither checked nor renormalized.
    """
    unit = np.asarray(unit, dtype=float)
    return _stack_last(*rotation_entries(_components(unit))).reshape(*unit.shape[:-1], 3, 3)


def quat_to_rotation(q) -> np.ndarray:
    """3x3 rotation matrix (body -> navigation frame) of a quaternion, normalized
    first, or the (..., 3, 3) matrices of rows (..., 4)."""
    q = np.asarray(q, dtype=float)
    return rotation_rows(quat_normalize(q) if q.ndim == 1 else unit_rows(q)[0])


def rotation_to_quat(R) -> np.ndarray:
    """Unit quaternion of a rotation matrix (Shepperd's method, w >= 0): ``shepperd_entries``
    of its 9 entries."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"expected 3x3 rotation matrix, got shape {R.shape}")
    return np.array(shepperd_entries(R.ravel().tolist()))


def shepperd_entries(r) -> list:
    """The unit quaternion (Shepperd's method, w >= 0) of a rotation matrix given as
    its 9 entries, row-major, as Python floats, on Python floats: ``rotation_to_quat``
    of one matrix.  A matrix with |R R^T - I| > 1e-6 + 1e-5 I in an entry (NaN
    included) or with det R < 0 raises ValueError."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    # |R R^T - I| <= 1e-6 + 1e-5 |I| elementwise, as np.allclose tests it, each entry of
    # R R^T summed in index order; R R^T is then exactly symmetric, so six sums cover
    # it.  A matrix that passes has |det R| near 1, so the sign of the triple product
    # is exact.
    if not (abs(r00 * r00 + r01 * r01 + r02 * r02 - 1.0) <= _DIAG_TOL
            and abs(r10 * r10 + r11 * r11 + r12 * r12 - 1.0) <= _DIAG_TOL
            and abs(r20 * r20 + r21 * r21 + r22 * r22 - 1.0) <= _DIAG_TOL
            and abs(r00 * r10 + r01 * r11 + r02 * r12) <= _OFF_DIAG_TOL
            and abs(r00 * r20 + r01 * r21 + r02 * r22) <= _OFF_DIAG_TOL
            and abs(r10 * r20 + r11 * r21 + r12 * r22) <= _OFF_DIAG_TOL) or (
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
    q = _unit(q)
    return [-c for c in q] if q[0] < 0.0 else q


def quat_angular_distance(a, b):
    """Rotation angle (rad) between two unit quaternions, sign-invariant, or the
    angles of (..., 4) row pairs as a (...) array.

    Returns ``2*acos(|<a, b>|)`` in [0, pi], treating q and -q as one attitude,
    as ``4*atan2(|a - b|, |a + b|)`` with b on a's hemisphere (acos loses digits near 0).
    Rows use math.atan2, as one value does.
    """
    a, b = (quat_normalize(q) if np.ndim(q) == 1 else unit_rows(q)[0] for q in (a, b))
    b = np.where(_ordered_sum(a * b)[..., None] < 0.0, -b, b)
    num, den = row_norms(a - b), row_norms(a + b)
    if num.ndim == 0:
        return 4.0 * math.atan2(num, den)
    angles = map(math.atan2, num.ravel().tolist(), den.ravel().tolist())
    return 4.0 * np.array(list(angles)).reshape(num.shape)


def quat_from_rotvec(v) -> np.ndarray:
    """Unit quaternion for a rotation vector (axis * angle, rad), or for each row:
    ``from_rotvec_entries`` of one vector's floats, and its expressions on the
    rows with numpy's cos and sin.

    A non-finite component, or an angle that overflows, raises ValueError.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return np.array(from_rotvec_entries(v.tolist()))
    angle = row_norms(v)[..., None]
    if not (angle < math.inf).all():  # also NaN
        raise ValueError(f"non-finite rotation vector or angle: {v!r}")
    small = angle < 1e-12
    if small.any():
        # First-order expansion keeps the map smooth through zero; other rows are exact.
        first = np.concatenate([np.ones_like(angle), 0.5 * v], axis=-1)
        return np.where(small, first / row_norms(first)[..., None],
                        quat_from_rotvec(np.where(small, 1.0, v)))
    half = 0.5 * angle
    return np.concatenate([np.cos(half), np.sin(half) * (v / angle)], axis=-1)


def from_rotvec_entries(v) -> list:
    """The unit quaternion, as 4 Python floats, of a rotation vector (axis * angle,
    rad) given as 3 Python floats, on Python floats: ``quat_from_rotvec`` of one
    vector, the twin of ``rotvec_entries``.  Below an angle of 1e-12 it is the
    first-order (1, v / 2) over its norm (``_unit``), as the rows take it, and
    otherwise (cos, sin * axis) of the half angle with math's cos and sin.  A
    non-finite component, or an angle that overflows, raises ValueError."""
    angle = _norm(v)
    if not angle < math.inf:  # also NaN
        raise ValueError(f"non-finite rotation vector or angle: {np.array(v)!r}")
    x, y, z = v
    if angle < 1e-12:
        return _unit((1.0, 0.5 * x, 0.5 * y, 0.5 * z))
    half = 0.5 * angle
    s = math.sin(half)
    return [math.cos(half), s * (x / angle), s * (y / angle), s * (z / angle)]


def quat_to_rotvec(q) -> np.ndarray:
    """Rotation vector of a unit quaternion (inverse of quat_from_rotvec): ``rotvec_entries``
    of its 4 components."""
    return np.array(rotvec_entries(np.asarray(q, dtype=float).tolist()))


def rotvec_entries(q) -> list:
    """The rotation vector, as 3 Python floats, of a quaternion given as 4 Python floats,
    normalized (refused as ``quat_normalize`` refuses it) and taken on the w >= 0
    hemisphere: ``quat_to_rotvec`` of one value.  arctan2 is numpy's."""
    n = _checked_norm(q)
    w, x, y, z = [c / n for c in q]
    s = _norm((x, y, z))
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    if s < 1e-12:
        return [2.0 * x, 2.0 * y, 2.0 * z]
    angle = 2.0 * float(np.arctan2(s, min(w, 1.0)))
    return [angle * x / s, angle * y / s, angle * z / s]


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

