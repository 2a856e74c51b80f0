"""Quaternion algebra against independent oracles and algebraic identities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipgnav.errors import DegenerateQuaternionError
from cipgnav.preintegration import NavState
from cipgnav.quat import (
    _norm,
    _unit,
    euler_from_quat,
    hemisphere_align,
    ordered_matmul,
    quat_angular_distance,
    quat_conjugate,
    quat_from_euler,
    quat_from_rotvec,
    quat_from_yaw,
    quat_normalize,
    quat_product,
    quat_right_matrix,
    quat_to_rotation,
    quat_to_rotvec,
    rotate_vector,
    rotation_rows,
    rotation_to_quat,
    row_norms,
    unit_rows,
)
from tests.conftest import central_difference, random_unit_quat
from tests import oracles
from tests.oracles import float_dot, float_matmul, float_norm, normalize_jacobian

unit_quats = st.builds(
    lambda seed: random_unit_quat(np.random.default_rng(seed)),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def product_oracle(a, b):
    """Hamilton product via the explicit 4x4 left-multiplication matrix."""
    w, x, y, z = a
    L = np.array(
        [
            [w, -x, -y, -z],
            [x, w, -z, y],
            [y, z, w, -x],
            [z, -y, x, w],
        ]
    )
    return L @ np.asarray(b, dtype=float)


class TestProduct:
    def test_matches_left_matrix_oracle(self, rng):
        for _ in range(50):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            np.testing.assert_allclose(quat_product(a, b), product_oracle(a, b), atol=1e-12)

    def test_identity_element(self):
        q = np.array([0.5, 0.5, 0.5, 0.5])
        e = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(quat_product(e, q), q)
        np.testing.assert_allclose(quat_product(q, e), q)

    def test_conjugate_gives_inverse(self, rng):
        q = random_unit_quat(rng)
        np.testing.assert_allclose(
            quat_product(q, quat_conjugate(q)), [1.0, 0.0, 0.0, 0.0], atol=1e-12
        )

    @given(unit_quats, unit_quats)
    @settings(max_examples=50, deadline=None)
    def test_norm_multiplicative(self, a, b):
        assert np.linalg.norm(quat_product(a, b)) == pytest.approx(1.0, abs=1e-12)

    def test_right_matrix_identity(self, rng):
        for _ in range(20):
            q = rng.normal(size=4)
            r = rng.normal(size=4)
            np.testing.assert_allclose(
                quat_right_matrix(r) @ q, quat_product(q, r), atol=1e-12
            )


class TestRotation:
    def test_rotation_matches_conjugation(self, rng):
        for _ in range(20):
            q = random_unit_quat(rng)
            v = rng.normal(size=3)
            pure = np.concatenate(([0.0], v))
            conj = quat_product(quat_product(q, pure), quat_conjugate(q))[1:]
            np.testing.assert_allclose(quat_to_rotation(q) @ v, conj, atol=1e-12)
            np.testing.assert_allclose(rotate_vector(q, v), conj, atol=1e-12)

    def test_yaw_quarter_turn(self):
        q = quat_from_yaw(np.pi / 2)
        np.testing.assert_allclose(rotate_vector(q, [1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)

    @given(unit_quats, unit_quats)
    @settings(max_examples=50, deadline=None)
    def test_homomorphism(self, a, b):
        np.testing.assert_allclose(
            quat_to_rotation(quat_product(a, b)),
            quat_to_rotation(a) @ quat_to_rotation(b),
            atol=1e-10,
        )

    def test_matrix_round_trip_all_branches(self, rng):
        # One quaternion dominated by each component exercises every branch
        # of the matrix-to-quaternion extraction.
        candidates = [
            np.array([0.9, 0.1, -0.2, 0.3]),
            np.array([0.1, 0.9, 0.2, -0.3]),
            np.array([-0.1, 0.2, 0.9, 0.3]),
            np.array([0.1, -0.2, 0.3, 0.9]),
        ]
        candidates += [random_unit_quat(rng) for _ in range(30)]
        for q in candidates:
            q = q / np.linalg.norm(q)
            q2 = rotation_to_quat(quat_to_rotation(q))
            assert quat_angular_distance(q, q2) < 1e-9

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            rotation_to_quat(2.0 * np.eye(3))

    @pytest.mark.parametrize("R", [np.full((3, 3), np.nan), np.diag([1.0, 1.0, -1.0])],
                             ids=["nan", "reflection"])
    def test_rejects_nan_and_reflection(self, R):
        with pytest.raises(ValueError):
            rotation_to_quat(R)


def shepperd_oracle(R):
    """rotation_to_quat as it was written on numpy scalars, with np.linalg.det: the
    oracle of the version on Python floats, refusals included."""
    R = np.asarray(R, dtype=float)
    if not (np.abs(R @ R.T - np.eye(3)) <= 1e-6 + 1e-5 * np.eye(3)).all() \
            or np.linalg.det(R) < 0.0:
        raise ValueError("matrix is not a rotation")
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
    return -q if q[0] < 0.0 else q


def shepperd_branch(R) -> int:
    """Which of the oracle's four branches R takes (0: trace > 0)."""
    d = np.diag(R)
    return 0 if d.sum() > 0.0 else 1 + int(np.argmax(d))


class TestRotationToQuatOracle:
    """rotation_to_quat on Python floats against the numpy-scalar oracle, bit for bit."""

    @staticmethod
    def assert_same_outcome(R):
        try:
            expected = shepperd_oracle(R)
        except ValueError:
            with pytest.raises(ValueError, match="not a rotation"):
                rotation_to_quat(R)
            return "refused"
        assert same_bits(rotation_to_quat(R), expected)
        return "accepted"

    def test_every_branch(self, rng):
        # One quaternion dominated by each component, plus random ones; as
        # matrices and as transposed views.
        branches = set()
        for dominant in range(4):
            for _ in range(100):
                q = 0.2 * rng.normal(size=4)
                q[dominant] = rng.choice([-1.0, 1.0])
                R = quat_to_rotation(q)
                branches.add(shepperd_branch(R))
                assert self.assert_same_outcome(R) == "accepted"
                assert self.assert_same_outcome(R.T) == "accepted"
        assert branches == {0, 1, 2, 3}

    def test_signed_zeros(self):
        # Half and quarter turns about the axes, whose exact zeros reach the
        # quaternion through differences and sums, with every sign of zero.
        matrices = [np.diag(d) for d in ([1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                                         [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0])]
        matrices += [quat_to_rotation(q) for q in ([1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0],
                                                   [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0])]
        branches = set()
        for R in matrices:
            for zero in (0.0, -0.0):
                signed = np.where(R == 0.0, zero, R)
                branches.add(shepperd_branch(signed))
                assert self.assert_same_outcome(signed) == "accepted"
                assert self.assert_same_outcome(signed.T) == "accepted"
        assert branches == {0, 1, 2, 3}

    @pytest.mark.parametrize("perturb", ["scale", "off-diagonal"])
    def test_orthogonality_tolerance_boundary(self, rng, perturb):
        # The last perturbation the oracle accepts and the next float after it.
        R0 = quat_to_rotation(random_unit_quat(rng))

        def perturbed(eps):
            if perturb == "scale":
                return (1.0 + eps) * R0
            R = R0.copy()
            R[0, 1] += eps
            return R

        lo, hi = 0.0, 1e-4
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            try:
                shepperd_oracle(perturbed(mid))
                lo = mid
            except ValueError:
                hi = mid
        assert self.assert_same_outcome(perturbed(lo)) == "accepted"
        assert self.assert_same_outcome(perturbed(hi)) == "refused"
        # A reflection just inside the tolerance is refused for its determinant.
        assert self.assert_same_outcome(-perturbed(lo)) == "refused"
        assert self.assert_same_outcome(np.diag([1.0, 1.0, -1.0])) == "refused"


class TestRotvec:
    def test_round_trip(self, rng):
        for scale in (1e-12, 1e-6, 0.1, 1.0, 3.0):
            v = scale * (rng.normal(size=3) / np.linalg.norm(rng.normal(size=3)))
            np.testing.assert_allclose(quat_to_rotvec(quat_from_rotvec(v)), v, atol=1e-9)

    def test_known_half_turn(self):
        q = quat_from_rotvec([0.0, 0.0, np.pi / 2])
        np.testing.assert_allclose(
            q, [np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)], atol=1e-15
        )

    def test_zero_vector_is_identity(self):
        np.testing.assert_allclose(quat_from_rotvec([0, 0, 0]), [1, 0, 0, 0])

    @pytest.mark.parametrize("bad", [[np.nan, 0.0, 0.0], [0.0, -np.inf, 0.0], [1e200, 0.0, 0.0]],
                             ids=["nan", "inf", "overflow"])
    @pytest.mark.parametrize("rows", [False, True], ids=["one", "rows"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_from_rotvec_refuses_a_non_finite_angle(self, bad, rows):
        # An overflowing angle once gave a NaN quaternion and a RuntimeWarning.
        v = np.array([[0.1, 0.2, 0.3], bad]) if rows else np.array(bad)
        with pytest.raises(ValueError, match="^non-finite rotation vector or angle: "):
            quat_from_rotvec(v)

    def test_to_rotvec_on_floats_equals_array_form(self, rng):
        # Non-unit scales, both hemispheres, signed zeros, and vector parts below 1e-12.
        Q = rng.normal(size=(600, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (600, 1))
        Q[0::4, 1:] *= 1e-14
        Q[1::4, 0] = -0.0
        Q[2::4, 1:] = [-0.0, 0.0, -0.0]
        for q in Q:
            assert quat_to_rotvec(q).tobytes() == oracles._quat_to_rotvec(q).tobytes()


class TestEuler:
    def test_round_trip(self, rng):
        for _ in range(50):
            roll, pitch, yaw = rng.uniform([-np.pi, -1.4, -np.pi], [np.pi, 1.4, np.pi])
            angles = euler_from_quat(quat_from_euler(roll, pitch, yaw))
            np.testing.assert_allclose(angles, [roll, pitch, yaw], atol=1e-12)

    def test_pure_yaw_matches_quat_from_yaw(self, rng):
        yaw = rng.uniform(-np.pi, np.pi)
        np.testing.assert_allclose(quat_from_euler(0.0, 0.0, yaw), quat_from_yaw(yaw), atol=1e-15)

    def test_axis_conventions(self):
        # Positive roll tips +y toward +z; positive pitch tips +z toward +x.
        np.testing.assert_allclose(
            rotate_vector(quat_from_euler(np.pi / 2, 0, 0), [0, 1, 0]), [0, 0, 1], atol=1e-12
        )
        np.testing.assert_allclose(
            rotate_vector(quat_from_euler(0, np.pi / 2, 0), [0, 0, 1]), [1, 0, 0], atol=1e-12
        )


class TestAngularDistance:
    def test_sign_invariance(self, rng):
        q = random_unit_quat(rng)
        assert quat_angular_distance(q, -q) == pytest.approx(0.0, abs=1e-7)

    def test_equal_quaternions_read_exactly_zero(self, rng):
        # 2*acos(|<q, q>|) reads ~3e-8 rad whenever <q, q> rounds below 1.
        for _ in range(200):
            q = random_unit_quat(rng) * rng.uniform(0.5, 2.0)
            assert quat_angular_distance(q, q) == 0.0
            assert quat_angular_distance(q, -q) == 0.0

    def test_quarter_turn(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = quat_from_yaw(np.pi / 2)
        assert quat_angular_distance(a, b) == pytest.approx(np.pi / 2, abs=1e-12)

    @given(unit_quats, unit_quats, unit_quats)
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        d_ac = quat_angular_distance(a, c)
        d_ab = quat_angular_distance(a, b)
        d_bc = quat_angular_distance(b, c)
        assert d_ac <= d_ab + d_bc + 1e-9


class TestNormalize:
    def test_rejects_zero_and_nonfinite(self):
        with pytest.raises(DegenerateQuaternionError):
            quat_normalize([0.0, 0.0, 0.0, 0.0])
        with pytest.raises(DegenerateQuaternionError):
            quat_normalize([np.nan, 0.0, 0.0, 1.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_overflowing_norm(self):
        # |q|^2 of a 1e200 component overflows; q / inf once came back as a zero "unit" quaternion.
        with pytest.raises(DegenerateQuaternionError, match="norm inf"):
            quat_normalize(np.array([1e200, 0.0, 0.0, 0.0]))
        with pytest.raises(DegenerateQuaternionError):
            NavState(orientation=[1e160, 1e160, 0.0, 0.0])
        # unit_rows lets an infinite norm through for its callers to check.
        assert np.isinf(unit_rows(np.array([[1e200, 0.0, 0.0, 0.0]]))[1][0])

    def test_unit_output(self, rng):
        q = quat_normalize(5.0 * random_unit_quat(rng))
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-15)

    def test_jacobian_matches_finite_differences(self, rng):
        for _ in range(10):
            y = rng.normal(size=4) * rng.uniform(0.5, 2.0)
            J = normalize_jacobian(y)
            J_fd = central_difference(lambda x: x / np.linalg.norm(x), y)
            np.testing.assert_allclose(J, J_fd, atol=1e-8)


class TestHemisphereAlign:
    def test_restores_continuity(self, rng):
        quats = []
        q = np.array([1.0, 0.0, 0.0, 0.0])
        for _ in range(20):
            q = quat_normalize(quat_product(q, quat_from_rotvec(0.01 * rng.normal(size=3))))
            quats.append(q.copy())
        quats = np.array(quats)
        flipped = quats.copy()
        flipped[1::3] *= -1.0
        aligned = hemisphere_align(flipped)
        np.testing.assert_allclose(aligned, quats, atol=1e-12)
        dots = np.sum(aligned[1:] * aligned[:-1], axis=1)
        assert np.all(dots >= 0.0)

    @staticmethod
    def loop_oracle(quats):
        """The per-row loop hemisphere_align replaced: the reference, bit for bit."""
        out = np.array(quats, dtype=float)
        for k in range(1, len(out)):
            if float_dot(out[k], out[k - 1]) < 0.0:
                out[k] = -out[k]
        return out

    def test_matches_loop_on_random_sequences(self, rng):
        # Half the rows are made orthogonal to their predecessor, so that their
        # dots are about 1e-17 and rounding decides the sign; some components
        # are +0.0 or -0.0 and some rows NaN, which reset the running sign.
        for _ in range(500):
            n = int(rng.integers(2, 40))
            q = rng.normal(size=(n, 4)) * rng.choice([-1.0, 1.0], size=(n, 1))
            for k in np.flatnonzero(rng.random(n - 1) < 0.5) + 1:
                q[k] -= float_dot(q[k], q[k - 1]) / float_dot(q[k - 1], q[k - 1]) * q[k - 1]
            q[rng.random((n, 4)) < 0.05] = 0.0
            q[rng.random((n, 4)) < 0.05] = -0.0
            if rng.random() < 0.2:
                q[rng.integers(n)] = np.nan
            assert hemisphere_align(q).tobytes() == self.loop_oracle(q).tobytes()

    @pytest.mark.parametrize("rows", [
        np.zeros((0, 4)),
        [[-0.5, 0.5, -0.5, 0.5]],
        # Sign runs: a chain of flips, a -0.0 dot, a +0.0 dot, and flips after each reset.
        [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
         [-1.0, 0.1, 0.0, 0.0], [0.0, -0.0, 1.0, 0.0], [-0.0, 0.0, -1.0, 0.0],
         [-0.5, -0.5, -0.5, -0.5], [0.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
         [1.0, 0.0, 0.0, 0.0]],
        # Exact dots: -0.0 (every product -0.0) and +0.0 between rows 1-2 and 2-3.
        [[1.0, 1.0, 1.0, 1.0], [-0.0, -0.0, -0.0, -0.0], [-1.0, -1.0, -1.0, -1.0],
         [1.0, 1.0, 1.0, 1.0]],
    ], ids=["no-rows", "one-row", "sign-runs", "signed-zero-dots"])
    def test_matches_loop_on_edge_sequences(self, rows):
        got = hemisphere_align(rows)
        assert got.shape == np.shape(rows)
        assert got.tobytes() == self.loop_oracle(rows).tobytes()


def same_bits(a, b) -> bool:
    """Equal shapes and values, signed zeros included (np.array_equal ignores their sign)."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def rotation_formula(q):
    """R(q) of a unit quaternion by the textbook formulas, the oracle of the table kernel."""
    w, x, y, z = q
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])


def rotvec_formula(v):
    """quat_from_rotvec of one vector on Python floats, with its first-order branch."""
    angle = float_norm(v)
    if angle < 1e-12:
        q = np.concatenate(([1.0], 0.5 * v))
        return q / float_norm(q)
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * (v / angle)))


def angle_formula(a, b):
    """quat_angular_distance of one pair as documented, with dots and norms on floats."""
    a, b = quat_normalize(a), quat_normalize(b)
    b = -b if float_dot(a, b) < 0.0 else b
    return 4.0 * math.atan2(float_norm(a - b), float_norm(a + b))


def euler_formula(roll, pitch, yaw):
    """quat_from_euler of one angle triple on numpy scalars from Python floats."""
    hr, hp, hy = 0.5 * float(roll), 0.5 * float(pitch), 0.5 * float(yaw)
    cr, sr, cp, sp = np.cos(hr), np.sin(hr), np.cos(hp), np.sin(hp)
    cy, sy = np.cos(hy), np.sin(hy)
    return np.array([cr * cp * cy + sr * sp * sy, sr * cp * cy - cr * sp * sy,
                     cr * sp * cy + sr * cp * sy, cr * cp * sy - sr * sp * cy])


@pytest.fixture(params=["contiguous", "transposed-view"])
def layout(request):
    """Rows as a C-contiguous array, or as the transposed view of a (k, n) array."""
    if request.param == "contiguous":
        return np.ascontiguousarray
    return lambda X: np.ascontiguousarray(np.asarray(X).T).T


def quat_rows(rng, n=300):
    """Non-unit and unit quaternions, yaw-only ones with every sign of (w, z),
    their negatives (-0.0 components) and a few with signed zeros."""
    yaw = np.array([quat_from_yaw(y) for y in rng.uniform(-4.0 * np.pi, 4.0 * np.pi, n)])
    return np.vstack([
        rng.normal(size=(n, 4)) * rng.uniform(0.01, 100.0, size=(n, 1)),
        [random_unit_quat(rng) for _ in range(n)],
        yaw, -yaw,
        [[-0.0, 1.0, 0.0, 0.0], [0.0, -0.0, 0.0, -1.0], [-1.0, -0.0, 0.0, -0.0]],
    ])


def rotvec_rows(rng, n=200):
    """Rotation vectors: zero, -0.0, under, at and just over 1e-12 rad, small and large."""
    return np.vstack([
        [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e-12, 0.0, 0.0], [0.0, -9.9e-13, 0.0],
         [0.0, 0.0, 1.01e-12]],
        1e-13 * rng.normal(size=(n, 3)),
        0.01 * rng.normal(size=(n, 3)),
        3.0 * rng.normal(size=(n, 3)),
    ])


class TestOrderedMatmul:
    """ordered_matmul against products summed in index order on Python floats, entry
    by entry, broadcast over the leading axes, on either memory layout."""

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3, 3), (3, 1)), ((4, 4), (4, 4)), ((7, 1, 4), (7, 4, 4)), ((2, 3), (5, 3, 4)),
        ((6, 2, 10), (6, 10, 3)), ((3, 9, 1, 4), (3, 9, 4, 4)), ((5, 3, 0), (5, 0, 2)),
    ])
    def test_entries_are_ordered_float_sums(self, rng, layout, a_shape, b_shape):
        # Magnitudes over 16 decades with both signs, so that the order of the
        # sum decides the last bits, and a tenth of the entries +0.0 or -0.0.
        A, B = (rng.normal(size=s) * 10.0 ** rng.uniform(-8.0, 8.0, s) for s in (a_shape, b_shape))
        for X in (A, B):
            zero = rng.random(X.shape) < 0.1
            X[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        batch = np.broadcast_shapes(a_shape[:-2], b_shape[:-2])
        pairs = zip(*(np.broadcast_to(X, batch + X.shape[-2:]).reshape(
            math.prod(batch), *X.shape[-2:]) for X in (A, B)))
        expected = np.array([float_matmul(a, b) for a, b in pairs]).reshape(
            batch + (a_shape[-2], b_shape[-1]))
        assert same_bits(ordered_matmul(layout(A), layout(B)), expected)

    def test_signed_zero_sums(self):
        # -0.0 + -0.0 is -0.0 and -0.0 + 0.0 is 0.0; an empty sum is 0.0.
        A = np.array([[-0.0, 1.0], [0.0, 1.0]])
        assert same_bits(ordered_matmul(A, [[1.0], [-0.0]]), [[-0.0], [0.0]])
        assert same_bits(ordered_matmul(np.zeros((2, 0)), np.zeros((0, 3))), np.zeros((2, 3)))


class TestRowKernels:
    """Each row form equals the per-row call bit for bit, on either memory layout."""

    def test_row_norms_round_as_the_scalar_norms(self, rng, layout):
        for X in (quat_rows(rng), rotvec_rows(rng)):
            norms = row_norms(layout(X))
            assert norms.shape == (len(X),)
            assert same_bits(norms, [float_norm(x) for x in X])
            assert same_bits(norms, [_norm(x.tolist()) for x in X])  # the float form
            assert same_bits(row_norms(X[7]), float_norm(X[7]))

    def test_unit_rows_equal_quat_normalize(self, rng, layout):
        Q = quat_rows(rng)
        unit, norms = unit_rows(layout(Q))
        assert same_bits(unit, [quat_normalize(q) for q in Q])
        assert same_bits(unit, [_unit(q.tolist()) for q in Q])  # the float form
        assert same_bits(norms, [float_norm(q) for q in Q])
        with pytest.raises(DegenerateQuaternionError):
            unit_rows(np.vstack([Q[:3], np.zeros(4)]))

    def test_quat_product(self, rng, layout):
        A = quat_rows(rng)
        B = A[rng.permutation(len(A))]
        P = quat_product(layout(A), layout(B))
        assert same_bits(P, [quat_product(a, b) for a, b in zip(A, B)])

    def test_quat_to_rotation(self, rng, layout):
        Q = quat_rows(rng)
        R = quat_to_rotation(layout(Q))
        assert same_bits(R, [quat_to_rotation(q) for q in Q])
        assert same_bits(R, [rotation_formula(quat_normalize(q)) for q in Q])

    def test_rotation_rows_equal_the_formulas_on_unit_rows(self, rng, layout):
        U = unit_rows(quat_rows(rng))[0]
        R = rotation_rows(layout(U))
        assert same_bits(R, [rotation_rows(u) for u in U])
        assert same_bits(R, [rotation_formula(u) for u in U])

    def test_quat_right_matrix(self, rng, layout):
        Q = quat_rows(rng)
        M = quat_right_matrix(layout(Q))
        assert same_bits(M, [quat_right_matrix(r) for r in Q])
        rw, rx, ry, rz = Q[-1]
        assert same_bits(quat_right_matrix(Q[-1]), [[rw, -rx, -ry, -rz], [rx, rw, rz, -ry],
                                                     [ry, -rz, rw, rx], [rz, ry, -rx, rw]])

    def test_quat_from_rotvec(self, rng, layout):
        E = rotvec_rows(rng)
        Q = quat_from_rotvec(layout(E))
        assert same_bits(Q, [quat_from_rotvec(e) for e in E])
        assert same_bits(Q, [rotvec_formula(e) for e in E])

    def test_quat_angular_distance(self, rng, layout):
        A = quat_rows(rng)
        near = A + 1e-6 * rng.normal(size=A.shape)
        B = np.vstack([A[rng.permutation(len(A))], near, A, -A])
        A = np.vstack([A, A, A, A])
        angles = quat_angular_distance(layout(A), layout(B))
        assert angles.shape == (len(A),)
        assert same_bits(angles, [quat_angular_distance(a, b) for a, b in zip(A, B)])
        assert same_bits(angles, [angle_formula(a, b) for a, b in zip(A, B)])
        assert isinstance(quat_angular_distance(A[0], B[0]), float)

    def test_quat_from_yaw(self, rng):
        yaw = np.concatenate([[0.0, -0.0, np.pi, -np.pi], rng.uniform(-20.0, 20.0, 300)])
        Q = quat_from_yaw(yaw)
        assert same_bits(Q, [quat_from_yaw(y) for y in yaw])
        assert same_bits(Q, [[np.cos(0.5 * y), 0.0, 0.0, np.sin(0.5 * y)] for y in yaw])

    def test_quat_from_euler(self, rng, layout):
        E = np.vstack([[[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [np.pi, -np.pi, 0.5 * np.pi]],
                       rng.uniform(-4.0, 4.0, (300, 3)),
                       np.deg2rad(rng.uniform(-180.0, 180.0, (300, 3)))])
        Q = quat_from_euler(*layout(E).T)  # strided columns, or contiguous ones
        assert same_bits(Q, [quat_from_euler(*e) for e in E])
        assert same_bits(Q, [euler_formula(*e) for e in E])

    def test_rotate_vector(self, rng, layout):
        Q = quat_rows(rng)
        V = rng.normal(size=(len(Q), 3)) * rng.uniform(0.01, 100.0, size=(len(Q), 1))
        V[::7] = [0.0, -0.0, 0.0]
        out = rotate_vector(layout(Q), layout(V))
        assert same_bits(out, [rotate_vector(q, v) for q, v in zip(Q, V)])
        assert same_bits(out, [float_matmul(quat_to_rotation(q), v) for q, v in zip(Q, V)])
