"""Quaternion algebra against independent oracles and algebraic identities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipgnav.errors import DegenerateQuaternionError
from cipgnav.quat import (
    euler_from_quat,
    hemisphere_align,
    normalize_jacobian,
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
    rotation_to_quat,
)
from tests.conftest import central_difference, random_unit_quat

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
