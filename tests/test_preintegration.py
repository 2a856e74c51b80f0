"""Strapdown propagation kernels against closed-form motion and hand oracles."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from cipgnav.preintegration import (
    GravityModel,
    ImuBiases,
    NavState,
    preintegrate_burst,
    propagate_orientation,
    propagate_position,
    propagate_velocity,
)
from cipgnav.quat import quat_angular_distance, quat_from_yaw, quat_to_rotation
from tests.conftest import random_unit_quat

G = GravityModel()
ZERO_G = GravityModel(np.zeros(3), allow_nonstandard=True)
NO_BIAS = ImuBiases()


class TestGravityModel:
    def test_default_magnitude(self):
        assert G.magnitude == pytest.approx(9.81)

    def test_rejects_implausible_magnitude(self):
        with pytest.raises(ValueError, match="outside"):
            GravityModel(np.array([0.0, 0.0, 1.0]))

    def test_allow_nonstandard(self):
        g = GravityModel(np.array([0.0, 0.0, 1.0]), allow_nonstandard=True)
        assert g.magnitude == pytest.approx(1.0)


class TestNavState:
    def test_normalizes_orientation(self):
        s = NavState(orientation=np.array([2.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(s.orientation, [1.0, 0.0, 0.0, 0.0])

    def test_copy_is_independent(self):
        s = NavState()
        c = s.copy()
        c.position[0] = 5.0
        assert s.position[0] == 0.0

    def test_copy_is_bitwise_equal(self, rng):
        for _ in range(2000):
            s = NavState(rng.normal(size=3), rng.normal(size=3), random_unit_quat(rng))
            c = s.copy()
            assert c.position.tobytes() == s.position.tobytes()
            assert c.velocity.tobytes() == s.velocity.tobytes()
            assert c.orientation.tobytes() == s.orientation.tobytes()


class TestKernels:
    def test_position_rectangle_rule(self):
        np.testing.assert_allclose(
            propagate_position([1.0, 2.0, 3.0], [0.5, -0.5, 0.0], 0.02),
            [1.01, 1.99, 3.0],
        )

    def test_velocity_at_rest_cancels_gravity(self):
        # A stationary accelerometer reads the reaction to gravity; feeding
        # that reading back must leave the velocity unchanged.
        q = np.array([1.0, 0.0, 0.0, 0.0])
        accel = -G.vector
        v = propagate_velocity([0.0, 0.0, 0.0], q, accel, np.zeros(3), G, 0.01)
        np.testing.assert_allclose(v, [0.0, 0.0, 0.0], atol=1e-15)

    def test_velocity_rotates_specific_force(self, rng):
        q = random_unit_quat(rng)
        a = rng.normal(size=3)
        v = propagate_velocity(np.zeros(3), q, a, np.zeros(3), ZERO_G, 0.02)
        np.testing.assert_allclose(v, 0.02 * quat_to_rotation(q) @ a, atol=1e-12)

    def test_bias_subtraction(self, rng):
        bias = rng.normal(size=3)
        v = propagate_velocity(np.zeros(3), [1, 0, 0, 0], bias, bias, ZERO_G, 0.02)
        np.testing.assert_allclose(v, np.zeros(3), atol=1e-15)
        q = propagate_orientation([1, 0, 0, 0], bias, bias, 0.02)
        np.testing.assert_allclose(q, [1, 0, 0, 0], atol=1e-15)

    def test_orientation_constant_rate_matches_closed_form(self):
        # 1 rad/s yaw for 1 s in 1 ms steps: first-order steps accumulate
        # O(dt^2) heading error overall.
        q = np.array([1.0, 0.0, 0.0, 0.0])
        for _ in range(1000):
            q = propagate_orientation(q, [0.0, 0.0, 1.0], np.zeros(3), 1e-3)
        assert quat_angular_distance(q, quat_from_yaw(1.0)) < 1e-6

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            propagate_position(np.zeros(3), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            propagate_orientation([1, 0, 0, 0], np.zeros(3), np.zeros(3), -0.1)

    def test_warns_on_large_dt(self):
        with pytest.warns(UserWarning, match="dt"):
            propagate_position(np.zeros(3), np.zeros(3), 0.5)


class TestBurst:
    def make_burst(self, rng, n=10, t0=0.0, dt=0.01):
        return np.array([
            [t0 + (i + 1) * dt, *rng.normal(size=3), *rng.normal(size=3)] for i in range(n)
        ])

    def test_matches_per_sample_kernels(self, rng):
        burst = self.make_burst(rng)
        biases = ImuBiases(accel=rng.normal(size=3) * 0.01, gyro=rng.normal(size=3) * 0.01)
        state = NavState(rng.normal(size=3), rng.normal(size=3), random_unit_quat(rng))
        out = preintegrate_burst(state, burst, biases, G, t_start=0.0)

        p, v, q = state.position, state.velocity, state.orientation
        t_prev = 0.0
        for row in burst:
            dt = row[0] - t_prev
            p, v, q = (
                propagate_position(p, v, dt),
                propagate_velocity(v, q, row[1:4], biases.accel, G, dt),
                propagate_orientation(q, row[4:7], biases.gyro, dt),
            )
            t_prev = row[0]
        np.testing.assert_allclose(out.position, p, atol=1e-14)
        np.testing.assert_allclose(out.velocity, v, atol=1e-14)
        np.testing.assert_allclose(out.orientation, q, atol=1e-14)

    def test_position_uses_pre_update_velocity(self):
        # Over a single sample the position must advance with the velocity
        # from before the accelerometer update (rectangle rule).
        state = NavState(velocity=np.array([1.0, 0.0, 0.0]))
        burst = np.array([[0.04, 50.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        out = preintegrate_burst(state, burst, NO_BIAS, ZERO_G, t_start=0.0)
        np.testing.assert_allclose(out.position, [0.04, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(out.velocity, [3.0, 0.0, 0.0], atol=1e-12)

    def test_empty_burst_returns_copy(self):
        state = NavState(position=np.array([1.0, 2.0, 3.0]))
        out = preintegrate_burst(state, np.empty((0, 7)), NO_BIAS, G, t_start=0.0)
        np.testing.assert_allclose(out.position, state.position)
        out.position[0] = -1.0
        assert state.position[0] == 1.0

    def test_large_step_warns_once(self, rng):
        burst = np.concatenate([self.make_burst(rng, n=5), self.make_burst(rng, n=5, t0=0.2)])
        assert burst[5, 0] - burst[4, 0] == pytest.approx(0.16)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            preintegrate_burst(NavState(), burst, NO_BIAS, G, t_start=0.0)
        assert len([w for w in caught if "is large" in str(w.message)]) == 1

    def test_free_fall(self):
        # Zero specific force: velocity accumulates exactly g per second.
        burst = np.zeros((100, 7))
        burst[:, 0] = 0.01 * np.arange(1, 101)
        out = preintegrate_burst(NavState(), burst, NO_BIAS, G, t_start=0.0)
        np.testing.assert_allclose(out.velocity, G.vector * 1.0, atol=1e-12)
