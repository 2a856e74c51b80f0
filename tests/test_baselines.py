"""Kalman baselines: hand-computed updates, tracking, and their array-form oracles."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import cipgnav
from cipgnav.baselines import (
    EkfState,
    FilterConfig,
    InekfState,
    _attitude_innovation,
    _check_cov,
    _inekf_measurement,
    _propagate,
    _strapdown,
    ekf_predict,
    ekf_update,
    inekf_predict,
    inekf_update,
    kalman_update,
    run_ekf,
    run_inekf,
)
from cipgnav.cascade import CascadeConfig, run_cascade
from cipgnav.cli import hash_epochs
from cipgnav.errors import DegenerateQuaternionError, NumericalError
from cipgnav.preintegration import (
    BurstInput,
    GravityModel,
    ImuBiases,
    NavState,
    preintegrate_burst,
)
from cipgnav.quat import (
    _norm,
    quat_angular_distance,
    quat_conjugate,
    quat_from_rotvec,
    quat_from_yaw,
    quat_normalize,
    quat_product,
    quat_to_rotation,
    rotvec_entries,
)
from cipgnav.sensors import SyncedEpoch
from cipgnav.sim import NoiseSpec, ScenarioSpec, benchmark_scenario, generate
from tests import oracles
from tests.conftest import central_difference, random_unit_quat, se23_exp, skew

QUIET = NoiseSpec(0.0, 0.0, 0.0, 0.0)
EPS = np.finfo(float).eps


def r_matrix(config):
    """The 6x6 measurement noise covariance of ``config``'s DVL and AHRS updates."""
    return np.diag(np.concatenate([config.r_vel, config.r_att]))


def circle_epochs(duration=20.0, noise=QUIET, seed=0, radius=10.0):
    spec = ScenarioSpec(kind="circle", duration=duration, speed=0.5,
                        circle_radius=radius, noise=noise, seed=seed)
    run = generate(spec)
    return run, run.epochs()


def reference_ekf_predict(state, burst, config, t_start):
    """ekf_predict sample by sample: per-sample F, noise and mean update.  F_k is the
    Jacobian of the sample's mean step in (dtheta_body, dv, dp): its attitude block
    is R_{k+1}^T R_k, the turn the mean applies."""
    p, v, q, P = state.nav.position, state.nav.velocity, state.nav.orientation, state.cov
    g = config.gravity.vector
    Qc = np.diag(np.repeat([config.q_att, config.q_vel, config.q_pos], 3))
    t_prev = t_start
    for row in burst:
        dt = row[0] - t_prev
        R = quat_to_rotation(q)
        a = row[1:4] - config.biases.accel
        w = row[4:7] - config.biases.gyro
        inc = np.concatenate(([1.0], 0.5 * dt * w))
        p, v, q = p + dt * v, v + dt * (R @ a + g), quat_normalize(quat_product(q, inc))
        F = np.eye(9)
        F[0:3, 0:3] = quat_to_rotation(q).T @ R
        F[3:6, 0:3] = -dt * (R @ skew(a))
        F[6:9, 3:6] = dt * np.eye(3)
        P = F @ P @ F.T + Qc * dt
        t_prev = row[0]
    return p, v, q, 0.5 * (P + P.T)


def reference_inekf_predict(state, burst, config, t_start):
    """inekf_predict sample by sample: per-sample F, Ad-mapped noise and mean update,
    on the rotation matrix of the state's orientation."""
    R, v, p, P = quat_to_rotation(state.orientation), state.velocity, state.position, state.cov
    g = config.gravity.vector
    Qb = np.diag(np.concatenate([np.full(3, config.q_att), np.full(3, config.q_vel),
                                 np.full(3, config.q_pos)]))
    t_prev = t_start
    for row in burst:
        dt = row[0] - t_prev
        a = row[1:4] - config.biases.accel
        w = row[4:7] - config.biases.gyro
        F = np.eye(9)
        F[3:6, 0:3] = dt * skew(g)
        F[6:9, 3:6] = dt * np.eye(3)
        Ad = np.zeros((9, 9))
        Ad[0:3, 0:3] = R
        Ad[3:6, 0:3] = skew(v) @ R
        Ad[3:6, 3:6] = R
        Ad[6:9, 0:3] = skew(p) @ R
        Ad[6:9, 6:9] = R
        P = F @ P @ F.T + (Ad @ Qb @ Ad.T) * dt
        inc = quat_normalize(np.concatenate(([1.0], 0.5 * dt * w)))
        p, v, R = p + dt * v, v + dt * (R @ a + g), R @ quat_to_rotation(inc)
        t_prev = row[0]
    return R, v, p, 0.5 * (P + P.T)


def random_burst(rng, t_start, n):
    """(n, 7) IMU rows after t_start with non-uniform spacing below 0.05 s."""
    ts = t_start + np.cumsum(rng.uniform(0.001, 0.03, n))
    return np.array([
        [t, *rng.normal([0.0, 0.0, -9.81], 2.0), *rng.normal(scale=0.8, size=3)] for t in ts
    ]).reshape(n, 7)


def predict_from_rest(predict, burst, t_start=0.0):
    """``predict`` (ekf_predict or inekf_predict) of a burst from rest, at the defaults."""
    config = FilterConfig()
    start = EkfState.start if predict is ekf_predict else InekfState.start
    return predict(start(NavState(), config), burst, config, t_start)


def nav_of(state):
    return state.nav if isinstance(state, EkfState) else state.nav()


def large_spacing_warnings(caught):
    return [w for w in caught if "is large" in str(w.message)]


def random_config(rng, validate=False):
    biases = ImuBiases(accel=rng.normal(scale=0.2, size=3), gyro=rng.normal(scale=0.01, size=3))
    return FilterConfig(biases=biases, validate=validate)


def random_cov(rng):
    A = rng.normal(size=(9, 9))
    return A @ A.T / 9.0 + 0.1 * np.eye(9)


class TestBatchedPredict:
    """ekf_predict and inekf_predict against their sample-by-sample loops."""

    @pytest.mark.parametrize("validate", [False, True])
    def test_ekf_matches_per_sample_loop(self, rng, validate):
        for _ in range(50):
            config = random_config(rng, validate)
            nav = NavState(rng.normal(scale=10.0, size=3), rng.normal(size=3), random_unit_quat(rng))
            state = EkfState(nav, random_cov(rng))
            t0 = float(rng.uniform(0.0, 100.0))
            burst = random_burst(rng, t0, int(rng.integers(1, 26)))
            out = ekf_predict(state, burst, config, t0)
            p, v, q, P = reference_ekf_predict(state, burst, config, t0)
            np.testing.assert_allclose(out.nav.position, p, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(out.nav.velocity, v, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(out.nav.orientation, q, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(out.cov, P, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("validate", [False, True])
    def test_inekf_matches_per_sample_loop(self, rng, validate):
        for _ in range(50):
            config = random_config(rng, validate)
            nav = NavState(rng.normal(scale=10.0, size=3), rng.normal(size=3), random_unit_quat(rng))
            state = replace(InekfState.start(nav, config), cov=random_cov(rng))
            t0 = float(rng.uniform(0.0, 100.0))
            burst = random_burst(rng, t0, int(rng.integers(1, 26)))
            out = inekf_predict(state, burst, config, t0)
            R, v, p, P = reference_inekf_predict(state, burst, config, t0)
            np.testing.assert_allclose(quat_to_rotation(out.orientation), R, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(out.velocity, v, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(out.position, p, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(out.cov, P, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("zero_noise", [False, True], ids=["noise", "zero-noise"])
    @pytest.mark.parametrize("n", [0, 1, 2, 25])
    def test_ekf_burst_covariance_matches_recursion(self, rng, n, zero_noise):
        # The suffix-product form against P <- F_k P F_k^T + Q_k, from a slightly
        # asymmetric P: the result is symmetric, and an empty burst only symmetrizes.
        for _ in range(20):
            config = random_config(rng)
            if zero_noise:
                config = replace(config, q_pos=0.0, q_vel=0.0, q_att=0.0)
            nav = NavState(rng.normal(scale=10.0, size=3), rng.normal(size=3), random_unit_quat(rng))
            P = random_cov(rng) + 1e-9 * rng.normal(size=(9, 9))
            t0 = float(rng.uniform(0.0, 100.0))
            burst = random_burst(rng, t0, n)
            out = ekf_predict(EkfState(nav, P), burst, config, t0)
            *_, P_ref = reference_ekf_predict(EkfState(nav, P), burst, config, t0)
            np.testing.assert_allclose(out.cov, P_ref, rtol=0.0, atol=1e-12)
            np.testing.assert_array_equal(out.cov, out.cov.T)
            if n == 0:
                np.testing.assert_array_equal(out.cov, 0.5 * (P + P.T))
                for got, want in zip(vars(out.nav).values(), vars(nav).values()):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("predict", [ekf_predict, inekf_predict])
    def test_zero_spacing_raises(self, rng, predict):
        burst = random_burst(rng, 0.0, 5)
        burst[2, 0] = burst[1, 0]
        with pytest.raises(ValueError, match="spacing"):
            predict_from_rest(predict, burst)

    def test_nan_time_is_refused_as_a_spacing(self, rng):
        # A NaN spacing is not positive: both predicts and the burst table refuse
        # it, naming the row's t, before the running product turns NaN.
        burst = random_burst(rng, 0.0, 6)
        burst[1, 0] = np.nan
        epoch = SyncedEpoch(float(burst[-1, 0]), 0.0, burst, np.zeros(3), np.array([1.0, 0, 0, 0]))
        for refuse in (lambda: predict_from_rest(ekf_predict, burst),
                       lambda: predict_from_rest(inekf_predict, burst),
                       lambda: BurstInput.from_epochs([epoch], ImuBiases())):
            with pytest.raises(ValueError) as exc_info:
                refuse()
            assert str(exc_info.value) == "non-positive IMU sample spacing at t=nan"

    @pytest.mark.parametrize("predict", [ekf_predict, inekf_predict])
    def test_large_spacing_warns_once(self, rng, predict):
        burst = random_burst(rng, 0.0, 10)
        burst[4:, 0] += 0.1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            predict_from_rest(predict, burst)
        (warning,) = large_spacing_warnings(caught)
        assert warning.filename == __file__  # attributed to the predict's caller

    # The refusals and the warning pin the array form's behaviour, in its order:
    # every spacing is checked, then the largest one warns, then the products.
    @pytest.mark.parametrize("predict", [ekf_predict, inekf_predict])
    def test_zero_first_spacing_names_row_0(self, rng, predict):
        burst = random_burst(rng, 5.0, 4)
        with pytest.raises(ValueError) as exc_info:
            predict_from_rest(predict, burst, t_start=float(burst[0, 0]))
        assert str(exc_info.value) == f"non-positive IMU sample spacing at t={float(burst[0, 0])!r}"

    @pytest.mark.parametrize("predict", [ekf_predict, inekf_predict])
    def test_zero_spacing_after_a_large_one_raises_without_warning(self, rng, predict):
        burst = random_burst(rng, 0.0, 6)
        burst[1:, 0] += 0.1  # row 1's spacing is above 0.1 s
        burst[3, 0] = burst[2, 0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as exc_info:
                predict_from_rest(predict, burst)
        assert str(exc_info.value) == f"non-positive IMU sample spacing at t={float(burst[3, 0])!r}"
        assert large_spacing_warnings(caught) == []

    @pytest.mark.parametrize("sample", [0, 2, -1], ids=["first", "mid", "last"])
    @pytest.mark.parametrize("predict", [ekf_predict, inekf_predict])
    def test_nan_gyro_reading_is_a_degenerate_quaternion(self, rng, predict, sample):
        burst = random_burst(rng, 0.0, 5)
        burst[sample, 5] = np.nan
        with pytest.raises(DegenerateQuaternionError) as exc_info:
            predict_from_rest(predict, burst)
        assert str(exc_info.value) == "cannot normalize quaternion with norm nan"

    @pytest.mark.parametrize("predict", [ekf_predict, inekf_predict])
    def test_degenerate_product_comes_after_the_spacing_checks(self, rng, predict):
        burst = random_burst(rng, 0.0, 6)
        burst[1, 4] = np.nan
        zero = burst.copy()
        zero[3, 0] = zero[2, 0]
        with pytest.raises(ValueError) as exc_info:
            predict_from_rest(predict, zero)
        assert str(exc_info.value) == f"non-positive IMU sample spacing at t={float(zero[3, 0])!r}"
        burst[3:, 0] += 0.1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DegenerateQuaternionError, match="norm nan$"):
                predict_from_rest(predict, burst)
        assert len(large_spacing_warnings(caught)) == 1

    @pytest.mark.parametrize("predict", [ekf_predict, inekf_predict])
    def test_nan_accelerometer_reading_passes(self, rng, predict):
        # run_ekf and run_inekf name the IMU row (TestNonFiniteMeasurement); the
        # predict itself returns a NaN position and velocity and the clean attitude.
        burst = random_burst(rng, 0.0, 5)
        clean = predict_from_rest(predict, burst)
        burst[2, 2] = np.nan
        out = nav_of(predict_from_rest(predict, burst))
        assert np.isnan(out.position).all() and np.isnan(out.velocity).all()
        np.testing.assert_array_equal(out.orientation, nav_of(clean).orientation)


class TestInekfCovarianceClosedForm:
    """The closed form of inekf_predict's covariance: Phi = I + T A + T2 A^2 and
    the noise from the moments of u_k = a_k g + v_k and w_k = b_k g + a_k v_k + p_k."""

    def test_rotation_leaves_the_noise(self, rng):
        # With the readings at the accel bias the specific force is 0 whatever R
        # is, so v and p, and with them every moment, do not depend on R.  From
        # P = 0 the result is the noise alone, whose last bits R R^T would move.
        config = replace(random_config(rng), q_att=1.0, q_vel=1.0, q_pos=1.0)
        nav = NavState(rng.normal(scale=10.0, size=3), rng.normal(size=3), random_unit_quat(rng))
        state = replace(InekfState.start(nav, config), cov=np.zeros((9, 9)))
        turned = replace(state, orientation=random_unit_quat(rng))
        burst = random_burst(rng, 0.0, 20)
        burst[:, 1:4] = config.biases.accel
        out, out_turned = (inekf_predict(s, burst, config, 0.0) for s in (state, turned))
        assert not np.array_equal(out.orientation, out_turned.orientation)
        assert out.cov.tobytes() == out_turned.cov.tobytes()

    def test_long_bursts_far_from_the_origin(self, rng):
        # 100 samples (T up to 3 s) at positions of 1 km, where the q_att |w|^2
        # noise terms reach 1e-2: within 1e-13 of the largest covariance entry.
        for _ in range(20):
            config = random_config(rng)
            nav = NavState(rng.normal(scale=1000.0, size=3), rng.normal(size=3),
                           random_unit_quat(rng))
            state = replace(InekfState.start(nav, config), cov=random_cov(rng))
            t0 = float(rng.uniform(0.0, 100.0))
            burst = random_burst(rng, t0, 100)
            out = inekf_predict(state, burst, config, t0)
            R, v, p, P = reference_inekf_predict(state, burst, config, t0)
            np.testing.assert_allclose(quat_to_rotation(out.orientation), R, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(out.velocity, v, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(out.position, p, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(out.cov, P, rtol=0.0, atol=1e-13 * np.abs(P).max())


class TestOneStrapdown:
    """Both predicts' means are one strapdown: inekf_predict's is ekf_predict's
    started at the state's orientation."""

    @pytest.mark.parametrize("n", [1, 2, 5, 20, 25])
    def test_inekf_mean_is_the_ekf_mean(self, rng, n):
        for _ in range(20):
            config = random_config(rng)
            state = random_inekf_state(rng, config)
            t0 = float(rng.uniform(0.0, 100.0))
            burst = random_burst(rng, t0, n)
            nav = NavState.exact(state.position.copy(), state.velocity.copy(),
                                 state.orientation.copy())
            ekf = ekf_predict(EkfState(nav, state.cov), burst, config, t0).nav
            inekf = inekf_predict(state, burst, config, t0)
            for name in ("orientation", "velocity", "position"):
                assert getattr(inekf, name).tobytes() == getattr(ekf, name).tobytes(), name

    def test_each_step_returns_a_unit_quaternion(self, rng):
        # Started on either hemisphere; the update keeps w >= 0.
        for k in range(50):
            config = random_config(rng)
            q = random_unit_quat(rng)
            nav = NavState(rng.normal(scale=10.0, size=3), rng.normal(size=3), -q if k % 2 else q)
            state = replace(InekfState.start(nav, config), cov=random_cov(rng))
            burst = random_burst(rng, 0.0, int(rng.integers(1, 26)))
            predicted = inekf_predict(state, burst, config, 0.0)
            ahrs = quat_product(predicted.orientation,
                                quat_from_rotvec(rng.normal(scale=0.3, size=3)))
            dvl = predicted.velocity + rng.normal(scale=0.5, size=3)
            updated = inekf_update(predicted, dvl, ahrs, config)
            for out in (state, predicted, updated):
                assert abs(np.sqrt(np.sum(out.orientation ** 2)) - 1.0) <= 1e-15
            assert updated.orientation[0] >= 0.0

    def test_either_sign_of_the_orientation_is_one_state(self, rng):
        # q and -q are one rotation: the predict negates its orientation and keeps
        # its velocity, position and covariance, and the update gives the same bits.
        for _ in range(50):
            config = random_config(rng)
            state = random_inekf_state(rng, config)
            flipped = replace(state, orientation=-state.orientation)
            burst = random_burst(rng, 0.0, int(rng.integers(1, 26)))
            out, out_flipped = (inekf_predict(s, burst, config, 0.0) for s in (state, flipped))
            assert (-out.orientation).tobytes() == out_flipped.orientation.tobytes()
            for name in ("velocity", "position", "cov"):
                assert getattr(out, name).tobytes() == getattr(out_flipped, name).tobytes()
            ahrs = quat_product(state.orientation, quat_from_rotvec(rng.normal(scale=0.3, size=3)))
            dvl = state.velocity + rng.normal(scale=0.5, size=3)
            out, out_flipped = (inekf_update(s, dvl, ahrs, config) for s in (state, flipped))
            for name in ("orientation", "velocity", "position", "cov"):
                assert getattr(out, name).tobytes() == getattr(out_flipped, name).tobytes()


class TestStrapdownStep:
    """``_strapdown``'s written-out step against ``oracles.strapdown_loop``, the loop
    that called ``product_entries``, ``_unit`` and ``rotation_entries``: the same
    bytes, or the same error."""

    @staticmethod
    def both(rng, burst, t0, after):
        config = random_config(rng)
        state = (random_unit_quat(rng), rng.normal(size=3), rng.normal(scale=10.0, size=3))
        return [predict_outcome(loop, burst.tolist(), t0, config, *state, after)
                for loop in (_strapdown, oracles.strapdown_loop)]

    @staticmethod
    def assert_same_bytes(got, want, after):
        (end, (U, W, T), X, dts, rotations), _ = got
        (end_ref, (U_ref, W_ref, T_ref), X_ref, dts_ref, rotations_ref), _ = want
        for a, b in [*zip(end, end_ref), (U, U_ref), (W, W_ref), (X, X_ref), (dts, dts_ref)]:
            assert np.array(a).tobytes() == np.array(b).tobytes()
        assert np.float64(T).tobytes() == np.float64(T_ref).tobytes()
        if after:
            assert np.array(rotations).tobytes() == np.array(rotations_ref).tobytes()
        else:
            assert rotations is None

    @pytest.mark.parametrize("after", [True, False], ids=["ekf", "inekf"])
    def test_random_bursts(self, rng, after):
        for n in list(range(1, 26)) * 8:
            t0 = float(rng.uniform(0.0, 100.0))
            got, want = self.both(rng, random_burst(rng, t0, n), t0, after)
            self.assert_same_bytes(got, want, after)

    @pytest.mark.parametrize("after", [True, False], ids=["ekf", "inekf"])
    def test_overflowing_gyro_reading(self, rng, after):
        # A product whose norm overflows to inf is refused once the loop ends, where it
        # once gave the orientation [0, 0, 0, 0]; the runners pass the error on, as its
        # readings are finite.  A reading whose norm stays finite gives the oracle's bytes.
        predict, start, run_filter = ((ekf_predict, EkfState.start, run_ekf) if after
                                      else (inekf_predict, InekfState.start, run_inekf))
        config = random_config(rng)
        message = "^cannot normalize quaternion with norm inf$"
        burst = random_burst(rng, 0.0, 5)
        for rate in (1e160, 1e200, 1e300, 1e308):
            for sample in range(5):
                for axis in (4, 5, 6):
                    bad = burst.copy()
                    bad[sample, axis] = rate
                    with pytest.raises(DegenerateQuaternionError, match=message):
                        predict(start(NavState(), config), bad, config, 0.0)
        run, epochs = circle_epochs(duration=5.0)
        bad = epochs[10].imu_burst.copy()
        bad[1, 5] = 1e300
        epochs[10] = replace(epochs[10], imu_burst=bad)
        with pytest.raises(DegenerateQuaternionError, match=message):
            run_filter(epochs, config, initial=run.initial_nav())
        burst[2, 4:7] = 1e155
        got, want = self.both(rng, burst, 0.0, after)
        self.assert_same_bytes(got, want, after)
        assert abs(_norm(got[0][0][0]) - 1.0) <= 4 * EPS

    @pytest.mark.parametrize("after", [True, False], ids=["ekf", "inekf"])
    @pytest.mark.parametrize("sample", [0, 2, -1], ids=["first", "mid", "last"])
    def test_nan_gyro_reading(self, rng, after, sample):
        # _unit's error and message, after every spacing check and the warning.
        burst = random_burst(rng, 0.0, 6)
        burst[sample, 5] = np.nan
        got, want = self.both(rng, burst, 0.0, after)
        assert got == want == ((DegenerateQuaternionError,
                                "cannot normalize quaternion with norm nan"), [])
        late_zero = burst.copy()
        late_zero[4, 0] = late_zero[3, 0]
        got, want = self.both(rng, late_zero, 0.0, after)
        message = f"non-positive IMU sample spacing at t={float(late_zero[4, 0])!r}"
        assert got == want == ((ValueError, message), [])
        burst[1:, 0] += 0.1
        got, want = self.both(rng, burst, 0.0, after)
        assert got[0] == want[0] == (DegenerateQuaternionError,
                                     "cannot normalize quaternion with norm nan")
        assert len(got[1]) == len(want[1]) == 1


class TestNoiseMap:
    """``_propagate``'s N, one per-config linear map of the moment product G,
    against the float form it replaced, ``oracles.noise_sum``."""

    @staticmethod
    def noise(X, dts, config):
        # From P = 0 and Phi = I, _propagate returns N alone.
        return _propagate(np.zeros((9, 9)), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.0, X, dts, config)

    def test_matches_float_form(self, rng):
        # Each entry of N is a sum of at most three q G terms, none larger than
        # max|N| (G is a Gram matrix): both forms round within a few ulps of it.
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(1, 26))
            X = rng.normal(scale=rng.choice([1.0, 10.0, 1000.0]), size=(n, 8))
            dts = rng.uniform(0.001, 0.05, n)
            q = rng.uniform(0.0, 1.0, 3) * 10.0 ** rng.integers(-10, 1, 3) * (rng.random(3) > 0.25)
            config = FilterConfig(q_att=q[0], q_vel=q[1], q_pos=q[2])
            G = (X * dts[:, None]).T.dot(X)
            want = oracles.noise_sum(G, *q)
            got = self.noise(X, dts, config)
            if want.any():
                worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
            np.testing.assert_allclose(got, want, rtol=0.0, atol=4.0 * EPS * np.abs(want).max())
        assert worst > 0.0  # the draws reach entries the two forms round differently

    def test_zero_noise_gives_exactly_zero(self, rng):
        config = FilterConfig(q_att=0.0, q_vel=0.0, q_pos=0.0)
        for n in (1, 5, 25):
            X = rng.normal(scale=100.0, size=(n, 8))
            assert not self.noise(X, rng.uniform(0.001, 0.05, n), config).any()


def error_map(nav):
    """C(x): the EKF's error (dtheta_body, dv, dp) at the mean x to first order in the
    right-invariant error (attitude, velocity, position): dtheta = R dtheta_body,
    dv + [v]x dtheta and dp + [p]x dtheta, so C = [[R, 0, 0], [[v]x R, I, 0],
    [[p]x R, 0, I]]."""
    R = quat_to_rotation(nav.orientation)
    C = np.eye(9)
    C[0:3, 0:3] = R
    C[3:6, 0:3] = skew(nav.velocity) @ R
    C[6:9, 0:3] = skew(nav.position) @ R
    return C


def zero_noise(config):
    return replace(config, q_pos=0.0, q_vel=0.0, q_att=0.0)


class TestOneTransition:
    """ekf_predict and inekf_predict propagate one error over a burst, in two sets of
    coordinates: the EKF's transition is the InEKF's carried through C."""

    def test_ekf_transition_is_the_inekf_one_through_c(self, rng):
        # Phi_EKF = C(x_M)^-1 Phi_InEKF C(x_0), at zero noise: the EKF's predicted
        # covariance of P is the InEKF's of C0 P C0^T carried back.  C and C^-1 scale
        # entries by up to 1 + |p|, so the rounding of the InEKF's covariance comes
        # back as some ulps times (1 + |p|)^2; the positions stay within 10 m.
        for _ in range(50):
            config = zero_noise(random_config(rng))
            nav = NavState(rng.uniform(-1.0, 1.0, 3) * 10.0 / np.sqrt(3.0), rng.normal(size=3),
                           random_unit_quat(rng))
            P = random_cov(rng)
            t0 = float(rng.uniform(0.0, 100.0))
            burst = random_burst(rng, t0, int(rng.integers(1, 26)))
            ekf = ekf_predict(EkfState(nav, P), burst, config, t0)
            C0, CM = error_map(nav), np.linalg.inv(error_map(ekf.nav))
            start = replace(InekfState.start(nav, config), cov=C0 @ P @ C0.T)
            inekf = inekf_predict(start, burst, config, t0)
            np.testing.assert_allclose(ekf.cov, CM @ inekf.cov @ CM.T, rtol=0.0,
                                       atol=100.0 * EPS * 11.0 ** 2 * np.abs(ekf.cov).max())

    def test_ekf_covariance_is_the_same_1_km_away(self, rng):
        # The EKF's transition and noise take positions from the burst start, so its
        # predicted covariance does not depend on where the burst starts.
        for _ in range(50):
            config = random_config(rng)
            nav = NavState(rng.normal(scale=10.0, size=3), rng.normal(size=3), random_unit_quat(rng))
            away, step = nav.copy(), rng.normal(size=3)
            away.position = nav.position + 1000.0 * step / np.linalg.norm(step)
            P = random_cov(rng)
            t0 = float(rng.uniform(0.0, 100.0))
            burst = random_burst(rng, t0, int(rng.integers(1, 26)))
            near, far = (ekf_predict(EkfState(x, P), burst, config, t0) for x in (nav, away))
            assert near.cov.tobytes() == far.cov.tobytes()


def predict_outcome(predict, *args):
    """What ``predict(*args)`` gives: its result, or the type and text of the error
    it raises, and the large-spacing warnings it issues."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = predict(*args)
        except (ValueError, RuntimeError) as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in large_spacing_warnings(caught)]


def assert_matches_array_oracle(state, burst, config, t_start):
    """inekf_predict against ``oracles.inekf_predict``: the same error or a mean
    within 1e-12 of the oracle's (NaN where it has NaN; the orientation through
    ``quat_to_rotation`` against the oracle's rotation), and the same warnings; a
    covariance within 1e-12 of the oracle's, or, where the oracle's has a
    non-finite entry, one that has one too (the NaN pattern of the closed form
    differs from the recursion's).  Returns the outcome."""
    out, ref = (predict_outcome(predict, state, burst, config, t_start)
                for predict in (inekf_predict, oracles.inekf_predict))
    (result, large), (expected, expected_large) = out, ref
    assert large == expected_large
    if isinstance(expected, tuple):
        assert result == expected
        return out
    got = dict(rotation=quat_to_rotation(result.orientation), velocity=result.velocity,
               position=result.position)
    for name, value in got.items():
        want = getattr(expected, name)
        assert value.shape == want.shape, name
        np.testing.assert_allclose(value, want, rtol=0.0, atol=1e-12, err_msg=name)
    assert result.cov.shape == (9, 9)
    if np.isfinite(expected.cov).all():
        np.testing.assert_allclose(result.cov, expected.cov, rtol=0.0, atol=1e-12)
    else:
        assert not np.isfinite(result.cov).all()
    return out


def random_inekf_state(rng, config):
    """A random 6-DOF InEKF state with a slightly asymmetric covariance."""
    nav = NavState(rng.normal(scale=10.0, size=3), rng.normal(size=3), random_unit_quat(rng))
    cov = random_cov(rng) + 1e-9 * rng.normal(size=(9, 9))
    return replace(InekfState.start(nav, config), cov=cov)


class TestInekfPredictAgainstArrayOracle:
    """inekf_predict against the array form it replaced, ``oracles.inekf_predict``:
    the mean and the covariance within 1e-12, and the same errors and warnings in
    the same order."""

    @pytest.mark.parametrize("validate", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 20, 25])
    def test_random_bursts(self, rng, n, validate):
        for _ in range(20):
            config = random_config(rng, validate)
            state = random_inekf_state(rng, config)
            t0 = float(rng.uniform(0.0, 100.0))
            burst = random_burst(rng, t0, n)
            result, _ = assert_matches_array_oracle(state, burst, config, t0)
            assert isinstance(result, InekfState)

    # Each case edits a 6-row burst from t = 0 by (row, column, edit): NaN sets the
    # reading, a number is added to the time, "=2" repeats row 2's time and "=start"
    # measures the first spacing from row 0's own time.
    CASES = {
        "zero-spacing": [(3, 0, "=2")],
        "zero-first-spacing": [(0, 0, "=start")],
        "negative-spacing": [(3, 0, -0.05)],
        "large-spacing": [(slice(3, None), 0, 0.1)],
        "large-then-zero-spacing": [(slice(1, None), 0, 0.1), (3, 0, "=2")],
        "nan-gyro": [(2, 5, np.nan)],
        "nan-gyro-before-zero-spacing": [(1, 4, np.nan), (3, 0, "=2")],
        "nan-gyro-before-large-spacing": [(1, 4, np.nan), (slice(3, None), 0, 0.1)],
        "nan-accelerometer": [(2, 2, np.nan)],
        "nan-time": [(1, 0, np.nan)],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_errors_and_warnings(self, rng, case):
        config = random_config(rng)
        state = random_inekf_state(rng, config)
        burst, t0 = random_burst(rng, 0.0, 6), 0.0
        for row, column, edit in self.CASES[case]:
            if edit == "=2":
                burst[row, column] = burst[2, 0]
            elif edit == "=start":
                t0 = float(burst[0, 0])
            elif np.isnan(edit):
                burst[row, column] = edit
            else:
                burst[row, column] += edit
        result, large = assert_matches_array_oracle(state, burst, config, t0)
        if "zero" in case or "negative" in case or case == "nan-time":  # refused first
            assert result[0] is ValueError and large == []
        if case.endswith("large-spacing"):
            assert len(large) == 1

    def test_empty_burst_returns_new_arrays(self, rng):
        config = random_config(rng)
        state = random_inekf_state(rng, config)
        out = inekf_predict(state, np.empty((0, 7)), config, 1.0)
        for got, given in zip(vars(out).values(), vars(state).values()):
            assert not np.shares_memory(got, given)
        for name in ("orientation", "velocity", "position"):
            assert getattr(out, name).tobytes() == getattr(state, name).tobytes()
        assert out.cov.tobytes() == (0.5 * (state.cov + state.cov.T)).tobytes()


BLAS_INPUT_KEYS = ("t_start", "length", "bias", "position", "velocity", "orientation", "burst")


def ekf_means(inputs) -> np.ndarray:
    """ekf_predict's position, velocity and orientation, one row of 10 per input of
    ``blas_inputs``."""
    means = []
    for t0, n, bias, p, v, q, burst in zip(*(inputs[key] for key in BLAS_INPUT_KEYS)):
        config = FilterConfig(biases=ImuBiases(accel=bias[:3], gyro=bias[3:]))
        state = EkfState.start(NavState(p, v, q), config)
        nav = ekf_predict(state, burst[:n], config, t0).nav
        means.append(np.concatenate([nav.position, nav.velocity, nav.orientation]))
    return np.array(means)


def scenario_outputs() -> dict:
    """The streams of a 20 s ``benchmark_scenario``, the digest of its epochs and
    its cipg trajectory (t, position, velocity, orientation per row)."""
    run = generate(benchmark_scenario(0, 20.0))
    epochs = run.epochs()
    points = run_cascade(epochs, CascadeConfig())
    return dict(imu=run.imu, dvl=run.dvl, ahrs=run.ahrs, digest=hash_epochs(epochs),
                cipg=np.array([[p.t, *p.nav.position, *p.nav.velocity, *p.nav.orientation]
                               for p in points]))


def dead_reckoned_states() -> np.ndarray:
    """The states (position, velocity, orientation per row) of the epochs of a 20 s
    ``benchmark_scenario``, dead-reckoned from its initial state through the
    per-sample reference ``preintegrate_burst``, burst by burst."""
    run = generate(benchmark_scenario(0, 20.0))
    nav, states = run.initial_nav(), []
    for epoch in run.epochs():
        nav = preintegrate_burst(nav, epoch.imu_burst, ImuBiases(), GravityModel(), epoch.t_prev)
        states.append(np.concatenate([nav.position, nav.velocity, nav.orientation]))
    return np.array(states)


def under_core(core, tmp_path, statement) -> None:
    """Run ``statement`` with the directory ``tmp_path`` as sys.argv[1] in a child
    Python whose environment alone sets OPENBLAS_CORETYPE to ``core``."""
    root = Path(__file__).resolve().parents[1]
    src = Path(cipgnav.__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join([str(src), str(root)])}
    subprocess.run([sys.executable, "-c", statement, str(tmp_path)], env=env, cwd=root,
                   check=True)


def blas_inputs(rng, count=400, longest=25):
    """``count`` (nav, burst of 1 to ``longest`` samples, t_start, biases) draws as
    arrays, each burst padded to ``longest`` rows."""
    t_start = rng.uniform(0.0, 100.0, count)
    length = rng.integers(1, longest + 1, count)
    bursts = np.zeros((count, longest, 7))
    for burst, t0, n in zip(bursts, t_start, length):
        burst[:n] = random_burst(rng, t0, n)
    return dict(t_start=t_start, length=length,
                bias=rng.normal(scale=[0.2] * 3 + [0.01] * 3, size=(count, 6)),
                position=rng.normal(scale=10.0, size=(count, 3)),
                velocity=rng.normal(size=(count, 3)),
                orientation=np.array([random_unit_quat(rng) for _ in range(count)]),
                burst=bursts)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the OpenBLAS kernels named are x86-64 ones")
class TestBlasKernel:
    """The simulated streams, their epoch digest, the cipg trajectory, the EKF's
    predicted mean and the per-sample reference ``preintegrate_burst`` use no BLAS
    call, so an OpenBLAS build that picks its kernel at run time gives them the
    same bits under every kernel."""

    @pytest.mark.parametrize("core", ["Haswell", "Prescott"])
    def test_ekf_mean_is_the_same_under_another_kernel(self, rng, tmp_path, core):
        inputs = blas_inputs(rng)
        np.savez(tmp_path / "inputs.npz", **inputs)
        under_core(core, tmp_path, "import sys, numpy as np; "
                   "from tests.test_baselines import ekf_means; "
                   "np.save(sys.argv[1] + '/means.npy', "
                   "ekf_means(np.load(sys.argv[1] + '/inputs.npz')))")
        theirs = np.load(tmp_path / "means.npy")
        ours = ekf_means(inputs)
        differing = int((theirs != ours).any(axis=1).sum())
        assert differing == 0, f"{differing} of {len(ours)} predicted means differ under {core}"

    @pytest.mark.parametrize("core", ["Haswell", "Prescott"])
    def test_streams_digest_and_cipg_are_the_same_under_another_kernel(self, tmp_path, core):
        under_core(core, tmp_path, "import sys, numpy as np; "
                   "from tests.test_baselines import scenario_outputs; "
                   "np.savez(sys.argv[1] + '/theirs.npz', **scenario_outputs())")
        theirs = np.load(tmp_path / "theirs.npz")
        for name, ours in scenario_outputs().items():
            assert np.asarray(ours).tobytes() == theirs[name].tobytes(), f"{name} under {core}"

    @pytest.mark.parametrize("core", ["Haswell", "Prescott"])
    def test_per_sample_dead_reckoning_is_the_same_under_another_kernel(self, tmp_path, core):
        under_core(core, tmp_path, "import sys, numpy as np; "
                   "from tests.test_baselines import dead_reckoned_states; "
                   "np.save(sys.argv[1] + '/states.npy', dead_reckoned_states())")
        theirs = np.load(tmp_path / "states.npy")
        ours = dead_reckoned_states()
        differing = int((theirs != ours).any(axis=1).sum())
        assert differing == 0, f"{differing} of {len(ours)} dead-reckoned states differ under {core}"


class TestKalmanUpdate:
    def test_scalar_hand_oracle(self):
        # P = H = R = 1: gain 0.5, Joseph covariance 0.25 + 0.25 = 0.5.
        dx, P = kalman_update(np.eye(1), np.eye(1), np.eye(1), np.array([1.0]))
        assert dx[0] == pytest.approx(0.5, abs=1e-15)
        assert P[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_joseph_form_stays_psd(self, rng):
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            P = A @ A.T + 1e-6 * np.eye(4)
            H = rng.normal(size=(2, 4))
            R = np.diag(rng.uniform(0.01, 1.0, 2))
            _, P_next = kalman_update(P, H, R, rng.normal(size=2))
            np.testing.assert_allclose(P_next, P_next.T, atol=1e-12)
            assert np.linalg.eigvalsh(P_next).min() > -1e-12

    def test_zero_innovation_leaves_mean(self):
        dx, _ = kalman_update(np.eye(3), np.eye(3), np.eye(3), np.zeros(3))
        np.testing.assert_allclose(dx, np.zeros(3))


class TestEkfUpdate:
    """ekf_update against kalman_update with H = [[0, I, 0], [I, 0, 0]]."""

    H = np.block([[np.zeros((3, 3)), np.eye(3), np.zeros((3, 3))],
                  [np.eye(3), np.zeros((3, 6))]])

    def random_inputs(self, rng, validate=False):
        config = FilterConfig(r_vel=rng.uniform(0.001, 1.0, 3), r_att=rng.uniform(0.001, 1.0, 3),
                              validate=validate)
        nav = NavState(rng.normal(scale=10.0, size=3), rng.normal(size=3), random_unit_quat(rng))
        dvl = nav.velocity + rng.normal(scale=0.5, size=3)
        ahrs = quat_product(nav.orientation, quat_from_rotvec(rng.normal(scale=0.1, size=3)))
        return config, nav, dvl, ahrs

    @pytest.mark.parametrize("validate", [False, True])
    def test_bitwise_against_kalman_update(self, rng, validate):
        for _ in range(200):
            config, nav, dvl, ahrs = self.random_inputs(rng, validate)
            P = random_cov(rng) * 10.0 ** rng.uniform(-6.0, 2.0)
            out = ekf_update(EkfState(nav, P), dvl, ahrs, config)
            y = np.concatenate([dvl - nav.velocity, _attitude_innovation(nav.orientation, ahrs)])
            dx, P_ref = kalman_update(P, self.H, r_matrix(config), y)
            assert out.cov.tobytes() == P_ref.tobytes()
            assert out.nav.position.tobytes() == (nav.position + dx[6:9]).tobytes()
            assert out.nav.velocity.tobytes() == (nav.velocity + dx[3:6]).tobytes()
            assert out.nav.orientation.tobytes() == quat_normalize(quat_product(
                nav.orientation, quat_from_rotvec(dx[0:3]))).tobytes()

    def test_singular_innovation_covariance_raises_as_kalman_update(self, rng):
        config, nav, dvl, ahrs = self.random_inputs(rng)
        P = -self.H.T @ r_matrix(config) @ self.H  # S = H P H^T + R = 0
        with pytest.raises(NumericalError) as expected:
            kalman_update(P, self.H, r_matrix(config), np.zeros(6))
        with pytest.raises(NumericalError) as got:
            ekf_update(EkfState(nav, P), dvl, ahrs, config)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith("innovation covariance is singular")

    @pytest.mark.parametrize("step", ["predict", "update"])
    def test_validate_rejects_indefinite_covariance(self, rng, step):
        # A negative position variance is neither observed nor mixed by either step.
        config, nav, dvl, ahrs = self.random_inputs(rng, validate=True)
        P = np.diag([0.1] * 6 + [-1.0] + [0.1] * 2)
        if step == "predict":
            run = lambda cfg: ekf_predict(EkfState(nav, P), random_burst(rng, 0.0, 5), cfg, 0.0)
        else:
            run = lambda cfg: ekf_update(EkfState(nav, P), dvl, ahrs, cfg)
        assert run(replace(config, validate=False)).cov[6, 6] < 0.0
        with pytest.raises(NumericalError, match=f"ekf_{step}: covariance lost positive"):
            run(config)


class TestUpdatesAgainstArrayOracles:
    """ekf_update and inekf_update on Python floats against their forms on numpy
    arrays in ``oracles``: the EKF's bit for bit, the InEKF's covariance bit for bit
    and its mean within 1e-12 (its orientation through ``quat_to_rotation``)."""

    def draws(self, rng, validate):
        """Random 6-DOF states, covariances from 1e-6 to 1e2 and readings: a quarter exact,
        so that the correction angle is below 1e-12, and half of the AHRS readings on the
        opposite hemisphere."""
        for k in range(300):
            config = FilterConfig(r_vel=rng.uniform(0.001, 1.0, 3),
                                  r_att=rng.uniform(0.001, 1.0, 3), validate=validate)
            nav = NavState(rng.normal(scale=10.0, size=3), rng.normal(scale=2.0, size=3),
                           random_unit_quat(rng))
            P = random_cov(rng) * 10.0 ** rng.uniform(-6.0, 2.0)
            if k % 4 == 0:
                dvl, ahrs = nav.velocity.copy(), nav.orientation.copy()
            else:
                dvl = nav.velocity + rng.normal(scale=0.5, size=3)
                ahrs = quat_product(nav.orientation, quat_from_rotvec(rng.normal(scale=0.3, size=3)))
            yield config, nav, P, dvl, -ahrs if k % 2 else ahrs, k % 4 == 0

    @pytest.mark.parametrize("validate", [False, True])
    def test_ekf_update(self, rng, validate):
        tiny = 0
        for config, nav, P, dvl, ahrs, exact in self.draws(rng, validate):
            out = ekf_update(EkfState(nav, P), dvl, ahrs, config)
            ref = oracles.ekf_update(EkfState(nav, P), dvl, ahrs, config)
            assert out.cov.tobytes() == ref.cov.tobytes()
            for got, want in zip(vars(out.nav).values(), vars(ref.nav).values()):
                assert got.tobytes() == want.tobytes()
            tiny += exact and quat_angular_distance(out.nav.orientation, nav.orientation) < 1e-12
        assert tiny == 75  # every exact reading took the first-order correction

    @pytest.mark.parametrize("validate", [False, True])
    def test_inekf_update(self, rng, validate):
        tiny = 0
        for config, nav, P, dvl, ahrs, exact in self.draws(rng, validate):
            state = replace(InekfState.start(nav, config), cov=P)
            out = inekf_update(state, dvl, ahrs, config)
            ref = oracles.inekf_update(state, dvl, ahrs, config)
            assert out.cov.tobytes() == ref.cov.tobytes()
            rotation = quat_to_rotation(out.orientation)
            for got, want in [(rotation, ref.rotation), (out.velocity, ref.velocity),
                              (out.position, ref.position)]:
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
            turn = np.abs(rotation - quat_to_rotation(state.orientation)).max()
            tiny += exact and turn < 1e-12
        assert tiny == 75


class TestUpdateLinearization:
    """Each update's measurement rows against a central difference of its innovation,
    with the state moved along each error coordinate by the filter's own retraction."""

    def state(self, rng):
        return NavState(rng.normal(scale=10.0, size=3), rng.normal(scale=2.0, size=3),
                        random_unit_quat(rng))

    def test_ekf(self, rng):
        # X + dx = (q (x) Exp(dtheta), v + dv, p + dp); measurements of the noise-free
        # state itself, so the innovation of the moved state is -H dx to first order.
        H = TestEkfUpdate.H
        for _ in range(20):
            nav = self.state(rng)
            dvl, ahrs = nav.velocity, nav.orientation

            def innovation(dx):
                q = quat_normalize(quat_product(nav.orientation, quat_from_rotvec(dx[0:3])))
                return [*(dvl - (nav.velocity + dx[3:6])), *_attitude_innovation(q, ahrs)]

            J = central_difference(innovation, np.zeros(9))
            np.testing.assert_allclose(J, -H, rtol=0.0, atol=1e-6)

    def test_inekf(self, rng):
        # Exp(xi) X by se23_exp; the error is X_est X_true^-1 and the correction
        # Exp(-K y), so the innovation of the moved state is +H xi to first order.
        for _ in range(20):
            state = InekfState.start(self.state(rng), FilterConfig())
            dvl, ahrs = state.velocity.tolist(), state.orientation.tolist()
            _, H = _inekf_measurement(state, dvl, ahrs)

            def innovation(xi):
                Rc, dv, dp = se23_exp(xi)
                moved = InekfState(quat_normalize(quat_product(quat_from_rotvec(xi[0:3]),
                                                               state.orientation)),
                                   Rc @ state.velocity + dv, Rc @ state.position + dp, state.cov)
                return _inekf_measurement(moved, dvl, ahrs)[0]

            J = central_difference(innovation, np.zeros(9))
            np.testing.assert_allclose(J, H, rtol=0.0, atol=1e-6)
            assert np.abs(H[0:3, 0:3]).max() > 1e-3  # the velocity's attitude block is tested


def turning_burst(rng, t_start, n=20):
    """(n, 7) IMU rows after t_start that turn at up to 1 rad/s about every axis."""
    ts = t_start + np.cumsum(rng.uniform(0.001, 0.03, n))
    return np.column_stack([ts, rng.normal([0.0, 0.0, -9.81], 2.0, size=(n, 3)),
                            rng.uniform(-1.0, 1.0, size=(n, 3))])


def se23_log(state, ref):
    """Log(X ref^-1) of two InekfStates: the rotation vector theta of R R_ref^T, and
    J^-1 (v - R R_ref^T v_ref) and J^-1 (p - R R_ref^T p_ref), J the left Jacobian
    of theta (its columns from se23_exp)."""
    turn = quat_product(state.orientation, quat_conjugate(ref.orientation))
    theta, Rc = np.array(rotvec_entries(turn.tolist())), quat_to_rotation(turn)
    J = np.column_stack([se23_exp(np.concatenate([theta, e, np.zeros(3)]))[1] for e in np.eye(3)])
    return np.concatenate([theta, np.linalg.solve(J, state.velocity - Rc @ ref.velocity),
                           np.linalg.solve(J, state.position - Rc @ ref.position)])


class TestPredictLinearization:
    """Each predict's transition Phi against the central-difference Jacobian J of its
    own mean over a burst, in its own error coordinates: body-frame for the EKF,
    right-invariant for the InEKF.  At zero noise the covariance a predict gives from
    P = I is Phi Phi^T, compared with J J^T.

    A difference of two means of size m at step H is off by the rounding of m, some
    ulps of m, over H: each entry of J by err = 100 eps m / H, and each entry of
    J J^T, a sum of 9 products, by 2 * 9 |J| err.  With m of 10 m and H = 1e-6 that
    is about 1e-5; the first-order attitude block I - dt [w]x is off by about 1e-2."""

    H = 1e-6

    def assert_matches(self, cov, J, mean):
        err = 100.0 * EPS * max(np.abs(mean).max(), 1.0) / self.H
        np.testing.assert_allclose(cov, J @ J.T, rtol=0.0, atol=18.0 * np.abs(J).max() * err)

    def draws(self, rng):
        for _ in range(10):
            config = zero_noise(random_config(rng))
            nav = NavState(rng.normal(scale=10.0, size=3), rng.normal(size=3), random_unit_quat(rng))
            t0 = float(rng.uniform(0.0, 100.0))
            yield config, nav, turning_burst(rng, t0), t0

    def test_ekf(self, rng):
        # x + dx = (q (x) Exp(dtheta), v + dv, p + dp); the mean's error is read back
        # the same way, its attitude as Log(q_end^-1 (x) q).
        for config, nav, burst, t0 in self.draws(rng):
            end = ekf_predict(EkfState(nav, np.eye(9)), burst, config, t0)

            def mean(dx):
                moved = NavState(nav.position + dx[6:9], nav.velocity + dx[3:6],
                                 quat_normalize(quat_product(nav.orientation,
                                                             quat_from_rotvec(dx[0:3]))))
                out = ekf_predict(EkfState(moved, np.eye(9)), burst, config, t0).nav
                turn = quat_product(quat_conjugate(end.nav.orientation), out.orientation)
                return np.concatenate([rotvec_entries(turn.tolist()),
                                       out.velocity - end.nav.velocity,
                                       out.position - end.nav.position])

            J = central_difference(mean, np.zeros(9), self.H)
            self.assert_matches(end.cov, J, end.nav.position)

    def test_inekf(self, rng):
        # Exp(xi) X by se23_exp, as in TestUpdateLinearization; the mean's error is
        # read back as Log(X_end' X_end^-1).
        for config, nav, burst, t0 in self.draws(rng):
            state = replace(InekfState.start(nav, config), cov=np.eye(9))
            end = inekf_predict(state, burst, config, t0)

            def mean(xi):
                Rc, dv, dp = se23_exp(xi)
                moved = InekfState(quat_normalize(quat_product(quat_from_rotvec(xi[0:3]),
                                                               state.orientation)),
                                   Rc @ state.velocity + dv, Rc @ state.position + dp, state.cov)
                return se23_log(inekf_predict(moved, burst, config, t0), end)

            J = central_difference(mean, np.zeros(9), self.H)
            self.assert_matches(end.cov, J, end.position)


class TestCovarianceGuard:
    def test_rejects_nonfinite(self):
        P = np.eye(2)
        P[0, 0] = np.nan
        with pytest.raises(NumericalError):
            _check_cov(P, 1e-9, "test covariance")

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError):
            _check_cov(np.diag([1.0, -0.5]), 1e-9, "test covariance")

    def test_symmetrizes(self):
        P = np.array([[1.0, 0.1], [0.1 + 1e-12, 1.0]])
        out = _check_cov(P, 1e-9, "test covariance")
        np.testing.assert_allclose(out, out.T)


class TestSe23Exp:
    """``_se23_exp_entries``, the InEKF correction's Exp, against the matrix
    exponential and the array form ``oracles._se23_exp``."""

    def embed(self, xi):
        A = np.zeros((5, 5))
        A[:3, :3] = skew(xi[:3])
        A[:3, 3] = xi[3:6]
        A[:3, 4] = xi[6:9]
        return A

    def test_matches_matrix_exponential(self, rng):
        for scale in (1e-9, 1e-3, 1.0, 3.0):
            xi = scale * rng.normal(size=9)
            R, v, p = se23_exp(xi)
            M = scipy.linalg.expm(self.embed(xi))
            np.testing.assert_allclose(R, M[:3, :3], atol=1e-9)
            np.testing.assert_allclose(v, M[:3, 3], atol=1e-9)
            np.testing.assert_allclose(p, M[:3, 4], atol=1e-9)

    @pytest.mark.parametrize("angle", [0.0, 1e-13, 5e-13, 1e-10, 5e-9, 1e-8, 1e-3, 1.0, 3.0])
    def test_against_array_form(self, rng, angle):
        # Below 1e-12 the rotation takes quat_from_rotvec's first-order branch and
        # below 1e-8 the left Jacobian its series; each is within 1e-12 of the array form.
        for _ in range(20):
            xi = rng.normal(size=9)
            xi[:3] *= angle / np.linalg.norm(xi[:3])
            for got, want in zip(se23_exp(xi), oracles._se23_exp(xi)):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_zero_is_identity(self):
        R, v, p = se23_exp(np.zeros(9))
        np.testing.assert_allclose(R, np.eye(3))
        np.testing.assert_allclose(v, np.zeros(3))
        np.testing.assert_allclose(p, np.zeros(3))


class TestAttitudeInnovation:
    def test_small_angle_recovery(self, rng):
        q = quat_from_yaw(0.3)
        theta = 1e-4 * rng.normal(size=3)
        z = quat_product(q, quat_from_rotvec(theta))
        np.testing.assert_allclose(_attitude_innovation(q, z), theta, atol=1e-9)

    def test_hemisphere_invariance(self):
        q = quat_from_yaw(0.3)
        z = quat_product(q, quat_from_rotvec([0.01, 0.0, 0.02]))
        np.testing.assert_allclose(
            _attitude_innovation(q, z), _attitude_innovation(q, -z), atol=1e-15
        )


class TestEkf:
    def test_noiseless_tracking(self):
        run, epochs = circle_epochs(duration=20.0)
        points = run_ekf(epochs, FilterConfig(), initial=run.initial_nav())
        truth = {p.t: p.nav for p in run.truth}
        final = points[-1]
        assert np.linalg.norm(final.nav.position - truth[final.t].position) < 1e-2
        assert np.linalg.norm(final.nav.velocity - truth[final.t].velocity) < 1e-3
        assert quat_angular_distance(final.nav.orientation,
                                     truth[final.t].orientation) < 1e-3

    def test_covariance_stays_symmetric_psd(self):
        run, epochs = circle_epochs(duration=10.0, noise=NoiseSpec.bluerov2(), seed=2)
        from cipgnav.baselines import ekf_predict, ekf_update

        state = EkfState.start(run.initial_nav(), FilterConfig())
        t_prev = epochs[0].t_prev
        for epoch in epochs:
            state = ekf_predict(state, epoch.imu_burst, FilterConfig(), t_prev)
            state = ekf_update(state, epoch.dvl, epoch.ahrs, FilterConfig())
            t_prev = epoch.t
            np.testing.assert_allclose(state.cov, state.cov.T, atol=1e-10)
            assert np.linalg.eigvalsh(state.cov).min() > -1e-9

    def test_requires_epochs(self):
        with pytest.raises(ValueError):
            run_ekf([], FilterConfig())


class TestInekf:
    def test_noiseless_tracking(self):
        run, epochs = circle_epochs(duration=20.0)
        points = run_inekf(epochs, FilterConfig(), initial=run.initial_nav())
        truth = {p.t: p.nav for p in run.truth}
        final = points[-1]
        assert np.linalg.norm(final.nav.position - truth[final.t].position) < 1e-2
        assert np.linalg.norm(final.nav.velocity - truth[final.t].velocity) < 1e-3

    def test_state_round_trip(self, rng):
        # start keeps the orientation's bits; nav() wraps copies of the state's arrays.
        nav = NavState(rng.normal(size=3), rng.normal(size=3), random_unit_quat(rng))
        state = InekfState.start(nav, FilterConfig())
        back = state.nav()
        for name in ("position", "velocity", "orientation"):
            assert getattr(back, name).tobytes() == getattr(nav, name).tobytes(), name
            assert not np.shares_memory(getattr(back, name), getattr(state, name)), name
            assert not np.shares_memory(getattr(state, name), getattr(nav, name)), name


class TestNonFiniteMeasurement:
    @pytest.mark.parametrize("stream", ["dvl", "ahrs"])
    @pytest.mark.parametrize("run_filter", [run_ekf, run_inekf], ids=["ekf", "inekf"])
    def test_names_filter_epoch_and_stream(self, run_filter, stream):
        run = generate(benchmark_scenario(0, 30.0))
        epochs = run.epochs()
        bad = getattr(epochs[20], stream).copy()
        bad[1] = np.nan
        epochs[20] = replace(epochs[20], **{stream: bad})
        with pytest.raises(NumericalError) as exc_info:
            run_filter(epochs, FilterConfig(), initial=run.initial_nav())
        assert str(exc_info.value).startswith(
            f"{run_filter.__name__}: non-finite {stream} measurement at epoch 20 "
            f"(t={epochs[20].t!r})")

    @pytest.mark.parametrize("column", [1, 4], ids=["accel", "gyro"])
    @pytest.mark.parametrize("sample", [0, 5, -1], ids=["first", "mid", "last"])
    @pytest.mark.parametrize("run_filter", [run_ekf, run_inekf], ids=["ekf", "inekf"])
    def test_names_filter_epoch_and_imu_row(self, run_filter, sample, column):
        # Once a ValueError about a rotation vector or a DegenerateQuaternionError
        # about a norm, neither naming the epoch.
        run = generate(benchmark_scenario(0, 30.0))
        epochs = run.epochs()
        burst = epochs[20].imu_burst.copy()
        burst[sample, column] = np.nan
        epochs[20] = replace(epochs[20], imu_burst=burst)
        with pytest.raises(NumericalError) as exc_info:
            run_filter(epochs, FilterConfig(), initial=run.initial_nav())
        assert str(exc_info.value) == (f"{run_filter.__name__}: non-finite imu measurement at "
                                       f"epoch 20 (t={epochs[20].t!r}): {burst[sample].tolist()!r}")

    @pytest.mark.parametrize("run_filter", [run_ekf, run_inekf], ids=["ekf", "inekf"])
    def test_readings_are_checked_dvl_first_and_other_errors_pass(self, run_filter):
        run = generate(benchmark_scenario(0, 30.0))
        epochs = run.epochs()
        burst = epochs[20].imu_burst.copy()
        burst[3, 1] = burst[4, 4] = np.nan
        dvl = epochs[20].dvl.copy()
        dvl[2] = np.nan
        bad = replace(epochs[20], imu_burst=burst, dvl=dvl)
        with pytest.raises(NumericalError, match="non-finite dvl measurement at epoch 20 "):
            run_filter([*epochs[:20], bad], FilterConfig(), initial=run.initial_nav())
        burst = epochs[20].imu_burst.copy()
        burst[2, 0] = burst[1, 0]  # finite readings, and a zero spacing
        bad = replace(epochs[20], imu_burst=burst)
        with pytest.raises(ValueError, match="^non-positive IMU sample spacing at t="):
            run_filter([*epochs[:20], bad], FilterConfig(), initial=run.initial_nav())

    @pytest.mark.parametrize("stream", ["dvl", "ahrs"])
    @pytest.mark.parametrize("kind", ["ekf", "inekf"])
    def test_update_refuses_it(self, kind, stream):
        # Without _run_filter's check a NaN reading once surfaced as a ValueError about a
        # rotation vector or a quaternion, or as a DegenerateQuaternionError.
        config = FilterConfig()
        start, update = ((EkfState.start, ekf_update) if kind == "ekf"
                         else (InekfState.start, inekf_update))
        readings = {"dvl": np.array([0.5, 0.0, 0.0]), "ahrs": np.array([1.0, 0.0, 0.0, 0.0])}
        readings[stream][1] = np.nan
        with pytest.raises(NumericalError) as exc_info:
            update(start(NavState(), config), readings["dvl"], readings["ahrs"], config)
        assert str(exc_info.value) == (f"{kind}_update: non-finite {stream} measurement: "
                                       f"{readings[stream]!r}")


class TestRunnersMatchTheirSteps:
    """run_ekf and run_inekf give exactly what a plain loop over their steps gives."""

    @pytest.mark.parametrize("validate", [False, True])
    @pytest.mark.parametrize("run_filter, start, predict, update, nav_of", [
        (run_ekf, EkfState.start, ekf_predict, ekf_update, lambda state: state.nav),
        (run_inekf, InekfState.start, inekf_predict, inekf_update, InekfState.nav),
    ], ids=["ekf", "inekf"])
    def test_bitwise(self, run_filter, start, predict, update, nav_of, validate):
        run = generate(benchmark_scenario(0, 20.0))
        epochs, initial = run.epochs(), run.initial_nav()
        config = FilterConfig(validate=validate)
        state, t_prev, expected = start(initial, config), epochs[0].t_prev, []
        for epoch in epochs:
            state = update(predict(state, epoch.imu_burst, config, t_prev), epoch.dvl,
                           epoch.ahrs, config)
            nav = nav_of(state)
            expected.append((epoch.t, nav.position.tobytes(), nav.velocity.tobytes(),
                             nav.orientation.tobytes(), "ok"))
            t_prev = epoch.t
        points = run_filter(epochs, config, initial=initial)
        assert [(p.t, p.nav.position.tobytes(), p.nav.velocity.tobytes(),
                 p.nav.orientation.tobytes(), p.flag) for p in points] == expected


def noise_input(x):
    """B(x) = [[x_7 I, 0, 0], [[x_u]x, x_7 I, 0], [[x_w]x, a I, x_7 I]] of a moment row
    x = (x_u, x_w, a, x_7): the map of a sample's noise to the burst end at x_7 = 1."""
    B = x[7] * np.eye(9)
    B[3:6, 0:3], B[6:9, 0:3], B[6:9, 3:6] = skew(x[0:3]), skew(x[3:6]), x[6] * np.eye(3)
    return B


def noise_map(q_att, q_vel, q_pos):
    """The 81 x 64 map of vec(G) to vec(N): column (i, j) is vec(E_i Q E_j^T),
    E_i = B(e_i)."""
    Q = np.diag(np.repeat([q_att, q_vel, q_pos], 3))
    E = [noise_input(e) for e in np.eye(8)]
    return np.stack([(Ei @ Q @ Ej.T).ravel() for Ei in E for Ej in E], axis=1)


class TestFilterConfig:
    def test_matrix_builders(self, rng):
        cfg = FilterConfig(r_vel=np.array([0.1, 0.2, 0.3]), r_att=np.array([0.4, 0.5, 0.6]),
                           q_att=0.25, q_vel=3.0, q_pos=0.5)
        np.testing.assert_array_equal(cfg._r_matrix, np.diag([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))
        np.testing.assert_array_equal(cfg._noise_map, noise_map(0.25, 3.0, 0.5))
        for _ in range(20):
            x = np.append(rng.normal(size=7), 1.0)
            B = noise_input(x)
            np.testing.assert_allclose(cfg._noise_map.dot(np.outer(x, x).ravel()),
                                       (B @ np.diag(np.repeat([0.25, 3.0, 0.5], 3)) @ B.T).ravel(),
                                       rtol=0.0, atol=1e-13 * np.abs(x).max() ** 2)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(p0_scale=-0.1), "p0_scale must be finite and >= 0, got -0.1"),
        (dict(q_att=-1e-3), "q_att must be finite and >= 0, got -0.001"),
        (dict(q_pos=np.nan), "q_pos must be finite and >= 0, got nan"),
        (dict(q_vel=np.inf), "q_vel must be finite and >= 0, got inf"),
        (dict(r_vel=-np.ones(3)), "r_vel must be 3 finite values > 0, got [-1.0, -1.0, -1.0]"),
        (dict(r_att=[0.1, 0.0, 0.1]), "r_att must be 3 finite values > 0, got [0.1, 0.0, 0.1]"),
        (dict(r_att=[0.1, np.nan, 0.1]), "r_att must be 3 finite values > 0"),
        (dict(r_vel=[0.1, 0.1]), "r_vel must be 3 finite values > 0, got [0.1, 0.1]"),
        (dict(q_pos="5"), "q_pos must be a real number, got '5'"),
        (dict(p0_scale=True), "p0_scale must be a real number, got True"),
        (dict(q_att=None), "q_att must be a real number, got None"),
        (dict(r_vel=["0.1"] * 3), "r_vel must be 3 finite values > 0, got ['0.1', '0.1', '0.1']"),
        (dict(r_att=[True] * 3), "r_att must be 3 finite values > 0, got [True, True, True]"),
    ], ids=["p0-negative", "q-negative", "q-nan", "q-inf", "r-negative", "r-zero", "r-nan",
            "r-shape", "q-str", "p0-bool", "q-none", "r-str", "r-bool"])
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ValueError) as exc_info:
            FilterConfig(**kwargs)
        assert str(exc_info.value).startswith(message)

    def test_zero_noise_is_accepted(self):
        cfg = FilterConfig(p0_scale=0.0, q_pos=0.0, q_vel=0.0, q_att=0.0)
        assert (cfg.p0_scale, cfg.q_pos, cfg.q_vel, cfg.q_att) == (0.0, 0.0, 0.0, 0.0)

    def test_integer_values_are_accepted_as_floats(self):
        cfg = FilterConfig(q_pos=1, p0_scale=np.int64(2), r_vel=[1, 2, 3], r_att=np.ones(3, int))
        assert (type(cfg.q_pos), type(cfg.p0_scale)) == (float, float)
        assert cfg.r_vel.dtype == cfg.r_att.dtype == float
        np.testing.assert_array_equal(cfg._r_matrix, np.diag([1.0, 2.0, 3.0, 1.0, 1.0, 1.0]))

    def test_compares_and_hashes_by_identity(self):
        cfg = FilterConfig()
        copy, changed = replace(cfg), replace(cfg, q_att=1e-5)
        assert cfg == cfg and cfg != copy and cfg != changed and copy != changed
        assert hash(cfg) == hash(cfg) and len({cfg, copy, changed, cfg}) == 3
        assert changed.q_att == 1e-5
        np.testing.assert_array_equal(r_matrix(copy), r_matrix(cfg))
        assert copy.biases is cfg.biases and copy.gravity is cfg.gravity

    def test_matrices_cannot_go_stale(self):
        # r_vel is a read-only copy: changing the caller's array changes nothing,
        # and neither the fields nor the matrices the updates read can be written.
        r_vel = np.array([0.1, 0.2, 0.3])
        cfg = FilterConfig(r_vel=r_vel)
        r_vel[0] = 5.0
        assert cfg.r_vel[0] == 0.1 and cfg._r_matrix[0, 0] == 0.1
        for array in (cfg.r_vel, cfg.r_att, cfg._r_matrix, cfg._noise_map):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        changed = replace(cfg, r_att=np.full(3, 0.5))
        np.testing.assert_array_equal(changed._r_matrix, r_matrix(changed))
        np.testing.assert_array_equal(changed._r_matrix, np.diag([0.1, 0.2, 0.3, 0.5, 0.5, 0.5]))
        noisier = replace(cfg, q_att=1e-3)
        assert noisier._noise_map is not cfg._noise_map
        np.testing.assert_array_equal(noisier._noise_map, noise_map(1e-3, cfg.q_vel, cfg.q_pos))
        np.testing.assert_array_equal(cfg._noise_map, noise_map(cfg.q_att, cfg.q_vel, cfg.q_pos))
