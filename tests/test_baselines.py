"""Kalman baselines: hand-computed updates, tracking, and group equivariance."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from cipgnav.baselines import (
    EkfState,
    FilterConfig,
    InekfState,
    _attitude_innovation,
    _check_cov,
    ekf_predict,
    inekf_predict,
    inekf_update,
    kalman_update,
    run_ekf,
    run_inekf,
    se23_exp,
)
from cipgnav.errors import NumericalError
from cipgnav.preintegration import ImuBiases, NavState
from cipgnav.quat import (
    quat_angular_distance,
    quat_from_rotvec,
    quat_from_yaw,
    quat_normalize,
    quat_product,
    quat_to_rotation,
)
from cipgnav.sim import NoiseSpec, ScenarioSpec, benchmark_scenario, generate
from tests.conftest import random_unit_quat

QUIET = NoiseSpec(0.0, 0.0, 0.0, 0.0)


def skew(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0.0]])


def circle_epochs(duration=20.0, noise=QUIET, seed=0, radius=10.0):
    spec = ScenarioSpec(kind="circle", duration=duration, speed=0.5,
                        circle_radius=radius, noise=noise, seed=seed)
    run = generate(spec)
    return run, run.epochs()


def reference_ekf_predict(state, burst, config, t_start):
    """ekf_predict sample by sample: per-sample F, noise and mean update."""
    p, v, q, P = state.nav.position, state.nav.velocity, state.nav.orientation, state.cov
    g = config.gravity.vector
    Qc = np.diag(config.q_diag())
    t_prev = t_start
    for row in burst:
        dt = row[0] - t_prev
        R = quat_to_rotation(q)
        a = row[1:4] - config.biases.accel
        w = row[4:7] - config.biases.gyro
        F = np.eye(9)
        F[0:3, 3:6] = dt * np.eye(3)
        F[3:6, 6:9] = -dt * (R @ skew(a))
        F[6:9, 6:9] = np.eye(3) - dt * skew(w)
        P = F @ P @ F.T + Qc * dt
        inc = np.concatenate(([1.0], 0.5 * dt * w))
        p, v, q = p + dt * v, v + dt * (R @ a + g), quat_normalize(quat_product(q, inc))
        t_prev = row[0]
    return p, v, q, 0.5 * (P + P.T)


def reference_inekf_predict(state, burst, config, t_start):
    """inekf_predict sample by sample: per-sample F, Ad-mapped noise and mean update."""
    R, v, p, P = state.rotation, state.velocity, state.position, state.cov
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
    ])


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
            np.testing.assert_allclose(out.rotation, R, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(out.velocity, v, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(out.position, p, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(out.cov, P, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("predict", [ekf_predict, inekf_predict])
    def test_zero_spacing_raises(self, rng, predict):
        config = FilterConfig()
        start = EkfState.start if predict is ekf_predict else InekfState.start
        burst = random_burst(rng, 0.0, 5)
        burst[2, 0] = burst[1, 0]
        with pytest.raises(ValueError, match="spacing"):
            predict(start(NavState(), config), burst, config, 0.0)

    @pytest.mark.parametrize("predict", [ekf_predict, inekf_predict])
    def test_large_spacing_warns_once(self, rng, predict):
        config = FilterConfig()
        start = EkfState.start if predict is ekf_predict else InekfState.start
        burst = random_burst(rng, 0.0, 10)
        burst[4:, 0] += 0.1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            predict(start(NavState(), config), burst, config, 0.0)
        large = [w for w in caught if "is large" in str(w.message)]
        assert len(large) == 1


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

    def test_state_matrix_round_trip(self, rng):
        nav = NavState(rng.normal(size=3), rng.normal(size=3), quat_from_yaw(0.5))
        state = InekfState.start(nav, FilterConfig())
        X = state.as_matrix()
        np.testing.assert_allclose(X[:3, :3], quat_to_rotation(nav.orientation))
        back = state.nav()
        np.testing.assert_allclose(back.position, nav.position)
        np.testing.assert_allclose(back.velocity, nav.velocity)

    def test_left_translation_equivariance(self):
        # Rotating the world about gravity and translating it transforms the
        # filter output exactly, provided the initial covariance is carried
        # through the adjoint: X'_k = Gamma * X_k for every epoch.
        run, epochs = circle_epochs(duration=10.0, noise=NoiseSpec.bluerov2(), seed=4)
        config = FilterConfig()

        gamma_yaw = 0.8
        Rg = quat_to_rotation(quat_from_yaw(gamma_yaw))
        pg = np.array([5.0, -3.0, 2.0])
        Ad = np.zeros((9, 9))
        Ad[0:3, 0:3] = Rg
        Ad[3:6, 3:6] = Rg
        Ad[6:9, 6:9] = Rg
        Ad[6:9, 0:3] = skew(pg) @ Rg

        nav0 = run.initial_nav()
        a = InekfState.start(nav0, config)
        b = InekfState(
            rotation=Rg @ a.rotation,
            velocity=Rg @ a.velocity,
            position=Rg @ a.position + pg,
            cov=Ad @ a.cov @ Ad.T,
        )
        qg = quat_from_yaw(gamma_yaw)
        t_prev = epochs[0].t_prev
        for epoch in epochs:
            a = inekf_predict(a, epoch.imu_burst, config, t_prev)
            b = inekf_predict(b, epoch.imu_burst, config, t_prev)
            a = inekf_update(a, epoch.dvl, epoch.ahrs, config)
            b = inekf_update(b, Rg @ epoch.dvl, quat_product(qg, epoch.ahrs), config)
            t_prev = epoch.t
            np.testing.assert_allclose(b.rotation, Rg @ a.rotation, atol=1e-9)
            np.testing.assert_allclose(b.velocity, Rg @ a.velocity, atol=1e-9)
            np.testing.assert_allclose(b.position, Rg @ a.position + pg, atol=1e-9)


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


class TestFilterConfig:
    def test_matrix_builders(self):
        cfg = FilterConfig(r_vel=np.array([0.1, 0.2, 0.3]), r_att=np.array([0.4, 0.5, 0.6]))
        R = cfg.r_matrix()
        np.testing.assert_allclose(np.diag(R), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        q = cfg.q_diag()
        assert q.shape == (9,)
        np.testing.assert_allclose(q[3:6], 4e-6)
