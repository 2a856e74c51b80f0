"""Kalman baselines: hand-computed updates, tracking, and group equivariance."""

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
    ekf_predict,
    ekf_update,
    inekf_predict,
    inekf_update,
    kalman_update,
    run_ekf,
    run_inekf,
    se23_exp,
)
from cipgnav.cascade import CascadeConfig, run_cascade
from cipgnav.cli import hash_epochs
from cipgnav.errors import DegenerateQuaternionError, NumericalError
from cipgnav.preintegration import ImuBiases, NavState
from cipgnav.quat import (
    quat_angular_distance,
    quat_from_rotvec,
    quat_from_yaw,
    quat_multiply,
    quat_normalize,
    quat_product,
    quat_to_rotation,
    rotation_to_quat,
)
from cipgnav.sim import NoiseSpec, ScenarioSpec, benchmark_scenario, generate
from tests import oracles
from tests.conftest import central_difference, random_unit_quat

QUIET = NoiseSpec(0.0, 0.0, 0.0, 0.0)


def skew(v):
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0.0]])


def r_matrix(config):
    """The 6x6 measurement noise covariance of ``config``'s DVL and AHRS updates."""
    return np.diag(np.concatenate([config.r_vel, config.r_att]))


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
            np.testing.assert_allclose(out.rotation, R, rtol=0.0, atol=1e-12)
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

    @pytest.mark.parametrize("predict", [ekf_predict, inekf_predict])
    def test_large_spacing_warns_once(self, rng, predict):
        burst = random_burst(rng, 0.0, 10)
        burst[4:, 0] += 0.1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            predict_from_rest(predict, burst)
        assert len(large_spacing_warnings(caught)) == 1

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
    """The simulated streams, their epoch digest, the cipg trajectory and the EKF's
    predicted mean use no BLAS call, so an OpenBLAS build that picks its kernel at
    run time gives them the same bits under every kernel."""

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
    """ekf_update's row-selection form against kalman_update with H = [0 I]."""

    H = np.eye(9)[3:]

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
            assert out.nav.position.tobytes() == (nav.position + dx[0:3]).tobytes()
            assert out.nav.velocity.tobytes() == (nav.velocity + dx[3:6]).tobytes()
            assert out.nav.orientation.tobytes() == quat_multiply(
                nav.orientation, quat_from_rotvec(dx[6:9])).tobytes()

    def test_singular_innovation_covariance_raises_as_kalman_update(self, rng):
        config, nav, dvl, ahrs = self.random_inputs(rng)
        P = np.zeros((9, 9))
        P[3:, 3:] = -r_matrix(config)  # S = P[3:, 3:] + R = 0
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
        P = np.diag([-1.0] + [0.1] * 8)
        if step == "predict":
            run = lambda cfg: ekf_predict(EkfState(nav, P), random_burst(rng, 0.0, 5), cfg, 0.0)
        else:
            run = lambda cfg: ekf_update(EkfState(nav, P), dvl, ahrs, cfg)
        assert run(replace(config, validate=False)).cov[0, 0] < 0.0
        with pytest.raises(NumericalError, match=f"ekf_{step}: covariance lost positive"):
            run(config)


class TestUpdatesAgainstArrayOracles:
    """ekf_update and inekf_update on Python floats against their forms on numpy
    arrays in ``oracles``, bit for bit."""

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
            for name in ("rotation", "velocity", "position", "cov"):
                assert getattr(out, name).tobytes() == getattr(ref, name).tobytes(), name
            tiny += exact and np.abs(out.rotation - state.rotation).max() < 1e-12
        assert tiny == 75


class TestUpdateLinearization:
    """Each update's measurement rows against a central difference of its innovation,
    with the state moved along each error coordinate by the filter's own retraction."""

    def state(self, rng):
        return NavState(rng.normal(scale=10.0, size=3), rng.normal(scale=2.0, size=3),
                        random_unit_quat(rng))

    def test_ekf(self, rng):
        # X + dx = (p + dp, v + dv, q (x) Exp(dtheta)); measurements of the noise-free
        # state itself, so the innovation of the moved state is -H dx to first order.
        H = np.eye(9)[3:]
        for _ in range(20):
            nav = self.state(rng)
            dvl, ahrs = nav.velocity, nav.orientation

            def innovation(dx):
                q = quat_multiply(nav.orientation, quat_from_rotvec(dx[6:9]))
                return [*(dvl - (nav.velocity + dx[3:6])), *_attitude_innovation(q, ahrs)]

            J = central_difference(innovation, np.zeros(9))
            np.testing.assert_allclose(J, -H, rtol=0.0, atol=1e-6)

    def test_inekf(self, rng):
        # Exp(xi) X by se23_exp; the error is X_est X_true^-1 and the correction
        # Exp(-K y), so the innovation of the moved state is +H xi to first order.
        for _ in range(20):
            state = InekfState.start(self.state(rng), FilterConfig())
            dvl, ahrs = state.velocity.tolist(), rotation_to_quat(state.rotation)
            _, H = _inekf_measurement(state, dvl, ahrs)

            def innovation(xi):
                Rc, dv, dp = se23_exp(xi)
                moved = InekfState(Rc @ state.rotation, Rc @ state.velocity + dv,
                                   Rc @ state.position + dp, state.cov)
                return _inekf_measurement(moved, dvl, ahrs)[0]

            J = central_difference(innovation, np.zeros(9))
            np.testing.assert_allclose(J, H, rtol=0.0, atol=1e-6)
            assert np.abs(H[0:3, 0:3]).max() > 1e-3  # the velocity's attitude block is tested


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
        np.testing.assert_allclose(state.rotation, quat_to_rotation(nav.orientation))
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


class TestFilterConfig:
    def test_matrix_builders(self):
        cfg = FilterConfig(r_vel=np.array([0.1, 0.2, 0.3]), r_att=np.array([0.4, 0.5, 0.6]))
        np.testing.assert_array_equal(cfg._r_matrix, np.diag([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))
        q = cfg.q_diag()
        assert q.shape == (9,)
        np.testing.assert_allclose(q[3:6], 4e-6)

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
        np.testing.assert_array_equal(cfg.q_diag(), np.zeros(9))

    def test_integer_values_are_accepted_as_floats(self):
        cfg = FilterConfig(q_pos=1, p0_scale=np.int64(2), r_vel=[1, 2, 3], r_att=np.ones(3, int))
        assert (type(cfg.q_pos), type(cfg.p0_scale)) == (float, float)
        assert cfg.r_vel.dtype == cfg.r_att.dtype == float
        np.testing.assert_array_equal(cfg._r, [1.0, 2.0, 3.0, 1.0, 1.0, 1.0])

    def test_compares_and_hashes_by_identity(self):
        cfg = FilterConfig()
        copy, changed = replace(cfg), replace(cfg, q_att=1e-5)
        assert cfg == cfg and cfg != copy and cfg != changed and copy != changed
        assert hash(cfg) == hash(cfg) and len({cfg, copy, changed, cfg}) == 3
        assert changed.q_att == 1e-5 and changed.q_diag()[8] == 1e-5
        np.testing.assert_array_equal(r_matrix(copy), r_matrix(cfg))
        assert copy.biases is cfg.biases and copy.gravity is cfg.gravity

    def test_matrices_cannot_go_stale(self):
        # r_vel is a read-only copy: changing the caller's array changes nothing,
        # and neither the fields nor the matrices the updates read can be written.
        r_vel = np.array([0.1, 0.2, 0.3])
        cfg = FilterConfig(r_vel=r_vel)
        r_vel[0] = 5.0
        assert cfg.r_vel[0] == 0.1 and cfg._r_matrix[0, 0] == 0.1
        for array in (cfg.r_vel, cfg.r_att, cfg._r_matrix, cfg.q_diag()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        changed = replace(cfg, r_att=np.full(3, 0.5))
        np.testing.assert_array_equal(changed._r_matrix, r_matrix(changed))
        np.testing.assert_array_equal(changed._r_matrix, np.diag([0.1, 0.2, 0.3, 0.5, 0.5, 0.5]))
