"""Synthetic scenario generator: analytic consistency, noise seeding, I/O."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from cipgnav.errors import SpecError
from cipgnav.preintegration import GravityModel, ImuBiases
from cipgnav.quat import quat_angular_distance, quat_from_yaw, quat_to_rotation
from cipgnav.sensors import load_stream
from cipgnav.sim import (
    NoiseSpec,
    ScenarioSpec,
    benchmark_scenario,
    generate,
    with_seed,
)

QUIET = NoiseSpec(0.0, 0.0, 0.0, 0.0)


def fd_state_check(model, times, atol=1e-5):
    """Velocity/acceleration/yaw-rate must be derivatives of the state."""
    eps = 1e-4
    for t in times:
        p_m, v_m, a_m, yaw_m, rate_m = model.state(t)
        p_plus, v_plus, _, yaw_plus, _ = model.state(t + eps)
        p_minus, v_minus, _, yaw_minus, _ = model.state(t - eps)
        np.testing.assert_allclose((p_plus - p_minus) / (2 * eps), v_m, atol=atol)
        np.testing.assert_allclose((v_plus - v_minus) / (2 * eps), a_m, atol=atol)
        assert (yaw_plus - yaw_minus) / (2 * eps) == pytest.approx(rate_m, abs=atol)


class TestModels:
    def test_circle_derivatives(self):
        spec = ScenarioSpec(kind="circle", duration=60.0, speed=0.8, circle_radius=15.0)
        fd_state_check(spec.model(), np.linspace(1.0, 59.0, 25))

    def test_line_derivatives(self):
        spec = ScenarioSpec(kind="line", duration=60.0, speed=1.2, initial_heading=0.7)
        fd_state_check(spec.model(), np.linspace(1.0, 59.0, 10))

    def test_waypoints_derivatives(self):
        spec = ScenarioSpec(
            kind="waypoints", duration=500.0, speed=0.5,
            waypoints=((0, 0, 0), (20, 0, 0), (20, 20, -3), (0, 25, -3)),
        )
        model = spec.model()
        fd_state_check(model, np.linspace(1.0, model.duration - 1.0, 20), atol=1e-4)

    def test_waypoints_duration_capped_by_path_length(self):
        spec = ScenarioSpec(
            kind="waypoints", duration=1e6, speed=1.0,
            waypoints=((0, 0, 0), (10, 0, 0)),
        )
        assert spec.model().duration <= 30.0

    def test_waypoints_pass_near_targets(self):
        wps = ((0, 0, 0), (15, 0, 0), (15, 10, 0))
        spec = ScenarioSpec(kind="waypoints", duration=200.0, speed=0.5, waypoints=wps)
        model = spec.model()
        ts = np.linspace(0.0, model.duration, 2000)
        pos = np.array([model.state(t)[0] for t in ts])
        for w in wps:
            assert np.min(np.linalg.norm(pos - np.array(w), axis=1)) < 0.5

    def test_lawnmower_speed_and_continuity(self):
        spec = ScenarioSpec(kind="lawnmower", duration=300.0, speed=0.5,
                            lawnmower_leg=20.0, lawnmower_spacing=10.0)
        model = spec.model()
        ts = np.linspace(0.0, 300.0, 3001)
        states = [model.state(t) for t in ts]
        speeds = np.array([np.linalg.norm(s[1]) for s in states])
        np.testing.assert_allclose(speeds, 0.5, atol=1e-9)
        pos = np.array([s[0] for s in states])
        steps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        assert steps.max() < 0.5 * 0.1 * 1.01  # no jumps: |dp| <= speed*dt

    def test_lawnmower_sweeps_sideways(self):
        spec = ScenarioSpec(kind="lawnmower", duration=400.0, speed=0.5,
                            lawnmower_leg=20.0, lawnmower_spacing=10.0)
        model = spec.model()
        pos = np.array([model.state(t)[0] for t in np.linspace(0, 400, 4001)])
        # Successive turns advance +y by one spacing; x stays within the legs.
        assert pos[:, 1].max() >= 2 * 10.0 - 0.5
        assert pos[:, 0].min() > -5.01 - 0.5 and pos[:, 0].max() < 25.01

    def test_initial_heading_rotates_velocity(self):
        spec = ScenarioSpec(kind="line", duration=10.0, speed=1.0, initial_heading=np.pi / 2)
        _, v, _, yaw, _ = spec.model().state(0.0)
        np.testing.assert_allclose(v, [0.0, 1.0, 0.0], atol=1e-12)
        assert yaw == pytest.approx(np.pi / 2)


class TestSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(SpecError, match="duration"):
            ScenarioSpec(duration=-1.0)
        with pytest.raises(SpecError, match="kind"):
            ScenarioSpec(kind="zigzag")
        with pytest.raises(SpecError, match="imu_rate"):
            ScenarioSpec(imu_rate=5.0, meas_rate=5.0)
        with pytest.raises(SpecError, match="dvl_frame"):
            ScenarioSpec(dvl_frame="sensor")
        with pytest.raises(SpecError, match="waypoints"):
            ScenarioSpec(kind="waypoints", waypoints=((0, 0, 0),))
        with pytest.raises(SpecError, match="speed"):
            ScenarioSpec(kind="circle", speed=0.0)

    def test_dict_round_trip(self):
        spec = ScenarioSpec(
            kind="lawnmower", duration=42.0, noise=NoiseSpec.bluerov2(),
            biases=ImuBiases(accel=np.array([0.01, 0.0, -0.01])),
            dvl_frame="body", seed=7,
        )
        d = spec.to_dict()
        assert ScenarioSpec.from_dict(d).to_dict() == d

    def test_noise_presets(self):
        assert NoiseSpec.preset("none").dvl_std == 0.0
        assert NoiseSpec.preset("bluerov2").dvl_std == pytest.approx(0.02)
        with pytest.raises(SpecError):
            NoiseSpec.preset("imaginary")


class TestGenerate:
    def test_noiseless_streams_match_truth(self):
        spec = ScenarioSpec(kind="circle", duration=20.0, speed=0.5,
                            circle_radius=10.0, noise=QUIET)
        run = generate(spec)
        model = spec.model()
        for s in run.dvl:
            np.testing.assert_allclose(s.velocity, model.state(s.t)[1], atol=1e-12)
        for s in run.ahrs:
            assert quat_angular_distance(s.orientation, quat_from_yaw(model.state(s.t)[3])) < 1e-12

    def test_noiseless_imu_readings(self):
        # Stationary and level: the accelerometer reads the gravity reaction,
        # the gyro reads zero.
        run = generate(ScenarioSpec(kind="stationary", duration=2.0, speed=0.0, noise=QUIET))
        g = run.spec.gravity.vector
        for s in run.imu:
            np.testing.assert_allclose(s.accel, -g, atol=1e-12)
            np.testing.assert_allclose(s.gyro, np.zeros(3), atol=1e-12)

    def test_noiseless_circle_imu(self):
        spec = ScenarioSpec(kind="circle", duration=10.0, speed=1.0,
                            circle_radius=20.0, noise=QUIET)
        run = generate(spec)
        model = spec.model()
        for s in run.imu[::17]:
            _, _, a_nav, yaw, yaw_rate = model.state(s.t)
            R = quat_to_rotation(quat_from_yaw(yaw))
            np.testing.assert_allclose(s.accel, R.T @ (a_nav - spec.gravity.vector), atol=1e-12)
            np.testing.assert_allclose(s.gyro, [0.0, 0.0, yaw_rate], atol=1e-12)

    def test_timestamp_layout(self):
        run = generate(ScenarioSpec(kind="line", duration=2.0, noise=QUIET))
        assert run.imu[0].t == pytest.approx(0.01)
        assert run.imu[-1].t == pytest.approx(2.0)
        assert run.dvl[0].t == pytest.approx(0.2)
        assert run.truth[0].t == 0.0

    def test_biases_added_to_imu(self):
        biases = ImuBiases(accel=np.array([0.1, 0.0, 0.0]), gyro=np.array([0.0, 0.01, 0.0]))
        base = generate(ScenarioSpec(kind="stationary", duration=1.0, speed=0.0, noise=QUIET))
        biased = generate(ScenarioSpec(kind="stationary", duration=1.0, speed=0.0,
                                       noise=QUIET, biases=biases))
        np.testing.assert_allclose(biased.imu[0].accel - base.imu[0].accel,
                                   biases.accel, atol=1e-15)
        np.testing.assert_allclose(biased.imu[0].gyro - base.imu[0].gyro,
                                   biases.gyro, atol=1e-15)

    def test_seed_determinism_and_channel_independence(self):
        noisy = ScenarioSpec(kind="circle", duration=5.0, noise=NoiseSpec.bluerov2(), seed=3)
        a = generate(noisy)
        b = generate(noisy)
        np.testing.assert_array_equal(a.imu[7].accel, b.imu[7].accel)
        np.testing.assert_array_equal(a.dvl[3].velocity, b.dvl[3].velocity)

        c = generate(with_seed(noisy, 4))
        assert not np.array_equal(a.imu[7].accel, c.imu[7].accel)

        # Changing only the DVL noise must not disturb the IMU draw.
        quieter = ScenarioSpec(kind="circle", duration=5.0, seed=3,
                               noise=NoiseSpec(2e-3, 1e-4, 0.5, 0.01))
        d = generate(quieter)
        np.testing.assert_array_equal(a.imu[7].accel, d.imu[7].accel)
        np.testing.assert_array_equal(a.imu[7].gyro, d.imu[7].gyro)
        assert not np.array_equal(a.dvl[3].velocity, d.dvl[3].velocity)

    def test_noise_scale_matches_density(self):
        spec = ScenarioSpec(kind="stationary", duration=50.0, speed=0.0,
                            noise=NoiseSpec(2e-3, 1e-4, 0.0, 0.0), seed=9)
        run = generate(spec)
        accel = np.array([s.accel for s in run.imu]) - (-spec.gravity.vector)
        sigma = 2e-3 * np.sqrt(100.0)
        assert accel.std() == pytest.approx(sigma, rel=0.05)

    def test_body_frame_dvl(self):
        spec = ScenarioSpec(kind="circle", duration=10.0, speed=1.0, circle_radius=10.0,
                            noise=QUIET, dvl_frame="body")
        run = generate(spec)
        model = spec.model()
        for s in run.dvl[::3]:
            _, v_nav, _, yaw, _ = model.state(s.t)
            R = quat_to_rotation(quat_from_yaw(yaw))
            np.testing.assert_allclose(s.velocity, R.T @ v_nav, atol=1e-12)

    def test_write_round_trip(self, tmp_path):
        run = generate(ScenarioSpec(kind="circle", duration=4.0, noise=NoiseSpec.bluerov2()))
        paths = run.write(tmp_path)
        assert set(paths) == {"imu", "dvl", "ahrs", "gt"}
        imu = load_stream(paths["imu"], "imu")
        assert len(imu) == len(run.imu)
        np.testing.assert_array_equal(imu[5].accel, run.imu[5].accel)
        gt = load_stream(paths["gt"], "gt")
        assert gt[0].t == 0.0
        assert gt[0].orientation is not None

    def test_epochs_and_initial_nav(self):
        run = generate(ScenarioSpec(kind="circle", duration=4.0, noise=QUIET))
        epochs = run.epochs()
        assert len(epochs) == 20
        nav = run.initial_nav()
        np.testing.assert_allclose(nav.position, [0.0, 0.0, 0.0], atol=1e-12)

    def test_epochs_rotate_body_frame_dvl(self):
        nav_frame = ScenarioSpec(kind="circle", duration=10.0, speed=1.0, circle_radius=10.0,
                                 noise=NoiseSpec(2e-3, 1e-4, 0.02, 0.0), seed=2)
        nav_epochs = generate(nav_frame).epochs()
        body_epochs = generate(replace(nav_frame, dvl_frame="body")).epochs()
        assert len(body_epochs) == len(nav_epochs)
        for nav_epoch, body_epoch in zip(nav_epochs, body_epochs):
            np.testing.assert_allclose(body_epoch.dvl, nav_epoch.dvl, rtol=0.0, atol=1e-12)


class TestBenchmarkScenario:
    def test_deterministic_and_seed_dependent(self):
        a = benchmark_scenario(0)
        b = benchmark_scenario(0)
        np.testing.assert_array_equal(a.biases.accel, b.biases.accel)
        assert a.seed == b.seed
        c = benchmark_scenario(1)
        assert not np.array_equal(a.biases.accel, c.biases.accel)

    def test_bias_ranges(self):
        for seed in range(5):
            spec = benchmark_scenario(seed)
            assert np.all(np.abs(spec.biases.accel) <= 0.02)
            assert np.all(np.abs(spec.biases.gyro) <= 0.002)
            assert spec.kind == "lawnmower"
            assert spec.noise.dvl_std > 0.0
