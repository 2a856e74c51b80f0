"""Synthetic scenario generator: analytic consistency, noise seeding, I/O."""

from __future__ import annotations

import math
from dataclasses import replace

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipgnav import sim
from cipgnav.errors import SpecError
from cipgnav.preintegration import GravityModel, ImuBiases, NavState
from cipgnav.quat import (
    quat_angular_distance,
    quat_from_rotvec,
    quat_from_yaw,
    quat_multiply,
    quat_product,
    quat_to_rotation,
    unit_rows,
)
from cipgnav.sensors import load_stream
from cipgnav.sim import (
    KINDS,
    NoiseSpec,
    ScenarioSpec,
    benchmark_scenario,
    generate,
)
from tests import oracles
from tests.oracles import float_matmul

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

    @pytest.mark.parametrize("field", ["circle_radius", "lawnmower_leg", "lawnmower_spacing",
                                       "initial_heading"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_geometry(self, field, value):
        with pytest.raises(SpecError, match=f"{field} must be finite"):
            ScenarioSpec(**{field: value})

    def test_dict_round_trip(self):
        spec = ScenarioSpec(
            kind="lawnmower", duration=42.0, noise=NoiseSpec.bluerov2(),
            biases=ImuBiases(accel=np.array([0.01, 0.0, -0.01])),
            dvl_frame="body", seed=7,
        )
        d = spec.to_dict()
        assert ScenarioSpec.from_dict(d).to_dict() == d

    @pytest.mark.parametrize("part, key", [(None, "dvl_rate"), ("noise", "dvl_rate"),
                                           ("biases", "mag")])
    def test_from_dict_names_unknown_keys(self, part, key):
        # An unknown key once raised a TypeError from ScenarioSpec.__init__.
        d = benchmark_scenario(3).to_dict()
        (d if part is None else d[part])[key] = 1.0
        where = "scenario" if part is None else f"scenario {part}"
        with pytest.raises(SpecError, match=rf"^{where}: unknown keys \['{key}'\]; expected"):
            ScenarioSpec.from_dict(d)

    def test_from_dict_accepts_retired_keys(self):
        d = {**ScenarioSpec().to_dict(), "gps_rate": 2.0, "gps_origin": [42.0, 3.0]}
        assert ScenarioSpec.from_dict(d).to_dict() == ScenarioSpec().to_dict()

    def test_noise_presets(self):
        assert NoiseSpec.preset("none").dvl_std == 0.0
        assert NoiseSpec.preset("bluerov2").dvl_std == pytest.approx(0.02)
        with pytest.raises(SpecError):
            NoiseSpec.preset("imaginary")


_finite = st.floats(-1e3, 1e3, allow_nan=False)
_vec3 = st.tuples(_finite, _finite, _finite)


@st.composite
def _specs(draw):
    """Valid ScenarioSpecs of every kind, with int or float headings, either noise preset
    with overrides, biases, a nonstandard gravity and Python or numpy integer seeds."""
    kind = draw(st.sampled_from(KINDS))
    rate = draw(st.floats(0.5, 20.0))
    kwargs = dict(
        kind=kind, duration=draw(st.floats(0.1, 1e4)), speed=draw(st.floats(0.01, 5.0)),
        imu_rate=draw(st.floats(2.0 * rate, 400.0)), meas_rate=rate,
        circle_radius=draw(st.floats(0.1, 1e3)), lawnmower_leg=draw(st.floats(0.1, 1e3)),
        lawnmower_spacing=draw(st.floats(0.1, 1e3)),
        initial_heading=draw(st.one_of(st.integers(-7, 7), _finite)),
        dvl_frame=draw(st.sampled_from(["nav", "body"])),
        seed=draw(st.one_of(st.integers(0, 2**63), st.integers(0, 2**62).map(np.int64))),
    )
    if kind == "waypoints" or draw(st.booleans()):
        kwargs["waypoints"] = draw(st.lists(_vec3, min_size=2, max_size=5))
    overrides = draw(st.dictionaries(st.sampled_from(["accel_density", "gyro_density",
                                                      "dvl_std", "ahrs_std"]),
                                     st.floats(0.0, 1.0)))
    kwargs["noise"] = replace(NoiseSpec.preset(draw(st.sampled_from(["none", "bluerov2"]))),
                              **overrides)
    if draw(st.booleans()):
        kwargs["biases"] = ImuBiases(np.array(draw(_vec3)), np.array(draw(_vec3)))
    if draw(st.booleans()):
        kwargs["gravity"] = GravityModel(np.array(draw(_vec3)), allow_nonstandard=True)
    return ScenarioSpec(**kwargs)


class TestToDict:
    """``to_dict`` is built from ``dataclasses.fields``; it must give what the
    hand-written one gave, in the same key order, and round-trip."""

    @settings(max_examples=300, deadline=None)
    @given(spec=_specs())
    def test_equals_the_field_by_field_dict(self, spec):
        d, expected = spec.to_dict(), oracles.scenario_to_dict(spec)
        assert d == expected
        assert list(d.items()) == list(expected.items())
        assert json.dumps(d) == json.dumps(expected)
        assert ScenarioSpec.from_dict(d).to_dict() == d

    @pytest.mark.parametrize("spec", [
        ScenarioSpec(), benchmark_scenario(3),
        ScenarioSpec(kind="waypoints", waypoints=[(0, 0, 0), (10, 5, 0), (20, -3, 1)], seed=4),
    ], ids=["default", "benchmark", "waypoints"])
    def test_examples(self, spec):
        d = spec.to_dict()
        assert json.dumps(d) == json.dumps(oracles.scenario_to_dict(spec))
        assert ScenarioSpec.from_dict(d).to_dict() == d


class TestGenerate:
    def test_noiseless_streams_match_truth(self):
        spec = ScenarioSpec(kind="circle", duration=20.0, speed=0.5,
                            circle_radius=10.0, noise=QUIET)
        run = generate(spec)
        model = spec.model()
        for t, *velocity in run.dvl:
            np.testing.assert_allclose(velocity, model.state(t)[1], atol=1e-12)
        for t, *orientation in run.ahrs:
            assert quat_angular_distance(orientation, quat_from_yaw(model.state(t)[3])) < 1e-12

    def test_noiseless_imu_readings(self):
        # Stationary and level: the accelerometer reads the gravity reaction,
        # the gyro reads zero.
        run = generate(ScenarioSpec(kind="stationary", duration=2.0, speed=0.0, noise=QUIET))
        g = run.spec.gravity.vector
        np.testing.assert_allclose(run.imu[:, 1:4], np.tile(-g, (len(run.imu), 1)), atol=1e-12)
        np.testing.assert_allclose(run.imu[:, 4:7], np.zeros((len(run.imu), 3)), atol=1e-12)

    def test_noiseless_circle_imu(self):
        spec = ScenarioSpec(kind="circle", duration=10.0, speed=1.0,
                            circle_radius=20.0, noise=QUIET)
        run = generate(spec)
        model = spec.model()
        for t, *reading in run.imu[::17]:
            _, _, a_nav, yaw, yaw_rate = model.state(t)
            R = quat_to_rotation(quat_from_yaw(yaw))
            np.testing.assert_allclose(reading[:3], R.T @ (a_nav - spec.gravity.vector),
                                       atol=1e-12)
            np.testing.assert_allclose(reading[3:], [0.0, 0.0, yaw_rate], atol=1e-12)

    def test_timestamp_layout(self):
        run = generate(ScenarioSpec(kind="line", duration=2.0, noise=QUIET))
        assert run.imu[0, 0] == pytest.approx(0.01)
        assert run.imu[-1, 0] == pytest.approx(2.0)
        assert run.dvl[0, 0] == pytest.approx(0.2)
        assert run.truth[0].t == 0.0

    def test_biases_added_to_imu(self):
        biases = ImuBiases(accel=np.array([0.1, 0.0, 0.0]), gyro=np.array([0.0, 0.01, 0.0]))
        base = generate(ScenarioSpec(kind="stationary", duration=1.0, speed=0.0, noise=QUIET))
        biased = generate(ScenarioSpec(kind="stationary", duration=1.0, speed=0.0,
                                       noise=QUIET, biases=biases))
        np.testing.assert_allclose(biased.imu[0, 1:4] - base.imu[0, 1:4],
                                   biases.accel, atol=1e-15)
        np.testing.assert_allclose(biased.imu[0, 4:7] - base.imu[0, 4:7],
                                   biases.gyro, atol=1e-15)

    def test_seed_determinism_and_channel_independence(self):
        noisy = ScenarioSpec(kind="circle", duration=5.0, noise=NoiseSpec.bluerov2(), seed=3)
        a = generate(noisy)
        b = generate(noisy)
        np.testing.assert_array_equal(a.imu[7, 1:4], b.imu[7, 1:4])
        np.testing.assert_array_equal(a.dvl[3, 1:], b.dvl[3, 1:])

        c = generate(replace(noisy, seed=4))
        assert not np.array_equal(a.imu[7, 1:4], c.imu[7, 1:4])

        # Changing only the DVL noise must not disturb the IMU draw.
        quieter = ScenarioSpec(kind="circle", duration=5.0, seed=3,
                               noise=NoiseSpec(2e-3, 1e-4, 0.5, 0.01))
        d = generate(quieter)
        np.testing.assert_array_equal(a.imu[7, 1:4], d.imu[7, 1:4])
        np.testing.assert_array_equal(a.imu[7, 4:7], d.imu[7, 4:7])
        assert not np.array_equal(a.dvl[3, 1:], d.dvl[3, 1:])

    def test_noise_scale_matches_density(self):
        spec = ScenarioSpec(kind="stationary", duration=50.0, speed=0.0,
                            noise=NoiseSpec(2e-3, 1e-4, 0.0, 0.0), seed=9)
        run = generate(spec)
        accel = run.imu[:, 1:4] - (-spec.gravity.vector)
        sigma = 2e-3 * np.sqrt(100.0)
        assert accel.std() == pytest.approx(sigma, rel=0.05)

    def test_body_frame_dvl(self):
        spec = ScenarioSpec(kind="circle", duration=10.0, speed=1.0, circle_radius=10.0,
                            noise=QUIET, dvl_frame="body")
        run = generate(spec)
        model = spec.model()
        for t, *velocity in run.dvl[::3]:
            _, v_nav, _, yaw, _ = model.state(t)
            R = quat_to_rotation(quat_from_yaw(yaw))
            np.testing.assert_allclose(velocity, R.T @ v_nav, atol=1e-12)

    def test_write_round_trip(self, tmp_path):
        run = generate(ScenarioSpec(kind="circle", duration=4.0, noise=NoiseSpec.bluerov2()))
        paths = run.write(tmp_path)
        assert set(paths) == {"imu", "dvl", "ahrs", "gt"}
        imu = load_stream(paths["imu"], "imu")
        assert len(imu) == len(run.imu)
        np.testing.assert_array_equal(imu[5], run.imu[5])
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


def reference_state(model, t):
    """The scalar formulas, one time at a time, that each model's ``states`` vectorizes."""
    if isinstance(model, sim._Stationary):
        return np.zeros(3), np.zeros(3), np.zeros(3), model.yaw, 0.0
    if isinstance(model, sim._Line):
        return t * model.vel, model.vel.copy(), np.zeros(3), model.yaw, 0.0
    if isinstance(model, sim._Circle):
        w = model.omega
        yaw = model.yaw0 + w * t
        c, s = math.cos(yaw), math.sin(yaw)
        p = (model.speed / w) * np.array(
            [s - math.sin(model.yaw0), -c + math.cos(model.yaw0), 0.0])
        return (p, model.speed * np.array([c, s, 0.0]), model.speed * w * np.array([-s, c, 0.0]),
                yaw, w)
    if isinstance(model, sim._Lawnmower):
        i = int(np.searchsorted(model.starts, t, side="right")) - 1
        i = max(0, min(i, len(model.starts) - 1))
        tau = t - float(model.starts[i])
        pos, yaw0, sign = model.origins[i], float(model.yaws[i]), float(model.signs[i])
        if sign == 0.0:
            heading = np.array([math.cos(yaw0), math.sin(yaw0), 0.0])
            return (pos + model.speed * tau * heading, model.speed * heading, np.zeros(3),
                    yaw0, 0.0)
        w = sign * model.speed / model.radius
        yaw = yaw0 + w * tau
        center = pos + sign * model.radius * np.array([-math.sin(yaw0), math.cos(yaw0), 0.0])
        c, s = math.cos(yaw), math.sin(yaw)
        p = center + sign * model.radius * np.array([s, -c, 0.0])
        return (p, model.speed * np.array([c, s, 0.0]), model.speed * w * np.array([-s, c, 0.0]),
                yaw, w)
    p, v, a = (np.asarray(f(t), dtype=float)
               for f in (model.spline, model.dspline, model.ddspline))
    speed_sq = float(v[0] ** 2 + v[1] ** 2)
    if speed_sq < 1e-18:
        return p, v, a, model.yaw0, 0.0
    return p, v, a, math.atan2(v[1], v[0]), (v[0] * a[1] - v[1] * a[0]) / speed_sq


def reference_run(spec):
    """(imu, dvl, ahrs, truth) computed sample by sample, the generator's oracle.

    ``truth`` is an (n, 11) array of t, position, velocity and orientation.
    """
    model = spec.model()
    rng_accel, rng_gyro, rng_dvl, rng_ahrs = (
        np.random.default_rng(s) for s in np.random.SeedSequence(spec.seed).spawn(4)
    )
    g = spec.gravity.vector
    sigma_a = spec.noise.accel_density * math.sqrt(spec.imu_rate)
    sigma_w = spec.noise.gyro_density * math.sqrt(spec.imu_rate)
    imu_t = sim._timestamps(spec.imu_rate, model.duration)
    imu = np.empty((len(imu_t), 7))
    imu[:, 0] = imu_t
    for row, t in zip(imu, imu_t):
        _, _, a_nav, yaw, yaw_rate = reference_state(model, t)
        R = quat_to_rotation(quat_from_yaw(yaw))
        row[1:4] = (float_matmul(R.T, a_nav - g) + spec.biases.accel
                    + sigma_a * rng_accel.standard_normal(3))
        row[4:7] = (np.array([0.0, 0.0, yaw_rate]) + spec.biases.gyro
                    + sigma_w * rng_gyro.standard_normal(3))

    meas_t = sim._timestamps(spec.meas_rate, model.duration)
    dvl = np.empty((len(meas_t), 4))
    ahrs = np.empty((len(meas_t), 5))
    dvl[:, 0] = ahrs[:, 0] = meas_t
    p, v, _, yaw, _ = reference_state(model, 0.0)
    truth = [(0.0, NavState(p, v, quat_from_yaw(yaw)))]
    for dvl_row, ahrs_row, t in zip(dvl, ahrs, meas_t):
        p, v, _, yaw, _ = reference_state(model, t)
        q = quat_from_yaw(yaw)
        v_meas = v + spec.noise.dvl_std * rng_dvl.standard_normal(3)
        if spec.dvl_frame == "body":
            v_meas = float_matmul(quat_to_rotation(q).T, v_meas)
        dvl_row[1:] = v_meas
        q_meas = q
        if spec.noise.ahrs_std > 0.0:
            q_meas = quat_multiply(
                q, quat_from_rotvec(spec.noise.ahrs_std * rng_ahrs.standard_normal(3)))
        ahrs_row[1:] = q_meas
        truth.append((float(t), NavState(p, v, q)))
    truth = np.array([[t, *nav.position, *nav.velocity, *nav.orientation] for t, nav in truth])
    return imu, dvl, ahrs, truth


def assert_matches_reference(spec):
    run = generate(spec)
    truth = np.array([[p.t, *p.nav.position, *p.nav.velocity, *p.nav.orientation]
                      for p in run.truth])
    for name, got, expected in zip(("imu", "dvl", "ahrs", "truth"),
                                   (run.imu, run.dvl, run.ahrs, truth), reference_run(spec)):
        assert got.shape == expected.shape, name
        assert np.array_equal(got, expected), (name, int((got != expected).sum()))


ORACLE_KINDS = {
    "stationary": dict(speed=0.0),
    "line": dict(speed=1.2),
    "circle": dict(speed=0.9, circle_radius=10.0),
    # Legs of 5 s and turns of 7.9 s: the run turns both ways.  A speed that is
    # not a power of two exposes a changed order of multiplication.
    "lawnmower": dict(speed=0.8, lawnmower_leg=4.0, lawnmower_spacing=4.0),
    "waypoints": dict(speed=0.9, waypoints=((0, 0, 0), (8, 0, 0), (8, 8, -2), (0, 9, -2))),
}


class TestBlockGeneration:
    """``generate`` is bit for bit the per-sample computation it replaced."""

    @pytest.mark.parametrize("noise", ["none", "bluerov2"])
    @pytest.mark.parametrize("dvl_frame", ["nav", "body"])
    @pytest.mark.parametrize("kind", sorted(ORACLE_KINDS))
    def test_equals_per_sample_reference(self, kind, dvl_frame, noise, monkeypatch):
        # 2,000 IMU rows in blocks of 700, 700 and 600.
        monkeypatch.setattr(sim, "IMU_BLOCK_ROWS", 700)
        spec = ScenarioSpec(
            kind=kind, duration=20.0, initial_heading=0.4, dvl_frame=dvl_frame,
            noise=NoiseSpec.preset(noise), seed=7,
            biases=ImuBiases(accel=np.array([0.01, -0.02, 0.005]),
                             gyro=np.array([-0.001, 0.002, 0.0015])),
            **ORACLE_KINDS[kind])
        assert_matches_reference(spec)

    def test_more_than_two_blocks_equal_reference(self):
        spec = benchmark_scenario(3, duration=90.0)
        assert 2 * sim.IMU_BLOCK_ROWS < 90.0 * spec.imu_rate
        assert_matches_reference(spec)

    def test_ahrs_perturbation_equals_rowwise(self):
        rng = np.random.default_rng(11)
        E = np.concatenate([
            np.zeros((2, 3)),
            1e-13 * rng.standard_normal((20, 3)),  # first-order branch
            [[1e-12, 0.0, 0.0], [0.0, -9.9e-13, 0.0]],  # at and just under its threshold
            0.01 * rng.standard_normal((200, 3)),
            rng.standard_normal((50, 3)),
        ])
        Q = quat_from_yaw(rng.uniform(-4.0, 4.0, len(E)))
        Q[::2] = rng.standard_normal((len(Q[::2]), 4))  # and general, non-unit quaternions
        expected = np.array([quat_multiply(q, quat_from_rotvec(e)) for q, e in zip(Q, E)])
        assert np.array_equal(unit_rows(quat_product(Q, quat_from_rotvec(E)))[0], expected)


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
