"""Two-stage window estimator: warmup, tracking, fallback, burst algebra."""

from __future__ import annotations

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cipgnav import cascade
from cipgnav.cascade import (
    ORIENTATION_MODEL,
    BurstInput,
    CascadeConfig,
    CascadeState,
    _make_burst,
    _dead_reckon,
    _orientation_step,
    _velocity_step,
    _window_terms,
    cascade_step,
    run_cascade,
)
from cipgnav.errors import DegenerateQuaternionError, DivergenceError, NumericalError
from cipgnav.ipg import (
    IpgParams,
    IpgWindow,
    WindowModel,
    ipg_step,
    stacked_jacobian,
    stacked_map,
)
from cipgnav.preintegration import (
    GravityModel,
    ImuBiases,
    NavState,
    preintegrate_burst,
    propagate_orientation,
)
from cipgnav.quat import quat_angular_distance, quat_normalize, quat_product, quat_to_rotation
from cipgnav.sensors import SyncedEpoch
from cipgnav.sim import NoiseSpec, ScenarioSpec, generate
from tests.conftest import central_difference, random_unit_quat

QUIET = NoiseSpec(0.0, 0.0, 0.0, 0.0)


def circle_run(duration=20.0, radius=10.0, noise=QUIET, seed=0):
    spec = ScenarioSpec(kind="circle", duration=duration, speed=0.5,
                        circle_radius=radius, noise=noise, seed=seed)
    run = generate(spec)
    return run, run.epochs()


class TestBurst:
    def test_rot_increment_matches_stepwise_propagation(self, rng):
        _, epochs = circle_run(duration=5.0)
        bias = np.array([0.001, -0.002, 0.0005])
        for epoch in epochs[:5]:
            burst = _make_burst(epoch, bias)
            q0 = random_unit_quat(rng)
            # One right-multiplication by the composed increment...
            q_fast = quat_normalize(quat_product(q0, burst.rot_increment))
            # ...equals integrating sample by sample.
            q_slow = q0
            t_prev = epoch.t_prev
            for row in epoch.imu_burst:
                q_slow = propagate_orientation(q_slow, row[4:7], bias, row[0] - t_prev)
                t_prev = row[0]
            assert quat_angular_distance(q_fast, q_slow) < 1e-12

    def test_burst_spans_epoch_interval(self):
        _, epochs = circle_run(duration=5.0)
        e = epochs[2]
        b = _make_burst(e, np.zeros(3))
        assert isinstance(b, BurstInput)
        assert b.duration == pytest.approx(e.t - e.t_prev, abs=1e-12)

    def test_burst_rejects_bad_spacing(self):
        _, epochs = circle_run(duration=5.0)
        e = epochs[0]
        bad = replace(e, t_prev=e.imu_burst[3, 0])
        with pytest.raises(ValueError, match="spacing"):
            _make_burst(bad, np.zeros(3))

    def test_preintegrated_velocity_matches_stepwise_sum(self, rng):
        gravity = GravityModel()
        for _ in range(50):
            n = int(rng.integers(1, 30))
            ts = rng.uniform(0.0, 10.0) + np.cumsum(rng.uniform(0.002, 0.02, n + 1))
            burst = np.array([
                [t, *rng.normal([0.0, 0.0, -9.81], 2.0), *rng.normal(scale=0.8, size=3)]
                for t in ts[1:]
            ])
            epoch = SyncedEpoch(t=float(ts[-1]), t_prev=float(ts[0]), imu_burst=burst,
                                dvl=np.zeros(3), ahrs=np.array([1.0, 0.0, 0.0, 0.0]))
            gyro_bias = rng.normal(scale=0.01, size=3)
            accel_bias = rng.normal(scale=0.2, size=3)
            q0 = random_unit_quat(rng)
            # Reference: integrate specific force sample by sample along the
            # propagated orientation.
            expected = np.zeros(3)
            q = q0
            t_prev = epoch.t_prev
            for row in burst:
                dt = row[0] - t_prev
                expected += dt * (quat_to_rotation(q) @ (row[1:4] - accel_bias) + gravity.vector)
                q = propagate_orientation(q, row[4:7], gyro_bias, dt)
                t_prev = row[0]
            b = _make_burst(epoch, gyro_bias, accel_bias=accel_bias)
            got = quat_to_rotation(q0) @ b.body_dv + b.duration * gravity.vector
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_large_step_warns_once_per_burst(self):
        # One 0.1 s gap in a burst that stays in the window for N-1 epochs.
        _, epochs = circle_run(duration=10.0)
        horizon = IpgParams().horizon
        k = horizon + 1
        burst = epochs[k].imu_burst
        epochs[k] = replace(epochs[k], imu_burst=np.concatenate([burst[:1], burst[10:]]))
        assert burst[10, 0] - burst[0, 0] == pytest.approx(0.1)
        state = CascadeState.start(CascadeConfig(), epochs)
        for epoch in epochs[:k]:
            state, _ = cascade_step(state, epoch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            flags = []
            for epoch in epochs[k:]:
                state, point = cascade_step(state, epoch)
                flags.append(point.flag)
        assert set(flags) == {"ok"}
        large = [w for w in caught
                 if issubclass(w.category, UserWarning) and "is large" in str(w.message)]
        assert len(large) == 1


    def test_dead_reckoning_matches_preintegrate_burst(self, rng):
        gravity = GravityModel()
        for _ in range(100):
            n = int(rng.integers(1, 30))
            ts = rng.uniform(0.0, 10.0) + np.cumsum(rng.uniform(0.002, 0.02, n + 1))
            burst = np.array([
                [t, *rng.normal([0.0, 0.0, -9.81], 2.0), *rng.normal(scale=0.8, size=3)]
                for t in ts[1:]
            ])
            epoch = SyncedEpoch(t=float(ts[-1]), t_prev=float(ts[0]), imu_burst=burst,
                                dvl=np.zeros(3), ahrs=np.array([1.0, 0.0, 0.0, 0.0]))
            biases = ImuBiases(rng.normal(scale=0.2, size=3), rng.normal(scale=0.01, size=3))
            nav = NavState(rng.normal(scale=50.0, size=3), rng.normal(size=3), random_unit_quat(rng))
            expected = preintegrate_burst(nav, burst, biases, gravity, epoch.t_prev)
            got = _dead_reckon(nav, _make_burst(epoch, biases.gyro, accel_bias=biases.accel),
                               gravity.vector)
            np.testing.assert_allclose(got.position, expected.position, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(got.velocity, expected.velocity, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(got.orientation, expected.orientation, rtol=0.0, atol=1e-12)

    def test_large_step_in_warmup_epoch_warns_once(self):
        _, epochs = circle_run(duration=10.0)
        burst = epochs[1].imu_burst
        epochs[1] = replace(epochs[1], imu_burst=np.concatenate([burst[:1], burst[11:]]))
        assert burst[11, 0] - burst[0, 0] == pytest.approx(0.11)
        state = CascadeState.start(CascadeConfig(), epochs)
        state, _ = cascade_step(state, epochs[0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state, point = cascade_step(state, epochs[1])
        assert point.flag == "warmup"
        large = [w for w in caught
                 if issubclass(w.category, UserWarning) and "is large" in str(w.message)]
        assert len(large) == 1


class TestConfig:
    def test_rejects_bad_fallback(self):
        with pytest.raises(ValueError, match="fallback"):
            CascadeConfig(fallback="retry")

    @pytest.mark.parametrize("horizon, alpha, accepted", [
        (5, 0.39, True), (5, 0.4, False), (19, 0.1, True), (20, 0.0999, True),
        (20, 0.1, False), (21, 0.1, False), (2, 0.999, True), (2, 1.0, False),
    ])
    def test_alpha_times_horizon_must_be_under_two(self, horizon, alpha, accepted):
        # lambda_max(J^T J) = N in both stages: the preconditioner recursion
        # converges only for alpha * N < 2 (at N = 20, alpha = 0.1 it oscillates).
        params = IpgParams(horizon=horizon, alpha=alpha)
        if accepted:
            assert CascadeConfig(params=params).params is params
        else:
            with pytest.raises(ValueError, match=f"alpha {alpha:g} \\* horizon {horizon} = "):
                CascadeConfig(params=params)


class TestTracking:
    def test_warmup_then_ok_flags(self):
        _, epochs = circle_run(duration=10.0)
        points = run_cascade(epochs, CascadeConfig())
        assert len(points) == len(epochs)
        flags = [p.flag for p in points]
        horizon = IpgParams().horizon
        assert flags[: horizon - 1] == ["warmup"] * (horizon - 1)
        assert set(flags[horizon - 1 :]) == {"ok"}
        assert [p.t for p in points] == [e.t for e in epochs]

    def test_noiseless_circle_tracks_truth(self):
        run, epochs = circle_run(duration=20.0)
        points = run_cascade(epochs, CascadeConfig(initial=run.initial_nav()))
        truth = {p.t: p.nav for p in run.truth}
        for p in points:
            if p.flag != "ok":
                continue
            ref = truth[p.t]
            assert np.linalg.norm(p.nav.velocity - ref.velocity) < 1e-4
            assert quat_angular_distance(p.nav.orientation, ref.orientation) < 1e-6
            assert np.linalg.norm(p.nav.position - ref.position) < 0.1

    def test_ahrs_sign_flips_are_immaterial(self):
        # The stacked attitude measurement is aligned per block; negating
        # arbitrary AHRS rows must not change any estimate.
        run, epochs = circle_run(duration=10.0)
        flipped = [
            replace(e, ahrs=-e.ahrs) if k % 2 else e for k, e in enumerate(epochs)
        ]
        cfg = CascadeConfig(initial=run.initial_nav())
        a = run_cascade(epochs, cfg)
        b = run_cascade(flipped, CascadeConfig(initial=run.initial_nav()))
        for pa, pb in zip(a, b):
            np.testing.assert_allclose(pa.nav.position, pb.nav.position, atol=1e-12)
            assert quat_angular_distance(pa.nav.orientation, pb.nav.orientation) < 1e-12

    def test_first_epoch_seeds_the_iterates(self):
        run, epochs = circle_run(duration=10.0)
        state = CascadeState.start(CascadeConfig(initial=run.initial_nav()), epochs)
        state, point = cascade_step(state, epochs[0])
        np.testing.assert_array_equal(state.q_iterate, point.nav.orientation)
        np.testing.assert_array_equal(state.v_iterate, point.nav.velocity)

    def test_requires_enough_epochs(self):
        _, epochs = circle_run(duration=10.0)
        with pytest.raises(ValueError, match="horizon"):
            run_cascade(epochs[:3], CascadeConfig())

    def test_noisy_run_stays_bounded(self):
        run, epochs = circle_run(duration=20.0, noise=NoiseSpec.bluerov2(), seed=1)
        points = run_cascade(epochs, CascadeConfig(initial=run.initial_nav()))
        truth = {p.t: p.nav for p in run.truth}
        errs = [
            np.linalg.norm(p.nav.position - truth[p.t].position)
            for p in points
            if p.flag == "ok"
        ]
        assert max(errs) < 1.0


def diverge(monkeypatch, step, epochs=None):
    """Make the cascade stage function ``step`` raise DivergenceError, as a
    diverging solver does, at the given 0-based epoch indices (at every epoch
    when None) and run as usual at the others.  At the default horizon N the
    stages first run at epoch N-1, then once per epoch."""
    real = getattr(cascade, step)
    count = itertools.count(IpgParams().horizon - 1)

    def diverging(*args):
        k = next(count)
        if epochs is None or k in epochs:
            raise DivergenceError("window solver produced a non-finite value", iteration=0)
        return real(*args)

    monkeypatch.setattr(cascade, step, diverging)


class TestFallback:
    def test_abort_raises_with_stage_and_epoch(self, monkeypatch):
        _, epochs = circle_run(duration=10.0)
        diverge(monkeypatch, "_velocity_step")
        with pytest.raises(DivergenceError) as exc_info:
            run_cascade(epochs, CascadeConfig(fallback="abort"))
        assert exc_info.value.stage == "velocity"
        assert exc_info.value.epoch == epochs[IpgParams().horizon - 1].t

    def test_deadreckon_flags_and_completes(self, monkeypatch):
        run, epochs = circle_run(duration=10.0)
        diverge(monkeypatch, "_velocity_step")
        points = run_cascade(
            epochs, CascadeConfig(fallback="deadreckon", initial=run.initial_nav()))
        flags = [p.flag for p in points]
        horizon = IpgParams().horizon
        assert set(flags[horizon - 1 :]) == {"fallback"}
        # Dead reckoning on noiseless data still follows the truth loosely.
        truth = {p.t: p.nav for p in run.truth}
        final = points[-1]
        assert np.linalg.norm(final.nav.position - truth[final.t].position) < 1.0

    def test_recovers_after_single_bad_epoch(self, monkeypatch):
        run, epochs = circle_run(duration=20.0)
        good = CascadeConfig(fallback="deadreckon", initial=run.initial_nav())
        horizon = good.params.horizon
        diverge(monkeypatch, "_velocity_step", epochs={horizon + 1})
        seen = []
        diverging = cascade._velocity_step
        monkeypatch.setattr(cascade, "_velocity_step",
                            lambda *args: seen.append(args) or diverging(*args))
        state = CascadeState.start(good, epochs)
        flags = []
        for epoch in epochs:
            state, point = cascade_step(state, epoch)
            flags.append(point.flag)
        assert flags[horizon + 1] == "fallback"
        assert flags.count("fallback") == 1
        # The next epoch, k, restarts stage 2 from the DVL measurement at the
        # start of its window, with a fresh gain; stage 2 first runs at N-1.
        k = horizon + 2
        _, dvl, v_iterate, v_gain, _ = seen[k - (horizon - 1)]
        start = k - (horizon - 1)
        np.testing.assert_array_equal(dvl, [e.dvl for e in epochs[start:start + horizon]])
        np.testing.assert_array_equal(v_iterate, epochs[start].dvl)
        assert v_gain == good.params.k0_scale
        # The window reseeds from raw measurements and resumes estimating.
        assert set(flags[horizon + 2 :]) == {"ok"}
        truth = {p.t: p.nav for p in run.truth}
        assert np.linalg.norm(state.nav.position - truth[epochs[-1].t].position) < 0.5

    def test_nan_dvl_row_falls_back_while_in_window(self):
        # The NaN row is at the window start in the last of its N fallback
        # epochs, so that epoch's reseed from dvl[0] diverges too.
        run, epochs = circle_run(duration=20.0)
        horizon = IpgParams().horizon
        e = horizon + 3
        epochs[e] = replace(epochs[e], dvl=np.full(3, np.nan))
        points = run_cascade(
            epochs, CascadeConfig(fallback="deadreckon", initial=run.initial_nav()))
        flags = [p.flag for p in points]
        assert [k for k, f in enumerate(flags) if f == "fallback"] == list(range(e, e + horizon))
        assert set(flags[e + horizon:]) == {"ok"}
        truth = {p.t: p.nav for p in run.truth}
        errors = [np.linalg.norm(p.nav.position - truth[p.t].position) for p in points]
        assert max(errors) < 0.5
        with pytest.raises(DivergenceError) as exc_info:
            run_cascade(epochs, CascadeConfig(fallback="abort"))
        assert exc_info.value.stage == "velocity"
        assert exc_info.value.epoch == epochs[e].t


class TestOrientationFallback:
    def test_abort_raises_with_stage_and_epoch(self, monkeypatch):
        _, epochs = circle_run(duration=10.0)
        diverge(monkeypatch, "_orientation_step")
        with pytest.raises(DivergenceError) as exc_info:
            run_cascade(epochs, CascadeConfig(fallback="abort"))
        assert exc_info.value.stage == "orientation"
        assert exc_info.value.epoch == epochs[IpgParams().horizon - 1].t

    def test_deadreckon_flags_and_completes(self, monkeypatch):
        run, epochs = circle_run(duration=10.0)
        diverge(monkeypatch, "_orientation_step")
        points = run_cascade(
            epochs, CascadeConfig(fallback="deadreckon", initial=run.initial_nav()))
        flags = [p.flag for p in points]
        horizon = IpgParams().horizon
        assert len(points) == len(epochs)
        assert set(flags[horizon - 1 :]) == {"fallback"}

    def test_reseeds_from_window_start_ahrs_after_single_bad_epoch(self, monkeypatch):
        run, epochs = circle_run(duration=20.0)
        good = CascadeConfig(fallback="deadreckon", initial=run.initial_nav())
        horizon = good.params.horizon
        diverge(monkeypatch, "_orientation_step", epochs={horizon + 1})
        state = CascadeState.start(good, epochs)
        flags = []
        for epoch in epochs[: horizon + 2]:
            state, point = cascade_step(state, epoch)
            flags.append(point.flag)
        assert point.flag == "fallback"
        assert state.q_iterate is None
        # The next epoch restarts stage 1 from the AHRS measurement at the
        # start of the slid window, with a fresh preconditioner.
        nxt = epochs[horizon + 2]
        ahrs = np.vstack([list(state.ahrs)[1:], nxt.ahrs])
        bursts = list(state.bursts)[1:] + [_make_burst(nxt, good.biases.gyro, good.biases.accel)]
        expected = _orientation_step(
            good.params, ahrs, quat_normalize(ahrs[0]), good.params.k0_scale * np.eye(4),
            [b.rot_increment for b in bursts],
        )[0]
        state, point = cascade_step(state, nxt)
        assert point.flag == "ok"
        assert state.q_iterate is not None
        np.testing.assert_array_equal(point.nav.orientation, expected)
        flags.append(point.flag)
        for epoch in epochs[horizon + 3 :]:
            state, point = cascade_step(state, epoch)
            assert point.flag == "ok"
            flags.append(point.flag)
        assert flags.count("fallback") == 1
        truth = {p.t: p.nav for p in run.truth}
        assert quat_angular_distance(state.nav.orientation, truth[epochs[-1].t].orientation) < 1e-6
        assert np.linalg.norm(state.nav.position - truth[epochs[-1].t].position) < 0.5


def identity_velocity_model():
    """The velocity stage as a generic window model: J = [I; ...; I]."""
    return WindowModel(
        state_dim=3,
        meas_dim=3,
        dynamics=lambda v, u: v + u,
        measurement=lambda v: v,
        dynamics_jacobian=lambda v, u: np.eye(3),
        measurement_jacobian=lambda v: np.eye(3),
    )


class TestVelocityStage:
    def random_window(self, rng, horizon, k0):
        """(dvl, iterate, k0, increments) and the same window for ipg_step."""
        dvl = rng.normal(size=(horizon, 3))
        increments = rng.normal(scale=0.1, size=(horizon - 1, 3))
        iterate = rng.normal(size=3)
        generic = IpgWindow(tuple(increments), tuple(dvl), iterate, k0 * np.eye(3))
        return (dvl, iterate, k0, increments), generic

    def test_closed_form_matches_ipg_step(self, rng):
        model = identity_velocity_model()
        for _ in range(100):
            horizon = int(rng.integers(2, 9))
            params = IpgParams(
                horizon=horizon,
                iterations=int(rng.integers(1, 6)),
                alpha=rng.uniform(0.01, 0.9 / horizon),
                delta=rng.uniform(0.1, 1.5),
            )
            args, generic = self.random_window(rng, horizon, rng.uniform(1e-4, 0.3))
            estimate, warm, gain = _velocity_step(params, *args)
            ref = ipg_step(model, params, generic)
            np.testing.assert_allclose(estimate, ref.estimate, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(warm, ref.window.iterate, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(gain * np.eye(3), ref.window.precond, rtol=0.0, atol=1e-13)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_at_same_iteration_as_ipg_step(self, rng):
        params = IpgParams(alpha=1e200)
        args, generic = self.random_window(rng, params.horizon, params.k0_scale)
        with pytest.raises(DivergenceError) as closed:
            _velocity_step(params, *args)
        with pytest.raises(DivergenceError) as generic_exc:
            ipg_step(identity_velocity_model(), params, generic)
        assert closed.value.iteration == generic_exc.value.iteration


def random_epoch(rng, t_prev, n_samples):
    """A synced epoch whose burst has random spacing, specific force and rates."""
    ts = t_prev + np.cumsum(rng.uniform(0.005, 0.02, n_samples))
    burst = np.array([
        [t, *rng.normal([0.0, 0.0, -9.81], 1.0), *rng.normal(scale=0.8, size=3)] for t in ts
    ])
    return SyncedEpoch(t=float(ts[-1]), t_prev=float(t_prev), imu_burst=burst,
                       dvl=np.zeros(3), ahrs=np.array([1.0, 0.0, 0.0, 0.0]))


class TestOrientationStage:
    """The batched stage-1 step against ipg_step on the generic model."""

    GYRO_BIAS = np.array([0.001, -0.002, 0.0005])

    def random_window(self, rng, horizon, k0, spread=0.0):
        """(ahrs, iterate, K, increments) and the same window for ipg_step.

        K is k0 (I + spread * E) with E standard normal: non-symmetric, as a
        warm-started epoch carries it, for spread > 0.
        """
        bursts, t = [], 0.0
        for _ in range(horizon - 1):
            epoch = random_epoch(rng, t, int(rng.integers(1, 25)))
            bursts.append(_make_burst(epoch, self.GYRO_BIAS))
            t = epoch.t
        # AHRS near the trajectory from a random start, and an iterate near
        # that start; the iterate and random AHRS blocks are negated so that
        # the hemisphere alignment of every row, row 0 included, matters.
        q = random_unit_quat(rng)
        iterate = quat_normalize(q + rng.normal(scale=0.3, size=4)) * rng.choice([-1.0, 1.0])
        ahrs = [q]
        for b in bursts:
            q = quat_normalize(quat_product(q, b.rot_increment))
            ahrs.append(q)
        ahrs = np.array([quat_normalize(a + rng.normal(scale=0.05, size=4)) for a in ahrs])
        ahrs *= rng.choice([-1.0, 1.0], size=(horizon, 1))
        K = k0 * (np.eye(4) + spread * rng.normal(size=(4, 4))) if spread else k0 * np.eye(4)
        generic = IpgWindow(tuple(bursts), tuple(ahrs), iterate, K)
        args = (ahrs, iterate, K, [b.rot_increment for b in bursts])
        return args, generic

    def test_batched_step_matches_ipg_step(self, rng):
        # From k0 I and from a non-symmetric K; horizons up to 12 and alpha * N up
        # to 1.9, short of the alpha * N < 2 bound.
        model = ORIENTATION_MODEL
        for spread in [0.0] * 100 + [0.3] * 100:
            horizon = int(rng.integers(2, 13))
            params = IpgParams(
                horizon=horizon,
                iterations=int(rng.integers(1, 11)),
                alpha=rng.uniform(0.01, 1.9 / horizon),
                delta=rng.uniform(0.1, 1.5),
            )
            args, generic = self.random_window(rng, horizon, rng.uniform(1e-4, 0.3), spread)
            estimate, warm, K, quats = _orientation_step(params, *args)
            ref = ipg_step(model, params, generic)
            np.testing.assert_allclose(estimate, ref.estimate, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(warm, ref.window.iterate, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(K, ref.window.precond, rtol=0.0, atol=1e-12)
            expected = stacked_map(model, generic.inputs, ref.window_start).reshape(-1, 4)[:-1]
            np.testing.assert_allclose(quats, expected, rtol=0.0, atol=1e-12)

    def test_zero_dot_counts_as_positive_like_ipg_step(self):
        # Identity increments make W_j = Z_j, and every block is orthogonal to
        # zeta = 1, so each hemisphere test, row 0's included, sees exactly 0.
        horizon = 6
        params = IpgParams(horizon=horizon, iterations=3)
        ahrs = np.array([quat_normalize([0.0, 1.0, 0.5 * j, -0.25 * j]) for j in range(horizon)])
        iterate, K = np.array([1.0, 0.0, 0.0, 0.0]), params.k0_scale * np.eye(4)
        identity = BurstInput(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3), 0.0, np.zeros(0),
                              np.zeros((0, 3)))
        estimate, warm, K_out, _ = _orientation_step(params, ahrs, iterate, K,
                                                     [identity.rot_increment] * (horizon - 1))
        ref = ipg_step(ORIENTATION_MODEL, params,
                       IpgWindow((identity,) * (horizon - 1), tuple(ahrs), iterate, K))
        np.testing.assert_allclose(estimate, ref.estimate, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(warm, ref.window.iterate, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(K_out, ref.window.precond, rtol=0.0, atol=1e-12)

    def test_collapsed_iterate_raises_like_ipg_step(self, rng):
        # K = zeta g^T / (delta g . g) with g = J^T r sends zeta - delta K g to about 0.
        params = IpgParams()
        args, generic = self.random_window(rng, params.horizon, params.k0_scale)
        ahrs, iterate, _, increments = args
        predicted = stacked_map(ORIENTATION_MODEL, generic.inputs, iterate)
        J = stacked_jacobian(ORIENTATION_MODEL, generic.inputs, iterate)
        g = J.T @ (predicted - ORIENTATION_MODEL.align_measurements(predicted, ahrs.reshape(-1)))
        K = np.outer(iterate, g) / (params.delta * (g @ g))
        with pytest.raises(DegenerateQuaternionError):
            _orientation_step(params, ahrs, iterate, K, increments)
        with pytest.raises(DegenerateQuaternionError):
            ipg_step(ORIENTATION_MODEL, params, replace(generic, precond=K))

    def test_overflowing_iterate_norm_diverges(self, rng):
        # A finite K of 1e200 gives finite iterate components whose norm overflows.
        params = IpgParams()
        args, _ = self.random_window(rng, params.horizon, 1e200)
        with pytest.raises(DivergenceError) as exc_info:
            _orientation_step(params, *args)
        assert exc_info.value.iteration == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_at_same_iteration_as_ipg_step(self, rng):
        params = IpgParams(alpha=1e200)
        args, generic = self.random_window(rng, params.horizon, params.k0_scale)
        with pytest.raises(DivergenceError) as batched:
            _orientation_step(params, *args)
        with pytest.raises(DivergenceError) as generic_exc:
            ipg_step(ORIENTATION_MODEL, params, generic)
        assert batched.value.iteration == generic_exc.value.iteration

    def test_dynamics_jacobian_matches_finite_differences(self, rng):
        for _ in range(10):
            q = random_unit_quat(rng)
            burst = BurstInput(np.concatenate(([1.0], 0.005 * rng.normal(size=3))), np.zeros(3),
                               0.0, np.zeros(0), np.zeros((0, 3)))
            J_fd = central_difference(lambda x: ORIENTATION_MODEL.dynamics(x, burst), q)
            np.testing.assert_allclose(ORIENTATION_MODEL.dynamics_jacobian(q, burst), J_fd,
                                       atol=1e-8)

    def test_normal_equations_match_stacked_jacobian(self, rng):
        # Random rotation increments with |U_j| far from 1, randomly negated
        # AHRS blocks, and the stacked Jacobian and residual of the generic model.
        model = ORIENTATION_MODEL
        for _ in range(100):
            horizon = int(rng.integers(2, 11))
            bursts = tuple(
                BurstInput(random_unit_quat(rng) * rng.uniform(0.3, 3.0), np.zeros(3), 0.0,
                           np.zeros(0), np.zeros((0, 3)))
                for _ in range(horizon - 1))
            zeta = random_unit_quat(rng)
            truth = stacked_map(model, bursts, quat_normalize(zeta + rng.normal(scale=0.3, size=4)))
            ahrs = truth.reshape(-1, 4) + rng.normal(scale=0.1, size=(horizon, 4))
            ahrs *= rng.choice([-1.0, 1.0], size=(horizon, 1))
            predicted = stacked_map(model, bursts, zeta)
            J = stacked_jacobian(model, bursts, zeta)
            r = predicted - model.align_measurements(predicted, ahrs.reshape(-1))
            _, W = _window_terms(ahrs, [b.rot_increment for b in bursts])
            w = np.where(W @ zeta < 0.0, -1.0, 1.0) @ W
            tangent = np.eye(4) - np.outer(zeta, zeta)
            np.testing.assert_allclose(J.T @ J, np.eye(4) + (horizon - 1) * tangent,
                                       rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(J.T @ r, r[:4] - tangent @ w, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero", "nan"])
    def test_degenerate_increment_raises_like_ipg_step(self, rng, bad):
        params = IpgParams(horizon=6)
        args, generic = self.random_window(rng, params.horizon, params.k0_scale)
        ahrs, iterate, K, increments = args
        increments[2] = np.full(4, bad)
        generic = replace(generic, inputs=generic.inputs[:2] + (
            replace(generic.inputs[2], rot_increment=increments[2]),) + generic.inputs[3:])
        with pytest.raises(DegenerateQuaternionError):
            _orientation_step(params, ahrs, iterate, K, increments)
        with pytest.raises(DegenerateQuaternionError):
            ipg_step(ORIENTATION_MODEL, params, generic)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_increment_raises_numerical_error(self, rng):
        params = IpgParams()
        args, _ = self.random_window(rng, params.horizon, params.k0_scale)
        ahrs, iterate, K, increments = args
        increments[-1] = np.array([np.inf, 0.0, 0.0, 0.0])
        with pytest.raises(NumericalError):
            _orientation_step(params, ahrs, iterate, K, increments)

    def test_non_finite_ahrs_diverges_at_first_iteration_like_ipg_step(self, rng):
        params = IpgParams()
        args, generic = self.random_window(rng, params.horizon, params.k0_scale)
        ahrs = args[0].copy()
        ahrs[3, 1] = np.nan
        generic = replace(generic, measurements=tuple(ahrs))
        with pytest.raises(DivergenceError) as batched:
            _orientation_step(params, ahrs, *args[1:])
        with pytest.raises(DivergenceError) as generic_exc:
            ipg_step(ORIENTATION_MODEL, params, generic)
        assert batched.value.iteration == generic_exc.value.iteration == 0
