"""Two-stage window estimator: warmup, tracking, fallback, burst algebra."""

from __future__ import annotations

import itertools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cipgnav import cascade, preintegration
from cipgnav.cascade import (
    CascadeConfig,
    CascadeState,
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
    BurstInput,
    GravityModel,
    ImuBiases,
    NavState,
    dead_reckon,
    preintegrate_burst,
    propagate_orientation,
    running_product,
    unpack_burst,
)
from cipgnav.quat import (
    quat_angular_distance,
    quat_from_rotvec,
    quat_normalize,
    quat_product,
    quat_to_rotation,
    rotation_rows,
    row_norms,
    unit_rows,
)
from cipgnav.sensors import SyncedEpoch
from cipgnav.sim import NoiseSpec, ScenarioSpec, benchmark_scenario, generate
from tests.conftest import central_difference, random_unit_quat
from tests.oracles import (
    ORIENTATION_MODEL,
    burst_start_orientations,
    float_matmul,
    orientation_fixed_point,
    velocity_fixed_point,
    velocity_increments,
    velocity_step,
    window_maps,
    window_terms,
)

QUIET = NoiseSpec(0.0, 0.0, 0.0, 0.0)
GRAVITY = GravityModel().vector


def circle_run(duration=20.0, radius=10.0, noise=QUIET, seed=0):
    spec = ScenarioSpec(kind="circle", duration=duration, speed=0.5,
                        circle_radius=radius, noise=noise, seed=seed)
    run = generate(spec)
    return run, run.epochs()


def burst_oracle(epoch, biases: ImuBiases):
    """One epoch's burst preintegrated alone, with the per-burst kernels:
    (rot_increment, body_dv, duration, body_dp, dp_weight), the reference each
    row of ``BurstInput.from_epochs`` must equal bit for bit.  After
    ``unpack_burst``'s checks, the first IMU row with a non-finite reading
    raises NumericalError naming the row's ``t`` and its sensor, the
    accelerometer before the gyro."""
    dts, accel, gyro = unpack_burst(epoch.imu_burst, epoch.t_prev, biases.gyro, biases.accel)
    for row, readings in zip(epoch.imu_burst.tolist(), np.hstack([accel, gyro]).tolist()):
        for sensor, values in (("accelerometer", readings[:3]), ("gyro", readings[3:])):
            if not all(map(math.isfinite, values)):
                raise NumericalError(f"non-finite {sensor} reading in the IMU row at t={row[0]!r}")
    products = running_product((1.0, 0.0, 0.0, 0.0), dts, gyro)
    prefixes = unit_rows(products)[0][:-1]  # the last product is checked too
    body_accel = np.array([float_matmul(R, a) for R, a in zip(rotation_rows(prefixes), accel)])
    body_accel = body_accel.reshape(len(dts), 3)
    duration = float(dts.sum())
    weights = dts * (duration - np.cumsum(dts))
    return (products[-1], float_matmul(body_accel.T, dts), duration,
            float_matmul(body_accel.T, weights), weights.sum())


def table_rows(table: BurstInput):
    """The rows of a burst table, in the order of ``burst_oracle``'s terms."""
    return list(zip(table.rot_increment, table.body_dv, table.duration, table.body_dp,
                    table.dp_weight))


def same_bits(a, b) -> bool:
    """Equal shapes and bits: signed zeros count, and NaN equals NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def one_window(ahrs, increments, body_dv=None, duration=None, dvl=None, g=GRAVITY):
    """``_window_terms`` of one window (a ``_Window``), from its AHRS rows (N, 4), rotation
    increments (N-1, 4), body-frame velocity increments (N-1, 3), burst
    durations (N-1,) and DVL rows (N, 3); those last three default to zeros."""
    ahrs, increments = np.asarray(ahrs, dtype=float), np.asarray(increments, dtype=float)
    n = len(ahrs)
    bursts = BurstInput(
        np.vstack([[1.0, 0.0, 0.0, 0.0], increments]),
        np.vstack([np.zeros(3), np.zeros((n - 1, 3)) if body_dv is None else body_dv]),
        np.concatenate([[0.0], np.zeros(n - 1) if duration is None else duration]),
        np.zeros((n, 3)), np.zeros(n))
    dvl = np.zeros((n, 3)) if dvl is None else np.asarray(dvl, dtype=float)
    return _window_terms(ahrs, dvl, bursts, g, n, 0, 1)[0]


class CountingRows(list):
    """A window's rows W that count the passes that read them."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def identity_precond(k0) -> list:
    """k0*I as the orientation stage takes it: 16 floats, row-major."""
    return (k0 * np.eye(4)).ravel().tolist()


def epoch_chain(rng, lengths, t0=0.0):
    """Consecutive random epochs with bursts of the given lengths (0 allowed),
    a few IMU components set to +0.0 or -0.0."""
    epochs, t = [], t0
    for n in lengths:
        if n:
            epoch = random_epoch(rng, t, n)
            zeros = rng.random(epoch.imu_burst[:, 1:].shape) < 0.05
            epoch.imu_burst[:, 1:][zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        else:
            epoch = SyncedEpoch(t=t + 0.01, t_prev=t, imu_burst=np.empty((0, 7)),
                                dvl=np.zeros(3), ahrs=np.array([1.0, 0.0, 0.0, 0.0]))
        epochs.append(epoch)
        t = epoch.t
    return epochs


class TestBurstTable:
    """``BurstInput.from_epochs`` against ``burst_oracle``, row by row, bit for bit."""

    BIASES = ImuBiases(accel=[0.02, -0.015, 0.01], gyro=[0.001, -0.002, 0.0005])

    @pytest.mark.parametrize("block", [None, 1, 7], ids=["default", "1", "7"])
    def test_rows_match_per_burst_oracle(self, rng, monkeypatch, block):
        # Mixed lengths with repeats, including empty and one-sample bursts, and
        # more bursts than one block of the default size.
        if block is not None:
            monkeypatch.setattr(preintegration, "_BLOCK", block)
        lengths = rng.choice([0, 1, 2, 3, 7, 8, 9, 17, 18, 20, 33], size=preintegration._BLOCK + 40)
        epochs = epoch_chain(rng, lengths)
        for biases in (ImuBiases(), self.BIASES):
            rows = table_rows(BurstInput.from_epochs(epochs, biases))
            assert len(rows) == len(epochs) > preintegration._BLOCK
            for epoch, row in zip(epochs, rows):
                assert all(same_bits(a, b) for a, b in zip(row, burst_oracle(epoch, biases)))

    def test_empty_and_one_sample_bursts(self, rng):
        epochs = epoch_chain(rng, [0, 1, 0, 1])
        table = BurstInput.from_epochs(epochs, self.BIASES)
        for j in (0, 2):
            assert same_bits(table.rot_increment[j], [1.0, 0.0, 0.0, 0.0])
            assert same_bits(table.body_dv[j], np.zeros(3)) and table.duration[j] == 0.0
        for j in (1, 3):
            assert table.duration[j] == epochs[j].t - epochs[j].t_prev
            assert same_bits(table.dp_weight[j], 0.0)  # w_1 = dt_1 * (dt_1 - dt_1)

    @staticmethod
    def oracle_events(epochs, biases):
        """Warning messages and the first error of ``burst_oracle`` over epochs in
        order, the error of a reading or a running product prefixed with its
        epoch's t."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            error = None
            for epoch in epochs:
                try:
                    burst_oracle(epoch, biases)
                except (NumericalError, DegenerateQuaternionError) as exc:  # before ValueError
                    error = (type(exc), f"IMU burst of the epoch at t={epoch.t!r}: {exc}")
                except ValueError as exc:
                    error = (type(exc), str(exc))
                if error:
                    break
        return [str(w.message) for w in caught], error

    @pytest.mark.parametrize("faults", [
        {0: "gap", 2: "gap", 9: "gap"},
        {3: "gap", 5: "spacing", 9: "gap"},
        {2: "gap", 6: "nan", 8: "spacing"},
        {4: "spacing", 7: "nan"},
        {1: "nan", 2: "gap"},
    ], ids=["warnings", "warn-then-reject", "warn-then-nan", "reject-first", "nan-first"])
    def test_errors_and_warnings_in_epoch_order(self, rng, monkeypatch, faults):
        # Blocks of 4 bursts whose lengths fall within each block, so that faults
        # sit in different blocks and in length groups out of epoch order; the
        # table raises and warns as the oracle does.
        monkeypatch.setattr(preintegration, "_BLOCK", 4)
        epochs = epoch_chain(rng, [13, 13, 5, 12] * 3)
        for j, fault in faults.items():
            burst = epochs[j].imu_burst.copy()
            if fault == "gap":  # a first spacing of more than 0.1 (j + 1) s
                epochs[j] = replace(epochs[j], t_prev=epochs[j].t_prev - 0.1 * (j + 1))
                continue
            if fault == "spacing":
                burst[2, 0] = burst[1, 0]
            else:
                burst[1, 4] = np.nan
            epochs[j] = replace(epochs[j], imu_burst=burst)
        expected = self.oracle_events(epochs, self.BIASES)
        assert expected[0] or expected[1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            error = None
            try:
                BurstInput.from_epochs(epochs, self.BIASES)
            except (ValueError, NumericalError) as exc:
                error = (type(exc), str(exc))
        assert ([str(w.message) for w in caught], error) == expected

    @pytest.mark.parametrize("faults", [
        {2: "gap", 5: "accel", 8: "spacing"},
        {3: "gap", 6: "accel", 9: "nan"},
        {1: "accel", 2: "nan"},
        {2: "nan", 6: "accel"},
        {4: "spacing", 7: "accel"},
        {5: "accel-and-nan"},
        {4: "gap", 6: "both-in-one-row"},
    ], ids=["warn-then-accel", "accel-before-nan", "accel-first", "nan-first",
            "reject-first", "nan-in-the-same-burst", "both-in-one-row"])
    def test_accel_error_in_epoch_order(self, rng, monkeypatch, faults):
        # A non-finite accelerometer or gyro reading raises in epoch order among
        # the other burst errors and warnings, after the spacing checks of its own
        # burst and before its running products: the burst's first such row is
        # named, with its sensor (a NaN gyro reading in row 1, an accelerometer
        # one in row 3, or both in row 1, where the accelerometer is named).
        monkeypatch.setattr(preintegration, "_BLOCK", 4)
        epochs = epoch_chain(rng, [13, 13, 5, 12] * 3)
        for j, fault in faults.items():
            burst = epochs[j].imu_burst.copy()
            if fault == "gap":
                epochs[j] = replace(epochs[j], t_prev=epochs[j].t_prev - 0.1 * (j + 1))
                continue
            if fault == "spacing":
                burst[2, 0] = burst[1, 0]
            if fault in ("nan", "accel-and-nan"):
                burst[1, 4] = np.nan
            if fault in ("accel", "accel-and-nan"):
                burst[3, 2] = np.nan
            if fault == "both-in-one-row":
                burst[1, 2] = burst[1, 4] = np.nan
            epochs[j] = replace(epochs[j], imu_burst=burst)
        caught, error = self.oracle_events(epochs, self.BIASES)
        j = min(k for k, fault in faults.items() if fault != "gap")
        if faults[j] != "spacing":
            row, sensor = {"accel": (3, "accelerometer"), "both-in-one-row": (1, "accelerometer")
                           }.get(faults[j], (1, "gyro"))
            assert error == (NumericalError, f"IMU burst of the epoch at t={epochs[j].t!r}: "
                                             f"non-finite {sensor} reading in the IMU row at "
                                             f"t={float(epochs[j].imu_burst[row, 0])!r}")
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            with pytest.raises(error[0]) as exc_info:
                BurstInput.from_epochs(epochs, self.BIASES)
        assert ([str(w.message) for w in got], str(exc_info.value)) == (caught, error[1])


class TestBurst:
    def test_rot_increment_matches_stepwise_propagation(self, rng):
        _, epochs = circle_run(duration=5.0)
        bias = np.array([0.001, -0.002, 0.0005])
        table = BurstInput.from_epochs(epochs[:5], ImuBiases(gyro=bias))
        for epoch, rot_increment in zip(epochs[:5], table.rot_increment):
            q0 = random_unit_quat(rng)
            # One right-multiplication by the composed increment...
            q_fast = quat_normalize(quat_product(q0, rot_increment))
            # ...equals integrating sample by sample.
            q_slow = q0
            t_prev = epoch.t_prev
            for row in epoch.imu_burst:
                q_slow = propagate_orientation(q_slow, row[4:7], bias, row[0] - t_prev)
                t_prev = row[0]
            assert quat_angular_distance(q_fast, q_slow) < 1e-12

    def test_burst_spans_epoch_interval(self):
        _, epochs = circle_run(duration=5.0)
        table = BurstInput.from_epochs(epochs, ImuBiases())
        assert isinstance(table, BurstInput)
        assert table.duration.shape == (len(epochs),)
        for e, duration in zip(epochs, table.duration):
            assert duration == pytest.approx(e.t - e.t_prev, abs=1e-12)

    def test_burst_rejects_bad_spacing(self):
        _, epochs = circle_run(duration=5.0)
        e = epochs[0]
        epochs[0] = replace(e, t_prev=e.imu_burst[3, 0])
        with pytest.raises(ValueError, match="spacing"):
            BurstInput.from_epochs(epochs, ImuBiases())
        with pytest.raises(ValueError, match="spacing"):
            CascadeState.start(CascadeConfig(), epochs)

    @pytest.mark.parametrize("sample", [0, 5, -1], ids=["first", "mid", "last"])
    def test_nan_gyro_reading_raises_in_start_naming_the_epoch(self, sample):
        # The last sample's reading enters only the final running product, which
        # is the burst's rotation increment: start checks it with the others,
        # and names the row, as for an accelerometer reading.
        _, epochs = circle_run(duration=20.0)
        burst = epochs[30].imu_burst.copy()
        burst[sample, 4] = np.nan
        epochs[30] = replace(epochs[30], imu_burst=burst)
        message = re.escape(f"IMU burst of the epoch at t={epochs[30].t!r}: non-finite "
                            f"gyro reading in the IMU row at t={float(burst[sample, 0])!r}")
        with pytest.raises(NumericalError, match=f"^{message}$"):
            CascadeState.start(CascadeConfig(), epochs)

    @pytest.mark.parametrize("fallback", ["abort", "deadreckon"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("sample", [0, 5, -1], ids=["first", "mid", "last"])
    def test_non_finite_accel_reading_raises_in_start_naming_the_epoch_and_row(
            self, sample, bad, fallback):
        # Once a NaN ax gave NaN positions flagged ok under deadreckon, and a
        # DivergenceError at the velocity stage under abort.
        _, epochs = circle_run(duration=20.0)
        burst = epochs[30].imu_burst.copy()
        burst[sample, 1] = bad
        epochs[30] = replace(epochs[30], imu_burst=burst)
        message = re.escape(f"IMU burst of the epoch at t={epochs[30].t!r}: non-finite "
                            f"accelerometer reading in the IMU row at t={float(burst[sample, 0])!r}")
        with pytest.raises(NumericalError, match=f"^{message}$"):
            CascadeState.start(CascadeConfig(fallback=fallback), epochs)
        with pytest.raises(NumericalError, match=f"^{message}$"):
            run_cascade(epochs, CascadeConfig(fallback=fallback))

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
            b = BurstInput.from_epochs([epoch], ImuBiases(accel_bias, gyro_bias))
            got = quat_to_rotation(q0) @ b.body_dv[0] + b.duration[0] * gravity.vector
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_large_step_warns_once_per_burst(self):
        # One 0.1 s gap in a burst that stays in the window for N-1 epochs.
        _, epochs = circle_run(duration=10.0)
        horizon = IpgParams().horizon
        k = horizon + 1
        burst = epochs[k].imu_burst
        epochs[k] = replace(epochs[k], imu_burst=np.concatenate([burst[:1], burst[10:]]))
        assert burst[10, 0] - burst[0, 0] == pytest.approx(0.1)
        # The warning comes from start, which preintegrates every burst once.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state = CascadeState.start(CascadeConfig(), epochs)
            flags = []
            for epoch in epochs:
                state, point = cascade_step(state, epoch)
                flags.append(point.flag)
        assert set(flags[k:]) == {"ok"}
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
            got = dead_reckon(nav, BurstInput.from_epochs([epoch], biases), 0, gravity.vector)
            np.testing.assert_allclose(got.position, expected.position, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(got.velocity, expected.velocity, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(got.orientation, expected.orientation, rtol=0.0, atol=1e-12)

    def test_large_step_in_warmup_epoch_warns_once(self):
        _, epochs = circle_run(duration=10.0)
        burst = epochs[1].imu_burst
        epochs[1] = replace(epochs[1], imu_burst=np.concatenate([burst[:1], burst[11:]]))
        assert burst[11, 0] - burst[0, 0] == pytest.approx(0.11)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            state = CascadeState.start(CascadeConfig(), epochs)
            flags = []
            for epoch in epochs:
                state, point = cascade_step(state, epoch)
                flags.append(point.flag)
        assert flags[1] == "warmup"
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

    def test_compares_and_hashes_by_identity(self):
        # initial is a NavState with array fields: two configs sharing biases and
        # gravity but holding distinct initial states once raised on == and hash.
        cfg = CascadeConfig(initial=NavState())
        copy, changed = replace(cfg), replace(cfg, initial=NavState(position=[1.0, 0.0, 0.0]))
        assert cfg == cfg and cfg != copy and cfg != changed and copy != changed
        assert hash(cfg) == hash(cfg) and len({cfg, copy, changed, cfg}) == 3
        assert copy.biases is cfg.biases and copy.gravity is cfg.gravity
        assert changed.initial.position[0] == 1.0


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

    def test_rejects_an_epoch_that_is_not_the_next_one_started(self):
        # Each step reads the next epoch's preintegrated burst and measurements
        # from the state, so a skipped, repeated or extra epoch is an error.
        _, epochs = circle_run(duration=5.0)
        state = CascadeState.start(CascadeConfig(), epochs)
        state, _ = cascade_step(state, epochs[0])
        for wrong in (epochs[2], epochs[0]):
            with pytest.raises(ValueError, match=re.escape(
                    f"epoch at t={wrong.t!r} is not the next one passed to start: "
                    f"t={epochs[1].t!r}")):
                cascade_step(state, wrong)
        for epoch in epochs[1:]:
            state, _ = cascade_step(state, epoch)
        with pytest.raises(ValueError, match="every epoch was stepped"):
            cascade_step(state, epochs[-1])

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
        # It gets the sums of that window, whose DVL rows they hold.
        k = horizon + 2
        _, _, v_iterate, v_gain, sums = seen[k - (horizon - 1)]
        start = k - (horizon - 1)
        expected = _window_terms(state.ahrs, state.dvl, state.bursts, good.gravity.vector,
                                 horizon, start, 1)[0].sums
        np.testing.assert_array_equal(state.dvl[start:start + horizon],
                                      [e.dvl for e in epochs[start:start + horizon]])
        assert same_bits(sums, expected)
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

    @pytest.mark.parametrize("fallback", ["abort", "deadreckon"])
    def test_non_finite_window_names_the_epoch_under_either_fallback(self, fallback):
        # Burst 40 replaced by its last row with gyro x at 1e160 rad/s passes
        # start (the increment's norm overflows to inf), and the window terms
        # of its epochs are not finite: a fault of the data, not a divergence,
        # so no fallback, and the error names the first such epoch.
        # The error also names the IMU row, and numpy's overflow warnings stay inside.
        run = generate(ScenarioSpec(kind="circle", duration=20.0, circle_radius=15.0))
        epochs = run.epochs()
        burst = epochs[40].imu_burst[-1:].copy()
        burst[0, 4] = 1e160
        epochs[40] = replace(epochs[40], imu_burst=burst)
        config = CascadeConfig(initial=run.initial_nav(), fallback=fallback)
        message = ("orientation window of the epoch at t=8.2: "
                   "non-finite stacked Jacobian entry in the orientation window "
                   f"(it overflows at the IMU row at t={float(burst[0, 0])!r})")
        assert epochs[40].t == 8.2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the one-sample burst spans 0.2 s
            state = CascadeState.start(config, epochs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
                for epoch in epochs:
                    state, _ = cascade_step(state, epoch)

    def test_overflow_names_the_imu_row_inside_its_burst(self):
        # A gyro reading of 1e160 in row 7 of a 20-row burst: the window's
        # rotation overflows at that row, not at the burst's last.
        run = generate(ScenarioSpec(kind="circle", duration=20.0, circle_radius=15.0))
        epochs = run.epochs()
        burst = epochs[40].imu_burst.copy()
        burst[7, 4] = 1e160
        epochs[40] = replace(epochs[40], imu_burst=burst)
        state = CascadeState.start(CascadeConfig(initial=run.initial_nav()), epochs)
        suffix = f" (it overflows at the IMU row at t={float(burst[7, 0])!r})"
        assert len(burst) == 20 and burst[7, 0] < burst[-1, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"{re.escape(suffix)}$"):
                for epoch in epochs:
                    state, _ = cascade_step(state, epoch)
        assert state.cursor == 41

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
        k = horizon + 2
        nxt = epochs[k]
        ahrs = np.array([e.ahrs for e in epochs[k + 1 - horizon:k + 1]])
        increments = [burst_oracle(e, good.biases)[0] for e in epochs[k + 2 - horizon:k + 1]]
        expected = _orientation_step(
            good.params, quat_normalize(ahrs[0]).tolist(), identity_precond(good.params.k0_scale),
            one_window(ahrs, increments),
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
    BIASES = ImuBiases(accel=[0.02, -0.015, 0.01], gyro=[0.001, -0.002, 0.0005])

    def random_window(self, rng, horizon, k0):
        """(q, iterate, k0, sums) and the same window for ipg_step: random bursts,
        AHRS rows and DVL rows, and stage 1's window-start orientation q, each
        burst's increment rotated from where it starts (``velocity_increments``)."""
        epochs = epoch_chain(rng, rng.integers(1, 25, size=horizon - 1))
        table = BurstInput.from_epochs(epochs, self.BIASES)
        ahrs = np.array([random_unit_quat(rng) for _ in range(horizon)])
        dvl = rng.normal(size=(horizon, 3))
        window = one_window(ahrs, table.rot_increment, table.body_dv, table.duration, dvl)
        M = window_maps(table.rot_increment)
        q, iterate = random_unit_quat(rng), rng.normal(size=3)
        quats = burst_start_orientations(M, q)
        increments = velocity_increments(table.body_dv, table.duration, quats, GRAVITY)
        generic = IpgWindow(tuple(increments), tuple(dvl), iterate, k0 * np.eye(3))
        return (q.tolist(), iterate.tolist(), k0, window.sums), generic

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
        epochs, t = [], 0.0
        for _ in range(horizon - 1):
            epochs.append(random_epoch(rng, t, int(rng.integers(1, 25))))
            t = epochs[-1].t
        increments = BurstInput.from_epochs(epochs, ImuBiases(gyro=self.GYRO_BIAS)).rot_increment
        # AHRS near the trajectory from a random start, and an iterate near
        # that start; the iterate and random AHRS blocks are negated so that
        # the hemisphere alignment of every row, row 0 included, matters.
        q = random_unit_quat(rng)
        iterate = quat_normalize(q + rng.normal(scale=0.3, size=4)) * rng.choice([-1.0, 1.0])
        ahrs = [q]
        for r in increments:
            q = quat_normalize(quat_product(q, r))
            ahrs.append(q)
        ahrs = np.array([quat_normalize(a + rng.normal(scale=0.05, size=4)) for a in ahrs])
        ahrs *= rng.choice([-1.0, 1.0], size=(horizon, 1))
        K = k0 * (np.eye(4) + spread * rng.normal(size=(4, 4))) if spread else k0 * np.eye(4)
        generic = IpgWindow(tuple(increments.copy()), tuple(ahrs), iterate, K)
        args = (ahrs, iterate, K, increments)
        return args, generic

    @staticmethod
    def step(params, ahrs, iterate, K, increments):
        """``_orientation_step`` on one window's AHRS rows and increments, through
        the one-window terms, from an iterate and a 4x4 K given as arrays, as
        ``ipg_step`` takes them; K comes back as a 4x4 array."""
        estimate, warm, K, zeta = _orientation_step(
            params, np.asarray(iterate).tolist(), np.ravel(K).tolist(), one_window(ahrs, increments))
        return estimate, warm, np.reshape(K, (4, 4)), zeta

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
            estimate, warm, K, zeta = self.step(params, *args)
            ref = ipg_step(model, params, generic)
            np.testing.assert_allclose(estimate, ref.estimate, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(warm, ref.window.iterate, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(K, ref.window.precond, rtol=0.0, atol=1e-12)
            # zeta is the window start, and the array velocity oracle's burst-start
            # orientations from it are rows 0..N-2 of the stacked map.
            expected = stacked_map(model, generic.inputs, ref.window_start).reshape(-1, 4)[:-1]
            np.testing.assert_allclose(zeta, expected[0], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(burst_start_orientations(window_maps(args[3]), zeta),
                                       expected, rtol=0.0, atol=1e-12)

    def test_zero_dot_counts_as_positive_like_ipg_step(self):
        # Identity increments make W_j = Z_j, and every block is orthogonal to
        # zeta = 1, so each hemisphere test, row 0's included, sees exactly 0.
        horizon = 6
        params = IpgParams(horizon=horizon, iterations=3)
        ahrs = np.array([quat_normalize([0.0, 1.0, 0.5 * j, -0.25 * j]) for j in range(horizon)])
        iterate, K = np.array([1.0, 0.0, 0.0, 0.0]), params.k0_scale * np.eye(4)
        identity = BurstInput.from_epochs(epoch_chain(np.random.default_rng(0), [0]),
                                          ImuBiases()).rot_increment[0]
        estimate, warm, K_out, _ = self.step(params, ahrs, iterate, K, [identity] * (horizon - 1))
        ref = ipg_step(ORIENTATION_MODEL, params,
                       IpgWindow((identity,) * (horizon - 1), tuple(ahrs), iterate, K))
        np.testing.assert_allclose(estimate, ref.estimate, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(warm, ref.window.iterate, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(K_out, ref.window.precond, rtol=0.0, atol=1e-12)

    X0 = np.array([1.0, 0.0, 0.0, 0.0])  # the iterate; also an identity increment

    def against_ipg_step(self, params, ahrs, K):
        """``_orientation_step`` from x_0 = 1 on ``ahrs`` (N, 4) with identity
        increments, so that W_j = Z_j and each dot at x_0 is its row's first
        entry, exactly, here and in ``ipg_step``, which it must match.  Returns
        the iterate and the number of row passes."""
        increments = (self.X0,) * (len(ahrs) - 1)
        window = one_window(ahrs, increments)
        rows = CountingRows(window.W)
        estimate, warm, K_out, zeta = _orientation_step(
            params, self.X0.tolist(), np.ravel(K).tolist(), window._replace(W=rows))
        ref = ipg_step(ORIENTATION_MODEL, params, IpgWindow(increments, tuple(ahrs), self.X0, K))
        np.testing.assert_allclose(estimate, ref.estimate, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(warm, ref.window.iterate, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(np.reshape(K_out, (4, 4)), ref.window.precond,
                                   rtol=0.0, atol=1e-12)
        return np.array(zeta), rows.passes

    @pytest.mark.parametrize("margin", [1e-6, 2e-15, 1e-15, -1e-15, 0.0],
                             ids=["1e-6", "2e-15", "1e-15", "-1e-15", "zero"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_hemisphere_flip_at_iteration_1_like_ipg_step(self, rng, margin):
        # Row 1 has dot `margin` with x_0 (a zero dot counts as +), and its
        # tangent part is minus s_1 times half the tangent part p of the other
        # rows' pull s_0 z_0 + sum_{j != 1} s_j W_j: the step from x_0 turns
        # its dot by about -s_1 delta k0 |p|^2 / 4, into the other hemisphere.
        # So the row pass must rerun at iteration 1, as the margin (at most
        # |margin|) is far below the move.
        horizon = 6
        params = IpgParams(horizon=horizon, iterations=4, k0_scale=0.05)
        ahrs = np.array([quat_normalize(self.X0 + rng.normal(scale=0.4, size=4))
                         for _ in range(horizon)])
        ahrs *= rng.choice([-1.0, 1.0], size=(horizon, 1))
        signs = np.where(ahrs[:, 0] < 0.0, -1.0, 1.0)
        pull = signs[0] * ahrs[0] + signs[2:] @ ahrs[2:]
        s = -1.0 if margin < 0.0 else 1.0
        ahrs[1] = [margin, *(-0.5 * s * pull[1:])]
        K = params.k0_scale * np.eye(4)
        x1, passes = self.against_ipg_step(replace(params, iterations=1), ahrs, K)
        assert passes == 1 and s * (ahrs[1] @ x1) < -1e-4  # flipped, far beyond rounding
        _, passes = self.against_ipg_step(params, ahrs, K)
        assert passes >= 2
        # K grows about alpha N = 3e50 times per iteration, and the iterate's norm
        # overflows a few iterations in, at the same one in both.
        diverging = replace(params, alpha=5e49, iterations=10)
        with pytest.raises(DivergenceError) as batched:
            self.step(diverging, ahrs, self.X0, K, [self.X0] * (horizon - 1))
        with pytest.raises(DivergenceError) as generic_exc:
            ipg_step(ORIENTATION_MODEL, diverging,
                     IpgWindow((self.X0,) * (horizon - 1), tuple(ahrs), self.X0, K))
        assert batched.value.iteration == generic_exc.value.iteration > 1

    @pytest.mark.parametrize("move, passes", [(0.5, 1), (1.5, 2), (6.0, 2)],
                             ids=["within-half-margin", "past-half-margin", "flips-row-2"])
    def test_row_pass_reruns_once_a_dot_may_change_sign(self, move, passes):
        # At x_0 = 1 the least |dot| is row 2's 0.1 and w_max = |Z_2| ~ 9.9.  A
        # rank-one K_0 = (x_0 - x_1) g^T / (delta g . g), g = J^T r, sends the
        # first step to a unit x_1 at distance move * 0.1 / (2 w_max), turned
        # against Z_2's tangent part: the pass reruns at iteration 1 from move 1
        # on, and row 2's dot turns negative from move 2 on, which a margin of
        # 0.1 / 2 without w_max would not see.
        params = IpgParams(horizon=4, iterations=2)
        ahrs = np.array([[0.9, 0.3, -0.2, 0.1], [-0.8, 0.1, 0.4, -0.3],
                         [0.1, 0.0, 9.9, 0.0], [0.7, -0.2, 0.1, 0.5]])
        w_max = np.linalg.norm(ahrs[2])
        distance = move * 0.1 / (2.0 * w_max)
        theta = 2.0 * np.arcsin(distance / 2.0)
        x1 = np.array([np.cos(theta), 0.0, -np.sin(theta), 0.0])
        increments = (self.X0,) * 3
        predicted = stacked_map(ORIENTATION_MODEL, increments, self.X0)
        J = stacked_jacobian(ORIENTATION_MODEL, increments, self.X0)
        g = J.T @ (predicted - ORIENTATION_MODEL.align_measurements(predicted, ahrs.reshape(-1)))
        K = np.outer(self.X0 - x1, g) / (params.delta * (g @ g))
        zeta, _ = self.against_ipg_step(replace(params, iterations=1), ahrs, K)
        np.testing.assert_allclose(np.linalg.norm(zeta - self.X0), distance, rtol=1e-9)
        assert (ahrs[2] @ zeta < 0.0) == (move > 2.0)
        assert self.against_ipg_step(params, ahrs, K)[1] == passes

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
            self.step(params, ahrs, iterate, K, increments)
        with pytest.raises(DegenerateQuaternionError):
            ipg_step(ORIENTATION_MODEL, params, replace(generic, precond=K))

    def test_overflowing_iterate_norm_diverges(self, rng):
        # A finite K of 1e200 gives finite iterate components whose norm overflows;
        # ipg_step diverges at the same iteration, before post_iterate normalizes.
        params = IpgParams()
        args, generic = self.random_window(rng, params.horizon, 1e200)
        with pytest.raises(DivergenceError) as batched:
            self.step(params, *args)
        with pytest.raises(DivergenceError) as generic_exc:
            ipg_step(ORIENTATION_MODEL, params, generic)
        assert batched.value.iteration == generic_exc.value.iteration == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_at_same_iteration_as_ipg_step(self, rng):
        params = IpgParams(alpha=1e200)
        args, generic = self.random_window(rng, params.horizon, params.k0_scale)
        with pytest.raises(DivergenceError) as batched:
            self.step(params, *args)
        with pytest.raises(DivergenceError) as generic_exc:
            ipg_step(ORIENTATION_MODEL, params, generic)
        assert batched.value.iteration == generic_exc.value.iteration

    @pytest.mark.parametrize("alpha, diverges", [(1e300, True), (3e297, False)],
                             ids=["entry-overflows", "only-the-sum-overflows"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_preconditioner_overflow_like_ipg_step(self, rng, alpha, diverges):
        # One iteration from K = 1e10 I keeps the iterate finite, and K' holds
        # entries near -alpha N 1e10: infinite at alpha 1e300; at 3e297 all finite,
        # though their sum overflows, which is no divergence.
        params = IpgParams(iterations=1, alpha=alpha)
        args, generic = self.random_window(rng, params.horizon, 1e10)
        if diverges:
            with pytest.raises(DivergenceError) as batched:
                self.step(params, *args)
            with pytest.raises(DivergenceError) as generic_exc:
                ipg_step(ORIENTATION_MODEL, params, generic)
            assert batched.value.iteration == generic_exc.value.iteration == 0
            return
        _, _, K, _ = self.step(params, *args)
        ref = ipg_step(ORIENTATION_MODEL, params, generic)
        assert np.isfinite(K).all() and sum(K.ravel().tolist()) == -np.inf
        np.testing.assert_allclose(K, ref.window.precond, rtol=1e-12, atol=0.0)

    def test_dynamics_jacobian_matches_finite_differences(self, rng):
        for _ in range(10):
            q = random_unit_quat(rng)
            burst = np.concatenate(([1.0], 0.005 * rng.normal(size=3)))  # a rot_increment
            J_fd = central_difference(lambda x: ORIENTATION_MODEL.dynamics(x, burst), q)
            np.testing.assert_allclose(ORIENTATION_MODEL.dynamics_jacobian(q, burst), J_fd,
                                       atol=1e-8)

    def test_normal_equations_match_stacked_jacobian(self, rng):
        # Random rotation increments with |U_j| far from 1, randomly negated
        # AHRS blocks, and the stacked Jacobian and residual of the generic model.
        model = ORIENTATION_MODEL
        for _ in range(100):
            horizon = int(rng.integers(2, 11))
            bursts = tuple(random_unit_quat(rng) * rng.uniform(0.3, 3.0)
                           for _ in range(horizon - 1))  # rot_increments
            zeta = random_unit_quat(rng)
            truth = stacked_map(model, bursts, quat_normalize(zeta + rng.normal(scale=0.3, size=4)))
            ahrs = truth.reshape(-1, 4) + rng.normal(scale=0.1, size=(horizon, 4))
            ahrs *= rng.choice([-1.0, 1.0], size=(horizon, 1))
            predicted = stacked_map(model, bursts, zeta)
            J = stacked_jacobian(model, bursts, zeta)
            r = predicted - model.align_measurements(predicted, ahrs.reshape(-1))
            W = np.array(one_window(ahrs, bursts).W)
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
        generic = replace(generic, inputs=generic.inputs[:2] + (increments[2],)
                          + generic.inputs[3:])
        with pytest.raises(DegenerateQuaternionError):
            self.step(params, ahrs, iterate, K, increments)
        with pytest.raises(DegenerateQuaternionError):
            ipg_step(ORIENTATION_MODEL, params, generic)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_increment_raises_numerical_error(self, rng):
        params = IpgParams()
        args, _ = self.random_window(rng, params.horizon, params.k0_scale)
        ahrs, iterate, K, increments = args
        increments[-1] = np.array([np.inf, 0.0, 0.0, 0.0])
        with pytest.raises(NumericalError):
            self.step(params, ahrs, iterate, K, increments)

    def test_non_finite_ahrs_diverges_at_first_iteration_like_ipg_step(self, rng):
        params = IpgParams()
        args, generic = self.random_window(rng, params.horizon, params.k0_scale)
        ahrs = args[0].copy()
        ahrs[3, 1] = np.nan
        generic = replace(generic, measurements=tuple(ahrs))
        with pytest.raises(DivergenceError) as batched:
            self.step(params, ahrs, *args[1:])
        with pytest.raises(DivergenceError) as generic_exc:
            ipg_step(ORIENTATION_MODEL, params, generic)
        assert batched.value.iteration == generic_exc.value.iteration == 0


class TestFixedPoints:
    """At a large iteration count each stage stops at its closed-form fixed point
    (``oracles.orientation_fixed_point`` and ``velocity_fixed_point``, which do
    not call ``ipg_step``), on 100 windows of a 60 s benchmark survey at N = 5
    and N = 10.  At the default step sizes the preconditioner's error shrinks
    by |1 - alpha| = 0.9 per iteration or faster, and once it is small each
    iterate's by about |1 - delta k N|, near 0: at 300 iterations both gaps
    are rounding."""

    ITERATIONS = 300

    @pytest.fixture(scope="class")
    def survey(self):
        """The survey's AHRS rows (n, 4), DVL rows (n, 3) and burst table."""
        epochs = generate(benchmark_scenario(0, duration=60.0)).epochs()
        return (np.array([e.ahrs for e in epochs]), np.array([e.dvl for e in epochs]),
                BurstInput.from_epochs(epochs, ImuBiases()))

    def windows(self, survey, horizon):
        """(first row, _Window) of 100 windows spread over the survey."""
        ahrs, dvl, bursts = survey
        for w in np.linspace(0, len(ahrs) - horizon, 100).astype(int).tolist():
            yield w, _window_terms(ahrs, dvl, bursts, GRAVITY, horizon, w, 1)[0]

    @pytest.mark.parametrize("horizon", [5, 10])
    def test_orientation_stage_reaches_the_aligned_mean(self, rng, survey, horizon):
        # From the window's first AHRS row perturbed, and negated half of the time,
        # so that the fixed point's hemisphere follows the start's.
        params = IpgParams(horizon=horizon, iterations=self.ITERATIONS)
        ahrs, _, bursts = survey
        for w, window in self.windows(survey, horizon):
            start = quat_normalize(ahrs[w] + rng.normal(scale=0.1, size=4))
            start *= rng.choice([-1.0, 1.0])
            estimate, _, _, zeta = _orientation_step(
                params, start.tolist(), identity_precond(params.k0_scale), window)
            expected, expected_estimate = orientation_fixed_point(
                ahrs[w:w + horizon], bursts.rot_increment[w + 1:w + horizon], start)
            np.testing.assert_allclose(zeta, expected, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(estimate, expected_estimate, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("horizon", [5, 10])
    def test_velocity_stage_reaches_the_offset_mean(self, rng, survey, horizon):
        # From the window's first DVL row plus a unit-scale offset, with stage 1's
        # window-start orientation taken as the first AHRS row.
        params = IpgParams(horizon=horizon, iterations=self.ITERATIONS)
        ahrs, dvl, bursts = survey
        for w, window in self.windows(survey, horizon):
            inputs = slice(w + 1, w + horizon)
            q = quat_normalize(ahrs[w])
            quats = burst_start_orientations(window_maps(bursts.rot_increment[inputs]), q)
            increments = velocity_increments(bursts.body_dv[inputs], bursts.duration[inputs],
                                             quats, GRAVITY)
            estimate, _, gain = _velocity_step(params, q.tolist(),
                                               (dvl[w] + rng.normal(size=3)).tolist(),
                                               params.k0_scale, window.sums)
            expected = velocity_fixed_point(dvl[w:w + horizon], increments)
            np.testing.assert_allclose(estimate, expected, rtol=0.0, atol=1e-12)
            assert gain == pytest.approx(1.0 / horizon, rel=1e-12)


class TestWindowTerms:
    """``cascade_step``'s block-built window terms against one-window oracles,
    window by window, and their errors at the window's epoch: the rotations
    U_1 and U_{N-1}, W and w_max bit for bit against ``window_terms``, the sums
    bit for bit against a block of one window, and the velocity stage on them
    against the array oracle ``velocity_step``.  ``window_terms``' Hamilton
    products against the 4x4 chain of ``window_maps``."""

    @staticmethod
    def stepped_terms(monkeypatch, epochs, horizon):
        """The terms ``_orientation_step`` gets at each epoch of a cascade run, the
        ``(first, count)`` of every block built, each epoch's ``_velocity_step``
        arguments and result, and the final state."""
        seen, blocks, velocity = [], [], []
        real_step, real_terms = cascade._orientation_step, cascade._window_terms
        real_velocity = cascade._velocity_step
        monkeypatch.setattr(cascade, "_orientation_step",
                            lambda *args: seen.append(args[3]) or real_step(*args))
        monkeypatch.setattr(cascade, "_window_terms",
                            lambda *args: blocks.append(args[5:]) or real_terms(*args))
        monkeypatch.setattr(cascade, "_velocity_step",
                            lambda *args: velocity.append((args, real_velocity(*args)))
                            or velocity[-1][1])
        state = CascadeState.start(CascadeConfig(params=IpgParams(horizon=horizon)), epochs)
        for epoch in epochs:
            state, _ = cascade_step(state, epoch)
        return seen, blocks, velocity, state

    @pytest.mark.parametrize("block", [None, 1, 7], ids=["default", "1", "7"])
    @pytest.mark.parametrize("horizon", [2, 3, 5, 10, 19])
    def test_block_terms_match_per_window_oracle(self, rng, monkeypatch, block, horizon):
        # Window counts below, equal to and above one block; random AHRS rows,
        # randomly negated, random DVL rows, and bursts of mixed lengths, empty
        # ones included.
        if block is not None:
            monkeypatch.setattr(cascade, "_BLOCK", block)
        size = cascade._BLOCK
        for count in sorted({max(size - 3, 1), size, 2 * size + 3}):
            epochs = epoch_chain(rng, rng.choice([0, 1, 2, 5], size=count + horizon - 1))
            epochs = [replace(e, ahrs=random_unit_quat(rng) * rng.choice([-1.0, 1.0]),
                              dvl=rng.normal(size=3)) for e in epochs]
            seen, blocks, velocity, state = self.stepped_terms(monkeypatch, epochs, horizon)
            assert len(seen) == len(velocity) == count
            assert blocks == [(first, min(size, count - first)) for first in range(0, count, size)]
            bursts = state.bursts
            for w, (window, (args, result)) in enumerate(zip(seen, velocity)):
                U_ref, W_ref = window_terms(state.ahrs[w:w + horizon],
                                            bursts.rot_increment[w + 1:w + horizon])
                M_ref = window_maps(bursts.rot_increment[w + 1:w + horizon])
                assert same_bits(M_ref[:, :, 0], U_ref)  # column 0 of M_j is U_j
                assert window.fault is None
                assert same_bits(window.start, state.ahrs[w])
                assert same_bits(window.first, U_ref[0]) and same_bits(window.last, U_ref[-1])
                assert same_bits(window.W, W_ref)
                assert same_bits(window.w_max,
                                 max(1.0, *row_norms(np.vstack([state.ahrs[w], W_ref]))))
                alone = _window_terms(state.ahrs, state.dvl, bursts, GRAVITY, horizon, w, 1)[0]
                assert same_bits(window.sums, alone.sums) and args[4] is window.sums
                # The velocity stage from the window-start orientation q, against
                # each burst's increment rotated from where it starts.
                params, q, v_iterate, v_gain, _ = args
                increments = velocity_increments(
                    bursts.body_dv[w + 1:w + horizon], bursts.duration[w + 1:w + horizon],
                    burst_start_orientations(M_ref, q), GRAVITY)
                expected = velocity_step(params, state.dvl[w:w + horizon], v_iterate, v_gain,
                                         increments)
                for got, ref in zip(result, expected):
                    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)

    def test_hamilton_rotations_equal_the_4x4_chain(self, rng):
        # U_j from one Hamilton product per step equals column 0 of the chained
        # 4x4 maps bit for bit, signed zeros included (increments with zero and
        # negative-zero vector parts), and W_j = Z_j * conj(U_j) / |U_j| equals
        # M_j^T Z_j / |U_j| to rounding.
        for _ in range(300):
            horizon = int(rng.integers(2, 12))
            increments = rng.normal(size=(horizon - 1, 4))
            increments[:, 1:] *= rng.choice([0.0, -0.0, 1.0, 1.0], size=(horizon - 1, 3))
            ahrs = np.array([random_unit_quat(rng) for _ in range(horizon)])
            U, W = window_terms(ahrs, increments)
            M = window_maps(increments)
            assert same_bits(M[:, :, 0], U)
            norms = row_norms(U)
            expected = [float_matmul(m.T, z) / n for m, z, n in zip(M, ahrs[1:], norms)]
            np.testing.assert_allclose(W, expected, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("block", [None, 7], ids=["default", "7"])
    @pytest.mark.parametrize("fault", ["overflow", "nan"])
    def test_errors_wait_for_the_window_epoch(self, block, fault, monkeypatch):
        # A burst whose rotation increment passes start but whose window norms
        # overflow (a one-sample burst with a gyro reading of 1e160) or are NaN
        # (a NaN table row: start refuses a NaN gyro reading itself), mid-block:
        # the rows before its epoch are those of the run that stops before it,
        # no block fill warns, and its epoch raises what window_terms raises on
        # that window, prefixed with the epoch.
        if block is not None:
            monkeypatch.setattr(cascade, "_BLOCK", block)
        run, epochs = circle_run(duration=60.0)
        config = CascadeConfig(initial=run.initial_nav())
        horizon = config.params.horizon
        bad = horizon - 1 + cascade._BLOCK + cascade._BLOCK // 2
        e = epochs[bad]
        if fault == "overflow":
            epochs[bad] = replace(e, imu_burst=np.array([[e.t_prev + 0.01, 0.0, 0.0, -9.81,
                                                          1e160, 0.0, 0.0]]))
        state = CascadeState.start(config, epochs)
        if fault == "nan":
            state.bursts.rot_increment[bad] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises((DegenerateQuaternionError, NumericalError)) as expected:
                window_terms(state.ahrs[bad + 1 - horizon:bad + 1],
                             state.bursts.rot_increment[bad + 2 - horizon:bad + 1])
        reference = run_cascade(epochs[:bad], config)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for epoch, ref in zip(epochs[:bad], reference):
                state, point = cascade_step(state, epoch)
                assert point.flag == ref.flag
                for name in ("position", "velocity", "orientation"):
                    assert same_bits(getattr(point.nav, name), getattr(ref.nav, name))
        message = f"orientation window of the epoch at t={epochs[bad].t!r}: {expected.value}"
        if fault == "overflow":  # the one-sample burst's row
            message += f" (it overflows at the IMU row at t={float(epochs[bad].imu_burst[0, 0])!r})"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(expected.type, match=f"^{re.escape(message)}$"):
                cascade_step(state, epochs[bad])


class TestSteadyStateVelocityError:
    """The velocity stage's steady-state error on a noise-free straight line, in
    closed form.  It fits the window-start velocity to the N DVL rows and
    reports it plus the window's N-1 increments, so an error e common to every
    increment leaves the reported velocity off by (N-1)/2 e: the fit removes
    only the mean of the offsets' errors i e, i = 0..N-1.  These pin the
    stage's extrapolation, signs and rotations."""

    @staticmethod
    def steady_error(horizon, heading, biases=ImuBiases(), tilt=None):
        """Velocity error at the last epoch of a 30 s line run, the truth's and
        the last AHRS row's orientation, and the epoch period."""
        spec = ScenarioSpec(kind="line", duration=30.0, speed=0.5, initial_heading=heading,
                            biases=biases, seed=0)
        run = generate(spec)
        epochs = run.epochs()
        if tilt is not None:  # a constant AHRS offset, in the body frame
            epochs = [replace(e, ahrs=quat_product(e.ahrs, quat_from_rotvec(tilt)))
                      for e in epochs]
        config = CascadeConfig(params=IpgParams(horizon=horizon), initial=run.initial_nav())
        last, truth = run_cascade(epochs, config)[-1], run.truth[-1]
        assert last.flag == "ok" and last.t == truth.t
        return (last.nav.velocity - truth.nav.velocity, truth.nav.orientation, epochs[-1].ahrs,
                1.0 / spec.meas_rate)

    @pytest.mark.parametrize("heading", [0.0, 0.7])
    @pytest.mark.parametrize("horizon", [2, 5, 10, 19])
    def test_accel_bias_error(self, horizon, heading):
        # An uncompensated accel bias b adds e = R b T to every increment.
        b = np.array([0.02, -0.015, 0.01])
        error, q, _, T = self.steady_error(horizon, heading, biases=ImuBiases(accel=b))
        expected = (horizon - 1) / 2 * quat_to_rotation(q) @ b * T
        assert np.abs(expected).max() > 1e-3
        np.testing.assert_allclose(error, expected, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("heading", [0.0, 0.7])
    @pytest.mark.parametrize("horizon", [2, 5, 10, 19])
    def test_ahrs_tilt_error(self, horizon, heading):
        # Stage 1 follows the tilted AHRS R^ exactly, so each increment rotates
        # the body-frame -g T by R^ instead of R: e = (R^ R^T - I)(-g) T.
        error, q, ahrs, T = self.steady_error(horizon, heading, tilt=[0.01, -0.007, 0.004])
        R, R_hat = quat_to_rotation(q), quat_to_rotation(ahrs)
        expected = (horizon - 1) / 2 * (R_hat @ R.T - np.eye(3)) @ -GRAVITY * T
        assert np.abs(expected).max() > 1e-3
        np.testing.assert_allclose(error, expected, rtol=0.0, atol=1e-13)
