"""Trajectory metrics against frozen hand-computed values and invariances."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cipgnav.errors import AlignmentError
from cipgnav.metrics import (
    MetricsConfig,
    align_pair,
    ate,
    evaluate_trajectories,
    pair_trajectories,
    rpe,
    state_mae,
    total_error,
    total_variance,
    truth_from_gt,
    write_error_series,
    write_report,
)
from cipgnav.preintegration import NavState
from cipgnav.quat import (
    hemisphere_align,
    quat_angular_distance,
    quat_from_yaw,
    quat_multiply,
    quat_to_rotation,
    unit_rows,
)
from cipgnav.sensors import GroundTruthSample
from cipgnav.trajectory import TrajectoryPoint


def straight_points(n=20, dt=0.5, v=(1.0, 0.0, 0.0), p0=(0.0, 0.0, 0.0), flag="ok",
                    yaw=0.0, t0=0.0):
    v = np.asarray(v, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    return [
        TrajectoryPoint(
            t0 + k * dt,
            NavState(p0 + v * (k * dt), v.copy(), quat_from_yaw(yaw)),
            flag,
        )
        for k in range(n)
    ]


def offset_points(points, dp):
    return [
        TrajectoryPoint(p.t, NavState(p.nav.position + dp, p.nav.velocity,
                                      p.nav.orientation), p.flag)
        for p in points
    ]


class TestScalarStatistics:
    def test_total_error_frozen_oracle(self):
        # sqrt((3^2 + 4^2) / 2) = sqrt(12.5)
        assert total_error([3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_total_error_single_axis(self):
        assert total_error([2.0]) == pytest.approx(2.0, abs=1e-15)

    def test_total_error_rejects_empty(self):
        with pytest.raises(ValueError):
            total_error([])

    def test_total_variance_pooled_sample_variance(self):
        # Signed errors 0 and 2 on one axis: centered (-1, 1), ddof=1 -> 2.
        assert total_variance(np.array([[0.0], [2.0]])) == pytest.approx(2.0, abs=1e-15)

    def test_total_variance_pools_axes(self):
        errors = np.array([[1.0, 10.0], [-1.0, 12.0], [0.0, 11.0]])
        centered = errors - errors.mean(axis=0)
        expected = (centered**2).sum() / (centered.size - 1)
        assert total_variance(errors) == pytest.approx(expected, abs=1e-12)

    def test_total_variance_degenerate(self):
        assert total_variance(np.array([[1.0]])) == 0.0


class TestAte:
    def test_linear_drift_closed_form(self):
        # Drift of c metres per sample over k = 1..100:
        # RMSE = c * sqrt(n(n+1)(2n+1) / (6n))
        n, c = 100, 0.01
        gt = straight_points(n=n + 1, dt=1.0)
        est = [
            TrajectoryPoint(p.t, NavState(p.nav.position + np.array([c * k, 0, 0]),
                                          p.nav.velocity, p.nav.orientation), "ok")
            for k, p in enumerate(gt)
        ]
        pair = pair_trajectories(est, gt)
        rmse, series = ate(pair)
        expected = c * math.sqrt((n + 1) * (2 * n + 1) / 6.0 * n / (n + 1))
        assert rmse == pytest.approx(expected, abs=1e-9)
        assert series.shape == (n + 1,)
        assert series[0] == pytest.approx(0.0, abs=1e-12)
        assert series[-1] == pytest.approx(1.0, abs=1e-12)


class TestRpe:
    def test_translation_invariance(self):
        gt = straight_points(n=40, dt=0.25)
        est = offset_points(gt, np.array([3.0, -2.0, 1.0]))
        for p in est:
            p.nav.position += 0.01 * np.sin(p.t) * np.array([1.0, 0.0, 0.0])
        pair_a = pair_trajectories(est, gt)
        pair_b = pair_trajectories(offset_points(est, np.array([100.0, 50.0, -7.0])), gt)
        a, _ = rpe(pair_a, delta=1.0)
        b, _ = rpe(pair_b, delta=1.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_constant_drift_rate_oracle(self):
        # Estimate gains c metres of error per second: every 1 s displacement
        # pair differs by exactly c.
        c = 0.02
        gt = straight_points(n=30, dt=1.0)
        est = [
            TrajectoryPoint(p.t, NavState(p.nav.position + np.array([c * p.t, 0, 0]),
                                          p.nav.velocity, p.nav.orientation), "ok")
            for p in gt
        ]
        rmse, series = rpe(pair_trajectories(est, gt), delta=1.0)
        assert rmse == pytest.approx(c, abs=1e-12)
        assert len(series) == 29

    def test_rejects_bad_delta(self):
        gt = straight_points(n=10)
        pair = pair_trajectories(gt, gt)
        with pytest.raises(ValueError):
            rpe(pair, delta=0.0)

    def test_no_pairs_raises(self):
        gt = straight_points(n=3, dt=0.1)
        pair = pair_trajectories(gt, gt)
        with pytest.raises(AlignmentError):
            rpe(pair, delta=10.0)


class TestPairing:
    def test_warmup_rows_dropped(self):
        gt = straight_points(n=20, dt=0.5)
        est = straight_points(n=20, dt=0.5)
        est[0] = TrajectoryPoint(est[0].t, est[0].nav, "warmup")
        est[1] = TrajectoryPoint(est[1].t, est[1].nav, "warmup")
        pair = pair_trajectories(est, gt)
        assert len(pair.t) == 18
        assert pair.t[0] == pytest.approx(1.0)

    def test_truth_resampled_onto_estimate_clock(self):
        gt = straight_points(n=11, dt=1.0, v=(2.0, 1.0, 0.0))
        est = straight_points(n=19, dt=0.5, v=(2.0, 1.0, 0.0), t0=0.5,
                              p0=(1.0, 0.5, 0.0))
        pair = pair_trajectories(est, gt)
        np.testing.assert_allclose(pair.gt_position, pair.est_position, atol=1e-12)

    def test_non_overlapping_raises(self):
        gt = straight_points(n=5, dt=0.1)
        est = straight_points(n=5, dt=0.1, t0=100.0)
        with pytest.raises(AlignmentError):
            pair_trajectories(est, gt)

    def test_resample_quaternion_sign_consistency(self):
        gt = straight_points(n=5, dt=1.0, yaw=0.3)
        for k in (1, 3):
            gt[k].nav.orientation = -gt[k].nav.orientation
        est = straight_points(n=3, dt=1.0, t0=0.5, p0=(0.5, 0.0, 0.0), yaw=0.3)
        pair = pair_trajectories(est, gt)
        np.testing.assert_array_equal(pair.t, [0.5, 1.5, 2.5])
        for q in pair.gt_orientation:
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
            # All resampled rows must agree with the constant yaw rotation.
            np.testing.assert_allclose(
                quat_to_rotation(q),
                quat_to_rotation(quat_from_yaw(0.3)),
                atol=1e-12,
            )

    @pytest.mark.parametrize("warmup, align, gt_rows, t0, message", [
        (range(20), False, 20, 0.0, "no estimate samples left"),
        (range(20), True, 20, 0.0, "no estimate samples left"),
        (range(20), False, 1, 0.0, "no estimate samples left"),
        (range(2), False, 1, 0.0, "ground truth needs at least two samples"),
        (range(2), True, 20, 100.0, "do not overlap"),
        # Only the two warmup rows lie inside the truth span.
        (range(2), False, 20, 9.0, "do not overlap"),
        (range(2), True, 20, 9.0, "do not overlap"),
        (range(2), True, 20, 9.5, "alignment needs at least two common samples"),
    ])
    def test_pairing_errors(self, warmup, align, gt_rows, t0, message):
        gt = straight_points(n=gt_rows, dt=0.5, v=(0.4, 0.3, 0.0))
        est = straight_points(n=20, dt=0.5, v=(0.4, 0.3, 0.0), t0=t0)
        for k in warmup:
            est[k] = TrajectoryPoint(est[k].t, est[k].nav, "warmup")
        with pytest.raises(AlignmentError, match=message):
            pair_trajectories(est, gt, MetricsConfig(align=align))


def tumbling_points(rng, t):
    """Points at times t with random positions and velocities and a smoothly
    tumbling 6-DOF attitude (every quaternion component non-zero)."""
    n = len(t)
    q = np.cumsum(0.05 * rng.normal(size=(n, 4)), axis=0) + [1.0, 0.0, 0.0, 0.0]
    return [TrajectoryPoint(float(t[k]), NavState(rng.normal(size=3), rng.normal(size=3), q[k]))
            for k in range(n)]


class TestMatchesPerSampleStates:
    """Quaternion rows of a pair equal what the per-sample NavState forms give, bit for
    bit: a normalization pass is not idempotent in the last bit."""

    def test_truth_on_the_estimate_clock(self, rng):
        gt = tumbling_points(rng, 0.1 * np.arange(300))
        est = tumbling_points(rng, 0.1 * np.arange(1, 298) + 0.037)
        pair = pair_trajectories(est, gt)
        t_gt = np.array([p.t for p in gt])
        lerped = np.column_stack([
            np.interp(pair.t, t_gt, column)
            for column in hemisphere_align([p.nav.orientation for p in gt]).T])
        expected = [NavState(np.zeros(3), np.zeros(3), q).orientation
                    for q in unit_rows(lerped)[0]]
        assert np.array_equal(pair.gt_orientation, expected)
        assert state_mae(pair)["orientation"] == np.mean(
            [quat_angular_distance(a, b) for a, b in zip(pair.est_orientation, expected)])

    def test_aligned_estimate(self, rng):
        # Estimate positions equal truth's, so the fitted yaw is exactly 0.
        gt = tumbling_points(rng, 0.1 * np.arange(2000))
        est = [TrajectoryPoint(p.t, NavState(p.nav.position, q.nav.velocity, q.nav.orientation))
               for p, q in zip(gt, tumbling_points(rng, 0.1 * np.arange(2000)))]
        pair = pair_trajectories(est, gt, MetricsConfig(align=True))
        identity = quat_from_yaw(0.0)
        expected = [NavState(np.zeros(3), np.zeros(3),
                             quat_multiply(identity, p.nav.orientation)).orientation for p in est]
        assert np.array_equal(pair.est_orientation, expected)
        assert np.array_equal(pair.est_position, [p.nav.position for p in gt])


class TestAlignment:
    def test_recovers_yaw_and_translation(self):
        gt = straight_points(n=30, dt=0.5, v=(0.4, 0.3, 0.0))
        yaw, dp = 0.7, np.array([5.0, -2.0, 1.5])
        Rz = quat_to_rotation(quat_from_yaw(yaw))
        moved = [
            TrajectoryPoint(p.t, NavState(Rz @ p.nav.position + dp, Rz @ p.nav.velocity,
                                          p.nav.orientation), p.flag)
            for p in gt
        ]
        back = align_pair(pair_trajectories(moved, gt), n_fixes=10)
        for a, b in zip(back.est_position, gt):
            np.testing.assert_allclose(a, b.nav.position, atol=1e-9)
        for a, b in zip(back.est_velocity, gt):
            np.testing.assert_allclose(a, b.nav.velocity, atol=1e-9)

    def test_coincident_fixes_raise(self):
        gt = straight_points(n=10, dt=0.5, v=(0.0, 0.0, 0.0))
        with pytest.raises(AlignmentError, match="coincident"):
            align_pair(pair_trajectories(gt, gt), n_fixes=5)

    def test_fit_window_includes_warmup_rows(self):
        # The first four (warmup) rows are a yawed, shifted copy of truth; the
        # scored rows carry one more metre in x, which the fit must not see.
        gt = straight_points(n=30, dt=0.5, v=(0.4, 0.3, 0.0))
        Rz = quat_to_rotation(quat_from_yaw(-0.4))
        moved = [
            TrajectoryPoint(p.t, NavState(Rz @ p.nav.position + [2.0, 1.0, 0.5] + [k >= 4, 0, 0],
                                          Rz @ p.nav.velocity, p.nav.orientation),
                            "warmup" if k < 4 else "ok")
            for k, p in enumerate(gt)
        ]
        pair = pair_trajectories(moved, gt, MetricsConfig(align=True, n_align_fixes=4))
        np.testing.assert_array_equal(pair.t, [p.t for p in gt[4:]])
        np.testing.assert_allclose(np.linalg.norm(pair.est_position - pair.gt_position, axis=1),
                                   1.0, atol=1e-9)
        np.testing.assert_allclose(pair.est_velocity, pair.gt_velocity, atol=1e-12)


class TestTruthFromGt:
    def test_velocity_from_gradient(self):
        samples = [
            GroundTruthSample(t=float(k), position=np.array([2.0 * k, 0.0, 0.0]),
                              orientation=np.array([1.0, 0.0, 0.0, 0.0]))
            for k in range(10)
        ]
        points, has_orientation = truth_from_gt(samples)
        assert has_orientation
        for p in points:
            np.testing.assert_allclose(p.nav.velocity, [2.0, 0.0, 0.0], atol=1e-12)

    def test_missing_orientation_flagged(self):
        samples = [GroundTruthSample(t=float(k), position=np.zeros(3)) for k in range(3)]
        points, has_orientation = truth_from_gt(samples)
        assert not has_orientation
        np.testing.assert_allclose(points[0].nav.orientation, [1, 0, 0, 0])

    def test_needs_two_samples(self):
        with pytest.raises(AlignmentError):
            truth_from_gt([GroundTruthSample(t=0.0, position=np.zeros(3))])


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("lever_arm", float("nan")), ("lever_arm", -1.0), ("lever_arm", float("inf")),
        ("rpe_delta", float("nan")), ("rpe_delta", 0.0), ("rpe_delta", float("inf")),
        ("n_align_fixes", 1), ("n_align_fixes", 2.5), ("n_align_fixes", True),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            MetricsConfig(**{field: value})

    def test_boundary_values_accepted(self):
        MetricsConfig(lever_arm=0.0, n_align_fixes=np.int64(2), rpe_delta=1e-3)


class TestEvaluate:
    def test_perfect_estimate_scores_zero(self):
        gt = straight_points(n=30, dt=0.5)
        report = evaluate_trajectories(gt, gt)
        assert report.total_error == pytest.approx(0.0, abs=1e-12)
        assert report.total_variance == pytest.approx(0.0, abs=1e-12)
        assert report.ate_rmse == pytest.approx(0.0, abs=1e-12)
        assert report.n_samples == 30
        assert report.n_outliers == 0

    def test_total_error_combines_all_states(self):
        gt = straight_points(n=30, dt=0.5)
        est = offset_points(gt, np.array([0.3, 0.0, 0.0]))
        report = evaluate_trajectories(est, gt)
        # Position MAE (0.3, 0, 0), velocity and orientation exact:
        # RMS over 7 components = sqrt(0.09 / 7).
        assert report.total_error == pytest.approx(math.sqrt(0.09 / 7.0), abs=1e-12)
        np.testing.assert_allclose(report.mae_position, [0.3, 0.0, 0.0], atol=1e-12)

    def test_orientation_error_scaled_by_lever_arm(self):
        gt = straight_points(n=30, dt=0.5)
        est = [
            TrajectoryPoint(p.t, NavState(p.nav.position, p.nav.velocity,
                                          quat_from_yaw(0.1)), p.flag)
            for p in gt
        ]
        r2 = evaluate_trajectories(est, gt, MetricsConfig(lever_arm=2.0))
        assert r2.mae_orientation == pytest.approx(0.1, abs=1e-9)
        assert r2.total_error == pytest.approx(math.sqrt(0.2**2 / 7.0), abs=1e-9)

    def test_use_orientation_false(self):
        gt = straight_points(n=30, dt=0.5)
        report = evaluate_trajectories(gt, gt, MetricsConfig(use_orientation=False))
        assert math.isnan(report.mae_orientation)

    def test_report_rows_and_files(self, tmp_path):
        gt = straight_points(n=30, dt=0.5)
        est = offset_points(gt, np.array([0.1, 0.0, 0.0]))
        report = evaluate_trajectories(est, gt)
        rows = report.rows()
        for key in ("mae_px_m", "mae_vz_mps", "mae_att_rad", "total_error_m",
                    "total_variance_m2", "ate_rmse_m", "rpe_rmse_m", "n_samples"):
            assert key in dict(rows)

        report_path = tmp_path / "report.txt"
        write_report(report_path, report)
        text = report_path.read_text()
        assert "total_error_m" in text

        series_path = tmp_path / "errors.csv"
        write_error_series(series_path, pair_trajectories(est, gt))
        header = series_path.read_text().splitlines()[0]
        assert header.split(",")[0] == "t"
