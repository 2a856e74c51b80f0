"""Trajectory accuracy metrics.

Estimates and ground truth arrive as TrajectoryPoint sequences on their own
clocks.  This module resamples truth onto the estimate timestamps, optionally
aligns the estimate to truth with a yaw-plus-translation fit over the first
few samples, and reports:

* per-axis mean absolute error for position / velocity / orientation,
* a scalar total error (RMS of the per-axis MAEs) and total variance
  (pooled per-axis error variance),
* absolute trajectory error (ATE) and relative pose error (RPE).

Orientation errors are folded into metres through a lever arm so that all
summary numbers share units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AlignmentError
from .preintegration import NavState
from .quat import (
    quat_angular_distance,
    quat_from_yaw,
    quat_multiply,
    quat_normalize,
)
from .trajectory import TrajectoryPoint

__all__ = [
    "AlignedPair",
    "MetricsConfig",
    "TrajectoryReport",
    "truth_from_gt",
    "resample_to",
    "align_trajectories",
    "pair_trajectories",
    "state_mae",
    "total_error",
    "total_variance",
    "ate",
    "rpe",
    "evaluate_trajectories",
    "write_report",
    "write_error_series",
]

DEFAULT_LEVER_ARM_M = 1.0


@dataclass(frozen=True)
class MetricsConfig:
    """Evaluation knobs.

    ``n_align_fixes`` controls the yaw+translation alignment window;
    ``rpe_delta`` is the RPE horizon in seconds; ``lever_arm`` converts
    orientation error (radians) to metres; ``mae_variance`` switches the
    total-variance statistic from pooled per-sample error variance to the
    variance of the per-axis MAEs.
    """

    n_align_fixes: int = 10
    align: bool = False
    rpe_delta: float = 1.0
    lever_arm: float = DEFAULT_LEVER_ARM_M
    mae_variance: bool = False
    outlier_sigma: float = 5.0
    use_orientation: bool = True


@dataclass(frozen=True)
class AlignedPair:
    """Estimate and truth samples on a common clock."""

    t: np.ndarray
    est_position: np.ndarray
    est_velocity: np.ndarray
    est_orientation: np.ndarray
    gt_position: np.ndarray
    gt_velocity: np.ndarray
    gt_orientation: np.ndarray


def truth_from_gt(samples) -> tuple[list[TrajectoryPoint], bool]:
    """Turn a ground-truth sensor stream into trajectory points.

    Velocities are central finite differences of the positions.  Returns the
    points plus whether the stream carried orientation (when it did not,
    identity quaternions are filled in and orientation metrics should be
    ignored).
    """
    samples = list(samples)
    if len(samples) < 2:
        raise AlignmentError("ground truth needs at least two samples")
    t = np.array([s.t for s in samples], dtype=float)
    pos = np.array([s.position for s in samples], dtype=float)
    vel = np.gradient(pos, t, axis=0)
    has_orientation = all(s.orientation is not None for s in samples)
    points = []
    for k, s in enumerate(samples):
        q = s.orientation if has_orientation else np.array([1.0, 0.0, 0.0, 0.0])
        points.append(TrajectoryPoint(float(t[k]), NavState(pos[k], vel[k], q), "ok"))
    return points, has_orientation


def _stack(points: Sequence[TrajectoryPoint]):
    t = np.array([p.t for p in points], dtype=float)
    pos = np.array([p.nav.position for p in points], dtype=float)
    vel = np.array([p.nav.velocity for p in points], dtype=float)
    quat = np.array([p.nav.orientation for p in points], dtype=float)
    return t, pos, vel, quat


def _interp_rows(t_new, t_src, rows):
    out = np.empty((len(t_new), rows.shape[1]))
    for j in range(rows.shape[1]):
        out[:, j] = np.interp(t_new, t_src, rows[:, j])
    return out


def _interp_quats(t_new, t_src, quats):
    quats = np.array(quats, dtype=float)
    for i in range(1, len(quats)):
        if float(quats[i] @ quats[i - 1]) < 0.0:
            quats[i] = -quats[i]
    raw = _interp_rows(t_new, t_src, quats)
    return np.array([quat_normalize(q) for q in raw])


def resample_to(points: Sequence[TrajectoryPoint], t_new) -> list[TrajectoryPoint]:
    """Linearly interpolate a trajectory onto new timestamps.

    Quaternions are sign-aligned, lerped and renormalized.  Timestamps must
    fall inside the source span.
    """
    t_src, pos, vel, quat = _stack(list(points))
    t_new = np.asarray(t_new, dtype=float)
    if t_new.size == 0:
        return []
    if t_new[0] < t_src[0] - 1e-9 or t_new[-1] > t_src[-1] + 1e-9:
        raise AlignmentError(
            f"resample range [{t_new[0]}, {t_new[-1]}] falls outside the "
            f"source span [{t_src[0]}, {t_src[-1]}]"
        )
    new_pos = _interp_rows(t_new, t_src, pos)
    new_vel = _interp_rows(t_new, t_src, vel)
    new_quat = _interp_quats(t_new, t_src, quat)
    return [
        TrajectoryPoint(float(t), NavState(p, v, q), "ok")
        for t, p, v, q in zip(t_new, new_pos, new_vel, new_quat)
    ]


def pair_trajectories(
    est: Sequence[TrajectoryPoint],
    gt: Sequence[TrajectoryPoint],
    skip_warmup: bool = True,
) -> AlignedPair:
    """Resample ground truth onto the estimate clock.

    Estimate samples flagged "warmup" are dropped (the estimator was still
    dead-reckoning), as are estimate timestamps outside the truth span.
    """
    est = [p for p in est if not (skip_warmup and p.flag == "warmup")]
    if not est:
        raise AlignmentError("no estimate samples left after dropping warmup rows")
    if len(gt) < 2:
        raise AlignmentError("ground truth needs at least two samples")
    t_gt = np.array([p.t for p in gt], dtype=float)
    est = [p for p in est if t_gt[0] - 1e-9 <= p.t <= t_gt[-1] + 1e-9]
    if not est:
        raise AlignmentError("estimate and ground truth do not overlap in time")
    t_est, est_pos, est_vel, est_quat = _stack(est)
    gt_on_est = resample_to(gt, t_est)
    _, gt_pos, gt_vel, gt_quat = _stack(gt_on_est)
    return AlignedPair(t_est, est_pos, est_vel, est_quat, gt_pos, gt_vel, gt_quat)


def _fit_yaw_translation(est_xy: np.ndarray, gt_xy: np.ndarray) -> tuple[float, np.ndarray]:
    est_c = est_xy.mean(axis=0)
    gt_c = gt_xy.mean(axis=0)
    a = est_xy - est_c
    b = gt_xy - gt_c
    spread = float(np.sqrt((a**2).sum(axis=1).mean()))
    if spread < 1e-6:
        raise AlignmentError(
            "alignment fixes are nearly coincident; need horizontal motion "
            f"(rms spread {spread:.2e} m)"
        )
    cross = float((a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]).sum())
    dot = float((a * b).sum())
    yaw = math.atan2(cross, dot)
    c, s = math.cos(yaw), math.sin(yaw)
    Rz = np.array([[c, -s], [s, c]])
    translation = gt_c - Rz @ est_c
    return yaw, translation


def align_trajectories(
    est: Sequence[TrajectoryPoint],
    gt: Sequence[TrajectoryPoint],
    n_fixes: int = 10,
) -> list[TrajectoryPoint]:
    """Yaw-and-translation align an estimate to truth.

    Fits a planar rotation plus 3-D translation by least squares over the
    first ``n_fixes`` common samples, then applies it to the whole estimate
    (positions, velocities, orientations).
    """
    pair = pair_trajectories(est, gt, skip_warmup=False)
    n = min(n_fixes, len(pair.t))
    if n < 2:
        raise AlignmentError("alignment needs at least two common samples")
    yaw, t_xy = _fit_yaw_translation(pair.est_position[:n, :2], pair.gt_position[:n, :2])
    dz = float((pair.gt_position[:n, 2] - pair.est_position[:n, 2]).mean())
    c, s = math.cos(yaw), math.sin(yaw)
    Rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    offset = np.array([t_xy[0], t_xy[1], dz])
    q_yaw = quat_from_yaw(yaw)
    out = []
    for p in est:
        nav = NavState(
            Rz @ p.nav.position + offset,
            Rz @ p.nav.velocity,
            quat_multiply(q_yaw, p.nav.orientation),
        )
        out.append(TrajectoryPoint(p.t, nav, p.flag))
    return out


def state_mae(pair: AlignedPair, lever_arm: float = DEFAULT_LEVER_ARM_M) -> dict:
    """Per-axis mean absolute errors.

    Returns arrays keyed "position" (m), "velocity" (m/s) and a scalar
    "orientation" (rad) plus its metre equivalent through the lever arm.
    """
    pos_err = np.abs(pair.est_position - pair.gt_position)
    vel_err = np.abs(pair.est_velocity - pair.gt_velocity)
    ang = np.array(
        [
            quat_angular_distance(qa, qb)
            for qa, qb in zip(pair.est_orientation, pair.gt_orientation)
        ]
    )
    return {
        "position": pos_err.mean(axis=0),
        "velocity": vel_err.mean(axis=0),
        "orientation": float(ang.mean()),
        "orientation_m": float(ang.mean()) * lever_arm,
    }


def total_error(maes) -> float:
    """Root mean square of per-axis MAEs: sqrt(mean(mae_i^2))."""
    maes = np.asarray(maes, dtype=float)
    if maes.size == 0:
        raise ValueError("total_error needs at least one per-axis MAE")
    return float(np.sqrt(np.mean(maes**2)))


def total_variance(errors, mae_variance: bool = False) -> float:
    """Spread of the signed per-axis errors.

    Default: pooled sample variance (ddof=1) of all per-axis error samples
    about their per-axis means.  With ``mae_variance=True``: the variance of
    the per-axis MAEs instead (a between-axis statistic).
    """
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    if mae_variance:
        maes = np.abs(errors).mean(axis=0)
        return float(np.var(maes, ddof=1)) if maes.size > 1 else 0.0
    centered = errors - errors.mean(axis=0, keepdims=True)
    n = centered.size
    if n < 2:
        return 0.0
    return float((centered**2).sum() / (n - 1))


def ate(pair: AlignedPair) -> tuple[float, np.ndarray]:
    """Absolute trajectory error: RMSE and per-sample series of |p_est - p_gt|."""
    series = np.linalg.norm(pair.est_position - pair.gt_position, axis=1)
    return float(np.sqrt(np.mean(series**2))), series


def rpe(pair: AlignedPair, delta: float = 1.0) -> tuple[float, np.ndarray]:
    """Relative pose error over a time horizon.

    For each sample k with a partner at t_k + delta, compares the estimated
    displacement against the true displacement; reports the RMSE and series.
    Invariant to a rigid translation of either trajectory.
    """
    if delta <= 0.0:
        raise ValueError("rpe delta must be positive")
    t = pair.t
    idx = np.searchsorted(t, t + delta - 1e-9)
    errs = []
    step = float(np.median(np.diff(t))) if len(t) > 1 else 0.0
    for k, j in enumerate(idx):
        if j >= len(t):
            continue
        if abs((t[j] - t[k]) - delta) > 0.5 * max(step, 1e-9):
            continue
        d_est = pair.est_position[j] - pair.est_position[k]
        d_gt = pair.gt_position[j] - pair.gt_position[k]
        errs.append(np.linalg.norm(d_est - d_gt))
    if not errs:
        raise AlignmentError(
            f"no sample pairs found at rpe horizon {delta} s; "
            "the trajectory may be shorter than the horizon"
        )
    series = np.asarray(errs)
    return float(np.sqrt(np.mean(series**2))), series


@dataclass(frozen=True)
class TrajectoryReport:
    """Summary statistics for one estimate against truth."""

    mae_position: np.ndarray
    mae_velocity: np.ndarray
    mae_orientation: float
    total_error: float
    total_variance: float
    ate_rmse: float
    rpe_rmse: float
    n_samples: int
    n_outliers: int
    lever_arm: float = DEFAULT_LEVER_ARM_M

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("mae_px_m", float(self.mae_position[0])),
            ("mae_py_m", float(self.mae_position[1])),
            ("mae_pz_m", float(self.mae_position[2])),
            ("mae_vx_mps", float(self.mae_velocity[0])),
            ("mae_vy_mps", float(self.mae_velocity[1])),
            ("mae_vz_mps", float(self.mae_velocity[2])),
            ("mae_att_rad", float(self.mae_orientation)),
            ("total_error_m", float(self.total_error)),
            ("total_variance_m2", float(self.total_variance)),
            ("ate_rmse_m", float(self.ate_rmse)),
            ("rpe_rmse_m", float(self.rpe_rmse)),
            ("n_samples", float(self.n_samples)),
            ("n_outliers", float(self.n_outliers)),
        ]


def evaluate_trajectories(
    est: Sequence[TrajectoryPoint],
    gt: Sequence[TrajectoryPoint],
    config: Optional[MetricsConfig] = None,
) -> TrajectoryReport:
    """Full evaluation pipeline: (optional) alignment, pairing, all metrics.

    Total error is the RMS of the per-axis position and velocity MAEs plus
    the lever-arm-scaled orientation MAE, one number over all estimated
    states; total variance pools the signed position errors.
    """
    config = config or MetricsConfig()
    est = list(est)
    if config.align:
        est = align_trajectories(est, gt, config.n_align_fixes)
    pair = pair_trajectories(est, gt)
    maes = state_mae(pair, config.lever_arm)
    if config.use_orientation:
        combined = np.concatenate(
            [maes["position"], maes["velocity"], [maes["orientation_m"]]]
        )
    else:
        combined = np.concatenate([maes["position"], maes["velocity"]])
        maes["orientation"] = float("nan")
    err_signed = pair.est_position - pair.gt_position
    ate_rmse, ate_series = ate(pair)
    try:
        rpe_rmse, _ = rpe(pair, config.rpe_delta)
    except AlignmentError:
        rpe_rmse = float("nan")
    sigma = float(ate_series.std())
    n_out = int((ate_series > ate_series.mean() + config.outlier_sigma * sigma).sum()) if sigma > 0 else 0
    return TrajectoryReport(
        mae_position=maes["position"],
        mae_velocity=maes["velocity"],
        mae_orientation=maes["orientation"],
        total_error=total_error(combined),
        total_variance=total_variance(err_signed, config.mae_variance),
        ate_rmse=ate_rmse,
        rpe_rmse=rpe_rmse,
        n_samples=len(pair.t),
        n_outliers=n_out,
        lever_arm=config.lever_arm,
    )


def write_report(path, report: TrajectoryReport) -> None:
    """Write a report as `key = value` lines (floats via repr for round-trip)."""
    lines = [f"{key} = {value!r}" for key, value in report.rows()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_error_series(path, pair: AlignedPair, rpe_delta: float = 1.0) -> None:
    """Write per-sample signed position errors plus ATE series as CSV."""
    err = pair.est_position - pair.gt_position
    ate_series = np.linalg.norm(err, axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,ex,ey,ez,ate\n")
        for k in range(len(pair.t)):
            row = [pair.t[k], err[k, 0], err[k, 1], err[k, 2], ate_series[k]]
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
