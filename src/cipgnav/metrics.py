"""Trajectory accuracy metrics.

Estimates and ground truth arrive as TrajectoryPoint sequences on their own
clocks.  ``pair_trajectories`` stacks each into arrays once, interpolates
truth onto the estimate timestamps, optionally aligns the estimate to truth
with a yaw-plus-translation fit over the first few samples (``align_pair``)
and drops warmup rows; ``score_pair`` works on that pair's arrays alone and
reports:

* per-axis mean absolute error for position / velocity / orientation,
* a scalar total error (RMS of the per-axis MAEs) and total variance
  (pooled sample variance of the signed position errors),
* absolute trajectory error (ATE) and relative pose error (RPE).

Orientation errors are folded into metres through a lever arm so that all
summary numbers share units.  ATE, RPE and the alignment follow Zhang &
Scaramuzza, "A Tutorial on Quantitative Trajectory Evaluation for
Visual(-Inertial) Odometry", IROS 2018.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .errors import AlignmentError, _count, _one_of, _real
from .preintegration import NavState
from .quat import (
    hemisphere_align,
    ordered_matmul,
    quat_angular_distance,
    quat_from_yaw,
    quat_product,
    row_norms,
    unit_rows,
)
from .trajectory import TrajectoryPoint

__all__ = [
    "AlignedPair",
    "MetricsConfig",
    "TrajectoryReport",
    "truth_from_gt",
    "pair_trajectories",
    "align_pair",
    "state_mae",
    "total_error",
    "total_variance",
    "ate",
    "rpe",
    "score_pair",
    "evaluate_trajectories",
    "write_report",
    "write_error_series",
]

DEFAULT_LEVER_ARM_M = 1.0
OUTLIER_SIGMA = 5.0  # an ATE sample this many sigma above the mean is an outlier
_NO_ROWS = "no estimate samples left after dropping warmup rows"
_NO_OVERLAP = "estimate and ground truth do not overlap in time"


@dataclass(frozen=True)
class MetricsConfig:
    """Evaluation knobs.

    ``n_align_fixes`` (an integer >= 2) is the yaw+translation alignment window
    used when ``align`` is set; ``rpe_delta`` (finite, > 0) is the RPE horizon in
    seconds; ``lever_arm`` (finite, >= 0) converts orientation error (radians)
    to metres.  A bad value raises SpecError naming the field (see ``errors``).
    """

    n_align_fixes: int = 10
    align: bool = False
    rpe_delta: float = 1.0
    lever_arm: float = DEFAULT_LEVER_ARM_M
    use_orientation: bool = True

    def __post_init__(self):
        vars(self).update(n_align_fixes=_count("n_align_fixes", self.n_align_fixes, 2),
                          rpe_delta=_real("rpe_delta", self.rpe_delta, "positive"),
                          lever_arm=_real("lever_arm", self.lever_arm, ">= 0"))
        for name in ("align", "use_orientation"):
            _one_of(name, getattr(self, name), (False, True))


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

    Velocities are finite differences of the positions (``np.gradient``): each
    inner row the three-point difference of its two neighbours, exact on a
    quadratic path over an uneven clock, and the first and last rows the
    one-sided first difference to their one neighbour.  Returns the
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


def _unit_twice(rows) -> np.ndarray:
    """Quaternion rows normalized twice, the rows every report value is defined on.
    Normalizing is not idempotent in the last bit, so the count of passes matters."""
    return unit_rows(unit_rows(rows)[0])[0]


def pair_trajectories(
    est: Sequence[TrajectoryPoint],
    gt: Sequence[TrajectoryPoint],
    config: Optional[MetricsConfig] = None,
) -> AlignedPair:
    """Stack both trajectories and put truth on the estimate clock, once.

    Truth is interpolated linearly onto the estimate timestamps inside its span
    (estimate rows outside it are dropped); its quaternions are sign-aligned, lerped
    and renormalized.  With ``config.align`` the estimate is aligned to truth by
    ``align_pair`` over its first ``config.n_align_fixes`` rows, warmup rows
    included.  Last, rows flagged "warmup" (the estimator was still dead-reckoning)
    are dropped.
    """
    config = config or MetricsConfig()
    est = list(est)
    warmup = np.array([p.flag == "warmup" for p in est], dtype=bool)
    if not est or (warmup.all() and not config.align):
        raise AlignmentError(_NO_ROWS)
    if len(gt) < 2:
        raise AlignmentError("ground truth needs at least two samples")
    t_gt, gt_pos, gt_vel, gt_quat = _stack(gt)
    t, pos, vel, quat = _stack(est)
    span = (t_gt[0] - 1e-9 <= t) & (t <= t_gt[-1] + 1e-9)
    if not span.any():
        raise AlignmentError(_NO_OVERLAP)
    t = t[span]
    columns = np.hstack([gt_pos, gt_vel, hemisphere_align(gt_quat)]).T
    lerped = np.column_stack([np.interp(t, t_gt, column) for column in columns])
    pair = AlignedPair(t, pos[span], vel[span], quat[span], lerped[:, :3], lerped[:, 3:6],
                       _unit_twice(lerped[:, 6:]))
    if config.align:
        pair = align_pair(pair, config.n_align_fixes)
    scored = ~warmup[span]
    if not scored.any():
        raise AlignmentError(_NO_ROWS if warmup.all() else _NO_OVERLAP)
    return AlignedPair(*(getattr(pair, f.name)[scored] for f in fields(AlignedPair)))


def align_pair(pair: AlignedPair, n_fixes: int = 10) -> AlignedPair:
    """Yaw-and-translation align the estimate of a pair to its truth.

    Fits a planar rotation plus 3-D translation by least squares over the first
    ``n_fixes`` rows, then applies it to every estimate row (positions,
    velocities, orientations).
    """
    n = min(n_fixes, len(pair.t))
    if n < 2:
        raise AlignmentError("alignment needs at least two common samples")
    est_xy, gt_xy = pair.est_position[:n, :2], pair.gt_position[:n, :2]
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
    dz = float((pair.gt_position[:n, 2] - pair.est_position[:n, 2]).mean())
    offset = np.append(gt_c - ordered_matmul([[c, -s], [s, c]], est_c[:, None])[:, 0], dz)
    Rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return replace(
        pair,
        est_position=ordered_matmul(Rz, pair.est_position[:, :, None])[:, :, 0] + offset,
        est_velocity=ordered_matmul(Rz, pair.est_velocity[:, :, None])[:, :, 0],
        est_orientation=_unit_twice(quat_product(quat_from_yaw(yaw), pair.est_orientation)),
    )


def state_mae(pair: AlignedPair, lever_arm: float = DEFAULT_LEVER_ARM_M) -> dict:
    """Per-axis mean absolute errors.

    Returns arrays keyed "position" (m), "velocity" (m/s) and a scalar
    "orientation" (rad) plus its metre equivalent through the lever arm.
    """
    pos_err = np.abs(pair.est_position - pair.gt_position)
    vel_err = np.abs(pair.est_velocity - pair.gt_velocity)
    ang = quat_angular_distance(pair.est_orientation, pair.gt_orientation)
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


def total_variance(errors) -> float:
    """Spread of the signed per-axis errors: the pooled sample variance (ddof=1)
    of all per-axis error samples about their per-axis means."""
    errors = np.atleast_2d(np.asarray(errors, dtype=float))
    centered = errors - errors.mean(axis=0, keepdims=True)
    n = centered.size
    if n < 2:
        return 0.0
    return float((centered**2).sum() / (n - 1))


def ate(pair: AlignedPair) -> tuple[float, np.ndarray]:
    """Absolute trajectory error: RMSE and per-sample series of |p_est - p_gt|."""
    series = row_norms(pair.est_position - pair.gt_position)
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
    step = float(np.median(np.diff(t))) if len(t) > 1 else 0.0
    k = np.flatnonzero(idx < len(t))
    j = idx[k]
    on_horizon = np.abs((t[j] - t[k]) - delta) <= 0.5 * max(step, 1e-9)
    k, j = k[on_horizon], j[on_horizon]
    if not len(k):
        raise AlignmentError(
            f"no sample pairs found at rpe horizon {delta} s; "
            "the trajectory may be shorter than the horizon"
        )
    est, gt = pair.est_position, pair.gt_position
    series = row_norms((est[j] - est[k]) - (gt[j] - gt[k]))
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


def score_pair(pair: AlignedPair, config: Optional[MetricsConfig] = None) -> TrajectoryReport:
    """All metrics of a pair made by ``pair_trajectories``.

    Total error is the RMS of the per-axis position and velocity MAEs plus
    the lever-arm-scaled orientation MAE, one number over all estimated
    states; total variance pools the signed position errors.
    """
    config = config or MetricsConfig()
    maes = state_mae(pair, config.lever_arm)
    orientation = [maes["orientation_m"]] if config.use_orientation else []
    combined = np.concatenate([maes["position"], maes["velocity"], orientation])
    ate_rmse, ate_series = ate(pair)
    try:
        rpe_rmse, _ = rpe(pair, config.rpe_delta)
    except AlignmentError:
        rpe_rmse = float("nan")
    sigma = float(ate_series.std())
    n_out = int((ate_series > ate_series.mean() + OUTLIER_SIGMA * sigma).sum()) if sigma > 0 else 0
    return TrajectoryReport(
        mae_position=maes["position"],
        mae_velocity=maes["velocity"],
        mae_orientation=maes["orientation"] if config.use_orientation else float("nan"),
        total_error=total_error(combined),
        total_variance=total_variance(pair.est_position - pair.gt_position),
        ate_rmse=ate_rmse,
        rpe_rmse=rpe_rmse,
        n_samples=len(pair.t),
        n_outliers=n_out,
    )


def evaluate_trajectories(
    est: Sequence[TrajectoryPoint],
    gt: Sequence[TrajectoryPoint],
    config: Optional[MetricsConfig] = None,
) -> TrajectoryReport:
    """Full evaluation pipeline: one pairing (with alignment if configured), all metrics."""
    return score_pair(pair_trajectories(est, gt, config), config)


def write_report(path, report: TrajectoryReport) -> None:
    """Write a report as `key = value` lines (floats via repr for round-trip)."""
    lines = [f"{key} = {value!r}" for key, value in report.rows()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_error_series(path, pair: AlignedPair) -> None:
    """Write per-sample signed position errors plus ATE series as CSV."""
    err = pair.est_position - pair.gt_position
    rows = np.column_stack([pair.t, err, row_norms(err)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,ex,ey,ez,ate\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())
