"""Sensor sample types, CSV stream I/O, and epoch synchronization.

Canonical CSV schemas (header row required, strictly increasing ``t``):

    imu.csv   t,ax,ay,az,gx,gy,gz     accel m/s^2, gyro rad/s, body frame
    dvl.csv   t,vx,vy,vz              velocity m/s, navigation frame
    ahrs.csv  t,qw,qx,qy,qz           unit quaternion, scalar first
    gt.csv    t,px,py,pz[,qw,qx,qy,qz]

Synchronization produces one epoch per DVL sample: the epoch carries the DVL
velocity, the nearest AHRS quaternion (within a tolerance), and the burst of
IMU samples since the previous epoch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, StreamOrderError, SyncGapError
from .preintegration import NavState
from .quat import quat_normalize, rotate_vector

__all__ = [
    "ImuSample",
    "DvlSample",
    "AhrsSample",
    "GroundTruthSample",
    "SyncedEpoch",
    "SCHEMAS",
    "load_stream",
    "save_stream",
    "synchronize",
    "dvl_body_to_nav",
    "initial_nav_from_epochs",
]

SCHEMAS = {
    "imu": ("t", "ax", "ay", "az", "gx", "gy", "gz"),
    "dvl": ("t", "vx", "vy", "vz"),
    "ahrs": ("t", "qw", "qx", "qy", "qz"),
    "gt": ("t", "px", "py", "pz", "qw", "qx", "qy", "qz"),
}


@dataclass(frozen=True)
class ImuSample:
    t: float
    accel: np.ndarray
    gyro: np.ndarray


@dataclass(frozen=True)
class DvlSample:
    t: float
    velocity: np.ndarray


@dataclass(frozen=True)
class AhrsSample:
    t: float
    orientation: np.ndarray


@dataclass(frozen=True)
class GroundTruthSample:
    t: float
    position: np.ndarray
    orientation: np.ndarray | None = None


@dataclass(frozen=True)
class SyncedEpoch:
    """One fused measurement epoch.

    ``imu_burst`` holds every IMU sample in ``(t_prev, t]``; ``t_prev`` is
    the previous epoch's timestamp (for the first epoch, one nominal IMU
    period before its first sample).
    """

    t: float
    t_prev: float
    imu_burst: tuple
    dvl: np.ndarray
    ahrs: np.ndarray


def _parse_floats(row, n_expected, line, path):
    if len(row) != n_expected:
        raise ParseError(f"expected {n_expected} columns, got {len(row)}", line=line, path=path)
    try:
        values = [float(v) for v in row]
    except ValueError as exc:
        raise ParseError(f"non-numeric value ({exc})", line=line, path=path) from None
    if not all(math.isfinite(v) for v in values):
        raise ParseError(f"non-finite value in row {row}", line=line, path=path)
    return values


def load_stream(path, kind: str):
    """Load a canonical CSV stream, validating schema and time ordering.

    AHRS quaternions are normalized and hemisphere sign-fixed against their
    predecessor.  Ground-truth files may carry 4 or 8 columns (orientation
    optional).  Raises ParseError / StreamOrderError with the offending line.
    """
    if kind not in SCHEMAS:
        raise ValueError(f"unknown stream kind {kind!r}; expected one of {sorted(SCHEMAS)}")
    path = Path(path)
    expected = SCHEMAS[kind]
    samples = []
    prev_t = None
    prev_quat = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1, path=path) from None
        header = tuple(h.strip() for h in header)
        if kind == "gt" and header == expected[:4]:
            expected = expected[:4]
        if header != expected:
            raise ParseError(
                f"header {','.join(header)!r} does not match schema {','.join(expected)!r}",
                line=1,
                path=path,
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            values = _parse_floats(row, len(expected), line_no, path)
            t = values[0]
            if prev_t is not None and t <= prev_t:
                raise StreamOrderError(
                    f"{path}: non-monotonic timestamp at t={t!r} (line {line_no})"
                )
            prev_t = t
            if kind == "imu":
                samples.append(ImuSample(t, np.array(values[1:4]), np.array(values[4:7])))
            elif kind == "dvl":
                samples.append(DvlSample(t, np.array(values[1:4])))
            elif kind == "ahrs":
                q = quat_normalize(np.array(values[1:5]))
                if prev_quat is not None and float(q @ prev_quat) < 0.0:
                    q = -q
                prev_quat = q
                samples.append(AhrsSample(t, q))
            else:  # gt
                q = None
                if len(expected) == 8:
                    q = quat_normalize(np.array(values[4:8]))
                    if prev_quat is not None and float(q @ prev_quat) < 0.0:
                        q = -q
                    prev_quat = q
                samples.append(GroundTruthSample(t, np.array(values[1:4]), q))
    return samples


def _format(x: float) -> str:
    return repr(float(x))


def save_stream(samples, path, kind: str) -> None:
    """Write samples back to the canonical CSV schema (round-trip safe)."""
    if kind not in SCHEMAS:
        raise ValueError(f"unknown stream kind {kind!r}")
    path = Path(path)
    expected = SCHEMAS[kind]
    if kind == "gt" and samples and samples[0].orientation is None:
        expected = expected[:4]
    rows = []
    for s in samples:
        if kind == "imu":
            rows.append([s.t, *s.accel, *s.gyro])
        elif kind == "dvl":
            rows.append([s.t, *s.velocity])
        elif kind == "ahrs":
            rows.append([s.t, *s.orientation])
        else:  # gt
            row = [s.t, *s.position]
            if len(expected) == 8:
                row += list(s.orientation)
            rows.append(row)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(expected)
        for row in rows:
            writer.writerow([_format(v) for v in row])


def _median_dt(times) -> float:
    if len(times) < 2:
        raise ValueError("need at least two samples to infer a rate")
    return float(np.median(np.diff(times)))


def _nearest_ahrs(dvl_t, ahrs_t, tolerance):
    """Pair each DVL time with the nearest AHRS sample.

    Returns the tolerance (as given, else half the median DVL period) and,
    per DVL time, the index into sorted ``ahrs_t`` of the nearest AHRS sample
    (the earlier one on a tie), or -1 when none lies within the tolerance.
    """
    if tolerance is None:
        tolerance = 0.5 * _median_dt(dvl_t) if len(dvl_t) >= 2 else 0.1
    tolerance = float(tolerance)
    j = np.searchsorted(ahrs_t, dvl_t)
    before = np.maximum(j - 1, 0)
    after = np.minimum(j, len(ahrs_t) - 1)
    d_before = np.abs(ahrs_t[before] - dvl_t)
    d_after = np.abs(ahrs_t[after] - dvl_t)
    nearest = np.where(d_after < d_before, after, before)
    nearest[np.minimum(d_before, d_after) > tolerance] = -1
    return tolerance, nearest


def synchronize(imu, dvl, ahrs, tolerance: float | None = None):
    """Fuse raw streams into a list of SyncedEpoch, one per covered DVL sample.

    Epochs are the DVL timestamps that fall inside the IMU coverage.  Each
    epoch takes the IMU samples since the previous epoch (the first epoch
    takes everything up to its timestamp) and the nearest AHRS sample within
    ``tolerance`` (default: half the median DVL period).  An empty IMU burst
    or an uncovered AHRS pairing raises SyncGapError naming the epoch.
    """
    if not imu or not dvl or not ahrs:
        raise ValueError("synchronize requires non-empty imu, dvl and ahrs streams")
    imu_t = np.array([s.t for s in imu])
    dvl_t = np.array([s.t for s in dvl])
    ahrs_t = np.array([s.t for s in ahrs])
    tolerance, nearest = _nearest_ahrs(dvl_t, ahrs_t, tolerance)
    if tolerance <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")

    imu_dt = _median_dt(imu_t) if len(imu_t) >= 2 else tolerance
    epochs = []
    prev_t = None
    burst_start_idx = 0
    for k, s in enumerate(dvl):
        if s.t < imu_t[0] or s.t > imu_t[-1]:
            continue
        hi = int(np.searchsorted(imu_t, s.t, side="right"))
        burst = tuple(imu[burst_start_idx:hi])
        if not burst:
            raise SyncGapError(f"no IMU samples cover the epoch at t={s.t!r}")
        j = nearest[k]
        if j < 0:
            raise SyncGapError(
                f"no AHRS sample within {tolerance} s of the epoch at t={s.t!r}"
            )
        t_prev = prev_t if prev_t is not None else burst[0].t - imu_dt
        epochs.append(
            SyncedEpoch(
                t=s.t,
                t_prev=t_prev,
                imu_burst=burst,
                dvl=np.asarray(s.velocity, dtype=float),
                ahrs=np.asarray(ahrs[j].orientation, dtype=float),
            )
        )
        prev_t = s.t
        burst_start_idx = hi
    if not epochs:
        raise SyncGapError("streams do not overlap: no DVL epoch is covered by IMU data")
    return epochs


def dvl_body_to_nav(dvl, ahrs, tolerance: float | None = None):
    """Rotate body-frame DVL velocities into the navigation frame.

    Each DVL sample is rotated by the time-nearest AHRS quaternion (within
    ``tolerance``, default half the median DVL period).
    """
    if not dvl or not ahrs:
        raise ValueError("dvl_body_to_nav requires non-empty dvl and ahrs streams")
    dvl_t = np.array([s.t for s in dvl])
    ahrs_t = np.array([s.t for s in ahrs])
    tolerance, nearest = _nearest_ahrs(dvl_t, ahrs_t, tolerance)
    out = []
    for s, j in zip(dvl, nearest):
        if j < 0:
            raise SyncGapError(f"no AHRS sample within {tolerance} s of DVL sample at t={s.t!r}")
        out.append(DvlSample(s.t, rotate_vector(ahrs[j].orientation, s.velocity)))
    return out


def initial_nav_from_epochs(epochs) -> NavState:
    """Default initial state: zero position, first DVL velocity, first AHRS attitude."""
    first = epochs[0]
    return NavState(np.zeros(3), first.dvl.copy(), first.ahrs.copy())
