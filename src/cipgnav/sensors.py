"""Sensor streams, CSV stream I/O, and epoch synchronization.

Canonical CSV schemas (header row required, strictly increasing ``t``):

    imu.csv   t,ax,ay,az,gx,gy,gz     accel m/s^2, gyro rad/s, body frame
    dvl.csv   t,vx,vy,vz              velocity m/s, navigation frame
    ahrs.csv  t,qw,qx,qy,qz           unit quaternion, scalar first
    gt.csv    t,px,py,pz[,qw,qx,qy,qz]

In memory the IMU, DVL and AHRS streams are float arrays with one row per
sample and the columns of ``SCHEMAS[kind]``: (n, 7), (n, 4) and (n, 5).
Ground truth, whose orientation is optional, is a list of GroundTruthSample.

Synchronization produces one epoch per DVL sample: the epoch carries the DVL
velocity, the nearest AHRS quaternion (within a tolerance), and the burst of
IMU rows since the previous epoch.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateQuaternionError, ParseError, StreamOrderError, SyncGapError
from .preintegration import NavState
from .quat import _NORM_EPS, hemisphere_align, quat_normalize, rotate_vector

__all__ = [
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
_QUAT_COLUMNS = ("qw", "qx", "qy", "qz")


@dataclass(frozen=True)
class GroundTruthSample:
    t: float
    position: np.ndarray
    orientation: np.ndarray | None = None


@dataclass(frozen=True)
class SyncedEpoch:
    """One fused measurement epoch.

    ``imu_burst`` holds the IMU rows (columns of ``SCHEMAS["imu"]``) in
    ``(t_prev, t]``; ``t_prev`` is the previous epoch's timestamp (for the
    first epoch, one nominal IMU period before its first sample).
    """

    t: float
    t_prev: float
    imu_burst: np.ndarray
    dvl: np.ndarray
    ahrs: np.ndarray


def _parse_floats(row, n_expected, line, path):
    if len(row) != n_expected:
        raise ParseError(f"expected {n_expected} columns, got {len(row)}", line=line, path=path)
    try:
        values = list(map(float, row))
    except ValueError as exc:
        raise ParseError(f"non-numeric value ({exc})", line=line, path=path) from None
    if not all(map(math.isfinite, values)):
        raise ParseError(f"non-finite value in row {row}", line=line, path=path)
    return values


def _read_header(reader, kind, path):
    """Check a stream's header row; returns the columns it names."""
    expected = SCHEMAS[kind]
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
    return expected


def _load_bulk(path, kind):
    """Parse a well-formed stream with one ``np.loadtxt`` call, or return None.

    Returns the same array as ``_load_rows``, or None when the body is
    anything other than finite rows of the schema's width with strictly
    increasing ``t`` and quaternions of norm above ``_NORM_EPS``: such a file
    goes to ``_load_rows``, which decides whether it is accepted and names
    the offending line.  ``loadtxt`` takes no quoted fields, no ``1_000`` and
    no non-ASCII digits, which ``float()`` accepts; on every value both
    accept, they agree bit for bit.
    """
    with open(path, newline="") as fh:
        expected = _read_header(csv.reader(fh), kind, path)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a body with no rows only warns
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
        except (ValueError, UserWarning):
            return None
    if (data.shape[1] != len(expected) or not np.isfinite(data).all()
            or not (np.diff(data[:, 0]) > 0.0).all()):
        return None
    if expected[-4:] == _QUAT_COLUMNS:
        q = np.ascontiguousarray(data[:, -4:])
        # (1, 4) @ (4, 1) is the dot product quat_normalize takes per row, bit for bit.
        norms = np.sqrt((q[:, None, :] @ q[:, :, None])[:, 0, 0])
        if not (norms > _NORM_EPS).all():
            return None
        data[:, -4:] = hemisphere_align(q / norms[:, None])
    return data


def _load_rows(path, kind):
    """Parse a stream one row at a time: the definition of what ``load_stream`` accepts.

    Raises ParseError (on a zero quaternion too) / StreamOrderError with the
    offending line.
    """
    rows, unit_quats = [], []
    prev_t = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        expected = _read_header(reader, kind, path)
        has_quat = expected[-4:] == _QUAT_COLUMNS
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
            if has_quat:
                try:
                    unit_quats.append(quat_normalize(values[-4:]))
                except DegenerateQuaternionError as exc:
                    raise ParseError(str(exc), line=line_no, path=path) from None
            rows.append(values)
    data = np.array(rows, dtype=float).reshape(len(rows), len(expected))
    if has_quat and rows:
        data[:, -4:] = hemisphere_align(unit_quats)
    return data


def load_stream(path, kind: str):
    """Load a canonical CSV stream, validating schema and time ordering.

    IMU, DVL and AHRS streams load as arrays with the columns of
    ``SCHEMAS[kind]``; ground truth loads as a list of GroundTruthSample, from
    4 or 8 columns (orientation optional).  Quaternions are normalized and
    hemisphere sign-fixed against their predecessor.  Raises ParseError (on
    a zero quaternion too) / StreamOrderError with the offending line.

    A well-formed file is parsed in one ``np.loadtxt`` call; any other goes
    through the per-row parser, which gives the same arrays and defines the
    errors.
    """
    if kind not in SCHEMAS:
        raise ValueError(f"unknown stream kind {kind!r}; expected one of {sorted(SCHEMAS)}")
    path = Path(path)
    data = _load_bulk(path, kind)
    if data is None:
        data = _load_rows(path, kind)
    if kind != "gt":
        return data
    quats = data[:, 4:] if data.shape[1] == 8 else [None] * len(data)
    return [GroundTruthSample(t, p, q)
            for t, p, q in zip(data[:, 0].tolist(), data[:, 1:4], quats)]


def save_stream(samples, path, kind: str) -> None:
    """Write a stream back to the canonical CSV schema (round-trip safe)."""
    if kind not in SCHEMAS:
        raise ValueError(f"unknown stream kind {kind!r}")
    path = Path(path)
    expected = SCHEMAS[kind]
    rows = samples
    if kind == "gt":
        if samples and samples[0].orientation is None:
            expected = expected[:4]
        rows = [[s.t, *s.position, *(s.orientation if len(expected) == 8 else ())]
                for s in samples]
    table = np.reshape(np.asarray(rows, dtype=float), (len(rows), len(expected))).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(expected)
        writer.writerows([repr(v) for v in row] for row in table)


def _median_dt(times) -> float:
    if len(times) < 2:
        raise ValueError("need at least two samples to infer a rate")
    return float(np.median(np.diff(times)))


def _nearest_ahrs(dvl_t, ahrs_t):
    """Pair each DVL time with the nearest AHRS sample.

    Returns the tolerance (half the median DVL period, or 0.1 s for a single
    DVL sample) and, per DVL time, the index into sorted ``ahrs_t`` of the
    nearest AHRS sample (the earlier one on a tie), or -1 when none lies
    within the tolerance.
    """
    tolerance = 0.5 * _median_dt(dvl_t) if len(dvl_t) >= 2 else 0.1
    j = np.searchsorted(ahrs_t, dvl_t)
    before = np.maximum(j - 1, 0)
    after = np.minimum(j, len(ahrs_t) - 1)
    d_before = np.abs(ahrs_t[before] - dvl_t)
    d_after = np.abs(ahrs_t[after] - dvl_t)
    nearest = np.where(d_after < d_before, after, before)
    nearest[np.minimum(d_before, d_after) > tolerance] = -1
    return tolerance, nearest


def synchronize(imu, dvl, ahrs):
    """Fuse raw stream arrays into a list of SyncedEpoch, one per covered DVL sample.

    Epochs are the DVL timestamps that fall inside the IMU coverage.  Each
    epoch takes the IMU rows since the previous epoch (the first epoch takes
    everything up to its timestamp) and the nearest AHRS sample within half
    the median DVL period (0.1 s for a single DVL sample).  An empty IMU burst
    or an uncovered AHRS pairing raises SyncGapError naming the first such
    epoch.
    """
    if not len(imu) or not len(dvl) or not len(ahrs):
        raise ValueError("synchronize requires non-empty imu, dvl and ahrs streams")
    imu_t = imu[:, 0]
    tolerance, nearest = _nearest_ahrs(dvl[:, 0], ahrs[:, 0])
    if tolerance <= 0.0:  # DVL times that do not increase
        raise ValueError(f"tolerance must be positive, got {tolerance}")

    imu_dt = _median_dt(imu_t) if len(imu_t) >= 2 else tolerance
    covered = np.flatnonzero((dvl[:, 0] >= imu_t[0]) & (dvl[:, 0] <= imu_t[-1]))
    if not covered.size:
        raise SyncGapError("streams do not overlap: no DVL epoch is covered by IMU data")
    ts = dvl[covered, 0].tolist()
    his = np.searchsorted(imu_t, ts, side="right")
    los = np.concatenate(([0], his[:-1]))
    ahrs_idx = nearest[covered]
    gaps = np.flatnonzero((his == los) | (ahrs_idx < 0))
    if gaps.size:
        k = gaps[0]
        if his[k] == los[k]:
            raise SyncGapError(f"no IMU samples cover the epoch at t={ts[k]!r}")
        raise SyncGapError(f"no AHRS sample within {tolerance} s of the epoch at t={ts[k]!r}")
    t_prevs = [float(imu_t[0]) - imu_dt] + ts[:-1]
    velocities = dvl[covered, 1:]
    attitudes = ahrs[ahrs_idx, 1:]
    return [
        SyncedEpoch(t, t_prev, imu[lo:hi], v, q)
        for t, t_prev, lo, hi, v, q in zip(ts, t_prevs, los.tolist(), his.tolist(),
                                           velocities, attitudes)
    ]


def dvl_body_to_nav(dvl, ahrs):
    """Rotate a body-frame DVL array into the navigation frame.

    Each DVL row is rotated by the time-nearest AHRS quaternion (within half
    the median DVL period, 0.1 s for a single DVL sample).
    """
    if not len(dvl) or not len(ahrs):
        raise ValueError("dvl_body_to_nav requires non-empty dvl and ahrs streams")
    tolerance, nearest = _nearest_ahrs(dvl[:, 0], ahrs[:, 0])
    missing = np.flatnonzero(nearest < 0)
    if missing.size:
        t = float(dvl[missing[0], 0])
        raise SyncGapError(f"no AHRS sample within {tolerance} s of DVL sample at t={t!r}")
    out = np.array(dvl, dtype=float)
    for row, q in zip(out, ahrs[nearest, 1:]):
        row[1:] = rotate_vector(q, row[1:])
    return out


def initial_nav_from_epochs(epochs) -> NavState:
    """Default initial state: zero position, first DVL velocity, first AHRS attitude."""
    first = epochs[0]
    return NavState(np.zeros(3), first.dvl.copy(), first.ahrs.copy())
