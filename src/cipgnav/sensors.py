"""Sensor streams, CSV stream I/O, and epoch synchronization.

Canonical CSV schemas (header row required, strictly increasing ``t``):

    imu.csv   t,ax,ay,az,gx,gy,gz     accel m/s^2, gyro rad/s, body frame
    dvl.csv   t,vx,vy,vz              velocity m/s, navigation frame
    ahrs.csv  t,qw,qx,qy,qz           unit quaternion, scalar first
    gt.csv    t,px,py,pz[,qw,qx,qy,qz]

The trajectory CSV of ``trajectory.py`` is read and written by the same
``load_csv`` and ``write_csv``, with the same checks and errors.

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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DegenerateQuaternionError, ParseError, StreamOrderError, SyncGapError
from .preintegration import NavState
from .quat import _NORM_EPS, _norm, hemisphere_align, quat_normalize, rotate_vector, row_norms

__all__ = [
    "GroundTruthSample",
    "SyncedEpoch",
    "SCHEMAS",
    "load_csv",
    "write_csv",
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
TRAJECTORY_COLUMNS = ("t", "px", "py", "pz", "vx", "vy", "vz", "qw", "qx", "qy", "qz", "flag")
FLAGS = ("ok", "warmup", "fallback")
_QUAT_COLUMNS = ("qw", "qx", "qy", "qz")


class _CsvFormat(NamedTuple):
    columns: tuple
    flags: tuple = ()  # the values of a last, text column, in memory as their index
    short: int = 0  # the width of a shorter header also accepted
    align: bool = True  # hemisphere-align quaternions: readings are, estimates are not
    unit_tol: float = 0.0  # a quaternion whose norm is within this of 1 is kept as read


_FORMATS = {
    "imu": _CsvFormat(SCHEMAS["imu"]),
    "dvl": _CsvFormat(SCHEMAS["dvl"]),
    "ahrs": _CsvFormat(SCHEMAS["ahrs"]),
    "gt": _CsvFormat(SCHEMAS["gt"], short=4),  # orientation optional
    # An estimator's unit quaternion reads back as written, bit for bit.
    "trajectory": _CsvFormat(TRAJECTORY_COLUMNS, flags=FLAGS, align=False, unit_tol=1e-12),
}


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


# A byte that is not UTF-8 reads as a lone surrogate: a field holding one is not a
# number, nor a header name, so it is refused or dropped as such, with its line.
_TEXT = {"encoding": "utf-8", "errors": "surrogateescape"}


@contextmanager
def open_csv(path, **reader_args):
    """Open ``path`` as UTF-8 text (see ``_TEXT``) and yield ``csv.reader(fh, **reader_args)``.

    A csv.Error in the block, such as a field over csv's size limit, is
    raised as a ParseError naming the path and the reader's line.
    """
    with open(path, newline="", **_TEXT) as fh:
        reader = csv.reader(fh, **reader_args)
        try:
            yield reader
        except csv.Error as exc:
            raise ParseError(f"malformed CSV ({exc})", line=reader.line_num, path=path) from None


def _parse_row(row, width, flags, line, path):
    """A row's numbers, then, in a format with a flag column, its flag's index in ``flags``."""
    if len(row) != width:
        raise ParseError(f"expected {width} columns, got {len(row)}", line=line, path=path)
    try:
        values = list(map(float, row[:-1] if flags else row))
    except ValueError as exc:
        raise ParseError(f"non-numeric value ({exc})", line=line, path=path) from None
    if not all(map(math.isfinite, values)):
        raise ParseError(f"non-finite value in row {row}", line=line, path=path)
    if flags and row[-1].strip() not in flags:
        raise ParseError(f"unknown flag {row[-1].strip()!r}; expected one of {flags}",
                         line=line, path=path)
    return values + [float(flags.index(row[-1].strip()))] if flags else values


def _read_header(reader, fmt, path):
    """Check a CSV's header row; returns its width and its quaternion's columns (or None)."""
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file", line=1, path=path) from None
    header = tuple(h.strip() for h in header)
    expected = header if fmt.short and header == fmt.columns[:fmt.short] else fmt.columns
    if header != expected:
        raise ParseError(f"header {','.join(header)!r} does not match schema "
                         f"{','.join(expected)!r}", line=1, path=path)
    n = len(expected) - bool(fmt.flags)  # a quaternion takes the last four numeric columns
    return len(expected), slice(n - 4, n) if expected[n - 4:n] == _QUAT_COLUMNS else None


def _unit_quaternions(q, norms, fmt):
    """Quaternion rows (n, 4) of norms ``norms``, each over its norm unless within
    ``fmt.unit_tol`` of unit norm, then hemisphere-aligned if ``fmt.align``."""
    q = np.where(np.abs(norms - 1.0)[:, None] <= fmt.unit_tol, q, q / norms[:, None])
    return hemisphere_align(q) if fmt.align else q


def _load_bulk(path, kind):
    """Parse a well-formed CSV with one ``np.loadtxt`` call, or return None.

    Returns what ``_load_rows`` returns, bit for bit, or None for any body
    other than finite rows of the header's width with strictly increasing
    ``t``, known flags and quaternions of norm above ``_NORM_EPS``: such a
    file is left to ``_load_rows``, which names the offending line.
    ``loadtxt`` refuses quoted fields, ``1_000``, non-ASCII digits and spaced
    flags, which ``_load_rows`` accepts, and alone accepts a numeric field
    longer than csv's field size limit (131,072 characters).
    """
    fmt = _FORMATS[kind]
    with open(path, newline="", **_TEXT) as fh:
        try:
            width, quat = _read_header(csv.reader(fh), fmt, path)
        except csv.Error:
            return None  # _load_rows names the line
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a body with no rows only warns
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float,
                                  converters={width - 1: fmt.flags.index} if fmt.flags else None)
        except (ValueError, UserWarning):  # also an unknown flag
            return None
    if (data.shape[1] != width or not np.isfinite(data).all()
            or not (np.diff(data[:, 0]) > 0.0).all()):
        return None
    if quat is not None:
        q = data[:, quat]
        # A component of 1e154 or more overflows the norm to inf, which _load_rows refuses.
        with np.errstate(over="ignore"):
            norms = row_norms(q)
        if not ((norms > _NORM_EPS) & np.isfinite(norms)).all():
            return None
        data[:, quat] = _unit_quaternions(q, norms, fmt)
    return data


def _load_rows(path, kind):
    """Parse a CSV one row at a time: the definition of what ``load_csv`` accepts."""
    fmt = _FORMATS[kind]
    rows = []
    prev_t = None
    with open_csv(path) as reader:
        width, quat = _read_header(reader, fmt, path)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            values = _parse_row(row, width, fmt.flags, line_no, path)
            t = values[0]
            if prev_t is not None and t <= prev_t:
                raise StreamOrderError(f"{path}: non-monotonic timestamp at t={t!r} "
                                       f"(line {line_no})")
            prev_t = t
            if quat is not None:
                if _norm(values[quat]) == math.inf:  # a component of 1e154 or more
                    raise ParseError(f"quaternion {values[quat]} has a norm too large to "
                                     "normalize", line=line_no, path=path)
                try:
                    quat_normalize(values[quat])  # raises on a norm it cannot divide by
                except DegenerateQuaternionError as exc:
                    raise ParseError(str(exc), line=line_no, path=path) from None
            rows.append(values)
    data = np.array(rows, dtype=float).reshape(len(rows), width)
    if quat is not None and rows:
        data[:, quat] = _unit_quaternions(data[:, quat], row_norms(data[:, quat]), fmt)
    return data


def load_csv(path, kind: str) -> np.ndarray:
    """Load a canonical CSV, a ``SCHEMAS`` kind or ``"trajectory"``, as a float array
    with the header's columns, a flag as its index in FLAGS, and quaternions
    normalized and, except in a trajectory, hemisphere-aligned.  A trajectory's
    quaternion within 1e-12 of unit norm is kept as read, so what
    ``write_csv`` wrote reads back bit for bit.  Raises
    ParseError (on a quaternion of zero or overflowing norm and an unknown flag
    too) / StreamOrderError with the offending line.  A well-formed file is
    parsed in one ``np.loadtxt`` call, any other by the per-row parser."""
    path = Path(path)
    data = _load_bulk(path, kind)
    return _load_rows(path, kind) if data is None else data


def write_csv(rows, path, kind: str, columns=None) -> None:
    """Write float ``rows`` under the header ``columns`` (the kind's by default), each
    number as its ``repr`` and a flag column's entry, an index into FLAGS, as the flag."""
    fmt = _FORMATS[kind]
    columns = columns or fmt.columns
    n = len(columns) - bool(fmt.flags)
    table = np.reshape(np.asarray(rows, dtype=float), (len(rows), len(columns)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        # Row by row, so that the table is never held as Python floats.
        writer.writerows([*map(repr, row[:n]), *(fmt.flags[int(f)] for f in row[n:])]
                         for row in map(np.ndarray.tolist, table))


def load_stream(path, kind: str):
    """Load a canonical CSV stream with ``load_csv``: IMU, DVL and AHRS streams as
    arrays with the columns of ``SCHEMAS[kind]``, ground truth as a list of
    GroundTruthSample from 4 or 8 columns (orientation optional)."""
    if kind not in SCHEMAS:
        raise ValueError(f"unknown stream kind {kind!r}; expected one of {sorted(SCHEMAS)}")
    data = load_csv(path, kind)
    if kind != "gt":
        return data
    quats = data[:, 4:] if data.shape[1] == 8 else [None] * len(data)
    return [GroundTruthSample(t, p, q)
            for t, p, q in zip(data[:, 0].tolist(), data[:, 1:4], quats)]


def save_stream(samples, path, kind: str) -> None:
    """Write a stream back to the canonical CSV schema (round-trip safe)."""
    if kind not in SCHEMAS:
        raise ValueError(f"unknown stream kind {kind!r}")
    columns = SCHEMAS[kind]
    if kind == "gt":
        if samples and samples[0].orientation is None:
            columns = columns[:4]
        samples = [[s.t, *s.position, *(s.orientation if len(columns) == 8 else ())]
                   for s in samples]
    write_csv(samples, path, kind, columns)


def _median_dt(times) -> float:
    if len(times) < 2:
        raise ValueError("need at least two samples to infer a rate")
    return float(np.median(np.diff(times)))


def _check_order(**streams):
    """Raise StreamOrderError naming the stream, row and ``t`` of the first row whose
    ``t`` is not above the previous row's, in each named array."""
    for name, stream in streams.items():
        bad = np.flatnonzero(~(stream[1:, 0] > stream[:-1, 0]))
        if bad.size:
            k = int(bad[0]) + 1
            prev, t = stream[k - 1:k + 1, 0].tolist()
            raise StreamOrderError(
                f"{name} t does not increase at row {k}: t={t!r} after t={prev!r}")


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
    epoch, and a ``t`` that does not strictly increase StreamOrderError.
    """
    if not len(imu) or not len(dvl) or not len(ahrs):
        raise ValueError("synchronize requires non-empty imu, dvl and ahrs streams")
    _check_order(imu=imu, dvl=dvl, ahrs=ahrs)
    imu_t = imu[:, 0]
    tolerance, nearest = _nearest_ahrs(dvl[:, 0], ahrs[:, 0])

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
    the median DVL period, 0.1 s for a single DVL sample).  A ``t`` that does not
    strictly increase raises StreamOrderError.
    """
    if not len(dvl) or not len(ahrs):
        raise ValueError("dvl_body_to_nav requires non-empty dvl and ahrs streams")
    _check_order(dvl=dvl, ahrs=ahrs)
    tolerance, nearest = _nearest_ahrs(dvl[:, 0], ahrs[:, 0])
    missing = np.flatnonzero(nearest < 0)
    if missing.size:
        t = float(dvl[missing[0], 0])
        raise SyncGapError(f"no AHRS sample within {tolerance} s of DVL sample at t={t!r}")
    out = np.array(dvl, dtype=float)
    out[:, 1:] = rotate_vector(ahrs[nearest, 1:], out[:, 1:])
    return out


def initial_nav_from_epochs(epochs) -> NavState:
    """Default initial state: zero position, first DVL velocity, first AHRS attitude."""
    first = epochs[0]
    return NavState(np.zeros(3), first.dvl.copy(), first.ahrs.copy())
