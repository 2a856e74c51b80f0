"""Estimated-trajectory rows and their CSV serialization.

Schema: ``t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,flag`` with flag in
{ok, warmup, fallback}.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateQuaternionError, ParseError, StreamOrderError
from .preintegration import NavState
from .sensors import open_csv

__all__ = ["TRAJECTORY_COLUMNS", "FLAGS", "TrajectoryPoint", "write_trajectory", "read_trajectory"]

TRAJECTORY_COLUMNS = ("t", "px", "py", "pz", "vx", "vy", "vz", "qw", "qx", "qy", "qz", "flag")
FLAGS = ("ok", "warmup", "fallback")


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    nav: NavState
    flag: str = "ok"

    def __post_init__(self):
        if self.flag not in FLAGS:
            raise ValueError(f"unknown trajectory flag {self.flag!r}; expected one of {FLAGS}")


def write_trajectory(points, path) -> None:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for p in points:
            row = [p.t, *p.nav.position, *p.nav.velocity, *p.nav.orientation]
            writer.writerow([repr(float(v)) for v in row] + [p.flag])


def read_trajectory(path):
    """Load a trajectory CSV written by ``write_trajectory``.

    Raises ParseError naming the line on a non-finite value, a quaternion
    of zero or overflowing norm or an unknown flag, and StreamOrderError on
    a timestamp that does not increase.
    """
    path = Path(path)
    points = []
    prev_t = None
    # An overflowing quaternion norm is refused below, so numpy need not warn of it.
    with open_csv(path) as reader, np.errstate(over="ignore"):
        try:
            header = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise ParseError("empty trajectory file", line=1, path=path) from None
        if header != TRAJECTORY_COLUMNS:
            raise ParseError(
                f"header {','.join(header)!r} does not match trajectory schema",
                line=1,
                path=path,
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(TRAJECTORY_COLUMNS):
                raise ParseError(
                    f"expected {len(TRAJECTORY_COLUMNS)} columns, got {len(row)}",
                    line=line_no,
                    path=path,
                )
            try:
                values = [float(v) for v in row[:-1]]
            except ValueError as exc:
                raise ParseError(f"non-numeric value ({exc})", line=line_no, path=path) from None
            if not all(map(math.isfinite, values)):
                raise ParseError("non-finite value", line=line_no, path=path)
            flag = row[-1].strip()
            if flag not in FLAGS:
                raise ParseError(f"unknown trajectory flag {flag!r}; expected one of {FLAGS}",
                                 line=line_no, path=path)
            t = values[0]
            if prev_t is not None and t <= prev_t:
                raise StreamOrderError(f"{path}: non-monotonic timestamp at t={t!r} (line {line_no})")
            prev_t = t
            try:
                nav = NavState(np.array(values[1:4]), np.array(values[4:7]),
                               np.array(values[7:11]))
            except DegenerateQuaternionError as exc:
                raise ParseError(str(exc), line=line_no, path=path) from None
            points.append(TrajectoryPoint(t, nav, flag))
    return points
