"""Estimated-trajectory rows and their CSV serialization.

Schema: ``t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,flag`` with flag in
{ok, warmup, fallback}; ``sensors.load_csv`` and ``sensors.write_csv`` read
and write it as they do the sensor streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .preintegration import NavState
from .sensors import FLAGS, TRAJECTORY_COLUMNS, load_csv, write_csv

__all__ = ["TRAJECTORY_COLUMNS", "FLAGS", "TrajectoryPoint", "write_trajectory", "read_trajectory"]


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    nav: NavState
    flag: str = "ok"

    def __post_init__(self):
        if self.flag not in FLAGS:
            raise ValueError(f"unknown trajectory flag {self.flag!r}; expected one of {FLAGS}")


def write_trajectory(points, path) -> None:
    rows = ((p.t, *p.nav.position, *p.nav.velocity, *p.nav.orientation, FLAGS.index(p.flag))
            for p in points)  # one row at a time: no Python object per value outlives its row
    write_csv(np.fromiter(rows, np.dtype((float, 12))), path, "trajectory")


def read_trajectory(path):
    """Load a trajectory CSV written by ``write_trajectory``; raises what
    ``sensors.load_csv`` raises, as for the sensor streams."""
    data = load_csv(path, "trajectory")
    return [TrajectoryPoint(t, NavState.exact(p, v, q), FLAGS[flag])
            for t, p, v, q, flag in zip(data[:, 0].tolist(), data[:, 1:4], data[:, 4:7],
                                        data[:, 7:11], data[:, 11].astype(int).tolist())]
