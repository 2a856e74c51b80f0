"""Trajectory CSV round-trips, flag handling, and the reader and writer against
the per-row oracles of ``tests/oracles.py``, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

from cipgnav import sensors
from cipgnav.baselines import FilterConfig, run_ekf, run_inekf
from cipgnav.cascade import CascadeConfig, run_cascade
from cipgnav.errors import ParseError
from cipgnav.preintegration import NavState
from cipgnav.sim import benchmark_scenario, generate
from cipgnav.trajectory import TrajectoryPoint, read_trajectory, write_trajectory
from tests import oracles
from tests.conftest import random_unit_quat


def make_points(rng, n=7):
    pts = []
    for i in range(n):
        nav = NavState(rng.normal(size=3), rng.normal(size=3), random_unit_quat(rng))
        flag = "warmup" if i < 2 else "ok"
        pts.append(TrajectoryPoint(t=0.2 * (i + 1), nav=nav, flag=flag))
    return pts


def test_round_trip_bitwise(tmp_path, rng):
    pts = make_points(rng)
    path = tmp_path / "traj.csv"
    write_trajectory(pts, path)
    back = read_trajectory(path)
    assert len(back) == len(pts)
    for a, b in zip(pts, back):
        assert a.t == b.t
        assert a.flag == b.flag
        np.testing.assert_array_equal(a.nav.position, b.nav.position)
        np.testing.assert_array_equal(a.nav.velocity, b.nav.velocity)
        np.testing.assert_array_equal(a.nav.orientation, b.nav.orientation)


def test_rejects_unknown_flag(tmp_path, rng):
    with pytest.raises(ValueError, match="flag"):
        TrajectoryPoint(t=0.0, nav=NavState(), flag="bogus")


def test_read_rejects_malformed(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("t,px\n0.0,1.0\n")
    with pytest.raises(ParseError):
        read_trajectory(path)


def bits(points):
    """A trajectory's numbers as int64 bit patterns (signed zeros apart) and its flags."""
    rows = np.array([[p.t, *p.nav.position, *p.nav.velocity, *p.nav.orientation]
                     for p in points], dtype=float).reshape(len(points), 11)
    return rows.view(np.int64), [p.flag for p in points]


def assert_reads_as_oracle(path):
    got, want = bits(read_trajectory(path)), bits(oracles.read_trajectory(path))
    assert got[1] == want[1]
    np.testing.assert_array_equal(got[0], want[0])


@pytest.fixture(scope="module")
def estimator_runs():
    """Every estimator's points on 50 s benchmark scenarios, seeds 0-4."""
    runs = {}
    for seed in range(5):
        run = generate(benchmark_scenario(seed, 50.0))
        epochs, initial = run.epochs(), run.initial_nav()
        runs["cipg", seed] = run_cascade(epochs, CascadeConfig(initial=initial))
        runs["ekf", seed] = run_ekf(epochs, FilterConfig(), initial=initial)
        runs["inekf", seed] = run_inekf(epochs, FilterConfig(), initial=initial)
    return runs


@pytest.mark.parametrize("name", ["cipg", "ekf", "inekf"])
def test_estimator_trajectories_round_trip_bitwise(tmp_path, estimator_runs, name):
    # Each estimator writes unit quaternions; reading them normalized again
    # once moved some by an ulp, so ``evaluate`` scored other attitudes.
    for seed in range(5):
        points = estimator_runs[name, seed]
        path = tmp_path / f"{seed}.csv"
        write_trajectory(points, path)
        (got, flags), (want, written) = bits(read_trajectory(path)), bits(points)
        assert flags == written
        np.testing.assert_array_equal(got, want)


class TestAgainstOracles:
    """The reader and writer that go through ``sensors`` give what the per-row
    reader and the row-by-row writer gave, bit for bit."""

    @pytest.mark.parametrize("name", ["cipg", "ekf", "inekf"])
    def test_estimator_rows(self, tmp_path, estimator_runs, name):
        for seed in range(5):
            points = estimator_runs[name, seed]
            path, reference = tmp_path / f"{seed}.csv", tmp_path / f"{seed}-oracle.csv"
            write_trajectory(points, path)
            oracles.write_trajectory(points, reference)
            assert path.read_bytes() == reference.read_bytes()
            assert sensors._load_bulk(path, "trajectory") is not None
            assert_reads_as_oracle(path)

    EDGE = [
        "t,px,py,pz,vx,vy,vz,qw,qx,qy,qz,flag",
        "-0.0,0.0,-0.0,5e-324,-5e-324,1e308,-1e308,2.0,0.0,-0.0,0.0,warmup",
        "0.5,1e308,-0.0,0.0,5e-324,-1e308,0.0,0.001,0.001,0.001,0.001,ok",
        "1.0,-1e-300,2.5,-0.0,0.0,0.0,1e-300,-0.001,0.001,-0.001,0.001,fallback",
        "1.5,0.1,0.2,0.3,0.4,0.5,0.6,0.0,-2.0,0.0,-0.0,ok",
    ]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("quoted", [False, True], ids=["bulk", "per-row"])
    def test_edge_rows(self, tmp_path, newline, quoted):
        lines = list(self.EDGE)
        if quoted:  # loadtxt refuses a quoted field, so the row loop reads the file
            lines[2] = lines[2].replace("0.5,", '"0.5",', 1)
        path = tmp_path / "edge.csv"
        path.write_bytes((newline.join(lines) + newline).encode())
        assert (sensors._load_bulk(path, "trajectory") is None) == quoted
        assert_reads_as_oracle(path)
        signs = np.signbit(bits(read_trajectory(path))[0].view(float))
        assert signs[0, 0] and signs[0, 2] and not signs[0, 1]  # -0.0 read as -0.0

    def test_edge_points_write_as_oracle(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("\n".join(self.EDGE) + "\n")
        points = oracles.read_trajectory(path)
        write_trajectory(points, tmp_path / "new.csv")
        oracles.write_trajectory(points, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
