"""Synthetic underwater-vehicle scenario generator.

Trajectories are closed-form (stationary, straight line, circle, lawnmower)
or spline-interpolated waypoint tours, always with a yaw-only attitude.
From the analytic state the generator derives ideal IMU specific force and
body rates, then corrupts each stream with white noise and constant biases:

    accel reading = R^T (v_dot - g) + bias + noise
    gyro reading  = (0, 0, yaw_rate) + bias + noise
    dvl reading   = v + noise          (navigation frame by default)
    ahrs reading  = q * Exp(noise)

Per-sample IMU noise is density * sqrt(rate).  Every stream draws from its
own child RNG of the scenario seed, so enabling one stream's noise never
shifts another's draws.  Each stream draws its noise in sample order, three
standard normals per sample (x, y, z); the AHRS stream draws only when its
noise is on.

Each model gives its state over an array of times.  The IMU stream is
generated in blocks of IMU_BLOCK_ROWS rows, which bounds the memory of its
temporary arrays, and the measurement streams and truth in one block each.
Block generation is bit for bit the per-sample computation: every array
expression rounds as the scalar one it replaces.  That matters beyond
reproducibility: ``cipgnav estimate --from-metadata`` regenerates a
scenario run and replays it only while the digest of its epochs matches
the recorded one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import SpecError, _count, _finite3, _one_of, _real
from .preintegration import GravityModel, ImuBiases, NavState
from .quat import (ordered_matmul, quat_from_rotvec, quat_from_yaw, quat_product,
                   quat_to_rotation, row_norms, unit_rows)
from .sensors import GroundTruthSample, dvl_body_to_nav, save_stream, synchronize
from .trajectory import TrajectoryPoint

__all__ = [
    "KINDS",
    "NoiseSpec",
    "ScenarioSpec",
    "SyntheticRun",
    "generate",
    "benchmark_scenario",
]

KINDS = ("stationary", "line", "circle", "lawnmower", "waypoints")
# IMU rows generated per block.  It bounds the block's temporary arrays: with
# 4096 rows the peak RSS of a 300 s, 25 Hz run rose about 0.8 MB over that of
# the per-sample generator, with 1024 it did not, and the time barely moved.
IMU_BLOCK_ROWS = 1024
# Keys that scenario files written by earlier versions may carry; they never
# changed the generated IMU, DVL or AHRS streams.
_RETIRED_KEYS = ("gps_rate", "gps_origin")


@dataclass(frozen=True)
class NoiseSpec:
    """White-noise levels; defaults are all zero (ideal sensors).

    IMU noise is given as a density (per sqrt(Hz)); DVL and AHRS as direct
    per-sample standard deviations (m/s and rad).
    """

    accel_density: float = 0.0
    gyro_density: float = 0.0
    dvl_std: float = 0.0
    ahrs_std: float = 0.0

    def __post_init__(self):
        for name in ("accel_density", "gyro_density", "dvl_std", "ahrs_std"):
            object.__setattr__(self, name, _real(name, getattr(self, name), ">= 0"))

    @classmethod
    def bluerov2(cls) -> "NoiseSpec":
        """Consumer-grade ROV sensor suite (MEMS IMU, phased-array DVL)."""
        return cls(accel_density=2e-3, gyro_density=1e-4, dvl_std=0.02, ahrs_std=0.01)

    @classmethod
    def preset(cls, name: str) -> "NoiseSpec":
        presets = {"none": cls(), "bluerov2": cls.bluerov2()}
        if name not in presets:
            raise SpecError(f"unknown noise preset {name!r}; expected one of {sorted(presets)}")
        return presets[name]


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to generate one synthetic run, seeded and replayable."""

    kind: str = "circle"
    duration: float = 100.0
    speed: float = 0.5
    imu_rate: float = 100.0
    meas_rate: float = 5.0
    circle_radius: float = 100.0
    lawnmower_leg: float = 40.0
    lawnmower_spacing: float = 10.0
    waypoints: tuple | None = None
    initial_heading: float = 0.0
    dvl_frame: str = "nav"
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    biases: ImuBiases = field(default_factory=ImuBiases)
    gravity: GravityModel = field(default_factory=GravityModel)
    seed: int = 0

    def __post_init__(self):
        positive = ("duration", "imu_rate", "meas_rate", "circle_radius", "lawnmower_leg",
                    "lawnmower_spacing")
        vars(self).update(
            kind=_one_of("kind", self.kind, KINDS),
            **{name: _real(name, getattr(self, name), "positive") for name in positive},
            speed=_real("speed", self.speed, ">= 0"),
            initial_heading=_real("initial_heading", self.initial_heading),
            dvl_frame=_one_of("dvl_frame", self.dvl_frame, ("nav", "body")),
            seed=_count("seed", self.seed, 0),
        )
        if self.imu_rate < 2.0 * self.meas_rate:
            raise SpecError(
                f"imu_rate ({self.imu_rate}) must be at least twice meas_rate "
                f"({self.meas_rate}) so every epoch gets an IMU burst"
            )
        if self.waypoints is not None:
            points = (_finite3(f"waypoints[{i}]", w) for i, w in enumerate(self.waypoints))
            object.__setattr__(self, "waypoints", tuple(tuple(p.tolist()) for p in points))
        if self.kind == "waypoints":
            if self.waypoints is None or len(self.waypoints) < 2:
                raise SpecError("waypoints kind needs at least two waypoints")
            if self.speed <= 0.0:
                raise SpecError("waypoints kind needs speed > 0")
        if self.kind in ("line", "circle", "lawnmower") and self.speed <= 0.0:
            raise SpecError(f"{self.kind} kind needs speed > 0")

    def model(self) -> "_Model":
        return _make_model(self)

    def to_dict(self) -> dict:
        """The spec as JSON values: each field under its name, in field order."""
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "waypoints": None if self.waypoints is None else [list(w) for w in self.waypoints],
            "noise": asdict(self.noise),
            "biases": {"accel": self.biases.accel.tolist(), "gyro": self.biases.gyro.tolist()},
            "gravity": self.gravity.vector.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """The spec of a ``to_dict`` result; an unknown key raises SpecError."""
        data = {k: v for k, v in data.items() if k not in _RETIRED_KEYS}
        _check_keys("scenario", data, [f.name for f in fields(cls)])
        _check_keys("scenario noise", data.get("noise", {}), [f.name for f in fields(NoiseSpec)])
        _check_keys("scenario biases", data.get("biases", {}), ["accel", "gyro"])
        return cls(
            noise=NoiseSpec(**data.pop("noise", {})),
            biases=ImuBiases(**data.pop("biases", {})),
            gravity=GravityModel(data.pop("gravity", [0.0, 0.0, 9.81]), allow_nonstandard=True),
            **data,
        )


class _UnknownKeys(SpecError):
    """Keys of a scenario dict that name no field; the message names the part of the scenario."""


def _check_keys(what: str, data: dict, known) -> None:
    unknown = [k for k in data if k not in known]
    if unknown:
        raise _UnknownKeys(f"{what}: unknown keys {unknown}; expected some of {list(known)}")


class _Model:
    """Analytic truth over an array of times.

    ``states(ts)`` returns ``(P, V, A, yaw, yaw_rate)``: (n, 3) position,
    velocity and acceleration and (n,) yaw and yaw rate.
    """

    duration: float

    def states(self, ts: np.ndarray):  # pragma: no cover - interface only
        raise NotImplementedError

    def state(self, t: float):
        """``states`` at one time: (position, velocity, acceleration, yaw, yaw_rate)."""
        P, V, A, yaw, yaw_rate = self.states(np.array([t], dtype=float))
        return P[0], V[0], A[0], yaw[0], yaw_rate[0]

    def nav(self, t: float) -> NavState:
        p, v, _, yaw, _ = self.state(t)
        return NavState(p, v, quat_from_yaw(yaw))


def _rows(x, y, z) -> np.ndarray:
    """(n, 3) array with columns x, y, z (each an (n,) array or a scalar)."""
    return np.stack(np.broadcast_arrays(x, y, z), axis=1)


class _Stationary(_Model):
    def __init__(self, spec: ScenarioSpec):
        self.duration = spec.duration
        self.yaw = spec.initial_heading

    def states(self, ts):
        z = np.zeros((len(ts), 3))
        return z, z.copy(), z.copy(), np.full(len(ts), self.yaw, dtype=float), np.zeros(len(ts))


class _Line(_Model):
    def __init__(self, spec: ScenarioSpec):
        self.duration = spec.duration
        self.yaw = spec.initial_heading
        self.vel = spec.speed * np.array([math.cos(self.yaw), math.sin(self.yaw), 0.0])

    def states(self, ts):
        n = len(ts)
        return (ts[:, None] * self.vel, np.tile(self.vel, (n, 1)), np.zeros((n, 3)),
                np.full(n, self.yaw, dtype=float), np.zeros(n))


class _Circle(_Model):
    def __init__(self, spec: ScenarioSpec):
        self.duration = spec.duration
        self.speed = spec.speed
        self.omega = spec.speed / spec.circle_radius
        self.yaw0 = spec.initial_heading

    def states(self, ts):
        w = self.omega
        yaw = self.yaw0 + w * ts
        c, s = np.cos(yaw), np.sin(yaw)
        p = (self.speed / w) * _rows(s - math.sin(self.yaw0), -c + math.cos(self.yaw0), 0.0)
        v = self.speed * _rows(c, s, 0.0)
        a = self.speed * w * _rows(-s, c, 0.0)
        return p, v, a, yaw, np.full(len(ts), w)


class _Lawnmower(_Model):
    """Straight legs joined by half-circle turns of radius spacing / 2.

    Turn direction alternates (left after odd legs, right after even ones)
    so successive legs step sideways in the same direction, sweeping a
    rectangular area boustrophedon-style.  Segment k starts at time
    ``starts[k]`` at ``origins[k]`` with yaw ``yaws[k]``; a leg has
    ``signs[k]`` 0, a turn +1 (left) or -1 (right) about ``centers[k]``.
    """

    def __init__(self, spec: ScenarioSpec):
        self.duration = spec.duration
        self.speed = spec.speed
        r = spec.lawnmower_spacing / 2.0
        t_leg = spec.lawnmower_leg / spec.speed
        t_turn = math.pi * r / spec.speed
        starts, origins, headings, centers, yaws, signs = [], [], [], [], [], []
        t0 = 0.0
        pos = np.zeros(3)
        yaw = spec.initial_heading
        sign = 1.0
        while t0 < spec.duration:
            heading = np.array([math.cos(yaw), math.sin(yaw), 0.0])
            starts.append(t0), origins.append(pos), headings.append(heading)
            centers.append(pos), yaws.append(yaw), signs.append(0.0)
            pos = pos + spec.lawnmower_leg * heading
            t0 += t_leg
            if t0 >= spec.duration:
                break
            center = pos + sign * r * np.array([-math.sin(yaw), math.cos(yaw), 0.0])
            starts.append(t0), origins.append(pos), headings.append(heading)
            centers.append(center), yaws.append(yaw), signs.append(sign)
            yaw = yaw + sign * math.pi
            pos = center + sign * r * np.array([math.sin(yaw), -math.cos(yaw), 0.0])
            t0 += t_turn
            sign = -sign
        self.radius = r
        self.starts = np.array(starts)
        self.origins = np.array(origins)
        self.headings = np.array(headings)
        self.centers = np.array(centers)
        self.yaws = np.array(yaws, dtype=float)
        self.signs = np.array(signs)

    def states(self, ts):
        i = np.clip(np.searchsorted(self.starts, ts, side="right") - 1, 0, len(self.starts) - 1)
        tau = ts - self.starts[i]
        yaw0, sign = self.yaws[i], self.signs[i]
        leg_p = self.origins[i] + (self.speed * tau)[:, None] * self.headings[i]
        leg_v = self.speed * self.headings[i]
        w = sign * self.speed / self.radius
        yaw = yaw0 + w * tau
        c, s = np.cos(yaw), np.sin(yaw)
        turn_p = self.centers[i] + (sign * self.radius)[:, None] * _rows(s, -c, 0.0)
        turn_v = self.speed * _rows(c, s, 0.0)
        turn_a = (self.speed * w)[:, None] * _rows(-s, c, 0.0)
        turn = sign != 0.0
        col = turn[:, None]
        return (np.where(col, turn_p, leg_p), np.where(col, turn_v, leg_v),
                np.where(col, turn_a, 0.0), np.where(turn, yaw, yaw0), np.where(turn, w, 0.0))


class _Waypoints(_Model):
    """Natural cubic spline through waypoints, timed by chord length / speed."""

    def __init__(self, spec: ScenarioSpec):
        from scipy.interpolate import CubicSpline

        pts = np.array(spec.waypoints, dtype=float)
        chords = row_norms(np.diff(pts, axis=0))
        if np.any(chords <= 0.0):
            raise SpecError("waypoints must be pairwise distinct")
        knots = np.concatenate([[0.0], np.cumsum(chords)]) / spec.speed
        self.duration = min(spec.duration, float(knots[-1]))
        self.spline = CubicSpline(knots, pts, axis=0)
        self.dspline = self.spline.derivative()
        self.ddspline = self.spline.derivative(2)
        self.yaw0 = spec.initial_heading

    def states(self, ts):
        p = np.asarray(self.spline(ts), dtype=float)
        v = np.asarray(self.dspline(ts), dtype=float)
        a = np.asarray(self.ddspline(ts), dtype=float)
        # Per element, as libm computes them: numpy's vector x**2 and arctan2
        # differ from pow and atan2 in the last bit on some inputs.
        vx, vy = v[:, 0].tolist(), v[:, 1].tolist()
        speed_sq = np.array([x ** 2 + y ** 2 for x, y in zip(vx, vy)])
        heading = np.array([math.atan2(y, x) for x, y in zip(vx, vy)])
        still = speed_sq < 1e-18
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = (v[:, 0] * a[:, 1] - v[:, 1] * a[:, 0]) / speed_sq
        return p, v, a, np.where(still, self.yaw0, heading), np.where(still, 0.0, rate)


def _make_model(spec: ScenarioSpec) -> _Model:
    return {
        "stationary": _Stationary,
        "line": _Line,
        "circle": _Circle,
        "lawnmower": _Lawnmower,
        "waypoints": _Waypoints,
    }[spec.kind](spec)


@dataclass
class SyntheticRun:
    """Generated truth plus sensor streams for one scenario.

    ``imu``, ``dvl`` and ``ahrs`` are arrays with the columns of
    ``sensors.SCHEMAS``; ``truth`` is a list of TrajectoryPoint.
    """

    spec: ScenarioSpec
    truth: list
    imu: np.ndarray
    dvl: np.ndarray
    ahrs: np.ndarray

    def epochs(self):
        """The synchronized epoch stream, with the DVL in the navigation frame."""
        dvl = self.dvl
        if self.spec.dvl_frame == "body":
            dvl = dvl_body_to_nav(dvl, self.ahrs)
        return synchronize(self.imu, dvl, self.ahrs)

    def initial_nav(self) -> NavState:
        return self.truth[0].nav.copy()

    def write(self, out_dir) -> dict:
        """Write imu/dvl/ahrs/gt CSVs into a directory; returns the paths."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        gt = [
            GroundTruthSample(p.t, p.nav.position, p.nav.orientation)
            for p in self.truth
        ]
        paths = {}
        for kind, samples in (
            ("imu", self.imu),
            ("dvl", self.dvl),
            ("ahrs", self.ahrs),
            ("gt", gt),
        ):
            path = out_dir / f"{kind}.csv"
            save_stream(samples, path, kind)
            paths[kind] = path
        return paths


def _timestamps(rate: float, duration: float) -> np.ndarray:
    n = int(math.floor(duration * rate + 1e-9))
    return np.arange(1, n + 1, dtype=float) / rate


def _to_body(R: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows ``R[k].T @ X[k]``."""
    return ordered_matmul(np.swapaxes(R, 1, 2), X[:, :, None])[:, :, 0]


def generate(spec: ScenarioSpec) -> SyntheticRun:
    """Build truth and sensor streams for a scenario.

    Truth rows are written at the measurement rate (plus t = 0).  IMU
    timestamps start one period after zero so the first measurement epoch
    integrates from exactly t = 0.
    """
    model = spec.model()
    duration = model.duration
    rng_accel, rng_gyro, rng_dvl, rng_ahrs = (
        np.random.default_rng(s) for s in np.random.SeedSequence(spec.seed).spawn(4)
    )
    g = spec.gravity.vector

    sigma_a = spec.noise.accel_density * math.sqrt(spec.imu_rate)
    sigma_w = spec.noise.gyro_density * math.sqrt(spec.imu_rate)
    imu_t = _timestamps(spec.imu_rate, duration)
    imu = np.empty((len(imu_t), 7))
    imu[:, 0] = imu_t
    for lo in range(0, len(imu_t), IMU_BLOCK_ROWS):
        block = imu[lo:lo + IMU_BLOCK_ROWS]
        _, _, a_nav, yaw, yaw_rate = model.states(imu_t[lo:lo + IMU_BLOCK_ROWS])
        R = quat_to_rotation(quat_from_yaw(yaw))
        block[:, 1:4] = (_to_body(R, a_nav - g) + spec.biases.accel
                         + sigma_a * rng_accel.standard_normal((len(block), 3)))
        block[:, 4:7] = (_rows(0.0, 0.0, yaw_rate) + spec.biases.gyro
                         + sigma_w * rng_gyro.standard_normal((len(block), 3)))

    meas_t = _timestamps(spec.meas_rate, duration)
    P, V, _, yaw, _ = model.states(meas_t)
    Q = quat_from_yaw(yaw)
    v_meas = V + spec.noise.dvl_std * rng_dvl.standard_normal((len(meas_t), 3))
    if spec.dvl_frame == "body":
        v_meas = _to_body(quat_to_rotation(Q), v_meas)
    q_meas = Q
    if spec.noise.ahrs_std > 0.0:
        noise = quat_from_rotvec(spec.noise.ahrs_std * rng_ahrs.standard_normal((len(meas_t), 3)))
        q_meas, _ = unit_rows(quat_product(Q, noise))
    dvl = np.column_stack([meas_t, v_meas])
    ahrs = np.column_stack([meas_t, q_meas])
    truth = [TrajectoryPoint(0.0, model.nav(0.0), "ok")]
    truth += [TrajectoryPoint(t, NavState.exact(p, v, q), "ok")
              for t, p, v, q in zip(meas_t.tolist(), P, V, unit_rows(Q)[0])]
    return SyntheticRun(spec, truth, imu, dvl, ahrs)


def benchmark_scenario(seed: int, duration: float = 100.0) -> ScenarioSpec:
    """Canonical noisy benchmark: a lawnmower survey with consumer-grade
    sensor noise and per-seed random (uncompensated) IMU biases.

    Biases are drawn uniformly, per axis, within +-0.02 m/s^2 (accel, about
    2 mg) and +-0.002 rad/s (gyro, about 0.1 deg/s) from a seed-derived
    stream separate from the measurement-noise streams.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xB1A5]))
    biases = ImuBiases(
        accel=rng.uniform(-0.02, 0.02, 3),
        gyro=rng.uniform(-0.002, 0.002, 3),
    )
    return ScenarioSpec(
        kind="lawnmower",
        duration=duration,
        speed=0.5,
        lawnmower_leg=20.0,
        lawnmower_spacing=10.0,
        noise=NoiseSpec.bluerov2(),
        biases=biases,
        seed=int(seed),
    )
