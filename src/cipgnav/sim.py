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
shifts another's draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import SpecError
from .preintegration import GravityModel, ImuBiases, NavState
from .quat import quat_from_rotvec, quat_from_yaw, quat_multiply, quat_to_rotation
from .sensors import (
    AhrsSample,
    DvlSample,
    GroundTruthSample,
    ImuSample,
    dvl_body_to_nav,
    save_stream,
    synchronize,
)
from .trajectory import TrajectoryPoint

__all__ = [
    "KINDS",
    "NoiseSpec",
    "ScenarioSpec",
    "SyntheticRun",
    "generate",
    "with_seed",
    "benchmark_scenario",
]

KINDS = ("stationary", "line", "circle", "lawnmower", "waypoints")
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
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise SpecError(f"noise.{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, v)

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
        if self.kind not in KINDS:
            raise SpecError(f"unknown scenario kind {self.kind!r}; expected one of {KINDS}")
        for name in ("duration", "imu_rate", "meas_rate"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise SpecError(f"{name} must be finite and > 0, got {v!r}")
            object.__setattr__(self, name, v)
        v = float(self.speed)
        if not math.isfinite(v) or v < 0.0:
            raise SpecError(f"speed must be finite and >= 0, got {v!r}")
        object.__setattr__(self, "speed", v)
        for name in ("circle_radius", "lawnmower_leg", "lawnmower_spacing"):
            v = float(getattr(self, name))
            if v <= 0.0:
                raise SpecError(f"{name} must be > 0, got {v!r}")
            object.__setattr__(self, name, v)
        if self.imu_rate < 2.0 * self.meas_rate:
            raise SpecError(
                f"imu_rate ({self.imu_rate}) must be at least twice meas_rate "
                f"({self.meas_rate}) so every epoch gets an IMU burst"
            )
        if self.dvl_frame not in ("nav", "body"):
            raise SpecError(f"dvl_frame must be 'nav' or 'body', got {self.dvl_frame!r}")
        if self.kind == "waypoints":
            if self.waypoints is None or len(self.waypoints) < 2:
                raise SpecError("waypoints kind needs at least two waypoints")
            if self.speed <= 0.0:
                raise SpecError("waypoints kind needs speed > 0")
            object.__setattr__(
                self, "waypoints", tuple(tuple(float(c) for c in w) for w in self.waypoints)
            )
            if any(len(w) != 3 for w in self.waypoints):
                raise SpecError("each waypoint must be an (x, y, z) triple")
        if self.kind in ("line", "circle", "lawnmower") and self.speed <= 0.0:
            raise SpecError(f"{self.kind} kind needs speed > 0")

    def model(self) -> "_Model":
        return _make_model(self)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "duration": self.duration,
            "speed": self.speed,
            "imu_rate": self.imu_rate,
            "meas_rate": self.meas_rate,
            "circle_radius": self.circle_radius,
            "lawnmower_leg": self.lawnmower_leg,
            "lawnmower_spacing": self.lawnmower_spacing,
            "waypoints": None if self.waypoints is None else [list(w) for w in self.waypoints],
            "initial_heading": self.initial_heading,
            "dvl_frame": self.dvl_frame,
            "noise": {
                "accel_density": self.noise.accel_density,
                "gyro_density": self.noise.gyro_density,
                "dvl_std": self.noise.dvl_std,
                "ahrs_std": self.noise.ahrs_std,
            },
            "biases": {
                "accel": [float(v) for v in self.biases.accel],
                "gyro": [float(v) for v in self.biases.gyro],
            },
            "gravity": [float(v) for v in self.gravity.vector],
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        data = {k: v for k, v in data.items() if k not in _RETIRED_KEYS}
        noise = NoiseSpec(**data.pop("noise", {}))
        b = data.pop("biases", {})
        biases = ImuBiases(np.asarray(b.get("accel", np.zeros(3))),
                           np.asarray(b.get("gyro", np.zeros(3))))
        g = data.pop("gravity", [0.0, 0.0, 9.81])
        gravity = GravityModel(np.asarray(g, dtype=float), allow_nonstandard=True)
        wp = data.pop("waypoints", None)
        return cls(
            noise=noise,
            biases=biases,
            gravity=gravity,
            waypoints=None if wp is None else tuple(tuple(w) for w in wp),
            **data,
        )


class _Model:
    """Analytic truth: state(t) -> (position, velocity, acceleration, yaw, yaw_rate)."""

    duration: float

    def state(self, t: float):  # pragma: no cover - interface only
        raise NotImplementedError

    def nav(self, t: float) -> NavState:
        p, v, _, yaw, _ = self.state(t)
        return NavState(p, v, quat_from_yaw(yaw))


class _Stationary(_Model):
    def __init__(self, spec: ScenarioSpec):
        self.duration = spec.duration
        self.yaw = spec.initial_heading

    def state(self, t):
        z = np.zeros(3)
        return z, z.copy(), z.copy(), self.yaw, 0.0


class _Line(_Model):
    def __init__(self, spec: ScenarioSpec):
        self.duration = spec.duration
        self.yaw = spec.initial_heading
        self.vel = spec.speed * np.array([math.cos(self.yaw), math.sin(self.yaw), 0.0])

    def state(self, t):
        return t * self.vel, self.vel.copy(), np.zeros(3), self.yaw, 0.0


class _Circle(_Model):
    def __init__(self, spec: ScenarioSpec):
        self.duration = spec.duration
        self.speed = spec.speed
        self.omega = spec.speed / spec.circle_radius
        self.yaw0 = spec.initial_heading

    def state(self, t):
        w = self.omega
        yaw = self.yaw0 + w * t
        c, s = math.cos(yaw), math.sin(yaw)
        p = (self.speed / w) * np.array(
            [s - math.sin(self.yaw0), -c + math.cos(self.yaw0), 0.0]
        )
        v = self.speed * np.array([c, s, 0.0])
        a = self.speed * w * np.array([-s, c, 0.0])
        return p, v, a, yaw, w


class _Lawnmower(_Model):
    """Straight legs joined by half-circle turns of radius spacing / 2.

    Turn direction alternates (left after odd legs, right after even ones)
    so successive legs step sideways in the same direction, sweeping a
    rectangular area boustrophedon-style.
    """

    def __init__(self, spec: ScenarioSpec):
        self.duration = spec.duration
        self.speed = spec.speed
        r = spec.lawnmower_spacing / 2.0
        t_leg = spec.lawnmower_leg / spec.speed
        t_turn = math.pi * r / spec.speed
        segments = []
        t0 = 0.0
        pos = np.zeros(3)
        yaw = spec.initial_heading
        sign = 1.0
        while t0 < spec.duration:
            segments.append(("leg", t0, t_leg, pos.copy(), yaw, 0.0))
            pos = pos + spec.lawnmower_leg * np.array([math.cos(yaw), math.sin(yaw), 0.0])
            t0 += t_leg
            if t0 >= spec.duration:
                break
            segments.append(("turn", t0, t_turn, pos.copy(), yaw, sign))
            center = pos + sign * r * np.array([-math.sin(yaw), math.cos(yaw), 0.0])
            yaw = yaw + sign * math.pi
            pos = center + sign * r * np.array([math.sin(yaw), -math.cos(yaw), 0.0])
            t0 += t_turn
            sign = -sign
        self.radius = r
        self.segments = segments
        self.starts = np.array([s[1] for s in segments])

    def state(self, t):
        i = int(np.searchsorted(self.starts, t, side="right")) - 1
        i = max(0, min(i, len(self.segments) - 1))
        kind, t0, _, pos, yaw0, sign = self.segments[i]
        tau = t - t0
        if kind == "leg":
            heading = np.array([math.cos(yaw0), math.sin(yaw0), 0.0])
            return (
                pos + self.speed * tau * heading,
                self.speed * heading,
                np.zeros(3),
                yaw0,
                0.0,
            )
        w = sign * self.speed / self.radius
        yaw = yaw0 + w * tau
        center = pos + sign * self.radius * np.array([-math.sin(yaw0), math.cos(yaw0), 0.0])
        c, s = math.cos(yaw), math.sin(yaw)
        p = center + sign * self.radius * np.array([s, -c, 0.0])
        v = self.speed * np.array([c, s, 0.0])
        a = self.speed * w * np.array([-s, c, 0.0])
        return p, v, a, yaw, w


class _Waypoints(_Model):
    """Natural cubic spline through waypoints, timed by chord length / speed."""

    def __init__(self, spec: ScenarioSpec):
        from scipy.interpolate import CubicSpline

        pts = np.array(spec.waypoints, dtype=float)
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(chords <= 0.0):
            raise SpecError("waypoints must be pairwise distinct")
        knots = np.concatenate([[0.0], np.cumsum(chords)]) / spec.speed
        self.duration = min(spec.duration, float(knots[-1]))
        self.spline = CubicSpline(knots, pts, axis=0)
        self.dspline = self.spline.derivative()
        self.ddspline = self.spline.derivative(2)
        self.yaw0 = spec.initial_heading

    def state(self, t):
        p = np.asarray(self.spline(t), dtype=float)
        v = np.asarray(self.dspline(t), dtype=float)
        a = np.asarray(self.ddspline(t), dtype=float)
        speed_sq = float(v[0] ** 2 + v[1] ** 2)
        if speed_sq < 1e-18:
            return p, v, a, self.yaw0, 0.0
        yaw = math.atan2(v[1], v[0])
        yaw_rate = (v[0] * a[1] - v[1] * a[0]) / speed_sq
        return p, v, a, yaw, yaw_rate


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
    """Generated truth plus sensor streams for one scenario."""

    spec: ScenarioSpec
    truth: list
    imu: list
    dvl: list
    ahrs: list

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
            GroundTruthSample(p.t, p.nav.position.copy(), p.nav.orientation.copy())
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

    imu = []
    sigma_a = spec.noise.accel_density * math.sqrt(spec.imu_rate)
    sigma_w = spec.noise.gyro_density * math.sqrt(spec.imu_rate)
    for t in _timestamps(spec.imu_rate, duration):
        _, _, a_nav, yaw, yaw_rate = model.state(t)
        R = quat_to_rotation(quat_from_yaw(yaw))
        accel = R.T @ (a_nav - g) + spec.biases.accel + sigma_a * rng_accel.standard_normal(3)
        gyro = np.array([0.0, 0.0, yaw_rate]) + spec.biases.gyro + sigma_w * rng_gyro.standard_normal(3)
        imu.append(ImuSample(float(t), accel, gyro))

    dvl = []
    ahrs = []
    truth = [TrajectoryPoint(0.0, model.nav(0.0), "ok")]
    for t in _timestamps(spec.meas_rate, duration):
        p, v, _, yaw, _ = model.state(t)
        q = quat_from_yaw(yaw)
        v_meas = v + spec.noise.dvl_std * rng_dvl.standard_normal(3)
        if spec.dvl_frame == "body":
            v_meas = quat_to_rotation(q).T @ v_meas
        dvl.append(DvlSample(float(t), v_meas))
        q_meas = q
        if spec.noise.ahrs_std > 0.0:
            q_meas = quat_multiply(
                q, quat_from_rotvec(spec.noise.ahrs_std * rng_ahrs.standard_normal(3))
            )
        ahrs.append(AhrsSample(float(t), q_meas))
        truth.append(TrajectoryPoint(float(t), NavState(p, v, q), "ok"))

    return SyntheticRun(spec, truth, imu, dvl, ahrs)


def with_seed(spec: ScenarioSpec, seed: int) -> ScenarioSpec:
    """Copy a scenario with a different seed (for multi-seed benchmarks)."""
    return replace(spec, seed=int(seed))


def benchmark_scenario(seed: int, duration: float = 100.0) -> ScenarioSpec:
    """Canonical noisy benchmark: a lawnmower survey with consumer-grade
    sensor noise and per-seed random (uncompensated) IMU biases.

    Biases are drawn uniformly within MEMS turn-on ranges (accel 20 mg,
    gyro ~0.1 deg/s) from a seed-derived stream separate from the
    measurement-noise streams.
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
