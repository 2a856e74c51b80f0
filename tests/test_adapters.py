"""Dataset adapters: unit conversion, reordering, cleanup, validation."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from cipgnav.adapters import (
    ConversionLog,
    adapt,
    builtin_adapters,
    load_adapter,
    resolve_adapter,
)
from cipgnav.errors import ParseError, SpecError
from cipgnav.quat import euler_from_quat, quat_from_euler, quat_from_yaw
from cipgnav.sensors import load_stream

G0 = 9.80665


def write_girona_sources(src, n=30, dt=0.1):
    """Synthesize a source directory matching the girona_csv adapter."""
    yaw_deg = 30.0
    imu = ["stamp,ax,ay,az,wx,wy,wz"]
    for i in range(n * 5):
        t = (i + 1) * dt / 5.0
        imu.append(f"{t},0.0,0.0,-9.81,0.0,0.0,{2.0}")  # gyro-z 2 deg/s
    (src / "imu_adis.csv").write_text("\n".join(imu) + "\n")

    dvl = ["stamp,u,v,w"]
    ahrs = ["stamp,roll_deg,pitch_deg,yaw_deg"]
    gt = ["stamp,north,east,depth,qx,qy,qz,qw"]
    q = quat_from_yaw(math.radians(yaw_deg))
    for i in range(n):
        t = (i + 1) * dt
        dvl.append(f"{t},0.5,0.0,0.0")  # body-frame surge
        ahrs.append(f"{t},0.0,0.0,{yaw_deg}")
        gt.append(f"{t},{0.5 * t},0.0,1.5,{q[1]},{q[2]},{q[3]},{q[0]}")
    (src / "dvl_linkquest.csv").write_text("\n".join(dvl) + "\n")
    (src / "ahrs_xsens.csv").write_text("\n".join(ahrs) + "\n")
    (src / "odometry.csv").write_text("\n".join(gt) + "\n")


def write_bluerov2_sources(src, n=20):
    imu = ["time_us,accX,accY,accZ,gyrX,gyrY,gyrZ"]
    for i in range(n * 10):
        t_us = int((i + 1) * 1e4)  # 100 Hz in microseconds
        imu.append(f"{t_us},0.0,0.0,-1.0,0.01,0.0,0.0")  # accel in g units
    (src / "imu_raw.csv").write_text("\n".join(imu) + "\n")

    dvl = ["time_ms,velX,velY,velZ"]
    ahrs = ["time_ms,q_w,q_x,q_y,q_z"]
    for i in range(n):
        t_ms = int((i + 1) * 100)  # 10 Hz in milliseconds
        dvl.append(f"{t_ms},250.0,-100.0,0.0")  # mm/s
        ahrs.append(f"{t_ms},1.0,0.0,0.0,0.0")
    (src / "dvl_a50.csv").write_text("\n".join(dvl) + "\n")
    (src / "attitude.csv").write_text("\n".join(ahrs) + "\n")


class TestBuiltins:
    def test_builtin_listing(self):
        names = builtin_adapters()
        assert "girona_csv" in names
        assert "bluerov2_csv" in names

    def test_resolve_unknown_names_builtins(self):
        with pytest.raises(SpecError, match="girona_csv"):
            resolve_adapter("no_such_adapter")

    def test_resolve_path(self, tmp_path):
        cfg = resolve_adapter("bluerov2_csv")
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(cfg))
        assert load_adapter(resolve_adapter(path))["name"] == "bluerov2_csv"


class TestGironaAdapter:
    def test_full_conversion(self, tmp_path):
        src = tmp_path / "src"
        out = tmp_path / "out"
        src.mkdir()
        write_girona_sources(src)
        log = adapt("girona_csv", src, out)
        assert isinstance(log, ConversionLog)
        assert not log.warnings

        imu = load_stream(out / "imu.csv", "imu")
        # deg/s gyro converted to rad/s.
        assert imu[0].gyro[2] == pytest.approx(math.radians(2.0), abs=1e-12)
        np.testing.assert_allclose(imu[0].accel, [0.0, 0.0, -9.81], atol=1e-12)

        # Body-frame DVL rotated into the navigation frame by the AHRS yaw.
        dvl = load_stream(out / "dvl.csv", "dvl")
        yaw = math.radians(30.0)
        np.testing.assert_allclose(
            dvl[0].velocity, [0.5 * math.cos(yaw), 0.5 * math.sin(yaw), 0.0], atol=1e-9
        )
        assert "navigation frame" in " ".join(log.streams["dvl"].conversions)

        # Euler degrees to quaternion.
        ahrs = load_stream(out / "ahrs.csv", "ahrs")
        np.testing.assert_allclose(
            euler_from_quat(ahrs[0].orientation), [0.0, 0.0, yaw], atol=1e-12
        )

        # xyzw ground-truth quaternion reordered to scalar-first.
        gt = load_stream(out / "gt.csv", "gt")
        np.testing.assert_allclose(gt[0].orientation, quat_from_yaw(yaw), atol=1e-12)
        np.testing.assert_allclose(gt[0].position, [0.05, 0.0, 1.5], atol=1e-12)

    def test_dropped_rows_counted(self, tmp_path):
        src = tmp_path / "src"
        out = tmp_path / "out"
        src.mkdir()
        write_girona_sources(src)
        path = src / "dvl_linkquest.csv"
        lines = path.read_text().splitlines()
        lines.insert(3, "0.25,not_a_number,0.0,0.0")
        lines.insert(4, "0.2,0.1,0.1,0.1")  # duplicate timestamp of row 2
        path.write_text("\n".join(lines) + "\n")
        log = adapt("girona_csv", src, out)
        assert log.streams["dvl"].rows_dropped == 2
        assert log.streams["dvl"].rows_written == 30
        assert log.streams["dvl"].rows_read == 32

    def test_unsorted_source_rows_are_sorted(self, tmp_path):
        src = tmp_path / "src"
        out = tmp_path / "out"
        src.mkdir()
        write_girona_sources(src)
        path = src / "ahrs_xsens.csv"
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        adapt("girona_csv", src, out)
        ahrs = load_stream(out / "ahrs.csv", "ahrs")
        ts = [s.t for s in ahrs]
        assert ts == sorted(ts)

    def test_missing_source_file(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        with pytest.raises(FileNotFoundError):
            adapt("girona_csv", src, tmp_path / "out")


class TestBluerov2Adapter:
    def test_full_conversion(self, tmp_path):
        src = tmp_path / "src"
        out = tmp_path / "out"
        src.mkdir()
        write_bluerov2_sources(src)
        log = adapt("bluerov2_csv", src, out)
        assert not log.warnings

        imu = load_stream(out / "imu.csv", "imu")
        # Microseconds to seconds, g to m/s^2.
        assert imu[0].t == pytest.approx(0.01, abs=1e-12)
        assert imu[0].accel[2] == pytest.approx(-G0, abs=1e-12)

        dvl = load_stream(out / "dvl.csv", "dvl")
        # Milliseconds to seconds, mm/s to m/s; frame already navigation.
        assert dvl[0].t == pytest.approx(0.1, abs=1e-12)
        np.testing.assert_allclose(dvl[0].velocity, [0.25, -0.1, 0.0], atol=1e-12)

        summary = log.summary()
        assert "imu" in summary

    def test_gravity_magnitude_warning(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        write_bluerov2_sources(src)
        # Accel column secretly already in m/s^2 while the adapter says g:
        # conversion inflates it ~9.8x and the sanity check must complain.
        path = src / "imu_raw.csv"
        text = path.read_text().replace(",0.0,0.0,-1.0,", ",0.0,0.0,-9.81,")
        path.write_text(text)
        log = adapt("bluerov2_csv", src, tmp_path / "out")
        assert any("above gravity" in w for w in log.warnings)

    def test_gravity_compensated_warning(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        write_bluerov2_sources(src)
        path = src / "imu_raw.csv"
        text = path.read_text().replace(",0.0,0.0,-1.0,", ",0.0,0.0,0.001,")
        path.write_text(text)
        log = adapt("bluerov2_csv", src, tmp_path / "out")
        assert any("below gravity" in w for w in log.warnings)


class TestValidation:
    def base(self):
        return json.loads(json.dumps(resolve_adapter("bluerov2_csv")))

    def test_missing_required_stream(self):
        cfg = self.base()
        del cfg["streams"]["dvl"]
        with pytest.raises(SpecError, match="dvl"):
            load_adapter(cfg)

    def test_unknown_unit(self):
        cfg = self.base()
        cfg["streams"]["imu"]["accel_unit"] = "furlongs"
        with pytest.raises(SpecError, match="accel"):
            load_adapter(cfg)

    def test_quaternion_mode_needs_order(self):
        cfg = self.base()
        cfg["streams"]["ahrs"]["order"] = "wzyx"
        with pytest.raises(SpecError, match="order"):
            load_adapter(cfg)

    def test_euler_mode_needs_angles(self):
        cfg = self.base()
        cfg["streams"]["ahrs"] = {
            "file": "attitude.csv",
            "time": {"column": "time_ms", "unit": "ms"},
            "mode": "euler",
            "angle_unit": "deg",
            "columns": {"roll": "r"},
        }
        with pytest.raises(SpecError, match="pitch|yaw|roll"):
            load_adapter(cfg)

    def test_bad_time_unit(self):
        cfg = self.base()
        cfg["streams"]["imu"]["time"]["unit"] = "fortnights"
        with pytest.raises(SpecError, match="time"):
            load_adapter(cfg)

    def test_header_mismatch_is_parse_error(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        write_bluerov2_sources(src)
        (src / "dvl_a50.csv").write_text("time_ms,vX,vY,vZ\n100,0,0,0\n")
        with pytest.raises(ParseError, match="velX"):
            adapt("bluerov2_csv", src, tmp_path / "out")

    def test_empty_stream_is_parse_error(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        write_bluerov2_sources(src)
        (src / "dvl_a50.csv").write_text("time_ms,velX,velY,velZ\n")
        with pytest.raises(ParseError, match="no usable rows"):
            adapt("bluerov2_csv", src, tmp_path / "out")


class TestEulerQuaternionHelpers:
    def test_round_trip_through_adapter_convention(self):
        angles = (0.1, -0.2, 0.5)
        q = quat_from_euler(*angles)
        np.testing.assert_allclose(euler_from_quat(q), angles, atol=1e-12)
