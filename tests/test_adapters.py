"""Dataset adapters: unit conversion, reordering, cleanup, validation."""

from __future__ import annotations

import copy
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipgnav.adapters import (
    ACCEL_UNITS,
    ANGLE_UNITS,
    GYRO_UNITS,
    TIME_UNITS,
    VELOCITY_UNITS,
    ConversionLog,
    adapt,
    builtin_adapters,
    load_adapter,
    resolve_adapter,
)
from cipgnav.errors import ParseError, SpecError
from cipgnav.quat import euler_from_quat, quat_from_euler, quat_from_yaw
from cipgnav.sensors import load_stream
from tests import oracles

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

    @pytest.mark.parametrize("source", ["bluerov2_csv", Path("custom.json"),
                                        '{"streams": {}}', ["streams"]],
                             ids=["name", "path", "json-string", "list"])
    def test_load_rejects_non_dict(self, source):
        # Names and paths are resolve_adapter's to read, not load_adapter's.
        with pytest.raises(SpecError, match="top level must be a JSON object"):
            load_adapter(source)


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
        assert imu[0, 6] == pytest.approx(math.radians(2.0), abs=1e-12)
        np.testing.assert_allclose(imu[0, 1:4], [0.0, 0.0, -9.81], atol=1e-12)

        # Body-frame DVL rotated into the navigation frame by the AHRS yaw.
        dvl = load_stream(out / "dvl.csv", "dvl")
        yaw = math.radians(30.0)
        np.testing.assert_allclose(
            dvl[0, 1:], [0.5 * math.cos(yaw), 0.5 * math.sin(yaw), 0.0], atol=1e-9
        )
        assert "navigation frame" in " ".join(log.streams["dvl"].conversions)

        # Euler degrees to quaternion.
        ahrs = load_stream(out / "ahrs.csv", "ahrs")
        np.testing.assert_allclose(
            euler_from_quat(ahrs[0, 1:]), [0.0, 0.0, yaw], atol=1e-12
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
        ts = ahrs[:, 0].tolist()
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
        assert imu[0, 0] == pytest.approx(0.01, abs=1e-12)
        assert imu[0, 3] == pytest.approx(-G0, abs=1e-12)

        dvl = load_stream(out / "dvl.csv", "dvl")
        # Milliseconds to seconds, mm/s to m/s; frame already navigation.
        assert dvl[0, 0] == pytest.approx(0.1, abs=1e-12)
        np.testing.assert_allclose(dvl[0, 1:], [0.25, -0.1, 0.0], atol=1e-12)

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

    @pytest.mark.parametrize("offset", ["abc", "nan", 1e400, [1], None, 10**400],
                             ids=["text", "nan", "inf", "list", "null", "huge-int"])
    def test_time_offset_must_be_a_finite_number(self, offset):
        cfg = self.base()
        cfg["streams"]["dvl"]["time"]["offset"] = offset
        with pytest.raises(SpecError, match=r"dvl: time offset must be a finite number, got "):
            load_adapter(cfg)

    @pytest.mark.parametrize("offset", [0, -2.5, "1.5"])
    def test_time_offset_accepts_numbers(self, offset):
        cfg = self.base()
        cfg["streams"]["dvl"]["time"]["offset"] = offset
        assert load_adapter(cfg) is cfg

    @pytest.mark.parametrize("delimiter", [";;", "", 1, None, [","]])
    def test_delimiter_must_be_one_character(self, delimiter):
        cfg = self.base()
        cfg["streams"]["ahrs"]["delimiter"] = delimiter
        with pytest.raises(SpecError, match=r"ahrs: delimiter must be one character, got "):
            load_adapter(cfg)

    def test_header_mismatch_is_parse_error(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        write_bluerov2_sources(src)
        (src / "dvl_a50.csv").write_text("time_ms,vX,vY,vZ\n100,0,0,0\n")
        with pytest.raises(ParseError, match="velX"):
            adapt("bluerov2_csv", src, tmp_path / "out")

    def test_header_with_spaces_after_commas(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        write_bluerov2_sources(src)
        dvl = src / "dvl_a50.csv"
        lines = dvl.read_text().splitlines()
        dvl.write_text("\n".join(["time_ms, velX, velY, velZ", *lines[1:]]) + "\n")
        log = adapt("bluerov2_csv", src, tmp_path / "out")
        assert log.streams["dvl"].rows_dropped == 0
        dvl = load_stream(tmp_path / "out" / "dvl.csv", "dvl")
        assert len(dvl) == 20
        np.testing.assert_allclose(dvl[0, 1:], [0.25, -0.1, 0.0], atol=1e-12)

    def test_empty_stream_is_parse_error(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        write_bluerov2_sources(src)
        (src / "dvl_a50.csv").write_text("time_ms,velX,velY,velZ\n")
        with pytest.raises(ParseError, match="no usable rows"):
            adapt("bluerov2_csv", src, tmp_path / "out")


class TestGtOrientationColumns:
    """The gt mode picks the orientation columns; a gt stream without any has none."""

    @staticmethod
    def girona_with_euler_gt(tmp_path):
        """Girona sources whose odometry also has roll/pitch/yaw (rad), at yaw 60 deg."""
        src = tmp_path / "src"
        src.mkdir()
        write_girona_sources(src)  # the odometry quaternion is at yaw 30 deg
        lines = (src / "odometry.csv").read_text().splitlines()
        lines = [lines[0] + ",roll,pitch,yaw"] + [
            f"{line},0.0,0.0,{math.radians(60.0)!r}" for line in lines[1:]]
        (src / "odometry.csv").write_text("\n".join(lines) + "\n")
        spec = json.loads(json.dumps(builtin_adapters()["girona_csv"]))
        spec["streams"]["gt"]["columns"].update(roll="roll", pitch="pitch", yaw="yaw")
        return src, spec

    @pytest.mark.parametrize("mode, yaw_deg", [("quaternion", 30.0), ("euler", 60.0)])
    def test_mode_picks_its_columns(self, tmp_path, mode, yaw_deg):
        src, spec = self.girona_with_euler_gt(tmp_path)
        spec["streams"]["gt"]["mode"] = mode
        adapt(spec, src, tmp_path / "out")
        gt = load_stream(tmp_path / "out" / "gt.csv", "gt")
        np.testing.assert_allclose(gt[0].orientation, quat_from_yaw(math.radians(yaw_deg)),
                                   atol=1e-12)

    def test_gt_without_orientation_writes_four_columns(self, tmp_path):
        src, spec = self.girona_with_euler_gt(tmp_path)
        spec["streams"]["gt"]["columns"] = {"px": "north", "py": "east", "pz": "depth"}
        adapt(spec, src, tmp_path / "out")
        lines = (tmp_path / "out" / "gt.csv").read_text().splitlines()
        assert lines[0] == "t,px,py,pz"
        assert all(len(line.split(",")) == 4 for line in lines)


class TestEulerQuaternionHelpers:
    def test_round_trip_through_adapter_convention(self):
        angles = (0.1, -0.2, 0.5)
        q = quat_from_euler(*angles)
        np.testing.assert_allclose(euler_from_quat(q), angles, atol=1e-12)


class TestGtConversionLog:
    @pytest.mark.parametrize("mode, logged", [("quaternion", ["quaternion order xyzw -> wxyz"]),
                                              ("euler", ["euler (rad) -> quaternion"]),
                                              (None, [])])
    def test_gt_orientation_conversion_is_logged(self, tmp_path, mode, logged):
        src, spec = TestGtOrientationColumns.girona_with_euler_gt(tmp_path)
        if mode is None:
            spec["streams"]["gt"]["columns"] = {"px": "north", "py": "east", "pz": "depth"}
        else:
            spec["streams"]["gt"]["mode"] = mode
        log = adapt(spec, src, tmp_path / "out")
        assert log.streams["gt"].conversions == logged


class TestDroppedRows:
    """A quaternion of zero or overflowing norm, or a value that overflows its unit
    scale, is dropped and counted like a non-finite field, before repeated times are
    resolved, and without a warning."""

    @staticmethod
    def insert_before(path, time_text, row):
        """Insert ``row`` before the first source row whose time field reads ``time_text``."""
        lines = path.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.split(",")[0] == time_text)
        path.write_text("\n".join([*lines[:k], row, *lines[k:]]) + "\n")

    def adapt_quietly(self, spec, src, out):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return adapt(spec, src, out)

    @pytest.mark.parametrize("q", ["0,0,0,0", "1e200,0,0,0", "0,-1e-13,0,0"],
                             ids=["zero", "overflow", "tiny"])
    def test_ahrs_quaternion(self, tmp_path, q):
        src = tmp_path / "src"
        src.mkdir()
        write_bluerov2_sources(src)
        clean = self.adapt_quietly("bluerov2_csv", src, tmp_path / "clean")
        self.insert_before(src / "attitude.csv", "200", f"200,{q}")
        log = self.adapt_quietly("bluerov2_csv", src, tmp_path / "out")
        assert (log.streams["ahrs"].rows_read, log.streams["ahrs"].rows_written,
                log.streams["ahrs"].rows_dropped) == (21, 20, 1)
        assert log.summary().replace("read 21", "read 20").replace(
            "dropped 1", "dropped 0") == clean.summary()
        for name in ("imu.csv", "dvl.csv", "ahrs.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (
                tmp_path / "clean" / name).read_bytes()

    @pytest.mark.parametrize("q", ["0,0,0,0", "1e200,0,0,0"], ids=["zero", "overflow"])
    def test_gt_quaternion(self, tmp_path, q):
        src = tmp_path / "src"
        src.mkdir()
        write_girona_sources(src)
        clean = self.adapt_quietly("girona_csv", src, tmp_path / "clean")
        self.insert_before(src / "odometry.csv", "0.2", f"0.2,9.0,9.0,9.0,{q}")
        log = self.adapt_quietly("girona_csv", src, tmp_path / "out")
        assert (log.streams["gt"].rows_read, log.streams["gt"].rows_dropped) == (31, 1)
        assert log.streams["gt"].rows_written == clean.streams["gt"].rows_written == 30
        assert (tmp_path / "out" / "gt.csv").read_bytes() == (
            tmp_path / "clean" / "gt.csv").read_bytes()

    def test_value_that_overflows_its_unit_scale(self, tmp_path):
        # 1e308 g is inf in m/s^2, which was once written to imu.csv.
        src = tmp_path / "src"
        src.mkdir()
        write_bluerov2_sources(src)
        self.insert_before(src / "imu_raw.csv", "20000", "20000,0.0,0.0,1e308,0.0,0.0,0.0")
        log = self.adapt_quietly("bluerov2_csv", src, tmp_path / "out")
        assert (log.streams["imu"].rows_read, log.streams["imu"].rows_dropped) == (201, 1)
        assert np.isfinite(load_stream(tmp_path / "out" / "imu.csv", "imu")).all()

    @pytest.mark.parametrize("where", ["mapped", "unmapped", "header"])
    def test_undecodable_byte(self, tmp_path, where):
        # A byte that is not UTF-8 once escaped as a UnicodeDecodeError naming neither
        # the file nor the line.  It now acts as a non-numeric field at its place.
        src = tmp_path / "src"
        src.mkdir()
        write_bluerov2_sources(src)
        path = src / "dvl_a50.csv"
        lines = [line.split(",") + ["note"] for line in path.read_text().splitlines()]
        path.write_text("".join(",".join(line) + "\n" for line in lines))
        clean = self.adapt_quietly("bluerov2_csv", src, tmp_path / "clean")
        line, column = {"mapped": (3, 1), "unmapped": (3, 4), "header": (0, 1)}[where]
        lines[line][column] += "\udce9"  # written as the byte 0xe9
        path.write_text("".join(",".join(line) + "\n" for line in lines),
                        encoding="utf-8", errors="surrogateescape")
        if where == "header":
            with pytest.raises(ParseError) as raised:
                adapt("bluerov2_csv", src, tmp_path / "out")
            assert str(raised.value).startswith(
                f"{path}:line 1: source columns ['velX'] not found in header ")
            return
        log = self.adapt_quietly("bluerov2_csv", src, tmp_path / "out")
        dvl = log.streams["dvl"]
        clean_dvl = (tmp_path / "clean" / "dvl.csv").read_bytes()
        if where == "mapped":
            assert (dvl.rows_read, dvl.rows_written, dvl.rows_dropped) == (20, 19, 1)
            dropped = clean_dvl.splitlines(keepends=True)
            del dropped[3]
            assert (tmp_path / "out" / "dvl.csv").read_bytes() == b"".join(dropped)
        else:
            assert (dvl.rows_read, dvl.rows_written, dvl.rows_dropped) == (20, 20, 0)
            assert (tmp_path / "out" / "dvl.csv").read_bytes() == clean_dvl


_FAULTS = ["", "abc", "nan", "inf", "-inf", "1e400", " 2.5 "]
_MUTATIONS = ["none"] * 6 + ["short", "long", "fault", "blank"]


@st.composite
def _stream_source(draw, kind, offset, delimiter):
    """One stream's adapter config and its source text, with shuffled and repeated
    times, extra and repeated header names, short and long rows, blank lines and
    fields that are missing, non-numeric or non-finite."""
    unit = draw(st.sampled_from(sorted(TIME_UNITS)))
    cfg = {"file": f"{kind}_source.csv",
           "time": {"column": "stamp", "unit": unit, "offset": offset}}
    if delimiter != ",":
        cfg["delimiter"] = delimiter
    kinds = {"stamp": "time"}
    if kind == "imu":
        cfg["accel_unit"] = draw(st.sampled_from(sorted(ACCEL_UNITS)))
        cfg["gyro_unit"] = draw(st.sampled_from(sorted(GYRO_UNITS)))
        kinds.update(dict.fromkeys(["ax", "ay", "az", "gx", "gy", "gz"], "value"))
    elif kind == "dvl":
        cfg["velocity_unit"] = draw(st.sampled_from(sorted(VELOCITY_UNITS)))
        cfg["frame"] = draw(st.sampled_from(["nav", "body"]))
        kinds.update(dict.fromkeys(["vx", "vy", "vz"], "value"))
    else:
        if kind == "gt":
            kinds.update(dict.fromkeys(["px", "py", "pz"], "value"))
        if kind == "ahrs" or draw(st.booleans()):
            cfg["mode"] = draw(st.sampled_from(["quaternion", "euler"]))
            if cfg["mode"] == "euler":
                cfg["angle_unit"] = draw(st.sampled_from(sorted(ANGLE_UNITS)))
                kinds.update(dict.fromkeys(["roll", "pitch", "yaw"], "angle"))
            else:
                cfg["order"] = draw(st.sampled_from(["wxyz", "xyzw"]))
                kinds.update({f"q{i}": i - 1 for i in range(1, 5)})
    cfg["columns"] = {field: f"{kind}_{field}" for field in kinds if field != "stamp"}
    names = ["stamp", *cfg["columns"].values()]
    kinds = {names[0]: "time", **{cfg["columns"][f]: k for f, k in kinds.items() if f != "stamp"}}
    header = draw(st.permutations(names)) + [f"extra{i}" for i in range(draw(st.integers(0, 2)))]
    repeatable = [name for name in header if not isinstance(kinds.get(name), int)]
    header += draw(st.lists(st.sampled_from(repeatable), max_size=2))  # last column wins
    lines = [delimiter.join(draw(st.sampled_from(["", " "])) + name for name in header)]
    ticks = draw(st.lists(st.integers(0, 12), min_size=1, max_size=10))
    if kind == "ahrs":  # every time, so that a body-frame DVL row finds its AHRS row
        ticks = draw(st.permutations(list(range(13)) + ticks))
    for tick in ticks:
        quat = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
            lambda q: sum(x * x for x in q) > 0.01))
        fields = []
        for name in header:
            what = kinds.get(name, "value")
            if what == "time":
                fields.append(repr(tick * 0.1 / TIME_UNITS[unit]))
            elif isinstance(what, int):
                fields.append(repr(quat[what]))
            else:
                bound = 200.0 if what == "angle" else 20.0
                fields.append(repr(draw(st.floats(-bound, bound))))
        mutation = draw(st.sampled_from(_MUTATIONS))
        if mutation == "short":
            fields = fields[:draw(st.integers(0, len(fields) - 1))]
        elif mutation == "long":
            fields += ["0"] * draw(st.integers(1, 2))
        elif mutation == "fault":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_FAULTS))
        elif mutation == "blank":
            lines.append("")
        lines.append(delimiter.join(fields))
    return cfg, "\n".join(lines) + "\n"


@st.composite
def _adapter_sources(draw):
    """An adapter description over generated sources, and the sources' text by file."""
    offset = draw(st.sampled_from([0.0, 12.5, -3.0]))
    delimiter = draw(st.sampled_from([",", ";"]))
    kinds = ["imu", "dvl", "ahrs"] + (["gt"] if draw(st.booleans()) else [])
    drawn = {kind: draw(_stream_source(kind, offset, delimiter)) for kind in kinds}
    spec = {"name": "generated", "streams": {kind: cfg for kind, (cfg, _) in drawn.items()}}
    return spec, {cfg["file"]: text for cfg, text in drawn.values()}


def _outcome(adapt_function, spec, src, out):
    """An adapt's log and the bytes it wrote by file name, or its error's type and message."""
    try:
        log = adapt_function(copy.deepcopy(spec), src, out)
    except ValueError as exc:  # the package's data and spec errors
        return None, (type(exc), str(exc))
    return log, {path.name: path.read_bytes() for path in sorted(Path(out).iterdir())}


def _gt_orientation_line(cfg) -> list:
    """The conversion line the gt stream of ``cfg`` adds to the oracle's log."""
    if not {"q1", "roll"} & set(cfg["columns"]):
        return []
    if cfg.get("mode", "quaternion") == "euler":
        return [f"euler ({cfg.get('angle_unit', 'rad')}) -> quaternion"]
    return ["quaternion order xyzw -> wxyz"] if cfg.get("order") == "xyzw" else []


class TestAgainstOracle:
    """``adapt`` writes the bytes the per-row converters of ``oracles.adapt`` wrote, with the
    same row counts, warnings and conversions, and a logged gt orientation conversion."""

    def check(self, spec, src, out):
        log, written = _outcome(adapt, spec, src, out / "new")
        old_log, old_written = _outcome(oracles.adapt, spec, src, out / "old")
        assert written == old_written
        if old_log is None:
            return
        assert (log.adapter, log.warnings) == (old_log.adapter, old_log.warnings)
        assert list(log.streams) == list(old_log.streams)
        for kind, old in old_log.streams.items():
            new = log.streams[kind]
            assert (new.file, new.rows_read, new.rows_written, new.rows_dropped) == (
                old.file, old.rows_read, old.rows_written, old.rows_dropped)
            added = _gt_orientation_line(spec["streams"]["gt"]) if kind == "gt" else []
            assert new.conversions == old.conversions + added

    @pytest.mark.parametrize("name, writer", [("girona_csv", write_girona_sources),
                                              ("bluerov2_csv", write_bluerov2_sources)])
    def test_builtin_fixtures(self, tmp_path, name, writer):
        src = tmp_path / "src"
        src.mkdir()
        writer(src)
        self.check(builtin_adapters()[name], src, tmp_path)
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == sorted(
            f"{kind}.csv" for kind in builtin_adapters()[name]["streams"])

    @settings(max_examples=150, deadline=None)
    @given(_adapter_sources())
    def test_generated_sources(self, case):
        spec, texts = case
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            src.mkdir()
            for name, text in texts.items():
                (src / name).write_text(text, encoding="utf-8")
            self.check(spec, src, Path(tmp))
