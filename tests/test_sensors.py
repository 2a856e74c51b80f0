"""Stream I/O, epoch synchronization, and frame/coordinate conversions."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cipgnav import sensors, sim
from cipgnav.errors import ParseError, StreamOrderError, SyncGapError
from cipgnav.quat import quat_from_yaw
from cipgnav.sensors import (
    SCHEMAS,
    dvl_body_to_nav,
    initial_nav_from_epochs,
    load_stream,
    save_stream,
    synchronize,
)
from cipgnav.sim import ScenarioSpec
from cipgnav.trajectory import FLAGS, TRAJECTORY_COLUMNS, read_trajectory
from tests.conftest import make_streams, random_unit_quat


class TestStreamIo:
    def roundtrip(self, tmp_path, samples, kind):
        path = tmp_path / f"{kind}.csv"
        save_stream(samples, path, kind)
        return load_stream(path, kind)

    def test_imu_round_trip_bitwise(self, tmp_path, rng):
        samples = np.array([
            [0.01 * (i + 1) + 1e-11 * rng.random(), *rng.normal(size=3), *rng.normal(size=3)]
            for i in range(20)
        ])
        back = self.roundtrip(tmp_path, samples, "imu")
        assert back.shape == (20, 7)
        # repr round-trip must be exact, timestamps included.
        np.testing.assert_array_equal(back, samples)

    def test_dvl_ahrs_gt_round_trip(self, tmp_path, rng):
        dvl = np.array([[0.2 * (i + 1), *rng.normal(size=3)] for i in range(5)])
        back = self.roundtrip(tmp_path, dvl, "dvl")
        np.testing.assert_array_equal(back[3, 1:], dvl[3, 1:])

        ahrs = np.array([[0.2 * (i + 1), *random_unit_quat(rng)] for i in range(5)])
        back = self.roundtrip(tmp_path, ahrs, "ahrs")
        np.testing.assert_array_equal(back[2, 1:], ahrs[2, 1:])

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("t,ax,ay,az,gx,gy,gz\n0.01,0,0,0,0,0,0\n0.02,bogus,0,0,0,0,0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_stream(path, "imu")

    def test_parse_error_on_wrong_header(self, tmp_path):
        path = tmp_path / "imu.csv"
        path.write_text("time,a1,a2,a3,g1,g2,g3\n0.01,0,0,0,0,0,0\n")
        with pytest.raises(ParseError):
            load_stream(path, "imu")

    def test_stream_order_error(self, tmp_path):
        path = tmp_path / "dvl.csv"
        path.write_text("t,vx,vy,vz\n0.2,0,0,0\n0.1,0,0,0\n")
        with pytest.raises(StreamOrderError):
            load_stream(path, "dvl")

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            load_stream(tmp_path / "x.csv", "sonar")


def _load(path, kind):
    """load_stream, or load_csv for the trajectory CSV, which load_stream does not take."""
    return sensors.load_csv(path, kind) if kind == "trajectory" else load_stream(path, kind)


def _per_row_load(path, kind):
    """_load with the bulk parse disabled: every file goes through the row loop."""
    with mock.patch.object(sensors, "_load_bulk", lambda *_: None):
        return _load(path, kind)


def _outcome(load, path, kind):
    """What a loader makes of a file: its bytes, or its exception's type, text and line."""
    try:
        out = load(path, kind)
    except Exception as exc:  # noqa: BLE001 -- any difference in what is raised counts
        return "raised", type(exc), str(exc)
    if kind != "gt":
        return "loaded", out.shape, out.tobytes()
    return "loaded", [(s.t, s.position.tobytes(),
                       None if s.orientation is None else s.orientation.tobytes()) for s in out]


# stream -> (kind, header)
_STREAMS = {
    "imu": ("imu", SCHEMAS["imu"]),
    "dvl": ("dvl", SCHEMAS["dvl"]),
    "ahrs": ("ahrs", SCHEMAS["ahrs"]),
    "gt4": ("gt", SCHEMAS["gt"][:4]),
    "gt8": ("gt", SCHEMAS["gt"]),
    "trajectory": ("trajectory", TRAJECTORY_COLUMNS),
}
_finite = st.one_of(st.floats(-10.0, 10.0),
                    st.floats(allow_nan=False, allow_infinity=False))
_formats = st.sampled_from([repr, "{:.17g}".format, "{:.3e}".format, " {!r} ".format,
                            lambda v: "+" + repr(v) if v >= 0 else repr(v)])
# Tokens the two parsers may treat differently; each replaces one field.
_bad_tokens = st.sampled_from(["nan", "-inf", "inf", "1e500", "", " ", "bogus", '"1.5"',
                               "1_000", "0x10", "\u0661", "1,", "0.5,0.5"])


@st.composite
def _stream_files(draw, mutate: bool):
    """(kind, CSV text) of a CSV with 0-12 rows; ``mutate`` may break a few of them."""
    kind, header = _STREAMS[draw(st.sampled_from(sorted(_STREAMS)))]
    numeric = header[:-1] if header[-1] == "flag" else header
    q = header.index("qw") if "qw" in header else None
    n = draw(st.integers(0 if mutate else 1, 12))
    times = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n, unique=True)))
    rows = []
    for t in times:
        values = [t, *draw(st.lists(_finite, min_size=len(numeric) - 1,
                                    max_size=len(numeric) - 1))]
        if q is not None and not mutate:
            values[q:q + 4] = draw(st.lists(st.floats(0.5, 2.0), min_size=4, max_size=4))
        fmt = draw(_formats) if mutate else repr
        flags = [draw(st.sampled_from(FLAGS))] if numeric != header else []
        rows.append([fmt(v) for v in values] + flags)
    inserted = []
    for _ in range(draw(st.integers(0, 2)) if mutate and rows else 0):
        k = draw(st.integers(0, len(rows) - 1))
        row = rows[k]
        action = draw(st.sampled_from(["token", "drop", "blank", "space", "repeat", "zero",
                                       "flag"]))
        if action == "token":
            row[draw(st.integers(0, len(row) - 1))] = draw(_bad_tokens)
        elif action == "drop":
            row.pop()
        elif action == "zero" and q is not None:
            row[q:q + 4] = ["0.0"] * 4
        elif action == "flag" and numeric != header:
            row[-1] = draw(st.sampled_from([" ok", "warmup ", '"fallback"', "OK", "1", ""]))
        else:
            inserted.append((k, {"blank": [], "space": ["  "]}.get(action, row)))
    for k, row in sorted(inserted, key=lambda item: -item[0]):
        rows.insert(k, list(row))
    newline = draw(st.sampled_from(["\n", "\r\n"])) if mutate else "\n"
    return kind, newline.join([",".join(header), *map(",".join, rows)]) + newline


class TestLoaderPaths:
    """The bulk parse must give exactly what the per-row loop gives, or leave the file to it."""

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_stream_files(mutate=False))
    def test_valid_files_take_the_bulk_path(self, tmp_path, case):
        kind, text = case
        path = tmp_path / "s.csv"
        path.write_text(text)
        bulk = sensors._load_bulk(path, kind)
        assert bulk is not None
        assert bulk.tobytes() == sensors._load_rows(path, kind).tobytes()
        assert _outcome(_load, path, kind) == _outcome(_per_row_load, path, kind)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_stream_files(mutate=True))
    def test_any_file_loads_as_the_row_loop_loads_it(self, tmp_path, case):
        kind, text = case
        path = tmp_path / "s.csv"
        path.write_text(text, newline="")
        assert _outcome(_load, path, kind) == _outcome(_per_row_load, path, kind)

    IMU = "t,ax,ay,az,gx,gy,gz\n0.01,1,2,3,4,5,6\n0.02,1,2,3,4,5,6\n"
    AHRS = "t,qw,qx,qy,qz\n0.2,1,0,0,0\n0.4,0.5,0.5,0.5,0.5\n"

    @pytest.mark.parametrize("kind, text, bulk", [
        ("imu", IMU.replace("\n", "\r\n"), True),
        ("imu", IMU.replace("\n", "\n\n"), True),
        ("imu", "t,ax,ay,az,gx,gy,gz\n", False),
        ("gt", "t,px,py,pz\n", False),
        ("imu", IMU.replace("0.02,1", '"0.02","1"'), False),
        ("imu", IMU.replace("0.02", "1_000"), False),
    ], ids=["crlf", "blank-lines", "header-only", "gt-header-only", "quoted", "underscore"])
    def test_accepted_edge_cases(self, tmp_path, kind, text, bulk):
        path = tmp_path / "s.csv"
        path.write_text(text, newline="")
        assert (sensors._load_bulk(path, kind) is not None) == bulk
        outcome = _outcome(load_stream, path, kind)
        assert outcome == _outcome(_per_row_load, path, kind)
        assert outcome[0] == "loaded"

    @pytest.mark.parametrize("kind, text, error, line", [
        ("imu", IMU.replace("0.02,1,2,3,4,5,6", "0.02,1,2,3,4,5,6,"), ParseError, 3),
        ("imu", IMU.replace("0.02,1,2,3,4,5,6", "0.02,1,2,3,4,5"), ParseError, 3),
        ("imu", IMU + "   \n", ParseError, 4),
        ("imu", IMU.replace("0.02,1,2", "0.02,nan,2"), ParseError, 3),
        ("imu", IMU.replace("0.02,1,2", "0.02,-inf,2"), ParseError, 3),
        ("imu", IMU.replace("0.02,1,2", "0.02,1e999,2"), ParseError, 3),
        ("ahrs", AHRS.replace("0.5,0.5,0.5,0.5", "0,0,0,0"), ParseError, 3),
        ("gt", "t,px,py,pz,qw,qx,qy,qz\n0.2,0,0,0,1,0,0,0\n0.4,0,0,0,0,0,0,0\n",
         ParseError, 3),
        ("imu", IMU.replace("0.02", "0.01"), StreamOrderError, 3),
    ], ids=["trailing-comma", "short-row", "whitespace-line", "nan", "inf", "overflow",
            "zero-quaternion", "gt-zero-quaternion", "repeated-timestamp"])
    def test_rejected_edge_cases(self, tmp_path, kind, text, error, line):
        path = tmp_path / "s.csv"
        path.write_text(text, newline="")
        assert sensors._load_bulk(path, kind) is None
        outcome = _outcome(load_stream, path, kind)
        assert outcome == _outcome(_per_row_load, path, kind)
        assert outcome[1] is error and f"line {line}" in outcome[2]


# The five canonical CSVs: the four sensor streams and the estimated trajectory.
_CSVS = {**SCHEMAS, "trajectory": TRAJECTORY_COLUMNS}


def _read_any(path, kind):
    """A canonical CSV through its public reader."""
    return read_trajectory(path) if kind == "trajectory" else load_stream(path, kind)


def _fault(fault, header, rows):
    """Break ``header`` or the second row (line 3) in place as ``fault`` says;
    returns the error type and the message, with ``{path}`` for the file."""
    row, q = rows[1], header.index("qw") if "qw" in header else None
    where = "{path}:line 3: "
    if fault == "overflowing-quaternion":
        row[q] = "1e200"
        return ParseError, (f"{where}quaternion {list(map(float, row[q:q + 4]))} "
                            "has a norm too large to normalize")
    if fault == "zero-quaternion":
        row[q:q + 4] = ["0.0"] * 4
        return ParseError, f"{where}cannot normalize quaternion with norm 0.000e+00"
    if fault == "non-finite":
        row[1] = "inf"
        return ParseError, f"{where}non-finite value in row {row}"
    if fault == "t-not-increasing":
        row[0] = rows[0][0]
        return StreamOrderError, "{path}: non-monotonic timestamp at t=1.0 (line 3)"
    if fault == "short-row":
        row.pop()
        return ParseError, f"{where}expected {len(header)} columns, got {len(row)}"
    if fault == "unknown-flag":
        row[-1] = "bogus"
        return ParseError, f"{where}unknown flag 'bogus'; expected one of {FLAGS}"
    if fault == "undecodable-byte":  # written as the byte 0xe9, which is not UTF-8
        row[1] = "0.5\udce9"
        return ParseError, (f"{where}non-numeric value (could not convert string to float: "
                            "'0.5\\udce9')")
    if fault in ("bad-header", "undecodable-header"):
        expected = ",".join(header)
        header[0] = "time" if fault == "bad-header" else "t\udce9"
        return ParseError, (f"{{path}}:line 1: header {','.join(header)!r} does not match "
                            f"schema {expected!r}")
    assert fault == "empty-file"
    header.clear()
    rows.clear()
    return ParseError, "{path}:line 1: empty file"


_FAULTS = ["overflowing-quaternion", "zero-quaternion", "non-finite", "t-not-increasing",
           "short-row", "unknown-flag", "bad-header", "empty-file", "undecodable-byte",
           "undecodable-header"]
_FAULT_CASES = [(fault, kind) for fault in _FAULTS for kind in _CSVS
                if ("quaternion" not in fault or "qw" in _CSVS[kind])
                and (fault != "unknown-flag" or "flag" in _CSVS[kind])]


class TestFaultTable:
    """One table of faults over all five canonical CSVs and both parser paths:
    each fault raises the same error type and message whatever the kind, and
    whether the file would take the bulk or the per-row path."""

    @staticmethod
    def write(tmp_path, kind, fault=None, quoted=False):
        header = list(_CSVS[kind])
        rows = [[{"t": f"{i + 1}.0", "flag": "ok"}.get(name, "0.5") for name in header]
                for i in range(3)]
        error = _fault(fault, header, rows) if fault else None
        if quoted and rows:  # loadtxt refuses a quoted field; the row loop reads it
            rows[0][0] = f'"{rows[0][0]}"'
        path = tmp_path / ("quoted.csv" if quoted else "plain.csv")
        path.write_text("".join(",".join(line) + "\n" for line in [header, *rows] if line),
                        encoding="utf-8", errors="surrogateescape")
        return path, error

    @pytest.mark.parametrize("kind", sorted(_CSVS))
    def test_clean_files_take_either_path_to_the_same_values(self, tmp_path, kind):
        plain, _ = self.write(tmp_path, kind)
        quoted, _ = self.write(tmp_path, kind, quoted=True)
        assert sensors._load_bulk(plain, kind) is not None
        assert sensors._load_bulk(quoted, kind) is None
        assert sensors.load_csv(plain, kind).tobytes() == sensors.load_csv(quoted, kind).tobytes()
        _read_any(plain, kind)

    @pytest.mark.parametrize("quoted", [False, True], ids=["bulk", "per-row"])
    @pytest.mark.parametrize("fault, kind", _FAULT_CASES,
                             ids=[f"{fault}-{kind}" for fault, kind in _FAULT_CASES])
    def test_fault_gives_one_error_for_every_kind_and_path(self, tmp_path, fault, kind, quoted):
        path, (error, message) = self.write(tmp_path, kind, fault, quoted)
        with pytest.raises(error) as raised:
            _read_any(path, kind)
        assert type(raised.value) is error
        assert str(raised.value) == message.format(path=path)

    @pytest.mark.parametrize("fault", ["undecodable-byte", "undecodable-header"])
    @pytest.mark.parametrize("kind", sorted(_CSVS))
    def test_undecodable_byte_on_each_loader_path(self, tmp_path, kind, fault):
        # A byte that is not UTF-8 once escaped as a UnicodeDecodeError naming
        # neither the file nor the line.  The bulk parse names a bad header
        # itself and leaves a bad body to the row loop.
        path, (_, message) = self.write(tmp_path, kind, fault)
        assert b"\xe9" in path.read_bytes()
        with pytest.raises(ParseError) as raised:
            sensors._load_rows(path, kind)
        assert str(raised.value) == message.format(path=path)
        if fault == "undecodable-byte":
            assert sensors._load_bulk(path, kind) is None
        else:
            with pytest.raises(ParseError, match=":line 1: header"):
                sensors._load_bulk(path, kind)


class TestSynchronize:
    def test_epoch_layout_at_nominal_rates(self):
        # 2 s of 100 Hz IMU against 5 Hz DVL/AHRS: 10 epochs of 20 samples.
        imu, dvl, ahrs = make_streams(duration=2.0, imu_rate=100.0, meas_rate=5.0)
        epochs = synchronize(imu, dvl, ahrs)
        assert len(epochs) == 10
        assert all(len(e.imu_burst) == 20 for e in epochs)
        # Bursts partition the IMU stream in order.
        np.testing.assert_array_equal(np.concatenate([e.imu_burst for e in epochs]), imu)
        # t_prev chains epoch timestamps; the first reaches one IMU period
        # before the first sample.
        assert epochs[0].t_prev == pytest.approx(0.0, abs=1e-12)
        for prev, cur in zip(epochs, epochs[1:]):
            assert cur.t_prev == prev.t

    def test_uncovered_dvl_epochs_are_skipped(self):
        imu, dvl, ahrs = make_streams(duration=2.0)
        late = np.array([[5.0, 0.0, 0.0, 0.0]])
        epochs = synchronize(imu, np.concatenate([dvl, late]), ahrs)
        assert len(epochs) == 10

    def test_missing_ahrs_raises_gap_error(self):
        imu, dvl, ahrs = make_streams(duration=2.0)
        with pytest.raises(SyncGapError, match="AHRS"):
            synchronize(imu, dvl, ahrs[:4])

    def test_empty_burst_raises_gap_error(self):
        imu, dvl, ahrs = make_streams(duration=2.0)
        # Two DVL epochs inside one IMU period leave the second without samples.
        crowded = np.insert(dvl, 1, [dvl[0, 0] + 1e-4, 0.0, 0.0, 0.0], axis=0)
        with pytest.raises(SyncGapError, match="IMU"):
            synchronize(imu, crowded, ahrs)

    def test_dvl_times_that_do_not_increase_rejected(self):
        imu, dvl, ahrs = make_streams(duration=2.0)
        with pytest.raises(StreamOrderError,
                           match=r"^dvl t does not increase at row 1: t=1\.8 after t=2\.0$"):
            synchronize(imu, dvl[::-1], ahrs)

    @pytest.mark.parametrize("stream, row", [("dvl", 4), ("ahrs", 4), ("imu", 51)])
    @pytest.mark.parametrize("fault", ["swapped", "repeated"])
    def test_times_that_do_not_increase_rejected(self, stream, row, fault):
        # Swapped DVL rows 3 and 4 once gave the epoch at t=0.8 an empty burst
        # and the next epoch 40 IMU rows, and both estimators ran through them.
        run = sim.generate(ScenarioSpec(kind="line", duration=2.0))
        arrays = {"imu": run.imu.copy(), "dvl": run.dvl.copy(), "ahrs": run.ahrs.copy()}
        rows = arrays[stream]
        if fault == "swapped":
            rows[[row - 1, row]] = rows[[row, row - 1]]
        else:
            rows[row, 0] = rows[row - 1, 0]
        prev, t = rows[row - 1:row + 1, 0].tolist()
        message = f"^{stream} t does not increase at row {row}: t={t!r} after t={prev!r}$"
        with pytest.raises(StreamOrderError, match=message.replace(".", r"\.")):
            synchronize(**arrays)
        if stream != "imu":
            with pytest.raises(StreamOrderError, match=message.replace(".", r"\.")):
                dvl_body_to_nav(arrays["dvl"], arrays["ahrs"])

    def test_equidistant_ahrs_tie_takes_the_earlier_sample(self):
        # Binary-exact times: the DVL sample at 1.0 lies 0.25 s from the AHRS
        # samples at 0.75 and 1.25, exactly the tolerance (half the 0.5 s DVL period).
        imu = np.column_stack([np.arange(17) * 0.125, np.zeros((17, 6))])
        dvl = np.array([[t, 0.0, 0.0, 0.0] for t in (0.5, 1.0, 1.5)])
        ahrs = np.array([[t, *quat_from_yaw(yaw)] for t, yaw in ((0.75, 0.1), (1.25, 0.2))])
        epochs = synchronize(imu, dvl, ahrs)
        assert [e.t for e in epochs] == [0.5, 1.0, 1.5]
        for epoch, row in zip(epochs, [0, 0, 1]):
            np.testing.assert_array_equal(epoch.ahrs, ahrs[row, 1:])

    def test_no_overlap_raises(self):
        imu, dvl, ahrs = make_streams(duration=2.0)
        shifted = dvl + [100.0, 0.0, 0.0, 0.0]
        with pytest.raises(SyncGapError):
            synchronize(imu, shifted, ahrs)

    def test_requires_nonempty_streams(self):
        imu, dvl, ahrs = make_streams(duration=1.0)
        with pytest.raises(ValueError):
            synchronize(np.empty((0, 7)), dvl, ahrs)


class TestFrames:
    def test_dvl_body_to_nav_quarter_turn(self):
        # Heading 90 deg: body-forward becomes nav +y.
        dvl = np.array([[1.0, 1.0, 0.0, 0.0]])
        ahrs = np.array([[1.0, *quat_from_yaw(np.pi / 2)]])
        out = dvl_body_to_nav(dvl, ahrs)
        np.testing.assert_allclose(out[0, 1:], [0.0, 1.0, 0.0], atol=1e-12)
        assert out[0, 0] == 1.0

    def test_dvl_body_to_nav_needs_ahrs_coverage(self):
        dvl = np.array([[50.0, 1.0, 1.0, 1.0]])
        ahrs = np.array([[1.0, 1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(SyncGapError):
            dvl_body_to_nav(dvl, ahrs)


class TestInitialState:
    def test_reads_first_epoch(self):
        imu, dvl, ahrs = make_streams(duration=2.0, velocity=(0.3, -0.1, 0.0))
        nav = initial_nav_from_epochs(synchronize(imu, dvl, ahrs))
        np.testing.assert_allclose(nav.position, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(nav.velocity, [0.3, -0.1, 0.0])
        np.testing.assert_allclose(nav.orientation, [1.0, 0.0, 0.0, 0.0])
