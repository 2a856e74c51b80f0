"""Stream I/O, epoch synchronization, and frame/coordinate conversions."""

from __future__ import annotations

import numpy as np
import pytest

from cipgnav.errors import ParseError, StreamOrderError, SyncGapError
from cipgnav.quat import quat_from_yaw
from cipgnav.sensors import (
    AhrsSample,
    DvlSample,
    ImuSample,
    dvl_body_to_nav,
    initial_nav_from_epochs,
    load_stream,
    save_stream,
    synchronize,
)
from tests.conftest import make_streams, random_unit_quat


class TestStreamIo:
    def roundtrip(self, tmp_path, samples, kind):
        path = tmp_path / f"{kind}.csv"
        save_stream(samples, path, kind)
        return load_stream(path, kind)

    def test_imu_round_trip_bitwise(self, tmp_path, rng):
        samples = [
            ImuSample(t=0.01 * (i + 1) + 1e-11 * rng.random(),
                      accel=rng.normal(size=3), gyro=rng.normal(size=3))
            for i in range(20)
        ]
        back = self.roundtrip(tmp_path, samples, "imu")
        assert len(back) == 20
        for a, b in zip(samples, back):
            assert a.t == b.t  # repr round-trip must be exact
            np.testing.assert_array_equal(a.accel, b.accel)
            np.testing.assert_array_equal(a.gyro, b.gyro)

    def test_dvl_ahrs_gt_round_trip(self, tmp_path, rng):
        dvl = [DvlSample(t=0.2 * (i + 1), velocity=rng.normal(size=3)) for i in range(5)]
        back = self.roundtrip(tmp_path, dvl, "dvl")
        np.testing.assert_array_equal(back[3].velocity, dvl[3].velocity)

        ahrs = [AhrsSample(t=0.2 * (i + 1), orientation=random_unit_quat(rng)) for i in range(5)]
        back = self.roundtrip(tmp_path, ahrs, "ahrs")
        np.testing.assert_array_equal(back[2].orientation, ahrs[2].orientation)

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


class TestSynchronize:
    def test_epoch_layout_at_nominal_rates(self):
        # 2 s of 100 Hz IMU against 5 Hz DVL/AHRS: 10 epochs of 20 samples.
        imu, dvl, ahrs = make_streams(duration=2.0, imu_rate=100.0, meas_rate=5.0)
        epochs = synchronize(imu, dvl, ahrs)
        assert len(epochs) == 10
        assert all(len(e.imu_burst) == 20 for e in epochs)
        # Bursts partition the IMU stream in order.
        flat = [s.t for e in epochs for s in e.imu_burst]
        assert flat == [s.t for s in imu]
        # t_prev chains epoch timestamps; the first reaches one IMU period
        # before the first sample.
        assert epochs[0].t_prev == pytest.approx(0.0, abs=1e-12)
        for prev, cur in zip(epochs, epochs[1:]):
            assert cur.t_prev == prev.t

    def test_uncovered_dvl_epochs_are_skipped(self):
        imu, dvl, ahrs = make_streams(duration=2.0)
        late = [DvlSample(t=5.0, velocity=np.zeros(3))]
        epochs = synchronize(imu, dvl + late, ahrs)
        assert len(epochs) == 10

    def test_missing_ahrs_raises_gap_error(self):
        imu, dvl, ahrs = make_streams(duration=2.0)
        with pytest.raises(SyncGapError, match="AHRS"):
            synchronize(imu, dvl, ahrs[:4])

    def test_empty_burst_raises_gap_error(self):
        imu, dvl, ahrs = make_streams(duration=2.0)
        # Two DVL epochs inside one IMU period leave the second without samples.
        crowded = sorted(dvl + [DvlSample(t=dvl[0].t + 1e-4, velocity=np.zeros(3))],
                         key=lambda s: s.t)
        with pytest.raises(SyncGapError, match="IMU"):
            synchronize(imu, crowded, ahrs)

    def test_no_overlap_raises(self):
        imu, dvl, ahrs = make_streams(duration=2.0)
        shifted = [DvlSample(t=s.t + 100.0, velocity=s.velocity) for s in dvl]
        with pytest.raises(SyncGapError):
            synchronize(imu, shifted, ahrs)

    def test_requires_nonempty_streams(self):
        imu, dvl, ahrs = make_streams(duration=1.0)
        with pytest.raises(ValueError):
            synchronize([], dvl, ahrs)


class TestFrames:
    def test_dvl_body_to_nav_quarter_turn(self):
        # Heading 90 deg: body-forward becomes nav +y.
        dvl = [DvlSample(t=1.0, velocity=np.array([1.0, 0.0, 0.0]))]
        ahrs = [AhrsSample(t=1.0, orientation=quat_from_yaw(np.pi / 2))]
        out = dvl_body_to_nav(dvl, ahrs)
        np.testing.assert_allclose(out[0].velocity, [0.0, 1.0, 0.0], atol=1e-12)
        assert out[0].t == 1.0

    def test_dvl_body_to_nav_needs_ahrs_coverage(self):
        dvl = [DvlSample(t=50.0, velocity=np.ones(3))]
        ahrs = [AhrsSample(t=1.0, orientation=np.array([1.0, 0, 0, 0]))]
        with pytest.raises(SyncGapError):
            dvl_body_to_nav(dvl, ahrs)


class TestInitialState:
    def test_reads_first_epoch(self):
        imu, dvl, ahrs = make_streams(duration=2.0, velocity=(0.3, -0.1, 0.0))
        nav = initial_nav_from_epochs(synchronize(imu, dvl, ahrs))
        np.testing.assert_allclose(nav.position, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(nav.velocity, [0.3, -0.1, 0.0])
        np.testing.assert_allclose(nav.orientation, [1.0, 0.0, 0.0, 0.0])
