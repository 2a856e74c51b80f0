"""Dataset adapters: convert third-party CSV exports to the canonical schemas.

An adapter is a JSON document describing, per stream, which source file and
columns to read and how to convert them:

    {
      "name": "my_vehicle",
      "streams": {
        "imu": {
          "file": "imu_raw.csv",
          "time": {"column": "stamp", "unit": "us", "offset": 0.0},
          "columns": {"ax": "accX", "ay": "accY", "az": "accZ",
                      "gx": "gyrX", "gy": "gyrY", "gz": "gyrZ"},
          "accel_unit": "g", "gyro_unit": "deg/s"
        },
        "dvl":  {"file": "...", "time": {...},
                 "columns": {"vx": ..., "vy": ..., "vz": ...},
                 "velocity_unit": "mm/s", "frame": "body"},
        "ahrs": {"file": "...", "time": {...}, "mode": "quaternion",
                 "order": "xyzw",
                 "columns": {"q1": ..., "q2": ..., "q3": ..., "q4": ...}}
                 .. q1..q4 name the source columns in the source's storage
                    order; "order" says whether that order means wxyz or
                    xyzw.  Or mode "euler" with columns roll/pitch/yaw and
                    "angle_unit": "deg",
        "gt":   {... like ahrs columns plus px/py/pz, orientation optional}
      }
    }

``adapt()`` reads the sources, applies unit scales and time offsets, sorts
by time, drops unusable rows (missing fields, non-finite values, duplicate
timestamps), optionally rotates body-frame DVL velocities through the AHRS
attitude, and writes canonical CSVs.  It returns a ConversionLog recording
per-stream row counts, the conversions applied, and data-quality warnings
(including a gravity-magnitude sanity check on the accelerometer).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, SpecError
from .quat import hemisphere_align, quat_from_euler, quat_normalize
from .sensors import GroundTruthSample, dvl_body_to_nav, open_csv, save_stream

__all__ = [
    "StreamLog",
    "ConversionLog",
    "builtin_adapters",
    "resolve_adapter",
    "load_adapter",
    "adapt",
]

TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
ACCEL_UNITS = {"m/s^2": 1.0, "g": 9.80665, "mg": 9.80665e-3}
GYRO_UNITS = {"rad/s": 1.0, "deg/s": math.pi / 180.0}
VELOCITY_UNITS = {"m/s": 1.0, "mm/s": 1e-3, "cm/s": 1e-2}
ANGLE_UNITS = {"rad": 1.0, "deg": math.pi / 180.0}

_STREAM_KINDS = ("imu", "dvl", "ahrs", "gt")
_REQUIRED_STREAMS = ("imu", "dvl", "ahrs")


@dataclass
class StreamLog:
    """Row accounting for one converted stream."""

    file: str
    rows_read: int = 0
    rows_written: int = 0
    rows_dropped: int = 0
    conversions: list = field(default_factory=list)


@dataclass
class ConversionLog:
    """What adapt() did: per-stream row counts plus global warnings."""

    adapter: str
    streams: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"adapter: {self.adapter}"]
        for kind, log in self.streams.items():
            lines.append(
                f"  {kind}: read {log.rows_read} rows from {log.file}, "
                f"wrote {log.rows_written}, dropped {log.rows_dropped}"
            )
            for c in log.conversions:
                lines.append(f"    - {c}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


def _require(condition: bool, message: str):
    if not condition:
        raise SpecError(f"adapter: {message}")


def _check_unit(value: str, table: dict, what: str) -> str:
    _require(value in table, f"unknown {what} {value!r}; expected one of {sorted(table)}")
    return value


def builtin_adapters() -> dict:
    """Adapter descriptions shipped with the package, keyed by name."""
    from importlib.resources import files

    out = {}
    data_dir = files("cipgnav").joinpath("adapters_data")
    for entry in data_dir.iterdir():
        if entry.name.endswith(".json"):
            out[entry.name[: -len(".json")]] = json.loads(entry.read_text(encoding="utf-8"))
    return out


def resolve_adapter(name_or_path) -> dict:
    """Accept a builtin adapter name or a JSON file path."""
    builtins_ = builtin_adapters()
    key = str(name_or_path)
    if key in builtins_:
        return builtins_[key]
    path = Path(name_or_path)
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    raise SpecError(
        f"adapter {name_or_path!r} is neither a builtin "
        f"({sorted(builtins_)}) nor an existing file"
    )


def load_adapter(spec) -> dict:
    """Validate an adapter description, as ``resolve_adapter`` returns it, and return it.

    Anything but a dict (a JSON object) raises SpecError, a name or a path too:
    ``resolve_adapter`` turns those into a description.
    """
    _require(isinstance(spec, dict),
             f"top level must be a JSON object, got {type(spec).__name__}")
    _require("streams" in spec, "missing 'streams' section")
    streams = spec["streams"]
    _require(isinstance(streams, dict) and streams, "'streams' must be a non-empty object")
    for kind, cfg in streams.items():
        _require(kind in _STREAM_KINDS, f"unknown stream kind {kind!r}")
        _require(isinstance(cfg, dict), f"{kind}: stream config must be an object")
        _require("file" in cfg, f"{kind}: missing 'file'")
        _require("time" in cfg and "column" in cfg["time"], f"{kind}: missing time column")
        _check_unit(cfg["time"].get("unit", "s"), TIME_UNITS, f"{kind} time unit")
        _require("columns" in cfg and isinstance(cfg["columns"], dict), f"{kind}: missing 'columns'")
        cols = cfg["columns"]
        if kind == "imu":
            _require(set(cols) >= {"ax", "ay", "az", "gx", "gy", "gz"},
                     "imu: columns must map ax..az and gx..gz")
            _check_unit(cfg.get("accel_unit", "m/s^2"), ACCEL_UNITS, "accel unit")
            _check_unit(cfg.get("gyro_unit", "rad/s"), GYRO_UNITS, "gyro unit")
        elif kind == "dvl":
            _require(set(cols) >= {"vx", "vy", "vz"}, "dvl: columns must map vx, vy, vz")
            _check_unit(cfg.get("velocity_unit", "m/s"), VELOCITY_UNITS, "velocity unit")
            _require(cfg.get("frame", "nav") in ("nav", "body"),
                     f"dvl: frame must be 'nav' or 'body', got {cfg.get('frame')!r}")
        else:  # ahrs, gt
            mode = cfg.get("mode", "quaternion")
            _require(mode in ("quaternion", "euler"), f"{kind}: mode must be quaternion or euler")
            orientation = _orientation_columns(kind, cfg)
            if orientation and mode == "quaternion":
                _require(cfg.get("order", "wxyz") in ("wxyz", "xyzw"),
                         f"{kind}: quaternion order must be wxyz or xyzw")
            elif orientation:
                _check_unit(cfg.get("angle_unit", "rad"), ANGLE_UNITS, "angle unit")
            needed = set(orientation) | ({"px", "py", "pz"} if kind == "gt" else set())
            _require(set(cols) >= needed, f"{kind}: columns must map {sorted(needed)}")
    missing = [k for k in _REQUIRED_STREAMS if k not in streams]
    _require(not missing, f"missing required streams {missing} (needed to build epochs)")
    return spec


def _orientation_columns(kind: str, cfg: dict) -> list:
    """The orientation fields an ahrs or gt stream reads, by ``mode``; none for a gt
    stream that maps neither q1 nor roll."""
    if kind == "gt" and not ("q1" in cfg["columns"] or "roll" in cfg["columns"]):
        return []
    if cfg.get("mode", "quaternion") == "euler":
        return ["roll", "pitch", "yaw"]
    return ["q1", "q2", "q3", "q4"]


def _read_rows(path: Path, cfg: dict, wanted: list, log: StreamLog):
    """Return sorted (t_seconds, {name: value}) rows; drop and count unusable ones."""
    tcol = cfg["time"]["column"]
    tscale = TIME_UNITS[cfg["time"].get("unit", "s")]
    toffset = float(cfg["time"].get("offset", 0.0))
    colmap = cfg["columns"]
    delimiter = cfg.get("delimiter", ",")
    rows = []
    with open_csv(path, csv.DictReader, encoding="utf-8", delimiter=delimiter) as reader:
        if reader.fieldnames is None:
            raise ParseError("empty file", line=1, path=path)
        header = reader.fieldnames = [h.strip() for h in reader.fieldnames]
        missing = [c for c in [tcol] + [colmap[w] for w in wanted] if c not in header]
        if missing:
            raise ParseError(
                f"source columns {missing} not found in header {header}", line=1, path=path
            )
        for line_no, row in enumerate(reader, start=2):
            log.rows_read += 1
            try:
                t = float(row[tcol]) * tscale + toffset
                values = {w: float(row[colmap[w]]) for w in wanted}
            except (TypeError, ValueError, KeyError):
                log.rows_dropped += 1
                continue
            if not math.isfinite(t) or not all(math.isfinite(v) for v in values.values()):
                log.rows_dropped += 1
                continue
            rows.append((t, values))
    rows.sort(key=lambda r: r[0])
    deduped = []
    for t, values in rows:
        if deduped and t <= deduped[-1][0]:
            log.rows_dropped += 1
            continue
        deduped.append((t, values))
    return deduped


def _convert_imu(path, cfg, log: StreamLog, warnings: list):
    a_scale = ACCEL_UNITS[cfg.get("accel_unit", "m/s^2")]
    g_scale = GYRO_UNITS[cfg.get("gyro_unit", "rad/s")]
    if a_scale != 1.0:
        log.conversions.append(f"accel {cfg['accel_unit']} -> m/s^2 (x{a_scale:g})")
    if g_scale != 1.0:
        log.conversions.append(f"gyro {cfg['gyro_unit']} -> rad/s (x{g_scale:g})")
    imu = _table(_read_rows(path, cfg, ["ax", "ay", "az", "gx", "gy", "gz"], log), 6)
    imu[:, 1:4] *= a_scale
    imu[:, 4:7] *= g_scale
    if len(imu):
        norms = np.linalg.norm(imu[:200, 1:4], axis=1)
        mean_norm = float(np.mean(norms))
        if mean_norm < 5.0:
            warnings.append(
                f"imu: mean |accel| over the first {len(norms)} samples is "
                f"{mean_norm:.2f} m/s^2, far below gravity; the source may be "
                "gravity-compensated, which this pipeline does not expect"
            )
        elif mean_norm > 15.0:
            warnings.append(
                f"imu: mean |accel| over the first {len(norms)} samples is "
                f"{mean_norm:.2f} m/s^2, far above gravity; check accel_unit"
            )
    return imu


def _table(rows, n_values):
    """(n, 1 + n_values) array of ``_read_rows`` output: time, then values in wanted order."""
    return np.array([[t, *v.values()] for t, v in rows], dtype=float).reshape(-1, 1 + n_values)


def _convert_dvl(path, cfg, log: StreamLog):
    scale = VELOCITY_UNITS[cfg.get("velocity_unit", "m/s")]
    if scale != 1.0:
        log.conversions.append(f"velocity {cfg['velocity_unit']} -> m/s (x{scale:g})")
    dvl = _table(_read_rows(path, cfg, ["vx", "vy", "vz"], log), 3)
    dvl[:, 1:] *= scale
    return dvl


def _orientation_from_row(cfg, values):
    if cfg.get("mode", "quaternion") == "euler":
        scale = ANGLE_UNITS[cfg.get("angle_unit", "rad")]
        return quat_from_euler(
            scale * values["roll"], scale * values["pitch"], scale * values["yaw"]
        )
    q = np.array([values["q1"], values["q2"], values["q3"], values["q4"]])
    if cfg.get("order", "wxyz") == "xyzw":
        q = np.array([q[3], q[0], q[1], q[2]])
    return quat_normalize(q)


def _convert_ahrs(path, cfg, log: StreamLog):
    if cfg.get("mode", "quaternion") == "euler":
        log.conversions.append(f"euler ({cfg.get('angle_unit', 'rad')}) -> quaternion")
    elif cfg.get("order", "wxyz") == "xyzw":
        log.conversions.append("quaternion order xyzw -> wxyz")
    rows = _read_rows(path, cfg, _orientation_columns("ahrs", cfg), log)
    ahrs = np.empty((len(rows), 5))
    ahrs[:, 0] = [t for t, _ in rows]
    if rows:
        ahrs[:, 1:] = hemisphere_align([_orientation_from_row(cfg, v) for _, v in rows])
    return ahrs


def _convert_gt(path, cfg, log: StreamLog):
    orientation = _orientation_columns("gt", cfg)
    rows = _read_rows(path, cfg, ["px", "py", "pz", *orientation], log)
    quats = [None] * len(rows)
    if orientation and rows:
        quats = hemisphere_align([_orientation_from_row(cfg, v) for _, v in rows])
    return [GroundTruthSample(t, np.array([v["px"], v["py"], v["pz"]]), q)
            for (t, v), q in zip(rows, quats)]


def adapt(adapter, src_dir, out_dir) -> ConversionLog:
    """Convert a dataset directory to canonical CSVs.

    ``adapter`` is a builtin adapter name, a JSON file path, or a dict (see
    module docs).  Reads source files relative to ``src_dir`` and writes ``imu.csv``,
    ``dvl.csv``, ``ahrs.csv`` (plus ``gt.csv`` when described)
    into ``out_dir``.
    """
    if not isinstance(adapter, dict):
        adapter = resolve_adapter(adapter)
    spec = load_adapter(adapter)
    src_dir = Path(src_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = spec.get("name", "unnamed")
    clog = ConversionLog(adapter=name)

    converted = {}
    for kind, cfg in spec["streams"].items():
        path = src_dir / cfg["file"]
        if not path.exists():
            raise FileNotFoundError(f"adapter stream {kind!r}: source file {path} not found")
        slog = StreamLog(file=str(cfg["file"]))
        offset = float(cfg["time"].get("offset", 0.0))
        unit = cfg["time"].get("unit", "s")
        if unit != "s":
            slog.conversions.append(f"time {unit} -> s")
        if offset != 0.0:
            slog.conversions.append(f"time offset {offset:+g} s")
        if kind == "imu":
            converted[kind] = _convert_imu(path, cfg, slog, clog.warnings)
        elif kind == "dvl":
            converted[kind] = _convert_dvl(path, cfg, slog)
        elif kind == "ahrs":
            converted[kind] = _convert_ahrs(path, cfg, slog)
        else:
            converted[kind] = _convert_gt(path, cfg, slog)
        if not len(converted[kind]):
            raise ParseError(f"stream {kind!r}: no usable rows after conversion", path=path)
        clog.streams[kind] = slog

    if spec["streams"]["dvl"].get("frame", "nav") == "body":
        clog.streams["dvl"].conversions.append("body-frame velocity -> navigation frame (via AHRS)")
        converted["dvl"] = dvl_body_to_nav(converted["dvl"], converted["ahrs"])

    for kind, stream in converted.items():
        save_stream(stream, out_dir / f"{kind}.csv", kind)
        clog.streams[kind].rows_written = len(stream)
    return clog
