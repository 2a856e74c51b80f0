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

A stream may also set ``"delimiter"`` (one character, "," by default) and a
``"time"`` ``"offset"`` in seconds (a finite number, 0 by default).

``adapt()`` reads each source stream into one float array: its time column
and mapped fields, with unit scales and the time offset applied.  It drops
unusable rows (a field that is missing, not a number, not UTF-8, or not
finite once scaled; a quaternion of zero or overflowing norm), sorts by time and keeps
the first row of each repeated time, converts orientations to
hemisphere-aligned unit quaternions, optionally rotates body-frame DVL
velocities through the AHRS attitude, and writes canonical CSVs.  It returns
a ConversionLog recording per-stream row counts, the conversions applied, and
data-quality warnings (including a gravity-magnitude sanity check on the
accelerometer).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, SpecError
from .quat import _NORM_EPS, hemisphere_align, quat_from_euler, row_norms, unit_rows
from .sensors import SCHEMAS, dvl_body_to_nav, open_csv, write_csv

__all__ = [
    "StreamLog",
    "ConversionLog",
    "builtin_adapters",
    "resolve_adapter",
    "read_json",
    "load_adapter",
    "adapt",
]

TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
ACCEL_UNITS = {"m/s^2": 1.0, "g": 9.80665, "mg": 9.80665e-3}
GYRO_UNITS = {"rad/s": 1.0, "deg/s": math.pi / 180.0}
VELOCITY_UNITS = {"m/s": 1.0, "mm/s": 1e-3, "cm/s": 1e-2}
ANGLE_UNITS = {"rad": 1.0, "deg": math.pi / 180.0}

# Per stream kind: the value fields, in the order of the canonical columns, and the
# unit options that scale them: (what, config key, SI unit and default, unit table,
# the array columns scaled, time being column 0).  ahrs and gt add orientation.
_KINDS = {
    "imu": (("ax", "ay", "az", "gx", "gy", "gz"),
            (("accel", "accel_unit", "m/s^2", ACCEL_UNITS, slice(1, 4)),
             ("gyro", "gyro_unit", "rad/s", GYRO_UNITS, slice(4, 7)))),
    "dvl": (("vx", "vy", "vz"),
            (("velocity", "velocity_unit", "m/s", VELOCITY_UNITS, slice(1, 4)),)),
    "ahrs": ((), ()),
    "gt": (("px", "py", "pz"), ()),
}
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


def read_json(path):
    """The JSON value of the file at ``path``.  Text that is not UTF-8, or not
    JSON, raises SpecError naming the file, and for JSON the line."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise SpecError(f"{path}: not UTF-8 text") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}:{exc.lineno}: not valid JSON: {exc.msg} "
                        f"(column {exc.colno})") from None


def resolve_adapter(name_or_path) -> dict:
    """Accept a builtin adapter name or a JSON file path."""
    builtins_ = builtin_adapters()
    key = str(name_or_path)
    if key in builtins_:
        return builtins_[key]
    path = Path(name_or_path)
    if path.exists():
        return read_json(path)
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
        _require(kind in _KINDS, f"unknown stream kind {kind!r}")
        _require(isinstance(cfg, dict), f"{kind}: stream config must be an object")
        _require("file" in cfg, f"{kind}: missing 'file'")
        time = cfg.get("time")
        _require(isinstance(time, dict) and "column" in time, f"{kind}: missing time column")
        _check_unit(time.get("unit", "s"), TIME_UNITS, f"{kind} time unit")
        try:
            offset = float(time.get("offset", 0.0))
        except (TypeError, ValueError, OverflowError):
            offset = math.nan
        _require(math.isfinite(offset),
                 f"{kind}: time offset must be a finite number, got {time.get('offset')!r}")
        delimiter = cfg.get("delimiter", ",")
        _require(isinstance(delimiter, str) and len(delimiter) == 1,
                 f"{kind}: delimiter must be one character, got {delimiter!r}")
        _require("columns" in cfg and isinstance(cfg["columns"], dict), f"{kind}: missing 'columns'")
        values, units = _KINDS[kind]
        for what, key, si, table, _ in units:
            _check_unit(cfg.get(key, si), table, f"{what} unit")
        _require(kind != "dvl" or cfg.get("frame", "nav") in ("nav", "body"),
                 f"dvl: frame must be 'nav' or 'body', got {cfg.get('frame')!r}")
        _require(kind in ("imu", "dvl") or cfg.get("mode", "quaternion") in ("quaternion", "euler"),
                 f"{kind}: mode must be quaternion or euler")
        orientation = _orientation_columns(kind, cfg)
        if len(orientation) == 4:
            _require(cfg.get("order", "wxyz") in ("wxyz", "xyzw"),
                     f"{kind}: quaternion order must be wxyz or xyzw")
        elif orientation:
            _check_unit(cfg.get("angle_unit", "rad"), ANGLE_UNITS, "angle unit")
        needed = {*values, *orientation}
        _require(set(cfg["columns"]) >= needed, f"{kind}: columns must map {sorted(needed)}")
    missing = [k for k in _REQUIRED_STREAMS if k not in streams]
    _require(not missing, f"missing required streams {missing} (needed to build epochs)")
    return spec


def _orientation_columns(kind: str, cfg: dict) -> list:
    """The orientation fields a stream reads: roll, pitch and yaw in mode euler, else
    q1..q4 taken scalar first (q4 first in ``order`` xyzw); none for imu and dvl, nor
    for a gt stream that maps neither q1 nor roll."""
    if kind in ("imu", "dvl") or kind == "gt" and not {"q1", "roll"} & set(cfg["columns"]):
        return []
    if cfg.get("mode", "quaternion") == "euler":
        return ["roll", "pitch", "yaw"]
    return ["q4", "q1", "q2", "q3"] if cfg.get("order") == "xyzw" else ["q1", "q2", "q3", "q4"]


def _numbers(row, cols) -> list:
    """Fields ``cols`` of a source row as floats, all NaN if one is missing or not a number."""
    try:
        return [float(row[i]) for i in cols]
    except (IndexError, ValueError):
        return [math.nan] * len(cols)


def _read(path, cfg, fields) -> np.ndarray:
    """The time and ``fields`` columns of a source CSV's rows as one float array, NaN
    where a row cannot give them.  A repeated header name names its last column."""
    with open_csv(path, delimiter=cfg.get("delimiter", ",")) as reader:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file", line=1, path=path)
        header = [h.strip() for h in header]
        names = [cfg["time"]["column"], *(cfg["columns"][f] for f in fields)]
        missing = [c for c in names if c not in header]
        if missing:
            raise ParseError(
                f"source columns {missing} not found in header {header}", line=1, path=path
            )
        index = {name: i for i, name in enumerate(header)}
        cols = [index[c] for c in names]
        return np.array([_numbers(row, cols) for row in reader if row]).reshape(-1, len(cols))


def _convert(path, kind, cfg, log: StreamLog) -> np.ndarray:
    """A source stream as an array in the canonical columns of ``kind``: rows dropped,
    sorted and de-duplicated as the module docs say, conversions logged."""
    values, units = _KINDS[kind]
    orientation = _orientation_columns(kind, cfg)
    unit, offset = cfg["time"].get("unit", "s"), float(cfg["time"].get("offset", 0.0))
    if unit != "s":
        log.conversions.append(f"time {unit} -> s")
    if offset != 0.0:
        log.conversions.append(f"time offset {offset:+g} s")
    scales = np.ones(1 + len(values) + len(orientation))
    scales[0] = TIME_UNITS[unit]
    for what, key, si, table, columns in units:
        scales[columns] = scale = table[cfg.get(key, si)]
        if scale != 1.0:
            log.conversions.append(f"{what} {cfg[key]} -> {si} (x{scale:g})")
    if len(orientation) == 3:
        scales[-3:] = ANGLE_UNITS[cfg.get("angle_unit", "rad")]
        log.conversions.append(f"euler ({cfg.get('angle_unit', 'rad')}) -> quaternion")
    elif orientation and cfg.get("order", "wxyz") == "xyzw":
        log.conversions.append("quaternion order xyzw -> wxyz")

    data = _read(path, cfg, [*values, *orientation])
    log.rows_read = len(data)
    with np.errstate(over="ignore"):  # an overflow gives inf, and drops the row
        data *= scales
        data[:, 0] += offset
        keep = np.isfinite(data).all(axis=1)
        if len(orientation) == 4:  # and so does a quaternion of zero or overflowing norm
            norms = row_norms(data[:, -4:])
            keep &= (norms > _NORM_EPS) & (norms < math.inf)
    data = data[keep]
    if not len(data):
        raise ParseError(f"stream {kind!r}: no usable rows after conversion", path=path)
    data = data[np.argsort(data[:, 0], kind="stable")]
    data = data[np.r_[True, data[1:, 0] > data[:-1, 0]]]  # the first row of each time
    log.rows_dropped = log.rows_read - len(data)
    if not orientation:
        return data
    if len(orientation) == 3:
        quats = quat_from_euler(*data[:, -3:].T)
    else:
        quats = unit_rows(data[:, -4:])[0]
    return np.hstack([data[:, :1 + len(values)], hemisphere_align(quats)])


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
        clog.streams[kind] = StreamLog(file=str(cfg["file"]))
        converted[kind] = _convert(path, kind, cfg, clog.streams[kind])

    norms = row_norms(converted["imu"][:200, 1:4])
    mean_norm = float(np.mean(norms))
    if not 5.0 <= mean_norm <= 15.0:
        advice = ("below gravity; the source may be gravity-compensated, which this pipeline "
                  "does not expect" if mean_norm < 5.0 else "above gravity; check accel_unit")
        clog.warnings.append(f"imu: mean |accel| over the first {len(norms)} samples is "
                             f"{mean_norm:.2f} m/s^2, far {advice}")

    if spec["streams"]["dvl"].get("frame", "nav") == "body":
        clog.streams["dvl"].conversions.append("body-frame velocity -> navigation frame (via AHRS)")
        converted["dvl"] = dvl_body_to_nav(converted["dvl"], converted["ahrs"])

    for kind, stream in converted.items():
        write_csv(stream, out_dir / f"{kind}.csv", kind, SCHEMAS[kind][:stream.shape[1]])
        clog.streams[kind].rows_written = len(stream)
    return clog
