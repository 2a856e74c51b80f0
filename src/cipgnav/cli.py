"""Command-line interface.

Subcommands:

    simulate   generate a synthetic scenario and write canonical CSV streams
    adapt      convert a third-party dataset directory to canonical CSVs
    estimate   run an estimator (cipg / ekf / inekf) over sensor streams
    evaluate   score an estimated trajectory against ground truth
    compare    run several estimators on the same data, side by side

Options resolve in order: command line > --config file (``key = value``
lines, ``#`` comments) > defaults.  An option that sets a field of a library
config defaults to that field's default (see ``DEFAULTS``), and the builders
map options to config fields by name.  ``--print-config`` shows the resolved
values and exits without running.

``estimate`` writes a metadata JSON next to the trajectory recording every
resolved parameter, the input provenance, a ``sha256-v2:`` digest of the
synchronized epoch stream (see ``hash_epochs``), runtime, and
warmup/fallback counts.  ``--from-metadata`` replays such a file and
reproduces the trajectory byte for byte (the epoch digest is re-checked so
silent input changes are caught); it takes no other option, input or config
file.  Metadata of earlier versions, whose
``sha256:`` digest hashed the text of the values, is refused.

Exit codes: 0 success; 1 estimation failure (divergence, numerical
breakdown, impossible alignment); 2 bad usage or configuration; 3 missing
or malformed input files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .adapters import adapt as run_adapt
from .adapters import read_json
from .baselines import FilterConfig, run_ekf, run_inekf
from .cascade import CascadeConfig, run_cascade
from .errors import (
    AlignmentError,
    DegenerateQuaternionError,
    DivergenceError,
    NumericalError,
    ParseError,
    SpecError,
    StreamOrderError,
    SyncGapError,
    _real,
)
from .ipg import IpgParams
from .metrics import (
    MetricsConfig,
    evaluate_trajectories,
    pair_trajectories,
    score_pair,
    truth_from_gt,
    write_error_series,
    write_report,
)
from .preintegration import GravityModel, ImuBiases, NavState
from .sensors import dvl_body_to_nav, load_stream, synchronize
from .sim import NoiseSpec, ScenarioSpec, _UnknownKeys, generate
from .trajectory import FLAGS, TRAJECTORY_COLUMNS, read_trajectory, write_trajectory

ESTIMATORS = ("cipg", "ekf", "inekf")
_INITIAL_FIELDS = ("position", "velocity", "orientation")  # the metadata's initial NavState


# ---------------------------------------------------------------------------
# option schema and resolution


def _parse_vec3(text: str) -> tuple:
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {text!r}")
    values = tuple(float(p) for p in parts)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"expected three finite numbers, got {text!r}")
    return values


def _parse_waypoints(text: str) -> tuple:
    pts = []
    for chunk in str(text).split(";"):
        chunk = chunk.strip()
        if chunk:
            pts.append(_parse_vec3(chunk))
    if len(pts) < 2:
        raise ValueError(f"expected at least two 'x,y,z' waypoints separated by ';', got {text!r}")
    return tuple(pts)


# name -> (parser, help); scenario options shared by simulate /
# estimate --scenario / compare --scenario.  Defaults are in DEFAULTS.
SCENARIO_OPTS = {
    "scenario": (str, "trajectory kind: stationary|line|circle|lawnmower|waypoints"),
    "duration": (float, "run length in seconds"),
    "speed": (float, "cruise speed m/s"),
    "imu_rate": (float, "IMU rate Hz"),
    "meas_rate": (float, "DVL/AHRS rate Hz"),
    "circle_radius": (float, "circle radius m"),
    "lawnmower_leg": (float, "lawnmower leg length m"),
    "lawnmower_spacing": (float, "lawnmower track spacing m"),
    "waypoints": (_parse_waypoints, "waypoint tour 'x,y,z;x,y,z;...'"),
    "initial_heading": (float, "initial yaw rad"),
    "dvl_frame": (str, "frame of the generated DVL stream: nav|body"),
    "noise": (str, "noise preset: none|bluerov2"),
    "accel_density": (float, "override accel noise density (m/s^2/sqrt(Hz))"),
    "gyro_density": (float, "override gyro noise density (rad/s/sqrt(Hz))"),
    "dvl_std": (float, "override DVL noise std (m/s)"),
    "ahrs_std": (float, "override AHRS noise std (rad)"),
    "seed": (int, "RNG seed"),
}
_NOISE_OVERRIDES = ("accel_density", "gyro_density", "dvl_std", "ahrs_std")

# The IMU model: simulate draws the IMU stream with it, the estimators assume it.
IMU_MODEL_OPTS = {
    "accel_bias": (_parse_vec3, "accelerometer bias 'x,y,z' (m/s^2)"),
    "gyro_bias": (_parse_vec3, "gyro bias 'x,y,z' (rad/s)"),
    "gravity": (_parse_vec3, "gravity vector 'x,y,z' (m/s^2)"),
}

ESTIMATOR_OPTS = {
    "estimator": (str, "estimator: cipg|ekf|inekf"),
    "horizon": (int, "window length N (epochs)"),
    "iterations": (int, "inner iterations d per epoch"),
    "alpha": (float, "preconditioner step size"),
    "delta": (float, "iterate step size"),
    "k0_scale": (float, "initial preconditioner scale"),
    "fallback": (str, "on divergence: abort|deadreckon"),
    "p0_scale": (float, "filter initial covariance scale"),
    "r_scale": (float, "filter measurement covariance scale"),
    "q_pos": (float, "filter process noise, position"),
    "q_vel": (float, "filter process noise, velocity"),
    "q_att": (float, "filter process noise, attitude"),
    **IMU_MODEL_OPTS,
}

# Named as the MetricsConfig fields they set; compare never aligns.
COMPARE_METRIC_OPTS = {
    "rpe_delta": (float, "RPE horizon in seconds"),
    "lever_arm": (float, "lever arm (m) folding attitude error into metres"),
}
EVALUATE_OPTS = {
    **COMPARE_METRIC_OPTS,
    "n_align_fixes": (int, "samples used for yaw+translation alignment"),
}


def _defaults() -> dict:
    """Each option's default.  An option named as a field of a library config
    defaults to that field's default; the renamed and derived ones to the
    values they are built from; the CLI's own ones are stated here."""
    spec, filters = ScenarioSpec(), FilterConfig()
    configs = (spec, IpgParams(), CascadeConfig(), filters, MetricsConfig())
    defaults = {
        **{f.name: getattr(config, f.name) for config in configs for f in fields(config)},
        "scenario": spec.kind,
        "accel_bias": tuple(spec.biases.accel.tolist()),
        "gyro_bias": tuple(spec.biases.gyro.tolist()),
        "gravity": tuple(spec.gravity.vector.tolist()),
        "r_scale": float(filters.r_vel[0]),
        "estimator": "cipg",
        "noise": "none",
        **dict.fromkeys(_NOISE_OVERRIDES),
    }
    return {name: defaults[name] for name in {**SCENARIO_OPTS, **ESTIMATOR_OPTS, **EVALUATE_OPTS}}


DEFAULTS = _defaults()


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _load_config_file(path) -> dict:
    out = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, start=1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            try:
                s.encode("utf-8")  # refuses the surrogate that an undecodable byte reads as
            except UnicodeEncodeError:
                raise SpecError(f"{path}:{line_no}: not UTF-8 text: {s!r}") from None
            if "=" not in s:
                raise SpecError(f"{path}:{line_no}: expected 'key = value', got {s!r}")
            key, value = s.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def resolve_options(args, *schemas) -> dict:
    """Merge CLI values, --config file entries, and defaults into one dict."""
    merged_schema = {}
    for schema in schemas:
        merged_schema.update(schema)
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = [k for k in file_cfg if k not in merged_schema]
    if unknown:
        raise SpecError(f"config file: unknown keys {sorted(unknown)}")
    resolved = {}
    for name, (parse, _help) in merged_schema.items():
        cli_value = getattr(args, name, None)
        if cli_value is not None:
            resolved[name] = cli_value
        elif name in file_cfg:
            try:
                resolved[name] = parse(file_cfg[name])
            except ValueError as exc:
                raise SpecError(f"config file: bad value for {name}: {exc}") from None
        else:
            resolved[name] = DEFAULTS[name]
    return resolved


def _print_config(cfg: dict) -> None:
    for key in sorted(cfg):
        print(f"{key} = {cfg[key]}")


# ---------------------------------------------------------------------------
# builders


def _imu_model(cfg: dict) -> dict:
    """The ``biases`` and ``gravity`` keyword arguments of the IMU_MODEL_OPTS in cfg."""
    return {"biases": ImuBiases(cfg["accel_bias"], cfg["gyro_bias"]),
            "gravity": GravityModel(cfg["gravity"])}


def _from_options(cls, cfg: dict, **explicit):
    """A ``cls`` of the options in cfg named as its fields, and of ``explicit``, which
    holds the renamed and derived fields and wins over an option of the same name."""
    return cls(**{**{f.name: cfg[f.name] for f in fields(cls) if f.name in cfg}, **explicit})


def build_scenario(cfg: dict) -> ScenarioSpec:
    overrides = {k: cfg[k] for k in _NOISE_OVERRIDES if cfg[k] is not None}
    noise = replace(NoiseSpec.preset(cfg["noise"]), **overrides)
    return _from_options(ScenarioSpec, cfg, kind=cfg["scenario"], noise=noise, **_imu_model(cfg))


def _estimator_params(cfg: dict) -> dict:
    return {k: cfg[k] for k in ESTIMATOR_OPTS if k != "estimator"}


def build_cascade_config(cfg: dict, initial: NavState | None) -> CascadeConfig:
    return _from_options(CascadeConfig, cfg, params=_from_options(IpgParams, cfg),
                         initial=initial, **_imu_model(cfg))


def build_filter_config(cfg: dict) -> FilterConfig:
    r = _real("r_scale", cfg["r_scale"], "positive") * np.ones(3)  # FilterConfig names r_vel
    return _from_options(FilterConfig, cfg, r_vel=r, r_att=r, **_imu_model(cfg))


def build_estimator_config(name: str, cfg: dict):
    """The named estimator's config, without an initial state.

    Built before any input is loaded, so that a bad parameter is reported at
    once.
    """
    if name == "cipg":
        return build_cascade_config(cfg, None)
    if name in ("ekf", "inekf"):
        return build_filter_config(cfg)
    raise SpecError(f"unknown estimator {name!r}; expected one of {ESTIMATORS}")


def run_estimator(name: str, epochs, config, initial: NavState | None):
    if name == "cipg":
        return run_cascade(epochs, replace(config, initial=initial))
    return {"ekf": run_ekf, "inekf": run_inekf}[name](epochs, config, initial)


def _f8_bytes(rows) -> bytes:
    return np.asarray(rows, dtype="<f8").tobytes()


def hash_epochs(epochs) -> str:
    """Order- and value-exact SHA-256 of a synchronized epoch stream.

    The digest covers the little-endian float64 bytes of each epoch's
    ``(t, t_prev, burst length)``, then the IMU bursts concatenated, then the
    DVL rows, then the AHRS rows; the burst lengths pin where each burst ends.
    """
    h = hashlib.sha256(_f8_bytes([(e.t, e.t_prev, len(e.imu_burst)) for e in epochs]))
    for e in epochs:
        h.update(_f8_bytes(e.imu_burst))
    h.update(_f8_bytes([e.dvl for e in epochs]))
    h.update(_f8_bytes([e.ahrs for e in epochs]))
    return "sha256-v2:" + h.hexdigest()


def _load_epoch_dir(input_dir: Path, dvl_frame: str):
    imu = load_stream(input_dir / "imu.csv", "imu")
    dvl = load_stream(input_dir / "dvl.csv", "dvl")
    ahrs = load_stream(input_dir / "ahrs.csv", "ahrs")
    if dvl_frame == "body":
        dvl = dvl_body_to_nav(dvl, ahrs)
    return synchronize(imu, dvl, ahrs)


def _initial_from_gt(gt, epochs):
    if not gt or gt[0].t > epochs[0].t:
        return None
    first = gt[0]
    orientation = first.orientation if first.orientation is not None else epochs[0].ahrs
    return NavState(first.position, epochs[0].dvl, orientation)


def _load_truth(path: Path):
    """Read truth as a trajectory CSV or a gt sensor stream, whichever matches."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().strip()
    if header == ",".join(TRAJECTORY_COLUMNS):
        return read_trajectory(path), True
    return truth_from_gt(load_stream(path, "gt"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    cfg = resolve_options(args, SCENARIO_OPTS, IMU_MODEL_OPTS)
    if args.print_config:
        _print_config(cfg)
        return 0
    spec = build_scenario(cfg)
    run = generate(spec)
    out_dir = Path(args.out)
    paths = run.write(out_dir)
    with open(out_dir / "scenario.json", "w", encoding="utf-8") as fh:
        json.dump(spec.to_dict(), fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(paths)} streams to {out_dir} "
          f"({len(run.imu)} imu, {len(run.dvl)} dvl, {len(run.ahrs)} ahrs samples)")
    return 0


def cmd_adapt(args) -> int:
    log = run_adapt(args.adapter, args.input, args.out)
    print(log.summary())
    return 0


def _prepare_input(args, cfg, with_truth=False):
    """Resolve the epoch stream, initial state, truth (if asked) and provenance."""
    if args.input is not None and getattr(args, "scenario", None) is not None:
        raise SpecError("--input and --scenario are mutually exclusive; pick one data source")
    if args.input is not None:
        input_dir = Path(args.input)
        if not input_dir.is_dir():
            raise FileNotFoundError(f"input directory {input_dir} not found")
        epochs = _load_epoch_dir(input_dir, cfg.get("dvl_frame", "nav"))
        initial = truth = None
        gt_path = input_dir / "gt.csv"
        if gt_path.exists():
            gt = load_stream(gt_path, "gt")
            initial = _initial_from_gt(gt, epochs)
            truth = truth_from_gt(gt) if with_truth else None
        provenance = {"mode": "files", "dir": str(input_dir.resolve()),
                      "dvl_frame": cfg.get("dvl_frame", "nav")}
        return epochs, initial, truth, provenance
    run = generate(build_scenario(cfg))
    provenance = {"mode": "scenario", "scenario": run.spec.to_dict()}
    return run.epochs(), run.initial_nav(), (run.truth, True) if with_truth else None, provenance


def _ensure_parent(path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _run_and_write(args, meta: dict, epochs, config, initial, out_path: Path):
    """Run ``meta["estimator"]`` and write its trajectory and ``meta`` with this run's
    ``counts``, ``runtime_s`` and ``output``; returns the points and the metadata written."""
    t0 = time.perf_counter()
    points = run_estimator(meta["estimator"], epochs, config, initial)
    runtime = time.perf_counter() - t0
    flags = [p.flag for p in points]
    meta = {**meta, "counts": {flag: flags.count(flag) for flag in FLAGS},
            "runtime_s": runtime, "output": str(out_path)}
    write_trajectory(points, _ensure_parent(out_path))
    meta_path = Path(args.metadata) if args.metadata else out_path.with_suffix(".meta.json")
    with open(_ensure_parent(meta_path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return points, meta


def cmd_estimate(args) -> int:
    if args.from_metadata is not None:
        return _estimate_from_metadata(args)
    cfg = resolve_options(args, SCENARIO_OPTS, ESTIMATOR_OPTS)
    if args.print_config:
        _print_config(cfg)
        return 0
    estimator = cfg["estimator"]
    config = build_estimator_config(estimator, cfg)
    epochs, initial, _, provenance = _prepare_input(args, cfg)
    out_path = Path(args.out or "trajectory.csv")
    meta = {
        "tool": "cipgnav",
        "version": __version__,
        "command": "estimate",
        "estimator": estimator,
        "params": _estimator_params(cfg),
        "input": provenance,
        "initial": None if initial is None else {
            key: getattr(initial, key).tolist() for key in _INITIAL_FIELDS},
        "epoch_hash": hash_epochs(epochs),
        "n_epochs": len(epochs),
    }
    points, meta = _run_and_write(args, meta, epochs, config, initial, out_path)
    print(
        f"{estimator}: {len(points)} epochs in {meta['runtime_s']:.2f} s "
        f"({meta['counts']['warmup']} warmup, {meta['counts']['fallback']} fallback) "
        f"-> {out_path}"
    )
    return 0


def _refused_param(estimator, params: dict):
    """``(key, error)`` of the first of ``params`` that the estimator's config
    refuses on its own, over the defaults, or None (also for an unknown estimator)."""
    if estimator not in ESTIMATORS:
        return None
    defaults = _estimator_params(DEFAULTS)
    for key, value in params.items():
        try:
            build_estimator_config(estimator, {**defaults, key: value})
        except (ValueError, TypeError) as exc:
            return key, exc
    return None


def _estimate_from_metadata(args) -> int:
    given = [_flag(name) for name in (*SCENARIO_OPTS, *ESTIMATOR_OPTS, "input", "config")
             if getattr(args, name) is not None]
    if args.print_config:
        given.append("--print-config")
    if given:
        raise SpecError("--from-metadata replays the options and input its file records; "
                        f"it takes no {', '.join(given)}")
    path = args.from_metadata
    meta = read_json(path)
    if not isinstance(meta, dict):
        raise SpecError(f"{path}: the metadata is not a JSON object")
    if meta.get("command") != "estimate":
        raise SpecError(f"{path}: not an estimate metadata file")

    def recorded(key, read=lambda value: value):
        """``read`` of the metadata's ``key``.  A missing key, a value of a type that
        ``read`` cannot take, or one that it refuses raises SpecError naming the file
        and the key; an unknown key of the scenario names its part of the scenario."""
        try:
            return read(meta[key])
        except KeyError as exc:
            raise SpecError(f"{path}: the metadata has no {exc.args[0]!r} key") from None
        except (TypeError, AttributeError) as exc:
            raise SpecError(f"{path}: the metadata's {key!r} has a value of the wrong type "
                            f"({exc})") from None
        except _UnknownKeys:
            raise
        except ValueError as exc:
            raise SpecError(f"{path}: the metadata's {key!r} is refused: {exc}") from None

    if recorded("epoch_hash", lambda digest: digest.startswith("sha256:")):
        raise SpecError(
            f"{path}: this metadata was recorded with the text digest "
            "(sha256:) of an earlier cipgnav, which this version no longer computes; "
            "re-run `cipgnav estimate` with the same input and options to record a "
            "sha256-v2 digest"
        )
    estimator = recorded("estimator")
    params = recorded("params", _estimator_params)
    try:  # a refused value is named by its key, if that value alone is refused
        config = build_estimator_config(estimator, params)
    except ValueError as exc:
        key, exc = _refused_param(estimator, params) or (None, exc)
        raise SpecError(f"{path}: the metadata's {key!r} is refused: {exc}" if key
                        else f"{path}: {exc}") from None
    files = recorded("input", lambda provenance: provenance["mode"] == "files")
    source = recorded("input", lambda provenance: (
        (Path(provenance["dir"]), provenance.get("dvl_frame", "nav")) if files
        else ScenarioSpec.from_dict(provenance["scenario"])))
    initial = None if meta.get("initial") is None else recorded("initial", lambda state: NavState(
        *(state[key] for key in _INITIAL_FIELDS)))
    out_path = Path(args.out) if args.out else recorded("output", Path)
    epochs = _load_epoch_dir(*source) if files else generate(source).epochs()
    digest = hash_epochs(epochs)
    if digest != meta["epoch_hash"]:
        raise SpecError(
            "epoch stream does not match the metadata "
            f"(got {digest}, recorded {meta['epoch_hash']}): the input data changed, or a "
            "cipgnav whose streams round differently recorded the metadata; re-run "
            "`cipgnav estimate` with the same input and options to record this version's digest"
        )
    points, meta = _run_and_write(args, meta, epochs, config, initial, out_path)
    print(f"replayed {meta['estimator']}: {len(points)} epochs -> {out_path}")
    return 0


def cmd_evaluate(args) -> int:
    mcfg = _from_options(MetricsConfig, resolve_options(args, EVALUATE_OPTS), align=args.align)
    est = read_trajectory(args.estimate)
    truth, has_orientation = _load_truth(Path(args.truth))
    mcfg = replace(mcfg, use_orientation=has_orientation)
    pair = pair_trajectories(est, truth, mcfg)
    report = score_pair(pair, mcfg)
    for key, value in report.rows():
        print(f"{key} = {value!r}")
    if args.report:
        write_report(_ensure_parent(args.report), report)
    if args.errors:
        write_error_series(_ensure_parent(args.errors), pair)
    return 0


def cmd_compare(args) -> int:
    cfg = resolve_options(args, SCENARIO_OPTS, ESTIMATOR_OPTS, COMPARE_METRIC_OPTS)
    if args.print_config:
        _print_config(cfg)
        return 0
    names = [n.strip() for n in args.estimators.split(",") if n.strip()]
    bad = [n for n in names if n not in ESTIMATORS]
    if bad:
        raise SpecError(f"unknown estimators {bad}; expected from {ESTIMATORS}")
    if not names or len(set(names)) != len(names):
        raise SpecError(f"--estimators must name each estimator at most once, and at least "
                        f"one, from {ESTIMATORS}; got {args.estimators!r}")
    configs = {name: build_estimator_config(name, cfg) for name in names}
    mcfg = _from_options(MetricsConfig, cfg)
    epochs, initial, truth_info, _prov = _prepare_input(args, cfg, with_truth=True)
    if truth_info is None:
        raise FileNotFoundError(
            "compare needs ground truth: add gt.csv to the input directory or use --scenario"
        )
    truth, has_orientation = truth_info
    mcfg = replace(mcfg, use_orientation=has_orientation)
    columns = {}  # estimator -> {row name: formatted cell}
    for name in names:
        t0 = time.perf_counter()
        points = run_estimator(name, epochs, configs[name], initial)
        runtime = time.perf_counter() - t0
        report = evaluate_trajectories(points, truth, mcfg)
        columns[name] = {**{key: f"{value:.6g}" for key, value in report.rows()},
                         "runtime_s": f"{runtime:.3g}"}
    width = max(map(len, columns[names[0]])) + 2
    col_w = max(14, max(len(n) for n in names) + 2)
    lines = ["".ljust(width) + "".join(n.rjust(col_w) for n in names)]
    lines += [key.ljust(width) + "".join(columns[n][key].rjust(col_w) for n in names)
              for key in columns[names[0]]]
    table = "\n".join(lines)
    print(table)
    if args.out:
        with open(_ensure_parent(args.out), "w", encoding="utf-8") as fh:
            fh.write(table + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cipgnav",
        description="Window-based cascade state estimation for IMU/DVL/AHRS navigation.",
    )
    parser.add_argument("--version", action="version", version=f"cipgnav {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_command(name, help_text, func, *schemas, print_config=True):
        """A subcommand with a flag per option of ``schemas``, ``--config`` and,
        if ``print_config``, ``--print-config``."""
        command = sub.add_parser(name, help=help_text)
        for schema in schemas:
            for option, (parse, option_help) in schema.items():
                command.add_argument(_flag(option), type=parse, help=option_help)
        command.add_argument("--config", help="key=value config file")
        if print_config:
            command.add_argument("--print-config", action="store_true",
                                 help="print resolved options and exit")
        command.set_defaults(func=func)
        return command

    p_sim = add_command("simulate", "generate a synthetic scenario", cmd_simulate,
                        SCENARIO_OPTS, IMU_MODEL_OPTS)
    p_sim.add_argument("--out", required=True, help="output directory")

    p_adapt = sub.add_parser("adapt", help="convert a dataset directory to canonical CSVs")
    p_adapt.add_argument("--adapter", required=True,
                         help="builtin adapter name or adapter JSON path")
    p_adapt.add_argument("--input", required=True, help="source dataset directory")
    p_adapt.add_argument("--out", required=True, help="output directory for canonical CSVs")
    p_adapt.set_defaults(func=cmd_adapt)

    p_est = add_command("estimate", "run an estimator over sensor streams", cmd_estimate,
                        SCENARIO_OPTS, ESTIMATOR_OPTS)
    p_est.add_argument("--input", help="directory with imu.csv, dvl.csv, ahrs.csv (and optional gt.csv)")
    p_est.add_argument("--out", help="output trajectory CSV (default: trajectory.csv, or on "
                       "--from-metadata the output recorded in the metadata)")
    p_est.add_argument("--metadata", help="metadata JSON path (default: <out>.meta.json)")
    p_est.add_argument("--from-metadata", help="replay a previous run from its metadata JSON")

    p_eval = add_command("evaluate", "score an estimate against ground truth", cmd_evaluate,
                         EVALUATE_OPTS, print_config=False)
    p_eval.add_argument("--estimate", required=True, help="estimated trajectory CSV")
    p_eval.add_argument("--truth", required=True,
                        help="ground truth: trajectory CSV or gt.csv sensor stream")
    p_eval.add_argument("--align", action="store_true",
                        help="yaw+translation align the estimate over the first fixes")
    p_eval.add_argument("--report", help="write the metric table to this file")
    p_eval.add_argument("--errors", help="write per-sample error series CSV to this file")

    p_cmp = add_command("compare", "run several estimators side by side", cmd_compare,
                        SCENARIO_OPTS, ESTIMATOR_OPTS, COMPARE_METRIC_OPTS)
    p_cmp.add_argument("--input", help="directory with canonical CSVs incl. gt.csv")
    p_cmp.add_argument("--estimators", default="cipg,ekf,inekf",
                       help="comma-separated estimators to run")
    p_cmp.add_argument("--out", help="write the comparison table to this file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Most of these classes subclass ValueError, so it comes last.
    try:
        return args.func(args)
    except (DivergenceError, NumericalError, AlignmentError, DegenerateQuaternionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, StreamOrderError, SyncGapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # SpecError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
