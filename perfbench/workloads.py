"""The benchmark's workloads: survey, long-window and file-600s.

Every workload is a closed loop with one caller: the next epoch goes into an
estimator only when the previous call returned.  Accuracy is scored on the
workload's canonical input (benchmark seed 0), which every run processes, so
that it can be compared across commits; ``--seed`` draws the further inputs
that the in-process workloads time.  Epoch latencies are reported relative
to ``reference_op``, timed in the same loop, and set-up times are scaled by
it.  See README.md for why each
workload exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import cipgnav.baselines as baselines
import cipgnav.cascade as cascade
import cipgnav.cli as cli
import cipgnav.ipg as ipg
from cipgnav import sensors, sim
from cipgnav.ipg import IpgParams
from cipgnav.metrics import evaluate_trajectories, truth_from_gt
from cipgnav.preintegration import NavState
from cipgnav.trajectory import TrajectoryPoint, read_trajectory

from accounting import Ledger, check_rows, digest, percentile_ms, tail_percentile
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ESTIMATORS = ("cipg", "ekf", "inekf")
CANONICAL_SEED = 0
CANONICAL_S = 300.0  # duration of the canonical in-process input
EXTRA_S = 100.0  # duration of each seed-drawn in-process input
SETUP_REPEATS = 5
# setup_s is set-up time scaled to a host on which reference_op takes this
# long at the median, about its median on the host the bounds were set on.
REFERENCE_S = 0.6e-3
REFERENCE_BLOCK = 150  # reference_op calls timed before and after each set-up

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    **{f"{e}_epoch_cost_p50": "x-reference" for e in ESTIMATORS},
    **{f"{e}_total_error_m": "m" for e in ESTIMATORS},
    **{f"{e}_ate_m": "m" for e in ESTIMATORS},
    **{f"{e}_att_mae_rad": "rad" for e in ESTIMATORS},
}

PER_LAYER = {
    "sim.generate_s": "s",
    "sensors.load_stream_s": "s",
    "sensors.rows_loaded": "count",
    "sensors.synchronize_s": "s",
    "sensors.imu_samples_per_epoch": "samples/epoch",
    "sensors.epoch_stream_alloc_mb": "MB",
    "cli.hash_epochs_s": "s",
    "cli.estimate_s": "s",
    "cli.estimate_self_s": "s",
    "trajectory.write_s": "s",
    "trajectory.bytes_written": "bytes",
    "cascade.step_s": "s",
    "cascade.step_self_s": "s",
    "cascade.deadreckon_s": "s",
    "cascade.warmup_epochs": "count",
    "cascade.fallback_epochs": "count",
    "cascade.orientation_propagations": "count",
    "cascade.orientation_propagations_per_imu_sample": "ratio",
    "cascade.epoch_ms_p50": "ms",
    "cascade.epoch_ms_p99": "ms",
    "ipg.orientation_step_s": "s",
    "ipg.velocity_step_s": "s",
    "ipg.stacked_map_s": "s",
    "ipg.stacked_jacobian_s": "s",
    "ipg.precondition_update_s": "s",
    "ipg.iterate_update_s": "s",
    "ipg.slide_window_s": "s",
    "ipg.stacked_jacobian_calls": "count",
    "baselines.ekf_predict_s": "s",
    "baselines.ekf_preintegrate_s": "s",
    "baselines.ekf_update_s": "s",
    "baselines.inekf_predict_s": "s",
    "baselines.inekf_update_s": "s",
    "baselines.kalman_update_s": "s",
    "baselines.ekf_epoch_ms_p50": "ms",
    "baselines.inekf_epoch_ms_p50": "ms",
    "baselines.ekf_epoch_ms_p99": "ms",
    "baselines.inekf_epoch_ms_p99": "ms",
    "metrics.evaluate_s": "s",
    "trace.reference_ms_p50": "ms",
    "trace.overhead_s": "s",
}

# per-layer metric -> (span name, "total" or "self")
SPAN_METRICS = {
    "sim.generate_s": ("sim.generate", "total"),
    "sensors.load_stream_s": ("sensors.load_stream", "total"),
    "sensors.synchronize_s": ("sensors.synchronize", "total"),
    "cli.hash_epochs_s": ("cli.hash_epochs", "total"),
    "cli.estimate_self_s": ("cli.main", "self"),
    "trajectory.write_s": ("trajectory.write", "total"),
    "cascade.step_s": ("cascade.step", "total"),
    "cascade.step_self_s": ("cascade.step", "self"),
    "cascade.deadreckon_s": ("cascade.deadreckon", "total"),
    "ipg.orientation_step_s": ("ipg.orientation_step", "total"),
    "ipg.velocity_step_s": ("ipg.velocity_step", "total"),
    "ipg.stacked_map_s": ("ipg.stacked_map", "self"),
    "ipg.stacked_jacobian_s": ("ipg.stacked_jacobian", "self"),
    "ipg.precondition_update_s": ("ipg.precondition_update", "self"),
    "ipg.iterate_update_s": ("ipg.iterate_update", "self"),
    "ipg.slide_window_s": ("ipg.slide_window", "self"),
    "baselines.ekf_predict_s": ("baselines.ekf_predict", "total"),
    "baselines.ekf_preintegrate_s": ("baselines.ekf_preintegrate", "total"),
    "baselines.ekf_update_s": ("baselines.ekf_update", "total"),
    "baselines.inekf_predict_s": ("baselines.inekf_predict", "total"),
    "baselines.inekf_update_s": ("baselines.inekf_update", "total"),
    "baselines.kalman_update_s": ("baselines.kalman_update", "total"),
    "metrics.evaluate_s": ("metrics.evaluate", "total"),
}


@dataclass
class RunResult:
    ledger: Ledger
    metrics: dict
    digests: dict
    notes: list = field(default_factory=list)


def _no_span(_name):
    return contextlib.nullcontext()


def _accuracy(points_by_estimator, truth) -> dict:
    out = {}
    for name, points in points_by_estimator.items():
        report = evaluate_trajectories(points, truth)
        out[f"{name}_total_error_m"] = float(report.total_error)
        out[f"{name}_ate_m"] = float(report.ate_rmse)
        out[f"{name}_att_mae_rad"] = float(report.mae_orientation)
    return out


def _latencies(times, costs) -> tuple[dict, list]:
    """Median per-epoch cost of each estimator, plus notes in ms."""
    metrics = {f"{name}_epoch_cost_p50": statistics.median(costs[name]) for name in ESTIMATORS}
    notes = [f"{name} epoch p50 {percentile_ms(times[name], 50.0):.4f} ms"
             for name in [*ESTIMATORS, "reference"]]
    return metrics, notes


class SetupClock:
    """Times set-ups in wall seconds and in reference seconds.

    A set-up is one call of a second or so, so it cannot be interleaved with
    ``reference_op`` like the epochs.  Instead a block of reference calls is
    timed right before and right after it, and the wall time is scaled by
    ``REFERENCE_S`` over the median of those calls: the set-up time on a
    host of fixed speed.  ``setup_s`` is the median over the run's set-ups.
    """

    def __init__(self):
        self.wall = []
        self.scaled = []

    def __call__(self, setup, *args):
        before = _reference_times(REFERENCE_BLOCK)
        t0 = time.perf_counter()
        out = setup(*args)
        wall = time.perf_counter() - t0
        reference = statistics.median(before + _reference_times(REFERENCE_BLOCK))
        self.wall.append(wall)
        self.scaled.append(wall * REFERENCE_S / reference)
        return out

    def metric(self) -> float:
        return statistics.median(self.scaled)

    def note(self) -> str:
        return (f"set-up wall median {statistics.median(self.wall):.4f} s over "
                f"{len(self.wall)} set-ups")


def _p99_ms(samples) -> float:
    if tail_percentile(len(samples)) != 99.0:
        raise ValueError(f"{len(samples)} samples do not support a p99 by the percentile rule")
    return percentile_ms(samples, 99.0)


# ---------------------------------------------------------------------------
# the closed loop shared by all workloads


def _cipg_stepper(epochs, initial, params, span):
    config = cascade.CascadeConfig(params=params, initial=initial)
    state = cascade.CascadeState.start(config, epochs)

    def step(epoch):
        nonlocal state
        with span("cascade.step"):
            state, point = cascade.cascade_step(state, epoch)
        return point

    return step


def _filter_stepper(kind, epochs, initial, span):
    config = baselines.FilterConfig()
    if kind == "ekf":
        state = baselines.EkfState.start(initial, config)
        predict, update = baselines.ekf_predict, baselines.ekf_update
        nav_of = lambda s: s.nav.copy()  # noqa: E731
    else:
        state = baselines.InekfState.start(initial, config)
        predict, update = baselines.inekf_predict, baselines.inekf_update
        nav_of = lambda s: s.nav()  # noqa: E731
    t_prev = epochs[0].t_prev

    def step(epoch):
        nonlocal state, t_prev
        with span(f"baselines.{kind}_predict"):
            state = predict(state, epoch.imu_burst, config, t_prev)
        with span(f"baselines.{kind}_update"):
            state = update(state, epoch.dvl, epoch.ahrs, config)
        t_prev = epoch.t
        return TrajectoryPoint(epoch.t, nav_of(state), "ok")

    return step


def make_steppers(epochs, initial, params: IpgParams, span=_no_span) -> dict:
    """One closed-loop stepper per estimator, each with its own state."""
    return {
        "cipg": _cipg_stepper(epochs, initial, params, span),
        "ekf": _filter_stepper("ekf", epochs, initial, span),
        "inekf": _filter_stepper("inekf", epochs, initial, span),
    }


_REF_F = np.eye(9) + np.arange(81.0).reshape(9, 9) / 81e3
_REF_FORCE = np.array([0.1, -0.2, 9.8])


def reference_op() -> float:
    """A fixed mix of small numpy operations and Python arithmetic.

    It uses nothing from the package, so its time follows only the speed
    the host gives this process, which on a shared machine drifts by up to
    1.8x over minutes.  Epoch latencies are reported relative to it.
    """
    q = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.zeros(3)
    P = np.eye(9)
    for _ in range(20):
        w, x, y, z = q
        q = np.array([w - 5e-4 * x + 1e-3 * y - 1.5e-3 * z, x + 5e-4 * w + 1.5e-3 * y + 1e-3 * z,
                      y - 1e-3 * w + 1.5e-3 * x + 5e-4 * z, z + 1.5e-3 * w - 1e-3 * x + 5e-4 * y])
        q = q / np.linalg.norm(q)
        w, x, y, z = q
        R = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                      [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                      [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
        v = v + 0.01 * (R @ _REF_FORCE)
        P = _REF_F @ P @ _REF_F.T + 1e-6 * np.eye(9)
    return float(P[0, 0] + v[0])


def _reference_times(n: int) -> list:
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        reference_op()
        times.append(time.perf_counter() - t0)
    return times


def closed_loop(epochs, steppers, ledger, label):
    """Feed every epoch to each estimator in turn and time each call.

    After each epoch ``reference_op`` runs and is timed too, so that the
    same drifts in machine speed hit it and the estimators alike.  Returns
    per-estimator epoch latencies (s), with the reference's under
    ``"reference"``; per-estimator epoch costs, each latency divided by the
    reference time of the same epoch; and trajectory rows.  An estimator
    that raises is dropped for the rest of the stream and its remaining
    epochs count as failed.
    """
    times = {name: [] for name in [*steppers, "reference"]}
    costs = {name: [] for name in steppers}
    points = {name: [] for name in steppers}
    raised = {}
    for i, epoch in enumerate(epochs):
        took = {}
        for name, step in steppers.items():
            if name in raised:
                continue
            t0 = time.perf_counter()
            try:
                point = step(epoch)
            except Exception as exc:  # noqa: BLE001 - a failed operation, not a crash
                raised[name] = i
                print(f"{label} {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            took[name] = time.perf_counter() - t0
            points[name].append(point)
        t0 = time.perf_counter()
        reference_op()
        reference = time.perf_counter() - t0
        times["reference"].append(reference)
        for name, seconds in took.items():
            times[name].append(seconds)
            costs[name].append(seconds / reference)
    for name in steppers:
        problem = None if name in raised else check_rows(points[name], len(epochs))
        ledger.record(f"{label} {name}", len(epochs), [p.flag for p in points[name]],
                      raised.get(name), problem)
    return times, costs, points


# ---------------------------------------------------------------------------
# in-process workloads: survey and long-window


@dataclass(frozen=True)
class InProcessWorkload:
    """Simulated lawnmower survey fed to all three estimators in-process."""

    imu_rate: float
    horizon: int
    iterations: int

    def spec(self, seed: int, duration: float):
        return replace(sim.benchmark_scenario(seed, duration), imu_rate=self.imu_rate)

    def steppers(self, epochs, initial, span=_no_span):
        return make_steppers(epochs, initial,
                             IpgParams(horizon=self.horizon, iterations=self.iterations), span)

    def setup(self, spec, span=_no_span):
        """Generate a scenario and synchronize it: everything before the first estimator call."""
        with span("sim.generate"):
            run = sim.generate(spec)
        with span("sensors.synchronize"):
            epochs = sensors.synchronize(run.imu, run.dvl, run.ahrs)
        return run, epochs

    def run(self, seed: int, seconds: float, workdir: Path) -> RunResult:
        ledger = Ledger()
        canonical = self.spec(CANONICAL_SEED, CANONICAL_S)
        setup_clock = SetupClock()
        run, epochs = setup_clock(self.setup, canonical)
        t_start = time.perf_counter()
        times, costs, points = closed_loop(epochs, self.steppers(epochs, run.initial_nav()),
                                           ledger, "canonical")
        metrics = _accuracy(points, run.truth) if ledger.correct else {}
        digests = {name: digest(rows) for name, rows in points.items()}

        # Seed-drawn inputs, at least one, until the run has measured `seconds`.
        # The set-up repeats are spread over the run like the epochs.
        k = 0
        while k == 0 or time.perf_counter() - t_start < seconds:
            k += 1
            if len(setup_clock.wall) < SETUP_REPEATS:
                setup_clock(self.setup, canonical)
            extra, extra_epochs = self.setup(self.spec(1 + 1000 * seed + k, EXTRA_S))
            extra_times, extra_costs, _ = closed_loop(
                extra_epochs, self.steppers(extra_epochs, extra.initial_nav()),
                ledger, f"seed {seed} input {k}")
            for name, samples in extra_times.items():
                times[name].extend(samples)
            for name, samples in extra_costs.items():
                costs[name].extend(samples)
        while len(setup_clock.wall) < SETUP_REPEATS:
            setup_clock(self.setup, canonical)

        latencies, notes = _latencies(times, costs)
        metrics.update(latencies)
        metrics["setup_s"] = setup_clock.metric()
        notes.append(setup_clock.note())
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return RunResult(ledger, metrics, digests, notes)

    def trace(self, seed: int, seconds: float, workdir: Path) -> RunResult:
        ledger = Ledger()
        tracer = Tracer(f"{seed}-{os.getpid()}")
        canonical = self.spec(CANONICAL_SEED, CANONICAL_S)
        run, epochs = self.setup(canonical, tracer.span)
        alloc_mb = _traced_alloc_mb(lambda: sensors.synchronize(run.imu, run.dvl, run.ahrs))

        # An untraced and a traced copy of each estimator take every epoch in
        # turn, so that drifts in machine speed hit both alike.
        _patch_estimators(tracer)
        steppers = self.steppers(epochs, run.initial_nav())
        for name, step in self.steppers(epochs, run.initial_nav(), tracer.span).items():
            steppers["traced " + name] = _with_patches(tracer, step)
        times, _, points = closed_loop(epochs, steppers, ledger, "trace")
        with tracer.span("metrics.evaluate"):
            if ledger.correct:
                _accuracy({name: points["traced " + name] for name in ESTIMATORS}, run.truth)

        imu_samples = sum(len(e.imu_burst) for e in epochs)
        overhead = sum(sum(times["traced " + n]) - sum(times[n]) for n in ESTIMATORS)
        metrics = _span_metrics(tracer)
        metrics.update(_cascade_counts(tracer, points["traced cipg"], imu_samples))
        metrics.update({
            "sensors.imu_samples_per_epoch": imu_samples / len(epochs),
            "sensors.epoch_stream_alloc_mb": alloc_mb,
            "cascade.epoch_ms_p50": percentile_ms(times["cipg"], 50.0),
            "cascade.epoch_ms_p99": _p99_ms(times["cipg"]),
            "baselines.ekf_epoch_ms_p50": percentile_ms(times["ekf"], 50.0),
            "baselines.inekf_epoch_ms_p50": percentile_ms(times["inekf"], 50.0),
            "baselines.ekf_epoch_ms_p99": _p99_ms(times["ekf"]),
            "baselines.inekf_epoch_ms_p99": _p99_ms(times["inekf"]),
            "trace.reference_ms_p50": percentile_ms(times["reference"], 50.0),
            "trace.overhead_s": overhead,
        })
        return RunResult(ledger, metrics, {})


# ---------------------------------------------------------------------------
# tracing helpers shared by all workloads


def _traced_alloc_mb(fn) -> float:
    """tracemalloc peak of one call, in its own pass outside any timed span."""
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _with_patches(tracer: Tracer, step):
    def traced_step(epoch):
        with tracer.installed():
            return step(epoch)

    return traced_step


def _patch_estimators(tracer: Tracer) -> None:
    """Rebind the package-internal calls below an estimator epoch."""
    tracer.patch(cascade, "ipg_step", lambda model, *_: (
        "ipg.orientation_step" if model.state_dim == 4 else "ipg.velocity_step"))
    tracer.patch(cascade, "slide_window", "ipg.slide_window")
    tracer.patch(cascade, "preintegrate_burst", "cascade.deadreckon")
    tracer.patch_counter(cascade, "propagate_orientation", "cascade.orientation_propagations")
    tracer.patch(ipg, "stacked_map", "ipg.stacked_map")
    tracer.patch(ipg, "stacked_jacobian", "ipg.stacked_jacobian",
                 on_result=lambda *_: tracer.count("ipg.stacked_jacobian_calls"))
    tracer.patch(ipg, "precondition_update", "ipg.precondition_update")
    tracer.patch(ipg, "iterate_update", "ipg.iterate_update")
    tracer.patch(baselines, "preintegrate_burst", "baselines.ekf_preintegrate")
    tracer.patch(baselines, "kalman_update", "baselines.kalman_update")


def _span_metrics(tracer: Tracer) -> dict:
    total, own = tracer.totals()
    metrics = {name: 0.0 for name in PER_LAYER}
    for metric, (span_name, kind) in SPAN_METRICS.items():
        metrics[metric] = (total if kind == "total" else own).get(span_name, 0.0)
    for name in ("sensors.rows_loaded", "trajectory.bytes_written", "ipg.stacked_jacobian_calls"):
        metrics[name] = tracer.counts.get(name, 0.0)
    return metrics


def _cascade_counts(tracer: Tracer, cipg_points, imu_samples: int) -> dict:
    flags = [p.flag for p in cipg_points]
    propagations = tracer.counts.get("cascade.orientation_propagations", 0.0)
    return {
        "cascade.warmup_epochs": flags.count("warmup"),
        "cascade.fallback_epochs": flags.count("fallback"),
        "cascade.orientation_propagations": propagations,
        "cascade.orientation_propagations_per_imu_sample": propagations / imu_samples,
    }


# ---------------------------------------------------------------------------
# file-600s: the CLI over a 600 s directory of CSV streams


class FileWorkload:
    """``cipgnav estimate --input DIR`` over a 600 s benchmark-scenario directory."""

    duration = 600.0

    def spec(self):
        return sim.benchmark_scenario(CANONICAL_SEED, self.duration)

    def ensure_input(self, workdir: Path) -> Path:
        """Write the scenario directory with the CLI, untimed, and keep it.

        The directory is keyed on a digest of the package's sources, so that
        a change to the code that writes it gives a fresh one; stale ones
        are removed.
        """
        final = workdir / f"file-600s-seed{CANONICAL_SEED}-{_source_digest()}"
        if (final / "scenario.json").is_file():
            return final
        for stale in workdir.glob("file-600s-*"):
            shutil.rmtree(stale)
        spec = self.spec()
        tmp = workdir / f"tmp-{os.getpid()}"
        vec = lambda v: ",".join(repr(float(x)) for x in v)  # noqa: E731
        _run_cli(["simulate", "--scenario", spec.kind, "--duration", repr(spec.duration),
                  "--speed", repr(spec.speed), "--lawnmower-leg", repr(spec.lawnmower_leg),
                  "--lawnmower-spacing", repr(spec.lawnmower_spacing), "--noise", "bluerov2",
                  f"--accel-bias={vec(spec.biases.accel)}",
                  f"--gyro-bias={vec(spec.biases.gyro)}",
                  "--seed", str(spec.seed), "--out", str(tmp)], check=True)
        tmp.rename(final)
        return final

    def setup(self, input_dir: Path):
        """What ``estimate --input`` does before its estimator: load, synchronize, hash."""
        streams, epochs = self.load(input_dir)
        return streams, epochs, cli.hash_epochs(epochs)

    def load(self, input_dir: Path):
        streams = {kind: sensors.load_stream(input_dir / f"{kind}.csv", kind)
                   for kind in ("imu", "dvl", "ahrs", "gt")}
        return streams, sensors.synchronize(streams["imu"], streams["dvl"], streams["ahrs"])

    def check_output(self, ledger, label, out_csv: Path, code: int, epochs, epoch_hash):
        """Check one CLI run; returns its trajectory rows (empty when unreadable)."""
        problem = None
        points = []
        if code != 0:
            problem = f"CLI exited {code}"
        else:
            try:
                points = read_trajectory(out_csv)
                with open(out_csv.with_suffix(".meta.json"), encoding="utf-8") as fh:
                    meta = json.load(fh)
            except (OSError, ValueError) as exc:
                problem = f"unreadable output: {exc}"
            else:
                problem = check_rows(points, len(epochs))
                if problem is None and meta.get("epoch_hash") != epoch_hash:
                    problem = f"meta epoch_hash {meta.get('epoch_hash')} != {epoch_hash}"
        ledger.record(label, len(epochs), [p.flag for p in points], None, problem)
        return points

    def run(self, seed: int, seconds: float, workdir: Path) -> RunResult:
        input_dir = self.ensure_input(workdir)
        with tempfile.TemporaryDirectory(dir=workdir) as out_dir:
            return self._run(input_dir, Path(out_dir) / "cipg.csv")

    def _run(self, input_dir: Path, out_csv: Path) -> RunResult:
        ledger = Ledger()
        child = _run_cli(["estimate", "--input", str(input_dir), "--estimator", "cipg",
                          "--out", str(out_csv)])
        setup_clock = SetupClock()
        streams, epochs, epoch_hash = setup_clock(self.setup, input_dir)
        self._check_scenario(ledger, input_dir)
        truth, _ = truth_from_gt(streams["gt"])
        cli_points = self.check_output(ledger, "cli cipg", out_csv, child["code"],
                                       epochs, epoch_hash)

        # The same epochs through all three estimators in-process, from the
        # initial state the CLI takes from gt.csv.
        times, costs, points = closed_loop(
            epochs, make_steppers(epochs, _initial_from_gt(streams["gt"], epochs), IpgParams()),
            ledger, "in-process")
        while len(setup_clock.wall) < SETUP_REPEATS:
            setup_clock(self.setup, input_dir)

        latencies, notes = _latencies(times, costs)
        notes.append(setup_clock.note())
        metrics = {"setup_s": setup_clock.metric(),
                   "peak_rss_mb": child["maxrss_kb"] / 1024, **latencies}
        if ledger.correct:
            metrics.update(_accuracy({"cipg": cli_points, "ekf": points["ekf"],
                                      "inekf": points["inekf"]}, truth))
        digests = {"cipg": digest(cli_points), "ekf": digest(points["ekf"]),
                   "inekf": digest(points["inekf"])}
        notes.append(f"cli estimate wall {child['wall_s']:.3f} s "
                     f"({self.duration / child['wall_s']:.1f}x realtime)")
        notes.append(f"cli peak RSS floor (spawner's RSS) {child['floor_kb'] / 1024:.1f} MB")
        return RunResult(ledger, metrics, digests, notes)

    def _check_scenario(self, ledger, input_dir: Path) -> None:
        with open(input_dir / "scenario.json", encoding="utf-8") as fh:
            written = json.load(fh)
        if written != json.loads(json.dumps(self.spec().to_dict())):
            ledger.problems.append(f"{input_dir}: CLI-written scenario differs from "
                                   "benchmark_scenario")

    def trace(self, seed: int, seconds: float, workdir: Path) -> RunResult:
        input_dir = self.ensure_input(workdir)
        with tempfile.TemporaryDirectory(dir=workdir) as out_dir:
            return self._trace(Tracer(f"{seed}-{os.getpid()}"), input_dir,
                               Path(out_dir) / "cipg.csv")

    def _trace(self, tracer: Tracer, input_dir: Path, out_csv: Path) -> RunResult:
        ledger = Ledger()
        argv = ["estimate", "--input", str(input_dir), "--estimator", "cipg",
                "--out", str(out_csv)]
        alloc_mb = _traced_alloc_mb(lambda: self.load(input_dir))
        streams, epochs, epoch_hash = self.setup(input_dir)

        # Untraced in-process pass: only a per-epoch timer on cascade_step.
        timer = Tracer("untraced")
        timer.patch(cascade, "cascade_step", "cascade.step")
        with timer.installed():
            untraced_s, code = _call_cli(argv)
        epoch_s = [s.end - s.start for s in timer.spans]
        self.check_output(ledger, "untraced cli cipg", out_csv, code, epochs, epoch_hash)

        _patch_estimators(tracer)
        tracer.patch(cascade, "cascade_step", "cascade.step")
        tracer.patch(cli, "load_stream", "sensors.load_stream",
                     on_result=lambda rows, *_: tracer.count("sensors.rows_loaded", len(rows)))
        tracer.patch(cli, "synchronize", "sensors.synchronize")
        tracer.patch(cli, "hash_epochs", "cli.hash_epochs")
        tracer.patch(cli, "write_trajectory", "trajectory.write",
                     on_result=lambda _r, _points, path: tracer.count(
                         "trajectory.bytes_written", Path(path).stat().st_size))
        with tracer.installed(), tracer.span("cli.main"):
            traced_s, code = _call_cli(argv)
        points = self.check_output(ledger, "traced cli cipg", out_csv, code, epochs, epoch_hash)
        with tracer.span("metrics.evaluate"):
            if ledger.correct:
                _accuracy({"cipg": points}, truth_from_gt(streams["gt"])[0])

        imu_samples = sum(len(e.imu_burst) for e in epochs)
        metrics = _span_metrics(tracer)
        metrics.update(_cascade_counts(tracer, points, imu_samples))
        metrics.update({
            "sensors.imu_samples_per_epoch": imu_samples / len(epochs),
            "sensors.epoch_stream_alloc_mb": alloc_mb,
            "cli.estimate_s": untraced_s,
            "cascade.epoch_ms_p50": percentile_ms(epoch_s, 50.0),
            "cascade.epoch_ms_p99": _p99_ms(epoch_s),
            "trace.overhead_s": traced_s - untraced_s,
        })
        return RunResult(ledger, metrics, {})


def _initial_from_gt(gt, epochs) -> NavState:
    """The initial state ``estimate --input`` takes: gt pose, first DVL velocity."""
    return NavState(gt[0].position, epochs[0].dvl, gt[0].orientation)


def _call_cli(argv) -> tuple[float, int]:
    """Run ``cipgnav.cli.main`` in this process; returns (seconds, exit code)."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        return time.perf_counter() - t0, code


def _source_digest() -> str:
    """SHA-256 (16 hex digits) of the package's Python sources."""
    src = HERE.parent / "src"
    h = hashlib.sha256()
    for path in sorted((src / "cipgnav").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _run_cli(argv, check: bool = False) -> dict:
    """Run ``python3 -m cipgnav.cli ARGV`` through ``child.py`` and wait for it.

    ``child.py`` spawns the CLI from a small process, so that the CLI's
    ``ru_maxrss`` is its own peak and not this process's RSS (see there).
    """
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                           sys.executable, "-m", "cipgnav.cli", *argv],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child.py exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["code"] != 0:
        print(proc.stderr, file=sys.stderr)
        if check:
            raise RuntimeError(f"cipgnav {argv[0]} exited {result['code']}")
    return result


WORKLOADS = {
    "survey": InProcessWorkload(imu_rate=100.0, horizon=5, iterations=3),
    "long-window": InProcessWorkload(imu_rate=25.0, horizon=10, iterations=10),
    "file-600s": FileWorkload(),
}
