"""End-to-end acceptance suite.

Each test pins one externally visible guarantee of the toolkit: default
parameters finish a realistic noisy survey, noiseless data is tracked to
tight tolerances, the window solver agrees with direct least squares, the
preconditioner recursion converges, analytic Jacobians are exact, the
cascade beats a mistuned EKF on the canonical benchmark, the metric
definitions match their closed forms, runs replay bitwise from metadata,
and the baseline filters are numerically sound.
"""

from __future__ import annotations

import json
import math
import os
import time

import numpy as np
import pytest

from cipgnav.baselines import (
    FilterConfig,
    InekfState,
    ekf_predict,
    ekf_update,
    inekf_predict,
    inekf_update,
    run_ekf,
    run_inekf,
)
from cipgnav.baselines import EkfState
from cipgnav.cascade import CascadeConfig, run_cascade
from cipgnav.cli import main
from cipgnav.ipg import (
    IpgParams,
    IpgWindow,
    WindowModel,
    ipg_step,
    precondition_update,
    stacked_jacobian,
)
from cipgnav.metrics import (
    MetricsConfig,
    ate,
    evaluate_trajectories,
    pair_trajectories,
    rpe,
    total_error,
)
from cipgnav.preintegration import BurstInput, ImuBiases, NavState
from cipgnav.quat import quat_angular_distance
from cipgnav.sensors import SyncedEpoch
from cipgnav.sim import NoiseSpec, ScenarioSpec, benchmark_scenario, generate
from cipgnav.trajectory import TrajectoryPoint
from tests.oracles import ORIENTATION_MODEL

QUIET = NoiseSpec(0.0, 0.0, 0.0, 0.0)


class TestDefaultParametersOnNoisySurvey:
    """The shipped defaults (N=5, d=3, alpha=0.1, delta=1) must finish a
    100 s noisy survey with uncompensated sensor biases, without diverging,
    well inside a 100 s wall-clock budget."""

    def test_completes_within_budget(self):
        run = generate(benchmark_scenario(seed=0))
        epochs = run.epochs()
        t0 = time.perf_counter()
        points = run_cascade(epochs, CascadeConfig(initial=run.initial_nav()))
        wall = time.perf_counter() - t0
        assert wall < 100.0
        assert len(points) == len(epochs)
        flags = {p.flag for p in points}
        assert "fallback" not in flags
        assert all(np.all(np.isfinite(p.nav.position)) for p in points)
        truth = {p.t: p.nav for p in run.truth}
        final = points[-1]
        assert np.linalg.norm(final.nav.position - truth[final.t].position) < 10.0


class TestNoiselessConsistency:
    """With perfect sensors the cascade must reproduce the trajectory:
    final position error < 0.05 m and orientation error < 0.01 rad over
    a 100 s run."""

    @pytest.mark.parametrize("kind,kwargs", [
        ("line", {}),
        ("circle", {"circle_radius": 100.0}),
    ])
    def test_tracks_truth(self, kind, kwargs):
        spec = ScenarioSpec(kind=kind, duration=100.0, speed=0.5, noise=QUIET, **kwargs)
        run = generate(spec)
        points = run_cascade(run.epochs(), CascadeConfig(initial=run.initial_nav()))
        truth = {p.t: p.nav for p in run.truth}
        final = points[-1]
        ref = truth[final.t]
        assert np.linalg.norm(final.nav.position - ref.position) < 0.05
        assert quat_angular_distance(final.nav.orientation, ref.orientation) < 0.01


class TestWindowSolverMatchesLeastSquares:
    """On observable linear systems, 100 inner iterations must land within
    1e-6 of the direct least-squares solution of the stacked problem."""

    def test_hundred_random_systems(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(1, 5))       # state dim <= 4
            m = int(rng.integers(1, 4))       # measurement dim
            # The stacked map needs at least n rows to be observable.
            h_min = max(2, math.ceil(n / m))
            horizon = int(rng.integers(h_min, 7))  # window length <= 6
            while True:
                A = rng.normal(size=(n, n))
                A = 0.95 * A / max(np.linalg.norm(A, 2), 1e-9)
                C = rng.normal(size=(m, n))
                M_rows, offsets = [], []
                Phi, offset = np.eye(n), np.zeros(n)
                inputs = [rng.normal(size=n) * 0.1 for _ in range(horizon - 1)]
                for k in range(horizon):
                    M_rows.append(C @ Phi)
                    offsets.append(C @ offset)
                    if k < horizon - 1:
                        offset = A @ offset + inputs[k]
                        Phi = A @ Phi
                M = np.vstack(M_rows)
                if np.linalg.matrix_rank(M, tol=1e-6) == n and \
                        np.linalg.svd(M, compute_uv=False)[-1] > 0.3:
                    break
            x_true = rng.normal(size=n)
            Z, xk = [], x_true.copy()
            for k in range(horizon):
                Z.append(C @ xk)
                if k < horizon - 1:
                    xk = A @ xk + inputs[k]
            rhs = np.concatenate(Z) - np.concatenate(offsets)
            x_lstsq = np.linalg.lstsq(M, rhs, rcond=None)[0]

            model = WindowModel(
                state_dim=n, meas_dim=m,
                dynamics=lambda s, u, A=A: A @ s + u,
                measurement=lambda s, C=C: C @ s,
                dynamics_jacobian=lambda s, u, A=A: A,
                measurement_jacobian=lambda s, C=C: C,
            )
            alpha = 0.9 / np.linalg.eigvalsh(M.T @ M).max()
            params = IpgParams(horizon=horizon, iterations=100, alpha=alpha, delta=1.0)
            window = IpgWindow.initial(inputs, Z, np.zeros(n), k0_scale=1e-3)
            res = ipg_step(model, params, window)
            err = np.linalg.norm(res.window_start - x_lstsq)
            assert err < 1e-6, f"trial {trial}: |ipg - lstsq| = {err:.2e}"


class TestPreconditionerConvergence:
    """K_i must approach (J^T J)^{-1} monotonically and reach 1e-8 within
    500 iterations for 50 random full-rank Jacobians."""

    def test_fifty_random_jacobians(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            m = n + int(rng.integers(0, 4))
            U = np.linalg.qr(rng.normal(size=(m, m)))[0][:, :n]
            V = np.linalg.qr(rng.normal(size=(n, n)))[0]
            s = rng.uniform(0.7, 1.5, n)
            J = U @ np.diag(s) @ V.T
            target = np.linalg.inv(J.T @ J)
            alpha = 0.9 / np.linalg.eigvalsh(J.T @ J).max()
            K = np.zeros((n, n))
            prev = np.linalg.norm(K - target)
            for i in range(500):
                K = precondition_update(K, J, alpha)
                err = np.linalg.norm(K - target)
                assert err < prev, f"iteration {i}: error rose from {prev:.3e} to {err:.3e}"
                prev = err
                if err < 1e-8:
                    break
            assert prev < 1e-8


class TestCascadeJacobiansMatchFiniteDifferences:
    """The chain-rule stacked Jacobian of the orientation stage must agree
    with central finite differences to 1e-5 relative error on 100 random
    windows."""

    def random_epoch(self, rng, t_prev, n_samples=4):
        dts = rng.uniform(0.005, 0.02, n_samples)
        ts = t_prev + np.cumsum(dts)
        burst = np.array([[t, *rng.normal(size=3), *rng.normal(scale=0.8, size=3)] for t in ts])
        return SyncedEpoch(t=float(ts[-1]), t_prev=float(t_prev), imu_burst=burst,
                           dvl=np.zeros(3), ahrs=np.array([1.0, 0.0, 0.0, 0.0]))

    def test_hundred_random_windows(self, rng):
        gyro_bias = np.array([0.001, -0.002, 0.0005])
        model = ORIENTATION_MODEL
        fd_model = WindowModel(
            state_dim=model.state_dim,
            meas_dim=model.meas_dim,
            dynamics=model.dynamics,
            measurement=model.measurement,
        )
        for _ in range(100):
            horizon = int(rng.integers(2, 6))
            t = 0.0
            epochs = []
            for _ in range(horizon - 1):
                epochs.append(self.random_epoch(rng, t))
                t = epochs[-1].t
            inputs = BurstInput.from_epochs(epochs, ImuBiases(gyro=gyro_bias)).rot_increment
            q0 = rng.normal(size=4)
            q0 /= np.linalg.norm(q0)
            J = stacked_jacobian(model, tuple(inputs), q0)
            J_fd = stacked_jacobian(fd_model, tuple(inputs), q0)
            rel = np.linalg.norm(J - J_fd) / max(np.linalg.norm(J), 1.0)
            assert rel < 1e-5


class TestBenchmarkOrdering:
    """Across 20 seeds of the canonical noisy survey with uncompensated
    biases, the cascade's median total error must beat the EKF's."""

    N_SEEDS = 20

    def test_median_total_error_beats_ekf(self):
        cipg_scores, ekf_scores = [], []
        for seed in range(self.N_SEEDS):
            run = generate(benchmark_scenario(seed))
            epochs = run.epochs()
            initial = run.initial_nav()
            for name, scores in (("cipg", cipg_scores), ("ekf", ekf_scores)):
                if name == "cipg":
                    points = run_cascade(epochs, CascadeConfig(initial=initial))
                else:
                    points = run_ekf(epochs, FilterConfig(), initial=initial)
                report = evaluate_trajectories(points, run.truth)
                scores.append(report.total_error)
        cipg_median = float(np.median(cipg_scores))
        ekf_median = float(np.median(ekf_scores))
        assert cipg_median < ekf_median, (
            f"cipg median {cipg_median:.4f} vs ekf median {ekf_median:.4f}\n"
            f"cipg: {np.round(cipg_scores, 4).tolist()}\n"
            f"ekf:  {np.round(ekf_scores, 4).tolist()}"
        )

    @pytest.mark.skipif(
        "CIPGNAV_DATASET_DIR" not in os.environ,
        reason="set CIPGNAV_DATASET_DIR to a canonical CSV directory with gt.csv",
    )
    def test_real_dataset_ordering(self, tmp_path):
        from cipgnav.metrics import truth_from_gt
        from cipgnav.sensors import load_stream
        from cipgnav.cli import _load_epoch_dir, _initial_from_gt
        from pathlib import Path

        data = Path(os.environ["CIPGNAV_DATASET_DIR"])
        epochs = _load_epoch_dir(data, "nav")
        initial = _initial_from_gt(data, epochs)
        gt_points, has_orientation = truth_from_gt(load_stream(data / "gt.csv", "gt"))
        cfg = MetricsConfig(use_orientation=has_orientation)
        cipg = evaluate_trajectories(
            run_cascade(epochs, CascadeConfig(initial=initial)), gt_points, cfg
        )
        ekf = evaluate_trajectories(
            run_ekf(epochs, FilterConfig(), initial=initial), gt_points, cfg
        )
        assert cipg.total_error < ekf.total_error


class TestMetricClosedForms:
    """The metric definitions must match their closed forms exactly."""

    def test_total_error_definition(self):
        assert total_error([3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_rpe_translation_invariance(self):
        rng = np.random.default_rng(3)
        gt = [
            TrajectoryPoint(float(k), NavState(rng.normal(size=3), np.zeros(3)), "ok")
            for k in range(30)
        ]
        est = [
            TrajectoryPoint(p.t, NavState(p.nav.position + rng.normal(size=3) * 0.1,
                                          p.nav.velocity, p.nav.orientation), "ok")
            for p in gt
        ]
        shift = np.array([123.4, -56.7, 8.9])
        shifted = [
            TrajectoryPoint(p.t, NavState(p.nav.position + shift, p.nav.velocity,
                                          p.nav.orientation), "ok")
            for p in est
        ]
        a, _ = rpe(pair_trajectories(est, gt), delta=1.0)
        b, _ = rpe(pair_trajectories(shifted, gt), delta=1.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_ate_linear_drift_closed_form(self):
        n, c = 100, 0.01
        gt = [TrajectoryPoint(float(k), NavState(np.zeros(3), np.zeros(3)), "ok")
              for k in range(n + 1)]
        est = [
            TrajectoryPoint(p.t, NavState(np.array([c * k, 0.0, 0.0]), np.zeros(3)), "ok")
            for k, p in enumerate(gt)
        ]
        rmse, _ = ate(pair_trajectories(est, gt))
        expected = c * math.sqrt(n * (n + 1) * (2 * n + 1) / 6.0 / (n + 1))
        assert rmse == pytest.approx(expected, abs=1e-9)


class TestReplayReproducibility:
    """estimate --from-metadata must reproduce the trajectory bitwise from
    the recorded provenance, for both file and scenario inputs."""

    def test_file_input_replay(self, tmp_path):
        data = tmp_path / "data"
        assert main(["simulate", "--scenario", "lawnmower", "--duration", "20",
                     "--lawnmower-leg", "10", "--noise", "bluerov2", "--seed", "3",
                     "--out", str(data)]) == 0
        traj = tmp_path / "traj.csv"
        assert main(["estimate", "--input", str(data), "--estimator", "cipg",
                     "--out", str(traj)]) == 0
        replay = tmp_path / "replay.csv"
        assert main(["estimate", "--from-metadata", str(tmp_path / "traj.meta.json"),
                     "--out", str(replay)]) == 0
        assert replay.read_bytes() == traj.read_bytes()

    def test_scenario_input_replay(self, tmp_path):
        traj = tmp_path / "traj.csv"
        assert main(["estimate", "--scenario", "circle", "--duration", "15",
                     "--circle-radius", "20", "--noise", "bluerov2", "--seed", "11",
                     "--estimator", "inekf", "--out", str(traj)]) == 0
        meta = json.loads((tmp_path / "traj.meta.json").read_text())
        assert meta["input"]["mode"] == "scenario"
        replay = tmp_path / "replay.csv"
        assert main(["estimate", "--from-metadata", str(tmp_path / "traj.meta.json"),
                     "--out", str(replay)]) == 0
        assert replay.read_bytes() == traj.read_bytes()


class TestBaselineValidity:
    """Both baselines must stay numerically sound (symmetric PSD covariance)
    on noisy data and track noiseless data to < 1e-2 m over 100 s.  The InEKF's
    equivariance under left translations is a row of ``test_equivariance.py``."""

    def test_covariances_stay_symmetric_psd(self):
        run = generate(benchmark_scenario(seed=2, duration=60.0))
        epochs = run.epochs()
        config = FilterConfig()
        ekf = EkfState.start(run.initial_nav(), config)
        inekf = InekfState.start(run.initial_nav(), config)
        t_prev = epochs[0].t_prev
        for epoch in epochs:
            ekf = ekf_update(ekf_predict(ekf, epoch.imu_burst, config, t_prev),
                             epoch.dvl, epoch.ahrs, config)
            inekf = inekf_update(inekf_predict(inekf, epoch.imu_burst, config, t_prev),
                                 epoch.dvl, epoch.ahrs, config)
            t_prev = epoch.t
            for P in (ekf.cov, inekf.cov):
                np.testing.assert_allclose(P, P.T, atol=1e-9)
                assert np.linalg.eigvalsh(P).min() > -1e-9

    @pytest.mark.parametrize("runner", [run_ekf, run_inekf])
    def test_noiseless_tracking(self, runner):
        spec = ScenarioSpec(kind="circle", duration=100.0, speed=0.5,
                            circle_radius=100.0, noise=QUIET)
        run = generate(spec)
        points = runner(run.epochs(), FilterConfig(), initial=run.initial_nav())
        truth = {p.t: p.nav for p in run.truth}
        errs = [np.linalg.norm(p.nav.position - truth[p.t].position) for p in points]
        assert max(errs) < 1e-2
