"""Window solver recursions against hand-computed and least-squares oracles."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from cipgnav.errors import DivergenceError
from cipgnav.ipg import (
    IpgParams,
    IpgWindow,
    WindowModel,
    ipg_step,
    iterate_update,
    precondition_update,
    slide_window,
    stacked_jacobian,
    stacked_map,
)

SCALAR_MODEL = WindowModel(
    state_dim=1,
    meas_dim=1,
    dynamics=lambda x, u: x,
    measurement=lambda x: 2.0 * x,
    dynamics_jacobian=lambda x, u: np.eye(1),
    measurement_jacobian=lambda x: np.array([[2.0]]),
)


class TestPreconditionUpdate:
    def test_frozen_scalar_values(self):
        # J = [[2]], alpha = 0.1, K0 = 0:
        #   K1 = 0 - 0.1*(4*0 - 1) = 0.1
        #   K2 = 0.1 - 0.1*(4*0.1 - 1) = 0.16
        J = np.array([[2.0]])
        K1 = precondition_update(np.array([[0.0]]), J, 0.1)
        assert K1[0, 0] == pytest.approx(0.1, abs=1e-15)
        K2 = precondition_update(K1, J, 0.1)
        assert K2[0, 0] == pytest.approx(0.16, abs=1e-15)

    def test_converges_to_normal_matrix_inverse(self, rng):
        J = rng.normal(size=(6, 3))
        target = np.linalg.inv(J.T @ J)
        alpha = 0.9 / np.linalg.eigvalsh(J.T @ J).max()
        K = np.zeros((3, 3))
        errs = []
        for _ in range(400):
            K = precondition_update(K, J, alpha)
            errs.append(np.linalg.norm(K - target))
        assert errs[-1] < 1e-8
        assert all(b < a + 1e-15 for a, b in zip(errs, errs[1:]))

    def test_fixed_point(self, rng):
        J = rng.normal(size=(5, 2))
        K = np.linalg.inv(J.T @ J)
        np.testing.assert_allclose(precondition_update(K, J, 0.3), K, atol=1e-12)


class TestIterateUpdate:
    def test_scalar_descent_step(self):
        # zeta' = zeta - delta * K * J^T (H - Z)
        out = iterate_update(
            np.array([0.0]), np.array([[0.001]]), np.array([[2.0], [2.0]]),
            np.array([-6.0, -6.0]), 1.0,
        )
        assert out[0] == pytest.approx(0.024, abs=1e-15)


class TestIpgStep:
    def make_window(self, iterate=0.0):
        return IpgWindow.initial(
            inputs=(None,),
            measurements=(np.array([6.0]), np.array([6.0])),
            iterate=np.array([iterate]),
            k0_scale=1e-3,
        )

    def test_frozen_two_iteration_oracle(self):
        # Hand-rolled recursion, both updates using the pre-update K:
        #   i=0: zeta 0 -> 0.024,  K 0.001 -> 0.1002
        #   i=1: residual -5.952 each row, J^T r = -23.808
        #        zeta -> 0.024 + 0.1002*23.808 = 2.4095616, K -> 0.12004
        params = IpgParams(horizon=2, iterations=2, alpha=0.1, delta=1.0, k0_scale=1e-3)
        res = ipg_step(SCALAR_MODEL, params, self.make_window())
        assert res.window_start[0] == pytest.approx(2.4095616, abs=1e-12)
        assert res.estimate[0] == pytest.approx(2.4095616, abs=1e-12)
        assert res.window.precond[0, 0] == pytest.approx(0.12004, abs=1e-12)

    def test_iterate_uses_pre_update_preconditioner(self):
        # With one inner iteration the state step must use K0 = 1e-3
        # (giving 0.024), not the freshly updated K1 = 0.1002 (which would
        # give 2.4048).
        params = IpgParams(horizon=2, iterations=1, alpha=0.1, delta=1.0)
        res = ipg_step(SCALAR_MODEL, params, self.make_window())
        assert res.window_start[0] == pytest.approx(0.024, abs=1e-15)
        assert res.window.precond[0, 0] == pytest.approx(0.1002, abs=1e-15)

    def test_estimate_propagates_through_all_inputs(self):
        model = WindowModel(
            state_dim=1,
            meas_dim=1,
            dynamics=lambda x, u: x + u,
            measurement=lambda x: x,
        )
        window = IpgWindow.initial(
            inputs=(0.5, 0.25),
            measurements=(np.array([1.0]), np.array([1.5]), np.array([1.75])),
            iterate=np.array([0.0]),
            k0_scale=1e-3,
        )
        params = IpgParams(horizon=3, iterations=300, alpha=0.3, delta=1.0)
        res = ipg_step(model, params, window)
        assert res.window_start[0] == pytest.approx(1.0, abs=1e-8)
        assert res.estimate[0] == pytest.approx(1.75, abs=1e-8)
        # Warm start: converged window-start iterate advanced one step.
        assert res.window.iterate[0] == pytest.approx(1.5, abs=1e-8)
        np.testing.assert_array_equal(res.window.precond, res.window.precond)

    def test_matches_least_squares_on_linear_system(self, rng):
        # Linear dynamics and output: after enough inner iterations the
        # window-start iterate solves the same stacked least-squares problem
        # as a direct solver, even with noisy measurements.
        n, m, horizon = 3, 2, 4
        A = 0.9 * np.linalg.qr(rng.normal(size=(n, n)))[0]
        C = rng.normal(size=(m, n))
        inputs = [rng.normal(size=n) * 0.1 for _ in range(horizon - 1)]
        x = rng.normal(size=n)
        Z, M_rows, offsets = [], [], []
        offset = np.zeros(n)
        Phi = np.eye(n)
        xk = x.copy()
        for k in range(horizon):
            Z.append(C @ xk + 0.01 * rng.normal(size=m))
            M_rows.append(C @ Phi)
            offsets.append(C @ offset)
            if k < horizon - 1:
                xk = A @ xk + inputs[k]
                offset = A @ offset + inputs[k]
                Phi = A @ Phi
        M = np.vstack(M_rows)
        rhs = np.concatenate(Z) - np.concatenate(offsets)
        x_lstsq = np.linalg.lstsq(M, rhs, rcond=None)[0]

        model = WindowModel(
            state_dim=n,
            meas_dim=m,
            dynamics=lambda s, u: A @ s + u,
            measurement=lambda s: C @ s,
            dynamics_jacobian=lambda s, u: A,
            measurement_jacobian=lambda s: C,
        )
        alpha = 0.9 / np.linalg.eigvalsh(M.T @ M).max()
        params = IpgParams(horizon=horizon, iterations=400, alpha=alpha, delta=1.0)
        window = IpgWindow.initial(inputs, Z, np.zeros(n), k0_scale=1e-3)
        res = ipg_step(model, params, window)
        np.testing.assert_allclose(res.window_start, x_lstsq, atol=1e-8)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_iteration_index(self):
        params = IpgParams(horizon=2, iterations=50, alpha=1e160, delta=1e160)
        with pytest.raises(DivergenceError) as exc_info:
            ipg_step(SCALAR_MODEL, params, self.make_window())
        assert exc_info.value.iteration is not None


class TestStackedOperators:
    def nonlinear_model(self):
        return WindowModel(
            state_dim=2,
            meas_dim=2,
            dynamics=lambda x, u: np.array([x[0] * np.cos(x[1]), x[1] + u * x[0]]),
            measurement=lambda x: np.array([x[0] ** 2, x[0] * x[1]]),
            dynamics_jacobian=lambda x, u: np.array(
                [[np.cos(x[1]), -x[0] * np.sin(x[1])], [u, 1.0]]
            ),
            measurement_jacobian=lambda x: np.array([[2 * x[0], 0.0], [x[1], x[0]]]),
        )

    def test_stacked_map_composition(self):
        model = WindowModel(
            state_dim=1, meas_dim=1,
            dynamics=lambda x, u: 2.0 * x + u, measurement=lambda x: 3.0 * x,
        )
        H = stacked_map(model, inputs=(1.0, 1.0), x0=np.array([1.0]))
        np.testing.assert_allclose(H, [3.0, 9.0, 21.0])

    def test_chain_rule_matches_finite_differences(self, rng):
        model = self.nonlinear_model()
        fd_model = WindowModel(
            state_dim=2, meas_dim=2, dynamics=model.dynamics, measurement=model.measurement,
        )
        for _ in range(10):
            x0 = rng.normal(size=2)
            inputs = tuple(rng.normal(size=()) * 0.5 for _ in range(3))
            J = stacked_jacobian(model, inputs, x0)
            J_fd = stacked_jacobian(fd_model, inputs, x0)
            np.testing.assert_allclose(J, J_fd, rtol=1e-5, atol=1e-7)


class TestWindowBookkeeping:
    def test_slide_window_drops_oldest(self):
        w = IpgWindow.initial(
            inputs=("u0", "u1"),
            measurements=(np.array([0.0]), np.array([1.0]), np.array([2.0])),
            iterate=np.array([7.0]),
            k0_scale=0.5,
        )
        w2 = slide_window(w, "u2", np.array([3.0]))
        assert w2.inputs == ("u1", "u2")
        np.testing.assert_allclose(np.concatenate(w2.measurements), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(w2.iterate, w.iterate)
        np.testing.assert_allclose(w2.precond, w.precond)

    def test_window_shape_validation(self):
        with pytest.raises(ValueError, match="one measurement per epoch"):
            IpgWindow(("u0",), (np.zeros(1),), np.zeros(1), np.eye(1))
        with pytest.raises(ValueError, match="preconditioner"):
            IpgWindow(("u0",), (np.zeros(1), np.zeros(1)), np.zeros(1), np.eye(2))

    def test_params_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            IpgParams(horizon=1)
        with pytest.raises(ValueError, match="iterations"):
            IpgParams(iterations=0)

    @pytest.mark.parametrize("name", ["alpha", "delta", "k0_scale"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -1.0],
                             ids=["inf", "-inf", "nan", "zero", "negative"])
    def test_params_reject_step_sizes_not_finite_and_positive(self, name, bad):
        # An infinite delta or k0_scale once constructed, and the cascade then
        # diverged at its first epoch.
        message = f"{name} must be finite and positive, got {bad}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            IpgParams(**{name: bad})

    @pytest.mark.parametrize("name", ["horizon", "iterations"])
    @pytest.mark.parametrize("bad", [2.5, 3.7, 5.0, "5", None, True, np.float64(5.0)],
                             ids=["2.5", "3.7", "5.0", "str", "none", "bool", "np-float"])
    def test_params_reject_non_integer_counts(self, name, bad):
        # Once truncated: horizon=2.5 ran with N = 2 and iterations=3.7 with 3.
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            IpgParams(**{name: bad})

    @pytest.mark.parametrize("kind", [int, np.int32, np.int64, np.uint8])
    def test_params_accept_integer_counts(self, kind):
        params = IpgParams(horizon=kind(7), iterations=kind(4))
        assert (params.horizon, params.iterations) == (7, 4)
        assert type(params.horizon) is int and type(params.iterations) is int
