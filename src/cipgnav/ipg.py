"""Sliding-window observer with an iteratively preconditioned gradient solver.

A window over the last N epochs holds N measurements and the N-1 inputs that
connect them.  The unknown is the state at the start of the window; stacking
the measurement map along the predicted trajectory gives the residual

    r(zeta) = stacked_map(zeta) - Z.

Each epoch runs a fixed number of inner iterations of the coupled recursions

    K <- K - alpha * (J^T J K - I)          (preconditioner)
    zeta <- zeta - delta * K J^T r(zeta)    (iterate)

where J is the stacked Jacobian at the current iterate.  The preconditioner
converges to (J^T J)^{-1}, so the iterate update approaches a Gauss-Newton
step without ever factorizing J^T J.  Between epochs the window warm-starts:
the iterate is pushed one step forward through the oldest input and the
preconditioner is carried over unchanged.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, NumericalError

__all__ = [
    "WindowModel",
    "IpgParams",
    "IpgWindow",
    "IpgStepResult",
    "stacked_map",
    "stacked_jacobian",
    "precondition_update",
    "iterate_update",
    "ipg_step",
    "slide_window",
]


@dataclass(frozen=True)
class WindowModel:
    """Discrete-time system seen by the window solver.

    ``dynamics(x, u)`` advances the state one epoch with input ``u`` (any
    per-step payload, e.g. an IMU burst).  ``measurement(x)`` maps a state to
    a measurement vector.  When both ``dynamics_jacobian`` and
    ``measurement_jacobian`` are provided the stacked Jacobian is assembled
    by the chain rule; otherwise central finite differences on the stacked
    map are used.

    ``post_iterate`` (optional) projects the iterate back onto a constraint
    manifold after each inner iteration and after warm-start propagation
    (e.g. quaternion renormalization).  ``align_measurements`` (optional)
    rewrites the stacked measurement vector given the current prediction,
    e.g. to pick the quaternion hemisphere nearest the iterate.
    """

    state_dim: int
    meas_dim: int
    dynamics: Callable
    measurement: Callable
    dynamics_jacobian: Optional[Callable] = None
    measurement_jacobian: Optional[Callable] = None
    post_iterate: Optional[Callable] = None
    align_measurements: Optional[Callable] = None


@dataclass(frozen=True)
class IpgParams:
    """Window length, inner iterations and the constant step sizes.

    ``alpha`` (preconditioner) and ``delta`` (iterate) are the step sizes of
    every inner iteration; ``k0_scale * I`` is the initial preconditioner.
    The counts must be integers and the step sizes real numbers: a string or a
    bool is refused.
    """

    horizon: int = 5
    iterations: int = 3
    alpha: float = 0.1
    delta: float = 1.0
    k0_scale: float = 1e-3

    def __post_init__(self):
        for name, least in (("horizon", 2), ("iterations", 1)):
            value = getattr(self, name)
            # numbers.Integral covers numpy integers; a bool is not a count.
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, int(value))
        for name in ("k0_scale", "alpha", "delta"):
            value = getattr(self, name)
            # A numeric string would convert; a bool is not a step size.
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            value = float(value)
            if not 0.0 < value < math.inf:  # also rejects NaN
                raise ValueError(f"{name} must be finite and positive, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class IpgWindow:
    """Window contents plus the solver state attached to it.

    ``inputs`` has length N-1 and ``measurements`` length N.  ``iterate``
    estimates the state at the oldest epoch of the window; ``precond`` is the
    current preconditioner matrix.
    """

    inputs: tuple
    measurements: tuple
    iterate: np.ndarray
    precond: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(
            self, "measurements", tuple(np.asarray(z, dtype=float) for z in self.measurements)
        )
        object.__setattr__(self, "iterate", np.asarray(self.iterate, dtype=float))
        object.__setattr__(self, "precond", np.asarray(self.precond, dtype=float))
        if len(self.measurements) != len(self.inputs) + 1:
            raise ValueError(
                f"window needs one measurement per epoch: got {len(self.measurements)} "
                f"measurements for {len(self.inputs)} inputs"
            )
        n = self.iterate.shape[0]
        if self.precond.shape != (n, n):
            raise ValueError(
                f"preconditioner shape {self.precond.shape} does not match state dim {n}"
            )

    @classmethod
    def initial(cls, inputs, measurements, iterate, k0_scale: float) -> "IpgWindow":
        n = len(np.asarray(iterate, dtype=float))
        return cls(tuple(inputs), tuple(measurements), iterate, float(k0_scale) * np.eye(n))


@dataclass(frozen=True)
class IpgStepResult:
    """Output of one epoch of the window solver.

    ``estimate`` is the current-epoch state (the converged window-start
    iterate pushed through every input of the window).  ``window_start`` is
    the converged iterate itself.  ``window`` is ready for the next epoch:
    same inputs and measurements, iterate warm-started one step forward,
    preconditioner carried over.
    """

    estimate: np.ndarray
    window_start: np.ndarray
    window: IpgWindow


def stacked_map(model: WindowModel, inputs, x0) -> np.ndarray:
    """Concatenated measurement predictions along the propagated trajectory.

    Returns ``[h(x0); h(f(x0, u1)); ...; h(f(...f(x0, u1)..., uM))]`` with
    shape ``((M+1) * meas_dim,)`` for M inputs.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (model.state_dim,):
        raise ValueError(f"state shape {x.shape} does not match model dim {model.state_dim}")
    blocks = []
    z = np.asarray(model.measurement(x), dtype=float)
    if z.shape != (model.meas_dim,):
        raise ValueError(f"measurement shape {z.shape} does not match meas dim {model.meas_dim}")
    blocks.append(z)
    for u in inputs:
        x = np.asarray(model.dynamics(x, u), dtype=float)
        if x.shape != (model.state_dim,):
            raise ValueError(f"dynamics returned shape {x.shape}, expected ({model.state_dim},)")
        blocks.append(np.asarray(model.measurement(x), dtype=float))
    return np.concatenate(blocks)


def _stacked_jacobian_chain(model: WindowModel, inputs, x0) -> np.ndarray:
    n = model.state_dim
    p = model.meas_dim
    rows = [np.asarray(model.measurement_jacobian(x0), dtype=float)]
    transition = np.eye(n)
    x = np.asarray(x0, dtype=float)
    for u in inputs:
        step = np.asarray(model.dynamics_jacobian(x, u), dtype=float)
        transition = step @ transition
        x = np.asarray(model.dynamics(x, u), dtype=float)
        rows.append(np.asarray(model.measurement_jacobian(x), dtype=float) @ transition)
    J = np.vstack(rows)
    if J.shape != ((len(inputs) + 1) * p, n):
        raise ValueError(f"stacked Jacobian shape {J.shape} inconsistent with model dims")
    return J


def _stacked_jacobian_fd(model: WindowModel, inputs, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    cols = []
    for i in range(n):
        h = max(1e-6, 1e-6 * abs(float(x0[i])))
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((stacked_map(model, inputs, xp) - stacked_map(model, inputs, xm)) / (2.0 * h))
    return np.column_stack(cols)


def stacked_jacobian(model: WindowModel, inputs, x0) -> np.ndarray:
    """Jacobian of stacked_map with respect to the window-start state.

    Uses the chain rule over per-step Jacobians when the model provides
    them, central finite differences otherwise.
    """
    if model.dynamics_jacobian is not None and model.measurement_jacobian is not None:
        J = _stacked_jacobian_chain(model, inputs, x0)
    else:
        J = _stacked_jacobian_fd(model, inputs, x0)
    if not np.all(np.isfinite(J)):
        bad = int(np.argwhere(~np.isfinite(J))[0][0])
        raise NumericalError(f"non-finite stacked Jacobian entry in row {bad}")
    return J


def precondition_update(K, J, alpha: float) -> np.ndarray:
    """K' = K - alpha * (J^T J K - I)."""
    K = np.asarray(K, dtype=float)
    J = np.asarray(J, dtype=float)
    n = K.shape[0]
    if K.shape != (n, n) or J.shape[1] != n:
        raise ValueError(f"shape mismatch: K {K.shape}, J {J.shape}")
    return K - float(alpha) * (J.T @ (J @ K) - np.eye(n))


def iterate_update(zeta, K, J, residual, delta: float) -> np.ndarray:
    """zeta' = zeta - delta * K J^T residual."""
    zeta = np.asarray(zeta, dtype=float)
    return zeta - float(delta) * (np.asarray(K, dtype=float) @ (np.asarray(J, dtype=float).T @ np.asarray(residual, dtype=float)))


def _stack_measurements(window: IpgWindow) -> np.ndarray:
    return np.concatenate(window.measurements)


def ipg_step(model: WindowModel, params: IpgParams, window: IpgWindow) -> IpgStepResult:
    """Run the inner iterations on a full window and warm-start the next one.

    Raises DivergenceError (with the inner-iteration index) as soon as the
    iterate, its norm or the preconditioner stops being finite, before
    ``post_iterate`` sees the iterate.
    """
    if len(window.measurements) != params.horizon:
        raise ValueError(
            f"window holds {len(window.measurements)} epochs, params.horizon is {params.horizon}"
        )
    zeta = window.iterate
    K = window.precond
    Z = _stack_measurements(window)
    for i in range(params.iterations):
        predicted = stacked_map(model, window.inputs, zeta)
        J = stacked_jacobian(model, window.inputs, zeta)
        Z_eff = Z
        if model.align_measurements is not None:
            Z_eff = model.align_measurements(predicted, Z)
        residual = predicted - Z_eff
        K_next = precondition_update(K, J, params.alpha)
        zeta_next = iterate_update(zeta, K, J, residual, params.delta)
        with np.errstate(over="ignore"):
            norm_sq = zeta_next @ zeta_next  # NaN or inf for a non-finite component
        if not (np.isfinite(norm_sq) and np.all(np.isfinite(K_next))):
            raise DivergenceError("window solver produced a non-finite value", iteration=i)
        if model.post_iterate is not None:
            zeta_next = np.asarray(model.post_iterate(zeta_next), dtype=float)
        zeta, K = zeta_next, K_next

    estimate = zeta
    for u in window.inputs:
        estimate = np.asarray(model.dynamics(estimate, u), dtype=float)

    warm = np.asarray(model.dynamics(zeta, window.inputs[0]), dtype=float)
    if model.post_iterate is not None:
        warm = np.asarray(model.post_iterate(warm), dtype=float)
    next_window = replace(window, iterate=warm, precond=K)
    return IpgStepResult(estimate=estimate, window_start=zeta, window=next_window)


def slide_window(window: IpgWindow, new_input, new_measurement) -> IpgWindow:
    """Drop the oldest input/measurement pair and append the newest.

    The iterate and preconditioner are untouched; ipg_step already
    warm-started them for the slid window.
    """
    new_z = np.asarray(new_measurement, dtype=float)
    if new_z.shape != window.measurements[0].shape:
        raise ValueError(
            f"measurement shape {new_z.shape} does not match window blocks "
            f"{window.measurements[0].shape}"
        )
    return IpgWindow(
        inputs=window.inputs[1:] + (new_input,),
        measurements=window.measurements[1:] + (new_z,),
        iterate=window.iterate,
        precond=window.precond,
    )
