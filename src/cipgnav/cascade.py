"""Two-stage cascaded window observer over synchronized epochs.

Stage 1 estimates orientation: the window dynamics integrate gyro bursts and
the measurements are AHRS quaternions (identity measurement map, hemisphere
aligned to the prediction, renormalized after every inner iteration).  Each
burst is one preintegrated rotation increment r_j, and normalization only
rescales, so window row j is normalize(zeta * U_j) with U_j = r_1 * ... * r_j:
a fixed 4x4 map M_j of the window-start iterate zeta, with M_j^T M_j =
|U_j|^2 I, followed by row normalization.  The stage's normal equations are
therefore closed-form in zeta and a per-window (N-1, 4) array, and
``_orientation_step`` forms no Jacobian.  The M_j and that array depend only
on the AHRS rows and the increments, never on the iterates, so
``cascade_step`` builds them for a block of consecutive windows at once
(``_window_terms``) and lists each block's terms as Python floats once.
Each epoch then runs on floats end to end: the iterates and preconditioners
cross epochs as floats (zeta as 4, K as 16), and only the emitted NavState
holds arrays, because on 4-vectors and 4x4 matrices the overhead of a numpy
call outweighs its arithmetic.  K is updated in reduced form, three float
operations per entry.  The hemisphere signs s_j = sign(W_j . zeta) come
from one pass over the N-1 rows at the first inner iteration, and again only
once the iterate has moved by low / (2 w_max) from where they were found, low
the least |dot| and w_max the largest row norm: short of that no sign can
change, so the other iterations read no row and cost O(1), whatever N.  The
tests state the same stage as a generic ``WindowModel`` for ``ipg_step``, the
reference the closed form is tested against.

Stage 2 estimates velocity: the measurements are DVL velocities and each
burst is preintegrated into a rotation increment and a body-frame velocity
increment, which depend only on the IMU rows and the biases: ``start``
preintegrates every burst of the run in one pass (``BurstInput``, in
``preintegration``), and each epoch's windows are slices of per-run arrays.
The velocity dynamics do not depend on the velocity state, so the stacked
Jacobian is a stack of identities, the preconditioner stays a scaled
identity k*I, and the inner iterations reduce to an exact scalar-gain
recursion, linear in the iterate, whose d iterations compose into two
scalars: zeta_d = A zeta + B misfit.  It reads the window's increments only
through three sums: of its offsets, its last offset and its first increment.
A burst's navigation-frame increment is its body-frame increment rotated by
stage 1's orientation at the burst start, zeta * U_j / |U_j|, so R(zeta)
factors out of each sum, leaving a data-only 3-vector that ``_window_terms``
builds with the orientation terms.  Per epoch the stage forms R(zeta) and
three rotations of a 3-vector on Python floats: O(1), whatever N.

Both stages run on one ``IpgParams``.  Position is not windowed: it
integrates the stage-2 velocity estimate over the epoch period.  The
windows roll from the first epoch, whose dead-reckoned state seeds both
iterates, and the first N-1 epochs are emitted as dead-reckoned warmup rows
while they fill.  On divergence the estimator aborts (default) or falls back
to dead reckoning for the epoch and clears the iterates; the next epoch
reseeds them from the direct measurements at its window start.  Dead
reckoning runs from the same preintegrated bursts, in O(1) per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateQuaternionError, DivergenceError, NumericalError, _one_of
from .ipg import IpgParams
from .ipg import ipg_step  # noqa: F401  kept as a module attribute: perfbench wraps it by name
from .ipg import slide_window  # noqa: F401  kept as a module attribute: perfbench wraps it by name
from .preintegration import (
    BurstInput,
    GravityModel,
    ImuBiases,
    NavState,
    _columns,
    dead_reckon,
    preintegrate_burst,  # noqa: F401  kept as a module attribute: perfbench wraps it by name
    propagate_orientation,  # noqa: F401  kept as a module attribute: perfbench counts its calls
    running_product,
)
from .quat import (
    _NORM_EPS,
    _unit,
    ordered_matmul,
    quat_normalize,
    quat_right_matrix,
    rotation_entries,
    rotation_rows,
    row_norms,
)
from .sensors import initial_nav_from_epochs
from .trajectory import TrajectoryPoint

__all__ = [
    "CascadeConfig",
    "CascadeState",
    "cascade_step",
    "run_cascade",
]

FALLBACK_MODES = ("abort", "deadreckon")
_BLOCK = 128  # windows per block of _window_terms: bounds its arrays


class _Window(NamedTuple):
    """One window's terms from ``_window_terms``, as Python floats."""

    start: list  # z_0, the AHRS row at the window start (4 floats)
    W: list  # the rows W_j, j = 1..N-1 (N-1 lists of 4 floats)
    first: list  # M_1 as 4 rows of 4 floats: M_1 zeta is the warm-started iterate
    last: list  # M_{N-1} as 4 rows: M_{N-1} zeta is the current-epoch estimate
    sums: list  # the velocity stage's 18 sums
    w_max: float  # max(1, |z_0|, max_j |W_j|): bounds how far a move turns each dot
    fault: Optional[np.ndarray] = None  # the window's M when a |U_j| is zero, NaN or infinite


def _window_terms(ahrs, dvl, bursts: BurstInput, g, horizon: int, first: int, count: int) -> list:
    """Terms of the ``count`` windows from window ``first`` on, one ``_Window`` per
    window: its AHRS start row, W and two maps for ``_orientation_step`` and
    its sums for ``_velocity_step``.

    Window i spans AHRS and DVL rows i..i+N-1 and ``bursts`` rows i+1..i+N-1.
    With M_j (4, 4) the map of U_j, the rows are W_j = M_j^T Z_j / |U_j|, and a
    window where a norm |U_j| is zero, NaN or infinite keeps its M (N-1, 4,
    4) as ``fault`` for the error it raises at its epoch.

    Burst j = 0..N-2 of the window starts at stage 1's orientation zeta * U_j
    / |U_j| (U_0 = 1), so its velocity increment is R(zeta) c_j + d_j g, with
    c_j = R(U_j / |U_j|) body_dv_j and d_j its duration.  The velocity stage
    reads the increments only through sum_i (o_i - z_i), o_{N-1} and o_1, o_i
    the sum of the first i increments and z_i the DVL rows, and each is
    R(zeta) times a 3-vector plus another.  ``sums`` holds those six
    3-vectors in that order: sum_i sum_{j<i} c_j and sum_i sum_{j<i} d_j g -
    sum_i z_i, sum_j c_j and sum_j d_j g, c_0 and d_0 g.

    The terms depend only on the data, never on the iterates.  Each step runs
    on all windows at once and rounds as on one window, so a window's terms
    do not depend on its block, and each block array becomes Python floats in
    one ``tolist``.  Errors wait for the window's epoch: the fill never warns.
    """
    rows = first + np.arange(count)[:, None] + np.arange(horizon)  # (count, N)
    inputs = rows[:, 1:]  # the bursts of each window
    with np.errstate(all="ignore"):
        # q * U_{j-1} * r_j = R(r_j) R(U_{j-1}) q, so M_j = R(r_j) @ M_{j-1}.
        M = quat_right_matrix(bursts.rot_increment[inputs])
        for j in range(1, horizon - 1):
            M[:, j] = ordered_matmul(M[:, j], M[:, j - 1])
        U = M[:, :, :, 0]  # column 0 of M_j is U_j
        norms = row_norms(U)
        W = ordered_matmul(ahrs[inputs][:, :, None, :], M)[:, :, 0, :] / norms[:, :, None]
        ok = ((norms > _NORM_EPS) & (norms < math.inf)).all(axis=1)
        c = bursts.body_dv[inputs]  # c_0 = body_dv_0, as U_0 = 1
        c[:, 1:] = ordered_matmul(rotation_rows(U[:, :-1] / norms[:, :-1, None]),
                                  bursts.body_dv[inputs[:, 1:], :, None])[..., 0]
        d = bursts.duration[inputs]
        offsets, spans = np.cumsum(c, axis=1), np.cumsum(d, axis=1)  # parts of o_1..o_{N-1}
        sums = np.concatenate([offsets.sum(axis=1),
                               spans.sum(axis=1)[:, None] * g - dvl[rows].sum(axis=1),
                               offsets[:, -1], spans[:, -1:] * g, c[:, 0], d[:, :1] * g], axis=1)
        start = ahrs[first:first + count]
        w_max = np.maximum(np.maximum(row_norms(W).max(axis=1), row_norms(start)), 1.0)
    windows = list(map(_Window, start.tolist(), W.tolist(), M[:, 0].tolist(),
                       M[:, -1].tolist(), sums.tolist(), w_max.tolist()))
    for i in np.flatnonzero(~ok).tolist():
        windows[i] = windows[i]._replace(fault=M[i].copy())
    return windows


def _fault(M) -> Exception:
    """The error of a window whose M (N-1, 4, 4) has a zero, NaN or infinite |U_j|:
    DegenerateQuaternionError for a zero or NaN one, as ``unit_rows`` raises it,
    else NumericalError.  Computed without numpy's overflow warnings."""
    with np.errstate(all="ignore"):
        norms = row_norms(M[:, :, 0])
    if not (norms > _NORM_EPS).all():  # also catches NaN
        return DegenerateQuaternionError(
            f"cannot normalize quaternion with norm {norms.min():.3e}")
    return NumericalError("non-finite stacked Jacobian entry in the orientation window")


def _precond(k0: float) -> list:
    """The initial orientation preconditioner k0*I as 16 floats, row-major."""
    return (k0 * np.eye(4)).ravel().tolist()


def _orientation_step(params: IpgParams, zeta, K, window: _Window):
    """``ipg_step`` of the orientation stage, on closed-form normal equations.

    ``window`` holds the window's terms from ``_window_terms``, which are built
    per block of windows: z_0, the AHRS quaternion at the window start, the
    rows W_j and the maps M_1 and M_{N-1}.  With U_0 = 1 and U_j = U_{j-1} *
    r_j, r_j the window's j-th rotation increment, row j >= 1 of the stacked
    map is P_j = Y_j / |Y_j|, Y_j = M_j zeta with M_j the right-multiplication
    matrix of U_j, and its Jacobian block is J_j = (I - P_j P_j^T) M_j / |Y_j|,
    as normalize(normalize(y) * u) equals normalize(y * u).
    Row 0 is zeta with an identity block.  As M_j^T M_j = |U_j|^2 I, a unit
    zeta gives J_j^T J_j = I - zeta zeta^T, and the AHRS block Z_j, flipped
    onto the hemisphere of P_j by s_j = sign(W_j . zeta), gives J_j^T (P_j -
    s_j Z_j) = -s_j (I - zeta zeta^T) W_j with W_j = M_j^T Z_j / |U_j|.  So
    J^T J = I + (N-1)(I - zeta zeta^T) and J^T r = r_0 + zeta (zeta . w) - w,
    w = sum_j s_j W_j: no Jacobian is formed in the inner iterations.  With
    r_0 = zeta - s_0 z_0, this is J^T r = zeta (1 + sum_j |W_j . zeta|) -
    (s_0 z_0 + w), and a dot of exactly 0 or NaN gives s = +1.  The
    preconditioner update K - alpha (J^T J K - I) is then, in reduced form,
    c K + alpha (N-1) zeta (zeta^T K) + alpha I with c = 1 - alpha N.

    The signs change only where the iterate crosses a hemisphere, so the row
    pass, the only loop over the N-1 rows, runs at iteration 0 and then only
    when the iterate x may have crossed one.  It forms s_0, the s_j, v = sum_j
    s_j W_j, u = s_0 z_0 + v, the scale 1 + sum_j |W_j . x| and low, the
    least |dot|, z_0's included, and keeps x as the anchor x_a.  As |W_j . (x
    - x_a)| <= w_max |x - x_a|, with w_max = max(1, |z_0|, max_j |W_j|) from
    ``_window_terms``, no dot can change sign while |x - x_a| < low / (2
    w_max); the other half of low is kept for the rounding of the dots, a few
    ulps of w_max each.  Until then an iteration keeps the signs and u and
    takes scale = 1 + v . x, the same sum to rounding: four products,
    whatever N.  A zero margin (a dot of exactly 0) or a NaN distance reruns
    the pass.

    Everything runs on Python floats, zeta as 4 floats and K as 16 in
    row-major order, because each numpy call on a 4-vector costs more in
    overhead than in arithmetic.  A zero or NaN |U_j| raises
    DegenerateQuaternionError and an infinite one NumericalError, before the
    iterations.  An iterate whose norm is not finite (a non-finite component,
    or an overflow) or a non-finite K raises DivergenceError with the
    iteration; a norm of at most ``_NORM_EPS`` raises
    DegenerateQuaternionError, as ``quat_normalize`` does.

    Returns the current-epoch estimate (row N-1 of the stacked map), the
    warm-started iterate (row 1, normalized again), K, and zeta, each as
    floats; only those two rows of the map are formed.  Raises
    DivergenceError, NumericalError and DegenerateQuaternionError where
    ipg_step does.
    """
    (z0, z1, z2, z3), W_rows, first, last, _, w_max, fault = window
    if fault is not None:
        raise _fault(fault)
    rows, alpha, delta = len(W_rows), params.alpha, params.delta
    keep, pull = 1.0 - alpha * (1.0 + rows), alpha * rows
    x, k = zeta, K
    h0, h1, h2, h3 = x  # the anchor: the iterate of the last row pass
    bound = 0.0  # a zero bound runs the row pass at iteration 0
    for i in range(params.iterations):
        a, b, c, d = x
        e0, e1, e2, e3 = a - h0, b - h1, c - h2, d - h3
        if not e0 * e0 + e1 * e1 + e2 * e2 + e3 * e3 < bound:  # also on a NaN distance
            # The row pass: u = s_0 z_0 + v, v = sum_j s_j W_j, scale = 1 + sum_j
            # |W_j . x| and low, the least |dot|, z_0's included.
            dot = z0 * a + z1 * b + z2 * c + z3 * d
            s = -1.0 if dot < 0.0 else 1.0
            u0, u1, u2, u3, low = s * z0, s * z1, s * z2, s * z3, abs(dot)
            v0 = v1 = v2 = v3 = 0.0
            scale = 1.0
            for p, q, r, t in W_rows:
                dot = p * a + q * b + r * c + t * d
                if dot < 0.0:
                    p, q, r, t, dot = -p, -q, -r, -t, -dot
                u0, u1, u2, u3, scale = u0 + p, u1 + q, u2 + r, u3 + t, scale + dot
                v0, v1, v2, v3 = v0 + p, v1 + q, v2 + r, v3 + t
                if dot < low:
                    low = dot
            margin = low / (2.0 * w_max)
            h0, h1, h2, h3, bound = a, b, c, d, margin * margin
        else:  # no sign can have flipped since the anchor
            scale = 1.0 + (v0 * a + v1 * b + v2 * c + v3 * d)
        g0, g1, g2, g3 = a * scale - u0, b * scale - u1, c * scale - u2, d * scale - u3  # J^T r
        k00, k01, k02, k03, k10, k11, k12, k13, k20, k21, k22, k23, k30, k31, k32, k33 = k
        m0, m1, m2, m3 = (a * k00 + b * k10 + c * k20 + d * k30,  # zeta^T K
                          a * k01 + b * k11 + c * k21 + d * k31,
                          a * k02 + b * k12 + c * k22 + d * k32,
                          a * k03 + b * k13 + c * k23 + d * k33)
        pa, pb, pc, pd = pull * a, pull * b, pull * c, pull * d
        k_next = (
            keep * k00 + pa * m0 + alpha, keep * k01 + pa * m1,
            keep * k02 + pa * m2, keep * k03 + pa * m3,
            keep * k10 + pb * m0, keep * k11 + pb * m1 + alpha,
            keep * k12 + pb * m2, keep * k13 + pb * m3,
            keep * k20 + pc * m0, keep * k21 + pc * m1,
            keep * k22 + pc * m2 + alpha, keep * k23 + pc * m3,
            keep * k30 + pd * m0, keep * k31 + pd * m1,
            keep * k32 + pd * m2, keep * k33 + pd * m3 + alpha,
        )
        y0 = a - delta * (k00 * g0 + k01 * g1 + k02 * g2 + k03 * g3)
        y1 = b - delta * (k10 * g0 + k11 * g1 + k12 * g2 + k13 * g3)
        y2 = c - delta * (k20 * g0 + k21 * g1 + k22 * g2 + k23 * g3)
        y3 = d - delta * (k30 * g0 + k31 * g1 + k32 * g2 + k33 * g3)
        norm = math.sqrt(y0 * y0 + y1 * y1 + y2 * y2 + y3 * y3)
        # One sum tests all 16 entries; it also overflows on finite ones, so those
        # are tested one by one before the step counts as diverged.
        if not math.isfinite(norm + sum(k_next)) and not (
                math.isfinite(norm) and all(map(math.isfinite, k_next))):
            raise DivergenceError("window solver produced a non-finite value", iteration=i)
        if norm <= _NORM_EPS:
            raise DegenerateQuaternionError(f"cannot normalize quaternion with norm {norm:.3e}")
        x, k = [y0 / norm, y1 / norm, y2 / norm, y3 / norm], k_next
    a, b, c, d = x
    warm, estimate = ([p * a + q * b + r * c + t * d for p, q, r, t in m]
                      for m in (first, last))  # M_1 zeta and M_{N-1} zeta
    return _unit(estimate), _unit(_unit(warm)), k, x


def _velocity_iterations(params: IpgParams, x, k: float, misfit):
    """The velocity stage's d inner iterations one by one: k' = k - alpha (N k -
    1) and x' = x - delta k (N x + misfit).  Raises DivergenceError at the
    first iteration with a non-finite x' or k'; returns x and k."""
    n = params.horizon
    for i in range(params.iterations):
        k_next = k - params.alpha * (n * k - 1.0)
        gain = params.delta * k
        x_next = [a - gain * (n * a + m) for a, m in zip(x, misfit)]
        if not (all(map(math.isfinite, x_next)) and math.isfinite(k_next)):
            raise DivergenceError("window solver produced a non-finite value", iteration=i)
        x, k = x_next, k_next
    return x, k


def _velocity_step(params: IpgParams, q, zeta, k: float, sums):
    """``ipg_step`` of the velocity stage, with preconditioner k*I, in closed form.

    ``q`` is stage 1's window-start orientation, ``zeta`` the iterate (3
    floats) and ``sums`` the window's 18 sums from ``_window_terms``.  The
    stage is linear with identity maps, so J = [I; ...; I] and K = k*I stays
    a scaled identity.  With o_i the sum of the window's first i velocity
    increments (o_0 = 0) and z_i its DVL rows, the inner iterations reduce
    exactly to k' = k - alpha * (N k - 1) and zeta' = zeta - delta * k * (N
    zeta + misfit), misfit = sum_i (o_i - z_i).  That recursion is linear in
    zeta and misfit, so d iterations compose to zeta_d = A zeta + B misfit,
    with A, B and k from a loop on scalars.  The increments depend on q only
    through R(q), so misfit, o_{N-1} and the first increment o_1 are each
    R(q) times a 3-vector of ``sums`` plus another: O(1) per epoch, whatever
    N.  Returns the current-epoch estimate zeta_d + o_{N-1}, the warm-started
    iterate zeta_d + o_1 and k, each as floats.  On a non-finite zeta_d or k
    it reruns the iterations one by one, which raise DivergenceError at the
    iteration ipg_step does.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = rotation_entries(q)
    misfit, last, first = ([r00 * a + r01 * b + r02 * c + u,
                            r10 * a + r11 * b + r12 * c + v,
                            r20 * a + r21 * b + r22 * c + w]
                           for a, b, c, u, v, w in (sums[:6], sums[6:12], sums[12:]))
    n, alpha, delta, gain = params.horizon, params.alpha, params.delta, k
    A, B = 1.0, 0.0  # zeta_i = A zeta + B misfit
    for _ in range(params.iterations):
        step = delta * gain
        A, B, gain = A - step * (n * A), B - step * (n * B + 1.0), gain - alpha * (n * gain - 1.0)
    x = [A * a + B * m for a, m in zip(zeta, misfit)]
    if not (all(map(math.isfinite, x)) and math.isfinite(gain)):
        x, gain = _velocity_iterations(params, zeta, k, misfit)
    return [a + b for a, b in zip(x, last)], [a + b for a, b in zip(x, first)], gain


@dataclass(frozen=True, eq=False)
class CascadeConfig:
    """Cascade parameters; both stages run on ``params``.

    Compared and hashed by identity, as ``FilterConfig`` is: ``initial`` is a
    mutable ``NavState`` whose array fields have no single truth value, so a
    config equals only itself, also after ``dataclasses.replace``.
    """

    params: IpgParams = field(default_factory=IpgParams)
    biases: ImuBiases = field(default_factory=ImuBiases)
    gravity: GravityModel = field(default_factory=GravityModel)
    initial: Optional[NavState] = None
    fallback: str = "abort"

    def __post_init__(self):
        _one_of("fallback", self.fallback, FALLBACK_MODES)
        # Both stages have lambda_max(J^T J) = N, and the preconditioner recursion
        # K <- K - alpha (K J^T J - I) converges only when alpha * N < 2.
        alpha, horizon = self.params.alpha, self.params.horizon
        if alpha * horizon >= 2.0:
            raise ValueError(f"alpha * horizon must be < 2 for the window solver to converge, "
                             f"got alpha {alpha:g} * horizon {horizon} = {alpha * horizon:g}")


@dataclass
class CascadeState:
    """Mutable per-run state of the cascade estimator.

    ``start`` keeps the run's ``epochs``, preintegrates every burst into
    ``bursts`` and stacks every epoch's ``ahrs`` and ``dvl``; at epoch k =
    ``cursor`` the windows are their rows k-N+1..k and rows k-N+2..k of
    ``bursts``.  The
    orientation stage's window terms depend only on those rows, so
    ``cascade_step`` builds them ``_BLOCK`` windows at a time: ``terms`` holds
    those of windows ``terms_first`` on (window k-N+1 at epoch k).  The
    iterates estimate the window start from the first epoch's dead reckoning
    on; after a fallback epoch (None) the next reseeds them from row 0.  They
    and the preconditioners cross epochs as Python floats.
    """

    config: CascadeConfig
    nav: NavState
    bursts: BurstInput
    epochs: list  # as passed to start
    ahrs: np.ndarray  # (n, 4)
    dvl: np.ndarray  # (n, 3)
    q_precond: list  # the 4x4 orientation preconditioner as 16 floats, row-major
    v_gain: float  # the velocity preconditioner is v_gain * I
    cursor: int = 0
    q_iterate: Optional[list] = None  # 4 floats
    v_iterate: Optional[list] = None  # 3 floats
    terms: list = field(default_factory=list)  # _window_terms of windows terms_first on
    terms_first: int = 0

    @classmethod
    def start(cls, config: CascadeConfig, epochs) -> "CascadeState":
        nav = config.initial.copy() if config.initial is not None else initial_nav_from_epochs(epochs)
        k0 = config.params.k0_scale
        return cls(config, nav, BurstInput.from_epochs(epochs, config.biases), list(epochs),
                   np.array([e.ahrs for e in epochs], dtype=float),
                   np.array([e.dvl for e in epochs], dtype=float), _precond(k0), k0)


def _overflow_row(state: CascadeState, w: int, M) -> float:
    """The ``t`` of the IMU row where window w's rotation first overflows: with
    j the first infinite |U_j| of its M, the first row of burst w+1+j whose
    running product from U_{j-1} has an infinite norm (the burst's last row
    if rounding moves the overflow past it)."""
    biases = state.config.biases
    with np.errstate(all="ignore"):
        j = int(np.flatnonzero(~(row_norms(M[:, :, 0]) < math.inf))[0])
        epoch = state.epochs[w + 1 + j]
        dts, _, gyro = _columns(epoch.imu_burst, [epoch.t_prev], biases.gyro, biases.accel)
        start = M[j - 1, :, 0] if j else (1.0, 0.0, 0.0, 0.0)
        bad = np.flatnonzero(~(row_norms(running_product(start, dts, gyro))[1:] < math.inf))
    return float(epoch.imu_burst[bad[0] if bad.size else -1, 0])


def cascade_step(state: CascadeState, epoch):
    """Consume the next SyncedEpoch of the run and emit a TrajectoryPoint.

    ``epoch`` must be the next of those passed to ``CascadeState.start``, which
    hold its burst and measurements; one at another timestamp raises ValueError
    naming both.  The first N-1 epochs dead-reckon (flag ``warmup``) while the
    windows fill.  Afterwards each epoch slides the windows, runs stage 1 then
    stage 2, and integrates position over the epoch period.  A stage that
    diverges (DivergenceError) aborts or falls back as ``config.fallback``
    says; a window whose terms are degenerate or not finite raises
    NumericalError or DegenerateQuaternionError, prefixed with the stage and
    the epoch's ``t``, under either fallback; a NumericalError also names the
    IMU row where the window's rotation overflows.
    """
    config, k, horizon = state.config, state.cursor, state.config.params.horizon
    epochs = state.epochs
    if k == len(epochs) or epoch.t != epochs[k].t:
        expected = f"t={epochs[k].t!r}" if k < len(epochs) else "none: every epoch was stepped"
        raise ValueError(f"epoch at t={epoch.t!r} is not the next one passed to start: {expected}")
    state.cursor, bursts = k + 1, state.bursts

    if k < horizon - 1:
        nav = dead_reckon(state.nav, bursts, k, config.gravity.vector)
        if k == 0:  # the window start
            state.q_iterate, state.v_iterate = nav.orientation.tolist(), nav.velocity.tolist()
        state.nav = nav
        return state, TrajectoryPoint(epoch.t, nav, "warmup")

    w = k + 1 - horizon  # the window: AHRS and DVL rows w..k, bursts w+1..k
    if not 0 <= w - state.terms_first < len(state.terms):
        state.terms = []  # free the old block first: two at once double its memory
        count = min(_BLOCK, len(epochs) - k)
        state.terms = _window_terms(state.ahrs, state.dvl, bursts, config.gravity.vector,
                                    horizon, w, count)
        state.terms_first = w
    window = state.terms[w - state.terms_first]
    if state.q_iterate is None:
        # After a fallback epoch, restart from the direct measurements of the
        # window start (identity measurement maps).
        k0 = config.params.k0_scale
        state.q_iterate, state.q_precond = quat_normalize(state.ahrs[w]).tolist(), _precond(k0)
        state.v_iterate, state.v_gain = state.dvl[w].tolist(), k0

    stage = "orientation"
    try:
        orientation, q_iterate, q_precond, zeta = _orientation_step(
            config.params, state.q_iterate, state.q_precond, window)
        stage = "velocity"
        velocity, v_iterate, v_gain = _velocity_step(
            config.params, zeta, state.v_iterate, state.v_gain, window.sums)
    except (NumericalError, DegenerateQuaternionError) as exc:
        where = ""
        if isinstance(exc, NumericalError):  # raised only for an infinite |U_j|
            where = f" (it overflows at the IMU row at t={_overflow_row(state, w, window.fault)!r})"
        raise type(exc)(f"{stage} window of the epoch at t={epoch.t!r}: {exc}{where}") from exc
    except DivergenceError as exc:
        if config.fallback == "abort":
            raise DivergenceError(
                "cascade stage diverged", iteration=exc.iteration, stage=stage, epoch=epoch.t
            ) from exc
        nav = dead_reckon(state.nav, bursts, k, config.gravity.vector)
        state.nav = nav
        state.q_iterate = state.v_iterate = None
        return state, TrajectoryPoint(epoch.t, nav, "fallback")

    dt = epoch.t - epochs[k - 1].t
    position = [p + v * dt for p, v in zip(state.nav.position.tolist(), velocity)]
    # Stage 1's estimate is unit.
    nav = NavState.exact(np.array(position), np.array(velocity), np.array(orientation))

    state.q_iterate, state.q_precond = q_iterate, q_precond
    state.v_iterate, state.v_gain = v_iterate, v_gain
    state.nav = nav
    return state, TrajectoryPoint(epoch.t, nav, "ok")


def run_cascade(epochs, config: CascadeConfig):
    """Run the cascade over a full epoch stream; returns one row per epoch."""
    epochs = list(epochs)
    if len(epochs) < config.params.horizon:
        raise ValueError(
            f"need at least horizon={config.params.horizon} epochs, got {len(epochs)}"
        )
    state = CascadeState.start(config, epochs)
    points = []
    for epoch in epochs:
        state, point = cascade_step(state, epoch)
        points.append(point)
    return points
