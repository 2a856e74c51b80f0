"""One table of symmetries that every estimator must respect.

Each row transforms a run's input streams and initial state, runs an estimator
on the run and on its transform, maps the second output back, and requires
the two to agree up to the rounding the transformation allows (metamorphic
testing: Chen et al., ACM Computing Surveys 51(1), 2018).  The runs are
``benchmark_scenario`` seeds 0-2: 100 s lawnmower surveys with noisy sensors
and uncompensated IMU biases, 500 epochs and 10,000 IMU samples each.

Rows:

- ``translate``: the navigation origin moves by ORIGIN.  The estimate moves
  by the same offset.
- ``yaw``: the navigation frame turns by YAW about gravity.  The DVL rows and
  the initial position and velocity turn with it, and the AHRS rows and the
  initial attitude are left-multiplied by the turn.  The IMU rows are
  body-frame, so they do not change.
- ``time``: every ``t`` moves by SHIFT.  The estimate's ``t`` moves with the
  epochs' ``t`` exactly, and its states stay where they were.
- ``body-dvl``: the same run generated with body-frame DVL rows and read
  through ``sensors.dvl_body_to_nav``.  It is compared against the run
  generated in the navigation frame.  The AHRS noise is off in both, since
  the simulator turns the DVL into the body frame by the true attitude and the
  conversion turns it back by the AHRS reading.
- ``left-translation``: the yaw and the translation together, with the
  InEKF's initial covariance carried through the adjoint of the motion:
  P0 -> Ad P0 Ad^T.  This is its group equivariance (Barrau & Bonnabel, IEEE
  TAC 62(4), 2017).

cipg and the EKF take every row but ``left-translation``.  The InEKF takes
``time``, ``body-dvl`` and ``left-translation``.  Its plain rigid-motion
rows, with P0 left as it is, are missing because they fail: the body-frame
noise mapped through Ad carries [p]x terms, and an attitude correction turns
the position about the origin.  Moving the origin by (1 km, -2 km, 0) with a
1 rad yaw moves its output by 710-2,050 m.  Those rows land with the InEKF's
model fix (ROADMAP item 4).

Bounds come from the rounding each row allows, never from the measured
differences.  ulp(x) is the spacing of floats at |x|.  n is the number of
epochs and n_imu the number of IMU samples.

- Rigid motions and ``body-dvl``: in exact arithmetic the two runs agree, so
  they differ by rounding alone, at most an ulp of a quantity's size at each
  step that rounds it.  cipg steps its state once per epoch, the filters once
  per IMU sample and once per update: m = n steps for cipg and n_imu + n =
  10,500 for the filters.  So the bound is m ulp(c):
    - position: c is the largest coordinate of the transformed run's
      estimate, which includes the moved origin;
    - velocity: c = |g|, the size of the specific force and gravity terms
      that step it;
    - attitude: 2 m ulp(1), the angle of a unit quaternion whose components
      are off by m ulp(1).
- ``time``: a shifted ``t`` is rounded to half its ulp, and the difference of
  two nearby shifted times is exact (Sterbenz), so each dt moves by at most
  delta = ulp(t_max + SHIFT).  Each IMU sample steps a state by a rate times
  its dt, so it moves that step by at most the rate times delta:
    - position: n_imu delta v_max, where v_max is the estimate's largest
      speed;
    - velocity: n_imu delta (a_max + |g|), since |R a + g| <= |a| + |g| for
      the largest accelerometer reading a_max;
    - attitude: n_imu delta w_max, for the largest gyro reading w_max.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from cipgnav.baselines import (
    FilterConfig,
    InekfState,
    _run_filter,
    inekf_predict,
    inekf_update,
    run_ekf,
    run_inekf,
)
from cipgnav.cascade import CascadeConfig, run_cascade
from cipgnav.preintegration import NavState
from cipgnav.quat import (
    quat_angular_distance,
    quat_conjugate,
    quat_from_yaw,
    quat_product,
    quat_to_rotation,
    rotate_vector,
    row_norms,
)
from cipgnav.sensors import synchronize
from cipgnav.sim import benchmark_scenario, generate
from tests.conftest import skew

SEEDS = (0, 1, 2)
YAW = 1.0  # rad about gravity
ORIGIN = np.array([1000.0, -2000.0, 30.0])  # m
SHIFT = 1e6  # s
G = FilterConfig().gravity.magnitude  # m/s^2, as every estimator here assumes


class Output(NamedTuple):
    t: np.ndarray  # (n,)
    p: np.ndarray  # (n, 3)
    v: np.ndarray  # (n, 3)
    q: np.ndarray  # (n, 4)


class Case(NamedTuple):
    """A row's transform of a run."""

    moved: tuple  # (epochs, initial NavState)
    back: Callable  # Output of the transformed run -> Output in the original frame
    bounds: Callable  # (Output of the transformed run, steps) -> (position, velocity, angle)
    adjoint: np.ndarray | None = None  # the InEKF's P0 -> adjoint P0 adjoint^T


@functools.lru_cache(maxsize=None)
def scenario(seed, dvl_frame="nav", ahrs_noise=True):
    spec = benchmark_scenario(seed)
    if not ahrs_noise:
        spec = replace(spec, noise=replace(spec.noise, ahrs_std=0.0))
    return generate(replace(spec, dvl_frame=dvl_frame))


def run(estimator, epochs, initial, adjoint=None) -> Output:
    config = FilterConfig()
    if estimator == "cipg":
        points = run_cascade(epochs, CascadeConfig(initial=initial))
    elif estimator == "ekf":
        points = run_ekf(epochs, config, initial)
    elif adjoint is None:
        points = run_inekf(epochs, config, initial)
    else:
        def start(nav, config):
            state = InekfState.start(nav, config)
            return replace(state, cov=adjoint @ state.cov @ adjoint.T)

        points = _run_filter("run_inekf", start, inekf_predict, inekf_update, InekfState.nav,
                             epochs, config, initial)
    return Output(np.array([p.t for p in points]), np.array([p.nav.position for p in points]),
                  np.array([p.nav.velocity for p in points]),
                  np.array([p.nav.orientation for p in points]))


@functools.lru_cache(maxsize=None)
def base_output(estimator, seed, ahrs_noise=True) -> Output:
    run_ = scenario(seed, ahrs_noise=ahrs_noise)
    return run(estimator, run_.epochs(), run_.initial_nav())


def steps(estimator, epochs) -> int:
    """The steps that round an estimator's state over a run: one per epoch for
    cipg; one per IMU sample and one per update for the filters."""
    if estimator == "cipg":
        return len(epochs)
    return len(epochs) + sum(len(epoch.imu_burst) for epoch in epochs)


def rounding_bounds(out: Output, m: int):
    return m * np.spacing(np.abs(out.p).max()), m * np.spacing(G), 2.0 * m * np.spacing(1.0)


def rigid(seed, yaw, origin, adjoint=False) -> Case:
    """Turn the navigation frame by ``yaw`` about gravity and move its origin to
    ``origin``; ``adjoint`` carries the InEKF's P0 through the motion's adjoint."""
    run_ = scenario(seed)
    qg = quat_from_yaw(yaw)
    dvl, ahrs = run_.dvl.copy(), run_.ahrs.copy()
    dvl[:, 1:] = rotate_vector(qg, dvl[:, 1:])
    ahrs[:, 1:] = quat_product(qg, ahrs[:, 1:])
    nav = run_.initial_nav()
    moved = NavState(rotate_vector(qg, nav.position) + origin, rotate_vector(qg, nav.velocity),
                     quat_product(qg, nav.orientation))
    qb = quat_conjugate(qg)

    def back(out):
        return Output(out.t, rotate_vector(qb, out.p - origin), rotate_vector(qb, out.v),
                      quat_product(qb, out.q))

    Ad = None
    if adjoint:  # on the error (attitude, velocity, position)
        R = quat_to_rotation(qg)
        Ad = np.zeros((9, 9))
        Ad[0:3, 0:3] = Ad[3:6, 3:6] = Ad[6:9, 6:9] = R
        Ad[6:9, 0:3] = skew(origin) @ R
    return Case((synchronize(run_.imu, dvl, ahrs), moved), back, rounding_bounds, Ad)


def time_shift(seed) -> Case:
    run_ = scenario(seed)
    imu, dvl, ahrs = run_.imu.copy(), run_.dvl.copy(), run_.ahrs.copy()
    for rows in (imu, dvl, ahrs):
        rows[:, 0] += SHIFT

    def bounds(out, _):
        delta = np.spacing(run_.imu[-1, 0] + SHIFT) * len(run_.imu)
        return (delta * row_norms(out.v).max(),
                delta * (row_norms(run_.imu[:, 1:4]).max() + G),
                delta * row_norms(run_.imu[:, 4:7]).max())

    return Case((synchronize(imu, dvl, ahrs), run_.initial_nav()), lambda out: out, bounds)


def body_dvl(seed) -> Case:
    body = scenario(seed, "body", ahrs_noise=False)
    return Case((body.epochs(), body.initial_nav()), lambda out: out, rounding_bounds)


ROWS = {
    "translate": (("cipg", "ekf"), lambda seed: rigid(seed, 0.0, ORIGIN)),
    "yaw": (("cipg", "ekf"), lambda seed: rigid(seed, YAW, np.zeros(3))),
    "time": (("cipg", "ekf", "inekf"), time_shift),
    "body-dvl": (("cipg", "ekf", "inekf"), body_dvl),
    "left-translation": (("inekf",), lambda seed: rigid(seed, YAW, ORIGIN, adjoint=True)),
}
TABLE = [pytest.param(row, estimator, seed, id=f"{row}-{estimator}-{seed}")
         for row, (estimators, _) in ROWS.items() for estimator in estimators for seed in SEEDS]


@pytest.mark.parametrize("row, estimator, seed", TABLE)
def test_symmetry(row, estimator, seed):
    case = ROWS[row][1](seed)
    want = base_output(estimator, seed, ahrs_noise=row != "body-dvl")
    moved = run(estimator, *case.moved, adjoint=case.adjoint)
    assert np.array_equal(moved.t, want.t + (SHIFT if row == "time" else 0.0))
    bound_p, bound_v, bound_q = case.bounds(moved, steps(estimator, case.moved[0]))
    got = case.back(moved)
    assert np.abs(got.p - want.p).max() <= bound_p
    assert np.abs(got.v - want.v).max() <= bound_v
    assert quat_angular_distance(got.q, want.q).max() <= bound_q

