"""The field rules of ``errors``, through every value class that calls them.

One table lists each checked field of each config class and of ``NavState``
with its rule; each row is tried with the values its rule refuses and the
values it accepts.  A structural test checks that every numeric, flag or
array field of those classes has a row, so a new field cannot skip the rules.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import NamedTuple

import numpy as np
import pytest

from cipgnav.baselines import FilterConfig
from cipgnav.cascade import FALLBACK_MODES, CascadeConfig
from cipgnav.errors import SpecError
from cipgnav.ipg import IpgParams
from cipgnav.metrics import MetricsConfig
from cipgnav.preintegration import GravityModel, ImuBiases, NavState
from cipgnav.sim import KINDS, NoiseSpec, ScenarioSpec

TINY = 5e-324  # the least positive float
NOT_NUMBERS = ["1", b"1", True, False, np.True_, None, [1.0]]
NON_FINITE = [math.nan, math.inf, -math.inf]


class Rule(NamedTuple):
    refused: list
    accepted: list
    stored: type  # the type each accepted value is stored as


def real(bound: str) -> Rule:
    outside = {"positive": [0.0, -0.0, -1.0], ">= 0": [-TINY, -1.0], "": []}[bound]
    inside = {"positive": [TINY], ">= 0": [0.0, TINY], "": [-1e300, 0.0]}[bound]
    return Rule(NOT_NUMBERS + NON_FINITE + outside,
                inside + [np.float64(1.5), np.int64(2), np.float32(0.5), 7], float)


def count(least: int) -> Rule:
    return Rule(NOT_NUMBERS + NON_FINITE + [least + 0.5, float(least), np.float64(least),
                                            least - 1, np.int64(least - 1)],
                [least, least + 1, np.int64(least), np.int32(least + 3)], int)


def vector(positive: bool = False) -> Rule:
    refused = [["1", "2", "3"], [b"1", b"2", b"3"], [True, False, True], [1.0, True, 1.0],
               [None] * 3, None, "1,2,3", [1.0, 2.0], np.ones((1, 3)), np.ones(4),
               *([1.0, bad, 1.0] for bad in NON_FINITE)]
    if positive:
        refused += [[1.0, 0.0, 1.0], [1.0, -TINY, 1.0]]
    accepted = [np.array([1, 2, 3]), [np.float64(0.5), 2, np.int64(3)], (TINY, TINY, TINY),
                np.array([1.0, 2.0, 3.0], dtype=np.float32)]
    return Rule(refused, accepted, np.ndarray)


def one_of(options) -> Rule:
    refused = [str(options[0]) + "x", None, 1, 0, 1.0, np.True_, [options[0]]]
    refused += [o.encode() for o in options if isinstance(o, str)]
    refused += [str(o) for o in options if isinstance(o, bool)]
    return Rule(refused, list(options), object)


FLAG = one_of((False, True))
WAYPOINTS = ((0.0, 0.0, 0.0), (10.0, 5.0, 0.0))


class Row(NamedTuple):
    cls: type
    field: str
    rule: Rule
    context: dict = {}  # other fields, so that the value alone decides
    name: str = ""  # what the message starts with, if not the field's name


ROWS = [
    Row(IpgParams, "horizon", count(2)),
    Row(IpgParams, "iterations", count(1)),
    *(Row(IpgParams, name, real("positive")) for name in ("alpha", "delta", "k0_scale")),
    Row(CascadeConfig, "fallback", one_of(FALLBACK_MODES)),
    *(Row(FilterConfig, name, real(">= 0")) for name in ("p0_scale", "q_pos", "q_vel", "q_att")),
    *(Row(FilterConfig, name, vector(positive=True)) for name in ("r_vel", "r_att")),
    Row(FilterConfig, "validate", FLAG),
    *(Row(ImuBiases, name, vector(), name=f"{name} bias") for name in ("accel", "gyro")),
    Row(GravityModel, "vector", vector(), {"allow_nonstandard": True}, "gravity vector"),
    Row(GravityModel, "allow_nonstandard", FLAG),
    *(Row(NoiseSpec, name, real(">= 0"))
      for name in ("accel_density", "gyro_density", "dvl_std", "ahrs_std")),
    Row(ScenarioSpec, "kind", one_of(KINDS), {"waypoints": WAYPOINTS}),
    *(Row(ScenarioSpec, name, real("positive"))
      for name in ("duration", "circle_radius", "lawnmower_leg", "lawnmower_spacing")),
    # imu_rate must be >= 2 meas_rate, 0.5 here: TINY is not accepted.
    Row(ScenarioSpec, "imu_rate",
        real("positive")._replace(accepted=[0.5, np.float64(1.5), np.int64(2), 7]),
        {"meas_rate": 0.25}),
    Row(ScenarioSpec, "meas_rate", real("positive")),
    Row(ScenarioSpec, "speed", real(">= 0"), {"kind": "stationary"}),
    Row(ScenarioSpec, "initial_heading", real("")),
    Row(ScenarioSpec, "dvl_frame", one_of(("nav", "body"))),
    Row(ScenarioSpec, "seed", count(0)),
    Row(MetricsConfig, "n_align_fixes", count(2)),
    Row(MetricsConfig, "rpe_delta", real("positive")),
    Row(MetricsConfig, "lever_arm", real(">= 0")),
    *(Row(MetricsConfig, name, FLAG) for name in ("align", "use_orientation")),
    *(Row(NavState, name, vector()) for name in ("position", "velocity")),
]
# Checked by another rule: quat_normalize refuses a degenerate or non-finite quaternion.
UNRULED = {(NavState, "orientation")}


def _cases(accepted: bool):
    for row in ROWS:
        for k, value in enumerate(row.rule.accepted if accepted else row.rule.refused):
            yield pytest.param(row, value, id=f"{row.cls.__name__}.{row.field}-{k}")


@pytest.mark.parametrize("row, value", _cases(accepted=False))
def test_refused_values_name_the_field(row, value):
    with pytest.raises(SpecError) as exc_info:
        row.cls(**{**row.context, row.field: value})
    assert str(exc_info.value).startswith(f"{row.name or row.field} must be ")


@pytest.mark.parametrize("row, value", _cases(accepted=True))
def test_accepted_values_are_stored_as_python_types(row, value):
    stored = getattr(row.cls(**{**row.context, row.field: value}), row.field)
    if row.rule.stored is np.ndarray:
        assert stored.dtype == float and stored.shape == (3,)
        np.testing.assert_array_equal(stored, np.asarray(value, dtype=float))
        # A config's vectors are read-only copies; a NavState's stay writable.
        assert stored.flags.writeable == (row.cls is NavState)
        assert not np.shares_memory(stored, value)
    elif row.rule.stored is object:
        assert stored is value
    else:
        assert type(stored) is row.rule.stored and stored == value


@pytest.mark.parametrize("cls", sorted({row.cls for row in ROWS}, key=lambda c: c.__name__))
def test_every_numeric_flag_and_array_field_has_a_rule(cls):
    checked = {row.field for row in ROWS if row.cls is cls}
    typed = {f.name for f in fields(cls) if f.type in ("int", "float", "bool", "np.ndarray")}
    assert typed - {field for c, field in UNRULED if c is cls} <= checked


@pytest.mark.parametrize("waypoint", [("1", 0, 0), (1, 0), (0, math.nan, 0), (True, 0, 0)])
def test_waypoint_coordinates_are_finite_real_numbers(waypoint):
    with pytest.raises(SpecError, match=r"^waypoints\[1\] must be 3 finite values"):
        ScenarioSpec(kind="waypoints", waypoints=((0, 0, 0), waypoint))


def test_waypoints_are_stored_as_float_triples():
    spec = ScenarioSpec(waypoints=[np.array([0, 1, 2]), [np.float64(3.5), 4, np.int64(5)]])
    assert spec.waypoints == ((0.0, 1.0, 2.0), (3.5, 4.0, 5.0))
    assert all(type(c) is float for w in spec.waypoints for c in w)
