"""scripts/trajectory_diff.py: the per-quantity comparison behind its 1e-12 gate."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "trajectory_diff.py"


@pytest.fixture(scope="module")
def trajectory_diff():
    spec = importlib.util.spec_from_file_location("trajectory_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_max_deviation_of_finite_pairs(trajectory_diff):
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    pairs = [(a, a), (a, a + [[0.0, 5e-13], [-2e-13, 0.0]])]
    assert trajectory_diff.max_deviation(pairs) == pytest.approx(5e-13, rel=1e-3)
    assert trajectory_diff.max_deviation(pairs) <= trajectory_diff.TOLERANCE
    assert trajectory_diff.max_deviation([]) == 0.0


@pytest.mark.parametrize("old, new, reads", [
    ([0.0, np.nan], [0.0, 1.0], "nan"),
    ([0.0, 1.0], [0.0, np.nan], "nan"),
    ([np.inf, 1.0], [np.inf, 1.0], "nan"),
    ([0.0, 1.0], [0.0, -np.inf], "inf"),
], ids=["nan-vs-finite", "finite-vs-nan", "inf-minus-inf", "finite-vs-inf"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_difference_fails(trajectory_diff, old, new, reads):
    # The bad pair sits between two equal ones so that no later pair can hide it.
    same = (np.zeros(2), np.zeros(2))
    dev = trajectory_diff.max_deviation([same, (np.array(old), np.array(new)), same])
    assert f"{dev:g}" == reads
    assert not dev <= trajectory_diff.TOLERANCE


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_report_deviation_counts_nan_on_both_sides_as_equal(trajectory_diff):
    dev, bitwise = trajectory_diff.report_deviation([1.0, np.nan, 0.0, np.inf],
                                                    [1.0, np.nan, -0.0, np.inf])
    assert dev == 0.0
    assert bitwise == 3  # -0.0 equals 0.0 but differs in its sign bit


@pytest.mark.parametrize("old, new, reads", [
    ([1.0, np.nan], [1.0, 2.0], "nan"),
    ([1.0, 2.0], [1.0, np.nan], "nan"),
    ([1.0, 2.0], [1.0, 2.0 + 1e-9], "1e-09"),
], ids=["nan-vs-finite", "finite-vs-nan", "over-tolerance"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_report_deviation_fails_on_one_sided_nan_or_excess(trajectory_diff, old, new, reads):
    dev, bitwise = trajectory_diff.report_deviation(old, new)
    assert f"{dev:.3g}" == reads
    assert not dev <= trajectory_diff.TOLERANCE
    assert bitwise == 1
