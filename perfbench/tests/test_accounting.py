"""The percentile rule and failure accounting."""

import numpy as np
import pytest

from accounting import Ledger, check_rows, digest, tail_percentile
from cipgnav.preintegration import NavState
from cipgnav.trajectory import TrajectoryPoint
from workloads import closed_loop


@pytest.mark.parametrize("n, expected", [
    (19, None),
    (20, 50.0),
    (99, 50.0),
    (100, 90.0),
    (999, 90.0),
    (1000, 99.0),
    (9999, 99.0),
    (10000, 99.9),
    (100000, 99.99),
])
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


class Epoch:
    def __init__(self, t):
        self.t = t


def row(t, flag="ok"):
    return TrajectoryPoint(t, NavState(np.zeros(3), np.zeros(3), np.array([1.0, 0, 0, 0])), flag)


def test_run_that_raises_mid_stream_fails_its_remaining_epochs():
    epochs = [Epoch(float(i + 1)) for i in range(10)]

    def healthy(epoch):
        return row(epoch.t, "fallback" if epoch.t == 2.0 else "ok")

    def breaks_at_four(epoch):
        if epoch.t == 4.0:
            raise ArithmeticError("diverged")
        return row(epoch.t)

    ledger = Ledger()
    times, costs, points = closed_loop(epochs, {"a": healthy, "b": breaks_at_four}, ledger,
                                       "test")
    assert ledger.attempted == 20
    # one fallback epoch of "a", plus epochs 4..10 of "b"
    assert ledger.failed == 1 + 7
    assert len(times["b"]) == len(costs["b"]) == len(points["b"]) == 3
    assert len(costs["a"]) == len(times["reference"]) == 10
    assert not ledger.correct
    assert any("raised at epoch 3" in p for p in ledger.problems)


def test_failed_output_check_fails_every_epoch():
    ledger = Ledger()
    rows = [row(1.0), row(1.0), row(3.0)]
    problem = check_rows(rows, 3)
    assert "strictly increasing" in problem
    assert ledger.record("cli", 3, [r.flag for r in rows], problem=problem) == 3
    assert (ledger.attempted, ledger.failed, ledger.correct) == (3, 3, False)


def test_fallback_epochs_fail_without_failing_the_check():
    ledger = Ledger()
    assert ledger.record("run", 4, ["warmup", "fallback", "ok", "fallback"]) == 2
    assert ledger.correct


def test_check_rows_requires_one_finite_row_per_epoch():
    assert check_rows([row(1.0), row(2.0)], 2) is None
    assert "rows for" in check_rows([row(1.0)], 2)
    bad = row(2.0)
    bad.nav.position[0] = np.nan
    assert "non-finite" in check_rows([row(1.0), bad], 2)


def test_digest_changes_with_any_bit():
    rows = [row(1.0), row(2.0)]
    before = digest(rows)
    rows[1].nav.velocity[2] = np.nextafter(0.0, 1.0)
    assert digest(rows) != before
