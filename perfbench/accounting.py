"""Percentiles, output checks and failure accounting for the benchmark.

An operation is one epoch of one estimator.  A run of one estimator over one
input attempts one operation per epoch; an operation fails when its epoch is
flagged ``fallback``, when the run raised at or before it, or when the
run's output check fails (then every epoch of the run fails).
"""

from __future__ import annotations

import hashlib

import numpy as np

TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(n_samples: int) -> float | None:
    """Highest of TAIL_CANDIDATES with at least ten samples beyond it."""
    for p in TAIL_CANDIDATES:
        # rounded, because 100 - 99.9 is not exactly 0.1 in binary
        if round(n_samples * (100.0 - p) / 100.0, 6) >= MIN_BEYOND:
            return p
    return None


def percentile_ms(samples_s, p: float) -> float:
    return float(np.percentile(np.asarray(samples_s, dtype=float), p)) * 1e3


def trajectory_array(points) -> np.ndarray:
    """(n, 11) array of t, position, velocity, orientation per row."""
    return np.array(
        [[p.t, *p.nav.position, *p.nav.velocity, *p.nav.orientation] for p in points],
        dtype=float,
    ).reshape(-1, 11)


def digest(points) -> str:
    """SHA-256 of the trajectory array; equal digests mean bitwise-equal rows."""
    return hashlib.sha256(np.ascontiguousarray(trajectory_array(points)).tobytes()).hexdigest()


def check_rows(points, n_epochs: int) -> str | None:
    """Return why a trajectory is malformed, or None when it passes.

    Requires one finite row per epoch with strictly increasing ``t``.
    """
    if len(points) != n_epochs:
        return f"{len(points)} rows for {n_epochs} epochs"
    rows = trajectory_array(points)
    if not np.all(np.isfinite(rows)):
        return "non-finite value in trajectory"
    if n_epochs > 1 and not np.all(np.diff(rows[:, 0]) > 0.0):
        return "trajectory time is not strictly increasing"
    return None


class Ledger:
    """Attempted and failed operation counts plus the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, n_epochs: int, flags=(), raised_at: int | None = None,
               problem: str | None = None) -> int:
        """Account one estimator run over ``n_epochs`` epochs; returns its failures.

        ``flags`` are the flags of the rows produced before any exception,
        ``raised_at`` the index of the epoch whose call raised, ``problem``
        a failed output check.
        """
        self.attempted += n_epochs
        if problem is not None:
            failed = n_epochs
        else:
            failed = sum(1 for f in flags if f == "fallback")
            if raised_at is not None:
                failed += n_epochs - raised_at
        if raised_at is not None:
            self.problems.append(f"{label}: raised at epoch {raised_at}")
        if problem is not None:
            self.problems.append(f"{label}: {problem}")
        self.failed += failed
        return failed

    @property
    def correct(self) -> bool:
        return not self.problems
