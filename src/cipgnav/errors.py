"""Exception hierarchy shared across the package, and the rules that every config
field and the initial state are checked by: each takes a field's name and value and
returns the value to store, or raises SpecError naming the field.  A number is a
``numbers.Real`` and a count a ``numbers.Integral``, neither a bool; numpy scalars are
stored as Python ``float`` and ``int``.  Strings, bytes and None are refused, never converted.
"""

import math
import numbers

import numpy as np


class CipgnavError(Exception):
    """Base class for all package-specific errors."""


class DegenerateQuaternionError(CipgnavError, ValueError):
    """Raised when a quaternion has (near-)zero norm and cannot be normalized."""


class ParseError(CipgnavError, ValueError):
    """Malformed CSV content.  Carries the 1-based line number."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        where = ""
        if path is not None:
            where += f"{path}:"
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)


class StreamOrderError(CipgnavError, ValueError):
    """Timestamps are not strictly increasing."""


class SyncGapError(CipgnavError, ValueError):
    """An epoch cannot be covered by all required sensor streams."""


class DivergenceError(CipgnavError, RuntimeError):
    """An iterative estimator produced a non-finite quantity.

    Attributes
    ----------
    iteration : int or None
        Inner-iteration index at which divergence was detected.
    stage : str or None
        Name of the estimator stage (for cascade estimators).
    epoch : float or None
        Timestamp of the offending epoch, when known.
    """

    def __init__(self, message, iteration=None, stage=None, epoch=None):
        self.iteration = iteration
        self.stage = stage
        self.epoch = epoch
        parts = [message]
        if stage is not None:
            parts.append(f"stage={stage}")
        if epoch is not None:
            parts.append(f"epoch t={epoch}")
        if iteration is not None:
            parts.append(f"inner iteration {iteration}")
        super().__init__(" / ".join(parts))


class AlignmentError(CipgnavError, ValueError):
    """Trajectory alignment is ill-conditioned (e.g. near-stationary window)."""


class SpecError(CipgnavError, ValueError):
    """Invalid scenario, adapter, or run configuration."""


class NumericalError(CipgnavError, RuntimeError):
    """A numerical guard tripped (non-finite entries, lost positive-definiteness)."""


def _real(name: str, value, bound: str = "") -> float:
    """A finite real number that is ``bound``: "positive", ">= 0" or any ("")."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise SpecError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    within = {"": True, ">= 0": value >= 0.0, "positive": value > 0.0}[bound]
    if not (within and math.isfinite(value)):
        raise SpecError(f"{name} must be finite{bound and ' and ' + bound}, got {value}")
    return value


def _count(name: str, value, least: int) -> int:
    """An integer of at least ``least``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise SpecError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _finite3(name: str, value, positive: bool = False) -> np.ndarray:
    """Three finite real numbers (each > 0 if ``positive``) as a new float array."""
    v = np.asarray(value)
    xs = v.tolist()  # tested as floats: on three values numpy's calls cost more
    # A string, None or an object among them gives another dtype; a bool among numbers does not.
    if (v.dtype.kind in "iuf" and v.shape == (3,) and (value is v or bool not in map(type, value))
            and all(map(math.isfinite, xs)) and (not positive or min(xs) > 0)):
        return v.astype(float)
    raise SpecError(f"{name} must be 3 finite values{' > 0' if positive else ''}, got {xs}")


def _one_of(name: str, value, options: tuple):
    """One of ``options``, of its type: neither 1 nor ``np.True_`` passes for True."""
    if not any(type(value) is type(option) and value == option for option in options):
        raise SpecError(f"{name} must be one of {options}, got {value!r}")
    return value
