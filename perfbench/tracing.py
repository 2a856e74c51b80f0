"""In-memory span recorder for the traced benchmark run.

A span is one timed call at a layer boundary: its name, start and end
(``time.perf_counter`` seconds), the index of the span that was open when
it started, and the run id shared by every span of one workload run.  Spans
are kept in a list and reduced to per-name totals when the run ends.

Calls internal to the package are traced by rebinding the name at the
module that imports it (``Tracer.patch(cipgnav.cascade, "ipg_step", ...)``),
only while ``Tracer.installed()`` is active.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Per-span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Records spans and event counts for one workload run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def patch(self, module, attr: str, name, on_result=None) -> None:
        """Register a wrapper for ``module.attr`` that records a span per call.

        ``name`` is a span name or a function of the call arguments that
        returns one.  ``on_result(result, *args)`` may record counts.  The
        wrapper is in place only inside ``installed()``.
        """
        original = getattr(module, attr)
        name_of = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name_of(*args, **kwargs)):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        self._patches.append((module, attr, original, wrapper))

    def patch_counter(self, module, attr: str, count_name: str) -> None:
        """Register a wrapper for ``module.attr`` that only counts calls."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts[count_name] += 1
            return original(*args, **kwargs)

        self._patches.append((module, attr, original, wrapper))

    @contextmanager
    def installed(self):
        """Rebind every registered name to its wrapper for the block."""
        for module, attr, _original, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _wrapper in reversed(self._patches):
                setattr(module, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Summed duration and summed self time per span name."""
        total = defaultdict(float)
        own = defaultdict(float)
        for s, t_self in zip(self.spans, self_times(self.spans)):
            total[s.name] += s.end - s.start
            own[s.name] += t_self
        return dict(total), dict(own)
