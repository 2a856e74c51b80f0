"""Self time of spans: duration minus the union of direct children."""

import pytest

from tracing import Span, Tracer, covered_length, self_times


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, "run")


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered_length([(1.0, 2.0), (2.0, 3.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered_length([(1.0, 9.0), (2.0, 3.0)], 0.0, 10.0) == pytest.approx(8.0)
    assert covered_length([(-5.0, 1.0), (8.0, 12.0), (20.0, 30.0)], 0.0, 10.0) == pytest.approx(3.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("parent", 0.0, 10.0),
        span("child", 1.0, 4.0, parent=0),
        span("grandchild", 2.0, 3.0, parent=1),
        span("child", 6.0, 7.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_with_overlapping_children():
    spans = [
        span("parent", 0.0, 10.0),
        span("a", 1.0, 5.0, parent=0),
        span("b", 3.0, 6.0, parent=0),
        span("c", 9.0, 12.0, parent=0),
    ]
    # children cover [1, 6] and [9, 10] of the parent
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_tracer_links_nested_spans_and_totals():
    tracer = Tracer("run-1")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert outer.parent is None and first.parent == 0 and second.parent == 0
    assert {s.run_id for s in tracer.spans} == {"run-1"}
    total, own = tracer.totals()
    assert own["outer"] == pytest.approx(
        total["outer"] - (first.end - first.start) - (second.end - second.start))
    assert own["inner"] == pytest.approx(total["inner"])


def test_patches_apply_only_while_installed():
    class Module:
        @staticmethod
        def work(x):
            return 2 * x

    tracer = Tracer("run")
    tracer.patch(Module, "work", "module.work",
                 on_result=lambda result, x: tracer.count("module.results", result))
    original = Module.work
    assert Module.work(1) == 2 and not tracer.spans
    with tracer.installed():
        assert Module.work(3) == 6
    assert Module.work is original
    assert [s.name for s in tracer.spans] == ["module.work"]
    assert tracer.counts["module.results"] == 6
