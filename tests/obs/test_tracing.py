"""Tests for hierarchical spans and the Stopwatch-compatible adapter."""

from __future__ import annotations

import time

import pytest

from repro.eval.timing import Stopwatch
from repro.obs.tracing import Span, SpanStopwatch, Tracer, current_span_path


class TestSpanNesting:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer()
        with tracer.span("sweep"):
            with tracer.span("config", label="TN"):
                with tracer.span("fit"):
                    pass
                with tracer.span("rank"):
                    pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "sweep"
        (config,) = root.children
        assert config.attributes == {"label": "TN"}
        assert [c.name for c in config.children] == ["fit", "rank"]

    def test_sibling_spans_stay_siblings(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.name for s in tracer.roots] == ["a", "b"]
        assert tracer.current is None

    def test_durations_cover_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.01)
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert inner.duration >= 0.01
        assert outer.duration >= inner.duration

    def test_duration_recorded_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("boom")
        assert tracer.roots[0].duration is not None
        assert tracer.current is None

    def test_total_aggregates_across_the_tree(self):
        tracer = Tracer()
        with tracer.span("run"):
            for _ in range(3):
                with tracer.span("step"):
                    pass
        total = tracer.total("step")
        assert total == pytest.approx(
            sum(c.duration for c in tracer.roots[0].children)
        )

    def test_round_trip_through_dict(self):
        tracer = Tracer()
        with tracer.span("outer", model="TN"):
            with tracer.span("inner"):
                pass
        restored = Span.from_dict(tracer.roots[0].to_dict())
        assert restored.name == "outer"
        assert restored.attributes == {"model": "TN"}
        assert restored.children[0].name == "inner"
        assert restored.duration == tracer.roots[0].duration


class TestAttachOrdering:
    def test_attach_nests_under_the_open_span_not_the_root(self):
        # Worker span trees joined mid-sweep must land under the span
        # that is open at join time (the sweep span), exactly where an
        # in-process cell's spans would have gone -- not at the roots.
        tracer = Tracer()
        worker_tree = Span(name="config", duration=0.5)
        with tracer.span("sweep"):
            tracer.attach(worker_tree)
        (sweep,) = tracer.roots
        assert [c.name for c in sweep.children] == ["config"]

    def test_attach_with_no_open_span_lands_at_the_roots(self):
        tracer = Tracer()
        tracer.attach(Span(name="config"))
        assert [s.name for s in tracer.roots] == ["config"]

    def test_attach_under_nested_span_uses_the_innermost(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.attach(Span(name="grafted"))
        (outer,) = tracer.roots
        (inner,) = outer.children
        assert [c.name for c in inner.children] == ["grafted"]


class TestCurrentSpanPath:
    def test_tracks_the_open_span_stack(self):
        tracer = Tracer()
        assert current_span_path() == ()
        with tracer.span("sweep"):
            with tracer.span("fit"):
                assert current_span_path() == ("sweep", "fit")
            assert current_span_path() == ("sweep",)
        assert current_span_path() == ()

    def test_spans_from_different_tracers_share_one_path(self):
        # The registry is keyed by thread, not tracer: a process may
        # build several Telemetry objects, and the profiler must see the
        # innermost span whichever tracer opened it.
        outer, inner = Tracer(), Tracer()
        with outer.span("trial"):
            with inner.span("fit"):
                assert current_span_path() == ("trial", "fit")

    def test_unknown_thread_id_is_empty(self):
        assert current_span_path(thread_id=-1) == ()


class TestSpanStopwatch:
    def test_is_a_stopwatch(self):
        watch = Tracer().stopwatch("fit")
        assert isinstance(watch, Stopwatch)
        assert isinstance(watch, SpanStopwatch)

    def test_elapsed_equals_span_total_exactly(self):
        tracer = Tracer()
        watch = tracer.stopwatch("fit")
        for _ in range(5):
            with watch.measure():
                time.sleep(0.002)
        assert watch.elapsed == tracer.total("fit")

    def test_measures_even_on_exception(self):
        tracer = Tracer()
        watch = tracer.stopwatch("fit")
        with pytest.raises(RuntimeError):
            with watch.measure():
                time.sleep(0.005)
                raise RuntimeError("boom")
        assert watch.elapsed >= 0.005
        assert watch.elapsed == tracer.total("fit")

    def test_segments_nest_under_the_active_span(self):
        tracer = Tracer()
        watch = tracer.stopwatch("fit")
        with tracer.span("evaluate"):
            with watch.measure():
                pass
        assert [c.name for c in tracer.roots[0].children] == ["fit"]

    def test_reset_keeps_recorded_spans(self):
        tracer = Tracer()
        watch = tracer.stopwatch("fit")
        with watch.measure():
            pass
        watch.reset()
        assert watch.elapsed == 0.0
        assert len(tracer.roots) == 1  # the span record is history, not state
