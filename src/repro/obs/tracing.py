"""Hierarchical wall-clock spans.

A :class:`Span` is one timed region of a run -- it has a name, optional
attributes, a duration and child spans. A :class:`Tracer` maintains the
active span stack so nested ``with tracer.span("fit")`` blocks build a
tree that mirrors the pipeline's call structure, exactly the per-phase
decomposition the paper's Figure 7 (TTime/ETime) needs.

:class:`SpanStopwatch` keeps the legacy
:class:`~repro.eval.timing.Stopwatch` API (``measure()`` / ``elapsed`` /
``reset``) while recording every measured segment as a span, so the
pipeline's TTime/ETime bookkeeping and the trace tree are fed by the
*same* clock readings: the sum of a phase's span durations equals the
stopwatch's ``elapsed`` exactly.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.eval.timing import Stopwatch
from repro.obs import sampling

__all__ = ["Span", "SpanStopwatch", "Tracer", "current_span_path"]


#: Open-span stacks per thread, across every live tracer. The sampler
#: (:mod:`repro.obs.sampling`) reads this from its thread to tag each
#: captured stack with the innermost active span -- attribution must
#: work whichever Telemetry instance opened the span (a process may
#: build several), so the registry is keyed by thread, not by tracer.
#: List append/pop are atomic under the GIL, so the sampling thread
#: sees a consistent (at worst one-span-stale) snapshot without locking
#: on the hot path.
_THREAD_SPANS: dict[int, list[str]] = {}


def _reset_spans_after_fork() -> None:
    """Drop inherited span stacks in a forked child.

    A fork-started worker inherits the parent's registry, where the
    forking thread's ident maps to the parent's open spans (``sweep``
    etc.); left in place they would prefix every stack the worker's own
    sampler captures. The child's tracers open their spans fresh.
    """
    _THREAD_SPANS.clear()


os.register_at_fork(after_in_child=_reset_spans_after_fork)


def current_span_path(thread_id: int | None = None) -> tuple[str, ...]:
    """Names of the open spans on ``thread_id``, outermost first.

    Defaults to the calling thread. Returns ``()`` when the thread has
    no open span (or never traced at all).
    """
    if thread_id is None:
        thread_id = threading.get_ident()
    stack = _THREAD_SPANS.get(thread_id)
    return tuple(stack) if stack else ()


@dataclass
class Span:
    """One timed region: name, attributes, duration, children.

    When a :class:`~repro.obs.sampling.Sampler` is active in the process,
    ``resources`` carries the span's cost measurements
    (``peak_rss_bytes`` and ``cpu_seconds``); it stays empty otherwise
    and is omitted from the serialised form.
    """

    name: str
    attributes: dict[str, object] = field(default_factory=dict)
    duration: float | None = None
    children: list["Span"] = field(default_factory=list)
    resources: dict[str, float] = field(default_factory=dict)

    def total(self, name: str) -> float:
        """Summed duration of this span's descendants named ``name``.

        The span itself is included when its own name matches.
        """
        acc = 0.0
        if self.name == name and self.duration is not None:
            acc += self.duration
        for child in self.children:
            acc += child.total(name)
        return acc

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {"name": self.name}
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.duration is not None:
            payload["duration"] = self.duration
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        if self.resources:
            payload["resources"] = dict(self.resources)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            name=payload["name"],
            attributes=dict(payload.get("attributes", {})),
            duration=payload.get("duration"),
            children=[cls.from_dict(c) for c in payload.get("children", [])],
            resources=dict(payload.get("resources", {})),
        )


class Tracer:
    """Builds span trees from nested ``span(...)`` context managers.

    Spans opened while another span is active become its children;
    spans opened at the top level collect in :attr:`roots`. While a
    :class:`~repro.obs.sampling.Sampler` is active in the process, every
    span also gets a resource watch.
    """

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Open a timed span; nested spans attach as children."""
        span = Span(name=name, attributes=attributes)
        parent = self.current
        (parent.children if parent is not None else self.roots).append(span)
        self._stack.append(span)
        thread_spans = _THREAD_SPANS.setdefault(threading.get_ident(), [])
        thread_spans.append(name)
        sampler = sampling.active_sampler()
        watch = sampler.watch() if sampler is not None else None
        start = time.perf_counter()
        try:
            yield span
        finally:
            span.duration = time.perf_counter() - start
            if watch is not None:
                span.resources.update(watch.stop())
            self._stack.pop()
            thread_spans.pop()

    def stopwatch(self, name: str, **attributes: object) -> "SpanStopwatch":
        """A Stopwatch-compatible timer whose segments become spans."""
        return SpanStopwatch(self, name, **attributes)

    def attach(self, span: Span) -> None:
        """Graft an externally-recorded span tree into this tracer.

        Sweep workers trace their cells in their own process; at join
        time the parent re-attaches the deserialised trees (as children
        of the currently open span, or as roots), so a parallel run's
        trace has the same shape as a serial one.
        """
        parent = self.current
        (parent.children if parent is not None else self.roots).append(span)

    def total(self, name: str) -> float:
        """Summed duration of every finished span named ``name``."""
        return sum(root.total(name) for root in self.roots)

    def to_payload(self) -> list[dict]:
        """JSON-ready list of root span trees."""
        return [root.to_dict() for root in self.roots]


class SpanStopwatch(Stopwatch):
    """Drop-in :class:`Stopwatch` that records each segment as a span.

    ``elapsed`` accumulates the *span* durations, so trace rollups and
    the legacy TTime/ETime totals are identical by construction. Charged
    seconds lengthen the open segment's span, and a recorded segment
    becomes a span of that duration, so a run that reuses shared work
    has the same spans as one that builds it.
    """

    def __init__(self, tracer: Tracer, name: str, **attributes: object):
        super().__init__()
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    @contextmanager
    def measure(self) -> Iterator[None]:
        span: Span | None = None
        try:
            with self._tracer.span(self._name, **self._attributes) as span:
                yield
        finally:
            if span is not None and span.duration is not None:
                self._close(span.duration)
                span.duration = self.last

    def record(self, seconds: float) -> None:
        with self._tracer.span(self._name, **self._attributes) as span:
            pass
        span.duration = seconds
        super().record(seconds)
