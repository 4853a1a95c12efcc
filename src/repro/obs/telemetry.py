"""The telemetry facade instrumented code talks to.

A :class:`Telemetry` bundles the four observability primitives -- a
:class:`~repro.obs.tracing.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry`, an
:class:`~repro.obs.events.EventLog` and an optional
:class:`~repro.obs.manifest.RunManifest` -- behind a handful of cheap
methods, so the pipeline and sweep runner instrument themselves against
one object instead of four.

:data:`NULL_TELEMETRY` is the disabled twin: same surface, zero
recording, plain :class:`~repro.eval.timing.Stopwatch` timers. Code
paths are identical with telemetry on or off, so enabling tracing can
never change a MAP value.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

from repro.errors import PersistenceError
from repro.eval.timing import Stopwatch
from repro.obs.events import EventLog
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profile
from repro.obs.sampling import active_sampler
from repro.obs.tracing import Span, Tracer, current_span_path

__all__ = ["NULL_TELEMETRY", "NullTelemetry", "Telemetry", "load_trace"]

#: Format marker for trace files.
TRACE_FORMAT_VERSION = 1


class Telemetry:
    """Tracer + metrics + events + manifest behind one interface."""

    enabled = True

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        events: EventLog | None = None,
        manifest: RunManifest | None = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        self.manifest = manifest

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **attributes: object):
        return self.tracer.span(name, **attributes)

    def stopwatch(self, name: str, **attributes: object) -> Stopwatch:
        return self.tracer.stopwatch(name, **attributes)

    def count(self, name: str, n: int = 1) -> None:
        self.metrics.counter(name).inc(n)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.metrics.histogram(name).observe(value)

    def emit(self, event: str, **fields: object) -> None:
        self.events.emit(event, **fields)

    def absorb(self, payload: dict) -> None:
        """Merge a worker's telemetry payload into this stream.

        ``payload`` carries up to four keys: ``spans`` (a list of span
        dicts, re-attached to the current span), ``events`` (records
        forwarded to the sinks with their original timestamps),
        ``metrics`` (a registry snapshot, folded in via
        :meth:`~repro.obs.metrics.MetricsRegistry.merge`) and
        ``profile`` (a worker's stack-profile document, folded into the
        process's active :class:`~repro.obs.sampling.Sampler`, so
        ``--jobs N`` yields one merged profile with the serial schema;
        workers sample only while the parent does).

        When the executor stamped ``worker``/``attempt`` attribution
        onto the payload (the process pool does, at join time), it is
        preserved: attached root spans gain ``worker``/``attempt``
        attributes (the chrome-trace exporter maps these to tid lanes)
        and forwarded event records gain the same fields, so a merged
        stream still says which worker did what on which try.
        """
        worker = payload.get("worker")
        attempt = payload.get("attempt")
        for span_payload in payload.get("spans", ()):
            span = Span.from_dict(span_payload)
            if worker is not None:
                span.attributes.setdefault("worker", worker)
                if attempt is not None:
                    span.attributes.setdefault("attempt", attempt)
            self.tracer.attach(span)
        for record in payload.get("events", ()):
            if worker is not None:
                record.setdefault("worker", worker)
                if attempt is not None:
                    record.setdefault("attempt", attempt)
            self.events.forward(record)
        self.metrics.merge(payload.get("metrics", {}))
        profile_payload = payload.get("profile")
        sampler = active_sampler()
        if profile_payload and sampler is not None:
            # Prefix worker stacks with the joining thread's open spans
            # (the sweep span, typically) so merged phase paths read
            # exactly like a serial run's -- the attach() analogue.
            sampler.profile.merge(profile_payload, prefix=current_span_path())

    # -- persistence --------------------------------------------------------

    def trace_payload(self, profile: Profile | None = None) -> dict[str, object]:
        """The JSON-ready trace document: manifest + spans + metrics.

        A given ``profile`` (the run's sampler's, once it has exited)
        rides along under ``"profile"``, so ``repro export profile`` /
        ``report --artifact hotspots`` can read it straight from the
        trace file.
        """
        payload: dict[str, object] = {
            "version": TRACE_FORMAT_VERSION,
            "manifest": self.manifest.to_dict() if self.manifest else None,
            "spans": self.tracer.to_payload(),
            "metrics": self.metrics.snapshot(),
        }
        if profile is not None:
            payload["profile"] = profile.to_dict()
        return payload

    def save_trace(self, path: str | Path, profile: Profile | None = None) -> Path:
        """Write the trace document (see :meth:`trace_payload`) to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.trace_payload(profile), indent=1, sort_keys=True)
        )
        return path


class NullTelemetry(Telemetry):
    """Disabled telemetry: the same surface, none of the bookkeeping."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    @contextmanager
    def span(self, name: str, **attributes: object):
        yield None

    def stopwatch(self, name: str, **attributes: object) -> Stopwatch:
        return Stopwatch()

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def emit(self, event: str, **fields: object) -> None:
        pass

    def absorb(self, payload: dict) -> None:
        pass


#: Shared disabled instance; instrumented code uses it when no
#: telemetry was supplied.
NULL_TELEMETRY = NullTelemetry()


def load_trace(path: str | Path) -> dict:
    """Read back a trace document written by :meth:`Telemetry.save_trace`."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("version")
    if version != TRACE_FORMAT_VERSION:
        raise PersistenceError(f"unsupported trace file version: {version!r}")
    return payload
