"""repro.obs -- observability for the sweep pipeline.

Eight primitives, one facade:

* :mod:`repro.obs.tracing`   -- hierarchical wall-clock spans
  (:class:`Tracer`), with :class:`SpanStopwatch` keeping the legacy
  :class:`~repro.eval.timing.Stopwatch` API;
* :mod:`repro.obs.metrics`   -- counters / gauges / histograms in a
  :class:`MetricsRegistry`;
* :mod:`repro.obs.events`    -- structured JSON-lines event logging
  with pluggable sinks;
* :mod:`repro.obs.manifest`  -- :class:`RunManifest` provenance records
  (seed, dataset, grid, version, wall clock);
* :mod:`repro.obs.sampling`  -- :class:`Sampler`, the process's one
  background sampling thread: each tick takes one span-attributed stack
  sample and folds an RSS reading into the open spans' resource windows
  (per-span ``peak_rss_bytes`` and ``cpu_seconds``);
* :mod:`repro.obs.progress`  -- :class:`SweepProgressTracker` live
  sweep state (done/total, worker occupancy, EWMA rate, ETA) computed
  from the event stream, plus the console progress sinks and the
  ``repro monitor`` snapshot loaders;
* :mod:`repro.obs.export`    -- Chrome trace-event
  (:func:`chrome_trace_events`, Perfetto-loadable) and flamegraph
  (:func:`collapsed_stacks`, :func:`speedscope_document`) exporters;
* :mod:`repro.obs.profiler`  -- the sampler's mergeable
  :class:`Profile` documents of span-attributed collapsed stacks;
* :mod:`repro.obs.telemetry` -- the :class:`Telemetry` facade the
  pipeline is instrumented against, and its zero-overhead
  :data:`NULL_TELEMETRY` twin.

Everything is pure stdlib; with telemetry disabled the pipeline runs
the exact same code path with plain stopwatches.
"""

from repro.obs.events import EventLog, JsonLinesSink, MemorySink, Sink
from repro.obs.export import (
    chrome_trace_events,
    collapsed_stacks,
    format_chrome_trace,
    speedscope_document,
)
from repro.obs.manifest import RunManifest
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiler import DEFAULT_HZ, Profile, load_profile
from repro.obs.progress import (
    ProgressLineSink,
    SweepProgressTracker,
    console_progress_sink,
    format_snapshot,
    load_progress,
)
from repro.obs.report import (
    diff_profiles,
    format_hotspots,
    format_profile_diff,
    format_trace_report,
)
from repro.obs.sampling import ResourceWatch, Sampler, active_sampler, read_rss_bytes
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    load_trace,
)
from repro.obs.tracing import Span, SpanStopwatch, Tracer, current_span_path

__all__ = [
    "Counter",
    "DEFAULT_HZ",
    "EventLog",
    "Gauge",
    "Histogram",
    "JsonLinesSink",
    "MemorySink",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Profile",
    "ProgressLineSink",
    "ResourceWatch",
    "RunManifest",
    "Sampler",
    "Sink",
    "Span",
    "SpanStopwatch",
    "SweepProgressTracker",
    "Telemetry",
    "Tracer",
    "active_sampler",
    "chrome_trace_events",
    "collapsed_stacks",
    "console_progress_sink",
    "current_span_path",
    "diff_profiles",
    "format_chrome_trace",
    "format_hotspots",
    "format_profile_diff",
    "format_snapshot",
    "format_trace_report",
    "load_profile",
    "load_progress",
    "load_trace",
    "read_rss_bytes",
    "speedscope_document",
]
