"""Export saved telemetry into external tool formats.

Pure functions of a saved trace or profile document (the JSON written by
``--trace-out`` / :meth:`repro.obs.telemetry.Telemetry.save_trace`, or
by ``repro profile``):

* :func:`chrome_trace_events` turns the span tree into Chrome
  trace-event JSON (the array-of-events form), loadable in Perfetto or
  ``chrome://tracing``. Spans carrying ``worker`` attribution (stamped
  by :meth:`Telemetry.absorb` when a process-pool sweep joins worker
  telemetry) are mapped onto per-worker ``tid`` lanes, so a ``--jobs 4``
  sweep renders as four swimlanes of cells under the main lane's sweep
  span.
* :func:`collapsed_stacks` and :func:`speedscope_document` convert a
  stack-profile document (``repro profile``, see
  :mod:`repro.obs.profiler`) into the two de-facto flamegraph exchange
  formats: Brendan Gregg's collapsed-stack lines (``flamegraph.pl``,
  ``inferno``) and speedscope's JSON file format
  (https://www.speedscope.app). Span attribution is preserved -- the
  phase path prefixes each collapsed stack, and speedscope gets one
  sampled profile per phase.

Spans record durations, not absolute start times (wall-clock reads are
confined to event records by RPR003), so the chrome trace *reconstructs*
a timeline: within each lane, sibling spans are laid out back-to-back
from their parent's start. Nesting and per-phase widths are exact; gaps
between parallel cells are not -- the lanes show where the time went,
which is what straggler hunting needs.
"""

from __future__ import annotations

import json

from repro.obs.tracing import Span

__all__ = [
    "chrome_trace_events",
    "collapsed_stacks",
    "format_chrome_trace",
    "speedscope_document",
]

#: pid used for every emitted trace event (one process, many lanes).
_TRACE_PID = 1

_MICROSECONDS = 1e6


def _span_tid(span: Span, inherited: int) -> int:
    """Lane for a span: worker attribution wins, else the parent's lane."""
    worker = span.attributes.get("worker")
    if isinstance(worker, int) and worker >= 0:
        return worker + 1  # lane 0 is the main process
    return inherited


def _span_args(span: Span) -> dict:
    args: dict[str, object] = dict(span.attributes)
    for key, value in span.resources.items():
        args[key] = value
    return args


def chrome_trace_events(trace: dict) -> list[dict]:
    """Convert a trace document into a list of Chrome trace events.

    Returns complete-duration (``"ph": "X"``) events plus the metadata
    events naming the process and each lane. Timestamps are synthetic
    microsecond offsets (see module docstring); durations are exact.
    """
    spans = [Span.from_dict(payload) for payload in trace.get("spans", [])]
    events: list[dict] = []
    #: Next free microsecond offset per lane, for spans that *enter* a
    #: lane (worker roots); nested same-lane children nest in their
    #: parent's interval instead.
    cursors: dict[int, float] = {}
    used_tids: set[int] = set()

    def walk(span: Span, tid: int, start: float) -> float:
        lane = _span_tid(span, tid)
        if lane != tid:
            # Entering a new lane: allocate from that lane's own cursor.
            start = cursors.get(lane, 0.0)
        duration = (span.duration or 0.0) * _MICROSECONDS
        used_tids.add(lane)
        events.append(
            {
                "name": span.name,
                "cat": "span",
                "ph": "X",
                "ts": round(start, 3),
                "dur": round(duration, 3),
                "pid": _TRACE_PID,
                "tid": lane,
                "args": _span_args(span),
            }
        )
        child_start = start
        for child in span.children:
            child_end = walk(child, lane, child_start)
            child_lane = _span_tid(child, lane)
            if child_lane == lane:
                child_start = child_end
        end = start + duration
        cursors[lane] = max(cursors.get(lane, 0.0), end)
        return end

    cursor = 0.0
    for root in spans:
        cursor = walk(root, 0, cursor)

    metadata: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _TRACE_PID,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for tid in sorted(used_tids):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _TRACE_PID,
                "tid": tid,
                "args": {"name": "main" if tid == 0 else f"worker-{tid - 1}"},
            }
        )
        metadata.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": _TRACE_PID,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    return metadata + events


def format_chrome_trace(trace: dict) -> str:
    """The chrome-trace JSON array as text, ready to load in Perfetto."""
    return json.dumps(chrome_trace_events(trace), sort_keys=True)


def _frame_label(frame: list | tuple) -> str:
    """Render one profile frame as ``func (file:line)``."""
    file, func, line = frame
    return f"{func} ({file}:{line})"


def collapsed_stacks(profile: dict) -> str:
    """Render a profile document as Brendan Gregg collapsed-stack lines.

    One line per distinct stack: frames joined with ``;`` followed by
    the sample count, ready for ``flamegraph.pl`` or ``inferno``. The
    span phase path prefixes the frames, so flamegraphs group by phase
    first and frames roll up under the span that ran them. Lines are
    sorted, so two exports of the same profile diff cleanly.
    """
    lines: list[str] = []
    for stack in profile.get("stacks", ()):
        parts = [str(name) for name in stack.get("phase", ())]
        parts.extend(_frame_label(frame) for frame in stack.get("frames", ()))
        if not parts:
            continue
        lines.append(f"{';'.join(parts)} {int(stack.get('count', 0))}")
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def speedscope_document(profile: dict, name: str = "repro profile") -> dict:
    """Convert a profile document into speedscope's JSON file format.

    Emits one ``sampled``-type profile per distinct span phase path
    (plus one for unattributed stacks), all sharing one deduplicated
    frame table -- open the file at https://www.speedscope.app and flip
    between phases to see each span's flamegraph. Weights are sample
    counts (``unit: "none"``). The sampler ticks on a grid of deadlines
    ``1 / hz`` apart, so counts divided by ``hz`` estimate seconds; a
    tick the target delays past later deadlines skips them, so the rate
    achieved is the profile's ``samples / wall_seconds``, at most
    ``hz``.
    """
    frame_index: dict[tuple[str, str, int], int] = {}
    shared_frames: list[dict] = []
    by_phase: dict[tuple[str, ...], list[tuple[list[int], int]]] = {}
    for stack in profile.get("stacks", ()):
        phase = tuple(str(part) for part in stack.get("phase", ()))
        indexes: list[int] = []
        for frame in stack.get("frames", ()):
            file, func, line = str(frame[0]), str(frame[1]), int(frame[2])
            key = (file, func, line)
            if key not in frame_index:
                frame_index[key] = len(shared_frames)
                shared_frames.append({"name": func, "file": file, "line": line})
            indexes.append(frame_index[key])
        by_phase.setdefault(phase, []).append((indexes, int(stack.get("count", 0))))

    profiles: list[dict] = []
    for phase in sorted(by_phase):
        stacks = by_phase[phase]
        total = sum(count for _indexes, count in stacks)
        profiles.append(
            {
                "type": "sampled",
                "name": "/".join(phase) if phase else "(no span)",
                "unit": "none",
                "startValue": 0,
                "endValue": total,
                "samples": [indexes for indexes, _count in stacks],
                "weights": [count for _indexes, count in stacks],
            }
        )
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "name": name,
        "exporter": "repro",
        "shared": {"frames": shared_frames},
        "profiles": profiles,
        "activeProfileIndex": 0,
    }
