"""Resource sampling: RSS and CPU time per span.

Wall-clock spans answer *where the time went*; this module answers
*what it cost*. A :class:`ResourceSampler` runs a background thread that
samples the process's resident set size (from ``/proc/self/statm``,
falling back to :func:`resource.getrusage` where procfs is missing) and
folds each sample into every open :class:`ResourceWatch`. The tracer
opens one watch per span, so a saved trace carries ``peak_rss_bytes``
and ``cpu_seconds`` alongside every phase's wall time -- the memory dimension the paper's
efficiency discussion (Figure 7 and the PLSA exclusion) needs.

The sampler is a context manager and must be entered with ``with``:
the background thread starts on ``__enter__`` and is joined on
``__exit__``, so a sampler can never outlive the run it measures
(reprolint RPR007 enforces the idiom). Outside the ``with`` block a
watch still works degraded -- it records the boundary samples taken at
watch start and stop, so short-lived use never crashes, it just loses
the between-boundaries peaks.

The third question -- *which frames inside the phase* burn the time --
is answered by the stack-sampling profiler in
:mod:`repro.obs.profiler`, which follows the same background-thread,
context-manager-only design (its rule is RPR014).
"""

from __future__ import annotations

import os
import threading
import time

from repro.errors import ConfigurationError

__all__ = ["ResourceSampler", "ResourceWatch", "read_rss_bytes"]

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):  # pragma: no cover - exotic OS
    _PAGE_SIZE = 4096


def read_rss_bytes() -> int | None:
    """Current resident set size in bytes, or None when unavailable.

    Reads ``/proc/self/statm`` (second field, in pages); where procfs is
    missing it falls back to ``ru_maxrss`` -- the lifetime *peak* rather
    than the current value, which still bounds per-span peaks correctly
    -- and returns None only when both sources fail.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:  # pragma: no cover - non-Linux fallback
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return int(peak) * (1 if sys.platform == "darwin" else 1024)
    except Exception:  # pragma: no cover - no procfs, no getrusage
        return None


class ResourceWatch:
    """One span's resource window.

    The sampler folds RSS readings into every open watch; :meth:`stop`
    closes the window and returns the JSON-ready resource mapping the
    span stores.
    """

    __slots__ = ("_sampler", "_cpu_start", "peak_rss_bytes")

    def __init__(self, sampler: "ResourceSampler"):
        self._sampler = sampler
        self._cpu_start = time.process_time()
        self.peak_rss_bytes: int | None = None

    def observe_rss(self, rss_bytes: int) -> None:
        if self.peak_rss_bytes is None or rss_bytes > self.peak_rss_bytes:
            self.peak_rss_bytes = rss_bytes

    def stop(self) -> dict[str, float]:
        """Close the window; returns the span's ``resources`` mapping."""
        return self._sampler.finish(self)


class ResourceSampler:
    """Background-thread RSS sampler with per-watch peak attribution.

    Parameters
    ----------
    interval:
        Seconds between background samples. Peaks are additionally
        sampled at every watch boundary, so spans shorter than the
        interval still record a value.
    """

    def __init__(self, interval: float = 0.01):
        if interval <= 0.0:
            raise ConfigurationError(
                f"sampling interval must be positive, got {interval}"
            )
        self.interval = interval
        self._lock = threading.Lock()
        self._active: list[ResourceWatch] = []
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()

    @property
    def sampling(self) -> bool:
        """Whether the background thread is currently running."""
        return self._thread is not None

    # -- lifecycle (context manager only; see RPR007) ----------------------

    def __enter__(self) -> "ResourceSampler":
        if self._thread is not None:
            raise ConfigurationError("ResourceSampler is already sampling")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        thread, self._thread = self._thread, None
        self._stop_event.set()
        if thread is not None:
            thread.join()

    def _sample_loop(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.sample_once()

    def sample_once(self) -> None:
        """Take one RSS reading and fold it into every open watch."""
        rss = read_rss_bytes()
        if rss is None:  # pragma: no cover - no RSS source on this OS
            return
        with self._lock:
            for watch in self._active:
                watch.observe_rss(rss)

    # -- watches ------------------------------------------------------------

    def _fold_boundary_sample(self) -> None:
        """Fold a boundary RSS reading into every open watch.

        Caller holds the lock.
        """
        rss = read_rss_bytes()
        if rss is not None:
            for watch in self._active:
                watch.observe_rss(rss)

    def watch(self) -> ResourceWatch:
        """Open a resource window (the tracer does this per span)."""
        watch = ResourceWatch(self)
        with self._lock:
            self._active.append(watch)
            self._fold_boundary_sample()
        return watch

    def finish(self, watch: ResourceWatch) -> dict[str, float]:
        """Close ``watch``; returns its JSON-ready resource mapping."""
        cpu_seconds = time.process_time() - watch._cpu_start
        with self._lock:
            if watch in self._active:
                self._fold_boundary_sample()
                self._active.remove(watch)
        resources: dict[str, float] = {"cpu_seconds": cpu_seconds}
        if watch.peak_rss_bytes is not None:
            resources["peak_rss_bytes"] = int(watch.peak_rss_bytes)
        return resources
