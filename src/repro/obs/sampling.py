"""The process's one sampling thread: RSS per span and stacks per phase.

Wall-clock spans answer *where the time went*. A :class:`Sampler` runs
one background thread that answers the other two questions on every
tick:

* *what it cost* -- it reads the process's resident set size (from
  ``/proc/self/statm``, falling back to :func:`resource.getrusage` where
  procfs is missing) and folds the reading into every open
  :class:`ResourceWatch`. While a sampler is active, the tracer opens
  one watch per span, so a saved trace carries ``peak_rss_bytes`` and
  ``cpu_seconds`` beside every phase's wall time -- the memory dimension
  the paper's efficiency discussion (Figure 7 and the PLSA exclusion)
  needs;
* *which frames inside the phase* burn the time -- it walks the
  entering thread's stack (``sys._current_frames()``: no signals, no
  ``sys.setprofile``, the profiled code runs unmodified) and records it
  in its :class:`~repro.obs.profiler.Profile`, tagged with that
  thread's open span path (:func:`repro.obs.tracing.current_span_path`),
  so samples roll up under the same phase tree every other report uses.

Worker processes run their own sampler and ship their spans and profile
in the telemetry payload; :meth:`Telemetry.absorb
<repro.obs.telemetry.Telemetry.absorb>` grafts the spans and merges the
profile into the active sampler's, so a ``--jobs N`` run yields one
profile with the serial schema.

The sampler is a context manager and must be entered with ``with`` (or
``ExitStack.enter_context``): the thread starts on ``__enter__`` and is
joined on ``__exit__``, so sampling never outlives the run it measures
(reprolint RPR005 enforces the idiom). One sampler may be active per
process. Its own cost, the RSS read included, is accounted in
``Profile.sample_seconds`` as the sampling thread's CPU time
(``time.thread_time``), so the overhead is part of every profile
document and can be gated in CI. Wall time uses the tracer clock
(``time.perf_counter``).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.obs import tracing
from repro.obs.profiler import (
    DEFAULT_HZ,
    MAX_STACK_DEPTH,
    FrameTuple,
    Profile,
    _normalize_filename,
)

__all__ = ["ResourceWatch", "Sampler", "active_sampler", "read_rss_bytes"]

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):  # pragma: no cover - exotic OS
    _PAGE_SIZE = 4096


_STATM = "/proc/self/statm"


def read_rss_bytes(statm: int | None = None) -> int | None:
    """Current resident set size in bytes, or None when unavailable.

    Reads ``/proc/self/statm`` (second field, in pages), through the
    open descriptor ``statm`` when given; where procfs is missing it
    falls back to ``ru_maxrss`` -- the lifetime *peak* rather than the
    current value, which still bounds per-span peaks correctly -- and
    returns None only when both sources fail.
    """
    try:
        if statm is not None:
            return int(os.pread(statm, 64, 0).split()[1]) * _PAGE_SIZE
        with open(_STATM, "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:  # pragma: no cover - non-Linux fallback
        import resource

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

    def __init__(self, sampler: "Sampler"):
        self._sampler = sampler
        self._cpu_start = time.process_time()
        self.peak_rss_bytes: int | None = None

    def observe_rss(self, rss_bytes: int) -> None:
        if self.peak_rss_bytes is None or rss_bytes > self.peak_rss_bytes:
            self.peak_rss_bytes = rss_bytes

    def stop(self) -> dict[str, float]:
        """Close the window; returns the span's ``resources`` mapping."""
        return self._sampler.finish(self)


#: The process's active sampler, if any: the tracer opens resource
#: windows on it, and worker profiles merge into its profile. One
#: sampler per process keeps attribution unambiguous.
_ACTIVE_SAMPLER: "Sampler | None" = None
_ACTIVE_LOCK = threading.Lock()


def active_sampler() -> "Sampler | None":
    """The currently entered :class:`Sampler`, if any."""
    return _ACTIVE_SAMPLER


def _release_sampler_after_fork() -> None:
    """Free the active-sampler slot in a forked child.

    A fork-started worker inherits the parent's registration, but not
    its sampling thread (fork copies only the calling thread) -- the
    inherited sampler is inert and would only block the worker from
    entering its own. The parent's registration is untouched.
    """
    global _ACTIVE_SAMPLER
    # Clears fork-inherited state in the child only; the parent's
    # registration is untouched.
    if _ACTIVE_SAMPLER is not None:
        sys.setswitchinterval(_ACTIVE_SAMPLER._switch_interval)
    _ACTIVE_SAMPLER = None


os.register_at_fork(after_in_child=_release_sampler_after_fork)


class Sampler:
    """One background thread sampling RSS and the entering thread's stack.

    Parameters
    ----------
    hz:
        Ticks per second; finite and positive. Every tick takes one RSS
        reading and one stack sample. Watches also read RSS when they
        open and close, so spans shorter than a tick still record a peak.

    The thread that *enters* the sampler is the one profiled -- the
    sampling thread itself never appears in a stack. Stacks deeper than
    :data:`~repro.obs.profiler.MAX_STACK_DEPTH` keep their innermost
    frames and count in :attr:`Profile.truncated`.

    While sampling, the interpreter's switch interval is cut to a tenth
    of the sampling interval (and restored on exit). The sampling thread
    takes the GIL either when the target releases it or when the switch
    interval forces a hand-over; with the default 5 ms, a target that
    releases the GIL every few ms (a numpy ``random`` call per Gibbs
    sweep) drew nearly every sample to that call's line.
    """

    def __init__(self, hz: float = DEFAULT_HZ):
        self.profile = Profile(hz=hz)  # rejects a rate that is not finite and positive
        self.hz = self.profile.hz
        self.interval = 1.0 / self.hz
        self._lock = threading.Lock()
        self._watches: list[ResourceWatch] = []
        self._target_ident: int | None = None
        self._switch_interval = sys.getswitchinterval()
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._entered_clock: float | None = None
        #: ``/proc/self/statm``, open while sampling. A reading is then
        #: one ``pread``: one GIL release, where opening, reading and
        #: closing the file take several, each a wait for the target to
        #: hand the GIL back.
        self._statm: int | None = None

    @property
    def sampling(self) -> bool:
        """Whether the background thread is currently running."""
        return self._thread is not None

    # -- lifecycle (context manager only; see RPR005) ----------------------

    def __enter__(self) -> "Sampler":
        global _ACTIVE_SAMPLER
        if self._thread is not None:
            raise ConfigurationError("Sampler is already sampling")
        with _ACTIVE_LOCK:
            if _ACTIVE_SAMPLER is not None:
                raise ConfigurationError(
                    "another Sampler is already active in this process; "
                    "one sampler per process keeps attribution unambiguous"
                )
            # Per-process active-sampler slot; a worker's registration
            # never flows back to the parent.
            _ACTIVE_SAMPLER = self
        self._target_ident = threading.get_ident()
        try:
            self._statm = os.open(_STATM, os.O_RDONLY)
        except OSError:  # pragma: no cover - no procfs
            self._statm = None
        self._stop_event.clear()
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(min(self._switch_interval, self.interval / 10.0))
        self._entered_clock = time.perf_counter()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-sampler", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE_SAMPLER
        thread, self._thread = self._thread, None
        self._stop_event.set()
        if thread is not None:
            thread.join()
            sys.setswitchinterval(self._switch_interval)
        if self._entered_clock is not None:
            self.profile.wall_seconds += time.perf_counter() - self._entered_clock
            self._entered_clock = None
        with self._lock:  # no watch may read a closed (or reused) descriptor
            statm, self._statm = self._statm, None
        if statm is not None:
            os.close(statm)
        with _ACTIVE_LOCK:
            if _ACTIVE_SAMPLER is self:
                _ACTIVE_SAMPLER = None  # releases this process's own slot

    def _sample_loop(self, clock: Callable[[], float] = time.perf_counter) -> None:
        """Tick on a fixed grid of deadlines ``interval`` apart.

        Each wait lasts until the next deadline, so a tick's own time
        does not stretch the interval and the rate stays ``hz``. A tick
        that overruns one or more deadlines skips them: the next tick
        waits for the first deadline still ahead, never bursts.
        """
        interval = self.interval
        deadline = clock() + interval
        while not self._stop_event.wait(max(0.0, deadline - clock())):
            self.sample_once()
            deadline += interval
            late = clock() - deadline
            if late > 0.0:
                deadline += (late // interval + 1) * interval

    # -- sampling ------------------------------------------------------------

    def sample_once(self) -> None:
        """One tick: capture one stack of the target thread into the
        profile, then fold an RSS reading into every open watch.

        The stack goes first, taken as soon as this thread holds the
        GIL: reading RSS is file I/O, which releases the GIL and hands
        it back only at the target's next switch point. That wait costs
        the target nothing, so the tick's cost is this thread's CPU
        time, not its wall time.
        """
        started = time.thread_time()
        frame = sys._current_frames().get(self._target_ident)
        if frame is None:  # pragma: no cover - target thread already gone
            self.profile.dropped += 1
        else:
            frames: list[FrameTuple] = []
            while frame is not None and len(frames) < MAX_STACK_DEPTH:
                code = frame.f_code
                frames.append(
                    (
                        _normalize_filename(code.co_filename),
                        code.co_name,
                        # f_lineno is None while the interpreter is
                        # between line events (3.11+); 0 keeps the
                        # frame sortable and means "line unknown".
                        frame.f_lineno or 0,
                    )
                )
                frame = frame.f_back
            truncated = frame is not None
            frames.reverse()  # outermost first, like collapsed-stack files
            phase = tracing.current_span_path(self._target_ident)
            self.profile.record(phase, tuple(frames), truncated=truncated)
        with self._lock:
            self._fold_rss()
        self.profile.sample_seconds += time.thread_time() - started

    # -- watches ------------------------------------------------------------

    def _fold_rss(self) -> None:
        """Fold one RSS reading into every open watch. Caller holds the lock."""
        rss = read_rss_bytes(self._statm)
        if rss is not None:
            for watch in self._watches:
                watch.observe_rss(rss)

    def watch(self) -> ResourceWatch:
        """Open a resource window (the tracer does this per span)."""
        watch = ResourceWatch(self)
        with self._lock:
            self._watches.append(watch)
            self._fold_rss()
        return watch

    def finish(self, watch: ResourceWatch) -> dict[str, float]:
        """Close ``watch``; returns its JSON-ready resource mapping."""
        cpu_seconds = time.process_time() - watch._cpu_start
        with self._lock:
            if watch in self._watches:
                self._fold_rss()
                self._watches.remove(watch)
        resources: dict[str, float] = {"cpu_seconds": cpu_seconds}
        if watch.peak_rss_bytes is not None:
            resources["peak_rss_bytes"] = int(watch.peak_rss_bytes)
        return resources
