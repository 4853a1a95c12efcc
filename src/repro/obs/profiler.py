"""Statistical stack-sampling profiler with span attribution.

Spans say *which phase* is slow and resource watches say *what it
cost* -- this module says *which frames inside the phase* burn the
time, the stack-level evidence a hot-loop rewrite needs before and
after (``repro profile diff``).

A :class:`StackSampler` runs a background thread that walks
``sys._current_frames()`` at a configurable rate (no signals, no
``sys.setprofile`` -- the profiled code runs unmodified and pays only
for the GIL handoffs while a sample is taken). Every captured stack is
tagged with the innermost open :class:`~repro.obs.tracing.Span` of the
sampled thread (via the tracer's per-thread span registry), so samples
roll up under the same phase tree every other report uses. All internal
timing uses the tracer clock (``time.perf_counter``); the profiler never
reads the wall clock.

Profiles are plain mergeable count tables (:class:`Profile`): worker
processes sample themselves and ship their profile in the telemetry
payload, and :meth:`Telemetry.absorb <repro.obs.telemetry.Telemetry.absorb>`
folds it into the parent's profile exactly like resource snapshots --
a ``--jobs N`` run produces one merged profile with the same schema as
a serial one.

The sampler is a context manager and must be entered with ``with`` (or
``ExitStack.enter_context``): the sampling thread starts on
``__enter__`` and is joined on ``__exit__``, so sampling can never
outlive the run it measures (reprolint RPR005 enforces the idiom, as
for spans and resource samplers). One sampler may be active per process at a
time; its own cost is accounted in ``sample_seconds`` so overhead
(:attr:`Profile.overhead_ratio`) is part of every profile document and
can be gated in CI.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

from repro.errors import ConfigurationError, PersistenceError
from repro.obs import tracing

__all__ = [
    "DEFAULT_HZ",
    "PROFILE_FORMAT_VERSION",
    "Profile",
    "StackSampler",
    "active_sampler",
    "load_profile",
]

#: Format marker for profile documents.
PROFILE_FORMAT_VERSION = 1
#: Document kind marker, so profile files are self-describing.
PROFILE_KIND = "repro-profile"

#: Default sampling rate. Prime, so the sampler cannot phase-lock with
#: periodic work that runs at a "round" frequency.
DEFAULT_HZ = 97.0

#: Stacks deeper than this are truncated at the outermost frames; the
#: innermost (hot) frames are always kept.
MAX_STACK_DEPTH = 128

#: One frame of a collapsed stack: (file, function, line).
FrameTuple = tuple[str, str, int]

#: Path markers used to shorten absolute filenames to package-relative
#: ones, so profiles diff cleanly across checkouts and machines.
_PATH_MARKERS = ("/site-packages/", "/src/", "/lib/python")


def _normalize_filename(path: str) -> str:
    """Shorten an absolute code path to a stable, checkout-free form."""
    for marker in _PATH_MARKERS:
        index = path.rfind(marker)
        if index >= 0:
            return path[index + len(marker):].lstrip("/")
    if path.startswith("<"):  # <string>, <frozen importlib._bootstrap>, ...
        return path
    parts = path.rsplit("/", 2)
    return "/".join(parts[-2:]) if len(parts) > 1 else path


class Profile:
    """A mergeable table of span-attributed collapsed stacks.

    Keys are ``(phase_path, frames)``: the open-span name path of the
    sampled thread (outermost first) and the collapsed stack (outermost
    first), each mapped to the number of samples that observed it.
    """

    def __init__(self, hz: float = DEFAULT_HZ):
        if hz <= 0.0:
            raise ConfigurationError(f"sampling rate must be positive, got {hz}")
        self.hz = float(hz)
        self.counts: dict[tuple[tuple[str, ...], tuple[FrameTuple, ...]], int] = {}
        #: Samples that captured a stack.
        self.samples = 0
        #: Sampling attempts where the target thread had no frame.
        self.dropped = 0
        #: Samples whose stack exceeded :data:`MAX_STACK_DEPTH`.
        self.truncated = 0
        #: Total time spent inside the sampling loop (tracer clock).
        self.sample_seconds = 0.0
        #: Wall time of the sampled window(s) (tracer clock deltas).
        self.wall_seconds = 0.0

    # -- recording -----------------------------------------------------------

    def record(
        self,
        phase: tuple[str, ...],
        frames: tuple[FrameTuple, ...],
        truncated: bool = False,
    ) -> None:
        key = (phase, frames)
        self.counts[key] = self.counts.get(key, 0) + 1
        self.samples += 1
        if truncated:
            self.truncated += 1

    @property
    def overhead_ratio(self) -> float:
        """Fraction of the sampled wall clock spent taking samples."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.sample_seconds / self.wall_seconds

    def phase_totals(self) -> dict[str, int]:
        """Sample counts per phase path (names joined with ``/``)."""
        totals: dict[str, int] = {}
        for (phase, _frames), count in self.counts.items():
            key = "/".join(phase)
            totals[key] = totals.get(key, 0) + count
        return totals

    # -- merging -------------------------------------------------------------

    def merge(
        self,
        payload: "Profile | dict",
        prefix: tuple[str, ...] = (),
    ) -> None:
        """Fold another profile (or its document) into this one.

        Counts, sample/drop/truncation totals and clock accumulators
        add; the receiving profile's ``hz`` is kept. This is the same
        associative fold :meth:`Telemetry.absorb
        <repro.obs.telemetry.Telemetry.absorb>` applies to worker
        metrics, so merged parallel profiles equal the union of the
        per-worker ones.

        ``prefix`` prepends span names to every merged phase path --
        absorb passes the joining thread's open spans, so a worker's
        ``config/evaluate/fit`` stacks land under ``sweep/...`` exactly
        as :meth:`Tracer.attach <repro.obs.tracing.Tracer.attach>`
        nests worker span trees, and a ``--jobs N`` profile reads like
        a serial one.
        """
        other = payload if isinstance(payload, Profile) else Profile.from_dict(payload)
        prefix = tuple(prefix)
        for (phase, frames), count in other.counts.items():
            key = (prefix + phase, frames)
            self.counts[key] = self.counts.get(key, 0) + count
        self.samples += other.samples
        self.dropped += other.dropped
        self.truncated += other.truncated
        self.sample_seconds += other.sample_seconds
        self.wall_seconds += other.wall_seconds

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        stacks = [
            {
                "phase": list(phase),
                "frames": [list(frame) for frame in frames],
                "count": count,
            }
            for (phase, frames), count in sorted(self.counts.items())
        ]
        return {
            "version": PROFILE_FORMAT_VERSION,
            "kind": PROFILE_KIND,
            "hz": self.hz,
            "samples": self.samples,
            "dropped": self.dropped,
            "truncated": self.truncated,
            "sample_seconds": self.sample_seconds,
            "wall_seconds": self.wall_seconds,
            "overhead_ratio": self.overhead_ratio,
            "stacks": stacks,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Profile":
        profile = cls(hz=float(payload.get("hz", DEFAULT_HZ)))
        for stack in payload.get("stacks", ()):
            phase = tuple(str(name) for name in stack.get("phase", ()))
            frames = tuple(
                (str(file), str(func), int(line))
                for file, func, line in stack.get("frames", ())
            )
            profile.counts[(phase, frames)] = (
                profile.counts.get((phase, frames), 0) + int(stack.get("count", 0))
            )
        profile.samples = int(payload.get("samples", 0))
        profile.dropped = int(payload.get("dropped", 0))
        profile.truncated = int(payload.get("truncated", 0))
        profile.sample_seconds = float(payload.get("sample_seconds", 0.0))
        profile.wall_seconds = float(payload.get("wall_seconds", 0.0))
        return profile

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n")
        return path


def load_profile(path: str | Path) -> dict:
    """Read back a profile document written by :meth:`Profile.save`.

    Also accepts a trace document carrying an embedded ``"profile"``
    section, so hotspot reports work on either artifact.
    """
    payload = json.loads(Path(path).read_text())
    if payload.get("kind") != PROFILE_KIND and "profile" in payload:
        payload = payload["profile"]
    if payload.get("kind") != PROFILE_KIND:
        raise PersistenceError(
            f"{path} is not a repro profile document (kind="
            f"{payload.get('kind')!r})"
        )
    version = payload.get("version")
    if version != PROFILE_FORMAT_VERSION:
        raise PersistenceError(f"unsupported profile file version: {version!r}")
    return payload


#: The process's active sampler, if any. Workers absorb their profile
#: payloads into the parent process, whose own sampler (registered
#: here) is the merge target; one sampler per process keeps attribution
#: unambiguous.
_ACTIVE_SAMPLER: "StackSampler | None" = None
_ACTIVE_LOCK = threading.Lock()


def active_sampler() -> "StackSampler | None":
    """The currently entered :class:`StackSampler`, if any."""
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


class StackSampler:
    """Background-thread statistical sampler of one target thread.

    Parameters
    ----------
    hz:
        Sampling rate in samples per second.
    max_depth:
        Deepest stack kept per sample; deeper stacks drop their
        outermost frames and count in :attr:`Profile.truncated`.

    The thread that *enters* the sampler is the one profiled -- the
    sampling thread itself never appears in a stack. Spans opened by
    that thread (any tracer) attribute its samples via
    :func:`repro.obs.tracing.current_span_path`.

    While sampling, the interpreter's switch interval is cut to a tenth
    of the sampling interval (and restored on exit). The sampling thread
    takes the GIL either when the target releases it or when the switch
    interval forces a hand-over; with the default 5 ms, a target that
    releases the GIL every few ms (a numpy ``random`` call per Gibbs
    sweep) drew nearly every sample to that call's line.
    """

    def __init__(self, hz: float = DEFAULT_HZ, max_depth: int = MAX_STACK_DEPTH):
        if hz <= 0.0:
            raise ConfigurationError(f"sampling rate must be positive, got {hz}")
        if max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {max_depth}")
        self.hz = float(hz)
        self.interval = 1.0 / float(hz)
        self.max_depth = max_depth
        self.profile = Profile(hz=self.hz)
        self._target_ident: int | None = None
        self._switch_interval = sys.getswitchinterval()
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._entered_clock: float | None = None

    @property
    def sampling(self) -> bool:
        """Whether the background thread is currently running."""
        return self._thread is not None

    # -- lifecycle (context manager only; see RPR005) ----------------------

    def __enter__(self) -> "StackSampler":
        global _ACTIVE_SAMPLER
        if self._thread is not None:
            raise ConfigurationError("StackSampler is already sampling")
        with _ACTIVE_LOCK:
            if _ACTIVE_SAMPLER is not None:
                raise ConfigurationError(
                    "another StackSampler is already active in this process; "
                    "one sampler per process keeps attribution unambiguous"
                )
            # Per-process active-sampler slot; a worker's registration
            # never flows back to the parent.
            _ACTIVE_SAMPLER = self
        self._target_ident = threading.get_ident()
        self._stop_event.clear()
        self._switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(min(self._switch_interval, self.interval / 10.0))
        self._entered_clock = time.perf_counter()
        self._thread = threading.Thread(
            target=self._sample_loop, name="repro-stack-sampler", daemon=True
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
        with _ACTIVE_LOCK:
            if _ACTIVE_SAMPLER is self:
                _ACTIVE_SAMPLER = None  # releases this process's own slot

    def _sample_loop(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.sample_once()

    # -- sampling ------------------------------------------------------------

    def sample_once(self) -> None:
        """Capture one stack of the target thread into the profile."""
        started = time.perf_counter()
        frame = sys._current_frames().get(self._target_ident)
        if frame is None:  # pragma: no cover - target thread already gone
            self.profile.dropped += 1
        else:
            frames: list[FrameTuple] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
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
                depth += 1
            truncated = frame is not None
            frames.reverse()  # outermost first, like collapsed-stack files
            phase = tracing.current_span_path(self._target_ident)
            self.profile.record(phase, tuple(frames), truncated=truncated)
        self.profile.sample_seconds += time.perf_counter() - started
