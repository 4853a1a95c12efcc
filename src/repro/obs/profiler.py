"""Stack profiles: mergeable, span-attributed collapsed-stack tables.

Spans say *which phase* is slow; a :class:`Profile` says *which frames
inside the phase* burn the time, the stack-level evidence a hot-loop
rewrite needs before and after (``repro profile diff``). The samples
come from the process's one sampling thread
(:class:`~repro.obs.sampling.Sampler`), which tags every captured stack
with the innermost open :class:`~repro.obs.tracing.Span` of the sampled
thread, so samples roll up under the same phase tree every other report
uses.

Profiles are plain mergeable count tables: worker processes sample
themselves and ship their profile in the telemetry payload, and
:meth:`Telemetry.absorb <repro.obs.telemetry.Telemetry.absorb>` folds it
into the active sampler's profile -- a ``--jobs N`` run produces one
merged profile with the same schema as a serial one. The sampler's own
cost is accounted in ``sample_seconds``, so :attr:`Profile.overhead_ratio`
is part of every profile document and can be gated in CI.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.errors import ConfigurationError, PersistenceError

__all__ = [
    "DEFAULT_HZ",
    "PROFILE_FORMAT_VERSION",
    "Profile",
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
        if not (math.isfinite(hz) and hz > 0.0):
            raise ConfigurationError(
                f"sampling rate must be finite and positive, got {hz}"
            )
        self.hz = float(hz)
        self.counts: dict[tuple[tuple[str, ...], tuple[FrameTuple, ...]], int] = {}
        #: Samples that captured a stack.
        self.samples = 0
        #: Sampling attempts where the target thread had no frame.
        self.dropped = 0
        #: Samples whose stack exceeded :data:`MAX_STACK_DEPTH`.
        self.truncated = 0
        #: CPU time the sampling thread spent taking samples.
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
