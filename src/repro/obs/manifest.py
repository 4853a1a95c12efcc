"""Run manifests: what exactly produced a set of numbers.

Comparative studies live or die on attributable measurement -- a MAP or
TTime figure is only meaningful alongside the seed, dataset
configuration, model grid and software version that produced it. A
:class:`RunManifest` captures that provenance once at run start, is
embedded in trace files and sweep JSON, and makes every saved result
self-describing.
"""

from __future__ import annotations

import os
import platform as _platform
import resource
import sys
import time
from datetime import datetime, timezone

__all__ = ["RunManifest"]


def _package_version() -> str:
    try:
        from repro import __version__

        return __version__
    except Exception:  # pragma: no cover - only during partial imports
        return "unknown"


def _platform_name() -> str:
    """``platform.platform()``'s Linux form, without the ``uname -p``
    child process it forks, which would set ``children_peak_rss_mb``."""
    libc = "".join(_platform.libc_ver())
    name = "-".join((_platform.system(), _platform.release(), _platform.machine()))
    return f"{name}-with-{libc}" if libc else name


def _peak_rss_mb(who: int) -> float:
    """``ru_maxrss`` of ``who`` in MiB (the field is KiB on Linux, bytes on macOS)."""
    peak = resource.getrusage(who).ru_maxrss
    return peak / (1024 * 1024 if sys.platform == "darwin" else 1024)


class RunManifest:
    """Provenance record for one experiment run."""

    def __init__(
        self,
        seed: int | None = None,
        dataset: dict | None = None,
        models: list[str] | tuple[str, ...] = (),
        command: str | None = None,
        package_version: str = "",
        python_version: str = "",
        platform: str = "",
        started_at: str = "",
        wall_seconds: float | None = None,
        cpu_count: int | None = None,
        peak_rss_mb: float | None = None,
        children_peak_rss_mb: float | None = None,
        extra: dict | None = None,
    ):
        self.seed = seed
        self.dataset = dict(dataset or {})
        self.models = list(models)
        self.command = command
        self.package_version = package_version
        self.python_version = python_version
        self.platform = platform
        self.started_at = started_at
        self.wall_seconds = wall_seconds
        self.cpu_count = cpu_count
        self.peak_rss_mb = peak_rss_mb
        self.children_peak_rss_mb = children_peak_rss_mb
        self.extra = dict(extra or {})
        self._start_clock: float | None = None

    @classmethod
    def create(
        cls,
        seed: int | None = None,
        dataset: dict | None = None,
        models: list[str] | tuple[str, ...] = (),
        command: str | None = None,
        **extra: object,
    ) -> "RunManifest":
        """Stamp a manifest with the current environment and wall clock."""
        manifest = cls(
            seed=seed,
            dataset=dataset,
            models=models,
            command=command,
            package_version=_package_version(),
            python_version=sys.version.split()[0],
            platform=_platform_name(),
            started_at=datetime.now(  # repro: allow[RPR003] -- provenance stamp: manifests record when a run happened
                timezone.utc
            ).isoformat(timespec="seconds"),
            cpu_count=os.cpu_count(),
            extra=dict(extra),
        )
        manifest._start_clock = time.perf_counter()
        return manifest

    def finish(self) -> "RunManifest":
        """Record the run's total wall-clock seconds and peak memory.

        ``peak_rss_mb`` is this process's peak resident set size;
        ``children_peak_rss_mb`` is the largest of its reaped child
        processes (the ``--jobs`` workers), 0 for a serial run.
        """
        if self._start_clock is not None:
            self.wall_seconds = time.perf_counter() - self._start_clock
        self.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_SELF)
        self.children_peak_rss_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
        return self

    def to_dict(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "seed": self.seed,
            "dataset": dict(self.dataset),
            "models": list(self.models),
            "command": self.command,
            "package_version": self.package_version,
            "python_version": self.python_version,
            "platform": self.platform,
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "cpu_count": self.cpu_count,
            "peak_rss_mb": self.peak_rss_mb,
            "children_peak_rss_mb": self.children_peak_rss_mb,
        }
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        return cls(
            seed=payload.get("seed"),
            dataset=payload.get("dataset"),
            models=payload.get("models", ()),
            command=payload.get("command"),
            package_version=payload.get("package_version", ""),
            python_version=payload.get("python_version", ""),
            platform=payload.get("platform", ""),
            started_at=payload.get("started_at", ""),
            wall_seconds=payload.get("wall_seconds"),
            cpu_count=payload.get("cpu_count"),
            peak_rss_mb=payload.get("peak_rss_mb"),
            children_peak_rss_mb=payload.get("children_peak_rss_mb"),
            extra=payload.get("extra"),
        )
