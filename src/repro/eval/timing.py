"""Time-efficiency measurement: TTime and ETime.

The paper's two efficiency measures (Section 4):

* **TTime** (training time) -- modelling time for all users, including,
  for topic models, the one-off training of the shared model M(s);
* **ETime** (testing time) -- time to compare every user model with her
  test tweets and rank them.

:class:`Stopwatch` accumulates wall-clock segments so a pipeline can
attribute its phases to the right bucket, and :class:`TimingSummary`
aggregates min/avg/max across runs for the Figure 7 report.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["Stopwatch", "TimingSummary", "collector_seconds", "summarize_timings"]


class _CollectorClock:
    """Seconds the cyclic garbage collector has paused this process."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0
        gc.callbacks.append(self._on_collection)

    def _on_collection(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started


_COLLECTOR = _CollectorClock()


def collector_seconds() -> float:
    """Seconds the garbage collector has paused this process so far.

    The representation memo leaves the pauses inside a document's first
    build out of the seconds it charges to each evaluation that reuses
    the document. A pause is paid once, by the evaluation it
    interrupted, as when nothing is shared; charged per reuse, one pause
    that lands in a document's build would be billed to every
    configuration that ranks or folds that document.
    """
    return _COLLECTOR.seconds


class Stopwatch:
    """Accumulates wall-clock time across multiple measured segments.

    Seconds measured elsewhere -- the first build of a shared artifact
    that this measurement reuses -- count too: :meth:`charge` adds them
    to the open segment, :meth:`record` adds a whole segment. ``last``
    is the most recent segment's seconds, charges included.
    """

    def __init__(self) -> None:
        self._elapsed = 0.0
        self._charged = 0.0
        self.last = 0.0

    @contextmanager
    def measure(self) -> Iterator[None]:
        """Context manager: adds the enclosed block's duration."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(time.perf_counter() - start)

    def _close(self, seconds: float) -> None:
        self.last = seconds + self._charged
        self._charged = 0.0
        self._elapsed += self.last

    def charge(self, seconds: float) -> None:
        """Add ``seconds`` measured elsewhere to the open segment."""
        self._charged += seconds

    def record(self, seconds: float) -> None:
        """Add a whole segment of ``seconds`` measured elsewhere."""
        self.last = seconds
        self._elapsed += seconds

    @property
    def elapsed(self) -> float:
        """Total seconds: measured segments plus charges."""
        return self._elapsed

    def reset(self) -> None:
        self._elapsed = 0.0


@dataclass(frozen=True)
class TimingSummary:
    """Min / average / max seconds over a set of measured runs."""

    minimum: float
    average: float
    maximum: float


def summarize_timings(samples: Sequence[float]) -> TimingSummary:
    """Aggregate run durations into a Figure 7 style summary.

    Raises
    ------
    ConfigurationError
        If ``samples`` is empty -- a summary over zero runs is a caller
        configuration bug, and it surfaces as a library error so callers
        can catch the :class:`~repro.errors.ReproError` family.
    """
    if not samples:
        raise ConfigurationError("cannot summarise zero timing samples")
    return TimingSummary(
        minimum=min(samples),
        average=sum(samples) / len(samples),
        maximum=max(samples),
    )
