"""Machine-speed calibration: report times in reference seconds.

The benchmark runs on shared machines whose speed drifts by tens of
percent over tens of seconds, for reasons invisible from inside the
guest (no steal time is reported). A fixed calibration kernel -- the
same mix of string n-gram counting, dict arithmetic, sorting and small
numpy sampling steps the program spends its time on -- is timed right
before and right after every measured segment. The segment's seconds
are divided by the mean slowdown of the two calibrations (kernel time /
``REFERENCE_KERNEL_S``), so a slow spell of the machine does not read
as a slower program, while a slower program still does: the kernel does
not run any of the program's code.

Segments should be short next to the drift (a few seconds), which is
why the workloads open one segment per configuration or model family
rather than one per pass.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: The kernel's time on an unloaded machine (2.1 GHz x86 guest). Only
#: the ratio matters for comparisons; this constant keeps reported
#: values close to real seconds.
REFERENCE_KERNEL_S = 0.010
KERNEL_REPEATS = 7

_WORDS = [f"w{i % 97}x{i % 13}" for i in range(2000)]


def kernel_seconds() -> float:
    """One run of the calibration kernel, in seconds."""
    rng = np.random.default_rng(0)
    started = time.perf_counter()
    grams: dict[str, float] = {}
    for i in range(len(_WORDS) - 2):
        gram = _WORDS[i] + " " + _WORDS[i + 1] + " " + _WORDS[i + 2]
        grams[gram] = grams.get(gram, 0.0) + 1.0
    norm = sum(v * v for v in grams.values()) ** 0.5
    ranked = sorted(grams.items(), key=lambda kv: (-kv[1], kv[0]))
    sum(v / norm for _, v in ranked)
    weights = np.ones(15)
    for _ in range(1500):
        p = weights / weights.sum()
        k = int(np.searchsorted(np.cumsum(p), rng.random()))
        weights[k % 15] += 1.0
    return time.perf_counter() - started


def slowdown() -> float:
    """How many times slower than the reference the machine runs now."""
    return statistics.median(kernel_seconds() for _ in range(KERNEL_REPEATS)) / REFERENCE_KERNEL_S


@dataclass
class Segment:
    """One measured stretch: raw seconds and the slowdown around it."""

    raw: float = 0.0
    factor: float = 1.0

    def scale(self, seconds: float) -> float:
        """``seconds`` measured inside this segment, in reference seconds."""
        return seconds / self.factor


class Meter:
    """Accumulates a pass's measured segments in reference seconds.

    The calibration taken after one segment doubles as the one before
    the next, so back-to-back segments pay for one calibration each.
    """

    def __init__(self) -> None:
        self.raw = 0.0
        self._last: float | None = None

    @contextmanager
    def segment(self):
        before = self._last if self._last is not None else slowdown()
        segment = Segment()
        started = time.perf_counter()
        try:
            yield segment
        finally:
            segment.raw = time.perf_counter() - started
            self._last = slowdown()
            segment.factor = (before + self._last) / 2.0
            self.raw += segment.raw
