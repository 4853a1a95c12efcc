"""Categorical draws on ``Generator.choice``'s random stream.

``rng.choice(len(p), p=p)`` validates ``p``, builds its CDF and then
draws one uniform, every call. The simulator samples from the same few
distributions tens of thousands of times (a user's interests, a tweet's
topic mix, the within-topic Zipf law), so it builds each CDF once with
:func:`categorical_cdf` and draws with :func:`draw`. Both replay numpy's
replacement path exactly -- ``cdf = p.cumsum(); cdf /= cdf[-1]``, then
``cdf.searchsorted(rng.random(), side="right")`` -- so every draw gives
the same index and leaves the generator in the same state as ``choice``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from repro.errors import ValidationError

__all__ = ["categorical_cdf", "draw"]

#: ``Generator.choice``'s tolerance on ``sum(p) - 1`` for float64 ``p``.
_ATOL = math.sqrt(np.finfo(np.float64).eps)


def categorical_cdf(p) -> list[float]:
    """The normalised CDF ``Generator.choice`` samples ``p`` with.

    Raises :class:`ValidationError` where ``choice`` would raise: an empty
    ``p``, a negative or NaN entry, or a total further than
    ``sqrt(eps)`` from 1.
    """
    weights = np.asarray(p, dtype=np.float64)
    if weights.ndim != 1 or not weights.size:
        raise ValidationError(f"need a non-empty 1-D distribution, got shape {weights.shape}")
    values = weights.tolist()
    # `x >= 0.0` is False for NaN too, so one pass rejects both.
    if not all(x >= 0.0 for x in values):
        kind = "NaN" if any(math.isnan(x) for x in values) else "negative"
        raise ValidationError(f"probabilities contain {kind} entries: {values}")
    # Left-to-right float64 sums and one division per entry: the same
    # operations, in the same order, as numpy's cumsum and `cdf /= cdf[-1]`.
    cdf = list(accumulate(values))
    total = cdf[-1]
    if not abs(total - 1.0) <= _ATOL:
        raise ValidationError(f"probabilities must sum to 1, got {total!r}")
    return [c / total for c in cdf]


def draw(cdf: list[float], rng: np.random.Generator) -> int:
    """One index from ``cdf``; equals ``rng.choice(len(p), p=p)``."""
    return bisect_right(cdf, rng.random())
