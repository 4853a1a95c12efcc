"""Numerical helpers shared by the Gibbs samplers.

All the collapsed Gibbs samplers in this package need the same two
primitives: drawing from an unnormalised discrete distribution, and
sampling the number of occupied tables in a Chinese Restaurant Process
(used by HDP's table-count resampling).

The module also defines the samplers' per-iteration progress protocol:
a training loop calls :func:`notify_iteration` once per sweep, and any
installed :data:`IterationHook` receives a :class:`GibbsIteration`
record (iteration number, total, optional corpus log-likelihood). The
telemetry layer uses this to stream sampler convergence without the
models knowing anything about tracing.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.obs.resources import read_rss_bytes

__all__ = [
    "GibbsIteration",
    "IterationHook",
    "notify_iteration",
    "sample_index",
    "sample_crp_tables",
]


@dataclass(frozen=True)
class GibbsIteration:
    """One completed training sweep of a sampler (or EM) loop."""

    model: str
    iteration: int  # 1-based
    total: int
    log_likelihood: float | None = None
    #: Resident set size right after the sweep; None when no hook was
    #: installed (the read is skipped) or no RSS source exists.
    rss_bytes: int | None = None


#: Observer of sampler progress; see :func:`notify_iteration`.
IterationHook = Callable[[GibbsIteration], None]


def notify_iteration(
    hook: IterationHook | None,
    model: str,
    iteration: int,
    total: int,
    log_likelihood: float | None = None,
) -> None:
    """Deliver one :class:`GibbsIteration` to ``hook`` if one is set.

    The RSS read happens only when a hook is installed, so untraced
    training loops pay nothing for the memory dimension.
    """
    if hook is not None:
        hook(GibbsIteration(
            model=model,
            iteration=iteration,
            total=total,
            log_likelihood=log_likelihood,
            rss_bytes=read_rss_bytes(),
        ))


def sample_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index proportionally to non-negative ``weights``.

    Falls back to a uniform draw when all weights are zero (which can
    happen transiently in sparse samplers) rather than crashing the
    chain.
    """
    total = float(weights.sum())
    if total <= 0.0 or not np.isfinite(total):
        return int(rng.integers(len(weights)))
    # Inverse-CDF sampling on the cumulative sum: one uniform draw, and
    # the index is the count of CDF entries below it (what
    # searchsorted(side="left") returns on a non-decreasing CDF).
    # searchsorted itself is avoided: it drops and retakes the GIL on
    # every call, and one release per token lets the sampling thread
    # keep losing the GIL race to this loop, so a StackSampler or
    # ResourceSampler watching a fit could go hundreds of ms without
    # a sample.
    return int(np.count_nonzero(np.cumsum(weights) < rng.random() * total))


def sample_crp_tables(n_customers: int, concentration: float, rng: np.random.Generator) -> int:
    """Sample the table count for ``n_customers`` in a CRP.

    In a Chinese Restaurant Process with concentration ``a``, customer
    ``i`` (1-based) opens a new table with probability ``a / (a + i - 1)``.
    The sum of those Bernoulli draws is the Antoniak-distributed number of
    occupied tables; HDP resamples its per-document table counts this way.
    """
    if n_customers <= 0:
        return 0
    if concentration <= 0.0:
        return 1
    i = np.arange(n_customers, dtype=float)
    probs = concentration / (concentration + i)
    return int((rng.random(n_customers) < probs).sum())
