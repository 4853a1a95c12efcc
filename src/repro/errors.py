"""Exception hierarchy for the ``repro`` library.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch library failures without
catching unrelated bugs. Types that replaced historical builtin raises
(:class:`ValidationError`, :class:`PersistenceError`) also inherit the
builtin they replaced, so pre-taxonomy ``except ValueError`` call sites
keep working.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ValidationError(ReproError, ValueError):
    """A single parameter or argument failed validation.

    Inherits :class:`ValueError` so historical ``except ValueError``
    call sites (and tests) keep working, while new code can catch the
    :class:`ReproError` family. Reprolint rule RPR004 enforces that the
    library raises taxonomy types instead of bare builtins.
    """


class PersistenceError(ReproError, ValueError):
    """A saved artifact (sweep JSON, trace, journal) is unusable.

    Raised for unsupported format versions, torn/foreign journal files
    and writes to closed journals. Inherits :class:`ValueError` for
    backwards compatibility with callers that caught the old raises.
    """


class ConfigurationError(ReproError):
    """An invalid parameter or parameter combination was supplied.

    The paper (Section 4) declares several configuration combinations
    invalid — e.g. Jaccard similarity with TF weights, or TF-IDF weights
    for character n-grams. Constructing such a configuration raises this
    error instead of silently producing meaningless results.
    """


class InjectedFaultError(ReproError):
    """A deliberately injected fault fired (see :mod:`repro.faults`).

    Raised by ``raise``-kind fault specs so chaos tests and CI can tell
    an exercised failure path from a genuine defect. Quarantine records
    carry this class name in their error taxonomy field.
    """


class WorkerCrashError(ReproError):
    """A sweep worker process died mid-cell (non-zero exit, OOM kill).

    The supervisor raises/records this on behalf of the dead worker --
    the worker itself never gets to raise anything.
    """


class CellTimeoutError(ReproError):
    """A sweep cell exceeded its wall-clock budget and was terminated."""


class CellQuarantinedError(ReproError):
    """A supervised cell failed every attempt its policy allowed.

    Raised by runs that cannot complete without the cell (a streaming
    replay); a sweep records the quarantine instead and carries on.
    """


class NotFittedError(ReproError):
    """A model was used before it was trained/fitted."""


class SamplingWeightsError(ReproError):
    """A sampler's weights are not finite and non-negative.

    Raised by the topic models' Gibbs fold-in, and by the LDA, LLDA and
    BTM training sweeps when a token's weights lack a finite positive
    total (both naming the model), instead of drawing from a
    distribution that does not exist.
    """


class EmptyCorpusError(ReproError):
    """An operation that requires at least one document got none."""


class DataGenerationError(ReproError):
    """The synthetic Twitter substrate could not satisfy a request."""
