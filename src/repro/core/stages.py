"""Staged evaluation: typed artifacts with deterministic cache keys.

The evaluation of one (model, source, user set) combination decomposes
into four explicit stages:

1. **corpus preparation** -- gather every user's source training tweets
   and convert them to deduplicated, model-ready documents
   (:class:`PreparedCorpus`);
2. **model fit**          -- fit the representation model on the
   prepared corpus (:class:`FittedModel`);
3. **profile building**   -- build one user model per evaluated user
   (:class:`UserProfiles`);
4. **ranking**            -- rank every user's test set and compute her
   Average Precision (:class:`RankingOutcome`).

Every artifact carries a deterministic key derived from the inputs that
produced it (dataset seed, split protocol, source, model parameters),
computed by :func:`artifact_key` over a canonical JSON serialisation
(:func:`canonical_params`). Keys make artifacts shareable: the prepared
corpus of a source depends only on the split protocol and the user set,
never on the model, so a 223-configuration sweep prepares each source's
corpus exactly once (see :class:`ArtifactCache`) instead of 223 times.

The same canonical serialisation is the grouping key for
"same configuration, different group" rows in
:meth:`repro.experiments.runner.SweepResult.best_configuration` and the
cell identity in the sweep journal -- one spelling of "these parameters"
shared across the whole stack.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.core.recommender import RankingRecommender
from repro.core.sources import RepresentationSource
from repro.eval.timing import collector_seconds
from repro.models.base import Doc, RepresentationModel, TextDoc
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.twitter.entities import Tweet

__all__ = [
    "PROFILE_PROTOCOL_VERSION",
    "ArtifactCache",
    "FittedModel",
    "PreparedCorpus",
    "RankingOutcome",
    "RepresentationMemo",
    "UserProfiles",
    "artifact_key",
    "canonical_params",
    "stage_checkpoint",
    "stage_gate",
]

#: Version of the profile build/update/decay protocol. Folded into every
#: :class:`UserProfiles` cache key so a change to the fold semantics
#: (order pinning, decay weighting, aggregation identities) invalidates
#: previously cached profiles instead of silently serving stale ones.
PROFILE_PROTOCOL_VERSION = 1


#: Installed stage-boundary hooks, called by :func:`stage_checkpoint`.
#: Empty in normal operation; the fault-injection layer
#: (:mod:`repro.faults`) installs a gate here for the duration of one
#: armed evaluation, which is how a fault plan reaches stage code
#: without the stages knowing anything about faults.
_STAGE_GATES: list[Callable[[str], None]] = []


@contextmanager
def stage_gate(gate: Callable[[str], None]) -> Iterator[None]:
    """Install ``gate`` as a stage-boundary hook for one ``with`` block.

    Every :func:`stage_checkpoint` reached inside the block calls
    ``gate(stage_name)`` before the stage's own work starts. Gates may
    raise (or never return) -- that is the point: they are how the
    fault injector makes a stage fail, stall or bloat on demand.
    """
    _STAGE_GATES.append(gate)
    try:
        yield
    finally:
        _STAGE_GATES.remove(gate)


def stage_checkpoint(stage: str) -> None:
    """Announce a stage boundary to any installed gates.

    Called by the pipeline at the entry of each of the four evaluation
    stages (``prepare`` / ``fit`` / ``profiles`` / ``rank``). A no-op
    (one truthiness check) when no gate is installed, so the hot path
    pays nothing for the capability.
    """
    if _STAGE_GATES:
        for gate in tuple(_STAGE_GATES):
            gate(stage)


def canonical_params(params: Mapping[str, Any]) -> str:
    """One canonical JSON spelling of a parameter mapping.

    Key order is normalised and non-JSON values (enums, paths) fall back
    to ``str``, so two dicts describing the same configuration always
    serialise identically -- the property cache keys, journal cell ids
    and configuration grouping all rely on.
    """
    return json.dumps(dict(params), sort_keys=True, separators=(",", ":"), default=str)


def artifact_key(**components: Any) -> str:
    """Deterministic digest of a stage's identifying inputs.

    Components are canonically serialised and hashed, so the key is
    stable across processes and sessions -- equal inputs yield equal
    keys in a sweep worker, a resumed run, or a later report.
    """
    digest = hashlib.sha256(canonical_params(components).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class PreparedCorpus:
    """Stage-1 artifact: one source's training corpus over a user set.

    ``corpus_ids`` / ``corpus_docs`` / ``author_ids`` are parallel and
    deduplicated by tweet id in ascending id order; ``per_user_tweets``
    keeps each user's own (possibly overlapping) training stream for the
    profile-building stage.
    """

    key: str
    source: RepresentationSource
    users: tuple[int, ...]
    per_user_tweets: Mapping[int, tuple[Tweet, ...]] = field(hash=False)
    corpus_ids: tuple[int, ...] = field(hash=False)
    corpus_docs: tuple[TextDoc, ...] = field(hash=False)
    author_ids: tuple[str, ...] = field(hash=False)

    def __len__(self) -> int:
        return len(self.corpus_docs)


@dataclass(frozen=True)
class FittedModel:
    """Stage-2 artifact: a recommender fitted on a prepared corpus.

    ``key`` is the *fit key*: the corpus plus the model's
    :meth:`~repro.models.base.RepresentationModel.fit_params`. Two
    configurations that differ only in aggregation or similarity fit to
    the same key, so they may share representations and profiles.
    """

    key: str
    recommender: RankingRecommender = field(hash=False)
    corpus: PreparedCorpus = field(hash=False)

    @property
    def model(self):
        return self.recommender.model


@dataclass(frozen=True)
class UserProfiles:
    """Stage-3 artifact: one user model per evaluated user.

    ``params`` records every profile-affecting parameter (aggregation,
    Rocchio weights, temporal decay) and ``version`` the
    :data:`PROFILE_PROTOCOL_VERSION` the profiles were built under; both
    are part of ``key``, so any change to either is a cache miss. The
    profile mappings themselves are immutable artifacts -- mutate a
    profile only through :class:`repro.models.base.ProfileState`, never
    in place (reprolint RPR010 enforces this).

    ``build_seconds`` records what building each user's profile cost,
    so an evaluation that reuses the artifact is charged the same.
    """

    key: str
    profiles: Mapping[int, object] = field(hash=False)
    params: Mapping[str, Any] = field(default_factory=dict, hash=False)
    version: int = PROFILE_PROTOCOL_VERSION
    build_seconds: Mapping[int, float] = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class RankingOutcome:
    """Stage-4 artifact: per-user Average Precision."""

    key: str
    per_user_ap: Mapping[int, float] = field(hash=False)


class RepresentationMemo:
    """Each document's representation under one fit key, built once.

    :meth:`represent` stands in for the model's own ``represent`` during
    profile folding and ranking. A document is represented on its first
    request; later requests return the same object and add the seconds
    that first build took to :attr:`charged`, so the caller can bill a
    reusing evaluation what the build cost, less any garbage-collector
    pause inside it (see :func:`~repro.eval.timing.collector_seconds`).
    Shared representations are read-only. :meth:`bind` to a different
    key drops every entry, so the memo holds one fit key's documents at
    a time. Its hit/miss counters are named as :class:`ArtifactCache`'s,
    under ``represent_cache``.

    Entries are keyed by document identity (the pipeline hands out one
    object per tweet) and hold the document, so no key is reused while
    its entry lives.
    """

    name = "represent_cache"

    def __init__(self) -> None:
        self.key: str | None = None
        self._model: RepresentationModel | None = None
        self._entries: dict[int, tuple[Doc, Any, float]] = {}
        self.charged = 0.0
        self.hits = 0
        self.misses = 0

    def bind(self, key: str, model: RepresentationModel | None) -> "RepresentationMemo":
        """Serve ``model``'s representations under fit key ``key``.

        Charges left by an evaluation that stopped early are dropped.
        """
        if key != self.key:
            self.key = key
            self._entries.clear()
        self._model = model
        self.charged = 0.0
        return self

    def represent(self, doc: Doc) -> Any:
        entry = self._entries.get(id(doc))
        if entry is not None:
            self.hits += 1
            self.charged += entry[2]
            return entry[1]
        paused = collector_seconds()
        start = time.perf_counter()
        representation = self._model.represent(doc)  # type: ignore[union-attr]
        seconds = time.perf_counter() - start - (collector_seconds() - paused)
        self._entries[id(doc)] = (doc, representation, seconds)
        self.misses += 1
        return representation

    def take_charged(self) -> float:
        """Seconds charged since the last call."""
        charged, self.charged = self.charged, 0.0
        return charged

    def flush(self, telemetry: Telemetry | None = None) -> None:
        """Record the hits and misses since the last flush as counters."""
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        if self.hits:
            tel.count(f"{self.name}.hit", self.hits)
        if self.misses:
            tel.count(f"{self.name}.miss", self.misses)
        self.hits = self.misses = 0


class ArtifactCache:
    """In-memory artifact store keyed by deterministic stage keys.

    ``name`` prefixes the hit/miss counters (``<name>.hit`` /
    ``<name>.miss``) recorded against the telemetry passed to
    :meth:`get_or_build`, so a trace shows exactly how often each stage
    was recomputed versus shared.
    """

    def __init__(self, name: str = "artifact_cache"):
        self.name = name
        self._store: dict[str, Any] = {}

    def peek(self, key: str, telemetry: Telemetry | None = None) -> Any | None:
        """The cached artifact, or ``None`` -- counting the hit/miss.

        For call sites that must build misses at their own span nesting
        level (the profile stage keeps its per-user spans direct
        children of the evaluation phase); pair with :meth:`store`.
        """
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        if key in self._store:
            tel.count(f"{self.name}.hit")
            return self._store[key]
        tel.count(f"{self.name}.miss")
        return None

    def store(self, key: str, artifact: Any) -> Any:
        """Record a freshly built artifact under its key."""
        self._store[key] = artifact
        return artifact

    def get_or_build(
        self,
        key: str,
        build: Callable[[], Any],
        telemetry: Telemetry | None = None,
    ) -> Any:
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        artifact = self.peek(key, tel)
        if artifact is None and key not in self._store:
            # A dedicated span separates the (one-off) artifact build
            # cost from the enclosing phase's cache-hit fast path, and
            # gives the build its own resource window.
            with tel.span(f"{self.name}.build", key=key):
                self.store(key, build())
        return self._store[key]

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        self._store.clear()
