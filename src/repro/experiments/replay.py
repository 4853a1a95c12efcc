"""Streaming replay evaluation: incremental profiles vs batch rebuild.

``repro replay`` streams each user's training timeline chronologically
through the model's incremental :class:`~repro.models.base.ProfileState`
-- one :meth:`~repro.models.base.ProfileState.update` per chunk of
``(timestamp, tweet_id)``-ordered tweets -- and, at every chunk
boundary, rebuilds the profile from scratch over the prefix seen so
far. The two must agree:

* **bag and graph models** fold through running accumulators that
  replicate the batch aggregation's exact floating-point operation
  sequence, so the incremental profile is *bit-identical* to the
  rebuild at every boundary (``exact`` is True, ``max_delta`` is 0);
* **topic models** infer each document's topic mixture once per fold.
  With ``deterministic_topics`` (the default) inference is seeded per
  document, making it a pure function of the document -- the replay is
  then bit-exact too, and serial and ``--jobs`` runs produce identical
  digests. With stochastic inference the incremental and rebuilt
  profiles differ by the inference noise of re-sampled documents;
  compare them under an explicit tolerance instead.

The driver also measures the cost asymmetry the incremental protocol
exists for: ``update_seconds`` accumulates the per-chunk fold cost
(O(chunk) for bag models), ``rebuild_seconds`` the cost of batch
rebuilds at every boundary (O(prefix) each, O(n^2) overall), and
``speedup`` is their ratio; ``repro replay`` prints all three per
model, and perfbench's ``profile_stream`` workload times the same
single-document updates beside re-ranks.

With ``jobs > 1`` the users of each model are partitioned into
contiguous chunks and replayed in a process pool; workers rebuild the
pipeline from the picklable spec and resolve configurations through the
grid index by (model, canonical parameter JSON), exactly like the sweep
executors. Replay results carry per-user profile digests, so parallel
and serial runs are directly comparable.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.pipeline import ExperimentPipeline
from repro.core.sources import RepresentationSource
from repro.core.stages import FittedModel, canonical_params
from repro.errors import ConfigurationError, ValidationError
from repro.eval.timing import Stopwatch
from repro.experiments.configs import ModelConfig
from repro.experiments.executors import GridSpec, PipelineSpec
from repro.experiments.standard import fast_grid
from repro.models.base import TextDoc
from repro.models.graph import NGramGraph
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "REPLAY_MODELS",
    "ModelReplay",
    "ReplaySpec",
    "UserReplay",
    "profile_delta",
    "profile_digest",
    "run_replay",
]

#: Default models of ``repro replay``: one per family (bag, graph, topic).
REPLAY_MODELS = ("TN", "TNG", "LDA")

#: Wall-clock budget for one worker's (model, user chunk) replay task.
#: Bounds the parent's ``AsyncResult.get`` so a wedged worker surfaces
#: as a timeout instead of hanging the driver forever.
REPLAY_TASK_TIMEOUT_SECONDS = 600.0


@dataclass(frozen=True)
class ReplaySpec:
    """Picklable description of one streaming replay run.

    ``models`` name configurations resolved from the fast grid of
    ``grid`` (one representative configuration per model, the same
    picks ``sweep --fast`` runs); ``users`` is the candidate user
    set (ineligible users are filtered exactly as ``evaluate`` would);
    ``chunk_size`` is the number of tweets folded per incremental
    update (1 = one update per tweet, the finest stream).
    """

    pipeline: PipelineSpec
    grid: GridSpec
    source: str
    users: tuple[int, ...]
    models: tuple[str, ...]
    chunk_size: int = 1
    deterministic_topics: bool = True

    def __post_init__(self) -> None:
        if self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if not self.models:
            raise ConfigurationError("replay needs at least one model")
        RepresentationSource(self.source)  # fail fast on unknown sources


@dataclass(frozen=True)
class UserReplay:
    """One user's replay outcome: parity and cost of the streamed folds.

    ``exact`` means every boundary's incremental profile equalled the
    batch rebuild bit for bit; ``max_delta`` is the largest absolute
    elementwise difference observed across all boundaries (0.0 when
    exact). ``digest`` fingerprints the final incremental profile, so
    two runs (serial vs ``--jobs``) can be compared without shipping
    profiles around.
    """

    user: int
    docs: int
    updates: int
    exact: bool
    max_delta: float
    digest: str
    update_seconds: float
    rebuild_seconds: float
    #: Cost of the last boundary's rebuild alone -- a batch build over
    #: the user's whole timeline, i.e. what one profile refresh costs
    #: without the incremental protocol.
    final_rebuild_seconds: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "user": self.user,
            "docs": self.docs,
            "updates": self.updates,
            "exact": self.exact,
            "max_delta": self.max_delta,
            "digest": self.digest,
            "update_seconds": self.update_seconds,
            "rebuild_seconds": self.rebuild_seconds,
            "final_rebuild_seconds": self.final_rebuild_seconds,
        }


@dataclass(frozen=True)
class ModelReplay:
    """One model's replay outcome over all evaluated users."""

    model: str
    source: str
    params: dict = field(hash=False)
    users: tuple[UserReplay, ...] = field(hash=False)

    @property
    def update_seconds(self) -> float:
        return math.fsum([u.update_seconds for u in self.users])

    @property
    def rebuild_seconds(self) -> float:
        return math.fsum([u.rebuild_seconds for u in self.users])

    @property
    def mean_update_seconds(self) -> float:
        """Average cost of folding one chunk into a live profile."""
        updates = sum(u.updates for u in self.users)
        if updates == 0:
            return 0.0
        return self.update_seconds / updates

    @property
    def mean_full_rebuild_seconds(self) -> float:
        """Average cost of one batch rebuild over a full timeline."""
        if not self.users:
            return 0.0
        return math.fsum([u.final_rebuild_seconds for u in self.users]) / len(self.users)

    @property
    def speedup(self) -> float:
        """How many times cheaper one streamed update is than rebuilding
        the profile from the whole timeline (the cost a non-incremental
        engine pays on every refresh)."""
        update = self.mean_update_seconds
        if update <= 0.0:
            return float("inf") if self.mean_full_rebuild_seconds > 0.0 else 1.0
        return self.mean_full_rebuild_seconds / update

    @property
    def exact(self) -> bool:
        return all(u.exact for u in self.users)

    @property
    def max_delta(self) -> float:
        return max((u.max_delta for u in self.users), default=0.0)

    def parity_ok(self, tolerance: float = 0.0) -> bool:
        """Whether every user's replay agreed within ``tolerance``."""
        return all(u.exact or u.max_delta <= tolerance for u in self.users)

    def to_dict(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "source": self.source,
            "params": dict(self.params),
            "exact": self.exact,
            "max_delta": self.max_delta,
            "update_seconds": self.update_seconds,
            "rebuild_seconds": self.rebuild_seconds,
            "mean_update_seconds": self.mean_update_seconds,
            "mean_full_rebuild_seconds": self.mean_full_rebuild_seconds,
            "speedup": self.speedup,
            "users": [u.to_dict() for u in self.users],
        }


# -- profile comparison ----------------------------------------------------


def profile_delta(expected: Any, actual: Any) -> float:
    """Largest absolute elementwise difference between two profiles.

    0.0 means the profiles are equal (for floats: ``==``-equal, which
    the running accumulators guarantee bitwise); ``inf`` means they are
    structurally incomparable (different shapes or types).
    """
    if isinstance(expected, NGramGraph) and isinstance(actual, NGramGraph):
        a, b = dict(expected.edges()), dict(actual.edges())
        keys = set(a) | set(b)
        return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = set(expected) | set(actual)
        return max(
            (abs(expected.get(k, 0.0) - actual.get(k, 0.0)) for k in keys),
            default=0.0,
        )
    if isinstance(expected, np.ndarray) and isinstance(actual, np.ndarray):
        if expected.shape != actual.shape:
            return float("inf")
        if expected.size == 0:
            return 0.0
        return float(np.max(np.abs(expected - actual)))
    if type(expected) is type(actual) and expected == actual:
        return 0.0
    return float("inf")


def profile_digest(profile: Any) -> str:
    """Short stable fingerprint of one profile's exact contents."""
    if isinstance(profile, NGramGraph):
        payload = repr(sorted(profile.edges()))
    elif isinstance(profile, dict):
        payload = repr(sorted(profile.items()))
    elif isinstance(profile, np.ndarray):
        payload = repr([float(x) for x in profile.reshape(-1).tolist()])
    else:
        payload = repr(profile)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# -- the replay core -------------------------------------------------------


def _chronological(
    docs: Sequence[TextDoc],
    labels: Sequence[int] | None,
    keys: Sequence[tuple[int, int]],
) -> tuple[list[TextDoc], list[int] | None, list[tuple[int, int]]]:
    """The stream in pinned ``(timestamp, tweet_id)`` fold order."""
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    return (
        [docs[i] for i in order],
        [labels[i] for i in order] if labels is not None else None,
        [keys[i] for i in order],
    )


def _replay_user(
    model: Any,
    user: int,
    docs: Sequence[TextDoc],
    labels: Sequence[int] | None,
    keys: Sequence[tuple[int, int]],
    chunk_size: int,
) -> UserReplay:
    """Stream one user's timeline; check parity at every boundary."""
    docs, labels, keys = _chronological(docs, labels, keys)
    update_watch = Stopwatch()
    rebuild_watch = Stopwatch()
    with update_watch.measure():
        state = model.init_profile()
    value = state.value()
    exact = True
    max_delta = 0.0
    updates = 0
    final_rebuild = 0.0
    for start in range(0, len(docs), chunk_size):
        stop = start + chunk_size
        chunk_labels = labels[start:stop] if labels is not None else None
        with update_watch.measure():
            state.update(docs[start:stop], labels=chunk_labels, keys=keys[start:stop])
        # Materialising the profile (``value``) is priced separately
        # from the fold: an engine only pays it when it actually ranks,
        # not on every ingested tweet.
        value = state.value()
        updates += 1
        prefix_labels = labels[:stop] if labels is not None else None
        before = rebuild_watch.elapsed
        with rebuild_watch.measure():
            fresh = model.init_profile()
            fresh.update(docs[:stop], labels=prefix_labels, keys=keys[:stop])
            rebuilt = fresh.value()
        final_rebuild = rebuild_watch.elapsed - before
        delta = profile_delta(rebuilt, value)
        if delta != 0.0:
            exact = False
            max_delta = max(max_delta, delta)
    return UserReplay(
        user=user,
        docs=len(docs),
        updates=updates,
        exact=exact,
        max_delta=max_delta,
        digest=profile_digest(value),
        update_seconds=update_watch.elapsed,
        rebuild_seconds=rebuild_watch.elapsed,
        final_rebuild_seconds=final_rebuild,
    )


def _resolve_configs(spec: ReplaySpec) -> list[ModelConfig]:
    """The replayed configurations: the fast-grid pick of each model."""
    picks = {c.model: c for c in fast_grid(seed=spec.grid.seed)}
    missing = sorted(set(spec.models) - set(picks))
    if missing:
        raise ConfigurationError(f"no fast-grid configuration for models: {missing}")
    return [picks[model] for model in spec.models]


def _fit_for_replay(
    pipeline: ExperimentPipeline, spec: ReplaySpec, config: ModelConfig, users: tuple[int, ...]
) -> FittedModel:
    """Prepare and fit one configuration for replay, deterministically."""
    prepared = pipeline.prepare_corpus(RepresentationSource(spec.source), users)
    model = config.build()
    if spec.deterministic_topics and hasattr(model, "deterministic_inference"):
        model.deterministic_inference = True
    return pipeline.fit_model(model, prepared)


def _eligible(pipeline: ExperimentPipeline, spec: ReplaySpec) -> tuple[int, ...]:
    users = tuple(pipeline.eligible_users(spec.users))
    if not users:
        raise ValidationError("no eligible users to replay")
    return users


def _replay_users(
    pipeline: ExperimentPipeline,
    spec: ReplaySpec,
    fitted: FittedModel,
    replay_users: Sequence[int],
) -> tuple[UserReplay, ...]:
    """Replay a user subset against one fitted configuration."""
    results = []
    for uid in replay_users:
        docs, labels, keys = pipeline.profile_inputs(fitted, uid)
        results.append(
            _replay_user(fitted.model, uid, docs, labels, keys, spec.chunk_size)
        )
    return tuple(results)


def _model_replay(
    spec: ReplaySpec,
    config: ModelConfig,
    users: tuple[UserReplay, ...],
    tel: Telemetry,
) -> ModelReplay:
    """One model's merged result, counted and announced on ``tel``."""
    replay = ModelReplay(
        model=config.model,
        source=spec.source,
        params=dict(config.params),
        users=users,
    )
    tel.count("replay.users", len(users))
    tel.count("replay.updates", sum(u.updates for u in users))
    tel.emit(
        "replay_model_done",
        model=replay.model,
        source=replay.source,
        exact=replay.exact,
        max_delta=replay.max_delta,
        speedup=replay.speedup,
    )
    return replay


# -- worker plumbing (``--jobs``) ------------------------------------------

#: One pipeline and one fitted-model cache per worker process: a worker
#: replays several user chunks of the same spec and must prepare the
#: corpus and fit each model only once.
_REPLAY_PIPELINES: dict[PipelineSpec, ExperimentPipeline] = {}
_REPLAY_FITS: dict[tuple, FittedModel] = {}


def _replay_worker(
    spec: ReplaySpec,
    model: str,
    params_key: str,
    corpus_users: tuple[int, ...],
    replay_users: tuple[int, ...],
) -> tuple[UserReplay, ...]:
    """Pool entry point: replay one user chunk of one model.

    Module-scope so it pickles under any start method. Configurations
    are resolved by (model, canonical parameter JSON) against the
    spec's grid, mirroring the sweep executors' worker index.
    """
    pipeline = _REPLAY_PIPELINES.get(spec.pipeline)
    if pipeline is None:
        pipeline = spec.pipeline.build()
        _REPLAY_PIPELINES[spec.pipeline] = pipeline
    config = None
    for candidate in _resolve_configs(spec):
        if candidate.model == model and canonical_params(candidate.params) == params_key:
            config = candidate
            break
    if config is None:
        raise ConfigurationError(
            f"replay worker cannot resolve configuration {model}|{params_key}"
        )
    fit_key = (spec.pipeline, spec.grid, spec.source, corpus_users, model, params_key)
    fitted = _REPLAY_FITS.get(fit_key)
    if fitted is None:
        fitted = _fit_for_replay(pipeline, spec, config, corpus_users)
        _REPLAY_FITS[fit_key] = fitted
    return _replay_users(pipeline, spec, fitted, replay_users)


def _partition(users: tuple[int, ...], jobs: int) -> list[tuple[int, ...]]:
    """Contiguous near-even user chunks, preserving order."""
    jobs = max(1, min(jobs, len(users)))
    size, extra = divmod(len(users), jobs)
    chunks: list[tuple[int, ...]] = []
    start = 0
    for index in range(jobs):
        stop = start + size + (1 if index < extra else 0)
        chunks.append(users[start:stop])
        start = stop
    return [chunk for chunk in chunks if chunk]


# -- the driver ------------------------------------------------------------


def run_replay(
    spec: ReplaySpec,
    jobs: int = 1,
    telemetry: Telemetry | None = None,
) -> list[ModelReplay]:
    """Replay every model of the spec over its users; returns per-model
    parity and timing results in the spec's model order.

    Serial (``jobs == 1``) runs share one pipeline, so preprocessing
    and the prepared corpus amortise across models. ``jobs > 1``
    partitions each model's users into contiguous chunks replayed by a
    process pool; with deterministic topic inference the merged results
    carry digests bit-identical to a serial run.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    configs = _resolve_configs(spec)
    if jobs == 1:
        pipeline = spec.pipeline.build(telemetry)
        corpus_users = _eligible(pipeline, spec)
        results = []
        for config in configs:
            with tel.span("replay_model", model=config.model, source=spec.source):
                fitted = _fit_for_replay(pipeline, spec, config, corpus_users)
                users = _replay_users(pipeline, spec, fitted, corpus_users)
            results.append(_model_replay(spec, config, users, tel))
        return results

    # Eligibility is deterministic in the dataset config and split
    # protocol, so the parent's partition and each worker's corpus
    # (always the full eligible set) agree by construction.
    corpus_users = _eligible(spec.pipeline.build(), spec)
    chunks = _partition(corpus_users, jobs)
    context = multiprocessing.get_context()
    results = []
    with context.Pool(processes=min(jobs, len(chunks) * len(configs))) as pool:
        pending = []
        for config in configs:
            params_key = canonical_params(config.params)
            pending.append(
                (
                    config,
                    [
                        pool.apply_async(
                            _replay_worker,
                            (spec, config.model, params_key, corpus_users, chunk),
                        )
                        for chunk in chunks
                    ],
                )
            )
        for config, handles in pending:
            with tel.span("replay_model", model=config.model, source=spec.source):
                users = tuple(
                    user
                    for handle in handles
                    for user in handle.get(timeout=REPLAY_TASK_TIMEOUT_SECONDS)
                )
            results.append(_model_replay(spec, config, users, tel))
    return results
