"""End-to-end evaluation pipeline (paper Sections 2 and 4).

For a given representation model, representation source and set of users,
the pipeline:

1. splits every user's timeline into training and testing phases (20%
   most recent retweets are the test positives, 4 sampled negatives per
   positive);
2. fits the shared preprocessing (tokenizer + 100 most frequent training
   tokens as stop words) on the union of all users' training tweets;
3. fits the representation model once on the training corpus -- IDF for
   the TF-IDF bags, the single shared topic model M(s) for topic models;
4. builds one user model per user from her source's training tweets;
5. ranks every user's test set and computes her Average Precision.

Training time (steps 3-4) and testing time (step 5) accumulate into the
paper's TTime and ETime measures.

``evaluate`` composes four explicit stages (see
:mod:`repro.core.stages`): :meth:`~ExperimentPipeline.prepare_corpus`,
:meth:`~ExperimentPipeline.fit_model`,
:meth:`~ExperimentPipeline.build_profiles` and
:meth:`~ExperimentPipeline.rank_users`. Each stage returns a typed
artifact with a deterministic cache key; the prepared corpus is cached
per (source, user set), so a sweep over many configurations prepares
each source's corpus exactly once (``corpus_cache.hit`` /
``corpus_cache.miss`` counters record the sharing).

Configurations with the same *fit key* (corpus plus
:meth:`~repro.models.base.RepresentationModel.fit_params`) also share
work: bag and graph models represent each document once per fit key
(``represent_cache.*``), and configurations that differ only in their
similarity measure share one set of profiles (``profile_cache.*``).
Each reusing evaluation is charged the seconds the shared build took,
so TTime and ETime stay per-configuration, as in the paper's Fig. 7.

Topic models cannot share representations (a fold-in draws from the
model's RNG), but within one evaluation each of the profile and rank
stages represents all users' documents in one batch, in the order a
user-by-user run would draw them, so the values are the same and the
batch's fixed cost is paid once per stage (``profiles.fold`` and
``rank.fold`` spans).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any

from repro.core.baselines import (
    chronological_ordering,
    random_ordering_expected_ap,
)
from repro.core.documents import DocumentFactory
from repro.core.recommender import RankingRecommender
from repro.core.sources import RepresentationSource
from repro.core.split import UserSplit, split_user, train_tweets
from repro.core.stages import (
    PROFILE_PROTOCOL_VERSION,
    ArtifactCache,
    FittedModel,
    PreparedCorpus,
    RankingOutcome,
    RepresentationMemo,
    UserProfiles,
    artifact_key,
    canonical_params,
    stage_checkpoint,
)
from repro.errors import ConfigurationError, DataGenerationError, ValidationError
from repro.eval.metrics import average_precision, map_over_users
from repro.eval.timing import Stopwatch
from repro.models.aggregation import AggregationFunction
from repro.models.base import Doc, ProfileState, RepresentationModel, TextDoc
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.twitter.dataset import MicroblogDataset
from repro.twitter.entities import Tweet

__all__ = ["EvaluationResult", "ExperimentPipeline"]


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of evaluating one (model, source, user set) combination."""

    model: str
    configuration: dict
    source: RepresentationSource
    per_user_ap: dict[int, float]
    training_seconds: float
    testing_seconds: float
    #: Per-phase wall-clock rollup (prepare/fit/profiles/rank seconds);
    #: TTime = fit + profiles, ETime = rank.
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def map_score(self) -> float:
        """Mean Average Precision over the evaluated users."""
        return map_over_users(self.per_user_ap)


@dataclass
class _PreprocessContext:
    """One user set's fitted preprocessing: factory plus its doc cache.

    Documents depend on the factory's stop words, which depend on the
    evaluated user set, so each user set owns its own cache -- a doc
    tokenized under one stop-word cut is never served to another.
    """

    factory: DocumentFactory
    doc_cache: dict[int, TextDoc] = field(default_factory=dict)


@dataclass
class _UserSlice:
    """One user's documents and representations from a stage's batch.

    The slice is positional, never looked up by document: a tweet that
    two users share is the same document object, and each user's copy
    keeps its own random fold-in. Called as a ``represent`` function, it
    hands out the values in order, and each call must pass the very
    document the batch represented at that position, so a consumer that
    skips, reorders or repeats documents raises instead of taking
    another document's representation. ``seconds`` is the user's share
    of the batch's seconds, by document count.
    """

    docs: list[Doc]
    values: list[Any]
    seconds: float
    used: int = 0

    def __call__(self, doc: Doc) -> Any:
        if self.used == len(self.docs) or doc is not self.docs[self.used]:
            raise ValidationError(
                f"document {self.used} is not the one the batch represented there"
            )
        self.used += 1
        return self.values[self.used - 1]

    def close(self) -> float:
        """The user's seconds, once every document has been taken."""
        if self.used != len(self.docs):
            raise ValidationError(
                f"{self.used} of the batch's {len(self.docs)} documents were taken"
            )
        return self.seconds


@dataclass
class ExperimentPipeline:
    """Shared evaluation machinery over one dataset.

    Splits, preprocessed documents and per-source prepared corpora are
    cached, so evaluating many (model, source) combinations over the
    same users re-tokenises nothing and re-assembles no corpus. Document
    representations and user profiles are kept for the current fit key
    only (see :meth:`_shared_for`).

    Parameters
    ----------
    dataset:
        The corpus under evaluation.
    test_fraction, negatives_per_positive, seed:
        Split protocol knobs (paper: 0.2 / 4).
    max_train_docs_per_user:
        Optional cap on per-user training documents (most recent kept).
        The paper has no cap; benchmarks use one to bound runtime, and
        report it.
    top_k_stop_words:
        Size of the corpus stop-word cut (paper: 100).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`. When set, every
        evaluation records a span tree (``evaluate`` > ``prepare`` /
        ``fit`` / ``profiles`` / ``rank``), doc-cache, corpus-cache and
        eligibility metrics, and per-iteration Gibbs progress events.
        When unset the same code path runs with plain stopwatches, so
        results are bit-identical either way.
    """

    dataset: MicroblogDataset
    test_fraction: float = 0.2
    negatives_per_positive: int = 4
    seed: int = 0
    max_train_docs_per_user: int | None = None
    top_k_stop_words: int = 100
    telemetry: Telemetry | None = None

    _splits: dict[int, UserSplit] = field(default_factory=dict, repr=False)
    _contexts: dict[tuple[int, ...], _PreprocessContext] = field(
        default_factory=dict, repr=False
    )
    _corpus_cache: ArtifactCache = field(
        default_factory=lambda: ArtifactCache("corpus_cache"), repr=False
    )
    _profile_cache: ArtifactCache = field(
        default_factory=lambda: ArtifactCache("profile_cache"), repr=False
    )
    _represent_memo: RepresentationMemo = field(
        default_factory=RepresentationMemo, repr=False
    )

    # -- splits and preprocessing ------------------------------------------

    def split_for(self, user_id: int) -> UserSplit:
        """The (cached) train/test split of one user."""
        if user_id not in self._splits:
            self._splits[user_id] = split_user(
                self.dataset,
                user_id,
                test_fraction=self.test_fraction,
                negatives_per_positive=self.negatives_per_positive,
                seed=self.seed,
            )
        return self._splits[user_id]

    def eligible_users(self, user_ids: Sequence[int]) -> list[int]:
        """The subset of ``user_ids`` with a valid train/test split."""
        eligible = []
        tel = self.telemetry
        for uid in user_ids:
            try:
                self.split_for(uid)
            except DataGenerationError:
                if tel is not None:
                    tel.count("users.ineligible")
                    tel.emit("user_skipped", user=uid, reason="no valid split")
                continue
            eligible.append(uid)
        return eligible

    def _context_for(self, users: tuple[int, ...]) -> _PreprocessContext:
        """The preprocessing context fitted for exactly this user set.

        The paper's stop-word cut uses "all training tweets"; we gather
        every tweet that falls in *some* evaluated user's training phase
        (her outgoing and incoming streams before her cutoff). Contexts
        are keyed on the user set, so evaluating a different set fits a
        fresh factory instead of silently reusing the first one.
        """
        context = self._contexts.get(users)
        if context is None:
            training: dict[int, Tweet] = {}
            for uid in users:
                cutoff = self.split_for(uid).cutoff
                for tweet in self.dataset.outgoing(uid) + self.dataset.incoming(uid):
                    if tweet.timestamp < cutoff:
                        training[tweet.tweet_id] = tweet
            if not training:
                raise DataGenerationError("no training tweets for any evaluated user")
            context = _PreprocessContext(
                factory=DocumentFactory(self.top_k_stop_words).fit(training.values())
            )
            self._contexts[users] = context
        return context

    def _factory_for(self, user_ids: Sequence[int]) -> DocumentFactory:
        """Document factory fitted on this user set's training tweets."""
        return self._context_for(tuple(user_ids)).factory

    def _doc(self, tweet: Tweet, context: _PreprocessContext) -> TextDoc:
        doc = context.doc_cache.get(tweet.tweet_id)
        tel = self.telemetry
        if doc is None:
            doc = context.factory.to_doc(tweet)
            context.doc_cache[tweet.tweet_id] = doc
            if tel is not None:
                tel.count("doc_cache.miss")
                tel.count("docs.tokenized")
        elif tel is not None:
            tel.count("doc_cache.hit")
        return doc

    def _train_tweets_for(
        self, user_id: int, source: RepresentationSource
    ) -> list[Tweet]:
        tweets = train_tweets(self.dataset, user_id, source, self.split_for(user_id))
        if self.max_train_docs_per_user is not None:
            tweets = tweets[-self.max_train_docs_per_user :]
        return tweets

    # -- the four evaluation stages ----------------------------------------

    def corpus_key(self, source: RepresentationSource, users: Sequence[int]) -> str:
        """Deterministic cache key of one source's prepared corpus."""
        return artifact_key(
            stage="prepare_corpus",
            seed=self.seed,
            test_fraction=self.test_fraction,
            negatives_per_positive=self.negatives_per_positive,
            max_train_docs_per_user=self.max_train_docs_per_user,
            top_k_stop_words=self.top_k_stop_words,
            source=source.value,
            users=list(users),
        )

    def prepare_corpus(
        self, source: RepresentationSource, users: Sequence[int]
    ) -> PreparedCorpus:
        """Stage 1: the source's training corpus over the user set.

        The artifact depends only on the split protocol, the source and
        the user set -- never on the model -- so it is cached and shared
        across every configuration of a sweep.
        """
        stage_checkpoint("prepare")
        users = tuple(users)
        key = self.corpus_key(source, users)

        def build() -> PreparedCorpus:
            context = self._context_for(users)
            per_user_tweets: dict[int, tuple[Tweet, ...]] = {
                uid: tuple(self._train_tweets_for(uid, source)) for uid in users
            }
            corpus_tweets: dict[int, Tweet] = {}
            corpus_authors: dict[int, str] = {}
            for tweets in per_user_tweets.values():
                for tweet in tweets:
                    corpus_tweets[tweet.tweet_id] = tweet
                    corpus_authors[tweet.tweet_id] = str(tweet.author_id)
            corpus_ids = sorted(corpus_tweets)
            return PreparedCorpus(
                key=key,
                source=source,
                users=users,
                per_user_tweets=per_user_tweets,
                corpus_ids=tuple(corpus_ids),
                corpus_docs=tuple(
                    self._doc(corpus_tweets[i], context) for i in corpus_ids
                ),
                author_ids=tuple(corpus_authors[i] for i in corpus_ids),
            )

        return self._corpus_cache.get_or_build(key, build, self.telemetry)

    def fit_model(
        self, model: RepresentationModel, corpus: PreparedCorpus
    ) -> FittedModel:
        """Stage 2: fit the representation model on the prepared corpus."""
        stage_checkpoint("fit")
        tel = self.telemetry if self.telemetry is not None else NULL_TELEMETRY
        recommender = RankingRecommender(model)
        self._install_iteration_hook(model, tel)
        try:
            recommender.fit(corpus.corpus_docs, user_ids=corpus.author_ids)
        finally:
            self._clear_iteration_hook(model)
        return FittedModel(
            key=artifact_key(
                stage="fit",
                corpus=corpus.key,
                model=model.name,
                params=model.fit_params(),
            ),
            recommender=recommender,
            corpus=corpus,
        )

    def profile_inputs(
        self, fitted: FittedModel, user_id: int
    ) -> tuple[list[TextDoc], list[int] | None, list[tuple[int, int]]]:
        """One user's profile-building inputs: docs, labels, fold keys.

        The fold keys are ``(timestamp, tweet_id)`` tuples -- the
        canonical incremental fold order pinned by
        :class:`~repro.models.base.ProfileState`. Shared between
        :meth:`build_profiles` and the streaming replay driver so both
        fold the exact same stream.
        """
        corpus = fitted.corpus
        aggregation = getattr(fitted.model, "aggregation", None)
        uses_rocchio = aggregation is AggregationFunction.ROCCHIO
        context = self._context_for(corpus.users)
        tweets = corpus.per_user_tweets[user_id]
        docs = [self._doc(t, context) for t in tweets]
        labels = (
            corpus.source.labels_for(self.dataset, user_id, list(tweets))
            if uses_rocchio
            else None
        )
        keys = [(t.timestamp, t.tweet_id) for t in tweets]
        return docs, labels, keys

    def _shared_for(self, fitted: FittedModel, share: bool) -> RepresentationMemo | None:
        """The representation memo bound to ``fitted``, or ``None`` when
        the evaluation does not ``share`` or its model's representations
        cannot be shared (random draws).

        Moving to another fit key drops the previous key's
        representations and profiles: a sweep runs each fit key's cells
        one after another (:class:`~repro.experiments.runner.SweepRunner`
        groups them), so nothing would reuse them later.
        """
        memo = self._represent_memo
        if fitted.key != memo.key:
            self._profile_cache.clear()
        model = fitted.model
        shared = share and model.pure_represent
        memo.bind(fitted.key, model if shared else None)
        return memo if shared else None

    def _represent_batch(
        self, model: RepresentationModel, per_user: list[list[TextDoc]], stage: str
    ) -> list[_UserSlice]:
        """Represent every user's documents (in order) in one batch.

        For a model whose representations draw from its RNG (the topic
        fold-ins), one call draws exactly what one call per user, in
        user order, would, so the values are the same and the batch's
        fixed cost is paid once. The batch is the ``<stage>.fold`` span,
        marked ``charged_to=<stage>``: its seconds are charged to the
        users' own ``<stage>`` segments, each user's share by document
        count.
        """
        tel = self.telemetry if self.telemetry is not None else NULL_TELEMETRY
        docs = [doc for user_docs in per_user for doc in user_docs]
        clock = Stopwatch()
        with tel.span(f"{stage}.fold", docs=len(docs), charged_to=stage), clock.measure():
            values = list(model.represent_many(docs))
        tel.count("fold.batches")
        tel.count("fold.docs", len(docs))
        slices = []
        for user_docs, stop in zip(per_user, accumulate(map(len, per_user))):
            slices.append(_UserSlice(
                docs=user_docs,
                values=values[stop - len(user_docs) : stop],
                seconds=clock.last * len(user_docs) / max(len(docs), 1),
            ))
        return slices

    @staticmethod
    def fit_group(source: str, model: RepresentationModel) -> tuple[str, str]:
        """``(source, canonical fit params)``: evaluations in one group
        share representations and profiles."""
        return source, canonical_params(model.fit_params())

    def profile_key(self, fitted: FittedModel) -> str:
        """Deterministic cache key of one fitted model's user profiles.

        Includes the fit key, every profile-affecting parameter
        (:meth:`~repro.models.base.RepresentationModel.profile_params`:
        aggregation, Rocchio weights, temporal decay) and the protocol
        version, so changing a decay or window parameter is a cache
        miss, never a stale hit. The similarity measure is not part of
        it: configurations that differ only there share profiles.
        """
        model = fitted.model
        params = (
            model.profile_params()
            if hasattr(model, "profile_params")
            else model.describe()
        )
        return artifact_key(
            stage="profiles",
            version=PROFILE_PROTOCOL_VERSION,
            fit=fitted.key,
            profile=params,
        )

    def build_profiles(
        self,
        fitted: FittedModel,
        stopwatch: Stopwatch | None = None,
        share: bool = False,
    ) -> UserProfiles:
        """Stage 3: one user model per evaluated user.

        Profiles fold through the model's incremental
        :class:`~repro.models.base.ProfileState` in pinned
        ``(timestamp, tweet_id)`` order; a temporal weighting attached
        to the model (``model.temporal``) is applied via
        :meth:`~repro.models.base.ProfileState.decayed`, anchored at
        each user's split cutoff. ``stopwatch`` (when given) measures
        each profile build individually, reproducing the per-user
        ``profiles`` spans of the trace tree.

        With ``share``, documents are represented through the shared
        memo (see :meth:`_shared_for`); a reused representation is
        charged to ``stopwatch`` at the seconds its first build took. A
        model without a pure ``represent`` (the topic family) represents
        every user's documents, in fold order, as one batch
        (:meth:`_represent_batch`); each user's state folds its slice,
        and each build is charged its share of the batch. A cache hit charges each user's
        recorded build seconds, so a reusing evaluation reports the
        TTime it would have paid alone.
        """
        stage_checkpoint("profiles")
        if stopwatch is None:
            stopwatch = Stopwatch()
        corpus = fitted.corpus
        model = fitted.model
        temporal = getattr(model, "temporal", None)
        if temporal is not None and temporal.is_identity:
            temporal = None
        memo = self._shared_for(fitted, share)
        key = self.profile_key(fitted)
        cached = self._profile_cache.peek(key, self.telemetry)
        if cached is not None:
            for uid in corpus.users:
                stopwatch.record(cached.build_seconds[uid])
            return cached

        inputs = [self.profile_inputs(fitted, uid) for uid in corpus.users]
        represent = memo.represent if memo is not None else None
        slices: list[_UserSlice | None] = [None] * len(inputs)
        if not model.pure_represent:
            slices[:] = self._represent_batch(
                model,
                [
                    [docs[i] for i in ProfileState.fold_order(keys)]
                    for docs, _, keys in inputs
                ],
                "profiles",
            )
        profiles: dict[int, object] = {}
        build_seconds: dict[int, float] = {}
        for uid, (docs, labels, keys), batch in zip(corpus.users, inputs, slices):
            with stopwatch.measure():
                state = model.init_profile(represent if batch is None else batch)
                state.update(docs, labels=labels, keys=keys)
                if temporal is None:
                    profiles[uid] = state.value()
                else:
                    reference = self.split_for(uid).cutoff
                    profiles[uid] = state.decayed(temporal.weight_fn(reference))
                if memo is not None:
                    stopwatch.charge(memo.take_charged())
                if batch is not None:
                    stopwatch.charge(batch.close())
            build_seconds[uid] = stopwatch.last
        if memo is not None:
            memo.flush(self.telemetry)
        params = (
            model.profile_params()
            if hasattr(model, "profile_params")
            else model.describe()
        )
        return self._profile_cache.store(
            key,
            UserProfiles(
                key=key,
                profiles=profiles,
                params=params,
                version=PROFILE_PROTOCOL_VERSION,
                build_seconds=build_seconds,
            ),
        )

    def rank_users(
        self,
        fitted: FittedModel,
        profiles: UserProfiles,
        stopwatch: Stopwatch | None = None,
        share: bool = False,
    ) -> RankingOutcome:
        """Stage 4: rank every user's test set and compute her AP.

        With ``share``, candidates are represented through the shared
        memo, and a reused representation is charged to ``stopwatch`` at
        the seconds its first build took. A model without a pure
        ``represent`` represents every user's candidates as one batch,
        as :meth:`build_profiles` does.
        """
        stage_checkpoint("rank")
        if stopwatch is None:
            stopwatch = Stopwatch()
        memo = self._shared_for(fitted, share)
        represent = memo.represent if memo is not None else None
        context = self._context_for(fitted.corpus.users)
        candidates = [list(self.split_for(uid).test_set) for uid in fitted.corpus.users]
        docs = [[self._doc(t, context) for t in tweets] for tweets in candidates]
        slices: list[_UserSlice | None] = [None] * len(docs)
        if not fitted.model.pure_represent:
            slices[:] = self._represent_batch(fitted.model, docs, "rank")
        per_user_ap: dict[int, float] = {}
        for index, (uid, batch) in enumerate(zip(fitted.corpus.users, slices)):
            relevant = self.split_for(uid).relevant_ids
            with stopwatch.measure():
                ranking = fitted.recommender.rank(
                    profiles.profiles[uid],
                    docs[index],
                    represent=represent if batch is None else batch,
                )
                if memo is not None:
                    stopwatch.charge(memo.take_charged())
                if batch is not None:
                    stopwatch.charge(batch.close())
            flags = [
                candidates[index][item.position].tweet_id in relevant for item in ranking
            ]
            per_user_ap[uid] = average_precision(flags)
        if memo is not None:
            memo.flush(self.telemetry)
        return RankingOutcome(
            key=artifact_key(stage="rank", profiles=profiles.key),
            per_user_ap=per_user_ap,
        )

    # -- model evaluation ------------------------------------------------------

    def evaluate(
        self,
        model: RepresentationModel,
        source: RepresentationSource,
        user_ids: Sequence[int],
        share: bool = False,
    ) -> EvaluationResult:
        """Evaluate one model on one source over the given users.

        ``share`` keeps the document representations for evaluations
        with the same fit key that follow (a sweep sets it when another
        of its cells has that fit key). Without it, documents are
        represented as if nothing were shared, and none are kept.
        """
        aggregation = getattr(model, "aggregation", None)
        uses_rocchio = aggregation is AggregationFunction.ROCCHIO
        if uses_rocchio and not source.has_negative_examples:
            raise ConfigurationError(
                f"Rocchio needs negative examples; source {source} has none"
            )

        tel = self.telemetry if self.telemetry is not None else NULL_TELEMETRY
        with tel.span("evaluate", model=model.name, source=source.value):
            users = self.eligible_users(user_ids)
            if not users:
                raise DataGenerationError("no eligible users to evaluate")
            prepare_time = tel.stopwatch("prepare")
            fit_time = tel.stopwatch("fit")
            profile_time = tel.stopwatch("profiles")
            rank_time = tel.stopwatch("rank")

            with prepare_time.measure():
                prepared = self.prepare_corpus(source, users)
            with fit_time.measure():
                fitted = self.fit_model(model, prepared)
            user_profiles = self.build_profiles(fitted, profile_time, share)
            ranked = self.rank_users(fitted, user_profiles, rank_time, share)

            result = EvaluationResult(
                model=model.name,
                configuration=model.describe(),
                source=source,
                per_user_ap=dict(ranked.per_user_ap),
                training_seconds=fit_time.elapsed + profile_time.elapsed,
                testing_seconds=rank_time.elapsed,
                phase_seconds={
                    "prepare": prepare_time.elapsed,
                    "fit": fit_time.elapsed,
                    "profiles": profile_time.elapsed,
                    "rank": rank_time.elapsed,
                },
            )
            tel.emit(
                "evaluate_done",
                model=model.name,
                source=source.value,
                users=len(users),
                map=result.map_score,
                training_seconds=result.training_seconds,
                testing_seconds=result.testing_seconds,
            )
            return result

    @staticmethod
    def _install_iteration_hook(model: RepresentationModel, tel: Telemetry) -> None:
        """Stream a topic model's per-iteration Gibbs/EM progress."""
        if not tel.enabled or not hasattr(model, "set_iteration_hook"):
            return

        def hook(progress) -> None:
            tel.count("gibbs.iterations")
            if progress.steps is not None:
                tel.count("gibbs.steps", progress.steps)
            if progress.log_likelihood is not None:
                tel.gauge("gibbs.log_likelihood", progress.log_likelihood)
            if progress.rss_bytes is not None:
                # A histogram, not a gauge: its max survives the
                # worker-merge path, so --jobs runs report true peaks.
                tel.observe("gibbs.rss_bytes", progress.rss_bytes)
            tel.emit(
                "gibbs_iteration",
                model=progress.model,
                iteration=progress.iteration,
                total=progress.total,
                log_likelihood=progress.log_likelihood,
                rss_bytes=progress.rss_bytes,
            )

        model.set_iteration_hook(hook)

    @staticmethod
    def _clear_iteration_hook(model: RepresentationModel) -> None:
        if hasattr(model, "set_iteration_hook"):
            model.set_iteration_hook(None)

    # -- baselines ----------------------------------------------------------------

    def evaluate_chronological(self, user_ids: Sequence[int]) -> dict[int, float]:
        """CHR baseline: AP per user when ranking by recency."""
        result: dict[int, float] = {}
        for uid in self.eligible_users(user_ids):
            split = self.split_for(uid)
            candidates = list(split.test_set)
            order = chronological_ordering(candidates)
            relevant = split.relevant_ids
            flags = [candidates[i].tweet_id in relevant for i in order]
            result[uid] = average_precision(flags)
        return result

    def evaluate_random(
        self, user_ids: Sequence[int], iterations: int = 1000
    ) -> dict[int, float]:
        """RAN baseline: expected AP per user over random permutations."""
        result: dict[int, float] = {}
        for uid in self.eligible_users(user_ids):
            split = self.split_for(uid)
            candidates = list(split.test_set)
            relevant = split.relevant_ids
            flags = [t.tweet_id in relevant for t in candidates]
            result[uid] = random_ordering_expected_ap(
                flags, iterations=iterations, seed=self.seed
            )
        return result
