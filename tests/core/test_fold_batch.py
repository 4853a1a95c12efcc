"""Topic-model documents are represented in one batch per stage.

For a model whose ``represent`` draws from its RNG (the topic family),
:class:`~repro.core.pipeline.ExperimentPipeline` represents every
user's training documents with one ``represent_many`` call, then every
user's candidates with another. The contracts:

* profiles, rankings and the model's final RNG state equal, exactly,
  those of the per-user path (one state, and one ``represent_many``
  call per user and stage), with deterministic inference on and off,
  under Rocchio, and when two users share a document: slices are
  positional, so each user's copy keeps its own fold-in;
* the batch's seconds are charged once: per-user ``build_seconds`` sum
  to the profiles stopwatch, a profile-cache hit charges the same
  TTime, and ETime holds the rank batch exactly once;
* a consumer that reorders, skips or adds documents raises rather than
  take another document's representation;
* each batch is a ``profiles.fold`` / ``rank.fold`` span and counts
  ``fold.batches`` and ``fold.docs``.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np
import pytest

from repro.core.pipeline import ExperimentPipeline
from repro.core.recommender import RankingRecommender
from repro.core.sources import RepresentationSource
from repro.errors import ValidationError
from repro.models.topic.base import TopicModel, TopicProfileState
from repro.models.topic.btm import BitermTopicModel
from repro.models.topic.hdp import HdpModel
from repro.models.topic.hlda import HldaModel
from repro.models.topic.lda import LdaModel
from repro.models.topic.llda import LabeledLdaModel
from repro.obs.telemetry import Telemetry
from repro.twitter.entities import UserType

from tests.experiments.test_shared_stages import _FakeClock

R = RepresentationSource.R
E = RepresentationSource.E
COMMON = dict(iterations=4, infer_iterations=3, seed=5)
MODELS = {
    "LDA": lambda **kw: LdaModel(n_topics=6, **COMMON, **kw),
    "LLDA": lambda **kw: LabeledLdaModel(n_latent_topics=4, **COMMON, **kw),
    "BTM": lambda **kw: BitermTopicModel(n_topics=6, max_biterms=2000, **COMMON, **kw),
    "HDP": lambda **kw: HdpModel(initial_topics=5, **COMMON, **kw),
    "HLDA": lambda **kw: HldaModel(levels=3, **COMMON, **kw),
}


def _pipeline(dataset) -> ExperimentPipeline:
    return ExperimentPipeline(dataset, seed=1, max_train_docs_per_user=40)


@pytest.fixture(scope="module")
def users(small_dataset, small_groups):
    return _pipeline(small_dataset).eligible_users(small_groups[UserType.ALL])


def _batched(pipeline, model, source, users, monkeypatch):
    """Profiles, each user's ranking and the RNG state, batch path."""
    rankings = []
    rank = RankingRecommender.rank

    def recorded(self, user_model, candidates, represent=None):
        ranking = rank(self, user_model, candidates, represent=represent)
        rankings.append([(item.position, item.score) for item in ranking])
        return ranking

    fitted = pipeline.fit_model(model, pipeline.prepare_corpus(source, users))
    profiles = pipeline.build_profiles(fitted)
    with monkeypatch.context() as patch:
        patch.setattr(RankingRecommender, "rank", recorded)
        pipeline.rank_users(fitted, profiles)
    rankings_by_user = dict(zip(fitted.corpus.users, rankings))
    return profiles.profiles, rankings_by_user, model._rng.bit_generator.state


def _per_user(pipeline, model, source, users):
    """The same, folding and ranking one user at a time."""
    fitted = pipeline.fit_model(model, pipeline.prepare_corpus(source, users))
    profiles = {}
    for uid in fitted.corpus.users:
        docs, labels, keys = pipeline.profile_inputs(fitted, uid)
        profiles[uid] = model.init_profile().update(docs, labels=labels, keys=keys).value()
    context = pipeline._context_for(fitted.corpus.users)
    rankings = {}
    for uid in fitted.corpus.users:
        docs = [pipeline._doc(t, context) for t in pipeline.split_for(uid).test_set]
        ranking = fitted.recommender.rank(profiles[uid], docs)
        rankings[uid] = [(item.position, item.score) for item in ranking]
    return profiles, rankings, model._rng.bit_generator.state


class TestBatchEqualsPerUser:
    @pytest.mark.parametrize("deterministic", [False, True], ids=["stochastic", "deterministic"])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_profiles_rankings_and_rng_state(
        self, small_dataset, users, monkeypatch, name, deterministic
    ):
        models = []
        for _ in range(2):
            model = MODELS[name]()
            model.deterministic_inference = deterministic
            models.append(model)
        batched = _batched(_pipeline(small_dataset), models[0], R, users, monkeypatch)
        per_user = _per_user(_pipeline(small_dataset), models[1], R, users)
        assert batched[0].keys() == per_user[0].keys()
        for uid in batched[0]:
            assert np.array_equal(batched[0][uid], per_user[0][uid]), uid
        assert batched[1] == per_user[1]
        assert batched[2] == per_user[2]

    def test_rocchio_on_a_source_whose_users_share_training_tweets(
        self, small_dataset, users, monkeypatch
    ):
        pipeline = _pipeline(small_dataset)
        corpus = pipeline.prepare_corpus(E, users)
        shared = Counter(t.tweet_id for u in users for t in set(corpus.per_user_tweets[u]))
        assert any(count > 1 for count in shared.values())
        batched = _batched(pipeline, MODELS["LDA"](aggregation="rocchio"), E, users, monkeypatch)
        per_user = _per_user(
            _pipeline(small_dataset), MODELS["LDA"](aggregation="rocchio"), E, users
        )
        for uid in batched[0]:
            assert np.array_equal(batched[0][uid], per_user[0][uid]), uid
        assert batched[1:] == per_user[1:]

    def test_the_batch_follows_fold_order(self, small_dataset, users, monkeypatch):
        # Each user's tweets come in key order; reversed, the batch must
        # still draw in the order the states fold: by key.
        inputs = ExperimentPipeline.profile_inputs

        def reversed_inputs(self, fitted, uid):
            docs, labels, keys = inputs(self, fitted, uid)
            return docs[::-1], labels and labels[::-1], keys[::-1]

        monkeypatch.setattr(ExperimentPipeline, "profile_inputs", reversed_inputs)
        batched = _batched(_pipeline(small_dataset), MODELS["LDA"](), R, users, monkeypatch)
        monkeypatch.undo()
        per_user = _per_user(_pipeline(small_dataset), MODELS["LDA"](), R, users)
        for uid in batched[0]:
            assert np.array_equal(batched[0][uid], per_user[0][uid]), uid
        assert batched[1:] == per_user[1:]

    def test_users_share_candidate_documents(self, small_dataset, users):
        # The equality above covers shared candidates only if some exist:
        # the same tweet in two users' test sets is one document object.
        pipeline = _pipeline(small_dataset)
        context = pipeline._context_for(tuple(users))
        holders = Counter(
            id(pipeline._doc(t, context))
            for uid in users
            for t in set(pipeline.split_for(uid).test_set)
        )
        assert sum(1 for count in holders.values() if count > 1) >= 10


class TestSliceOrder:
    def _evaluate(self, dataset, users):
        return _pipeline(dataset).evaluate(MODELS["LDA"](), R, users)

    def test_a_ranking_that_reorders_candidates_raises(
        self, small_dataset, users, monkeypatch
    ):
        rank = RankingRecommender.rank

        def reordered(self, user_model, candidates, represent=None):
            return rank(self, user_model, candidates[::-1], represent=represent)

        monkeypatch.setattr(RankingRecommender, "rank", reordered)
        with pytest.raises(ValidationError, match="not the one the batch represented"):
            self._evaluate(small_dataset, users)

    def test_a_profile_that_skips_a_document_raises(
        self, small_dataset, users, monkeypatch
    ):
        fold_many = TopicProfileState._fold_many

        def skipping(self, entries):
            fold_many(self, entries[:-1])

        monkeypatch.setattr(TopicProfileState, "_fold_many", skipping)
        with pytest.raises(ValidationError, match="documents were taken"):
            self._evaluate(small_dataset, users)

    def test_a_ranking_with_an_extra_candidate_raises(
        self, small_dataset, users, monkeypatch
    ):
        rank = RankingRecommender.rank

        def extra(self, user_model, candidates, represent=None):
            return rank(self, user_model, [*candidates, candidates[0]], represent=represent)

        monkeypatch.setattr(RankingRecommender, "rank", extra)
        with pytest.raises(ValidationError, match="not the one the batch represented"):
            self._evaluate(small_dataset, users)


@pytest.fixture()
def clock(monkeypatch):
    """A ``perf_counter`` that advances a quarter second per document a
    topic model represents, and at no other time."""
    fake = _FakeClock()
    monkeypatch.setattr(time, "perf_counter", fake)
    represent_many = TopicModel.represent_many

    def timed(self, docs):
        fake.now += 0.25 * len(docs)
        return represent_many(self, docs)

    monkeypatch.setattr(TopicModel, "represent_many", timed)
    return fake


class TestTimeAccounting:
    def _evaluate_twice(self, dataset, users, telemetry=None):
        pipeline = _pipeline(dataset)
        pipeline.telemetry = telemetry
        first = pipeline.evaluate(MODELS["LDA"](), R, users, share=True)
        (artifact,) = pipeline._profile_cache._store.values()
        # Same fit key: the second evaluation's profiles are a cache hit.
        again = pipeline.evaluate(MODELS["LDA"](), R, users, share=True)
        corpus = pipeline.prepare_corpus(R, users)
        docs = sum(len(corpus.per_user_tweets[uid]) for uid in users)
        candidates = sum(len(pipeline.split_for(uid).test_set) for uid in users)
        return first, again, artifact, docs, candidates

    def test_build_seconds_sum_to_the_profiles_stopwatch(self, small_dataset, users, clock):
        first, _, artifact, docs, _ = self._evaluate_twice(small_dataset, users)
        recorded = 0.0
        for uid in users:
            recorded += artifact.build_seconds[uid]
        assert first.phase_seconds["profiles"] == recorded == 0.25 * docs

    def test_a_profile_cache_hit_charges_the_same_ttime(self, small_dataset, users, clock):
        first, again, _, _, _ = self._evaluate_twice(small_dataset, users)
        assert again.phase_seconds["profiles"] == first.phase_seconds["profiles"]
        assert again.training_seconds == first.training_seconds

    def test_etime_holds_the_rank_batch_once(self, small_dataset, users, clock):
        first, again, _, _, candidates = self._evaluate_twice(small_dataset, users)
        assert first.testing_seconds == again.testing_seconds == 0.25 * candidates

    def test_spans_and_counters(self, small_dataset, users, clock):
        telemetry = Telemetry()
        first, again, _, docs, candidates = self._evaluate_twice(
            small_dataset, users, telemetry
        )
        tracer = telemetry.tracer
        assert tracer.total("profiles") == (
            first.phase_seconds["profiles"] + again.phase_seconds["profiles"]
        )
        assert tracer.total("rank") == first.testing_seconds + again.testing_seconds
        (evaluate, _) = tracer.roots
        folds = {s.name: s for s in evaluate.children if s.name.endswith(".fold")}
        assert folds["profiles.fold"].attributes == {"docs": docs, "charged_to": "profiles"}
        assert folds["profiles.fold"].duration == 0.25 * docs
        assert folds["rank.fold"].attributes == {"docs": candidates, "charged_to": "rank"}
        assert folds["rank.fold"].duration == 0.25 * candidates
        # The cache hit folds no profiles: three batches in all.
        assert telemetry.metrics.counter("fold.batches").value == 3
        assert telemetry.metrics.counter("fold.docs").value == docs + 2 * candidates
