"""Tests for the followee/hashtag recommendation extensions."""

from __future__ import annotations

import pytest

from repro.core.extensions import FolloweeRecommender, HashtagRecommender
from repro.errors import EmptyCorpusError
from repro.models.bag import TokenNGramModel


def make_model() -> TokenNGramModel:
    return TokenNGramModel(n=1, weighting="TF")


class TestFolloweeRecommender:
    @pytest.fixture(scope="class")
    def recommender(self, small_dataset) -> FolloweeRecommender:
        return FolloweeRecommender(
            small_dataset, make_model(), min_candidate_tweets=3
        ).fit()

    def _profiled_user(self, recommender):
        return next(iter(recommender._profiles))

    def test_excludes_self_and_existing_followees(self, small_dataset, recommender):
        uid = self._profiled_user(recommender)
        suggestions = recommender.recommend(uid, k=50)
        suggested = {c.candidate for c in suggestions}
        assert uid not in suggested
        assert not suggested & small_dataset.graph.followees(uid)

    def test_scores_descending(self, recommender):
        uid = self._profiled_user(recommender)
        scores = [c.score for c in recommender.recommend(uid, k=10)]
        assert scores == sorted(scores, reverse=True)

    def test_k_limits_results(self, recommender):
        uid = self._profiled_user(recommender)
        assert len(recommender.recommend(uid, k=2)) <= 2

    def test_similar_interest_user_ranked_above_dissimilar(
        self, small_dataset, recommender
    ):
        import numpy as np
        uid = self._profiled_user(recommender)
        suggestions = recommender.recommend(uid, k=len(small_dataset.users))
        if len(suggestions) < 3:
            pytest.skip("too few candidates")
        me = small_dataset.user(uid).interests
        def ground_truth(c):
            other = small_dataset.user(c.candidate).interests
            return float(np.dot(me, other) / (np.linalg.norm(me) * np.linalg.norm(other)))
        top = sum(ground_truth(c) for c in suggestions[:3]) / 3
        bottom = sum(ground_truth(c) for c in suggestions[-3:]) / 3
        assert top >= bottom - 0.1  # content similarity tracks interest similarity

    def test_unprofiled_user_raises(self, small_dataset, recommender):
        quiet = [
            u.user_id for u in small_dataset.users
            if len(small_dataset.outgoing(u.user_id)) < 3
        ]
        if not quiet:
            pytest.skip("everyone is active enough")
        with pytest.raises(EmptyCorpusError):
            recommender.recommend(quiet[0])

    def test_scores_equal_unprepared_profile_scores(self, small_dataset, recommender):
        uid = self._profiled_user(recommender)
        model, profiles = recommender.model, recommender._profiles
        for suggestion in recommender.recommend(uid, k=len(profiles)):
            raw = model.score(profiles[uid], profiles[suggestion.candidate])
            assert suggestion.score == raw

    def test_impossible_threshold_raises(self, small_dataset):
        rec = FolloweeRecommender(
            small_dataset, make_model(), min_candidate_tweets=10**9
        )
        with pytest.raises(EmptyCorpusError):
            rec.fit()

    def test_recommend_autofits(self, small_dataset):
        rec = FolloweeRecommender(small_dataset, make_model(), min_candidate_tweets=3)
        uid = max(
            (u.user_id for u in small_dataset.users),
            key=lambda u: len(small_dataset.outgoing(u)),
        )
        assert rec.recommend(uid, k=1)  # no explicit fit() needed


class TestHashtagRecommender:
    @pytest.fixture(scope="class")
    def recommender(self, small_dataset) -> HashtagRecommender:
        return HashtagRecommender(small_dataset, make_model(), min_tag_count=2).fit()

    def test_known_tags_are_hashtags(self, recommender):
        assert recommender.known_tags
        assert all(tag.startswith("#") for tag in recommender.known_tags)

    def test_text_recommendation_returns_scored_tags(self, recommender):
        suggestions = recommender.recommend_for_text("anything at all", k=3)
        assert len(suggestions) <= 3
        assert all(c.candidate in recommender.known_tags for c in suggestions)
        scores = [c.score for c in suggestions]
        assert scores == sorted(scores, reverse=True)

    def test_tag_text_retrieves_own_tag(self, small_dataset, recommender):
        # A tweet that actually carries a tag should rank that tag highly.
        tag = recommender.known_tags[0]
        carriers = [
            t for t in small_dataset.tweets
            if not t.is_retweet and tag in t.text.lower().split()
        ]
        suggestions = recommender.recommend_for_text(carriers[0].text, k=3)
        assert tag in {c.candidate for c in suggestions}

    def test_user_recommendation(self, small_dataset, recommender):
        uid = max(
            (u.user_id for u in small_dataset.users),
            key=lambda u: len(small_dataset.outgoing(u)),
        )
        suggestions = recommender.recommend_for_user(uid, k=4)
        assert suggestions
        assert all(c.candidate in recommender.known_tags for c in suggestions)

    def test_user_scores_equal_unprepared_profile_scores(self, small_dataset, recommender):
        uid = max(
            (u.user_id for u in small_dataset.users),
            key=lambda u: len(small_dataset.outgoing(u)),
        )
        model = recommender.model
        user_model = model.build_user_model(
            recommender._factory.to_docs(small_dataset.outgoing(uid))
        )
        for suggestion in recommender.recommend_for_user(uid, k=len(recommender.known_tags)):
            raw = model.score(user_model, recommender._profiles[suggestion.candidate])
            assert suggestion.score == raw

    def test_user_without_tweets_raises(self, small_dataset, recommender):
        quiet = [
            u.user_id for u in small_dataset.users
            if not small_dataset.outgoing(u.user_id)
        ]
        if not quiet:
            pytest.skip("everyone tweeted")
        with pytest.raises(EmptyCorpusError):
            recommender.recommend_for_user(quiet[0])

    def test_impossible_threshold_raises(self, small_dataset):
        rec = HashtagRecommender(small_dataset, make_model(), min_tag_count=10**9)
        with pytest.raises(EmptyCorpusError):
            rec.fit()
