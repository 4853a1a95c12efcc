"""Tests for the ranking recommender."""

from __future__ import annotations

import copy

import pytest

from repro.core.recommender import RankingRecommender
from repro.models.bag import CharacterNGramModel, TokenNGramModel
from repro.models.base import TextDoc
from repro.models.topic import (
    BitermTopicModel,
    HdpModel,
    HldaModel,
    LabeledLdaModel,
    LdaModel,
)
from repro.models.topic.base import dense_cosine
from tests.models.test_similarity import reference_cosine, reference_jaccard


def doc(text: str) -> TextDoc:
    return TextDoc.from_tokens(tuple(text.split()))


class TestRankingRecommender:
    def test_ranks_by_descending_score(self, tiny_corpus):
        rec = RankingRecommender(TokenNGramModel(n=1, weighting="TF")).fit(tiny_corpus)
        um = rec.build_profile([doc("cats dogs pets"), doc("cat mat")])
        candidates = [doc("stock ticker"), doc("cats and dogs"), doc("market today")]
        ranking = rec.rank(um, candidates)
        assert ranking[0].position == 1  # the pets doc wins
        scores = [item.score for item in ranking]
        assert scores == sorted(scores, reverse=True)

    def test_ties_broken_by_input_position(self, tiny_corpus):
        rec = RankingRecommender(TokenNGramModel(n=1, weighting="TF")).fit(tiny_corpus)
        um = rec.build_profile([doc("cats")])
        # Both candidates score zero; input order must be preserved.
        ranking = rec.rank(um, [doc("alpha"), doc("beta")])
        assert [item.position for item in ranking] == [0, 1]

    def test_every_candidate_ranked_once(self, tiny_corpus):
        rec = RankingRecommender(TokenNGramModel(n=1, weighting="TF")).fit(tiny_corpus)
        um = rec.build_profile(tiny_corpus[:2])
        ranking = rec.rank(um, tiny_corpus)
        assert sorted(item.position for item in ranking) == list(range(len(tiny_corpus)))

    def test_fit_returns_self(self, tiny_corpus):
        rec = RankingRecommender(TokenNGramModel(n=1, weighting="TF"))
        assert rec.fit(tiny_corpus) is rec

    def test_labels_forwarded_to_model(self, tiny_corpus):
        model = TokenNGramModel(n=1, weighting="TF", aggregation="rocchio")
        rec = RankingRecommender(model).fit(tiny_corpus)
        um = rec.build_profile([doc("good stuff"), doc("bad stuff")], labels=[1, 0])
        assert um["good"] > 0 > um["bad"]


TOPIC = dict(pooling="NP", iterations=8, infer_iterations=5, seed=1)


class TestRankMatchesReference:
    """``rank`` scores a prepared profile and represents the candidates as
    one batch; the reference walks the whole profile and represents each
    candidate on its own, from the same RNG state."""

    @pytest.mark.parametrize("model,reference", [
        (TokenNGramModel(n=1, weighting="TF", similarity="CS"), reference_cosine),
        (TokenNGramModel(n=2, weighting="BF", aggregation="sum", similarity="JS"),
         reference_jaccard),
        (CharacterNGramModel(n=3, weighting="TF", similarity="CS"), reference_cosine),
        (CharacterNGramModel(n=4, weighting="BF", aggregation="sum", similarity="JS"),
         reference_jaccard),
        (LdaModel(n_topics=8, **TOPIC), dense_cosine),
        (LabeledLdaModel(n_latent_topics=6, **TOPIC), dense_cosine),
        (HdpModel(**TOPIC), dense_cosine),
        (HldaModel(**TOPIC), dense_cosine),
        (BitermTopicModel(n_topics=8, **TOPIC), dense_cosine),
    ], ids=repr)
    def test_same_order_and_scores(self, model, reference, small_dataset):
        from repro.core.documents import DocumentFactory

        tweets = small_dataset.tweets[:400]
        factory = DocumentFactory(20).fit(tweets)
        docs = factory.to_docs(tweets)
        rec = RankingRecommender(model).fit(docs)
        profile = rec.build_profile(docs[:60])
        candidates = docs[60:]
        twin = copy.deepcopy(model)  # same fit and RNG position
        expected = sorted(
            ((-reference(profile, twin.represent(d)), i) for i, d in enumerate(candidates)),
        )
        ranking = rec.rank(profile, candidates)
        assert [(item.position, item.score) for item in ranking] == [
            (i, -neg) for neg, i in expected
        ]
        assert any(item.score > 0.0 for item in ranking)
