"""Tests for Labeled LDA."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.base import TextDoc
from repro.models.topic.llda import LabeledLdaModel


def docs_from(texts: list[str]) -> list[TextDoc]:
    return [TextDoc.from_tokens(tuple(t.split())) for t in texts]


#: #news tweets about politics, #fun tweets about games; the hashtags
#: occur often enough to become labels (min_hashtag_count below).
LABELED = docs_from(
    ["#news vote election law #news" for _ in range(6)]
    + ["#fun game play win #fun" for _ in range(6)]
)


class TestLabeledLda:
    @pytest.fixture(scope="class")
    def fitted(self) -> LabeledLdaModel:
        from repro.models.topic.labels import LabelExtractor
        model = LabeledLdaModel(
            n_latent_topics=2,
            iterations=40,
            infer_iterations=10,
            seed=0,
            pooling="NP",
            label_extractor=LabelExtractor(min_hashtag_count=3),
        )
        return model.fit(LABELED)

    def test_invalid_latent_topics(self):
        with pytest.raises(ConfigurationError):
            LabeledLdaModel(n_latent_topics=0)

    @pytest.mark.parametrize(
        "priors", [dict(alpha=0.0), dict(beta=0.0), dict(alpha=-1.0), dict(beta=-0.5)]
    )
    def test_non_positive_priors_rejected(self, priors):
        with pytest.raises(ConfigurationError):
            LabeledLdaModel(n_latent_topics=2, **priors)

    def test_topic_inventory_is_latent_plus_labels(self, fitted):
        names = fitted.topic_names
        assert "Topic 1" in names and "Topic 2" in names
        assert "#news" in names and "#fun" in names

    def test_alpha_derived_from_total_topics(self, fitted):
        assert fitted.alpha == pytest.approx(50.0 / fitted.n_topics)

    def test_phi_rows_are_distributions(self, fitted):
        assert np.allclose(fitted.phi.sum(axis=1), 1.0)

    def test_label_topic_matches_its_words(self, fitted):
        vocab = fitted.vocabulary
        names = list(fitted.topic_names)
        news_topic = names.index("#news")
        fun_topic = names.index("#fun")
        vote = fitted.phi[:, vocab.id_of("vote")]
        game = fitted.phi[:, vocab.id_of("game")]
        # "vote" should be likelier under #news than under #fun, and
        # vice versa for "game".
        assert vote[news_topic] > vote[fun_topic]
        assert game[fun_topic] > game[news_topic]

    def test_inference_separates_themes(self, fitted):
        news = fitted.represent(docs_from(["vote election law"])[0])
        fun = fitted.represent(docs_from(["game play win"])[0])
        assert fitted.score(news, fun) < fitted.score(news, news)

    def test_theta_is_distribution(self, fitted):
        theta = fitted.represent(docs_from(["vote game"])[0])
        assert np.isclose(theta.sum(), 1.0)
        assert theta.shape == (fitted.n_topics,)

    def test_describe(self, fitted):
        info = fitted.describe()
        assert info["model"] == "LLDA"
        assert info["n_latent_topics"] == 2
