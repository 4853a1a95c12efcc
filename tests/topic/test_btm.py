"""Tests for the Biterm Topic Model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.base import TextDoc
from repro.models.topic.btm import BitermTopicModel, extract_biterms


def docs_from(texts: list[str]) -> list[TextDoc]:
    return [TextDoc.from_tokens(tuple(t.split())) for t in texts]


THEMED = docs_from([
    "rain cloud storm rain",
    "storm cloud rain wind",
    "wind rain storm cloud",
    "pasta sauce cheese pasta",
    "cheese sauce pasta basil",
    "basil pasta cheese sauce",
] * 2)


class TestExtractBiterms:
    def test_whole_document_window(self):
        biterms = list(extract_biterms([0, 1, 2], window=None))
        assert biterms == [(0, 1), (0, 2), (1, 2)]

    def test_biterms_are_unordered(self):
        assert list(extract_biterms([2, 1], window=None)) == [(1, 2)]

    def test_window_limits_distance(self):
        biterms = set(extract_biterms([0, 1, 2, 3], window=1))
        assert biterms == {(0, 1), (1, 2), (2, 3)}

    def test_single_word_no_biterms(self):
        assert list(extract_biterms([5], window=None)) == []

    def test_repeated_words_make_self_biterms(self):
        assert list(extract_biterms([3, 3], window=None)) == [(3, 3)]


class TestBtmConfiguration:
    def test_invalid_topics(self):
        with pytest.raises(ConfigurationError):
            BitermTopicModel(n_topics=0)

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            BitermTopicModel(n_topics=2, window=0)

    def test_invalid_max_biterms(self):
        with pytest.raises(ConfigurationError):
            BitermTopicModel(n_topics=2, max_biterms=0)

    @pytest.mark.parametrize(
        "priors", [dict(alpha=0.0), dict(beta=0.0), dict(alpha=-1.0), dict(beta=-0.5)]
    )
    def test_non_positive_priors_rejected(self, priors):
        with pytest.raises(ConfigurationError):
            BitermTopicModel(n_topics=2, **priors)

    def test_default_alpha(self):
        assert BitermTopicModel(n_topics=50).alpha == pytest.approx(1.0)


class TestBtmTraining:
    @pytest.fixture(scope="class")
    def fitted(self) -> BitermTopicModel:
        return BitermTopicModel(
            n_topics=2, iterations=50, seed=0, pooling="NP"
        ).fit(THEMED)

    def test_phi_rows_are_distributions(self, fitted):
        assert np.allclose(fitted.phi.sum(axis=1), 1.0)

    def test_corpus_theta_is_distribution(self, fitted):
        assert np.isclose(fitted.corpus_theta.sum(), 1.0)

    def test_topics_separate_themes(self, fitted):
        vocab = fitted.vocabulary
        rain = fitted.phi[:, vocab.id_of("rain")]
        pasta = fitted.phi[:, vocab.id_of("pasta")]
        assert int(np.argmax(rain)) != int(np.argmax(pasta))

    def test_inference_uses_biterm_formula(self, fitted):
        theta = fitted.represent(docs_from(["rain storm cloud"])[0])
        assert np.isclose(theta.sum(), 1.0)
        weather = fitted.represent(docs_from(["storm wind"])[0])
        food = fitted.represent(docs_from(["pasta cheese"])[0])
        assert fitted.score(theta, weather) > fitted.score(theta, food)

    def test_single_word_doc_falls_back_to_word_evidence(self, fitted):
        theta = fitted.represent(docs_from(["rain"])[0])
        assert np.isclose(theta.sum(), 1.0)
        weather = fitted.represent(docs_from(["storm wind"])[0])
        food = fitted.represent(docs_from(["pasta cheese"])[0])
        assert fitted.score(theta, weather) > fitted.score(theta, food)

    def test_empty_doc_uniform(self, fitted):
        assert np.allclose(fitted.represent(TextDoc.from_tokens(())), 0.5)

    def test_max_biterms_subsampling_still_learns(self):
        model = BitermTopicModel(
            n_topics=2, iterations=40, seed=0, pooling="NP", max_biterms=20
        ).fit(THEMED)
        vocab = model.vocabulary
        assert np.allclose(model.phi.sum(axis=1), 1.0)
        assert model.phi.shape == (2, len(vocab))

    def test_describe(self, fitted):
        info = fitted.describe()
        assert info["model"] == "BTM"
        assert info["window"] == 30
