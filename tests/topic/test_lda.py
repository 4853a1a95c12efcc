"""Tests specific to the collapsed-Gibbs LDA implementation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models.base import TextDoc
from repro.models.topic.lda import LdaModel


def docs_from(texts: list[str]) -> list[TextDoc]:
    return [TextDoc.from_tokens(tuple(t.split())) for t in texts]


#: Two cleanly separated themes; LDA with K=2 should recover them.
THEMED = docs_from([
    "apple banana fruit apple banana",
    "banana fruit apple fruit",
    "fruit apple banana apple",
    "engine wheel motor engine wheel",
    "motor wheel engine motor",
    "wheel engine motor wheel motor",
] * 3)


class TestConfiguration:
    def test_default_alpha_is_fifty_over_k(self):
        assert math.isclose(LdaModel(n_topics=50, iterations=1).alpha, 1.0)
        assert math.isclose(LdaModel(n_topics=100, iterations=1).alpha, 0.5)

    def test_explicit_alpha_respected(self):
        assert LdaModel(n_topics=10, alpha=0.3, iterations=1).alpha == 0.3

    def test_invalid_topics(self):
        with pytest.raises(ConfigurationError):
            LdaModel(n_topics=0)

    @pytest.mark.parametrize(
        "priors", [dict(alpha=0.0), dict(beta=0.0), dict(alpha=-1.0), dict(beta=-0.5)]
    )
    def test_non_positive_priors_rejected(self, priors):
        with pytest.raises(ConfigurationError):
            LdaModel(n_topics=4, **priors)


class TestTraining:
    @pytest.fixture(scope="class")
    def fitted(self) -> LdaModel:
        # alpha is set explicitly: the paper's 50/K heuristic targets
        # K in [50, 200]; at K=2 it would swamp the per-document counts.
        model = LdaModel(
            n_topics=2, alpha=0.5, iterations=60, infer_iterations=15,
            seed=0, pooling="NP",
        )
        return model.fit(THEMED)

    def test_phi_rows_are_distributions(self, fitted):
        phi = fitted.phi
        assert phi.shape[0] == 2
        assert np.allclose(phi.sum(axis=1), 1.0)
        assert (phi >= 0).all()

    def test_topics_separate_themes(self, fitted):
        vocab = fitted.vocabulary
        fruit = fitted.phi[:, vocab.id_of("apple")]
        engine = fitted.phi[:, vocab.id_of("engine")]
        # apple and engine must peak on different topics
        assert int(np.argmax(fruit)) != int(np.argmax(engine))

    def test_inference_matches_theme(self, fitted):
        theta_fruit = fitted.represent(docs_from(["apple banana fruit"])[0])
        theta_engine = fitted.represent(docs_from(["engine motor wheel"])[0])
        assert int(np.argmax(theta_fruit)) != int(np.argmax(theta_engine))

    def test_same_theme_docs_are_similar(self, fitted):
        a = fitted.represent(docs_from(["apple banana"])[0])
        b = fitted.represent(docs_from(["fruit apple"])[0])
        c = fitted.represent(docs_from(["engine wheel"])[0])
        sim_ab = fitted.score(a, b)
        sim_ac = fitted.score(a, c)
        assert sim_ab > sim_ac

    def test_describe_contains_hyperparameters(self, fitted):
        info = fitted.describe()
        assert info["model"] == "LDA"
        assert info["n_topics"] == 2
        assert info["beta"] == 0.01
