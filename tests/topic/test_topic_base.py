"""Tests for the shared topic-model machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError, EmptyCorpusError
from repro.models.base import TextDoc
from repro.models.topic.base import dense_centroid, dense_cosine, dense_rocchio
from repro.models.topic.btm import BitermTopicModel
from repro.models.topic.hdp import HdpModel
from repro.models.topic.hlda import HldaModel
from repro.models.topic.lda import LdaModel
from repro.models.topic.llda import LabeledLdaModel
from repro.models.topic.plsa import PlsaModel


class TestDenseCosine:
    def test_identical(self):
        v = np.array([1.0, 2.0])
        assert math.isclose(dense_cosine(v, v), 1.0)

    def test_orthogonal(self):
        assert dense_cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_null_vector(self):
        assert dense_cosine(np.zeros(2), np.ones(2)) == 0.0

    @given(arrays(float, 4, elements=st.floats(0, 10)),
           arrays(float, 4, elements=st.floats(0, 10)))
    def test_bounded_and_symmetric(self, u, v):
        s = dense_cosine(u, v)
        assert math.isclose(s, dense_cosine(v, u), abs_tol=1e-12)
        assert -1e-9 <= s <= 1.0 + 1e-9


class TestDenseAggregation:
    def test_centroid_normalises(self):
        c = dense_centroid([np.array([10.0, 0.0]), np.array([0.0, 1.0])])
        assert math.isclose(c[0], 0.5) and math.isclose(c[1], 0.5)

    def test_centroid_empty_raises(self):
        with pytest.raises(EmptyCorpusError):
            dense_centroid([])

    def test_rocchio_sign_structure(self):
        model = dense_rocchio(
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])], labels=[1, 0]
        )
        assert model[0] > 0 > model[1]

    def test_rocchio_length_mismatch(self):
        with pytest.raises(ValueError):
            dense_rocchio([np.ones(2)], labels=[1, 0])

    def test_rocchio_empty_raises(self):
        with pytest.raises(EmptyCorpusError):
            dense_rocchio([], labels=[])


class TestTopicModelProtocol:
    """Protocol-level behaviour shared by all topic models (via LDA)."""

    def test_sum_aggregation_rejected(self):
        with pytest.raises(ConfigurationError):
            LdaModel(n_topics=2, aggregation="sum")

    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigurationError):
            LdaModel(n_topics=2, iterations=0)

    def test_fit_on_empty_corpus_raises(self):
        with pytest.raises(EmptyCorpusError):
            LdaModel(n_topics=2, iterations=1).fit([])

    def test_represent_before_fit_raises(self):
        from repro.errors import NotFittedError
        with pytest.raises(NotFittedError):
            LdaModel(n_topics=2, iterations=1).represent(TextDoc.from_tokens(("a",)))

    def test_theta_is_distribution(self, tiny_corpus, tiny_user_ids):
        model = LdaModel(n_topics=3, iterations=5, infer_iterations=3, seed=1)
        model.fit(tiny_corpus, user_ids=tiny_user_ids)
        theta = model.represent(tiny_corpus[0])
        assert theta.shape == (3,)
        assert math.isclose(theta.sum(), 1.0, abs_tol=1e-9)
        assert (theta >= 0).all()

    def test_empty_document_gets_uniform(self, tiny_corpus, tiny_user_ids):
        model = LdaModel(n_topics=4, iterations=3, seed=1)
        model.fit(tiny_corpus, user_ids=tiny_user_ids)
        theta = model.represent(TextDoc.from_tokens(()))
        assert np.allclose(theta, 0.25)

    def test_oov_only_document_gets_uniform(self, tiny_corpus, tiny_user_ids):
        model = LdaModel(n_topics=4, iterations=3, seed=1)
        model.fit(tiny_corpus, user_ids=tiny_user_ids)
        theta = model.represent(TextDoc.from_tokens(("zzzunknown",)))
        assert np.allclose(theta, 0.25)

    def test_user_model_is_centroid(self, tiny_corpus, tiny_user_ids):
        model = LdaModel(n_topics=3, iterations=5, infer_iterations=3, seed=1)
        model.fit(tiny_corpus, user_ids=tiny_user_ids)
        um = model.build_user_model(tiny_corpus[:2])
        assert um.shape == (3,)
        assert np.linalg.norm(um) <= 1.0 + 1e-9

    def test_rocchio_user_model(self, tiny_corpus, tiny_user_ids):
        model = LdaModel(
            n_topics=3, iterations=5, infer_iterations=3, seed=1,
            aggregation="rocchio",
        )
        model.fit(tiny_corpus, user_ids=tiny_user_ids)
        um = model.build_user_model(tiny_corpus[:2], labels=[1, 0])
        assert um.shape == (3,)

    def test_rocchio_requires_labels(self, tiny_corpus, tiny_user_ids):
        model = LdaModel(n_topics=2, iterations=2, seed=1, aggregation="rocchio")
        model.fit(tiny_corpus, user_ids=tiny_user_ids)
        with pytest.raises(ConfigurationError):
            model.build_user_model(tiny_corpus[:1])

    def test_reproducible_with_seed(self, tiny_corpus, tiny_user_ids):
        thetas = []
        for _ in range(2):
            model = LdaModel(n_topics=3, iterations=5, infer_iterations=3, seed=42)
            model.fit(tiny_corpus, user_ids=tiny_user_ids)
            thetas.append(model.represent(tiny_corpus[0]))
        assert np.allclose(thetas[0], thetas[1])


#: Every Dirichlet/concentration hyperparameter a topic model takes.
HYPERPARAMETERS = [
    (LdaModel, "alpha"),
    (LdaModel, "beta"),
    (LabeledLdaModel, "alpha"),
    (LabeledLdaModel, "beta"),
    (BitermTopicModel, "alpha"),
    (BitermTopicModel, "beta"),
    (HdpModel, "alpha"),
    (HdpModel, "gamma"),
    (HdpModel, "eta"),
    (HldaModel, "alpha"),
    (HldaModel, "beta"),
    (HldaModel, "gamma"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    ("model_cls", "name"), HYPERPARAMETERS, ids=[f"{c.name}-{n}" for c, n in HYPERPARAMETERS]
)
def test_non_finite_hyperparameter_rejected_at_construction(model_cls, name, value):
    """``min(...) <= 0`` is False for NaN, so a NaN prior used to reach
    the sampler; inf is rejected with it."""
    with pytest.raises(ConfigurationError, match="finite"):
        model_cls(**{name: value})


STEP_MODELS = [
    (LdaModel, dict(n_topics=3)),
    (LabeledLdaModel, dict(n_latent_topics=2)),
    (HdpModel, dict(initial_topics=3)),
    (HldaModel, dict(levels=2)),
    (BitermTopicModel, dict(n_topics=3)),
    (BitermTopicModel, dict(n_topics=3, max_biterms=7)),
    (PlsaModel, dict(n_topics=3)),
]


@pytest.mark.parametrize(
    ("model_cls", "params"), STEP_MODELS,
    ids=[f"{c.name}-{'-'.join(map(str, p.values()))}" for c, p in STEP_MODELS],
)
def test_each_sweep_reports_its_sampling_steps(tiny_corpus, model_cls, params):
    """A draw per token, per biterm for BTM (after its cap); EM draws nothing."""
    progress = []
    model = model_cls(iterations=3, seed=1, pooling="NP", **params)
    model.set_iteration_hook(progress.append).fit(tiny_corpus)
    tokens = [len(doc.tokens) for doc in tiny_corpus]
    if model_cls is BitermTopicModel:
        biterms = sum(n * (n - 1) // 2 for n in tokens)
        expected = min(biterms, params.get("max_biterms", biterms))
    elif model_cls is PlsaModel:
        expected = None
    else:
        expected = sum(tokens)
    assert [p.steps for p in progress] == [expected] * 3
