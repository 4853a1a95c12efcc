"""Tests for the batched Gibbs fold-in (``gibbs.fold_in``) and BTM's
batched inference.

The reference below is the per-token fold-in loop each of LDA, LLDA,
HDP and HLDA ran inside ``_infer`` before the batched kernel replaced
it. ``represent_many`` must return exactly what that loop returned for
each document in turn and leave the model's RNG in the same state, for
any batch: both sides of the kernel's size switch, mixed lengths,
empty or all-out-of-vocabulary documents, which draw nothing, and any
chunking of a long batch. BTM's reference is the per-biterm loop its
``_infer`` ran before one array pass per chunk replaced it.
"""

from __future__ import annotations

import copy
import functools
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SamplingWeightsError
from repro.models.base import TextDoc
from repro.models.topic import base as topic_base
from repro.models.topic.btm import BitermTopicModel, extract_biterms
from repro.models.topic.gibbs import MAX_BATCH_ENTRIES, MIN_BATCH, SCALAR_TOPICS, FoldIn, fold_in
from repro.models.topic.hdp import HdpModel
from repro.models.topic.hlda import HldaModel
from repro.models.topic.lda import LdaModel
from repro.models.topic.llda import LabeledLdaModel
from tests.topic.test_gibbs import sample_index
from tests.topic.test_training_parity import ScriptedRng, last_bit_uniforms

CORPUS = [
    "star planet orbit star moon #space",
    "orbit moon star planet comet",
    "planet star orbit moon telescope ?",
    "bread flour oven bread yeast #baking",
    "yeast oven bread flour crust",
    "flour bread yeast oven butter :)",
    "market stock price trade bank",
    "bank trade market price stock #money",
    "rain cloud wind storm cloud",
    "storm wind rain thunder cloud ?",
] * 3

VOCABULARY = sorted({token for text in CORPUS for token in text.split()})
UNKNOWN = ["zebra", "quartz", "vellum"]


def doc(tokens) -> TextDoc:
    return TextDoc.from_tokens(tuple(tokens))


@functools.cache
def fitted(name: str):
    common = dict(iterations=10, infer_iterations=5, seed=2, pooling="NP")
    model = {
        "LDA": lambda: LdaModel(n_topics=9, **common),
        "LLDA": lambda: LabeledLdaModel(n_latent_topics=4, **common),
        "HDP": lambda: HdpModel(initial_topics=6, **common),
        "HLDA": lambda: HldaModel(levels=3, gamma=1.0, **common),
    }[name]()
    return model.fit([doc(text.split()) for text in CORPUS])


# -- the reference: the per-token loop the kernel replaced -------------------


def reference_fold(phi_columns: np.ndarray, prior, rng, iterations: int) -> np.ndarray:
    """Topic counts after the sequential fold-in; ``phi_columns`` is K x n."""
    k = phi_columns.shape[0]
    n_dk = np.zeros(k)
    z = rng.integers(k, size=phi_columns.shape[1])
    for topic in z:
        n_dk[topic] += 1
    for _ in range(iterations):
        for i in range(phi_columns.shape[1]):
            topic = z[i]
            n_dk[topic] -= 1
            weights = (n_dk + prior) * phi_columns[:, i]
            topic = sample_index(weights, rng)
            z[i] = topic
            n_dk[topic] += 1
    return n_dk


def reference_infer(model, encoded: list[int], rng) -> np.ndarray:
    iterations = model.infer_iterations
    if isinstance(model, HldaModel):
        if not encoded or not model._paths_matrix:
            return model._uniform_theta()
        phi = model._node_phi
        best_path, best_score = None, -np.inf
        for path in model._paths_matrix:
            score = float(np.log(phi[path][:, np.array(encoded)].mean(axis=0) + 1e-12).sum())
            if score > best_score:
                best_score, best_path = score, path
        n_dl = reference_fold(phi[best_path][:, encoded], model.alpha, rng, iterations)
        theta = np.zeros(model._n_nodes)
        level_mix = (n_dl + model.alpha) / (n_dl.sum() + model.levels * model.alpha)
        for level, node_id in enumerate(best_path):
            theta[node_id] += level_mix[level]
        return theta
    if not encoded:
        return model._uniform_theta()
    prior = model.alpha * model.stick_weights if isinstance(model, HdpModel) else model.alpha
    theta = reference_fold(model.phi[:, encoded], prior, rng, iterations) + prior
    return theta / theta.sum()


def reference_represent(model, document) -> np.ndarray:
    encoded = model.vocabulary.encode(list(document.tokens))
    rng = model._rng
    if model.deterministic_inference:
        rng = np.random.default_rng(model._doc_rng_seed(encoded))
    return reference_infer(model, encoded, rng)


# -- parity ---------------------------------------------------------------------

documents = st.lists(
    st.one_of(
        st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=14),
        st.lists(st.sampled_from(VOCABULARY + UNKNOWN), max_size=6),
        st.lists(st.sampled_from(UNKNOWN), max_size=3),
    ),
    min_size=1,
    max_size=60,
)


@pytest.mark.parametrize("deterministic", [False, True], ids=["shared-rng", "per-doc-rng"])
@pytest.mark.parametrize("name", ["LDA", "LLDA", "HDP", "HLDA"])
class TestRepresentManyMatchesReference:
    @settings(max_examples=20, deadline=None)
    @given(
        batch=documents,
        seed=st.integers(0, 2**32 - 1),
        # Topic-word weights per chunk: one document per chunk, a few
        # documents, or the whole batch.
        entries=st.sampled_from([1, 60, MAX_BATCH_ENTRIES]),
    )
    def test_equal_results_and_rng_state(self, name, deterministic, batch, seed, entries):
        model = fitted(name)
        model.deterministic_inference = deterministic
        try:
            docs = [doc(tokens) for tokens in batch]
            model._rng = np.random.default_rng(seed)
            with mock.patch.object(topic_base, "MAX_BATCH_ENTRIES", entries):
                got = model.represent_many(docs)
            state = model._rng.bit_generator.state
            model._rng = np.random.default_rng(seed)
            expected = [reference_represent(model, d) for d in docs]
            assert len(got) == len(expected)
            for theta, want in zip(got, expected):
                assert np.array_equal(theta, want)
            assert model._rng.bit_generator.state == state
        finally:
            model.deterministic_inference = False

    def test_represent_is_a_batch_of_one(self, name, deterministic):
        model = fitted(name)
        model.deterministic_inference = deterministic
        try:
            d = doc(CORPUS[0].split())
            model._rng = np.random.default_rng(5)
            got = model.represent(d)
            model._rng = np.random.default_rng(5)
            assert np.array_equal(got, reference_represent(model, d))
        finally:
            model.deterministic_inference = False


# -- BTM: one array pass per chunk ------------------------------------------------


@functools.cache
def fitted_btm(k: int) -> BitermTopicModel:
    model = BitermTopicModel(n_topics=k, iterations=10, seed=2, pooling="NP")
    return model.fit([doc(text.split()) for text in CORPUS])


def reference_btm(model: BitermTopicModel, encoded: list[int]) -> np.ndarray:
    """``P(z|d)`` by the per-biterm loop the array pass replaced."""
    doc_biterms = list(extract_biterms(encoded, window=None))
    if not doc_biterms:
        if encoded:
            weights = model._theta[:, None] * model._phi[:, encoded]
            theta = weights.sum(axis=1)
            total = theta.sum()
            return theta / total if total > 0 else model._uniform_theta()
        return model._uniform_theta()
    theta = np.zeros(model.n_topics)
    p_b = 1.0 / len(doc_biterms)
    for w1, w2 in doc_biterms:
        p_zb = model._theta * model._phi[:, w1] * model._phi[:, w2]
        total = p_zb.sum()
        if total > 0:
            theta += p_b * (p_zb / total)
    total = theta.sum()
    return theta / total if total > 0 else model._uniform_theta()


def with_zero_columns(model: BitermTopicModel, words) -> BitermTopicModel:
    """A copy of ``model`` in which ``words`` have probability 0 in every topic."""
    zeroed = copy.copy(model)
    zeroed._phi = model.phi.copy()
    zeroed._phi[:, model.vocabulary.encode(list(words))] = 0.0
    return zeroed


btm_documents = st.lists(
    st.one_of(
        st.lists(st.sampled_from(VOCABULARY), max_size=2),
        st.lists(st.sampled_from(VOCABULARY[:4]), min_size=2, max_size=6),  # repeats
        st.lists(st.sampled_from(VOCABULARY), min_size=3, max_size=14),
        st.lists(st.sampled_from(VOCABULARY + UNKNOWN), max_size=6),
    ),
    min_size=1,
    max_size=40,
)


class TestBtmMatchesReference:
    # 3 topics sum left to right, 20 pairwise in eight running sums and
    # 140 split in halves first, so each branch of numpy's summation is hit.
    @settings(max_examples=30, deadline=None)
    @given(
        batch=btm_documents,
        k=st.sampled_from([3, 20, 140]),
        zero_words=st.sets(st.sampled_from(VOCABULARY), max_size=8),
        entries=st.sampled_from([1, 60, MAX_BATCH_ENTRIES]),
    )
    @example(batch=[[], ["star"], ["star", "moon"], ["star", "star", "star"], ["zebra"],
                    ["star", "zebra", "moon", "orbit", "planet"]],
             k=20, zero_words={"moon"}, entries=MAX_BATCH_ENTRIES)
    @example(batch=[["bread"], ["bread", "oven"], ["oven", "bread", "yeast"]],
             k=3, zero_words={"bread", "oven", "yeast"}, entries=1)
    def test_equal_results_any_chunking(self, batch, k, zero_words, entries):
        model = with_zero_columns(fitted_btm(k), zero_words)
        model._rng = np.random.default_rng(0)
        state = model._rng.bit_generator.state
        with mock.patch.object(topic_base, "MAX_BATCH_ENTRIES", entries):
            got = model.represent_many([doc(tokens) for tokens in batch])
        assert len(got) == len(batch)
        for theta, tokens in zip(got, batch):
            want = reference_btm(model, model.vocabulary.encode(tokens))
            assert np.array_equal(theta, want)
        assert model._rng.bit_generator.state == state  # inference draws nothing

    def test_represent_is_a_batch_of_one(self):
        model = fitted_btm(20)
        for text in CORPUS[:10]:
            tokens = text.split()
            want = reference_btm(model, model.vocabulary.encode(tokens))
            assert np.array_equal(model.represent(doc(tokens)), want)

    def test_empty_batch(self):
        assert fitted_btm(3).represent_many([]) == []


class TestBtmDegenerate:
    @pytest.mark.parametrize(
        "tokens", [["star", "moon"], ["star"], ["moon", "orbit", "star", "planet"]],
        ids=["biterm", "single-word", "long"],
    )
    def test_nan_phi_raises_naming_btm(self, tokens):
        model = copy.copy(fitted_btm(3))
        model._phi = model.phi.copy()
        model._phi[1, model.vocabulary.encode(["star"])[0]] = np.nan
        with pytest.raises(SamplingWeightsError, match="BTM"):
            model.represent(doc(tokens))
        with pytest.raises(SamplingWeightsError, match="BTM"):
            model.represent_many([doc(["moon", "orbit"])] * 5 + [doc(tokens)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_theta_raises(self, bad):
        model = copy.copy(fitted_btm(3))
        model._theta = model.corpus_theta.copy()
        model._theta[0] = bad
        with pytest.raises(SamplingWeightsError, match="BTM"):
            model.represent(doc(["bread", "oven"]))

    def test_zero_total_biterm_is_skipped(self):
        model = with_zero_columns(fitted_btm(3), ["comet"])
        # (star, comet) and (comet, moon) add nothing; (star, moon) is
        # a third of the biterms, so θ is its normalised row.
        (theta,) = model.represent_many([doc(["star", "comet", "moon"])])
        star, moon = model.vocabulary.encode(["star", "moon"])
        row = model._theta * model._phi[:, star] * model._phi[:, moon]
        expected = (1.0 / 3) * (row / row.sum())
        assert np.array_equal(theta, expected / expected.sum())

    def test_all_zero_document_is_uniform(self):
        model = with_zero_columns(fitted_btm(3), ["comet", "crust"])
        for tokens in (["comet"], ["comet", "crust", "comet"], ["zebra"], []):
            assert np.array_equal(model.represent(doc(tokens)), np.full(3, 1.0 / 3))


# -- the kernel on its own --------------------------------------------------------


def folds_with_rows(rows: np.ndarray, prior, count: int) -> list[FoldIn]:
    return [FoldIn(rows, prior) for _ in range(count)]


@pytest.mark.parametrize("count", [1, MIN_BATCH], ids=["alone", "batched"])
class TestDegenerateWeights:
    def test_zero_row_draws_uniformly_from_its_own_uniform(self, count):
        # Every token's weights are zero and so is the prior, so each row
        # is all-zero whatever the counts: in the last sweep token i
        # takes topic floor(u * K) of its own pre-drawn uniform u.
        k, tokens, iterations = 5, 3, 4
        folds = folds_with_rows(np.zeros((tokens, k)), 0.0, count)
        counts = fold_in(folds, [np.random.default_rng(11)] * count, iterations, "LDA")
        rng = np.random.default_rng(11)
        for n_dk in counts:
            rng.integers(k, size=tokens)
            last_sweep = rng.random(iterations * tokens).reshape(iterations, tokens)[-1]
            expected = np.bincount((last_sweep * k).astype(int), minlength=k)
            assert np.array_equal(n_dk, expected)

    def test_zero_row_same_alone_and_batched(self, count):
        rows = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]])
        rngs = [np.random.default_rng(4)] * count
        batched = fold_in(folds_with_rows(rows, 0.0, count), rngs, 6, "LDA")
        rng = np.random.default_rng(4)
        alone = [fold_in([FoldIn(rows, 0.0)], [rng], 6, "LDA")[0] for _ in range(count)]
        for a, b in zip(batched, alone):
            assert np.array_equal(a, b)

    def test_nan_weight_raises_naming_the_model(self, count):
        rows = np.array([[0.3, 0.7], [np.nan, 0.5]])
        rngs = [np.random.default_rng(0)] * count
        with pytest.raises(SamplingWeightsError, match="HDP"):
            fold_in(folds_with_rows(rows, 1.0, count), rngs, 2, "HDP")

    def test_negative_prior_raises(self, count):
        rows = np.array([[0.3, 0.7]])
        with pytest.raises(SamplingWeightsError):
            fold_in(folds_with_rows(rows, np.array([0.5, -0.1]), count),
                    [np.random.default_rng(0)] * count, 2, "HDP")


class TestDegenerateModels:
    def test_nan_phi_entry_raises(self):
        model = LdaModel(n_topics=3, iterations=5, infer_iterations=3, seed=0, pooling="NP")
        model.fit([doc(text.split()) for text in CORPUS[:6]])
        model._phi = model.phi.copy()
        model._phi[1, model.vocabulary.encode(["star"])[0]] = np.nan
        with pytest.raises(SamplingWeightsError, match="LDA"):
            model.represent(doc(["star", "moon"]))
        with pytest.raises(SamplingWeightsError, match="LDA"):
            model.represent_many([doc(["moon"])] * MIN_BATCH + [doc(["star"])])

    def test_zero_phi_column_with_zero_prior(self):
        model = LdaModel(n_topics=3, iterations=5, infer_iterations=3, seed=0, pooling="NP")
        model.fit([doc(text.split()) for text in CORPUS[:6]])
        # The constructor rejects alpha = 0, so the zero prior is set
        # after training, for the fold-in only.
        model.alpha = 0.0
        model._phi = model.phi.copy()
        model._phi[:, model.vocabulary.encode(["star"])[0]] = 0.0
        docs = [doc(["star", "star"]), doc(["star"]), doc(["moon", "star"])] * 2
        model._rng = np.random.default_rng(8)
        batched = model.represent_many(docs)
        model._rng = np.random.default_rng(8)
        alone = [model.represent(d) for d in docs]
        for a, b in zip(batched, alone):
            assert np.array_equal(a, b)
            assert np.isclose(a.sum(), 1.0)


class TestKernelMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 64),
        lengths=st.lists(st.integers(0, 12), min_size=1, max_size=24),
        prior=st.floats(0.01, 5.0),
        per_topic=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=1, lengths=[4] * (MIN_BATCH + 1), prior=1.0, per_topic=False, seed=0)
    @example(k=7, lengths=[0, 5, 1, 12, 0, 3, 9], prior=0.5, per_topic=False, seed=3)
    # Both sides of the scalar step's limit, alone, just below the
    # batch size and at it, with a scalar and an HDP-style vector prior.
    @example(k=SCALAR_TOPICS - 1, lengths=[12], prior=0.3, per_topic=False, seed=4)
    @example(k=SCALAR_TOPICS, lengths=[12], prior=0.3, per_topic=True, seed=5)
    @example(k=SCALAR_TOPICS + 1, lengths=[12], prior=0.3, per_topic=False, seed=6)
    @example(k=SCALAR_TOPICS - 1, lengths=([9, 2, 11] * MIN_BATCH)[:MIN_BATCH - 1], prior=2.0,
             per_topic=True, seed=7)
    @example(k=SCALAR_TOPICS, lengths=([3, 10, 12] * MIN_BATCH)[:MIN_BATCH - 1], prior=0.05,
             per_topic=False, seed=8)
    @example(k=SCALAR_TOPICS + 1, lengths=([5, 12, 0] * MIN_BATCH)[:MIN_BATCH - 1], prior=1.0,
             per_topic=True, seed=9)
    @example(k=SCALAR_TOPICS, lengths=([6, 12, 2] * MIN_BATCH)[:MIN_BATCH], prior=0.5,
             per_topic=True, seed=10)
    @example(k=SCALAR_TOPICS + 1, lengths=([11, 3, 12] * MIN_BATCH)[:MIN_BATCH], prior=0.5,
             per_topic=False, seed=11)
    def test_any_batch_matches_reference(self, k, lengths, prior, per_topic, seed):
        rng = np.random.default_rng(seed)
        phi = rng.dirichlet(np.ones(40), size=k)
        if per_topic:
            # HDP's prior: alpha times stick weights, one per topic.
            prior = prior * rng.dirichlet(np.ones(k))
        folds = [FoldIn(phi[:, rng.integers(40, size=n)].T, prior) for n in lengths]
        counts = fold_in(folds, [np.random.default_rng(seed)] * len(folds), 3, "LDA")
        assert [int(n_dk.sum()) for n_dk in counts] == lengths
        expected_rng = np.random.default_rng(seed)
        for fold, n_dk in zip(folds, counts):
            assert np.array_equal(
                n_dk, reference_fold(fold.columns.T, fold.prior, expected_rng, 3)
            )


# -- the scalar step's total, to the last bit ---------------------------------------


@pytest.mark.parametrize("count", [1, MIN_BATCH], ids=["alone", "batched"])
@pytest.mark.parametrize("k", [5, 12, SCALAR_TOPICS, SCALAR_TOPICS + 1])
def test_fold_in_step_totals_like_numpy(k, count):
    # The first draw's uniform is scripted so that uniform x total sits
    # on a CDF entry: the draw changes if the total is one ulp off either
    # way, and with one sweep that draw stays in the counts.
    rng = np.random.default_rng(k)
    columns = rng.dirichlet(np.ones(40), size=k)[:, rng.integers(40, size=9)].T
    fold = FoldIn(columns, 0.3)
    topics = np.random.default_rng(1).integers(k, size=9)
    counts = np.bincount(topics, minlength=k).astype(float)
    counts[topics[0]] -= 1
    first = (counts + fold.prior) * columns[0]
    for uniform in last_bit_uniforms(first):
        got = fold_in([fold] * count, [ScriptedRng(1, [uniform])] * count, 1, "LDA")
        reference_rng = ScriptedRng(1, [uniform])
        for n_dk in got:
            assert np.array_equal(n_dk, reference_fold(columns.T, fold.prior, reference_rng, 1))


# -- pinned fold-ins ------------------------------------------------------------------

#: SHA-256 over the float64 bytes of θ for 60 held-out tweets of
#: ``small_dataset``, each represented alone and then all as one batch,
#: after a ten-sweep, user-pooled fit on its first 400 tweets. Taken
#: while every fold-in step still ran on numpy; the scalar step must
#: reproduce them (LDA with 12 topics, HDP's 10, HLDA's 3 levels; LDA
#: with 50 keeps the numpy step). BTM's (user-pooled with 12 topics,
#: unpooled with 20) were taken while it still inferred one biterm at
#: a time; its array pass must reproduce them.
PINNED_FOLDS = [
    (LdaModel, dict(n_topics=12),
     "d49780d544895b46cd8ab3897ab238451ec0da0740203a9aff2a0db99999140f"),
    (LdaModel, dict(n_topics=50),
     "395c24031e4ba191e6342973f958e73151a575cd713f3e78ae3f15e002f2864c"),
    (HdpModel, dict(initial_topics=10),
     "801e78bda5da4a62370268dd965aae73b9b1c7dd1c8195a0c3372189ff601a87"),
    (HldaModel, dict(levels=3),
     "d56e72cf0227299e988ecc4f63e73d7ba8450df6d42dfb00c1381881f540ffd3"),
    (BitermTopicModel, dict(n_topics=12, max_biterms=4000),
     "6c5cc74f5134cd3421584b324d266fd627895ef6f32ddc9992e38245686120a6"),
    (BitermTopicModel, dict(n_topics=20, pooling="NP"),
     "0a2e28feda0a357873116ac97a029fcfdf4c54a9fb8b5aa6481d10d3d67d2ba3"),
]


@pytest.mark.parametrize(
    "cls, params, digest", PINNED_FOLDS,
    ids=[f"{cls.name}-{'-'.join(map(str, params.values()))}" for cls, params, _ in PINNED_FOLDS],
)
def test_fold_in_matches_pinned_digest(small_dataset, cls, params, digest):
    tweets = small_dataset.tweets
    docs = [TextDoc.from_tokens(tuple(tweet.text.split())) for tweet in tweets[:400]]
    held_out = [TextDoc.from_tokens(tuple(tweet.text.split())) for tweet in tweets[400:460]]
    model = cls(iterations=10, seed=3, **{"pooling": "UP", **params})
    model.fit(docs, user_ids=[str(tweet.author_id) for tweet in tweets[:400]])
    h = hashlib.sha256()
    for held in held_out:
        h.update(model.represent(held).tobytes())
    for theta in model.represent_many(held_out):
        h.update(theta.tobytes())
    assert h.hexdigest() == digest
