"""Training parity: the count-table samplers against the per-token loops.

The references below are the ``_train`` methods of LDA, LLDA, BTM and
HDP as they were before training kept its smoothed factors current:
every token rebuilt its whole conditional from the raw count tables
(topic-major) and drew its uniform from the model's generator as it
went. The rewritten samplers store the counts word-major, update only
the factor entries a move changes and draw a sweep's uniforms in one
call; they must fit exactly the same model and leave the generator in
the same state, for any corpus: K on both sides of numpy's pairwise-sum
threshold (8), empty and single-token documents, repeated words (BTM
self-biterms), biterm subsampling, and NP and UP pooling.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models.base import TextDoc
from repro.models.topic.btm import Biterm, BitermTopicModel, extract_biterms
from repro.models.topic.gibbs import notify_iteration, sample_crp_tables, sample_index
from repro.models.topic.hdp import HdpModel
from repro.models.topic.labels import LabelExtractor
from repro.models.topic.lda import LdaModel
from repro.models.topic.llda import LabeledLdaModel

WORDS = ["star", "moon", "orbit", "bread", "oven", "yeast", "stock", "bank", "rain",
         "wind", "#space", "#food", "?", ":)", "@ann"]


# -- the references: the per-token training loops ----------------------------


class ReferenceLda(LdaModel):
    def _train(self, docs: list[list[int]], raw_docs: list[Sequence[str]]) -> None:
        vocab_size = len(self.vocabulary)
        k = self._n_topics
        rng = self._rng

        n_dk = np.zeros((len(docs), k))
        n_kw = np.zeros((k, vocab_size))
        n_k = np.zeros(k)
        assignments: list[np.ndarray] = []

        for d, doc in enumerate(docs):
            z = rng.integers(k, size=len(doc))
            assignments.append(z)
            for w, topic in zip(doc, z):
                n_dk[d, topic] += 1
                n_kw[topic, w] += 1
                n_k[topic] += 1

        v_beta = vocab_size * self.beta
        for iteration in range(self.iterations):
            for d, doc in enumerate(docs):
                z = assignments[d]
                for i, w in enumerate(doc):
                    topic = z[i]
                    n_dk[d, topic] -= 1
                    n_kw[topic, w] -= 1
                    n_k[topic] -= 1
                    weights = (n_dk[d] + self.alpha) * (n_kw[:, w] + self.beta) / (n_k + v_beta)
                    topic = sample_index(weights, rng)
                    z[i] = topic
                    n_dk[d, topic] += 1
                    n_kw[topic, w] += 1
                    n_k[topic] += 1
            notify_iteration(
                self.iteration_hook, self.name, iteration + 1, self.iterations,
                self._corpus_log_likelihood(docs, n_dk, n_kw, n_k, v_beta)
                if self.iteration_hook is not None else None,
            )

        self._phi = (n_kw + self.beta) / (n_k[:, None] + v_beta)


class ReferenceLlda(LabeledLdaModel):
    def _train(self, docs: list[list[int]], raw_docs: list[Sequence[str]]) -> None:
        vocab_size = len(self.vocabulary)
        rng = self._rng

        self.label_extractor.fit(raw_docs)
        doc_labels = [
            self.label_extractor.labels_for(tokens, d) for d, tokens in enumerate(raw_docs)
        ]
        label_names = sorted({lab for labs in doc_labels for lab in labs})
        latent_names = [f"Topic {i + 1}" for i in range(self.n_latent_topics)]
        self._topic_names = latent_names + label_names
        topic_index = {name: i for i, name in enumerate(self._topic_names)}
        k = len(self._topic_names)
        if self._alpha_param is None:
            self.alpha = 50.0 / k

        latent_ids = np.arange(self.n_latent_topics)
        allowed: list[np.ndarray] = []
        for labs in doc_labels:
            ids = [topic_index[lab] for lab in labs]
            allowed.append(np.concatenate([latent_ids, np.array(ids, dtype=int)]))

        n_dk = np.zeros((len(docs), k))
        n_kw = np.zeros((k, vocab_size))
        n_k = np.zeros(k)
        assignments: list[np.ndarray] = []
        for d, doc in enumerate(docs):
            choices = allowed[d]
            z = choices[rng.integers(len(choices), size=len(doc))]
            assignments.append(z)
            for w, topic in zip(doc, z):
                n_dk[d, topic] += 1
                n_kw[topic, w] += 1
                n_k[topic] += 1

        v_beta = vocab_size * self.beta
        for iteration in range(self.iterations):
            for d, doc in enumerate(docs):
                z = assignments[d]
                choices = allowed[d]
                for i, w in enumerate(doc):
                    topic = z[i]
                    n_dk[d, topic] -= 1
                    n_kw[topic, w] -= 1
                    n_k[topic] -= 1
                    weights = (
                        (n_dk[d, choices] + self.alpha)
                        * (n_kw[choices, w] + self.beta)
                        / (n_k[choices] + v_beta)
                    )
                    topic = int(choices[sample_index(weights, rng)])
                    z[i] = topic
                    n_dk[d, topic] += 1
                    n_kw[topic, w] += 1
                    n_k[topic] += 1
            notify_iteration(
                self.iteration_hook, self.name, iteration + 1, self.iterations
            )

        self._phi = (n_kw + self.beta) / (n_k[:, None] + v_beta)


class ReferenceBtm(BitermTopicModel):
    def _train(self, docs: list[list[int]], raw_docs: list[Sequence[str]]) -> None:
        vocab_size = len(self.vocabulary)
        k = self._n_topics
        rng = self._rng
        window = self._training_window()

        biterms: list[Biterm] = [b for doc in docs for b in extract_biterms(doc, window)]
        if self.max_biterms is not None and len(biterms) > self.max_biterms:
            picks = rng.choice(len(biterms), size=self.max_biterms, replace=False)
            biterms = [biterms[i] for i in picks]
        n_z = np.zeros(k)
        n_kw = np.zeros((k, vocab_size))
        z_assign = rng.integers(k, size=len(biterms))
        for (w1, w2), topic in zip(biterms, z_assign):
            n_z[topic] += 1
            n_kw[topic, w1] += 1
            n_kw[topic, w2] += 1

        v_beta = vocab_size * self.beta
        for iteration in range(self.iterations):
            for i, (w1, w2) in enumerate(biterms):
                topic = z_assign[i]
                n_z[topic] -= 1
                n_kw[topic, w1] -= 1
                n_kw[topic, w2] -= 1
                totals = 2.0 * n_z + v_beta
                weights = (
                    (n_z + self.alpha)
                    * (n_kw[:, w1] + self.beta)
                    * (n_kw[:, w2] + self.beta)
                    / (totals * (totals + 1.0))
                )
                topic = sample_index(weights, rng)
                z_assign[i] = topic
                n_z[topic] += 1
                n_kw[topic, w1] += 1
                n_kw[topic, w2] += 1
            notify_iteration(
                self.iteration_hook, self.name, iteration + 1, self.iterations
            )

        self._phi = (n_kw + self.beta) / (2.0 * n_z[:, None] + v_beta)
        theta = n_z + self.alpha
        self._theta = theta / theta.sum()


class ReferenceHdp(HdpModel):
    def _train(self, docs: list[list[int]], raw_docs: list[Sequence[str]]) -> None:
        vocab_size = len(self.vocabulary)
        rng = self._rng
        k = self.initial_topics

        n_dk = np.zeros((len(docs), self.max_topics))
        n_kw = np.zeros((self.max_topics, vocab_size))
        n_k = np.zeros(self.max_topics)
        assignments: list[np.ndarray] = []
        for d, doc in enumerate(docs):
            z = rng.integers(k, size=len(doc))
            assignments.append(z)
            for w, topic in zip(doc, z):
                n_dk[d, topic] += 1
                n_kw[topic, w] += 1
                n_k[topic] += 1

        # Stick weights over the K active topics plus the unbroken tail.
        beta = rng.dirichlet(np.ones(k + 1) * self.gamma)
        active = list(range(k))

        v_eta = vocab_size * self.eta
        for iteration in range(self.iterations):
            for d, doc in enumerate(docs):
                z = assignments[d]
                for i, w in enumerate(doc):
                    topic = z[i]
                    n_dk[d, topic] -= 1
                    n_kw[topic, w] -= 1
                    n_k[topic] -= 1

                    idx = np.array(active)
                    f_k = (n_kw[idx, w] + self.eta) / (n_k[idx] + v_eta)
                    weights = (n_dk[d, idx] + self.alpha * beta[:-1]) * f_k
                    new_weight = self.alpha * beta[-1] / vocab_size
                    choice = sample_index(np.append(weights, new_weight), rng)

                    if choice == len(active) and len(active) < self.max_topics:
                        # Instantiate a fresh topic; split the remaining stick.
                        free = [t for t in range(self.max_topics) if t not in set(active)]
                        topic = free[0]
                        active.append(topic)
                        b = rng.beta(1.0, self.gamma)
                        beta = np.append(beta[:-1], [beta[-1] * b, beta[-1] * (1.0 - b)])
                    else:
                        topic = active[min(choice, len(active) - 1)]

                    z[i] = topic
                    n_dk[d, topic] += 1
                    n_kw[topic, w] += 1
                    n_k[topic] += 1

            # Retire empty topics, returning their stick mass to the tail.
            empty = [j for j, t in enumerate(active) if n_k[t] == 0]
            if empty:
                freed = beta[empty].sum()
                keep = [j for j in range(len(active)) if j not in set(empty)]
                active = [active[j] for j in keep]
                beta = np.append(beta[keep], beta[-1] + freed)

            # Resample the global stick from the table counts (Antoniak draws).
            m_k = np.zeros(len(active))
            for d in range(len(docs)):
                for j, t in enumerate(active):
                    count = int(n_dk[d, t])
                    if count > 0:
                        m_k[j] += sample_crp_tables(count, self.alpha * beta[j], rng)
            m_k = np.maximum(m_k, 1e-3)  # guard against degenerate Dirichlet params
            beta = rng.dirichlet(np.append(m_k, self.gamma))
            notify_iteration(
                self.iteration_hook, self.name, iteration + 1, self.iterations
            )

        idx = np.array(active)
        self._phi = (n_kw[idx] + self.eta) / (n_k[idx][:, None] + v_eta)
        weights = beta[:-1]
        self._beta_weights = weights / weights.sum()


# -- parity ---------------------------------------------------------------------

corpora = st.lists(
    st.one_of(
        st.lists(st.sampled_from(WORDS), min_size=2, max_size=12),
        st.lists(st.sampled_from(WORDS[:3]), min_size=2, max_size=6),  # repeats
        st.lists(st.sampled_from(WORDS), max_size=1),  # empty or one token
    ),
    min_size=1,
    max_size=12,
).filter(lambda docs: any(docs))
common = dict(
    k=st.integers(1, 24),
    corpus=corpora,
    pooling=st.sampled_from(["NP", "UP"]),
    seed=st.integers(0, 2**32 - 1),
)


def fit_pair(reference_cls, cls, corpus, pooling, seed, **params):
    """Fit the reference and the model on ``corpus``; return both."""
    docs = [TextDoc.from_tokens(tokens) for tokens in corpus]
    users = [f"u{i % 3}" for i in range(len(docs))]
    models = []
    for model_cls in (reference_cls, cls):
        model = model_cls(iterations=3, seed=seed, pooling=pooling, **params)
        models.append(model.fit(docs, user_ids=users))
    return models


def assert_same_fit(reference, model, *attributes):
    assert np.array_equal(model.phi, reference.phi)
    for attribute in attributes:
        assert np.array_equal(getattr(model, attribute), getattr(reference, attribute))
    assert model._rng.bit_generator.state == reference._rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(**common)
@example(k=8, corpus=[["star"], [], ["moon", "moon", "orbit"]], pooling="NP", seed=0)
def test_lda_matches_reference(k, corpus, pooling, seed):
    assert_same_fit(*fit_pair(ReferenceLda, LdaModel, corpus, pooling, seed, n_topics=k))


@settings(max_examples=40, deadline=None)
@given(**common)
@example(k=1, corpus=[["#space", "star", "?"], ["#space", ":)"], ["@ann"]], pooling="NP",
         seed=1)
def test_llda_matches_reference(k, corpus, pooling, seed):
    reference, model = fit_pair(
        ReferenceLlda, LabeledLdaModel, corpus, pooling, seed, n_latent_topics=k,
        label_extractor=LabelExtractor(min_hashtag_count=0),
    )
    assert model.topic_names == reference.topic_names
    assert_same_fit(reference, model)


@settings(max_examples=40, deadline=None)
@given(**common, max_biterms=st.sampled_from([None, 1, 7, 40]), window=st.integers(1, 4))
@example(k=9, corpus=[["star", "star", "moon"], ["moon"]], pooling="NP", seed=2,
         max_biterms=None, window=1)
def test_btm_matches_reference(k, corpus, pooling, seed, max_biterms, window):
    assert_same_fit(
        *fit_pair(ReferenceBtm, BitermTopicModel, corpus, pooling, seed, n_topics=k,
                  max_biterms=max_biterms, window=window),
        "corpus_theta",
    )


@settings(max_examples=40, deadline=None)
@given(
    **common,
    spare=st.integers(0, 30),
    alpha=st.sampled_from([0.5, 5.0]),
    gamma=st.sampled_from([1.0, 5.0]),
)
@example(k=1, corpus=[WORDS * 2, ["star"]], pooling="NP", seed=4, spare=30, alpha=5.0,
         gamma=5.0)
def test_hdp_matches_reference(k, corpus, pooling, seed, spare, alpha, gamma):
    reference, model = fit_pair(
        ReferenceHdp, HdpModel, corpus, pooling, seed, initial_topics=k,
        max_topics=k + spare, alpha=alpha, gamma=gamma,
    )
    assert model.n_topics == reference.n_topics
    assert_same_fit(reference, model, "stick_weights")


def test_hdp_grows_past_its_initial_capacity():
    # One initial topic and a large new-topic weight: births must outgrow
    # the count tables' first allocation (twice the initial topics).
    corpus = [WORDS * 2, WORDS[::-1], ["star", "moon"]]
    reference, model = fit_pair(
        ReferenceHdp, HdpModel, corpus, "NP", 3, initial_topics=1, alpha=50.0, gamma=50.0
    )
    assert reference.n_topics > 2
    assert_same_fit(reference, model, "stick_weights")


@pytest.mark.parametrize("cls", [LdaModel, LabeledLdaModel])
def test_log_likelihood_hook_sees_the_same_sweeps(cls):
    # The LDA hook computes the corpus log-likelihood from the count
    # tables; both samplers must report the same figures each sweep.
    corpus = [["star", "moon", "orbit", "star"], ["bread", "oven", "#food"], ["star", "?"]]
    docs = [TextDoc.from_tokens(tokens) for tokens in corpus]
    reference_cls = ReferenceLda if cls is LdaModel else ReferenceLlda
    seen = []
    for model_cls in (reference_cls, cls):
        records = []
        model_cls(iterations=4, seed=5, pooling="NP").set_iteration_hook(
            lambda it: records.append((it.iteration, it.log_likelihood))
        ).fit(docs)
        seen.append(records)
    assert seen[0] == seen[1]
