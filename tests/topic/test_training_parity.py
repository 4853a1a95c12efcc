"""Training parity: the count-table samplers against the per-token loops.

The references below are the ``_train`` methods of LDA, LLDA, BTM and
HDP as they were before training kept its smoothed factors current, and
HLDA's ``_train`` and ``_infer`` as they were before path scoring became
one tree walk:
every token rebuilt its whole conditional from the raw count tables
(topic-major) and drew its uniform from the model's generator as it
went. The rewritten samplers store the counts word-major, update only
the factor entries a move changes and draw a sweep's uniforms in one
call; they must fit exactly the same model and leave the generator in
the same state, for any corpus: K on both sides of numpy's pairwise-sum
threshold (8) and of the scalar step's limit (``SCALAR_TOPICS``),
empty and single-token documents, repeated words (BTM self-biterms),
biterm subsampling, and NP and UP pooling.

The references draw with ``test_gibbs.sample_index``. A change to a
helper both sides share (``sample_crp_tables``, the fold-in) would go
unseen here; the fits pinned by SHA-256 digest at the end of this file
guard against that.
"""

from __future__ import annotations

import hashlib
import math
import sys
from bisect import bisect_left
from collections.abc import Iterator, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SamplingWeightsError
from repro.models.base import TextDoc
from repro.models.topic import hdp
from repro.models.topic.btm import Biterm, BitermTopicModel, extract_biterms
from repro.models.topic.gibbs import (
    SCALAR_TOPICS,
    notify_iteration,
    sample_crp_tables,
)
from repro.models.topic.hdp import HdpModel
from repro.models.topic.hlda import HldaModel, _Node, _PathFoldIn
from repro.models.topic.labels import LabelExtractor
from repro.models.topic.lda import LdaModel
from repro.models.topic.llda import LabeledLdaModel
from tests.topic.test_gibbs import sample_index

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


class ReferenceHlda(HldaModel):
    """HLDA scoring each candidate path on its own and drawing as it goes."""

    def _candidate_paths(self) -> Iterator[tuple[list[_Node | None], float]]:
        def walk(node: _Node, level: int, log_prior: float, prefix: list[_Node | None]):
            if level == self.levels - 1:
                yield prefix + [], log_prior
                return
            denom = node.n_docs - 1 + self.gamma
            if denom <= 0:
                denom = self.gamma
            for child in node.children:
                weight = child.n_docs / denom if child.n_docs > 0 else self.gamma / denom
                if weight <= 0:
                    continue
                yield from walk(
                    child, level + 1, log_prior + math.log(weight), prefix + [child]
                )
            new_tail: list[_Node | None] = [None] * (self.levels - 1 - level)
            yield prefix + new_tail, log_prior + math.log(self.gamma / denom)

        yield from walk(self._root, 0, 0.0, [self._root])

    def _path_log_likelihood(
        self, path: Sequence[_Node | None], level_counts: list[dict[int, int]], vocab_size: int
    ) -> float:
        beta = self.beta
        v_beta = vocab_size * beta
        total = 0.0
        for level, counts in enumerate(level_counts):
            if not counts:
                continue
            node = path[level]
            node_total = node.total_count if node is not None else 0.0
            node_words = node.word_counts if node is not None else {}
            doc_total = sum(counts.values())  # repro: allow[RPR002] -- integer token counts: addition is exact
            total += math.lgamma(node_total + v_beta)
            total -= math.lgamma(node_total + doc_total + v_beta)
            for w, c in counts.items():
                existing = node_words.get(w, 0.0)
                total += math.lgamma(existing + c + beta) - math.lgamma(existing + beta)
        return total

    def _materialise(self, path: list[_Node | None]) -> list[_Node]:
        real: list[_Node] = []
        for level, node in enumerate(path):
            if node is None:
                node = self._new_node(level, real[-1])
            real.append(node)
        return real

    def _train(self, docs: list[list[int]], raw_docs: list[Sequence[str]]) -> None:
        vocab_size = len(self.vocabulary)
        rng = self._rng

        self._n_nodes = 0
        self._root = self._new_node(0, None)

        paths: list[list[_Node]] = []
        levels: list[np.ndarray] = []
        for doc in docs:
            path = self._sample_initial_path(rng)
            z = rng.integers(self.levels, size=len(doc))
            paths.append(path)
            levels.append(z)
            for node in path:
                node.n_docs += 1
            self._add_doc_counts(path, doc, z)

        for iteration in range(self.iterations):
            for d, doc in enumerate(docs):
                if not doc:
                    continue
                path, z = paths[d], levels[d]
                level_counts = self._level_counts(doc, z)

                self._remove_doc_counts(path, level_counts)
                for node in path:
                    node.n_docs -= 1
                log_scores: list[float] = []
                candidates: list[list[_Node | None]] = []
                for cand, log_prior in self._candidate_paths():
                    candidates.append(cand)
                    log_scores.append(
                        log_prior + self._path_log_likelihood(cand, level_counts, vocab_size)
                    )
                scores = np.exp(np.array(log_scores) - max(log_scores))
                chosen = candidates[sample_index(scores, rng)]
                path = self._materialise(chosen)
                paths[d] = path
                for node in path:
                    node.n_docs += 1
                self._add_doc_counts_from_levels(path, level_counts)

                n_dl = np.zeros(self.levels)
                for level in z:
                    n_dl[level] += 1
                v_beta = vocab_size * self.beta
                for i, w in enumerate(doc):
                    level = z[i]
                    n_dl[level] -= 1
                    path[level].remove_words({w: 1})
                    weights = np.empty(self.levels)
                    for l in range(self.levels):
                        node = path[l]
                        weights[l] = (n_dl[l] + self.alpha) * (
                            (node.word_counts.get(w, 0.0) + self.beta)
                            / (node.total_count + v_beta)
                        )
                    level = sample_index(weights, rng)
                    z[i] = level
                    n_dl[level] += 1
                    path[level].add_words({w: 1})

            self._prune_empty()
            notify_iteration(
                self.iteration_hook, self.name, iteration + 1, self.iterations
            )

        self._freeze(vocab_size)

    def _infer(self, doc: list[int]):
        if not doc or not self._paths_matrix:
            return self._uniform_theta()
        phi = self._node_phi
        word_ids = np.array(doc)
        best_path: list[int] | None = None
        best_score = -np.inf
        for path in self._paths_matrix:
            level_phi = phi[path][:, word_ids]
            score = float(np.log(level_phi.mean(axis=0) + 1e-12).sum())
            if score > best_score:
                best_score = score
                best_path = path
        assert best_path is not None
        return _PathFoldIn(phi[best_path][:, doc].T, self.alpha, best_path)


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
    k=st.integers(1, SCALAR_TOPICS + 12),
    corpus=corpora,
    pooling=st.sampled_from(["NP", "UP"]),
    seed=st.integers(0, 2**32 - 1),
)

#: Topic counts every LDA and BTM parity test runs at: both sides of
#: numpy's eight-term pairwise threshold, of its first split into two
#: blocks of eight, and of the scalar step's limit.
EDGE_KS = sorted({7, 8, 9, 16, 17, SCALAR_TOPICS - 1, SCALAR_TOPICS, SCALAR_TOPICS + 1})
EDGE_CORPUS = [WORDS, ["star", "star", "moon"], [], ["orbit"], WORDS[::-1]]
#: Documents carrying none to three labels (hashtags, question, emoticon).
LABELLED_CORPUS = [["star", "moon"], ["#space", "orbit"], ["#space", "?", "bread", "#food"],
                   ["#food", "?", ":)", "@ann", "rain"]]


def at_edge_ks(**args):
    """One ``@example`` per :data:`EDGE_KS` value, with ``args`` for the rest."""

    def decorate(test):
        for k in EDGE_KS:
            test = example(k=k, **args)(test)
        return test

    return decorate


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
@at_edge_ks(corpus=EDGE_CORPUS, pooling="NP", seed=3)
def test_lda_matches_reference(k, corpus, pooling, seed):
    assert_same_fit(*fit_pair(ReferenceLda, LdaModel, corpus, pooling, seed, n_topics=k))


@settings(max_examples=40, deadline=None)
@given(**common)
@example(k=1, corpus=[["#space", "star", "?"], ["#space", ":)"], ["@ann"]], pooling="NP",
         seed=1)
# Allowed sets of k + 0..3 labels: all within the scalar step's limit,
# straddling it, and all beyond it.
@example(k=SCALAR_TOPICS - 3, corpus=LABELLED_CORPUS, pooling="NP", seed=5)
@example(k=SCALAR_TOPICS - 2, corpus=LABELLED_CORPUS, pooling="NP", seed=5)
@example(k=SCALAR_TOPICS + 1, corpus=LABELLED_CORPUS, pooling="NP", seed=5)
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
@at_edge_ks(corpus=EDGE_CORPUS, pooling="NP", seed=4, max_biterms=None, window=3)
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


def test_hdp_switches_steps_at_the_scalar_limit(monkeypatch):
    # Topics are born and retired across SCALAR_TOPICS: the fit must move
    # from the numpy step to the scalar step and back, and still match.
    steps = []

    def counted(draw, code):
        def wrapper(*args):
            steps.append(code)
            return draw(*args)

        return wrapper

    monkeypatch.setattr(hdp, "draw_scalar", counted(hdp.draw_scalar, "s"))
    monkeypatch.setattr(hdp, "draw_index", counted(hdp.draw_index, "i"))
    corpus = [WORDS * 2, WORDS[::-1], ["star", "moon"], WORDS[:5]]
    reference, model = fit_pair(
        ReferenceHdp, HdpModel, corpus, "NP", 0, initial_topics=SCALAR_TOPICS + 2,
        alpha=5.0, gamma=5.0,
    )
    trace = "".join(steps)
    assert "is" in trace and "si" in trace
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


HELD_OUT = [
    ["star", "moon"],
    ["orbit"],
    [],
    WORDS,
    ["bread", "oven", "yeast", "bread", "stock", "bank", "rain", "wind", "#food"],
    ["unseen", "words", "only"],
]


def fit_hlda_pair(corpus, seed, **params):
    docs = [TextDoc.from_tokens(tokens) for tokens in corpus]
    return [
        model_cls(seed=seed, pooling="NP", infer_iterations=3, **params).fit(docs)
        for model_cls in (ReferenceHlda, HldaModel)
    ]


@settings(max_examples=60, deadline=None)
@given(
    corpus=corpora,
    seed=st.integers(0, 2**32 - 1),
    levels=st.integers(1, 5),
    alpha=st.sampled_from([0.5, 10.0, 20.0]),
    beta=st.sampled_from([0.01, 0.1, 0.5]),
    gamma=st.sampled_from([0.5, 1.0, 5.0]),
    iterations=st.integers(2, 4),
)
@example(corpus=[WORDS, WORDS[::-1], ["star", "moon"] * 5, ["rain"]], seed=6, levels=9,
         alpha=0.5, beta=0.1, gamma=5.0, iterations=3)
def test_hlda_matches_reference(corpus, seed, levels, alpha, beta, gamma, iterations):
    reference, model = fit_hlda_pair(
        corpus, seed, levels=levels, alpha=alpha, beta=beta, gamma=gamma,
        iterations=iterations,
    )
    assert np.array_equal(model._node_phi, reference._node_phi)
    assert model._paths_matrix == reference._paths_matrix
    assert model._rng.bit_generator.state == reference._rng.bit_generator.state
    held_out = [TextDoc.from_tokens(tokens) for tokens in HELD_OUT]
    for got, want in zip(model.represent_many(held_out), reference.represent_many(held_out)):
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    corpus=corpora,
    seed=st.integers(0, 2**32 - 1),
    levels=st.integers(1, 5),
    gamma=st.sampled_from([0.5, 5.0]),
    held_out=st.lists(st.sampled_from(WORDS), min_size=1, max_size=20),
)
def test_hlda_path_scores_match_reference(corpus, seed, levels, gamma, held_out):
    # The walk must give every candidate's score exactly -- not merely
    # scores close enough to draw the same paths -- in candidate order.
    docs = [TextDoc.from_tokens(tokens) for tokens in corpus]
    model = ReferenceHlda(levels=levels, gamma=gamma, iterations=2, seed=seed,
                          pooling="NP").fit(docs)
    # Take one document off a leaf path, as path resampling does, so some
    # nodes may hold no documents.
    node = model._root
    while True:
        node.n_docs -= 1
        if not node.children:
            break
        node = node.children[0]
    doc = model.vocabulary.encode(held_out)
    z = np.random.default_rng(seed).integers(levels, size=len(doc))
    level_counts = model._level_counts(doc, z)
    vocab_size = len(model.vocabulary)

    nodes, scores = HldaModel._path_scores(model, level_counts, vocab_size)
    candidates = list(model._candidate_paths())
    assert scores == [
        log_prior + model._path_log_likelihood(path, level_counts, vocab_size)
        for path, log_prior in candidates
    ]
    deepest = [[n for n in path if n is not None][-1] for path, _ in candidates]
    assert len(nodes) == len(deepest)
    assert all(got is want for got, want in zip(nodes, deepest))


def test_hlda_level_draw_totals_like_numpy_from_eight_levels():
    # numpy's pairwise total departs from a left-to-right sum from eight
    # weights on. Find weights where the two totals differ and a uniform
    # whose draw depends on which one is used: the level draw must pick
    # what the reference's sample_index picks.
    levels, alpha, beta, v_beta = 9, 1.0, 0.1, 0.2
    model = HldaModel(levels=levels, alpha=alpha, beta=beta)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        # Word 0's count per level once the token is taken off level 0,
        # and the other words' counts.
        counts = rng.integers(0, 50, size=levels)
        others = rng.integers(1, 500, size=levels)
        totals = counts + others
        weights = alpha * ((counts + beta) / (totals + v_beta))
        pairwise = float(np.add.reduce(weights))
        sequential = 0.0
        for weight in weights:
            sequential += weight
        if sequential == pairwise:
            continue
        cdf = np.add.accumulate(weights[:-1]).tolist()
        uniforms = [
            u
            for target in cdf
            for u in np.nextafter(target / pairwise, [0.0, 1.0]).tolist() + [target / pairwise]
            if bisect_left(cdf, u * pairwise) != bisect_left(cdf, u * sequential)
        ]
        if uniforms:
            break
    else:
        pytest.fail("no weights tell the two totals apart")

    for uniform in uniforms:
        path = [_Node(node_id=level, level=level, parent=None) for level in range(levels)]
        for level, node in enumerate(path):
            node.add_words({0: int(counts[level]) + (level == 0), 1: int(others[level])})
        z = [0]
        model._resample_levels([0], z, path, [uniform], v_beta)
        assert z == [bisect_left(cdf, uniform * pairwise)]


class ScriptedRng:
    """Generator stand-in: the scripted uniforms first, then a seeded
    generator's draws, and every integer draw from that generator."""

    def __init__(self, seed: int, uniforms: Sequence[float]):
        self._rng = np.random.default_rng(seed)
        self._script = list(uniforms)

    @property
    def bit_generator(self):
        return self._rng.bit_generator

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, size=None):
        n = 1 if size is None else size
        scripted, self._script = self._script[:n], self._script[n:]
        drawn = scripted + self._rng.random(n - len(scripted)).tolist()
        return drawn[0] if size is None else np.array(drawn)


def last_bit_uniforms(weights: np.ndarray) -> list[float]:
    """Two uniforms whose draw from ``weights`` changes when numpy's total
    moves one ulp up (the first) or down (the second)."""
    total = float(np.add.reduce(weights))
    cdf = np.add.accumulate(weights[:-1]).tolist()
    found: dict[float, float] = {}
    for target in cdf:
        for u in np.nextafter(target / total, [0.0, 1.0]).tolist() + [target / total]:
            for direction in (math.inf, 0.0):
                moved = float(np.nextafter(total, direction))
                if bisect_left(cdf, u * total) != bisect_left(cdf, u * moved):
                    found.setdefault(direction, u)
    assert len(found) == 2, "no uniform tells the total from its neighbours"
    return [found[math.inf], found[0.0]]


def assert_first_draw_totals_like_numpy(reference_cls, cls, corpus, **params):
    # The reference's first sample_index call sees the first step's
    # weights. Scripted to sit on a CDF entry, the first uniform draws a
    # different topic if the total is off by one ulp either way, and
    # that topic stays in the one-sweep fit.
    docs = [TextDoc.from_tokens(tokens) for tokens in corpus]

    def fit(model_cls, uniforms):
        model = model_cls(iterations=1, seed=0, pooling="NP", **params)
        model._rng = ScriptedRng(9, uniforms)
        return model.fit(docs)

    seen, draw = [], sample_index
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            sys.modules[__name__], "sample_index",
            lambda weights, rng: seen.append(weights.copy()) or draw(weights, rng),
        )
        fit(reference_cls, [])
    for uniform in last_bit_uniforms(seen[0]):
        assert_same_fit(fit(reference_cls, [uniform]), fit(cls, [uniform]))


STEP_KS = [5, 12, SCALAR_TOPICS, SCALAR_TOPICS + 1]


@pytest.mark.parametrize("k", STEP_KS)
def test_lda_step_totals_like_numpy(k):
    assert_first_draw_totals_like_numpy(ReferenceLda, LdaModel, EDGE_CORPUS, n_topics=k)


@pytest.mark.parametrize("k", STEP_KS)
def test_llda_step_totals_like_numpy(k):
    # The first document carries three labels: its allowed set, the
    # largest, has k topics.
    assert_first_draw_totals_like_numpy(
        ReferenceLlda, LabeledLdaModel, LABELLED_CORPUS[::-1], n_latent_topics=k - 3,
        label_extractor=LabelExtractor(min_hashtag_count=0),
    )


@pytest.mark.parametrize("k", STEP_KS)
def test_btm_step_totals_like_numpy(k):
    assert_first_draw_totals_like_numpy(ReferenceBtm, BitermTopicModel, EDGE_CORPUS, n_topics=k)


def live_nodes(node: _Node) -> int:
    return 1 + sum(live_nodes(child) for child in node.children)


def test_hlda_prunes_and_rebranches():
    # A large gamma on a varied corpus opens and abandons branches every
    # sweep; the walk must follow the tree through both.
    corpus = [WORDS[i:i + 4] * 2 for i in range(0, 12, 2)] + [WORDS, ["star", "?"]]
    docs = [TextDoc.from_tokens(tokens) for tokens in corpus]
    fits = []
    for model_cls in (ReferenceHlda, HldaModel):
        model = model_cls(levels=3, gamma=5.0, iterations=6, seed=11, pooling="NP")
        trace = []
        model.set_iteration_hook(
            lambda it, model=model, trace=trace: trace.append(
                (model._n_nodes, live_nodes(model._root))
            )
        )
        fits.append((model.fit(docs), trace))
    (reference, reference_trace), (model, trace) = fits
    assert trace == reference_trace
    created = [n for n, _ in trace]
    assert created[-1] > created[0]  # new branches after the first sweep
    assert any(live < n for n, live in trace)  # and pruned ones
    assert np.array_equal(model._node_phi, reference._node_phi)
    assert model._rng.bit_generator.state == reference._rng.bit_generator.state


@pytest.mark.parametrize("order", [[[0, 1], [0, 2]], [[0, 2], [0, 1]]])
def test_hlda_infer_keeps_the_first_of_equal_paths(order):
    model = HldaModel(levels=2)
    model._node_phi = np.full((3, 4), 0.25)
    model._paths_matrix = order
    model._path_array = np.array(order)
    model._n_nodes = 3
    for cls in (HldaModel, ReferenceHlda):
        assert cls._infer(model, [0, 3, 3]).path == order[0]


def nan_word_counts(node: _Node, vocab_size: int) -> None:
    for w in range(vocab_size):
        node.word_counts[w] = math.nan


def test_hlda_path_draw_rejects_nan_scores(monkeypatch):
    # NaN word counts at the root make every candidate's log score NaN.
    model = HldaModel(levels=1, iterations=2, seed=0, pooling="NP")
    sample_initial_path = model._sample_initial_path

    def poisoned(rng):
        path = sample_initial_path(rng)
        nan_word_counts(path[0], len(model.vocabulary))
        return path

    monkeypatch.setattr(model, "_sample_initial_path", poisoned)
    with pytest.raises(SamplingWeightsError, match="HLDA training weights"):
        model.fit([TextDoc.from_tokens(("star", "moon", "star"))])


def test_hlda_level_draw_rejects_nan_weights(monkeypatch):
    # Poisoned after the path draw, the root's NaN counts reach only the
    # level weights.
    model = HldaModel(levels=3, iterations=1, seed=0, pooling="NP")
    materialise = model._materialise

    def poisoned(node):
        path = materialise(node)
        nan_word_counts(path[0], len(model.vocabulary))
        return path

    monkeypatch.setattr(model, "_materialise", poisoned)
    with pytest.raises(SamplingWeightsError, match="HLDA level weights"):
        model.fit([TextDoc.from_tokens(("star", "moon", "star"))])


def test_hdp_topic_draw_rejects_nan_weights():
    # A NaN η makes every topic-word factor NaN; the topic draw used to
    # fall back to a uniform draw and carry on.
    model = HdpModel(initial_topics=3, iterations=1, seed=0, pooling="NP")
    model.eta = math.nan
    with pytest.raises(SamplingWeightsError, match="HDP training weights"):
        model.fit([TextDoc.from_tokens(("star", "moon", "star"))])


def test_hlda_initial_path_rejects_nan_weights():
    # A NaN γ makes the root's new-branch weight NaN. The first document's
    # initial path draw is the first to read it; it used to fall back to a
    # uniform draw, and only the first sweep's path draw raised.
    model = HldaModel(levels=2, iterations=1, seed=0, pooling="NP")
    model.gamma = math.nan
    with pytest.raises(SamplingWeightsError, match="HLDA training weights") as raised:
        model.fit([TextDoc.from_tokens(("star", "moon", "star"))])
    assert any(entry.name == "_sample_initial_path" for entry in raised.traceback)


@pytest.mark.xfail(strict=True, reason="nCRP denominator subtracts the resampled "
                   "document twice (ROADMAP item 3)")
def test_hlda_branch_weights_sum_to_one():
    corpus = [TextDoc.from_tokens(tuple(WORDS[i:i + 5])) for i in range(0, 12, 2)]
    model = HldaModel(levels=3, iterations=4, seed=2, pooling="NP", gamma=1.0).fit(corpus)
    internal = [model._root] + [c for c in model._root.children if c.children]
    for node in internal:
        children, new = model._branch_weights(node)
        assert math.isclose(math.fsum(children) + new, 1.0)


# -- pinned fits ----------------------------------------------------------------

#: SHA-256 over the float64 bytes of φ (then BTM's corpus θ, HDP's stick
#: weights or HLDA's leaf paths) after ten sweeps on the first 400
#: tweets of ``small_dataset``, user-pooled unless noted. Taken while
#: every training step still drew through numpy; the scalar step (K <=
#: SCALAR_TOPICS, and LLDA's NP fits, whose allowed sets hold at most 9
#: and 15 topics) must reproduce them. HDP's and HLDA's were taken while
#: HDP's topic draw and HLDA's initial path draw still fell back to a
#: uniform draw on degenerate weights instead of raising.
PINNED_FITS = [
    (LdaModel, dict(n_topics=6),
     "0bbf3e5ea5bb212a8bbdffe020fdf739659a8fbf7b87b2d784fb6d9f9d14b9a0"),
    (LdaModel, dict(n_topics=12),
     "6a3a11c51c26df0e44abeaf86e2de78af2643e8fbaa0cd9f26b5594ad22521ad"),
    (LdaModel, dict(n_topics=50),
     "99c2e27fe33c478c82b5bfde04190ec2b91dad696d4e645482e928527f6d969a"),
    (LabeledLdaModel, dict(n_latent_topics=6, pooling="NP"),
     "2dc676d0381961ca7a6f96767e88f46047e2358e01878ea9ec830646dfc2ed98"),
    (LabeledLdaModel, dict(n_latent_topics=12, pooling="NP"),
     "15dc9d693c1348ed8c43df9c2ea18417d2215439e93f94685d7f74fa31a640f9"),
    (LabeledLdaModel, dict(n_latent_topics=50),
     "e9d3d3a016af2016fba9e60fb35ae6974c64d744963a9fb64ff326cf43c7882d"),
    (BitermTopicModel, dict(n_topics=6, max_biterms=4000),
     "fe928fadd86dc10ce5ee4eea2c83cde0a87b7b61517f261b4389319abcdfe852"),
    (BitermTopicModel, dict(n_topics=12, max_biterms=4000),
     "3cd111fa8822d61f02f743219e71ec2353268a59cad3a4624ff7cdd44c162ca4"),
    (BitermTopicModel, dict(n_topics=50, max_biterms=4000),
     "8ffc2a8c7d9c2d977b10e51ac7d56ddaa134f7f1adbc0464815f0d1fb4d32ab0"),
    (HdpModel, dict(initial_topics=10),
     "4afeead629c8076080025e50981b74b11ec2dfde7c94222bf23b8ad0be41de08"),
    (HldaModel, dict(levels=3),
     "72115e86d3d271a873051b3a414811cb49850b6a002615d61649a9b6b39b5ebf"),
]


@pytest.mark.parametrize(
    "cls, params, digest", PINNED_FITS,
    ids=[f"{cls.name}-{'-'.join(map(str, params.values()))}" for cls, params, _ in PINNED_FITS],
)
def test_fit_matches_pinned_digest(small_dataset, cls, params, digest):
    tweets = small_dataset.tweets[:400]
    docs = [TextDoc.from_tokens(tuple(tweet.text.split())) for tweet in tweets]
    model = cls(iterations=10, seed=3, **{"pooling": "UP", **params})
    model.fit(docs, user_ids=[str(tweet.author_id) for tweet in tweets])
    phi = model._node_phi if cls is HldaModel else model.phi
    h = hashlib.sha256(np.ascontiguousarray(phi).tobytes())
    if cls is BitermTopicModel:
        h.update(model.corpus_theta.tobytes())
    if cls is HdpModel:
        h.update(model.stick_weights.tobytes())
    if cls is HldaModel:
        h.update(np.array(model._paths_matrix).tobytes())
    assert h.hexdigest() == digest
