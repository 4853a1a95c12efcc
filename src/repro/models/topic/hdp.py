"""Hierarchical Dirichlet Process topic model (direct-assignment Gibbs).

HDP (Teh et al. 2006) is the Bayesian nonparametric counterpart of LDA:
the number of topics is unbounded and inferred from data. Each document
``d`` draws its topic mixture from ``DP(α, G0)`` where the base measure
``G0 ~ DP(γ, Dir(β))`` is shared across documents, so documents share a
common, growing topic inventory.

This implementation is the standard *direct assignment* collapsed Gibbs
sampler:

* token update: ``p(z_i = k) ∝ (n_dk + α·β_k) f_k(w_i)`` for existing
  topics and ``p(new) ∝ α·β_u / V`` for a fresh topic, where ``β`` is the
  global stick over topics, ``β_u`` the unbroken remainder and
  ``f_k(w) = (n_kw + η) / (n_k + Vη)``;
* after each sweep the per-document table counts ``m_dk`` are resampled
  via Antoniak draws and the stick ``β`` is resampled from
  ``Dirichlet(m_·1, …, m_·K, γ)``;
* topics that lose all tokens are retired, returning their stick mass to
  ``β_u``.

At inference time the topic inventory is frozen: fold-in Gibbs with the
learned ``φ`` and the asymmetric prior ``α·β_k``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import add, mul, truediv

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.models.topic.base import TopicModel
from repro.models.topic.gibbs import (
    SCALAR_TOPICS,
    FoldIn,
    draw_index,
    draw_scalar,
    notify_iteration,
    sample_crp_tables,
)

__all__ = ["HdpModel"]


class HdpModel(TopicModel):
    """**HDP** -- nonparametric topic model.

    Parameters
    ----------
    alpha:
        Document-level concentration (paper: 1.0).
    gamma:
        Corpus-level concentration (paper: 1.0).
    eta:
        Topic-word Dirichlet prior ``β`` in the paper's Table 4 grid
        ({0.1, 0.5}); named ``eta`` here to avoid clashing with the
        stick weights.
    initial_topics:
        Topics instantiated at initialisation; the sampler grows and
        shrinks this freely.
    max_topics:
        Hard safety cap on the topic inventory.
    """

    name = "HDP"

    def __init__(
        self,
        alpha: float = 1.0,
        gamma: float = 1.0,
        eta: float = 0.1,
        initial_topics: int = 10,
        max_topics: int = 256,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if not all(math.isfinite(x) and x > 0 for x in (alpha, gamma, eta)):
            raise ConfigurationError("alpha, gamma and eta must all be finite and > 0")
        if initial_topics < 1 or max_topics < initial_topics:
            raise ConfigurationError(
                f"need 1 <= initial_topics <= max_topics, got {initial_topics}, {max_topics}"
            )
        self.alpha = alpha
        self.gamma = gamma
        self.eta = eta
        self.initial_topics = initial_topics
        self.max_topics = max_topics
        self._phi: np.ndarray | None = None  # K x V
        self._beta_weights: np.ndarray | None = None  # K (sticks, re-normalised)

    @property
    def n_topics(self) -> int:
        if self._phi is None:
            return self.initial_topics
        return self._phi.shape[0]

    @property
    def phi(self) -> np.ndarray:
        if self._phi is None:
            raise NotFittedError("HdpModel.fit was never called")
        return self._phi

    @property
    def stick_weights(self) -> np.ndarray:
        """Global topic weights ``β`` (normalised over active topics)."""
        if self._beta_weights is None:
            raise NotFittedError("HdpModel.fit was never called")
        return self._beta_weights

    def _train(self, docs: list[list[int]], raw_docs: list[Sequence[str]]) -> None:
        vocab_size = len(self.vocabulary)
        rng = self._rng
        alpha = self.alpha

        # Topics are numbered by their position among the active topics:
        # a new topic takes the next position, and retiring topics shifts
        # the survivors down in order.
        counts = _HdpCounts(
            docs,
            [rng.integers(self.initial_topics, size=len(doc)) for doc in docs],
            self.initial_topics,
            self.max_topics,
            vocab_size,
            self.eta,
        )
        # Stick weights over the active topics plus the unbroken tail.
        beta = rng.dirichlet(np.ones(self.initial_topics + 1) * self.gamma)
        n_tokens = sum(map(len, docs))

        for iteration in range(self.iterations):
            prior = (alpha * beta[:-1]).tolist()
            new = float(alpha * beta[-1] / vocab_size)
            for doc, z, doc_counts in zip(docs, counts.topics, counts.doc_counts):
                factors = counts.doc_factors(doc_counts, prior)
                for i, w in enumerate(doc):
                    topic = z[i]
                    count = doc_counts[topic] - 1
                    doc_counts[topic] = count
                    factors[topic] = count + prior[topic]
                    counts.move(topic, w, -1)
                    if counts.scalar:
                        weights = list(map(mul, factors, map(
                            truediv, counts.word_rows[w], counts.denominators
                        )))
                        weights.append(new)
                        choice = draw_scalar(weights, rng.random(), self.name)
                    else:
                        np.divide(counts.word_rows[w], counts.denominators, counts.f_k)
                        np.multiply(factors, counts.f_k, counts.head)
                        counts.weights[-1] = new
                        choice = draw_index(counts.weights, rng.random(), self.name)

                    n_active = len(counts.topic_counts)
                    if choice == n_active and n_active < self.max_topics:
                        # Instantiate a fresh topic; split the remaining stick.
                        b = rng.beta(1.0, self.gamma)
                        beta = np.append(beta[:-1], [beta[-1] * b, beta[-1] * (1.0 - b)])
                        prior = (alpha * beta[:-1]).tolist()
                        new = float(alpha * beta[-1] / vocab_size)
                        counts.add_topic()
                        factors = counts.doc_factors(doc_counts, prior)
                        topic = n_active
                    else:
                        topic = min(choice, n_active - 1)

                    z[i] = topic
                    count = doc_counts[topic] + 1
                    doc_counts[topic] = count
                    factors[topic] = count + prior[topic]
                    counts.move(topic, w, 1)

            # Retire empty topics, returning their stick mass to the tail.
            empty = [j for j, count in enumerate(counts.topic_counts) if count == 0]
            if empty:
                freed = beta[empty].sum()
                keep = [j for j, count in enumerate(counts.topic_counts) if count]
                counts.keep_topics(keep)
                beta = np.append(beta[keep], beta[-1] + freed)

            # Resample the global stick from the table counts (Antoniak draws).
            m_k = np.zeros(len(counts.topic_counts))
            for doc_counts in counts.doc_counts:
                for j, count in enumerate(doc_counts):
                    if count > 0:
                        m_k[j] += sample_crp_tables(count, alpha * beta[j], rng)
            m_k = np.maximum(m_k, 1e-3)  # guard against degenerate Dirichlet params
            beta = rng.dirichlet(np.append(m_k, self.gamma))
            notify_iteration(
                self.iteration_hook, self.name, iteration + 1, self.iterations,
                steps=n_tokens,
            )

        self._phi = counts.phi()
        weights = beta[:-1]
        self._beta_weights = weights / weights.sum()

    def _infer(self, doc: list[int]) -> np.ndarray | FoldIn:
        if self._phi is None or self._beta_weights is None:
            raise NotFittedError("HdpModel.fit was never called")
        if not doc:
            return self._uniform_theta()
        return FoldIn(self._phi[:, doc].T, self.alpha * self._beta_weights)

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info.update(alpha=self.alpha, gamma=self.gamma, eta=self.eta)
        return info


class _HdpCounts:
    """HDP's word and topic counts over the active topics, by position.

    The counts are Python lists (word-major: ``word_counts[w][j]``);
    beside them the smoothed factors ``word_rows[w]`` (``n_kw + η``) and
    ``denominators`` (``n_k + Vη``) are kept, and a count change
    recomputes only its own entry.

    While at most :data:`~repro.models.topic.gibbs.SCALAR_TOPICS` topics
    are active (``scalar``), the factors are lists of Python floats and
    a token's topic is drawn with
    :func:`~repro.models.topic.gibbs.draw_scalar`. With more, they are
    views over arrays whose capacity doubles as topics are born (so a
    fit that stays near its initial topic count never fills
    ``max_topics``-wide tables), ``f_k`` and ``head`` are views too, and
    ``weights`` is ``head`` plus one entry for a new topic, drawn with
    :func:`~repro.models.topic.gibbs.draw_index`. Both draws give the
    same index. The factors are rebuilt from the counts whenever the
    form changes, and the views whenever the number of topics changes.
    """

    def __init__(
        self,
        docs: list[list[int]],
        topics: Sequence[np.ndarray],
        n_topics: int,
        max_topics: int,
        vocab_size: int,
        eta: float,
    ):
        self.max_topics = max_topics
        self.eta = eta
        self.v_eta = vocab_size * eta
        self.topics = [z.tolist() for z in topics]
        self.doc_counts = [[0] * n_topics for _ in docs]
        self.word_counts = [[0] * n_topics for _ in range(vocab_size)]
        self.topic_counts = [0] * n_topics
        for doc, z, counts in zip(docs, self.topics, self.doc_counts):
            for w, topic in zip(doc, z):
                counts[topic] += 1
                self.word_counts[w][topic] += 1
                self.topic_counts[topic] += 1
        self._capacity = 0
        self._refill()

    def _allocate(self, capacity: int) -> None:
        self._capacity = capacity
        self._word_factors = np.empty((len(self.word_counts), capacity))
        self._denominators = np.empty(capacity)
        self._weights = np.empty(capacity + 1)
        self._f_k = np.empty(capacity)

    def _refill(self) -> None:
        """Recompute the smoothed factors from the counts."""
        n_active = len(self.topic_counts)
        word_factors = np.array(self.word_counts, dtype=float).reshape(
            len(self.word_counts), n_active
        ) + self.eta
        denominators = np.array(self.topic_counts, dtype=float) + self.v_eta
        self.scalar = n_active <= SCALAR_TOPICS
        if self.scalar:
            self.word_rows = word_factors.tolist()
            self.denominators = denominators.tolist()
            return
        if self._capacity < n_active:
            self._allocate(min(2 * n_active, self.max_topics))
        self._word_factors[:, :n_active] = word_factors
        self._denominators[:n_active] = denominators
        self._views()

    def doc_factors(self, doc_counts: list[int], prior: list[float]) -> list[float] | np.ndarray:
        """``n_dk + α·β_k`` for one document, in the factors' form."""
        if self.scalar:
            return list(map(add, doc_counts, prior))
        return np.array(doc_counts, dtype=float) + prior

    def _views(self) -> None:
        n_active = len(self.topic_counts)
        self.word_rows = list(self._word_factors[:, :n_active])
        self.denominators = self._denominators[:n_active]
        self.f_k = self._f_k[:n_active]
        self.weights = self._weights[: n_active + 1]
        self.head = self.weights[:-1]

    def move(self, topic: int, w: int, step: int) -> None:
        """Add ``step`` to word ``w``'s and ``topic``'s counts."""
        row = self.word_counts[w]
        count = row[topic] + step
        row[topic] = count
        self.word_rows[w][topic] = count + self.eta
        count = self.topic_counts[topic] + step
        self.topic_counts[topic] = count
        self.denominators[topic] = count + self.v_eta

    def add_topic(self) -> None:
        """Append an empty topic at the next position."""
        topic = len(self.topic_counts)
        for counts in self.doc_counts:
            counts.append(0)
        for row in self.word_counts:
            row.append(0)
        self.topic_counts.append(0)
        if self.scalar and topic < SCALAR_TOPICS:
            for row in self.word_rows:
                row.append(self.eta)
            self.denominators.append(self.v_eta)
            return
        if self.scalar or topic == self._capacity:
            self._refill()
            return
        self._word_factors[:, topic] = self.eta
        self._denominators[topic] = self.v_eta
        self._views()

    def keep_topics(self, keep: list[int]) -> None:
        """Keep only the topics at positions ``keep``, renumbered in order."""
        position = {old: new for new, old in enumerate(keep)}
        for z in self.topics:
            z[:] = [position[topic] for topic in z]
        self.doc_counts = [[counts[j] for j in keep] for counts in self.doc_counts]
        self.word_counts = [[row[j] for j in keep] for row in self.word_counts]
        self.topic_counts = [self.topic_counts[j] for j in keep]
        self._refill()

    def phi(self) -> np.ndarray:
        """Topic-word distributions (K x V) of the active topics."""
        n_active = len(self.topic_counts)
        if self.scalar:
            word_factors = np.array(self.word_rows, dtype=float).reshape(
                len(self.word_rows), n_active
            )
        else:
            word_factors = self._word_factors[:, :n_active]
        return np.ascontiguousarray((word_factors / np.asarray(self.denominators)).T)
