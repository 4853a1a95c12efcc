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

from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.models.topic.base import TopicModel
from repro.models.topic.gibbs import FoldIn, notify_iteration, sample_crp_tables, sample_index

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
        if min(alpha, gamma, eta) <= 0:
            raise ConfigurationError("alpha, gamma and eta must all be > 0")
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
