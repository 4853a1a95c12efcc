"""Latent Dirichlet Allocation trained with collapsed Gibbs sampling.

LDA (Blei, Ng & Jordan 2003) models each document as a Dirichlet-drawn
mixture over ``K`` topics, each topic as a Dirichlet-drawn distribution
over the vocabulary. This implementation is the standard collapsed Gibbs
sampler (Griffiths & Steyvers 2004):

    p(z_i = k | ...) ∝ (n_dk + α) · (n_kw + β) / (n_k + Vβ)

where counts exclude token ``i``. Hyperparameter defaults follow the
paper's tuning (Steyvers & Griffiths 2007): ``α = 50 / K``, ``β = 0.01``.

Unseen documents are folded in by running the same sampler with the
topic-word counts frozen (:func:`~repro.models.topic.gibbs.fold_in`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.models.topic.base import TopicModel
from repro.models.topic.gibbs import FoldIn, LdaCounts, notify_iteration

__all__ = ["LdaModel"]


class LdaModel(TopicModel):
    """**LDA** with collapsed Gibbs sampling.

    Parameters
    ----------
    n_topics:
        Number of latent topics ``K`` (paper grid: 50/100/150/200).
    alpha:
        Symmetric document-topic prior; ``None`` selects the paper's
        ``50 / K``.
    beta:
        Symmetric topic-word prior (paper: 0.01).
    """

    name = "LDA"

    def __init__(
        self,
        n_topics: int = 50,
        alpha: float | None = None,
        beta: float = 0.01,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if n_topics < 1:
            raise ConfigurationError(f"n_topics must be >= 1, got {n_topics}")
        self._n_topics = n_topics
        self.alpha = 50.0 / n_topics if alpha is None else alpha
        self.beta = beta
        if not all(math.isfinite(x) and x > 0 for x in (self.alpha, beta)):
            raise ConfigurationError("alpha and beta must both be finite and > 0")
        self._phi: np.ndarray | None = None  # K x V topic-word distributions

    @property
    def n_topics(self) -> int:
        return self._n_topics

    @property
    def phi(self) -> np.ndarray:
        """Topic-word distributions (K x V); available after fit."""
        if self._phi is None:
            raise NotFittedError("LdaModel.fit was never called")
        return self._phi

    # -- training -----------------------------------------------------------

    def _train(self, docs: list[list[int]], raw_docs: list[Sequence[str]]) -> None:
        k = self._n_topics
        rng = self._rng
        counts = LdaCounts(
            docs,
            [rng.integers(k, size=len(doc)) for doc in docs],
            k,
            len(self.vocabulary),
            self.alpha,
            self.beta,
        )
        for iteration in range(self.iterations):
            counts.sweep(rng, self.name)
            notify_iteration(
                self.iteration_hook, self.name, iteration + 1, self.iterations,
                self._corpus_log_likelihood(docs, *counts.count_arrays(), counts.v_beta)
                if self.iteration_hook is not None else None,
                steps=counts.n_tokens,
            )

        self._phi = counts.phi()

    def _corpus_log_likelihood(
        self,
        docs: list[list[int]],
        n_dk: np.ndarray,
        n_kw: np.ndarray,
        n_k: np.ndarray,
        v_beta: float,
    ) -> float:
        """Corpus log p(w | theta-hat, phi-hat) under the current counts.

        Only evaluated when an iteration hook is installed; the point
        estimates use the same smoothing as the final ``phi``.
        """
        phi = (n_kw + self.beta) / (n_k[:, None] + v_beta)
        ll = 0.0
        for d, doc in enumerate(docs):
            if not doc:
                continue
            theta = n_dk[d] + self.alpha
            theta = theta / theta.sum()
            probs = theta @ phi[:, doc]
            ll += float(np.log(np.maximum(probs, 1e-300)).sum())
        return ll

    # -- inference ------------------------------------------------------------

    def _infer(self, doc: list[int]) -> np.ndarray | FoldIn:
        if self._phi is None:
            raise NotFittedError("LdaModel.fit was never called")
        if not doc:
            return self._uniform_theta()
        return FoldIn(self._phi[:, doc].T, self.alpha)

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info.update(n_topics=self._n_topics, alpha=round(self.alpha, 4), beta=self.beta)
        return info
