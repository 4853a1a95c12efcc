"""Labeled LDA trained with constrained collapsed Gibbs sampling.

Labeled LDA (Ramage et al. 2009) is a supervised LDA variant: every
document carries a set of observed labels, and its words may only be
assigned to topics corresponding to those labels. Following the paper
(and Ramage et al. 2010), each document's topic set is the union of

* its observed labels (hashtags, question mark, emoticon classes,
  ``@user`` -- see :mod:`repro.models.topic.labels`), and
* ``K`` shared latent topics ``Topic 1 … Topic K`` available to all
  documents.

The Gibbs update is the LDA update restricted to the document's allowed
topics. At inference time a new document has no observed labels, so its
distribution spans the full topic set with the same restricted sampler
relaxed to all topics; its mass naturally concentrates on the latent
topics plus any label topics whose words it shares.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.models.topic.base import TopicModel
from repro.models.topic.gibbs import FoldIn, LdaCounts, notify_iteration
from repro.models.topic.labels import LabelExtractor

__all__ = ["LabeledLdaModel"]


class LabeledLdaModel(TopicModel):
    """**LLDA** -- Labeled LDA with latent background topics.

    Parameters
    ----------
    n_latent_topics:
        Number of shared latent topics added to every document's label
        set (paper grid: 50/100/150/200).
    alpha, beta:
        Dirichlet priors; ``alpha=None`` selects ``50 / K_total`` after
        the label vocabulary is known.
    label_extractor:
        Source of observed labels; defaults to the paper's configuration.
    """

    name = "LLDA"

    def __init__(
        self,
        n_latent_topics: int = 50,
        alpha: float | None = None,
        beta: float = 0.01,
        label_extractor: LabelExtractor | None = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if n_latent_topics < 1:
            raise ConfigurationError(f"n_latent_topics must be >= 1, got {n_latent_topics}")
        if not all(math.isfinite(x) and x > 0 for x in (alpha, beta) if x is not None):
            raise ConfigurationError("alpha and beta must both be finite and > 0")
        self.n_latent_topics = n_latent_topics
        self._alpha_param = alpha
        self.beta = beta
        self.label_extractor = label_extractor or LabelExtractor()
        self.alpha: float | None = alpha
        self._topic_names: list[str] = []
        self._phi: np.ndarray | None = None

    @property
    def n_topics(self) -> int:
        if not self._topic_names:
            return self.n_latent_topics
        return len(self._topic_names)

    @property
    def topic_names(self) -> tuple[str, ...]:
        return tuple(self._topic_names)

    @property
    def phi(self) -> np.ndarray:
        if self._phi is None:
            raise NotFittedError("LabeledLdaModel.fit was never called")
        return self._phi

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

        counts = LdaCounts(
            docs,
            [choices[rng.integers(len(choices), size=len(doc))]
             for doc, choices in zip(docs, allowed)],
            k,
            vocab_size,
            self.alpha,
            self.beta,
            allowed,
        )
        for iteration in range(self.iterations):
            counts.sweep(rng, self.name)
            notify_iteration(
                self.iteration_hook, self.name, iteration + 1, self.iterations,
                steps=counts.n_tokens,
            )

        self._phi = counts.phi()

    def _infer(self, doc: list[int]) -> np.ndarray | FoldIn:
        if self._phi is None:
            raise NotFittedError("LabeledLdaModel.fit was never called")
        if not doc:
            return self._uniform_theta()
        return FoldIn(self._phi[:, doc].T, self.alpha)

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info.update(n_latent_topics=self.n_latent_topics, beta=self.beta)
        return info
