"""Biterm Topic Model trained with collapsed Gibbs sampling.

BTM (Yan et al. 2013; Cheng et al. 2014) tackles short-text sparsity
(Challenge C1) by modelling *biterms* -- unordered word pairs co-occurring
within a context window -- over the whole corpus instead of per-document
word occurrences. The generative story: a single corpus-level topic
mixture ``θ`` over ``K`` topics; each biterm draws a topic ``z`` then two
words from ``φ_z``.

Collapsed Gibbs update for biterm ``b = (w1, w2)``:

    p(z = k | ...) ∝ (n_k + α) · (n_kw1 + β)(n_kw2 + β) / (n_k· + Vβ)²

Documents have no generative role; a document's distribution is inferred
post hoc as ``P(z|d) = Σ_b P(z|b) · P(b|d)`` with ``P(z|b) ∝ θ_z φ_zw1
φ_zw2`` and ``P(b|d)`` the empirical biterm frequency in ``d``.
:meth:`BitermTopicModel._infer_chunk` does this for a chunk of
documents in one array pass. Each sum is taken in a fixed order: a
biterm's ``Σ_z`` pairwise, as numpy sums one row, and a document's
``Σ_b`` one biterm after another. So a document's distribution does
not depend on the other documents of its chunk.

Window convention (paper Section 4): for individual tweets the window is
the whole tweet; for long pooled pseudo-documents the window ``r`` caps
the token distance within a biterm (paper: ``r = 30``).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import chain
from operator import mul, truediv

import numpy as np

from repro.errors import ConfigurationError, NotFittedError, SamplingWeightsError
from repro.models.topic.base import TopicModel
from repro.models.topic.gibbs import SCALAR_TOPICS, draw_index, draw_scalar, notify_iteration
from repro.text.pooling import PoolingScheme

__all__ = ["BitermTopicModel", "extract_biterms"]

Biterm = tuple[int, int]


def extract_biterms(doc: Sequence[int], window: int | None) -> Iterator[Biterm]:
    """Yield the biterms of an encoded document.

    ``window=None`` means "whole document" (the convention for individual
    tweets); otherwise two words form a biterm when their positions are at
    most ``window`` apart. Biterms are unordered: ``(w1, w2)`` is stored
    with ``w1 <= w2``.
    """
    n = len(doc)
    for i in range(n):
        limit = n if window is None else min(n, i + window + 1)
        for j in range(i + 1, limit):
            a, b = doc[i], doc[j]
            yield (a, b) if a <= b else (b, a)


class BitermTopicModel(TopicModel):
    """**BTM** -- topics over corpus-level biterms.

    Parameters
    ----------
    n_topics:
        Number of topics ``K``.
    alpha, beta:
        Dirichlet priors (paper: ``α = 50/K``, ``β = 0.01``).
    window:
        Biterm context window for pooled pseudo-documents (paper:
        ``r = 30``). With no pooling the whole (short) tweet is the
        window, matching the paper's convention.
    max_biterms:
        Optional cap on the number of training biterms; when exceeded, a
        uniform subsample is used. The paper has no such cap -- it ran
        for days on a 32-core server -- but corpus-level biterm counts
        grow quadratically with pseudo-document length, so benchmark
        configurations cap them to stay tractable.
    """

    name = "BTM"

    def __init__(
        self,
        n_topics: int = 50,
        alpha: float | None = None,
        beta: float = 0.01,
        window: int = 30,
        max_biterms: int | None = None,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if n_topics < 1:
            raise ConfigurationError(f"n_topics must be >= 1, got {n_topics}")
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if max_biterms is not None and max_biterms < 1:
            raise ConfigurationError(f"max_biterms must be >= 1, got {max_biterms}")
        self._n_topics = n_topics
        self.alpha = 50.0 / n_topics if alpha is None else alpha
        self.beta = beta
        if not all(math.isfinite(x) and x > 0 for x in (self.alpha, beta)):
            raise ConfigurationError("alpha and beta must both be finite and > 0")
        self.window = window
        self.max_biterms = max_biterms
        self._phi: np.ndarray | None = None  # K x V
        self._theta: np.ndarray | None = None  # corpus-level K

    @property
    def n_topics(self) -> int:
        return self._n_topics

    @property
    def phi(self) -> np.ndarray:
        if self._phi is None:
            raise NotFittedError("BitermTopicModel.fit was never called")
        return self._phi

    @property
    def corpus_theta(self) -> np.ndarray:
        """The corpus-level topic mixture ``θ``."""
        if self._theta is None:
            raise NotFittedError("BitermTopicModel.fit was never called")
        return self._theta

    def _training_window(self) -> int | None:
        """Whole-tweet window under NP, capped window for pooled docs."""
        return None if self.pooling is PoolingScheme.NONE else self.window

    def _train(self, docs: list[list[int]], raw_docs: list[Sequence[str]]) -> None:
        vocab_size = len(self.vocabulary)
        k = self._n_topics
        rng = self._rng
        window = self._training_window()

        biterms: list[Biterm] = [b for doc in docs for b in extract_biterms(doc, window)]
        if self.max_biterms is not None and len(biterms) > self.max_biterms:
            picks = rng.choice(len(biterms), size=self.max_biterms, replace=False)
            biterms = [biterms[i] for i in picks]
        z_assign = rng.integers(k, size=len(biterms)).tolist()
        # Counts as lists; beside them the smoothed factors n_z + α,
        # n_kw + β (word-major, V x K) and (2 n_z + Vβ)(2 n_z + Vβ + 1),
        # where a count change recomputes only its own entry. With few
        # topics the factors are Python floats for draw_scalar, else
        # numpy rows for draw_index.
        n_z = [0] * k
        n_wk = [[0] * k for _ in range(vocab_size)]
        for (w1, w2), topic in zip(biterms, z_assign):
            n_z[topic] += 1
            n_wk[w1][topic] += 1
            n_wk[w2][topic] += 1
        alpha, beta = self.alpha, self.beta
        v_beta = vocab_size * beta
        scalar = k <= SCALAR_TOPICS
        topic_factors = np.array(n_z, dtype=float) + alpha
        word_factors = np.array(n_wk, dtype=float).reshape(vocab_size, k) + beta
        totals = 2.0 * np.array(n_z, dtype=float) + v_beta
        denominators = totals * (totals + 1.0)
        if scalar:
            topic_factors, denominators = topic_factors.tolist(), denominators.tolist()
            word_rows = word_factors.tolist()
        else:
            word_rows = list(word_factors)
        buffer = np.empty(k)

        # The count moves are written out, not called: with a few topics
        # a call per move costs a tenth of the step.
        for iteration in range(self.iterations):
            draws = rng.random(len(biterms)).tolist()
            for i, (w1, w2) in enumerate(biterms):
                counts1, counts2 = n_wk[w1], n_wk[w2]
                factors1, factors2 = word_rows[w1], word_rows[w2]
                topic = z_assign[i]
                count = n_z[topic] - 1
                n_z[topic] = count
                topic_factors[topic] = count + alpha
                total = 2.0 * count + v_beta
                denominators[topic] = total * (total + 1.0)
                count = counts1[topic] - 1
                counts1[topic] = count
                factors1[topic] = count + beta
                count = counts2[topic] - 1
                counts2[topic] = count
                factors2[topic] = count + beta
                if scalar:
                    weights = list(map(truediv, map(mul, map(mul, topic_factors, factors1),
                                                    factors2), denominators))
                    topic = draw_scalar(weights, draws[i], self.name)
                else:
                    np.multiply(topic_factors, factors1, buffer)
                    np.multiply(buffer, factors2, buffer)
                    np.divide(buffer, denominators, buffer)
                    topic = draw_index(buffer, draws[i], self.name)
                z_assign[i] = topic
                count = n_z[topic] + 1
                n_z[topic] = count
                topic_factors[topic] = count + alpha
                total = 2.0 * count + v_beta
                denominators[topic] = total * (total + 1.0)
                count = counts1[topic] + 1
                counts1[topic] = count
                factors1[topic] = count + beta
                count = counts2[topic] + 1
                counts2[topic] = count
                factors2[topic] = count + beta
            notify_iteration(
                self.iteration_hook, self.name, iteration + 1, self.iterations,
                steps=len(biterms),
            )

        counts = np.array(n_z, dtype=float)
        word_factors = np.array(n_wk, dtype=float).reshape(vocab_size, k) + beta
        self._phi = np.ascontiguousarray((word_factors / (2.0 * counts + v_beta)).T)
        topic_factors = counts + alpha
        self._theta = topic_factors / topic_factors.sum()

    def _weight_count(self, doc: list[int]) -> int:
        """One K-wide row per biterm of ``doc``, or per word without one."""
        n = len(doc)
        return (n * (n - 1) // 2 or n) * self._n_topics

    def _infer_chunk(self, encoded: list[list[int]]) -> list[np.ndarray]:
        """``P(z|d) = Σ_b P(z|b) P(b|d)`` for every document -- no sampling.

        Each biterm's row ``θ · φ[:, w1] · φ[:, w2]`` (``w1 <= w2``) is
        gathered for the whole chunk into one (biterms x K) array and
        divided by its total, summed pairwise as numpy sums one row;
        a zero total adds nothing. A document's rows, scaled by its
        ``P(b|d)``, are added into its ``θ`` one after another in
        biterm order (``np.add.at``), and ``θ`` is divided by its total.
        A single-word document has no biterms: its ``θ`` before
        division is its word's row, ``θ · φ[:, w]``. A document whose
        total is zero (no in-vocabulary word) gets the uniform
        distribution. A total that is not finite raises
        :class:`SamplingWeightsError`.
        """
        if self._phi is None or self._theta is None:
            raise NotFittedError("BitermTopicModel.fit was never called")
        k = self._n_topics
        word_phi = self._phi.T  # V x K
        lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
        tokens = np.fromiter(chain.from_iterable(encoded), dtype=np.intp)
        sums = np.zeros((len(encoded), k))

        # Every pair of positions (i, j), i < j, of each document, in
        # extract_biterms' order: position i is the first word of the
        # n - 1 - i biterms that follow it.
        doc_of = np.repeat(np.arange(len(encoded)), lengths)
        starts = np.cumsum(lengths) - lengths
        follow = lengths[doc_of] - 1 - (np.arange(len(tokens)) - starts[doc_of])
        first = np.repeat(np.arange(len(tokens)), follow)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(follow) - follow, follow)
        left, right = tokens[first], tokens[second]
        w1, w2 = np.minimum(left, right), np.maximum(left, right)
        owner = doc_of[first]
        rows = self._theta * word_phi[w1]
        rows *= word_phi[w2]
        totals = _finite_totals(rows)
        live = totals > 0
        np.divide(rows, totals[:, None], out=rows, where=live[:, None])
        pairs = lengths * (lengths - 1) // 2
        rows *= np.where(live, 1.0 / pairs[owner], 0.0)[:, None]
        # np.add.at adds one row after another, as the per-document loop
        # did (np.add.reduceat does not keep that order); on the flat
        # view it runs about three times faster than by rows.
        np.add.at(sums.reshape(-1), (owner[:, None] * k + np.arange(k)).ravel(), rows.ravel())

        single = np.flatnonzero(lengths == 1)
        sums[single] = self._theta * word_phi[tokens[starts[single]]]
        totals = _finite_totals(sums)
        live = totals > 0
        np.divide(sums, totals[:, None], out=sums, where=live[:, None])
        sums[~live] = 1.0 / k
        return list(sums)

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info.update(n_topics=self._n_topics, window=self.window, beta=self.beta)
        return info


def _finite_totals(rows: np.ndarray) -> np.ndarray:
    """Each row's total, summed pairwise; raises unless all are finite."""
    totals = np.add.reduce(rows, axis=1)
    if not np.isfinite(totals).all():
        raise SamplingWeightsError("BTM topic weights must have finite totals")
    return totals
