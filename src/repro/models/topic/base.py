"""Shared machinery for the topic models (PLSA, LDA, LLDA, BTM, HDP, HLDA).

All topic models in the paper follow the same usage protocol (Section 3.2,
"Using Topic Models"):

1. training documents are pooled (NP / UP / HP) into pseudo-documents;
2. a single model is trained on the pooled pseudo-documents;
3. every individual tweet's topic distribution ``theta`` is *inferred*
   from the trained model;
4. the user model is the centroid (or Rocchio combination) of her
   training tweets' distributions;
5. candidate tweets are ranked by cosine similarity to the user model.

Subclasses implement two hooks: :meth:`TopicModel._train` (fit the model
on encoded pseudo-documents) and :meth:`TopicModel._infer` (one encoded
document's topic distribution, or the Gibbs fold-in that yields it;
:meth:`TopicModel._infer_chunk` samples all of a chunk's fold-ins in
one :func:`~repro.models.topic.gibbs.fold_in` call). BTM, which infers
without sampling, overrides :meth:`TopicModel._infer_chunk` instead.
"""

from __future__ import annotations

import abc
import hashlib
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, EmptyCorpusError, NotFittedError, ValidationError
from repro.models.aggregation import AggregationFunction
from repro.models.base import Doc, ProfileState, RepresentationModel
from repro.models.topic.gibbs import MAX_BATCH_ENTRIES, FoldIn, IterationHook, fold_in
from repro.text.pooling import PoolingScheme, pool_documents
from repro.text.vocabulary import Vocabulary

__all__ = [
    "TopicModel",
    "TopicProfileState",
    "dense_cosine",
    "dense_centroid",
    "dense_rocchio",
]


def dense_cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity between dense vectors; 0 when either is null."""
    norm_u = float(np.linalg.norm(u))
    norm_v = float(np.linalg.norm(v))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return float(np.dot(u, v) / (norm_u * norm_v))


def _check_dense_weights(vectors: Sequence[np.ndarray], weights: Sequence[float] | None) -> None:
    if weights is not None and len(weights) != len(vectors):
        raise ValidationError(f"{len(vectors)} vectors but {len(weights)} weights")


def dense_centroid(
    vectors: Sequence[np.ndarray],
    weights: Sequence[float] | None = None,
) -> np.ndarray:
    """Mean of unit-normalised dense vectors (weighted mean when weighted)."""
    if not vectors:
        raise EmptyCorpusError("cannot build a centroid from zero vectors")
    _check_dense_weights(vectors, weights)
    if weights is None:
        total = np.zeros_like(vectors[0], dtype=float)
        for vec in vectors:
            norm = np.linalg.norm(vec)
            if norm > 0.0:
                total += vec / norm
        return total / len(vectors)
    total = np.zeros_like(vectors[0], dtype=float)
    mass = float(np.sum(np.asarray(weights, dtype=float)))
    if mass == 0.0:
        return total
    for vec, weight in zip(vectors, weights):
        if weight == 0.0:
            continue
        norm = np.linalg.norm(vec)
        if norm > 0.0:
            total += weight * (vec / norm)
    return total / mass


def dense_rocchio(
    vectors: Sequence[np.ndarray],
    labels: Sequence[int],
    alpha: float = 0.8,
    beta: float = 0.2,
    weights: Sequence[float] | None = None,
) -> np.ndarray:
    """Rocchio combination of dense positive and negative vectors.

    With ``weights``, each class normalises by its weight mass instead
    of its count; all-ones weights reproduce the unweighted result up to
    float associativity.
    """
    if len(vectors) != len(labels):
        raise ValidationError(f"{len(vectors)} vectors but {len(labels)} labels")
    if not vectors:
        raise EmptyCorpusError("cannot build a Rocchio model from zero vectors")
    _check_dense_weights(vectors, weights)
    model = np.zeros_like(vectors[0], dtype=float)
    if weights is None:
        positives = [v for v, l in zip(vectors, labels) if l == 1]
        negatives = [v for v, l in zip(vectors, labels) if l == 0]
        if positives:
            model += (alpha / len(positives)) * np.sum(
                [v / n for v in positives if (n := np.linalg.norm(v)) > 0.0], axis=0
            )
        if negatives:
            model -= (beta / len(negatives)) * np.sum(
                [v / n for v in negatives if (n := np.linalg.norm(v)) > 0.0], axis=0
            )
        return model
    positives = [(v, w) for v, l, w in zip(vectors, labels, weights) if l == 1]
    negatives = [(v, w) for v, l, w in zip(vectors, labels, weights) if l == 0]
    positive_mass = float(np.sum([w for _, w in positives])) if positives else 0.0
    if positive_mass != 0.0:
        model += (alpha / positive_mass) * np.sum(
            [w * (v / n) for v, w in positives if w != 0.0 and (n := np.linalg.norm(v)) > 0.0],
            axis=0,
        )
    negative_mass = float(np.sum([w for _, w in negatives])) if negatives else 0.0
    if negative_mass != 0.0:
        model -= (beta / negative_mass) * np.sum(
            [w * (v / n) for v, w in negatives if w != 0.0 and (n := np.linalg.norm(v)) > 0.0],
            axis=0,
        )
    return model


class TopicProfileState(ProfileState):
    """Incremental topic-mixture profile for the topic family.

    Each update infers its documents' topic distributions ``theta`` once,
    as one :meth:`TopicModel.represent_many` batch in key order, and
    retains them -- updating a profile never re-runs Gibbs over
    history. :meth:`value` aggregates the retained mixtures exactly as
    the batch build does, so parity is by construction; with stochastic
    fold-in (``deterministic_inference`` off) the *representations*
    themselves depend on the shared RNG's draw order, which is why
    replay parity for topic models is stated with a tolerance unless
    deterministic inference is enabled.

    ``represent`` replaces the batch with one call per document, in fold
    order (a pipeline passes each user's state that user's slice of one
    batch over all users).
    """

    def __init__(
        self,
        model: "TopicModel",
        represent: Callable[[Doc], np.ndarray] | None = None,
    ) -> None:
        super().__init__()
        self._model = model
        self._represent = represent
        self._entries: list[tuple[Any, np.ndarray, int | None]] = []

    def _fold(self, key: Any, doc: Doc, label: int | None) -> None:
        self._fold_many([(key, doc, label)])

    def _fold_many(self, entries: list[tuple[Any, Doc, int | None]]) -> None:
        docs = [doc for _, doc, _ in entries]
        thetas = (
            self._model.represent_many(docs)
            if self._represent is None
            else list(map(self._represent, docs))
        )
        self._entries.extend(
            (key, theta, label) for (key, _, label), theta in zip(entries, thetas)
        )

    def _labels(self) -> list[int]:
        if any(label is None for _, _, label in self._entries):
            raise ConfigurationError("Rocchio aggregation requires labels")
        return [label for _, _, label in self._entries]  # type: ignore[misc]

    def _null_model(self) -> np.ndarray:
        return np.zeros(max(self._model.n_topics, 1))

    def value(self) -> np.ndarray:
        if not self._entries:
            return self._null_model()
        vectors = [theta for _, theta, _ in self._entries]
        if self._model.aggregation is AggregationFunction.ROCCHIO:
            return dense_rocchio(
                vectors, self._labels(), self._model.rocchio_alpha, self._model.rocchio_beta
            )
        return dense_centroid(vectors)

    def decayed(self, weight_fn: Callable[[Any], float]) -> np.ndarray:
        if not self._entries:
            return self._null_model()
        weights = [weight_fn(key) for key, _, _ in self._entries]
        vectors = [theta for _, theta, _ in self._entries]
        if self._model.aggregation is AggregationFunction.ROCCHIO:
            return dense_rocchio(
                vectors,
                self._labels(),
                self._model.rocchio_alpha,
                self._model.rocchio_beta,
                weights=weights,
            )
        return dense_centroid(vectors, weights=weights)


class TopicModel(RepresentationModel):
    """Base class implementing the pooling / centroid / cosine protocol.

    Parameters
    ----------
    pooling:
        Pseudo-document pooling scheme for training (NP / UP / HP).
    aggregation:
        How tweet distributions fuse into a user model: centroid or
        Rocchio (sum is not used with topic models in the paper).
    iterations:
        Sampler / EM iterations for training.
    infer_iterations:
        Fold-in iterations when inferring a new document's distribution.
    min_count:
        Minimum corpus frequency for a token to enter the vocabulary.
    seed:
        Seed for the model's private RNG; fixed seeds give reproducible
        fits.
    """

    def __init__(
        self,
        pooling: PoolingScheme = PoolingScheme.USER,
        aggregation: AggregationFunction = AggregationFunction.CENTROID,
        iterations: int = 200,
        infer_iterations: int = 20,
        min_count: int = 1,
        seed: int | None = 0,
        rocchio_alpha: float = 0.8,
        rocchio_beta: float = 0.2,
    ):
        aggregation = AggregationFunction(aggregation)
        if aggregation is AggregationFunction.SUM:
            raise ConfigurationError(
                "topic models use centroid or Rocchio aggregation, not sum"
            )
        if iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
        self.pooling = PoolingScheme(pooling)
        self.aggregation = aggregation
        self.iterations = iterations
        self.infer_iterations = infer_iterations
        self.min_count = min_count
        self.seed = seed
        self.rocchio_alpha = rocchio_alpha
        self.rocchio_beta = rocchio_beta
        self._rng = np.random.default_rng(seed)
        self._vocabulary: Vocabulary | None = None
        self.iteration_hook: IterationHook | None = None
        #: When on, each document's fold-in runs under a private RNG
        #: seeded from ``(seed, encoded tokens)``, making
        #: :meth:`represent` a pure function of the fitted model and the
        #: document -- the property the streaming replay driver needs
        #: for bit-exact serial-vs-parallel parity. Off by default so
        #: the paper's original numbers are untouched.
        self.deterministic_inference = False

    def set_iteration_hook(self, hook: IterationHook | None) -> "TopicModel":
        """Install (or clear) a per-training-iteration progress observer.

        The hook receives one
        :class:`~repro.models.topic.gibbs.GibbsIteration` per sweep of
        the training loop. Models that can compute their corpus
        log-likelihood cheaply include it; the computation only happens
        while a hook is installed, so uninstrumented fits pay nothing.
        """
        self.iteration_hook = hook
        return self

    # -- subclass hooks -----------------------------------------------------

    @abc.abstractmethod
    def _train(self, docs: list[list[int]], raw_docs: list[Sequence[str]]) -> None:
        """Fit the model on encoded pseudo-documents.

        ``docs[i]`` is the id-encoded token list of pseudo-document ``i``;
        ``raw_docs[i]`` is the same document's raw token sequence (needed
        by LLDA for label extraction).
        """

    def _infer(self, doc: list[int]) -> np.ndarray | FoldIn:
        """Topic distribution of one encoded (unseen) document.

        Gibbs-sampled models return the document's :class:`FoldIn`
        instead; the default :meth:`_infer_chunk` samples it and turns
        the topic counts into ``theta`` with :meth:`_theta`. A model
        that overrides :meth:`_infer_chunk` (BTM) need not define it.
        """
        raise NotImplementedError

    def _theta(self, fold: FoldIn, counts: np.ndarray) -> np.ndarray:
        """Topic distribution from a sampled fold-in's topic counts."""
        theta = counts + fold.prior
        return theta / theta.sum()

    @property
    @abc.abstractmethod
    def n_topics(self) -> int:
        """Number of topics after training (may be data-driven)."""

    # -- RepresentationModel API -------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        if self._vocabulary is None:
            raise NotFittedError(f"{type(self).__name__}.fit was never called")
        return self._vocabulary

    def fit(self, corpus: Sequence[Doc], user_ids: Sequence[str] | None = None) -> "TopicModel":
        """Pool, encode and train on the training corpus."""
        if not corpus:
            raise EmptyCorpusError("cannot fit a topic model on an empty corpus")
        token_docs = [list(doc.tokens) for doc in corpus]
        pooled = pool_documents(token_docs, self.pooling, user_ids=user_ids)
        raw_docs: list[Sequence[str]] = [p.tokens for p in pooled]
        self._vocabulary = Vocabulary.from_documents(raw_docs, min_count=self.min_count)
        encoded = [self._vocabulary.encode(tokens) for tokens in raw_docs]
        self._train(encoded, raw_docs)
        return self

    def _doc_rng_seed(self, encoded: list[int]) -> int:
        """Stable per-document seed: a hash of the model seed and tokens."""
        payload = f"{self.seed!r}|" + ",".join(map(str, encoded))
        digest = hashlib.sha256(payload.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def represent(self, doc: Doc) -> np.ndarray:
        return self.represent_many([doc])[0]

    def represent_many(self, docs: Sequence[Doc]) -> list[np.ndarray]:
        """Topic distributions of ``docs``, inferred in chunks.

        Equal to representing the documents one by one, in order: each
        fold-in draws from the model's RNG in document order, or from
        its own seeded RNG under ``deterministic_inference``, and an
        inference without sampling (BTM) sums each document's terms in
        a fixed order. Consecutive documents are inferred in one
        :meth:`_infer_chunk` call while their :meth:`_weight_count`
        stays below about :data:`~repro.models.topic.gibbs.MAX_BATCH_ENTRIES`,
        so memory does not grow with the batch.
        """
        encoded = [self.vocabulary.encode(list(doc.tokens)) for doc in docs]
        thetas: list[np.ndarray] = []
        start = entries = 0
        for end, tokens in enumerate(encoded, 1):
            entries += self._weight_count(tokens)
            if entries >= MAX_BATCH_ENTRIES:
                thetas += self._infer_chunk(encoded[start:end])
                start, entries = end, 0
        return thetas + self._infer_chunk(encoded[start:])

    def _weight_count(self, doc: list[int]) -> int:
        """Topic weights inferring ``doc`` holds: a weight per token and topic."""
        return len(doc) * self.n_topics

    def _infer_chunk(self, encoded: list[list[int]]) -> list[np.ndarray]:
        """Topic distributions of consecutive encoded documents.

        Each document's :meth:`_infer`, with every :class:`FoldIn` among
        them sampled in one :func:`~repro.models.topic.gibbs.fold_in`
        call.
        """
        inferred = [self._infer(tokens) for tokens in encoded]
        folds = [fold for fold in inferred if isinstance(fold, FoldIn)]
        if self.deterministic_inference:
            rngs = [
                np.random.default_rng(self._doc_rng_seed(tokens))
                for tokens, fold in zip(encoded, inferred)
                if isinstance(fold, FoldIn)
            ]
        else:
            rngs = [self._rng] * len(folds)
        counts = iter(fold_in(folds, rngs, self.infer_iterations, self.name))
        return [
            self._theta(fold, next(counts)) if isinstance(fold, FoldIn) else fold
            for fold in inferred
        ]

    def build_user_model(
        self,
        docs: Sequence[Doc],
        labels: Sequence[int] | None = None,
    ) -> np.ndarray:
        # A user with no training documents for this source gets a null
        # model: every candidate scores 0, as for the bag and graph
        # models' empty representations.
        if docs and self.aggregation is AggregationFunction.ROCCHIO and labels is None:
            raise ConfigurationError("Rocchio aggregation requires labels")
        return self.init_profile().update(docs, labels=labels).value()

    def init_profile(
        self, represent: Callable[[Doc], np.ndarray] | None = None
    ) -> TopicProfileState:
        return TopicProfileState(self, represent)

    def score(self, user_model: np.ndarray, doc_model: np.ndarray) -> float:
        return dense_cosine(user_model, doc_model)

    def describe(self) -> dict[str, object]:
        return {
            "model": self.name,
            "pooling": self.pooling.value,
            "aggregation": self.aggregation.value,
            "iterations": self.iterations,
        }

    def profile_params(self) -> dict[str, object]:
        params = super().profile_params()
        params["infer_iterations"] = self.infer_iterations
        params["seed"] = self.seed
        params["deterministic_inference"] = self.deterministic_inference
        if self.aggregation is AggregationFunction.ROCCHIO:
            params["rocchio_alpha"] = self.rocchio_alpha
            params["rocchio_beta"] = self.rocchio_beta
        return params

    # -- helpers for subclasses ----------------------------------------------

    def _uniform_theta(self) -> np.ndarray:
        """Fallback distribution for documents with no in-vocab tokens."""
        k = self.n_topics
        return np.full(k, 1.0 / k) if k > 0 else np.zeros(0)
