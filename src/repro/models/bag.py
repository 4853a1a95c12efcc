"""Bag (vector space) representation models: TN and CN.

The token n-grams model (**TN**) and character n-grams model (**CN**)
represent every document as a sparse weighted vector over the n-grams it
contains, aggregate document vectors into a user vector, and rank by a
vector similarity (paper Section 3.2, "Bag Models").

Configuration validity rules (paper Section 4, "Parameter Tuning"):

* Jaccard similarity (JS) is applied only with BF weights;
* generalized Jaccard (GJS) only with TF and TF-IDF;
* character n-grams (CN) are never combined with TF-IDF;
* BF weights are exclusively coupled with the *sum* aggregation;
* Rocchio is used only with cosine similarity and TF/TF-IDF weights.

Violations raise :class:`~repro.errors.ConfigurationError` at
construction time.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from repro.errors import ConfigurationError, NotFittedError
from repro.models.aggregation import AggregationFunction, aggregate, normalised
from repro.models.base import Doc, ProfileState, RepresentationModel
from repro.models.similarity import (
    PreparedVector,
    VectorSimilarity,
    prepare_vector,
    vector_similarity_function,
)
from repro.models.weighting import (
    IdfTable,
    WeightingScheme,
    bf_vector,
    tf_idf_vector,
    tf_vector,
)
from repro.text.ngrams import char_ngrams, token_ngrams

__all__ = ["BagModel", "BagProfileState", "TokenNGramModel", "CharacterNGramModel"]

SparseVector = dict[str, float]


class BagProfileState(ProfileState):
    """Incremental sparse-vector profile for the bag family.

    Sum and centroid keep running accumulators, so :meth:`value` is
    O(profile) rather than O(history); both fold document vectors in the
    same order with the same float operations as the batch
    :func:`~repro.models.aggregation.aggregate`, so the result is
    bit-identical. Rocchio scales each class by ``1/len(class)``, which
    changes with every fold -- its :meth:`value` replays the batch
    :func:`~repro.models.aggregation.rocchio_aggregate` over the
    retained vectors instead, which is exact by construction.

    ``represent`` replaces the model's own :meth:`BagModel.represent`
    (a pipeline passes its shared representations); the vectors it
    returns are only read, never changed.
    """

    def __init__(
        self,
        model: "BagModel",
        represent: Callable[[Doc], SparseVector] | None = None,
    ) -> None:
        super().__init__()
        self._model = model
        self._represent = represent if represent is not None else model.represent
        self._entries: list[tuple[Any, SparseVector, int | None]] = []
        self._running: SparseVector = {}

    def _fold(self, key: Any, doc: Doc, label: int | None) -> None:
        vector = self._represent(doc)
        self._entries.append((key, vector, label))
        aggregation = self._model.aggregation
        if aggregation is AggregationFunction.SUM:
            for g, w in vector.items():
                self._running[g] = self._running.get(g, 0.0) + w
        elif aggregation is AggregationFunction.CENTROID:
            for g, w in normalised(vector).items():
                self._running[g] = self._running.get(g, 0.0) + w

    def _labels(self) -> list[int]:
        if any(label is None for _, _, label in self._entries):
            raise ConfigurationError("Rocchio aggregation requires positive/negative labels")
        return [label for _, _, label in self._entries]  # type: ignore[misc]

    def value(self) -> SparseVector:
        aggregation = self._model.aggregation
        if aggregation is AggregationFunction.SUM:
            return dict(self._running)
        if aggregation is AggregationFunction.CENTROID:
            if not self._entries:
                return {}
            count = len(self._entries)
            return {g: w / count for g, w in self._running.items()}
        return aggregate(
            aggregation,
            [vector for _, vector, _ in self._entries],
            labels=self._labels(),
            rocchio_alpha=self._model.rocchio_alpha,
            rocchio_beta=self._model.rocchio_beta,
        )

    def decayed(self, weight_fn: Callable[[Any], float]) -> SparseVector:
        weights = [weight_fn(key) for key, _, _ in self._entries]
        aggregation = self._model.aggregation
        labels = self._labels() if aggregation is AggregationFunction.ROCCHIO else None
        return aggregate(
            aggregation,
            [vector for _, vector, _ in self._entries],
            labels=labels,
            rocchio_alpha=self._model.rocchio_alpha,
            rocchio_beta=self._model.rocchio_beta,
            weights=weights,
        )


def validate_bag_configuration(
    character_based: bool,
    weighting: WeightingScheme,
    aggregation: AggregationFunction,
    similarity: VectorSimilarity,
) -> None:
    """Enforce the paper's valid-combination matrix for bag models."""
    if similarity is VectorSimilarity.JACCARD and weighting is not WeightingScheme.BF:
        raise ConfigurationError("Jaccard similarity (JS) is applied only with BF weights")
    if similarity is VectorSimilarity.GENERALIZED_JACCARD and weighting is WeightingScheme.BF:
        raise ConfigurationError("generalized Jaccard (GJS) is used only with TF and TF-IDF")
    if character_based and weighting is WeightingScheme.TF_IDF:
        raise ConfigurationError("character n-grams (CN) are not combined with TF-IDF")
    if weighting is WeightingScheme.BF and aggregation is not AggregationFunction.SUM:
        raise ConfigurationError("BF weights are exclusively coupled with sum aggregation")
    if aggregation is AggregationFunction.ROCCHIO:
        if similarity is not VectorSimilarity.COSINE:
            raise ConfigurationError("Rocchio is used only with cosine similarity")
        if weighting is WeightingScheme.BF:
            raise ConfigurationError("Rocchio is used only with TF and TF-IDF weights")


class BagModel(RepresentationModel):
    """Shared machinery for TN and CN.

    Parameters
    ----------
    n:
        N-gram size.
    weighting:
        BF, TF, or TF-IDF.
    aggregation:
        sum, centroid, or Rocchio.
    similarity:
        CS, JS, or GJS.
    rocchio_alpha, rocchio_beta:
        Rocchio mixing weights (paper: 0.8 / 0.2).
    """

    character_based: bool = False
    pure_represent = True

    def __init__(
        self,
        n: int,
        weighting: WeightingScheme = WeightingScheme.TF,
        aggregation: AggregationFunction = AggregationFunction.CENTROID,
        similarity: VectorSimilarity = VectorSimilarity.COSINE,
        rocchio_alpha: float = 0.8,
        rocchio_beta: float = 0.2,
    ):
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        weighting = WeightingScheme(weighting)
        aggregation = AggregationFunction(aggregation)
        similarity = VectorSimilarity(similarity)
        validate_bag_configuration(self.character_based, weighting, aggregation, similarity)
        self.n = n
        self.weighting = weighting
        self.aggregation = aggregation
        self.similarity = similarity
        self.rocchio_alpha = rocchio_alpha
        self.rocchio_beta = rocchio_beta
        self._idf: IdfTable | None = None
        self._similarity_fn = vector_similarity_function(similarity)

    # -- n-gram extraction -------------------------------------------------

    def extract(self, doc: Doc) -> list[str]:
        """The n-grams of ``doc`` under this model's granularity."""
        raise NotImplementedError

    # -- RepresentationModel API -------------------------------------------

    def fit(self, corpus: Sequence[Doc], user_ids: Sequence[str] | None = None) -> "BagModel":
        """Learn the IDF table when the weighting scheme needs one."""
        if self.weighting is WeightingScheme.TF_IDF:
            self._idf = IdfTable().fit(self.extract(doc) for doc in corpus)
        return self

    def represent(self, doc: Doc) -> SparseVector:
        grams = self.extract(doc)
        if self.weighting is WeightingScheme.BF:
            return bf_vector(grams)
        if self.weighting is WeightingScheme.TF:
            return tf_vector(grams)
        if self._idf is None:
            raise NotFittedError("TF-IDF weighting requires fit() before represent()")
        return tf_idf_vector(grams, self._idf)

    def build_user_model(
        self,
        docs: Sequence[Doc],
        labels: Sequence[int] | None = None,
    ) -> SparseVector:
        if self.aggregation is AggregationFunction.ROCCHIO and labels is None:
            raise ConfigurationError("Rocchio aggregation requires positive/negative labels")
        return self.init_profile().update(docs, labels=labels).value()

    def init_profile(
        self, represent: Callable[[Doc], SparseVector] | None = None
    ) -> BagProfileState:
        return BagProfileState(self, represent)

    def prepare_profile(self, user_model: SparseVector) -> PreparedVector:
        return prepare_vector(user_model)

    def score(self, user_model: SparseVector | PreparedVector, doc_model: SparseVector) -> float:
        return self._similarity_fn(user_model, doc_model)

    def describe(self) -> dict[str, object]:
        return {
            "model": self.name,
            "n": self.n,
            "weighting": self.weighting.value,
            "aggregation": self.aggregation.value,
            "similarity": self.similarity.value,
        }

    def fit_params(self) -> dict[str, object]:
        return {"model": self.name, "n": self.n, "weighting": self.weighting.value}

    def profile_params(self) -> dict[str, object]:
        params = super().profile_params()
        if self.aggregation is AggregationFunction.ROCCHIO:
            params["rocchio_alpha"] = self.rocchio_alpha
            params["rocchio_beta"] = self.rocchio_beta
        return params


class TokenNGramModel(BagModel):
    """**TN** -- the token n-grams vector space model."""

    name = "TN"
    character_based = False

    def extract(self, doc: Doc) -> list[str]:
        return token_ngrams(list(doc.tokens), self.n)


class CharacterNGramModel(BagModel):
    """**CN** -- the character n-grams vector space model."""

    name = "CN"
    character_based = True

    def extract(self, doc: Doc) -> list[str]:
        return char_ngrams(doc.text, self.n)
