"""Common interface for all representation models.

Every model in the paper fits the same mould (Definition 2.1):

1. optionally learn corpus-level statistics from training documents
   (:meth:`RepresentationModel.fit` -- e.g. IDF tables, topic
   distributions);
2. map a single document to a structured representation
   (:meth:`RepresentationModel.represent`; a batch of documents with
   :meth:`RepresentationModel.represent_many`);
3. assemble the representations of a user's training documents into a
   single *user model* (:meth:`RepresentationModel.build_user_model`);
4. score a candidate document against a user model
   (:meth:`RepresentationModel.score`) -- higher means more relevant.

   4a. profile-side work is prepared once per rank: a ranker calls
   :meth:`RepresentationModel.prepare_profile` once per user model and
   passes the result to ``score`` for every candidate, so per-candidate
   cost depends on the candidate, not on the size of the profile.

Models consume :class:`Doc` objects, a minimal structural type carrying
the normalised text and its tokens, so the same pipeline feeds
token-based, character-based and topic models.

Profiles follow a uniform **build / update / decay** protocol: each
family implements a :class:`ProfileState` that folds documents in
incrementally (:meth:`ProfileState.update`), materialises the batch
profile on demand (:meth:`ProfileState.value`) and re-weights retained
entries without refolding the model (:meth:`ProfileState.decayed`).
``build_user_model`` is defined *through* the state, so a batch build
and a streamed sequence of updates are the same code path -- parity is
by construction, not by test alone.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

from repro.errors import ValidationError

__all__ = ["Doc", "TextDoc", "ProfileState", "RepresentationModel"]


@runtime_checkable
class Doc(Protocol):
    """Anything with normalised ``text`` and a ``tokens`` sequence."""

    @property
    def text(self) -> str: ...

    @property
    def tokens(self) -> Sequence[str]: ...


@dataclass(frozen=True)
class TextDoc:
    """The plain-data implementation of :class:`Doc`.

    ``text`` is the normalised (lowercased, squeezed) string used by
    character-based models; ``tokens`` is the token list used by
    token-based and topic models.
    """

    text: str
    tokens: tuple[str, ...]

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "TextDoc":
        return cls(" ".join(tokens), tuple(tokens))


class ProfileState(abc.ABC):
    """Incremental user-profile accumulator shared by all model families.

    A state folds documents in **non-decreasing key order** -- keys are
    ``(timestamp, tweet_id)`` tuples wherever real tweets are available
    (graph merges are order-sensitive, so the fold order must be
    canonical). Each fold retains the per-document representation, which
    is what lets :meth:`decayed` re-weight history without calling
    :meth:`RepresentationModel.represent` again.

    Contract:

    * :meth:`update` may be called any number of times with any
      chunking; the final :meth:`value` is identical to a single batch
      call over the concatenated documents.
    * :meth:`value` is non-destructive and repeatable -- it returns the
      profile the family's ``build_user_model`` would have produced.
    * :meth:`decayed` returns a profile where each retained entry is
      scaled by ``weight_fn(key)``; the state itself is unchanged, and
      a weight function that returns 1.0 everywhere reproduces
      :meth:`value` exactly.
    """

    def __init__(self) -> None:
        self._last_key: Any = None
        self._seen = 0

    @property
    def count(self) -> int:
        """Number of documents folded into the profile so far."""
        return self._seen

    def update(
        self,
        docs: Sequence[Doc],
        labels: Sequence[int] | None = None,
        keys: Sequence[Any] | None = None,
    ) -> "ProfileState":
        """Fold a chunk of documents into the profile. Returns ``self``.

        ``keys`` pins the fold order: the chunk is sorted by key, and a
        key below the largest key already folded raises
        :class:`ValidationError` -- out-of-order streaming would
        silently change order-sensitive profiles (graph merges). When
        ``keys`` is omitted the positional order is used, with the
        running document index as the key.
        """
        docs = list(docs)
        if labels is not None and len(labels) != len(docs):
            raise ValidationError(
                f"labels length {len(labels)} does not match docs length {len(docs)}"
            )
        if keys is None:
            order: Sequence[int] = range(len(docs))
        else:
            keys = list(keys)
            if len(keys) != len(docs):
                raise ValidationError(
                    f"keys length {len(keys)} does not match docs length {len(docs)}"
                )
            order = self.fold_order(keys)
        entries: list[tuple[Any, Doc, int | None]] = []
        last_key = self._last_key
        for position, index in enumerate(order):
            key = keys[index] if keys is not None else self._seen + position
            if last_key is not None and key < last_key:
                raise ValidationError(
                    "profile updates must fold in non-decreasing "
                    f"(timestamp, tweet_id) order: key {key!r} arrived after "
                    f"{last_key!r}"
                )
            last_key = key
            entries.append((key, docs[index], labels[index] if labels is not None else None))
        self._last_key = last_key
        self._fold_many(entries)
        self._seen += len(docs)
        return self

    @staticmethod
    def fold_order(keys: Sequence[Any]) -> list[int]:
        """Positions of a chunk's documents in the order :meth:`update`
        folds them: by key, equal keys in input order."""
        return sorted(range(len(keys)), key=keys.__getitem__)

    def _fold_many(self, entries: list[tuple[Any, Doc, int | None]]) -> None:
        """Fold an order-checked chunk of ``(key, doc, label)`` in order."""
        for key, doc, label in entries:
            self._fold(key, doc, label)

    @abc.abstractmethod
    def _fold(self, key: Any, doc: Doc, label: int | None) -> None:
        """Fold one document (already order-checked) into the state."""

    @abc.abstractmethod
    def value(self) -> Any:
        """Materialise the profile exactly as a batch build would."""

    @abc.abstractmethod
    def decayed(self, weight_fn: Callable[[Any], float]) -> Any:
        """Profile with each retained entry scaled by ``weight_fn(key)``."""


class RepresentationModel(abc.ABC):
    """Abstract base for the nine representation models of the paper."""

    #: Short model name as used in the paper's figures (e.g. ``"TN"``).
    name: str = "?"

    #: Temporal weighting applied when the pipeline builds profiles
    #: (duck-typed :class:`repro.core.temporal.TemporalWeighting`;
    #: ``None`` keeps the paper's undecayed behaviour).
    temporal: Any = None

    #: Whether :meth:`represent` is a pure function of the document and
    #: :meth:`fit_params` (no random draws). A pipeline may then
    #: represent each document once and share the result between
    #: configurations that fit the same way, through the ``represent``
    #: argument of :meth:`init_profile`.
    pure_represent: bool = False

    @abc.abstractmethod
    def fit(self, corpus: Sequence[Doc], user_ids: Sequence[str] | None = None) -> "RepresentationModel":
        """Learn corpus-level statistics from training documents.

        ``user_ids`` gives the author of each document; pooling-aware
        topic models need it, the others ignore it. Returns ``self``.
        """

    @abc.abstractmethod
    def represent(self, doc: Doc) -> Any:
        """Map one document to this model's representation space."""

    def represent_many(self, docs: Sequence[Doc]) -> Iterable[Any]:
        """:meth:`represent` of each document, in order.

        Models that can represent a batch faster than one document at a
        time override it; the results are the same either way. This
        default represents each document only when the caller asks for
        it, so a caller that scores each result before taking the next
        holds one representation at a time (large n-gram graphs).
        """
        return (self.represent(doc) for doc in docs)

    @abc.abstractmethod
    def build_user_model(
        self,
        docs: Sequence[Doc],
        labels: Sequence[int] | None = None,
    ) -> Any:
        """Assemble a user model from the user's training documents.

        ``labels`` marks each document as positive (1) or negative (0);
        only aggregation strategies that exploit negatives (Rocchio) read
        it. Models that do not support supervision ignore it.
        """

    @abc.abstractmethod
    def score(self, user_model: Any, doc_model: Any) -> float:
        """Similarity between a user model and a document model.

        ``user_model`` is either a built user model or the result of
        :meth:`prepare_profile` on one; both give the same score.
        """

    def prepare_profile(self, user_model: Any) -> Any:
        """Wrap ``user_model`` so the profile-side terms of :meth:`score`
        are computed at most once.

        Call it once before scoring one user model against many
        documents. The default returns ``user_model`` unchanged.
        """
        return user_model

    def init_profile(self, represent: Callable[[Doc], Any] | None = None) -> ProfileState:
        """Fresh incremental profile state for this model.

        ``represent``, when given, replaces the model's own
        representation of each folded document (a pipeline passes
        representations it computed in advance). Each family base class
        provides its state; models outside the protocol need not
        implement it.
        """
        raise NotImplementedError(f"{type(self).__name__} has no incremental profile state")

    def with_temporal(self, temporal: Any) -> "RepresentationModel":
        """Attach a temporal weighting for profile builds. Returns ``self``."""
        self.temporal = temporal
        return self

    def fit_params(self) -> dict[str, Any]:
        """Every parameter that :meth:`fit` and :meth:`represent` depend on.

        Two models with equal fit parameters, fitted on the same corpus,
        represent every document identically; the pipeline's fit key is
        built from this. The default is the whole :meth:`describe`, so
        nothing is shared unless a family narrows it.
        """
        return self.describe()

    def profile_params(self) -> dict[str, Any]:
        """Every parameter that changes a built profile's *values*.

        Feeds the ``UserProfiles`` artifact-cache key, so anything that
        alters aggregation, supervision weights or temporal decay must
        appear here -- a stale hit would silently serve profiles built
        under different parameters. Family bases extend this with their
        aggregation-affecting knobs. The similarity measure is left out:
        it scores a built profile but never changes one.
        """
        params: dict[str, Any] = {
            k: v for k, v in self.describe().items() if k != "similarity"
        }
        if self.temporal is not None:
            params["temporal"] = dict(self.temporal.describe())
        return params

    def describe(self) -> dict[str, Any]:
        """Human-readable configuration summary (used in reports)."""
        return {"model": self.name}

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in self.describe().items() if k != "model")
        return f"{type(self).__name__}({params})"
