"""The ranking-based recommendation algorithm (paper Definition 2.1).

Given a user model ``UM(u)`` and a set of candidate documents, the
recommender scores every candidate with the representation model's
similarity function and returns the candidates in decreasing score. The
user model is prepared once per call
(:meth:`~repro.models.base.RepresentationModel.prepare_profile`) and the
candidates are represented as one batch
(:meth:`~repro.models.base.RepresentationModel.represent_many`). Ties
are broken deterministically by input position, which keeps evaluation
reproducible.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.models.base import Doc, RepresentationModel

__all__ = ["RankedItem", "RankingRecommender"]


@dataclass(frozen=True)
class RankedItem:
    """One entry of a recommendation list."""

    position: int  # index into the candidate sequence
    score: float


class RankingRecommender:
    """Content-based ranking recommender over one representation model.

    Usage: ``fit`` on the training corpus (corpus-level statistics),
    ``build_profile`` per user, then ``rank`` that user's candidates.
    """

    def __init__(self, model: RepresentationModel):
        self.model = model

    def fit(
        self, corpus: Sequence[Doc], user_ids: Sequence[str] | None = None
    ) -> "RankingRecommender":
        """Learn corpus-level statistics (IDF tables, topics, ...)."""
        self.model.fit(corpus, user_ids=user_ids)
        return self

    def build_profile(
        self, docs: Sequence[Doc], labels: Sequence[int] | None = None
    ) -> Any:
        """Assemble one user's model from her training documents."""
        return self.model.build_user_model(docs, labels=labels)

    def rank(
        self,
        user_model: Any,
        candidates: Sequence[Doc],
        represent: Callable[[Doc], Any] | None = None,
    ) -> list[RankedItem]:
        """Candidates in decreasing similarity to the user model.

        ``represent`` replaces the model's own ``represent_many`` with a
        per-document function (a pipeline passes its shared
        representations); the scores are the same either way.
        """
        model = self.model
        prepared = model.prepare_profile(user_model)
        represented = (
            model.represent_many(candidates)
            if represent is None
            else map(represent, candidates)
        )
        scored = [
            RankedItem(position=i, score=float(model.score(prepared, vector)))
            for i, vector in enumerate(represented)
        ]
        scored.sort(key=lambda item: (-item.score, item.position))
        return scored
