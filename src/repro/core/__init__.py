"""Recommendation core: sources, splits, ranking, baselines, pipeline."""

from repro.core.baselines import (
    chronological_ordering,
    random_ordering,
    random_ordering_expected_ap,
)
from repro.core.documents import DocumentFactory
from repro.core.pipeline import EvaluationResult, ExperimentPipeline
from repro.core.recommender import RankedItem, RankingRecommender
from repro.core.sources import (
    ALL_SOURCES,
    ATOMIC_SOURCES,
    COMPOSITE_SOURCES,
    RepresentationSource,
    retweeted_original_ids,
)
from repro.core.split import UserSplit, split_user, train_tweets
from repro.core.stages import (
    PROFILE_PROTOCOL_VERSION,
    ArtifactCache,
    FittedModel,
    PreparedCorpus,
    RankingOutcome,
    UserProfiles,
    artifact_key,
    canonical_params,
)
from repro.core.temporal import NO_DECAY, TEMPORAL_KINDS, TemporalWeighting

__all__ = [
    "ALL_SOURCES",
    "ATOMIC_SOURCES",
    "ArtifactCache",
    "COMPOSITE_SOURCES",
    "NO_DECAY",
    "PROFILE_PROTOCOL_VERSION",
    "TEMPORAL_KINDS",
    "TemporalWeighting",
    "DocumentFactory",
    "FittedModel",
    "PreparedCorpus",
    "RankingOutcome",
    "UserProfiles",
    "artifact_key",
    "canonical_params",
    "EvaluationResult",
    "ExperimentPipeline",
    "RankedItem",
    "RankingRecommender",
    "RepresentationSource",
    "UserSplit",
    "chronological_ordering",
    "random_ordering",
    "random_ordering_expected_ap",
    "retweeted_original_ids",
    "split_user",
    "train_tweets",
]
