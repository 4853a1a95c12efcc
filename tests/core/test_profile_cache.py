"""Tests for UserProfiles cache keying under temporal parameters.

The invariant: the profile cache key covers every profile-affecting
parameter (``profile_params``: aggregation knobs plus temporal decay),
the fit key (corpus, model, n, weighting) and the protocol version, so
changing any of them is a cache *miss* -- a stale hit would silently
serve profiles built under different parameters. The similarity
measure only scores a built profile, so it is not part of the key.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import ExperimentPipeline
from repro.core.sources import RepresentationSource
from repro.core.stages import PROFILE_PROTOCOL_VERSION
from repro.core.temporal import NO_DECAY, TemporalWeighting
from repro.models.bag import CharacterNGramModel, TokenNGramModel
from repro.models.graph import CharacterNGramGraphModel, TokenNGramGraphModel
from repro.twitter.dataset import select_user_groups
from repro.twitter.entities import UserType


@pytest.fixture(scope="module")
def pipeline(small_dataset):
    return ExperimentPipeline(small_dataset, seed=1, max_train_docs_per_user=40)


@pytest.fixture(scope="module")
def prepared(pipeline, small_dataset):
    groups = select_user_groups(small_dataset, group_size=5, min_retweets=5)
    users = pipeline.eligible_users(sorted(groups[UserType.ALL]))
    return pipeline.prepare_corpus(RepresentationSource.R, users)


def fitted_tn(pipeline, prepared, temporal=None):
    model = TokenNGramModel(n=1, weighting="TF", aggregation="centroid")
    if temporal is not None:
        model.with_temporal(temporal)
    return pipeline.fit_model(model, prepared)


def key_of(pipeline, prepared, model):
    return pipeline.profile_key(pipeline.fit_model(model, prepared))


class TestProfileKey:
    def test_key_is_deterministic(self, pipeline, prepared):
        a = fitted_tn(pipeline, prepared)
        b = fitted_tn(pipeline, prepared)
        assert pipeline.profile_key(a) == pipeline.profile_key(b)

    def test_temporal_changes_the_key(self, pipeline, prepared):
        plain = fitted_tn(pipeline, prepared)
        decayed = fitted_tn(
            pipeline, prepared, TemporalWeighting(kind="half-life", half_life=10)
        )
        assert pipeline.profile_key(plain) != pipeline.profile_key(decayed)

    def test_decay_parameter_changes_the_key(self, pipeline, prepared):
        """Same kind, different half-life: still a miss."""
        a = fitted_tn(
            pipeline, prepared, TemporalWeighting(kind="half-life", half_life=10)
        )
        b = fitted_tn(
            pipeline, prepared, TemporalWeighting(kind="half-life", half_life=20)
        )
        assert pipeline.profile_key(a) != pipeline.profile_key(b)

    def test_window_parameter_changes_the_key(self, pipeline, prepared):
        a = fitted_tn(
            pipeline, prepared, TemporalWeighting(kind="window", window=10)
        )
        b = fitted_tn(
            pipeline, prepared, TemporalWeighting(kind="window", window=20)
        )
        assert pipeline.profile_key(a) != pipeline.profile_key(b)

    def test_kind_changes_the_key(self, pipeline, prepared):
        a = fitted_tn(
            pipeline, prepared, TemporalWeighting(kind="window", window=10)
        )
        b = fitted_tn(
            pipeline, prepared, TemporalWeighting(kind="half-life", half_life=10)
        )
        assert pipeline.profile_key(a) != pipeline.profile_key(b)


class TestBuildProfiles:
    def test_cache_hit_returns_same_artifact(self, pipeline, prepared):
        fitted = fitted_tn(pipeline, prepared)
        first = pipeline.build_profiles(fitted)
        second = pipeline.build_profiles(fitted)
        assert second is first

    def test_changed_decay_is_a_miss_with_different_profiles(
        self, pipeline, prepared
    ):
        plain = pipeline.build_profiles(fitted_tn(pipeline, prepared))
        decayed = pipeline.build_profiles(
            fitted_tn(
                pipeline, prepared, TemporalWeighting(kind="half-life", half_life=5)
            )
        )
        assert decayed is not plain
        assert decayed.key != plain.key
        changed = [
            uid
            for uid in plain.profiles
            if plain.profiles[uid] != decayed.profiles[uid]
        ]
        assert changed  # decay visibly reweighs at least one profile

    def test_identity_decay_profiles_match_undecayed_values(
        self, pipeline, prepared
    ):
        """NO_DECAY weighs everything 1.0: same values, distinct key."""
        plain = pipeline.build_profiles(fitted_tn(pipeline, prepared))
        identity = pipeline.build_profiles(
            fitted_tn(pipeline, prepared, NO_DECAY)
        )
        assert set(identity.profiles) == set(plain.profiles)
        for uid in plain.profiles:
            assert identity.profiles[uid] == plain.profiles[uid]

    def test_artifact_records_params_and_version(self, pipeline, prepared):
        temporal = TemporalWeighting(kind="window", window=15)
        artifact = pipeline.build_profiles(
            fitted_tn(pipeline, prepared, temporal)
        )
        assert artifact.version == PROFILE_PROTOCOL_VERSION
        assert artifact.params["temporal"] == dict(temporal.describe())


class TestSharedProfileKey:
    """Similarity variants share a key; everything else separates keys."""

    @pytest.mark.parametrize(
        "variants",
        [
            [TokenNGramModel(n=2, weighting="TF", aggregation="centroid", similarity=s)
             for s in ("CS", "GJS")],
            [CharacterNGramModel(n=3, weighting="BF", aggregation="sum", similarity=s)
             for s in ("CS", "JS")],
            [TokenNGramGraphModel(n=2, similarity=s) for s in ("CoS", "VS", "NS")],
            [CharacterNGramGraphModel(n=3, similarity=s) for s in ("CoS", "VS", "NS")],
        ],
        ids=["TN", "CN", "TNG", "CNG"],
    )
    def test_similarity_variants_share_a_key(self, pipeline, prepared, variants):
        keys = {key_of(pipeline, prepared, model) for model in variants}
        assert len(keys) == 1

    @pytest.mark.parametrize(
        "a, b",
        [
            (TokenNGramModel(n=1, weighting="TF"), TokenNGramModel(n=2, weighting="TF")),
            (TokenNGramGraphModel(n=1), TokenNGramGraphModel(n=2)),
            (TokenNGramModel(n=1, weighting="TF"), TokenNGramModel(n=1, weighting="TF-IDF")),
            (TokenNGramModel(n=1, weighting="TF", aggregation="sum"),
             TokenNGramModel(n=1, weighting="TF", aggregation="centroid")),
            (TokenNGramModel(n=1, weighting="TF", aggregation="centroid"),
             TokenNGramModel(n=1, weighting="TF", aggregation="rocchio")),
            (TokenNGramModel(n=1, weighting="TF", aggregation="rocchio"),
             TokenNGramModel(n=1, weighting="TF", aggregation="rocchio",
                             rocchio_alpha=0.7, rocchio_beta=0.3)),
            (TokenNGramGraphModel(n=2),
             TokenNGramGraphModel(n=2).with_temporal(
                 TemporalWeighting(kind="half-life", half_life=10))),
            (TokenNGramModel(n=1, weighting="TF"), TokenNGramGraphModel(n=1)),
        ],
        ids=["n", "graph-n", "weighting", "aggregation", "rocchio",
             "rocchio-weights", "temporal", "model"],
    )
    def test_parameter_changes_the_key(self, pipeline, prepared, a, b):
        assert key_of(pipeline, prepared, a) != key_of(pipeline, prepared, b)

    def test_corpus_changes_the_key(self, pipeline, prepared):
        """TF-IDF fitted on R and on T: the fit key carries the corpus."""
        other = pipeline.prepare_corpus(RepresentationSource.T, prepared.users)
        on_r = pipeline.fit_model(TokenNGramModel(n=1, weighting="TF-IDF"), prepared)
        on_t = pipeline.fit_model(TokenNGramModel(n=1, weighting="TF-IDF"), other)
        assert on_r.key != on_t.key
        assert pipeline.profile_key(on_r) != pipeline.profile_key(on_t)

    def test_similarity_variant_reuses_the_built_profiles(self, pipeline, prepared):
        cosine = pipeline.fit_model(
            TokenNGramModel(n=3, weighting="TF", aggregation="sum", similarity="CS"), prepared
        )
        jaccard = pipeline.fit_model(
            TokenNGramModel(n=3, weighting="TF", aggregation="sum", similarity="GJS"), prepared
        )
        first = pipeline.build_profiles(cosine)
        assert pipeline.build_profiles(jaccard) is first
