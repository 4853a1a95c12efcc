"""Tests for the staged evaluation engine's artifacts and cache keys."""

from __future__ import annotations

import pytest

from repro.core.pipeline import ExperimentPipeline
from repro.core.sources import RepresentationSource
from repro.core.stages import ArtifactCache, artifact_key, canonical_params
from repro.obs.telemetry import Telemetry


class TestCanonicalParams:
    def test_key_order_does_not_matter(self):
        assert canonical_params({"a": 1, "b": 2}) == canonical_params({"b": 2, "a": 1})

    def test_compact_and_sorted(self):
        assert canonical_params({"b": 2, "a": 1}) == '{"a":1,"b":2}'

    def test_non_json_values_stringified(self):
        # Enum-ish / arbitrary objects serialise through str() instead of
        # raising, so params dicts holding rich values still get keys.
        class Wrapped:
            def __str__(self) -> str:
                return "wrapped"

        assert canonical_params({"x": Wrapped()}) == '{"x":"wrapped"}'


class TestArtifactKey:
    def test_deterministic(self):
        assert artifact_key(stage="s", seed=1) == artifact_key(stage="s", seed=1)

    def test_sensitive_to_every_component(self):
        base = artifact_key(stage="s", seed=1)
        assert artifact_key(stage="s", seed=2) != base
        assert artifact_key(stage="t", seed=1) != base

    def test_short_hex(self):
        key = artifact_key(stage="s")
        assert len(key) == 16
        int(key, 16)  # parses as hex


class TestArtifactCache:
    def test_build_once_then_hit(self):
        cache = ArtifactCache("c")
        builds = []
        for _ in range(3):
            cache.get_or_build("k", lambda: builds.append(1) or "value")
        assert builds == [1]
        assert "k" in cache and len(cache) == 1

    def test_counters(self):
        telemetry = Telemetry()
        cache = ArtifactCache("c")
        cache.get_or_build("k", lambda: "v", telemetry)
        cache.get_or_build("k", lambda: "v", telemetry)
        cache.get_or_build("j", lambda: "v", telemetry)
        metrics = telemetry.metrics.snapshot()
        assert metrics["c.miss"]["value"] == 2
        assert metrics["c.hit"]["value"] == 1


class TestCorpusStageSharing:
    @pytest.fixture()
    def pipeline(self, small_dataset):
        return ExperimentPipeline(
            small_dataset, seed=1, max_train_docs_per_user=40, telemetry=Telemetry()
        )

    def test_corpus_prepared_once_per_source(self, pipeline, small_groups):
        from repro.twitter.entities import UserType

        users = pipeline.eligible_users(small_groups[UserType.ALL])
        first = pipeline.prepare_corpus(RepresentationSource.R, users)
        again = pipeline.prepare_corpus(RepresentationSource.R, users)
        other = pipeline.prepare_corpus(RepresentationSource.E, users)
        assert again is first
        assert other is not first
        metrics = pipeline.telemetry.metrics.snapshot()
        assert metrics["corpus_cache.miss"]["value"] == 2
        assert metrics["corpus_cache.hit"]["value"] == 1

    def test_corpus_key_ingredients(self, pipeline, small_dataset, small_groups):
        from repro.twitter.entities import UserType

        users = tuple(pipeline.eligible_users(small_groups[UserType.ALL]))
        key = pipeline.corpus_key(RepresentationSource.R, users)
        assert key != pipeline.corpus_key(RepresentationSource.E, users)
        assert key != pipeline.corpus_key(RepresentationSource.R, users[:-1])
        protocol = {"seed": 1, "max_train_docs_per_user": 40}
        for change in (
            {"seed": 2},
            {"test_fraction": 0.3},
            {"negatives_per_positive": 5},
            {"max_train_docs_per_user": 41},
            {"top_k_stop_words": 50},
        ):
            other = ExperimentPipeline(small_dataset, **{**protocol, **change})
            assert other.corpus_key(RepresentationSource.R, users) != key, change
        # An independently built equal pipeline lands on the same key.
        twin = ExperimentPipeline(small_dataset, **protocol)
        assert twin.corpus_key(RepresentationSource.R, users) == key

    def test_factory_keyed_on_user_set(self, pipeline, small_groups):
        from repro.twitter.entities import UserType

        users = pipeline.eligible_users(small_groups[UserType.ALL])
        assert len(users) >= 3
        full = pipeline._factory_for(users)
        subset = pipeline._factory_for(users[:-1])
        assert subset is not full  # a fresh fit, not the first one reused
        assert pipeline._factory_for(users) is full  # same set -> cached
