"""Bag and graph configurations share representations and profiles.

Configurations with one fit key (same corpus, model, n and -- for bags
-- weighting) represent each document once, and those that differ only
in their similarity measure share one set of profiles. The contracts:

* every row equals, exactly, the row of the same configuration
  evaluated alone on a fresh pipeline that represents every document
  itself -- run serially, on a process
  pool, and resumed from a journal torn inside a fit-key group;
* shared representations and profiles are read-only;
* a reusing evaluation is charged exactly the seconds the first build
  recorded;
* the memo counts its work (``represent_cache.hit`` / ``.miss``).
"""

from __future__ import annotations

import copy
import gc
import json
import time
from dataclasses import replace

import pytest

from repro.core.pipeline import ExperimentPipeline
from repro.core.sources import RepresentationSource
from repro.core.stages import RepresentationMemo, canonical_params
from repro.core.temporal import TemporalWeighting
from repro.eval.timing import collector_seconds
from repro.experiments.configs import ModelConfig
from repro.experiments.executors import (
    GridSpec,
    ProcessCellExecutor,
    SweepSpec,
)
from repro.experiments.persistence import SweepJournal
from repro.experiments.runner import SweepRunner
from repro.models.aggregation import AggregationFunction, aggregate
from repro.models.bag import CharacterNGramModel, TokenNGramModel
from repro.models.base import TextDoc
from repro.models.graph import CharacterNGramGraphModel, TokenNGramGraphModel
from repro.obs.telemetry import Telemetry
from repro.twitter.dataset import select_user_groups
from repro.twitter.entities import UserType

from tests.experiments.test_executors import SPEC as EXECUTOR_SPEC

R = RepresentationSource.R
RE = RepresentationSource.RE
SOURCES = [R, RE]
BAG_GRAPH = ("TN", "CN", "TNG", "CNG")

SPEC = SweepSpec(
    pipeline=replace(EXECUTOR_SPEC.pipeline, max_train_docs_per_user=20),
    grid=GridSpec(seed=0),
)
TEMPORAL_SPEC = replace(
    SPEC,
    grid=GridSpec(
        seed=0,
        temporal_axis=(TemporalWeighting(), TemporalWeighting.parse("half-life:3600")),
    ),
)
#: (spec, families) per case: the four full bag/graph grids, and one
#: family crossed with an identity and a decaying temporal point.
CASES = {
    "bag_graph": (SPEC, BAG_GRAPH),
    "temporal": (TEMPORAL_SPEC, ("TN",)),
}


def _configs(spec: SweepSpec, families):
    grid = spec.grid.build().all_configurations()
    return [config for family in families for config in grid[family]]


def _pipeline(dataset) -> ExperimentPipeline:
    protocol = SPEC.pipeline
    return ExperimentPipeline(
        dataset, seed=protocol.seed, max_train_docs_per_user=protocol.max_train_docs_per_user
    )


def _row_key(model: str, params: dict, source: RepresentationSource) -> str:
    return f"{model}|{source.value}|{canonical_params(params)}"


@pytest.fixture(scope="module")
def world():
    """The sweep's dataset and All-Users group, built once."""
    pipeline = SPEC.pipeline.build()
    groups = select_user_groups(pipeline.dataset, group_size=5, min_retweets=5)
    return pipeline.dataset, {UserType.ALL: groups[UserType.ALL]}


@pytest.fixture(scope="module")
def references(world):
    """Each case's per-user APs, every configuration on a fresh pipeline.

    The references bypass the representation memo: ``evaluate``
    without ``share`` folds profiles through the model's own
    ``represent`` and ranks through its ``represent_many``, so a fault
    in the shared path cannot reach the rows it is compared against.
    The fresh pipelines borrow one template's splits and tokenized
    documents -- plain caches that nothing under test shares -- so the
    references do not re-tokenize the corpus per configuration.
    """
    dataset, groups = world
    users = groups[UserType.ALL]
    template = _pipeline(dataset)
    out = {}
    for case, (spec, families) in CASES.items():
        expected = {}
        for config in _configs(spec, families):
            for source in SOURCES:
                if config.uses_rocchio and not source.has_negative_examples:
                    continue
                fresh = _pipeline(dataset)
                fresh._splits = template._splits
                fresh._contexts = template._contexts
                result = fresh.evaluate(config.build(), source, users)
                assert not fresh._represent_memo._entries
                expected[_row_key(config.model, config.params, source)] = result.per_user_ap
        out[case] = expected
    return out


def _assert_rows_match(result, expected):
    assert not result.failures
    got = {_row_key(row.model, row.params, row.source): row.per_user_ap for row in result.rows}
    assert got.keys() == expected.keys()
    for key, per_user_ap in expected.items():
        assert got[key] == per_user_ap, key


@pytest.mark.parametrize("case", sorted(CASES))
class TestBitIdentity:
    def test_serial(self, case, world, references):
        dataset, groups = world
        spec, families = CASES[case]
        result = SweepRunner(_pipeline(dataset), groups).run(_configs(spec, families), SOURCES)
        _assert_rows_match(result, references[case])

    def test_process_pool(self, case, world, references):
        dataset, groups = world
        spec, families = CASES[case]
        result = SweepRunner(_pipeline(dataset), groups).run(
            _configs(spec, families), SOURCES, executor=ProcessCellExecutor(spec, jobs=2)
        )
        _assert_rows_match(result, references[case])

    def test_resumed_mid_fit_key_group(self, case, world, references, tmp_path):
        dataset, groups = world
        spec, families = CASES[case]
        configs = _configs(spec, families)
        path = tmp_path / "sweep.journal.jsonl"
        with SweepJournal(path) as journal:
            SweepRunner(_pipeline(dataset), groups).run(configs, SOURCES, journal=journal)

        # Tear the journal after the second cell of the first fit-key
        # group that has at least three cells, so the resumed run starts
        # inside that group.
        fit_keys = {
            _row_key(c.model, c.params, s): (s, canonical_params(c.build().fit_params()))
            for c in configs
            for s in SOURCES
        }
        lines = path.read_text().splitlines()
        cells = [
            (i, json.loads(line)["cell"])
            for i, line in enumerate(lines[1:], start=1)
            if json.loads(line).get("record") != "heartbeat"
        ]
        groups_seen = [fit_keys[cell] for _, cell in cells]
        cut = next(
            k + 2
            for k in range(len(cells) - 2)
            if groups_seen[k] == groups_seen[k + 1] == groups_seen[k + 2]
        )
        path.write_text("\n".join(lines[: cells[cut - 1][0] + 1]) + "\n")

        with SweepJournal(path, resume=True) as journal:
            assert journal.restored == cut
            result = SweepRunner(_pipeline(dataset), groups).run(
                configs, SOURCES, journal=journal
            )
        _assert_rows_match(result, references[case])


class TestDispatchGrouping:
    def _misses(self, world, configs):
        dataset, groups = world
        telemetry = Telemetry()
        pipeline = _pipeline(dataset)
        pipeline.telemetry = telemetry
        SweepRunner(pipeline, groups).run(configs, [R])
        return telemetry.metrics.counter("represent_cache.miss").value

    def test_only_cells_with_a_fit_key_partner_share(self, world):
        grid = SPEC.grid.build().all_configurations()
        partners = [
            c for c in grid["TN"] if c.params["n"] == 1 and c.params["weighting"] == "TF"
        ]
        assert len(partners) > 1
        assert self._misses(world, partners[:1]) == 0
        assert self._misses(world, [partners[0], grid["CNG"][0]]) == 0
        assert self._misses(world, partners[:2]) > 0

    def test_unbuildable_configuration_is_skipped_not_fatal(self, world):
        dataset, groups = world
        telemetry = Telemetry()
        pipeline = _pipeline(dataset)
        pipeline.telemetry = telemetry
        broken = ModelConfig("TN", {"n": 0}, factory=lambda: TokenNGramModel(n=0))
        configs = [broken, *SPEC.grid.build().all_configurations()["TN"][:2]]
        result = SweepRunner(pipeline, groups).run(configs, [R])
        assert not result.failures
        assert [row.params for row in result.rows] == [c.params for c in configs[1:]]
        assert telemetry.metrics.counter("sweep.configs.skipped_invalid").value == 1


class TestSharedObjectsAreReadOnly:
    """Nothing that reads a shared representation or profile changes it."""

    @staticmethod
    def _groups():
        """Per family, models that share one fit key."""
        half_life = TemporalWeighting.parse("half-life:3600")
        return {
            "TN": [
                TokenNGramModel(n=2, weighting="TF-IDF", aggregation=a, similarity=s)
                for a, s in (("sum", "CS"), ("sum", "GJS"), ("centroid", "CS"),
                             ("centroid", "GJS"), ("rocchio", "CS"))
            ] + [TokenNGramModel(n=2, weighting="TF-IDF", aggregation="rocchio")
                 .with_temporal(half_life)],
            "CN": [
                CharacterNGramModel(n=3, weighting="TF", aggregation=a, similarity=s)
                for a, s in (("sum", "CS"), ("centroid", "GJS"), ("rocchio", "CS"))
            ],
            "TNG": [TokenNGramGraphModel(n=2, similarity=s) for s in ("CoS", "VS", "NS")]
            + [TokenNGramGraphModel(n=2).with_temporal(half_life)],
            "CNG": [CharacterNGramGraphModel(n=3, similarity=s) for s in ("CoS", "VS", "NS")],
        }

    @pytest.mark.parametrize("family", BAG_GRAPH)
    def test_snapshot_unchanged(self, family, world):
        dataset, groups = world
        pipeline = _pipeline(dataset)
        users = pipeline.eligible_users(groups[UserType.ALL])
        corpus = pipeline.prepare_corpus(RE, users)
        fitted = [pipeline.fit_model(model, corpus) for model in self._groups()[family]]
        assert len({f.key for f in fitted}) == 1
        built = [pipeline.build_profiles(f, share=True) for f in fitted]
        for f, profiles in zip(fitted, built):
            pipeline.rank_users(f, profiles, share=True)
        memo = pipeline._represent_memo
        shared = {key: entry[1] for key, entry in memo._entries.items()}
        assert shared
        snapshot = copy.deepcopy((shared, [p.profiles for p in built]))

        for f, profiles in zip(fitted, built):
            model = f.model
            pipeline.rank_users(f, profiles, share=True)
            for uid in users:
                prepared = model.prepare_profile(profiles.profiles[uid])
                for representation in shared.values():
                    model.score(prepared, representation)
                    model.score(profiles.profiles[uid], representation)
                docs, labels, keys = pipeline.profile_inputs(f, uid)
                state = model.init_profile(memo.represent)
                state.update(docs, labels=labels, keys=keys)
                state.value()
                state.decayed(lambda key: 0.5)
                if getattr(model, "aggregation", None) is AggregationFunction.ROCCHIO:
                    aggregate(
                        AggregationFunction.ROCCHIO,
                        [memo.represent(doc) for doc in docs],
                        labels=labels,
                        weights=[0.5] * len(docs),
                    )

        assert (shared, [p.profiles for p in built]) == snapshot


class _FakeClock:
    """A ``perf_counter`` that advances only when a model represents."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock(monkeypatch):
    fake = _FakeClock()
    monkeypatch.setattr(time, "perf_counter", fake)
    represent = TokenNGramModel.represent

    def timed_represent(self, doc):
        fake.now += 0.25
        return represent(self, doc)

    monkeypatch.setattr(TokenNGramModel, "represent", timed_represent)
    return fake


class TestChargedSeconds:
    """A reusing evaluation reports exactly what the first build cost."""

    def _evaluate_pair(self, world, telemetry=None):
        dataset, groups = world
        pipeline = _pipeline(dataset)
        pipeline.telemetry = telemetry
        users = groups[UserType.ALL]
        first = pipeline.evaluate(
            TokenNGramModel(n=1, weighting="TF", similarity="CS"), R, users, share=True
        )
        profiles = pipeline._profile_cache._store
        (artifact,) = profiles.values()
        reuse = pipeline.evaluate(
            TokenNGramModel(n=1, weighting="TF", similarity="GJS"), R, users, share=True
        )
        return first, reuse, artifact

    def test_profile_cache_hit_charges_recorded_build_seconds(self, world, clock):
        first, reuse, artifact = self._evaluate_pair(world)
        recorded = 0.0
        for uid in sorted(artifact.build_seconds):  # dyadic seconds: any order is exact
            recorded += artifact.build_seconds[uid]
        assert first.phase_seconds["profiles"] > 0.0
        assert first.phase_seconds["profiles"] == recorded
        assert reuse.phase_seconds["profiles"] == recorded
        assert reuse.training_seconds == first.training_seconds

    def test_represent_memo_hit_charges_first_build_seconds(self, world, clock):
        first, reuse, _ = self._evaluate_pair(world)
        assert first.testing_seconds > 0.0
        assert reuse.testing_seconds == first.testing_seconds

    def test_span_rollups_include_charged_seconds(self, world, clock):
        telemetry = Telemetry()
        first, reuse, _ = self._evaluate_pair(world, telemetry)
        tracer = telemetry.tracer
        assert tracer.total("profiles") == (
            first.phase_seconds["profiles"] + reuse.phase_seconds["profiles"]
        )
        assert tracer.total("rank") == first.testing_seconds + reuse.testing_seconds
        assert telemetry.metrics.counter("profile_cache.hit").value == 1


class TestCollectorPauses:
    """A garbage-collector pause inside a document's first build is paid
    by the evaluation it interrupts, never charged again to the
    evaluations that reuse the document."""

    @pytest.fixture()
    def pausing(self, clock, monkeypatch):
        """Each represent collects, and each collection lasts 1 s."""
        timed = TokenNGramModel.represent

        def collecting(self, doc):
            gc.collect()
            return timed(self, doc)

        def pause(phase, info):
            if phase == "start":
                clock.now += 1.0

        monkeypatch.setattr(TokenNGramModel, "represent", collecting)
        gc.callbacks.append(pause)
        yield clock
        gc.callbacks.remove(pause)

    def test_collector_seconds_counts_pauses(self, pausing):
        before = collector_seconds()
        gc.collect()
        assert collector_seconds() - before == 1.0

    def test_memo_charges_build_seconds_without_pauses(self, pausing):
        memo = RepresentationMemo().bind("fit", TokenNGramModel(n=1, weighting="TF"))
        doc = TextDoc.from_tokens(("cats", "chase", "cats"))
        memo.represent(doc)
        memo.represent(doc)
        assert memo.take_charged() == 0.25


class TestRepresentationMemo:
    def test_hit_returns_the_first_representation(self):
        model = TokenNGramModel(n=1, weighting="TF")
        memo = RepresentationMemo().bind("fit", model)
        doc = TextDoc.from_tokens(("cats", "chase", "cats"))
        first = memo.represent(doc)
        assert memo.represent(doc) is first
        assert memo.charged > 0.0

    def test_rebinding_drops_pending_charges_and_other_keys(self):
        model = TokenNGramModel(n=1, weighting="TF")
        memo = RepresentationMemo().bind("fit", model)
        doc = TextDoc.from_tokens(("cats", "chase", "cats"))
        first = memo.represent(doc)
        memo.represent(doc)
        memo.bind("fit", model)  # an evaluation that stopped early
        assert memo.take_charged() == 0.0
        assert memo.represent(doc) is first
        memo.bind("other fit", model)
        assert memo.represent(doc) is not first


class TestRepresentCounters:
    def test_tn_misses_are_distinct_documents_per_fit_key(self, world):
        dataset, groups = world
        telemetry = Telemetry()
        pipeline = _pipeline(dataset)
        pipeline.telemetry = telemetry
        configs = SPEC.grid.build().all_configurations()["TN"]
        SweepRunner(pipeline, groups).run(configs, [R])

        users = pipeline.eligible_users(groups[UserType.ALL])
        corpus = pipeline.prepare_corpus(R, users)
        documents = set(corpus.corpus_ids)
        for uid in users:
            documents |= {tweet.tweet_id for tweet in pipeline.split_for(uid).test_set}
        fit_keys = {canonical_params(c.build().fit_params()) for c in configs}
        assert len(fit_keys) == 9
        metrics = telemetry.metrics
        assert metrics.counter("represent_cache.miss").value == len(documents) * 9
        assert metrics.counter("represent_cache.hit").value > 0
