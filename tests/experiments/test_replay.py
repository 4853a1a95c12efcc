"""Tests for the streaming replay driver (``repro replay``).

The load-bearing properties: incremental profiles are bit-identical to
batch rebuilds at every chunk boundary for bag and graph models (and for
topic models under deterministic inference), and a ``--jobs`` replay
produces the same per-user digests as a serial one.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing

import numpy as np
import pytest

from repro.core.sources import RepresentationSource
from repro.errors import CellQuarantinedError, ConfigurationError
from repro.experiments.executors import GridSpec, PipelineSpec
from repro.experiments.replay import (
    REPLAY_POLICY,
    ModelReplay,
    ReplaySpec,
    UserReplay,
    profile_delta,
    profile_digest,
    run_replay,
)
from repro.experiments.standard import bench_grid
from repro.faults import FaultPlan, FaultSpec
from repro.faults.plan import FAULT_PLAN_ENV
from repro.models.graph import NGramGraph
from repro.obs.events import MemorySink
from repro.obs.telemetry import Telemetry
from repro.twitter.dataset import DatasetConfig, generate_dataset, select_user_groups
from repro.twitter.entities import UserType


def replay_suite_spec(models: tuple[str, ...], seed: int = 7) -> ReplaySpec:
    """A tiny replay spec: 16 users, 40 ticks, groups of 3 users with at
    least 3 retweets, 30 training documents per user, source R."""
    dataset_config = DatasetConfig(n_users=16, n_ticks=40, seed=seed)
    groups = select_user_groups(
        generate_dataset(dataset_config), group_size=3, min_retweets=3
    )
    return ReplaySpec(
        pipeline=PipelineSpec(
            dataset=dataset_config, seed=seed, max_train_docs_per_user=30
        ),
        grid=GridSpec.from_grid(bench_grid(seed=seed)),
        source=RepresentationSource.R.value,
        users=tuple(sorted(groups[UserType.ALL])),
        models=models,
    )


#: Two exactness-guaranteed families keep the suite fast; the topic
#: family's replay is covered by the digest-parity test below and by
#: tests/models/test_profile_state.py at the protocol level.
SPEC = replay_suite_spec(models=("TN", "TNG"))


class TestSpecValidation:
    def test_zero_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(SPEC, chunk_size=0)

    def test_empty_models_rejected(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(SPEC, models=())

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(SPEC, source="bogus")

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            run_replay(dataclasses.replace(SPEC, models=("NOPE",)))

    def test_zero_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_replay(SPEC, jobs=0)

    def test_pick_missing_from_grid_rejected_in_parent(self):
        """Configurations resolve through the spec's own grid: at half
        the topic scale the grid has no 15-topic LDA, so the fast-grid
        pick is refused before any worker starts."""
        spec = dataclasses.replace(
            SPEC, grid=GridSpec(topic_scale=0.05, seed=7), models=("LDA",)
        )
        with pytest.raises(ConfigurationError, match="no matching configuration"):
            run_replay(spec, jobs=2)
        assert multiprocessing.active_children() == []

    def test_spec_is_picklable(self):
        import pickle

        assert pickle.loads(pickle.dumps(SPEC)) == SPEC


class TestProfileComparison:
    def test_equal_dicts(self):
        assert profile_delta({"a": 1.0}, {"a": 1.0}) == 0.0

    def test_differing_dicts(self):
        assert profile_delta({"a": 1.0}, {"a": 1.5, "b": 0.25}) == 0.5

    def test_equal_graphs(self):
        g = NGramGraph({("a", "b"): 1.0})
        assert profile_delta(g, NGramGraph({("a", "b"): 1.0})) == 0.0

    def test_differing_graphs(self):
        g1 = NGramGraph({("a", "b"): 1.0})
        g2 = NGramGraph({("a", "b"): 0.5})
        assert profile_delta(g1, g2) == 0.5

    def test_equal_arrays(self):
        a = np.array([0.25, 0.75])
        assert profile_delta(a, a.copy()) == 0.0

    def test_shape_mismatch_is_incomparable(self):
        assert profile_delta(np.zeros(3), np.zeros(4)) == float("inf")

    def test_type_mismatch_is_incomparable(self):
        assert profile_delta({"a": 1.0}, np.zeros(2)) == float("inf")

    def test_digest_is_stable_and_sensitive(self):
        assert profile_digest({"a": 1.0}) == profile_digest({"a": 1.0})
        assert profile_digest({"a": 1.0}) != profile_digest({"a": 1.0000001})
        assert profile_digest(np.array([1.0])) != profile_digest(np.array([2.0]))


class TestSerialReplay:
    @pytest.fixture(scope="class")
    def replays(self):
        return run_replay(SPEC)

    def test_results_follow_spec_model_order(self, replays):
        assert [r.model for r in replays] == list(SPEC.models)

    def test_bag_and_graph_are_bit_exact(self, replays):
        for replay in replays:
            assert replay.exact, f"{replay.model} diverged: {replay.max_delta}"
            assert replay.max_delta == 0.0
            assert replay.parity_ok(tolerance=0.0)

    def test_every_user_streamed_updates(self, replays):
        for replay in replays:
            assert replay.users
            for user in replay.users:
                assert user.updates == user.docs  # chunk_size=1
                assert user.digest
                assert user.update_seconds >= 0.0
                assert user.rebuild_seconds >= user.final_rebuild_seconds >= 0.0

    def test_incremental_updates_cheaper_than_rebuild(self, replays):
        """The cost asymmetry exists (only its direction is checked:
        the size of the speedup depends on the machine)."""
        for replay in replays:
            assert replay.speedup > 1.0, f"{replay.model}: {replay.speedup}"

    def test_to_dict_roundtrips_schema(self, replays):
        payload = replays[0].to_dict()
        assert payload["model"] == "TN"
        assert set(payload) == {
            "model", "source", "params", "exact", "max_delta",
            "update_seconds", "rebuild_seconds", "mean_update_seconds",
            "mean_full_rebuild_seconds", "speedup", "users",
        }
        assert set(payload["users"][0]) == {
            "user", "docs", "updates", "exact", "max_delta", "digest",
            "update_seconds", "rebuild_seconds", "final_rebuild_seconds",
        }

    def test_chunked_stream_stays_exact(self):
        chunked = run_replay(dataclasses.replace(SPEC, chunk_size=3))
        for replay in chunked:
            assert replay.exact
            for user in replay.users:
                assert user.updates == -(-user.docs // 3)  # ceil division

    def test_jobs_replay_matches_serial_digests(self, replays):
        """Serial and --jobs runs agree bit for bit, user by user."""
        spec = dataclasses.replace(SPEC, models=("TN",))
        parallel = run_replay(spec, jobs=2)
        serial_tn = next(r for r in replays if r.model == "TN")
        assert [u.user for u in parallel[0].users] == [
            u.user for u in serial_tn.users
        ]
        assert [u.digest for u in parallel[0].users] == [
            u.digest for u in serial_tn.users
        ]
        assert parallel[0].exact


def _digests(replays: list[ModelReplay]) -> dict[tuple[str, int], str]:
    return {(r.model, u.user): u.digest for r in replays for u in r.users}


def _no_workers_left() -> bool:
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
    return multiprocessing.active_children() == []


class TestReplayCells:
    """``--jobs`` replay runs as supervised executor cells."""

    def test_jobs_replay_carries_worker_telemetry(self):
        spec = dataclasses.replace(SPEC, models=("TN", "LDA"))
        serial, parallel = Telemetry(), Telemetry()
        serial_replays = run_replay(spec, telemetry=serial)
        parallel_replays = run_replay(spec, jobs=2, telemetry=parallel)
        assert _digests(parallel_replays) == _digests(serial_replays)

        metrics = parallel.metrics.snapshot()
        assert metrics["docs.tokenized"]["value"] > 0
        assert metrics["gibbs.iterations"]["value"] > 0
        for name in ("replay.users", "replay.updates"):
            assert metrics[name] == serial.metrics.snapshot()[name]

        # Two models x two user chunks, each a worker-attributed
        # ``config`` span grafted under the parent's replay span.
        (replay_span,) = [s for s in parallel.tracer.to_payload() if s["name"] == "replay"]
        cells = [c for c in replay_span["children"] if c["name"] == "config"]
        assert len(cells) == 4
        assert {c["attributes"]["worker"] for c in cells} <= {0, 1}

    def test_jobs_replay_cells_have_one_key_per_model_and_chunk(self):
        # Two models x two user chunks: four cells, whose events and
        # retry jitter must tell the chunks apart.
        telemetry = Telemetry()
        sink = MemorySink()
        telemetry.events.add_sink(sink)
        run_replay(SPEC, jobs=2, telemetry=telemetry)
        for event in ("cell_started", "cell_finished"):
            keys = [r["cell"] for r in sink.records if r["event"] == event]
            assert len(keys) == len(set(keys)) == 4
        chunks = {key.split("|users=")[1] for key in keys}
        assert len(chunks) == 2

    def test_flaky_cell_recovers_with_clean_digests(self, monkeypatch):
        """A fault bounded by ``times=1`` fails the first attempt of
        each TN cell; the retries succeed with the fault-free digests."""
        spec = dataclasses.replace(SPEC, models=("TN", "TNG"))
        clean = run_replay(spec, jobs=2)
        plan = FaultPlan(
            faults=(FaultSpec(kind="raise", stage="fit", model="TN", times=1),)
        )
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(plan.to_dict()))
        telemetry = Telemetry()
        flaky = run_replay(spec, jobs=2, telemetry=telemetry)
        assert _digests(flaky) == _digests(clean)
        assert telemetry.metrics.snapshot()["sweep.cell.retry"]["value"] == 2

    def test_crashing_cell_raises_typed_error_and_leaks_no_workers(self, monkeypatch):
        """A worker that dies on every attempt exhausts the replay
        policy's attempts and surfaces as a typed error naming the
        model and its users -- not as a wait on a dead worker."""
        spec = dataclasses.replace(SPEC, models=("TN",))
        plan = FaultPlan(faults=(FaultSpec(kind="crash", stage="fit", model="TN"),))
        monkeypatch.setenv(FAULT_PLAN_ENV, json.dumps(plan.to_dict()))
        attempts = REPLAY_POLICY.retry.max_attempts
        with pytest.raises(CellQuarantinedError) as raised:
            run_replay(spec, jobs=2)
        message = str(raised.value)
        assert message.startswith("replay of TN for users [")
        assert f"after {attempts} attempt(s): crash WorkerCrashError" in message
        assert _no_workers_left()


class TestAggregates:
    def _user(self, **overrides):
        base = dict(
            user=1, docs=4, updates=4, exact=True, max_delta=0.0, digest="d",
            update_seconds=0.1, rebuild_seconds=0.8, final_rebuild_seconds=0.4,
        )
        base.update(overrides)
        return UserReplay(**base)

    def test_speedup_is_rebuild_over_update(self):
        replay = ModelReplay(
            model="TN", source="R", params={}, users=(self._user(),)
        )
        assert replay.mean_update_seconds == pytest.approx(0.025)
        assert replay.mean_full_rebuild_seconds == pytest.approx(0.4)
        assert replay.speedup == pytest.approx(16.0)

    def test_zero_updates_degenerate_speedup(self):
        empty = ModelReplay(model="TN", source="R", params={}, users=())
        assert empty.speedup == 1.0
        assert empty.exact
        assert empty.max_delta == 0.0

    def test_parity_tolerance(self):
        replay = ModelReplay(
            model="LDA", source="R", params={},
            users=(self._user(exact=False, max_delta=1e-9),),
        )
        assert not replay.parity_ok(tolerance=0.0)
        assert replay.parity_ok(tolerance=1e-8)
