"""Tests for the statistical stack-sampling profiler.

Two properties carry the subsystem: merged parallel profiles equal the
union of the per-worker ones (prefixed under the parent's open span, so
a ``--jobs N`` profile reads like a serial one), and span attribution
puts samples under the phase that was open when they were taken.  The
acceptance tests at the bottom pin both against the real sweep and the
real Gibbs sampler.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.core.sources import RepresentationSource
from repro.errors import ConfigurationError, PersistenceError
from repro.experiments.executors import ProcessCellExecutor
from repro.models.topic.lda import LdaModel
from repro.obs.profiler import (
    DEFAULT_HZ,
    MAX_STACK_DEPTH,
    Profile,
    StackSampler,
    _normalize_filename,
    active_sampler,
    load_profile,
)
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import Tracer
from repro.twitter.entities import UserType

from tests.experiments.test_executors import SPEC, _configs, _runner

FIT_FRAMES = (("repro/models/topic/gibbs.py", "_sweep", 42),)
RANK_FRAMES = (("repro/core/pipeline.py", "rank", 7),)


def _worker_profile(counts):
    """A worker-shaped profile: ``{phase_path: n}`` -> Profile."""
    profile = Profile(hz=DEFAULT_HZ)
    for phase, n in counts.items():
        for _ in range(n):
            profile.record(tuple(phase.split("/")), FIT_FRAMES)
    return profile


class TestProfileTable:
    def test_record_accumulates_counts_and_totals(self):
        profile = Profile()
        profile.record(("sweep", "fit"), FIT_FRAMES)
        profile.record(("sweep", "fit"), FIT_FRAMES)
        profile.record(("sweep", "rank"), RANK_FRAMES, truncated=True)
        assert profile.samples == 3
        assert profile.truncated == 1
        assert profile.counts[(("sweep", "fit"), FIT_FRAMES)] == 2
        assert profile.phase_totals() == {"sweep/fit": 2, "sweep/rank": 1}

    def test_merge_is_the_union_of_both_tables(self):
        left = _worker_profile({"fit": 3})
        right = _worker_profile({"fit": 2, "rank": 1})
        right.sample_seconds, right.wall_seconds = 0.01, 1.0
        left.merge(right)
        assert left.phase_totals() == {"fit": 5, "rank": 1}
        assert left.samples == 6
        assert left.sample_seconds == pytest.approx(0.01)
        assert left.wall_seconds == pytest.approx(1.0)

    def test_merge_prefix_reparents_phase_paths(self):
        # Absorb passes the joining thread's open spans so worker
        # stacks nest exactly where Tracer.attach grafts worker spans.
        parent = Profile()
        parent.merge(_worker_profile({"config/evaluate/fit": 4}),
                     prefix=("sweep",))
        assert parent.phase_totals() == {"sweep/config/evaluate/fit": 4}

    def test_merge_accepts_a_document(self):
        parent = Profile()
        parent.merge(_worker_profile({"fit": 2}).to_dict())
        assert parent.phase_totals() == {"fit": 2}

    def test_round_trips_through_dict(self):
        profile = _worker_profile({"sweep/fit": 3, "sweep/rank": 1})
        profile.sample_seconds, profile.wall_seconds = 0.02, 2.0
        restored = Profile.from_dict(profile.to_dict())
        assert restored.counts == profile.counts
        assert restored.samples == profile.samples
        assert restored.overhead_ratio == pytest.approx(0.01)

    def test_document_stacks_are_sorted(self):
        profile = Profile()
        profile.record(("b",), RANK_FRAMES)
        profile.record(("a",), FIT_FRAMES)
        stacks = profile.to_dict()["stacks"]
        assert [s["phase"] for s in stacks] == [["a"], ["b"]]

    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ConfigurationError):
            Profile(hz=0.0)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        profile = _worker_profile({"sweep/fit": 2})
        path = profile.save(tmp_path / "profile.json")
        doc = load_profile(path)
        assert doc["kind"] == "repro-profile"
        assert Profile.from_dict(doc).phase_totals() == {"sweep/fit": 2}

    def test_accepts_a_trace_with_an_embedded_profile(self, tmp_path):
        trace = {"version": 1, "spans": [],
                 "profile": _worker_profile({"fit": 1}).to_dict()}
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(trace))
        assert load_profile(path)["samples"] == 1

    def test_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"version": 1, "spans": []}))
        with pytest.raises(PersistenceError, match="not a repro profile"):
            load_profile(path)

    def test_rejects_unknown_versions(self, tmp_path):
        doc = _worker_profile({"fit": 1}).to_dict()
        doc["version"] = 99
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PersistenceError, match="version"):
            load_profile(path)


class TestFilenameNormalization:
    def test_strips_checkout_prefixes(self):
        assert _normalize_filename(
            "/root/repo/src/repro/models/topic/gibbs.py"
        ) == "repro/models/topic/gibbs.py"
        assert _normalize_filename(
            "/usr/lib/python3.11/json/decoder.py"
        ) == "3.11/json/decoder.py"
        assert _normalize_filename(
            "/venv/lib/python3.11/site-packages/numpy/core/x.py"
        ) == "numpy/core/x.py"

    def test_synthetic_filenames_pass_through(self):
        assert _normalize_filename("<string>") == "<string>"


class TestSamplerLifecycle:
    def test_context_manager_starts_and_joins_the_thread(self):
        sampler = StackSampler(hz=200.0)  # repro: allow[RPR005] -- entered via `with` below; the test inspects pre-enter state
        assert not sampler.sampling and active_sampler() is None
        with sampler as entered:
            assert entered is sampler
            assert sampler.sampling
            assert active_sampler() is sampler
            assert any(
                t.name == "repro-stack-sampler" for t in threading.enumerate()
            )
        assert not sampler.sampling
        assert active_sampler() is None
        assert all(
            t.name != "repro-stack-sampler" for t in threading.enumerate()
        )

    def test_one_sampler_per_process(self):
        with StackSampler(hz=0.001):
            with pytest.raises(ConfigurationError, match="already active"):
                StackSampler(hz=0.001).__enter__()  # repro: allow[RPR005] -- raises before sampling starts; nothing to join
        # The slot frees on exit; the next sampler can enter.
        with StackSampler(hz=0.001):
            pass

    def test_reentering_a_running_sampler_raises(self):
        with StackSampler(hz=0.001) as sampler:
            with pytest.raises(ConfigurationError, match="already sampling"):
                sampler.__enter__()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            StackSampler(hz=-1.0)  # repro: allow[RPR005] -- constructor rejects it; never entered
        with pytest.raises(ConfigurationError):
            StackSampler(max_depth=0)  # repro: allow[RPR005] -- constructor rejects it; never entered

    def test_exit_banks_wall_time_and_overhead(self):
        with StackSampler(hz=500.0) as sampler:
            deadline = time.perf_counter() + 0.05
            while time.perf_counter() < deadline:
                sum(i * i for i in range(100))
            assert sampler.profile.wall_seconds == 0.0  # banked on exit only
        doc = sampler.profile.to_dict()
        assert doc["samples"] > 0
        assert doc["wall_seconds"] >= 0.05
        # Sampling must stay cheap relative to the window it measures.
        assert doc["overhead_ratio"] < 0.5

    def test_sampling_shortens_the_switch_interval_and_restores_it(self):
        # A short switch interval hands the GIL to the sampling thread
        # soon after it asks, instead of at the target's next GIL release.
        before = sys.getswitchinterval()
        with StackSampler(hz=100.0):
            assert sys.getswitchinterval() == pytest.approx(min(before, 0.001))
        assert sys.getswitchinterval() == before


class TestAttribution:
    # hz=0.001 keeps the background thread asleep; sample_once() taken
    # from the target thread itself makes the captured stack and span
    # path deterministic.

    def test_samples_carry_the_open_span_path(self):
        tracer = Tracer()
        with StackSampler(hz=0.001) as sampler:
            with tracer.span("evaluate"):
                with tracer.span("fit"):
                    sampler.sample_once()
        ((phase, frames),) = list(sampler.profile.counts)
        assert phase == ("evaluate", "fit")
        # Innermost frame is the sampling call itself, taken on the
        # target thread; outermost frames are the test runner's.
        assert frames[-1][0] == "repro/obs/profiler.py"
        assert frames[-1][1] == "sample_once"

    def test_samples_outside_spans_have_an_empty_phase(self):
        with StackSampler(hz=0.001) as sampler:
            sampler.sample_once()
        ((phase, _frames),) = list(sampler.profile.counts)
        assert phase == ()

    def test_deep_stacks_truncate_the_outermost_frames(self):
        def recurse(depth):
            if depth == 0:
                sampler.sample_once()
            else:
                recurse(depth - 1)

        with StackSampler(hz=0.001, max_depth=4) as sampler:
            recurse(MAX_STACK_DEPTH)
        assert sampler.profile.truncated == 1
        ((_phase, frames),) = list(sampler.profile.counts)
        assert len(frames) == 4
        # The innermost (hot) frames survive truncation.
        assert frames[-1][1] == "sample_once"
        assert frames[-2][1] == "recurse"


class TestAbsorb:
    def test_worker_profile_merges_into_the_active_sampler(self):
        telemetry = Telemetry()
        worker = _worker_profile({"config/evaluate/fit": 5})
        with StackSampler(hz=0.001) as sampler:
            with telemetry.span("sweep"):
                telemetry.absorb({"profile": worker.to_dict()})
        assert sampler.profile.phase_totals() == {
            "sweep/config/evaluate/fit": 5
        }

    def test_without_a_sampler_the_profile_rides_the_trace(self):
        telemetry = Telemetry()
        with telemetry.span("sweep"):
            telemetry.absorb(
                {"profile": _worker_profile({"config/fit": 2}).to_dict()}
            )
        payload = telemetry.trace_payload()
        embedded = Profile.from_dict(payload["profile"])
        assert embedded.phase_totals() == {"sweep/config/fit": 2}

    def test_merged_profile_is_the_union_of_the_workers(self):
        # The acceptance property behind `--jobs N`: one merged profile
        # whose per-phase totals equal the union of the per-worker
        # profiles, all reparented under the parent's open sweep span.
        workers = [
            _worker_profile({"config/evaluate/fit": 7, "config/evaluate/rank": 2}),
            _worker_profile({"config/evaluate/fit": 3}),
        ]
        telemetry = Telemetry()
        with StackSampler(hz=0.001) as sampler:
            with telemetry.span("sweep"):
                for worker in workers:
                    telemetry.absorb({"profile": worker.to_dict()})
        union: dict[str, int] = {}
        for worker in workers:
            for phase, count in worker.phase_totals().items():
                key = "sweep/" + phase
                union[key] = union.get(key, 0) + count
        assert sampler.profile.phase_totals() == union
        assert sampler.profile.samples == sum(w.samples for w in workers)


class TestSweepAcceptance:
    """End-to-end: real sweeps, serial and ``--jobs 2``, under a sampler."""

    @pytest.fixture(scope="class")
    def profiles(self):
        # Telemetry is what opens the evaluate/fit spans the samples
        # attribute to -- exactly what `repro profile` forces on.
        configs = _configs()[:2]
        with StackSampler(hz=200.0) as serial_sampler:
            _runner(telemetry=Telemetry()).run(
                configs, [RepresentationSource.R], groups=[UserType.ALL]
            )
        with StackSampler(hz=200.0) as parallel_sampler:
            _runner(telemetry=Telemetry()).run(
                configs, [RepresentationSource.R], groups=[UserType.ALL],
                executor=ProcessCellExecutor(SPEC, jobs=2),
            )
        return serial_sampler.profile.to_dict(), parallel_sampler.profile.to_dict()

    def test_parallel_document_schema_matches_serial(self, profiles):
        serial, parallel = profiles
        assert set(serial) == set(parallel)
        assert serial["kind"] == parallel["kind"] == "repro-profile"
        assert {"phase", "frames", "count"} == set(serial["stacks"][0])
        assert {"phase", "frames", "count"} == set(parallel["stacks"][0])

    def test_worker_samples_reparent_under_the_sweep_span(self, profiles):
        _serial, parallel = profiles
        totals = Profile.from_dict(parallel).phase_totals()
        # Workers sample themselves inside config/evaluate; absorb
        # prefixes the parent's open sweep span, so the merged phase
        # paths read exactly like a serial run's.
        assert any(key.startswith("sweep/config/evaluate") for key in totals)
        # Nothing is left under a bare worker-local path.
        assert not any(key.startswith("config/") for key in totals)

    def test_serial_and_parallel_agree_on_the_phase_tree(self, profiles):
        # Individual leaf phases are stochastic (a TN fit can finish
        # between two samples), but every deep path in either profile
        # must descend through the same sweep/config/evaluate spine.
        serial, parallel = profiles

        def deep_prefixes(doc):
            totals = Profile.from_dict(doc).phase_totals()
            return {
                "/".join(key.split("/")[:3])
                for key in totals
                if key.count("/") >= 2
            }

        assert deep_prefixes(serial) == deep_prefixes(parallel) != set()


class TestGibbsHotspot:
    def test_most_fit_samples_land_in_gibbs(self, tiny_corpus):
        # The profiler's reason to exist: ROADMAP's vectorization work
        # needs stack evidence that LDA fit time is the Gibbs sweep.
        corpus = list(tiny_corpus) * 40
        user_ids = [f"u{i % 6}" for i in range(len(corpus))]
        tracer = Tracer()
        with StackSampler(hz=400.0) as sampler:
            with tracer.span("fit"):
                deadline = time.perf_counter() + 8.0
                while time.perf_counter() < deadline:
                    LdaModel(n_topics=4, iterations=40, seed=0).fit(
                        corpus, user_ids=user_ids
                    )
                    fit_samples = sum(
                        count
                        for (phase, _f), count in sampler.profile.counts.items()
                        if phase == ("fit",)
                    )
                    if fit_samples >= 40:
                        break
        in_gibbs = total = 0
        for (phase, frames), count in sampler.profile.counts.items():
            if phase != ("fit",):
                continue
            total += count
            if any(frame[0].endswith("models/topic/gibbs.py") for frame in frames):
                in_gibbs += count
        assert total >= 40
        assert in_gibbs / total >= 0.5
