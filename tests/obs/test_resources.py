"""Tests for the resource sampler and its tracer integration.

The contract under test: every span recorded under a sampler carries a
``resources`` mapping with CPU seconds and a peak-RSS reading; the
mapping round-trips through trace serialisation (so worker snapshots
survive ``Telemetry.absorb``); and the sampler's lifecycle is strictly
context-managed.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs import resources as resources_module
from repro.obs.resources import ResourceSampler, read_rss_bytes
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import Span, Tracer


class TestReadRss:
    def test_returns_a_plausible_resident_size(self):
        rss = read_rss_bytes()
        assert rss is not None
        # A running CPython interpreter occupies at least a few MiB.
        assert rss > 1024 * 1024


class TestLifecycle:
    def test_interval_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ResourceSampler(interval=0.0)  # repro: allow[RPR005] -- asserts the constructor rejects it

    def test_double_enter_rejected(self):
        with ResourceSampler() as sampler:
            with pytest.raises(ConfigurationError):
                sampler.__enter__()

    def test_thread_runs_only_inside_the_with_block(self):
        with ResourceSampler() as sampler:
            assert sampler.sampling
        assert not sampler.sampling

    def test_reentry_after_exit_is_allowed(self):
        with ResourceSampler() as sampler:
            pass
        with sampler:
            assert sampler.sampling


class TestWatches:
    def test_watch_records_cpu_and_rss(self):
        with ResourceSampler() as sampler:
            watch = sampler.watch()
            sum(i * i for i in range(20_000))
            resources = watch.stop()
        assert resources["cpu_seconds"] >= 0.0
        assert resources["peak_rss_bytes"] > 1024 * 1024

    def test_short_watch_still_gets_boundary_samples(self):
        # Far shorter than the sampling interval: only the boundary
        # samples taken at watch start/stop can supply the value.
        with ResourceSampler(interval=60.0) as sampler:
            resources = sampler.watch().stop()
        assert "peak_rss_bytes" in resources

    def test_concurrent_watches_each_get_peaks(self):
        with ResourceSampler() as sampler:
            outer = sampler.watch()
            inner = sampler.watch()
            inner_resources = inner.stop()
            outer_resources = outer.stop()
        assert inner_resources["peak_rss_bytes"] > 0
        assert outer_resources["peak_rss_bytes"] >= inner_resources["peak_rss_bytes"] * 0.5

    def test_watch_takes_one_reading_shared_with_open_watches(self, monkeypatch):
        readings = iter([10_000_000, 30_000_000])
        calls = []

        def fake_read() -> int:
            calls.append(1)
            return next(readings)

        monkeypatch.setattr(resources_module, "read_rss_bytes", fake_read)
        # The 60 s interval keeps the background thread from sampling.
        with ResourceSampler(interval=60.0) as sampler:
            outer = sampler.watch()
            assert len(calls) == 1
            assert outer.peak_rss_bytes == 10_000_000
            inner = sampler.watch()
            assert len(calls) == 2
            assert inner.peak_rss_bytes == 30_000_000
            assert outer.peak_rss_bytes == 30_000_000


class TestTracerIntegration:
    def test_spans_carry_resources_under_a_sampler(self):
        with ResourceSampler() as sampler:
            tracer = Tracer(resources=sampler)
            with tracer.span("fit"):
                pass
        (span,) = tracer.roots
        assert span.resources["peak_rss_bytes"] > 0
        assert "cpu_seconds" in span.resources

    def test_spans_stay_bare_without_a_sampler(self):
        tracer = Tracer()
        with tracer.span("fit"):
            pass
        (span,) = tracer.roots
        assert span.resources == {}
        assert "resources" not in span.to_dict()

    def test_resources_round_trip_serialisation(self):
        span = Span(name="fit", duration=0.5, resources={"peak_rss_bytes": 123.0})
        restored = Span.from_dict(span.to_dict())
        assert restored.resources == {"peak_rss_bytes": 123.0}

    def test_worker_resources_survive_absorb(self):
        # A worker records spans under its own sampler; the parent
        # absorbs the serialised telemetry. The resource snapshots must
        # ride along unchanged.
        with ResourceSampler() as sampler:
            worker = Telemetry(resources=sampler)
            with worker.span("evaluate", model="TN", source="R"):
                pass
        parent = Telemetry()
        parent.absorb({"spans": worker.tracer.to_payload()})
        (span,) = parent.tracer.roots
        assert span.resources["peak_rss_bytes"] > 0

    def test_telemetry_exposes_its_sampler(self):
        with ResourceSampler() as sampler:
            telemetry = Telemetry(resources=sampler)
            assert telemetry.resources is sampler
        assert Telemetry().resources is None
