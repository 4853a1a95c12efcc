"""Tests for structured event logging and run manifests."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.obs.events import EventLog, JsonLinesSink, MemorySink
from repro.obs.manifest import RunManifest


class TestEventLog:
    def test_records_reach_every_sink(self):
        log = EventLog()
        first, second = MemorySink(), MemorySink()
        log.add_sink(first)
        log.add_sink(second)
        log.emit("config_result", map=0.5)
        assert len(first.records) == len(second.records) == 1
        assert first.records[0]["event"] == "config_result"
        assert first.records[0]["map"] == 0.5
        assert "ts" in first.records[0]

    def test_remove_sink_stops_delivery(self):
        log = EventLog()
        sink = MemorySink()
        log.add_sink(sink)
        log.remove_sink(sink)
        log.emit("ignored")
        assert sink.records == []

    def test_memory_sink_filters_by_event(self):
        log = EventLog()
        sink = log.add_sink(MemorySink())
        log.emit("a", n=1)
        log.emit("b")
        log.emit("a", n=2)
        assert [r["n"] for r in sink.of("a")] == [1, 2]

    def test_jsonl_sink_writes_one_valid_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        sink = JsonLinesSink(path)
        log.add_sink(sink)
        log.emit("sweep_start", configurations=9)
        log.emit("config_result", label="TN(n=3)", map=0.61)
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["event"] == "sweep_start"
        assert records[1]["label"] == "TN(n=3)"

    def test_jsonl_sink_creates_parent_directories(self, tmp_path):
        sink = JsonLinesSink(tmp_path / "deep" / "dir" / "e.jsonl")
        sink({"event": "x"})
        sink.close()
        assert (tmp_path / "deep" / "dir" / "e.jsonl").exists()


class TestSequenceNumbers:
    """Records are totally ordered by ``seq``, even across merged
    worker streams whose wall clocks tie or step backwards."""

    def test_emit_stamps_strictly_increasing_seq(self):
        log = EventLog()
        sink = log.add_sink(MemorySink())
        for n in range(5):
            log.emit("tick", n=n)
        seqs = [r["seq"] for r in sink.records]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        assert seqs[0] == 1

    def test_forward_restamps_seq_from_the_parent_counter(self):
        parent = EventLog()
        sink = parent.add_sink(MemorySink())
        parent.emit("sweep_start")
        # A worker's record arrives carrying the *worker's* seq (1) and
        # a timestamp that ties with the parent's own records.
        worker_record = {"event": "cell_done", "ts": 0.0, "seq": 1}
        forwarded = parent.forward(worker_record)
        parent.emit("sweep_done")
        seqs = [r["seq"] for r in sink.records]
        assert seqs == [1, 2, 3]  # total order survives the merge
        assert forwarded["worker_seq"] == 1  # the ordinal is preserved

    def test_forward_without_seq_still_orders(self):
        parent = EventLog()
        sink = parent.add_sink(MemorySink())
        parent.forward({"event": "legacy", "ts": 0.0})
        assert sink.records[0]["seq"] == 1
        assert "worker_seq" not in sink.records[0]


class TestRunManifest:
    def test_create_stamps_environment(self):
        manifest = RunManifest.create(
            seed=7, dataset={"n_users": 40}, models=["TN", "LDA"], command="sweep"
        )
        assert manifest.seed == 7
        assert manifest.package_version
        assert manifest.python_version
        assert manifest.platform
        assert manifest.started_at
        assert manifest.wall_seconds is None

    def test_finish_records_wall_clock(self):
        manifest = RunManifest.create(seed=0)
        manifest.finish()
        assert manifest.wall_seconds is not None
        assert manifest.wall_seconds >= 0.0

    def test_round_trip_through_dict(self):
        manifest = RunManifest.create(
            seed=3, dataset={"n_users": 16}, models=["TN"], command="evaluate",
            note="smoke",
        ).finish()
        payload = manifest.to_dict()
        json.dumps(payload)  # must be JSON-serialisable
        restored = RunManifest.from_dict(payload)
        assert restored.seed == 3
        assert restored.dataset == {"n_users": 16}
        assert restored.models == ["TN"]
        assert restored.extra == {"note": "smoke"}
        assert restored.wall_seconds == manifest.wall_seconds
        assert restored.peak_rss_mb == manifest.peak_rss_mb
        assert restored.children_peak_rss_mb == manifest.children_peak_rss_mb

    def test_finish_records_peak_rss(self):
        manifest = RunManifest.create(seed=0)
        assert manifest.peak_rss_mb is None
        manifest.finish()
        assert manifest.peak_rss_mb > 0
        assert manifest.children_peak_rss_mb >= 0

    def test_stamping_forks_no_child(self):
        # The children's peak must be the run's own workers, not a helper
        # process the manifest started to read the platform.
        code = (
            "from repro.obs.manifest import RunManifest\n"
            "manifest = RunManifest.create(seed=0).finish()\n"
            "assert manifest.platform\n"
            "print(manifest.children_peak_rss_mb)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        ).stdout
        assert float(out) == 0.0

    def test_dict_without_peak_rss_still_loads(self):
        # The committed sweeps predate the peak-RSS fields.
        old = {"seed": 4, "command": "sweep", "wall_seconds": 2.5, "cpu_count": 2}
        restored = RunManifest.from_dict(old)
        assert restored.seed == 4 and restored.wall_seconds == 2.5
        assert restored.peak_rss_mb is None
        assert restored.children_peak_rss_mb is None
