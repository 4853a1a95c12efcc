"""Tests for the command-line interface."""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import build_parser, main
from repro.core.pipeline import ExperimentPipeline

SMALL = ["--users", "16", "--ticks", "40", "--seed", "4",
         "--group-size", "3", "--min-retweets", "3"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--model", "WORD2VEC"])

    def test_sources_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--out", "x.json", "--sources", "Z"])


class TestGenerate:
    def test_prints_table2(self, capsys):
        assert main(["generate", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "MicroblogDataset" in out
        assert "Outgoing tweets (TR)" in out


class TestEvaluate:
    def test_reports_map_and_baselines(self, capsys):
        assert main(["evaluate", "--model", "TN", "--source", "R", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "MAP" in out and "RAN" in out and "CHR" in out

    def test_trace_out_writes_a_trace_and_log_json_streams_events(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.json"
        log_path = tmp_path / "events.jsonl"
        code = main([
            "evaluate", "--model", "TN", "--source", "R", *SMALL,
            "--trace-out", str(trace_path), "--log-json", str(log_path),
        ])
        assert code == 0
        assert "trace written to" in capsys.readouterr().out

        trace = json.loads(trace_path.read_text())
        assert trace["version"] == 1
        assert trace["manifest"]["command"] == "evaluate"
        assert trace["manifest"]["wall_seconds"] is not None
        assert trace["spans"][0]["name"] == "evaluate"
        assert "doc_cache.miss" in trace["metrics"]

        events = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert any(e["event"] == "evaluate_done" for e in events)

    def test_profiled_evaluate_renders_resource_breakdown(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main([
            "evaluate", "--model", "TN", "--source", "R", *SMALL,
            "--trace-out", str(trace_path), "--profile-resources",
        ]) == 0
        capsys.readouterr()
        assert main([
            "report", "--artifact", "trace", "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace report" in out
        assert "peak RSS =" in out and "--profile-resources" not in out
        # The same sampler took stack samples; the trace carries them,
        # written after the sampler banked its wall time.
        profile = json.loads(trace_path.read_text())["profile"]
        assert profile["samples"] > 0 and profile["wall_seconds"] > 0
        assert main([
            "report", "--artifact", "hotspots", "--trace", str(trace_path),
        ]) == 0
        assert "phase evaluate" in capsys.readouterr().out


class TestSweepAndReport:
    def test_roundtrip(self, tmp_path, capsys):
        sweep_path = tmp_path / "sweep.json"
        code = main([
            "sweep", "--out", str(sweep_path), "--sources", "R", "--fast", *SMALL,
        ])
        assert code == 0
        assert sweep_path.exists()
        capsys.readouterr()

        assert main(["report", "--sweep", str(sweep_path), "--artifact", "figure"]) == 0
        out = capsys.readouterr().out
        assert "TN" in out

        assert main(["report", "--sweep", str(sweep_path), "--artifact", "figure7"]) == 0
        out = capsys.readouterr().out
        assert "TTime" in out

    def test_traced_sweep_embeds_manifest_and_reports_breakdown(
        self, tmp_path, capsys
    ):
        sweep_path = tmp_path / "sweep.json"
        trace_path = tmp_path / "trace.json"
        code = main([
            "sweep", "--out", str(sweep_path), "--sources", "R", "--fast",
            *SMALL, "--trace-out", str(trace_path),
        ])
        assert code == 0
        capsys.readouterr()

        payload = json.loads(sweep_path.read_text())
        assert payload["manifest"]["command"] == "sweep"
        assert "TN" in payload["manifest"]["models"]
        assert payload["rows"][0]["phase_seconds"]

        assert main([
            "report", "--artifact", "trace", "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "TTime (fit + profiles)" in out


def _strip_timings(rows):
    """Row values minus wall-clock fields, which vary run to run."""
    return [
        {k: v for k, v in row.items()
         if k not in ("training_seconds", "testing_seconds", "phase_seconds")}
        for row in rows
    ]


def _evaluate_resource_keys(trace):
    """The ``(span name, resource keys)`` pairs inside evaluate
    subtrees, and the evaluate spans themselves."""
    keys, evaluates = set(), []

    def visit(span, inside):
        inside = inside or span["name"] == "evaluate"
        if span["name"] == "evaluate":
            evaluates.append(span)
        if inside:
            keys.add((span["name"], tuple(sorted(span.get("resources", {})))))
        for child in span.get("children", ()):
            visit(child, inside)

    for root in trace["spans"]:
        visit(root, False)
    return keys, evaluates


class TestParallelAndResume:
    @pytest.fixture(scope="class")
    def sweeps(self, tmp_path_factory):
        """A serial and a ``--jobs 2`` sweep, both resource-sampled."""
        out = tmp_path_factory.mktemp("parallel")
        base = ["sweep", "--sources", "R", "--fast", *SMALL, "--profile-resources"]
        runs = {}
        for name, extra in (("serial", []), ("parallel", ["--jobs", "2"])):
            sweep, trace = out / f"{name}.json", out / f"{name}.trace.json"
            assert main([
                *base, *extra, "--out", str(sweep), "--trace-out", str(trace),
            ]) == 0
            runs[name] = (json.loads(sweep.read_text()), json.loads(trace.read_text()))
        return runs

    def test_jobs_2_matches_serial(self, sweeps):
        serial, parallel = sweeps["serial"][0], sweeps["parallel"][0]
        assert _strip_timings(parallel["rows"]) == _strip_timings(serial["rows"])

    def test_worker_spans_carry_resource_samples(self, sweeps):
        # Workers run their own resource samplers; their evaluate spans
        # reach the parent's trace through the telemetry merge.
        serial_keys, serial_evaluates = _evaluate_resource_keys(sweeps["serial"][1])
        parallel_keys, evaluates = _evaluate_resource_keys(sweeps["parallel"][1])
        assert len(evaluates) == len(serial_evaluates) > 0
        for span in evaluates:
            assert span["resources"]["peak_rss_bytes"] > 0, span["attributes"]
            assert span["resources"]["cpu_seconds"] >= 0.0, span["attributes"]
        workers = {
            config["attributes"].get("worker")
            for root in sweeps["parallel"][1]["spans"]
            for config in root.get("children", ())
            if config["name"] == "config"
        }
        assert workers == {0, 1}
        assert parallel_keys == serial_keys

    def test_journal_written_and_resume_restores(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        journal = tmp_path / "sweep.journal.jsonl"
        base = ["sweep", "--sources", "R", "--fast", *SMALL, "--out", str(out)]
        assert main([*base, "--journal"]) == 0
        assert journal.exists()
        first = json.loads(out.read_text())
        capsys.readouterr()

        # Tear the journal as a kill would, then resume. Cell records
        # interleave with heartbeat lines, so locate the cells first.
        lines = journal.read_text().splitlines()
        cell_indices = [
            i for i, line in enumerate(lines[1:], start=1)
            if json.loads(line).get("record") != "heartbeat"
        ]
        keep = cell_indices[2] + 1  # header + 3 cells (+ their heartbeats)
        journal.write_text(
            "\n".join(lines[: 1 + keep]) + "\n" + lines[cell_indices[3]][:25]
        )
        assert main([*base, "--resume"]) == 0
        captured = capsys.readouterr().out
        assert "resuming: 3 cells restored" in captured
        resumed = json.loads(out.read_text())
        assert _strip_timings(resumed["rows"]) == _strip_timings(first["rows"])


class TestMonitorAndExport:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        """One traced, journaled, event-logged sweep to observe."""
        base = tmp_path_factory.mktemp("observe")
        out = base / "sweep.json"
        events = base / "events.jsonl"
        trace = base / "trace.json"
        code = main([
            "sweep", "--sources", "R", "--fast", *SMALL, "--out", str(out),
            "--journal", "--log-json", str(events), "--trace-out", str(trace),
        ])
        assert code == 0
        return {
            "journal": base / "sweep.journal.jsonl",
            "events": events,
            "trace": trace,
        }

    def test_monitor_snapshot_of_a_journal(self, artifacts, capsys):
        assert main(["monitor", str(artifacts["journal"]), "--snapshot"]) == 0
        out = capsys.readouterr().out
        assert "sweep done:" in out
        assert "eta" in out

    def test_monitor_snapshot_json_is_machine_readable(self, artifacts, capsys):
        code = main([
            "monitor", str(artifacts["journal"]), "--snapshot", "--json",
        ])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["finished"] is True
        assert snapshot["done"] == snapshot["total"] > 0
        assert "eta_seconds" in snapshot and "workers" in snapshot

    def test_monitor_snapshot_of_an_events_file(self, artifacts, capsys):
        code = main([
            "monitor", str(artifacts["events"]), "--snapshot", "--json",
        ])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["finished"] is True
        assert snapshot["done"] == snapshot["total"] > 0

    def test_monitor_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["monitor", str(tmp_path / "nope.jsonl"), "--snapshot"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_export_trace_prints_chrome_trace_json(self, artifacts, capsys):
        assert main(["export", "trace", "--trace", str(artifacts["trace"])]) == 0
        events = json.loads(capsys.readouterr().out)
        assert isinstance(events, list)
        assert any(e["ph"] == "X" and e["name"] == "sweep" for e in events)
        assert any(
            e["ph"] == "M" and e.get("args", {}).get("name") == "main"
            for e in events
        )

    def test_export_trace_out_writes_a_file(self, artifacts, tmp_path, capsys):
        out = tmp_path / "trace.chrome.json"
        code = main([
            "export", "trace", "--trace", str(artifacts["trace"]),
            "--out", str(out),
        ])
        assert code == 0
        assert "written to" in capsys.readouterr().out
        assert isinstance(json.loads(out.read_text()), list)

    def test_export_unreadable_trace_exits_2(self, tmp_path, capsys):
        assert main([
            "export", "trace", "--trace", str(tmp_path / "missing.json"),
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_critical_path(self, artifacts, capsys):
        code = main([
            "report", "--artifact", "trace",
            "--trace", str(artifacts["trace"]), "--top", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "top 3 straggler cells" in out
        assert "parallel efficiency" in out


class TestQuietProgress:
    def test_quiet_drops_per_cell_lines(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "--sources", "R", "--fast", *SMALL, "--out", str(out),
            "--progress", "--quiet",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "MAP=" not in captured.out  # verbose per-cell lines gone
        assert "\rcells " in captured.err  # the inline line remains
        assert "eta" in captured.err

    def test_progress_alone_keeps_per_cell_lines(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "--sources", "R", "--fast", *SMALL, "--out", str(out),
            "--progress",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "MAP=" in captured.out
        assert "\rcells " in captured.err


class TestProfile:
    @pytest.fixture(scope="class")
    def profile_file(self, tmp_path_factory):
        """One profiled evaluate run shared by the read-only tests."""
        out = tmp_path_factory.mktemp("profile") / "profile.json"
        code = main([
            "profile", "--out", str(out), "--",
            "evaluate", "--model", "TN", "--source", "R", *SMALL,
        ])
        assert code == 0
        return out

    def test_wrapper_writes_a_profile_and_prints_hotspots(
        self, profile_file, capsys
    ):
        capsys.readouterr()
        doc = json.loads(profile_file.read_text())
        assert doc["kind"] == "repro-profile"
        assert doc["samples"] > 0
        assert doc["wall_seconds"] > 0
        # The wrapper forces telemetry on, so samples carry span paths.
        phases = {tuple(s["phase"]) for s in doc["stacks"]}
        assert any(p and p[0] == "evaluate" for p in phases)

    def test_report_hotspots_renders_a_saved_profile(self, profile_file, capsys):
        code = main([
            "report", "--artifact", "hotspots",
            "--profile", str(profile_file), "--top", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hotspots (stack samples per function)" in out
        assert "phase evaluate" in out
        assert "self%" in out and "cum%" in out

    def test_export_speedscope_document(self, profile_file, capsys):
        code = main([
            "export", "profile", "--profile", str(profile_file),
            "--format", "speedscope",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        assert doc["profiles"] and doc["shared"]["frames"]

    def test_export_collapsed_stacks(self, profile_file, tmp_path, capsys):
        out = tmp_path / "profile.collapsed"
        code = main([
            "export", "profile", "--profile", str(profile_file),
            "--format", "collapsed", "--out", str(out),
        ])
        assert code == 0
        assert "written to" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines
        # `phase;frames count` lines, flamegraph.pl-ready.
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_diff_of_a_profile_with_itself_is_quiet(self, profile_file, capsys):
        code = main([
            "profile", "diff", str(profile_file), str(profile_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile diff" in out
        assert "(no hotspot movement)" in out

    def test_one_sampler_thread_serves_both_instruments(
        self, tmp_path, monkeypatch, capsys
    ):
        seen = []
        evaluate = ExperimentPipeline.evaluate

        def counting_evaluate(*args, **kwargs):
            seen.append(
                sum("sampler" in thread.name for thread in threading.enumerate())
            )
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(ExperimentPipeline, "evaluate", counting_evaluate)
        out, trace_path = tmp_path / "profile.json", tmp_path / "trace.json"
        assert main([
            "profile", "--out", str(out), "--",
            "evaluate", "--model", "TN", "--profile-resources",
            "--trace-out", str(trace_path), *SMALL,
        ]) == 0
        capsys.readouterr()
        assert seen == [1]
        spans = json.loads(trace_path.read_text())["spans"]
        assert spans[0]["resources"]["peak_rss_bytes"] > 0
        assert json.loads(out.read_text())["samples"] > 0

    def test_diff_requires_two_paths(self):
        with pytest.raises(SystemExit):
            main(["profile", "diff", "only-one.json"])

    def test_unprofileable_command_is_rejected(self):
        with pytest.raises(SystemExit, match="cannot wrap"):
            main(["profile", "--", "monitor", "x.jsonl"])

    def test_missing_profile_exits_2(self, tmp_path, capsys):
        code = main([
            "export", "profile", "--profile", str(tmp_path / "missing.json"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err
