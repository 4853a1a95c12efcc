"""Tests for the chrome-trace and flamegraph exporters.

The chrome-trace contract: the output is a JSON array Perfetto can
load — metadata events naming the lanes, then one complete-duration
("ph": "X") event per span, worker-attributed spans on their own tid
lane, nesting reconstructed so children sit inside their parent's
interval.
"""

from __future__ import annotations

import json

from repro.obs.export import (
    chrome_trace_events,
    collapsed_stacks,
    format_chrome_trace,
    speedscope_document,
)


def span(name, duration, children=(), resources=None, **attributes):
    payload = {"name": name, "duration": duration}
    if attributes:
        payload["attributes"] = dict(attributes)
    if children:
        payload["children"] = list(children)
    if resources:
        payload["resources"] = dict(resources)
    return payload


def trace(*spans, manifest=None):
    return {"version": 1, "manifest": manifest, "spans": list(spans)}


def complete_events(events):
    return [e for e in events if e["ph"] == "X"]


class TestChromeTrace:
    def test_round_trips_as_a_json_array(self):
        doc = trace(span("sweep", 2.0, [span("config", 1.0, model="TN")]))
        text = format_chrome_trace(doc)
        events = json.loads(text)
        assert isinstance(events, list)
        assert all(
            set(e) >= {"name", "ph", "pid", "tid"} for e in events
        )

    def test_span_tree_becomes_nested_x_events(self):
        doc = trace(
            span("evaluate", 4.0, [span("fit", 3.0), span("rank", 0.5)])
        )
        xs = complete_events(chrome_trace_events(doc))
        by_name = {e["name"]: e for e in xs}
        evaluate, fit, rank = by_name["evaluate"], by_name["fit"], by_name["rank"]
        assert evaluate["dur"] == 4.0e6 and fit["dur"] == 3.0e6
        # Children nest inside the parent interval, laid back-to-back.
        assert fit["ts"] == evaluate["ts"]
        assert rank["ts"] == fit["ts"] + fit["dur"]
        assert rank["ts"] + rank["dur"] <= evaluate["ts"] + evaluate["dur"]

    def test_worker_attribution_maps_to_tid_lanes(self):
        doc = trace(
            span(
                "sweep",
                10.0,
                [
                    span("config", 4.0, worker=0, model="TN", source="R"),
                    span("config", 5.0, worker=1, model="TNG", source="R"),
                ],
                jobs=2,
            )
        )
        events = chrome_trace_events(doc)
        xs = complete_events(events)
        tids = {e["name"]: e["tid"] for e in xs if e["name"] == "sweep"}
        assert tids["sweep"] == 0  # main lane
        worker_lanes = sorted(
            e["tid"] for e in xs if e["name"] == "config"
        )
        assert worker_lanes == [1, 2]  # one lane per worker, main excluded
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[0] == "main"
        assert names[1] == "worker-0" and names[2] == "worker-1"

    def test_unattributed_children_inherit_the_worker_lane(self):
        doc = trace(
            span(
                "sweep",
                4.0,
                [span("config", 3.0, [span("fit", 2.0)], worker=1)],
            )
        )
        xs = complete_events(chrome_trace_events(doc))
        fit = next(e for e in xs if e["name"] == "fit")
        assert fit["tid"] == 2  # rides its parent's worker lane

    def test_same_lane_roots_lay_out_sequentially(self):
        doc = trace(span("a", 1.0), span("b", 2.0))
        xs = complete_events(chrome_trace_events(doc))
        a, b = (next(e for e in xs if e["name"] == n) for n in "ab")
        assert a["ts"] == 0.0
        assert b["ts"] == a["ts"] + a["dur"]

    def test_resources_and_attributes_land_in_args(self):
        doc = trace(
            span(
                "fit", 1.0, model="TN",
                resources={"peak_rss_bytes": 1024.0, "cpu_seconds": 0.9},
            )
        )
        (fit,) = complete_events(chrome_trace_events(doc))
        assert fit["args"]["model"] == "TN"
        assert fit["args"]["peak_rss_bytes"] == 1024.0
        assert fit["args"]["cpu_seconds"] == 0.9

    def test_empty_trace_yields_process_metadata_only(self):
        events = chrome_trace_events(trace())
        assert all(e["ph"] == "M" for e in events)


def profile(stacks, *, hz=97.0, samples=None, dropped=0, truncated=0,
            sample_seconds=0.01, wall_seconds=1.0):
    total = sum(s["count"] for s in stacks)
    return {
        "version": 1,
        "kind": "repro-profile",
        "hz": hz,
        "samples": total if samples is None else samples,
        "dropped": dropped,
        "truncated": truncated,
        "sample_seconds": sample_seconds,
        "wall_seconds": wall_seconds,
        "overhead_ratio": sample_seconds / wall_seconds,
        "stacks": stacks,
    }


def stack(phase, frames, count):
    return {"phase": list(phase), "frames": [list(f) for f in frames], "count": count}


class TestCollapsedStacks:
    def test_lines_join_phase_and_frames_with_counts(self):
        doc = profile([
            stack(("sweep", "fit"),
                  [("gibbs.py", "fit", 10), ("gibbs.py", "_sweep", 42)], 7),
        ])
        (line,) = collapsed_stacks(doc).splitlines()
        assert line == (
            "sweep;fit;fit (gibbs.py:10);_sweep (gibbs.py:42) 7"
        )

    def test_lines_are_sorted_for_determinism(self):
        doc = profile([
            stack(("b",), [("f.py", "g", 1)], 2),
            stack(("a",), [("f.py", "g", 1)], 3),
        ])
        lines = collapsed_stacks(doc).splitlines()
        assert lines == sorted(lines)
        assert lines[0].startswith("a;")

    def test_empty_profile_renders_empty(self):
        assert collapsed_stacks(profile([])) == ""


class TestSpeedscope:
    def _doc(self):
        return profile([
            stack(("sweep", "fit"), [("gibbs.py", "fit", 10)], 5),
            stack(("sweep", "fit"),
                  [("gibbs.py", "fit", 10), ("gibbs.py", "_sweep", 42)], 3),
            stack(("sweep", "rank"), [("rank.py", "rank", 7)], 2),
            stack((), [("sampler.py", "join", 1)], 1),
        ])

    def test_schema_and_top_level_shape(self):
        doc = speedscope_document(self._doc())
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        assert doc["activeProfileIndex"] == 0
        assert {"frames"} <= set(doc["shared"])

    def test_one_sampled_profile_per_phase(self):
        doc = speedscope_document(self._doc())
        names = [p["name"] for p in doc["profiles"]]
        assert names == ["(no span)", "sweep/fit", "sweep/rank"]
        assert all(p["type"] == "sampled" for p in doc["profiles"])

    def test_frames_are_shared_and_deduped(self):
        doc = speedscope_document(self._doc())
        frames = doc["shared"]["frames"]
        keys = [(f["name"], f["file"], f["line"]) for f in frames]
        assert len(keys) == len(set(keys))
        # The fit frame appears in two stacks but only once in the table.
        assert sum(1 for f in frames if f["name"] == "fit") == 1

    def test_weights_are_sample_counts(self):
        doc = speedscope_document(self._doc())
        fit = next(p for p in doc["profiles"] if p["name"] == "sweep/fit")
        assert sorted(fit["weights"]) == [3, 5]
        assert fit["endValue"] == 8
        assert len(fit["samples"]) == len(fit["weights"])
        frames = doc["shared"]["frames"]
        # Samples index into the shared frame table.
        for sample in fit["samples"]:
            assert all(0 <= i < len(frames) for i in sample)
