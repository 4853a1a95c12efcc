"""Tests for the trace and profile report renderers.

Covers the tree shapes the pipeline actually produces: deeply nested
span chains, same-named sibling runs that merge into one row with a
call count, and parallel (``--jobs``) traces where worker span forests
were absorbed into the parent -- plus the resource columns, the
critical chain, stragglers and parallel efficiency of the one trace
report, and the hotspot and profile-diff renderers.
"""

from __future__ import annotations

from repro.obs.report import (
    critical_path,
    diff_profiles,
    format_hotspots,
    format_profile_diff,
    format_trace_report,
)
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import Span


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


def tree_rows(text):
    """The merged-tree rows: from the column header to the first blank line."""
    lines = text.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("span "))
    rows = []
    for line in lines[header + 1:]:
        if not line:
            break
        rows.append(line)
    return rows


def row(text, name):
    """The tree row of the span named ``name`` as (calls, wall, self, cpu, rss)."""
    line = next(r for r in tree_rows(text) if r.split()[0] == name)
    return line.split()[-5:]


def chain(text):
    """The critical path lines, heading excluded."""
    lines = text.splitlines()
    start = lines.index("critical path (serial chain through the run)") + 1
    end = lines.index("", start) if "" in lines[start:] else len(lines)
    return lines[start:end]


class TestTimingBreakdown:
    def test_deeply_nested_chain_indents_per_level(self):
        doc = trace(
            span(
                "evaluate",
                4.0,
                [span("fit", 3.0, [span("gibbs", 2.5, [span("sweep", 2.0)])])],
            )
        )
        text = format_trace_report(doc)
        assert "(in S)" not in text  # no charged spans, no charge note
        rows = tree_rows(text)
        evaluate = next(line for line in rows if "evaluate" in line)
        sweep = next(line for line in rows if "sweep" in line)
        assert evaluate.index("evaluate") == 0
        assert sweep.index("sweep") == 6  # three levels down, two spaces each

    def test_same_named_siblings_merge_with_count_and_sum(self):
        doc = trace(
            span(
                "evaluate",
                4.0,
                [
                    span("profiles", 1.0, [span("user", 0.5)]),
                    span("profiles", 2.0, [span("user", 1.5)]),
                ],
            )
        )
        text = format_trace_report(doc)
        assert [r.split()[0] for r in tree_rows(text)] == ["evaluate", "profiles", "user"]
        # Wall 3s; the users' 2s is child time, so 1s is the profiles' own.
        assert row(text, "profiles")[:3] == ["2", "3.000s", "1.000s"]
        # Children of all merged members roll up under the one row.
        assert row(text, "user")[:3] == ["2", "2.000s", "2.000s"]

    def test_parallel_trace_rolls_up_all_workers(self):
        # Two workers evaluated one cell each; the parent absorbed both
        # forests. TTime/ETime must sum across the workers' trees.
        parent = Telemetry()
        for model, fit, rank in (("TN", 1.0, 0.25), ("LDA", 2.0, 0.5)):
            worker = trace(
                span(
                    "evaluate",
                    fit + rank,
                    [span("fit", fit), span("profiles", 0.0), span("rank", rank)],
                    model=model,
                    source="R",
                )
            )
            parent.absorb({"spans": worker["spans"]})
        text = format_trace_report(parent.trace_payload())
        assert row(text, "evaluate")[:2] == ["2", "3.750s"]
        assert "TTime (fit + profiles) = 3.000s" in text
        assert "ETime (rank)           = 0.750s" in text

    def test_empty_trace_reports_no_spans(self):
        text = format_trace_report(trace())
        assert "(no spans recorded)" in text
        assert "TTime" not in text and "critical path" not in text

    def test_manifest_line_renders_provenance(self):
        doc = trace(
            span("evaluate", 1.0),
            manifest={"command": "evaluate", "seed": 7, "package_version": "1.0.0"},
        )
        text = format_trace_report(doc)
        assert text.splitlines()[1] == "run: evaluate, seed=7, repro 1.0.0"

    def test_charged_rows_are_marked_and_left_out_of_ttime(self):
        # A topic model's fold batch: 3s, already inside the two
        # per-user profiles segments beside it.
        doc = trace(
            span(
                "evaluate",
                9.0,
                [
                    span("fit", 2.0),
                    span("profiles.fold", 3.0, docs=40, charged_to="profiles"),
                    span("profiles", 2.0),
                    span("profiles", 2.0),
                    span("rank", 1.0),
                ],
            )
        )
        text = format_trace_report(doc)
        marked = next(r for r in tree_rows(text) if "profiles.fold" in r)
        assert marked.split()[:3] == ["profiles.fold", "(in", "profiles)"]
        assert "a row marked (in S) is already inside the S rows" in text
        assert "TTime (fit + profiles) = 6.000s" in text  # 2 + 2 x 2, not + 3
        assert "ETime (rank)           = 1.000s" in text


class TestResourceBreakdown:
    def test_columns_render_cpu_and_rss(self):
        doc = trace(
            span(
                "evaluate",
                1.0,
                [span("fit", 0.8, resources={"cpu_seconds": 0.7, "peak_rss_bytes": 96e6})],
                resources={"cpu_seconds": 0.9, "peak_rss_bytes": 100e6},
            )
        )
        text = format_trace_report(doc)
        assert text.splitlines()[1].split() == ["span", "calls", "wall", "self", "cpu", "rss"]
        assert row(text, "fit") == ["1", "0.800s", "0.800s", "0.700s", "91.6M"]
        assert "peak RSS = 95.4 MiB" in text

    def test_merged_siblings_sum_cpu_and_max_rss(self):
        doc = trace(
            span("rank", 1.0, resources={"cpu_seconds": 0.4, "peak_rss_bytes": 50e6}),
            span("rank", 2.0, resources={"cpu_seconds": 0.6, "peak_rss_bytes": 80e6}),
        )
        # Wall and cpu add up; rss takes the max (80e6 bytes).
        assert row(format_trace_report(doc), "rank") == [
            "2", "3.000s", "3.000s", "1.000s", "76.3M",
        ]

    def test_parent_without_samples_inherits_deep_peak(self):
        # Absorbed parallel traces often have bare wrapper spans above
        # resource-carrying worker spans: the deep max must surface.
        doc = trace(
            span(
                "config",
                3.0,
                [span("evaluate", 2.9, resources={"peak_rss_bytes": 70e6})],
            )
        )
        text = format_trace_report(doc)
        # Deep peak, not a dash; but no cpu samples of its own.
        assert row(text, "config")[-2:] == ["-", "66.8M"]
        assert row(text, "evaluate")[-2:] == ["-", "66.8M"]

    def test_unsampled_trace_suggests_the_flag(self):
        doc = trace(span("evaluate", 1.0))
        text = format_trace_report(doc)
        assert row(text, "evaluate")[-2:] == ["-", "-"]
        assert "--profile-resources" in text
        assert "peak RSS =" not in text


def sweep_trace():
    """A --jobs 2 sweep: one straggler cell, three quick ones."""
    def cell(model, duration, worker, fit, rank):
        return span(
            "config", duration,
            [span("evaluate", fit + rank, [span("fit", fit), span("rank", rank)])],
            model=model, label=model, source="R", worker=worker, attempt=1,
        )

    return trace(
        span(
            "sweep", 10.0,
            [
                cell("LDA", 9.0, 0, fit=8.0, rank=0.8),  # the straggler
                cell("TN", 2.0, 1, fit=1.5, rank=0.4),
                cell("TNG", 3.0, 1, fit=2.0, rank=0.9),
                cell("BTM", 4.0, 0, fit=3.0, rank=0.9),
            ],
            jobs=2,
        )
    )


class TestCriticalPath:
    def test_chain_descends_the_longest_child(self):
        spans = [Span.from_dict(p) for p in sweep_trace()["spans"]]
        chain = critical_path(spans)
        assert [s.name for s in chain] == ["sweep", "config", "evaluate", "fit"]
        assert chain[1].attributes["model"] == "LDA"
        assert chain[-1].duration == 8.0

    def test_report_renders_chain_with_self_times(self):
        lines = chain(format_trace_report(sweep_trace()))
        assert [line.split()[0] for line in lines] == ["sweep", "config", "evaluate", "fit"]
        # 4 cells x 18s child time overlap the 10s makespan: self time
        # clamps at zero instead of going negative.
        assert lines[0].endswith("self 0.000s")
        assert "model=LDA" in lines[1]
        assert "8.000s" in lines[-1]

    def test_phase_rollup_separates_self_and_child_time(self):
        text = format_trace_report(sweep_trace())
        # config: 18s over 4 cells; evaluate children cover 17.5s -> self 0.5s
        assert row(text, "config")[:3] == ["4", "18.000s", "0.500s"]
        # fit: 8 + 1.5 + 2 + 3, all self time
        assert row(text, "fit")[:3] == ["4", "14.500s", "14.500s"]
        assert row(text, "sweep")[:3] == ["1", "10.000s", "0.000s"]

    def test_a_charged_span_is_not_child_time_twice(self):
        # A topic model's rank batch: 3s, charged to the two per-user
        # rank segments beside it, which already hold those 3s.
        evaluate = span(
            "evaluate",
            10.0,
            [
                span("fit", 4.0),
                span("rank.fold", 3.0, docs=50, charged_to="rank"),
                span("rank", 2.5),
                span("rank", 2.5),
            ],
        )
        text = format_trace_report(trace(evaluate))
        assert chain(text)[0].endswith("self 1.000s")
        assert row(text, "evaluate")[2] == "1.000s"

    def test_stragglers_ranked_with_identity_and_attribution(self):
        text = format_trace_report(sweep_trace(), top=2)
        assert "top 2 straggler cells" in text
        lines = text.splitlines()
        first = next(line for line in lines if line.lstrip().startswith("1."))
        assert "LDA on R" in first
        assert "[worker 0, attempt 1]" in first
        assert "9.000s" in first
        second = next(line for line in lines if line.lstrip().startswith("2."))
        assert "BTM on R" in second
        assert not any(line.lstrip().startswith("3.") for line in lines)

    def test_parallel_efficiency_uses_the_jobs_attribute(self):
        text = format_trace_report(sweep_trace())
        # busy 18s / (2 workers x 10s makespan) = 90%
        assert (
            "parallel efficiency: busy 18.000s / "
            "(2 worker(s) x 10.000s makespan) = 90.0%"
        ) in text

    def test_serial_trace_defaults_to_one_worker(self):
        doc = trace(
            span("sweep", 4.0, [span("config", 3.0, model="TN", label="TN", source="R")])
        )
        text = format_trace_report(doc)
        assert "(1 worker(s) x 4.000s makespan) = 75.0%" in text

    def test_empty_trace_reports_no_spans(self):
        text = format_trace_report(trace())
        assert "(no spans recorded)" in text
        assert "straggler" not in text and "parallel efficiency" not in text


def profile_doc(stacks, hz=97.0, overhead=0.01):
    return {
        "version": 1, "kind": "repro-profile", "hz": hz,
        "samples": sum(s["count"] for s in stacks),
        "dropped": 0, "truncated": 0,
        "sample_seconds": overhead, "wall_seconds": 1.0,
        "overhead_ratio": overhead,
        "stacks": stacks,
    }


def stack(phase, frames, count):
    return {"phase": list(phase), "frames": [list(f) for f in frames], "count": count}


GIBBS = ("repro/models/topic/gibbs.py", "_sweep")
FIT = ("repro/models/topic/base.py", "fit")
RANK = ("repro/core/pipeline.py", "rank")


def fit_heavy_profile(gibbs=80, fit_only=10, rank=10):
    """fit phase dominated by the Gibbs sweep, plus a small rank phase."""
    return profile_doc([
        stack(("evaluate", "fit"), [FIT + (1,), GIBBS + (2,)], gibbs),
        stack(("evaluate", "fit"), [FIT + (1,)], fit_only),
        stack(("evaluate", "rank"), [RANK + (3,)], rank),
    ])


class TestHotspots:
    def test_phases_order_by_samples_and_rank_by_self_time(self):
        text = format_hotspots(fit_heavy_profile())
        lines = text.splitlines()
        assert lines[0] == "hotspots (stack samples per function)"
        assert "100 samples @ 97 Hz, sampler overhead 1.00%" in lines[1]
        fit_header = next(i for i, l in enumerate(lines) if l.startswith("phase "))
        assert lines[fit_header] == "phase evaluate/fit  (90 samples)"
        # The busier phase renders before the quieter one.
        assert text.index("evaluate/fit") < text.index("evaluate/rank")
        # Within the fit phase, the innermost Gibbs frame ranks first.
        first_row = lines[fit_header + 2]
        assert first_row.startswith("_sweep (repro/models/topic/gibbs.py)")

    def test_self_vs_cumulative_attribution(self):
        text = format_hotspots(fit_heavy_profile())
        gibbs_row = next(
            l for l in text.splitlines() if l.startswith("_sweep")
        )
        # Gibbs is innermost for 80 of 90 fit samples: self == cum == 80.
        assert "80" in gibbs_row and "88.9%" in gibbs_row
        fit_row = next(l for l in text.splitlines() if l.startswith("fit "))
        # fit() is innermost only when Gibbs isn't running (10 samples)
        # but on-stack for all 90.
        columns = fit_row.split()
        assert columns[-4:] == ["10", "11.1%", "90", "100.0%"]

    def test_top_limits_rows_per_phase(self):
        text = format_hotspots(fit_heavy_profile(), top=1)
        fit_section = text.split("phase evaluate/rank")[0]
        assert "_sweep" in fit_section
        assert "\nfit (" not in fit_section

    def test_line_numbers_aggregate_away(self):
        # One hot loop yields many distinct sampled lines; the report
        # keys functions by (file, func) so they fold into one row.
        doc = profile_doc([
            stack(("fit",), [GIBBS + (10,)], 3),
            stack(("fit",), [GIBBS + (11,)], 4),
        ])
        text = format_hotspots(doc)
        rows = [l for l in text.splitlines() if l.startswith("_sweep")]
        assert len(rows) == 1
        assert " 7" in rows[0]

    def test_empty_profile_reports_no_samples(self):
        text = format_hotspots(profile_doc([]))
        assert "(no samples recorded)" in text


class TestProfileDiff:
    def test_records_sorted_by_absolute_movement(self):
        before = fit_heavy_profile(gibbs=80, fit_only=10, rank=10)
        after = fit_heavy_profile(gibbs=30, fit_only=10, rank=60)
        records = diff_profiles(before, after)
        assert [abs(r["delta"]) for r in records] == sorted(
            (abs(r["delta"]) for r in records), reverse=True
        )
        gibbs = next(r for r in records if r["func"] == "_sweep")
        assert gibbs["before_share"] == 0.8
        assert gibbs["after_share"] == 0.3
        assert gibbs["delta"] == -0.5

    def test_functions_absent_on_one_side_default_to_zero(self):
        before = profile_doc([stack(("fit",), [GIBBS + (2,)], 10)])
        after = profile_doc([stack(("fit",), [RANK + (3,)], 10)])
        by_func = {r["func"]: r for r in diff_profiles(before, after)}
        assert by_func["_sweep"]["after_share"] == 0.0
        assert by_func["rank"]["before_share"] == 0.0

    def test_render_shows_movement_in_percentage_points(self):
        before = fit_heavy_profile(gibbs=80, fit_only=10, rank=10)
        after = fit_heavy_profile(gibbs=30, fit_only=10, rank=60)
        text = format_profile_diff(before, after)
        assert "profile diff (self-time share, percentage points)" in text
        assert "before: 100 samples, after: 100 samples" in text
        gibbs = next(l for l in text.splitlines() if l.startswith("_sweep"))
        assert "80.0%" in gibbs and "30.0%" in gibbs and "-50.0pp" in gibbs

    def test_identical_profiles_report_no_movement(self):
        doc = fit_heavy_profile()
        assert "(no hotspot movement)" in format_profile_diff(doc, doc)
