"""Shared body for the Figure 3-6 benches (one per user group)."""

from __future__ import annotations

from benchmarks._common import (
    FIGURE_SOURCE_LIST,
    bench_environment,
    bench_trials,
    figure_baselines,
    figure_sweep,
    write_result,
)
from repro.experiments.report import format_figure_map
from repro.twitter.entities import UserType


def run_figure_bench(benchmark, group: UserType, name: str, title: str) -> None:
    """Evaluate the shared sweep, render one group's MAP matrix, and
    check the figure's defining shape (content models beat RAN)."""
    bench_environment()
    result = benchmark.pedantic(figure_sweep, rounds=bench_trials(), iterations=1)
    baselines = figure_baselines().get(group, {})
    text = format_figure_map(
        result, group, FIGURE_SOURCE_LIST, baselines=baselines, title=title
    )
    write_result(name, text)

    rows = result.filtered(group=group)
    if not rows:  # tiny corpora may leave a group empty (e.g. no IP users)
        return
    ran = baselines.get("RAN", 0.0)
    best = max(row.map_score for row in rows)
    assert best > ran, f"no model beat RAN ({ran:.3f}) for {group.value}"
