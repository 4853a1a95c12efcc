"""Render saved traces and profiles as human-readable reports.

``repro report --artifact trace --trace trace.json`` uses
:func:`format_trace_report` to print one span tree in one walk: sibling
spans with the same name merge into one row, so a 20-user run shows one
``profiles`` row with 20 calls rather than twenty rows. Each row carries
calls, wall, self, CPU and peak-RSS columns; CPU and RSS come from a
:class:`~repro.obs.sampling.Sampler` (``--profile-resources`` runs) and
read ``-`` where nothing was sampled. The footer restates the paper's
two efficiency measures (TTime = fit + profiles, ETime = rank), the
run's peak RSS, the serial critical chain, the straggler cells and the
sweep's parallel efficiency.

``--artifact hotspots`` renders a stack profile with
:func:`format_hotspots`, and ``repro profile diff`` compares two with
:func:`format_profile_diff`.
"""

from __future__ import annotations

from repro.obs.tracing import Span

__all__ = [
    "critical_path",
    "diff_profiles",
    "format_hotspots",
    "format_profile_diff",
    "format_trace_report",
]

#: Span names whose rollup forms the paper's TTime measure.
TRAINING_PHASES = ("fit", "profiles")
#: Span name whose rollup forms the paper's ETime measure.
TESTING_PHASE = "rank"

_MIB = 1024 * 1024


def _manifest_line(trace: dict, lines: list[str]) -> None:
    manifest = trace.get("manifest")
    if not manifest:
        return
    bits = []
    if manifest.get("command"):
        bits.append(str(manifest["command"]))
    if manifest.get("seed") is not None:
        bits.append(f"seed={manifest['seed']}")
    if manifest.get("package_version"):
        bits.append(f"repro {manifest['package_version']}")
    if manifest.get("started_at"):
        bits.append(f"started {manifest['started_at']}")
    if bits:
        lines.append("run: " + ", ".join(bits))


def _child_seconds(span: Span) -> float:
    """Summed child durations, leaving out children marked
    ``charged_to``: their seconds are already inside sibling spans
    (a topic model's ``profiles.fold`` batch is charged to the per-user
    ``profiles`` segments)."""
    return sum(
        child.duration or 0.0
        for child in span.children
        if "charged_to" not in child.attributes
    )


def _self_seconds(span: Span) -> float:
    """A span's own time: duration minus child time, floored at zero.

    Absorbed worker subtrees can overlap their parent's wall clock, so
    child time may exceed the parent duration; negative self time means
    "fully accounted for by (parallel) children" and renders as zero.
    """
    return max(0.0, (span.duration or 0.0) - _child_seconds(span))


def _peak(*values: float | None) -> float | None:
    present = [float(v) for v in values if v is not None]
    return max(present) if present else None


def _attributes(span: Span) -> str:
    if not span.attributes:
        return ""
    return " [" + " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items())) + "]"


def _row_label(exemplar: Span, calls: int) -> str:
    charged = exemplar.attributes.get("charged_to")
    if charged is not None:
        return f"{exemplar.name} (in {charged})"
    return exemplar.name + (_attributes(exemplar) if calls == 1 else "")


def _render_tree(
    spans: list[Span], depth: int, lines: list[str], by_name: dict[str, list[Span]]
) -> float | None:
    """Append one row per merged sibling group, parents before children.

    Same-named siblings merge: wall, self and CPU add up, RSS takes the
    highest peak anywhere in the members' subtrees, and the members'
    children merge one level down. Every span is indexed in ``by_name`` on the way. Returns
    the peak RSS of the whole forest, or None when none was sampled.
    """
    groups: dict[str, list[Span]] = {}
    for span in spans:
        groups.setdefault(span.name, []).append(span)
    forest_peak: float | None = None
    for name, members in groups.items():
        by_name.setdefault(name, []).extend(members)
        row = len(lines)
        lines.append("")
        children = [child for member in members for child in member.children]
        rss = _peak(
            _render_tree(children, depth + 1, lines, by_name),
            *(member.resources.get("peak_rss_bytes") for member in members),
        )
        cpu_values = [
            float(value)
            for member in members
            if (value := member.resources.get("cpu_seconds")) is not None
        ]
        wall = sum(member.duration or 0.0 for member in members)
        own = sum(_self_seconds(member) for member in members)
        cpu_cell = f"{sum(cpu_values):>9.3f}s" if cpu_values else f"{'-':>10}"
        rss_cell = f"{rss / _MIB:>9.1f}M" if rss is not None else f"{'-':>10}"
        label = "  " * depth + _row_label(members[0], len(members))
        lines[row] = (
            f"{label:<48}{len(members):>6}{wall:>10.3f}s{own:>10.3f}s{cpu_cell}{rss_cell}"
        )
        forest_peak = _peak(forest_peak, rss)
    return forest_peak


def critical_path(spans: list[Span]) -> list[Span]:
    """The serial critical chain: at each level, the longest child.

    For a sweep trace this descends sweep -> straggler cell -> its
    slowest phase -> ...: the chain of spans the run's makespan was
    actually waiting on, which is where optimisation effort pays.
    """
    if not spans:
        return []
    current = max(spans, key=lambda s: s.duration or 0.0)
    path = [current]
    while current.children:
        current = max(current.children, key=lambda s: s.duration or 0.0)
        path.append(current)
    return path


def _cell_identity(span: Span) -> str:
    label = span.attributes.get("label", span.name)
    source = span.attributes.get("source")
    identity = f"{label} on {source}" if source is not None else str(label)
    worker = span.attributes.get("worker")
    if worker is not None:
        identity += f"  [worker {worker}"
        attempt = span.attributes.get("attempt")
        if attempt is not None:
            identity += f", attempt {attempt}"
        identity += "]"
    return identity


def format_trace_report(trace: dict, top: int = 5) -> str:
    """The merged span tree, TTime/ETime, peak RSS, critical chain,
    straggler cells and parallel efficiency of one trace.

    A sweep's cells are independent, so its *serial* critical path is
    the chain sweep -> slowest cell -> that cell's slowest phase; the
    straggler list ranks the ``top`` slowest cells with their (model,
    source, params) identity and worker/attempt attribution; and
    parallel efficiency is busy time over ``workers x makespan`` -- the
    fraction of the pool that was doing cell work rather than waiting.
    """
    spans = [Span.from_dict(payload) for payload in trace.get("spans", [])]
    lines = ["trace report (merged span tree)"]
    _manifest_line(trace, lines)
    if not spans:
        lines.append("(no spans recorded)")
        return "\n".join(lines)

    lines.append(f"{'span':<48}{'calls':>6}{'wall':>11}{'self':>11}{'cpu':>10}{'rss':>10}")
    by_name: dict[str, list[Span]] = {}
    peak = _render_tree(spans, 0, lines, by_name)
    lines.append("")
    if any("charged_to" in s.attributes for members in by_name.values() for s in members):
        lines.append("a row marked (in S) is already inside the S rows: do not add it again")
    training = sum(sum(root.total(p) for root in spans) for p in TRAINING_PHASES)
    testing = sum(root.total(TESTING_PHASE) for root in spans)
    lines.append(f"TTime (fit + profiles) = {training:.3f}s")
    lines.append(f"ETime (rank)           = {testing:.3f}s")
    if peak is not None:
        lines.append(f"peak RSS = {peak / _MIB:.1f} MiB")
    else:
        lines.append("(no resource samples recorded; rerun with --profile-resources)")

    lines.append("")
    lines.append("critical path (serial chain through the run)")
    for depth, span in enumerate(critical_path(spans)):
        label = f"{'  ' * depth}{span.name}{_attributes(span)}"
        lines.append(
            f"{label:<56}{span.duration or 0.0:>9.3f}s  self {_self_seconds(span):.3f}s"
        )

    cells = by_name.get("config", [])
    if cells:
        stragglers = sorted(cells, key=lambda s: -(s.duration or 0.0))[:top]
        lines.append("")
        lines.append(f"top {len(stragglers)} straggler cells")
        for rank, span in enumerate(stragglers, start=1):
            lines.append(
                f"{rank:>3}. {_cell_identity(span):<56}{span.duration or 0.0:>9.3f}s"
            )

    sweeps = by_name.get("sweep")
    if sweeps and cells:
        sweep = sweeps[0]
        makespan = sweep.duration or 0.0
        busy = sum(span.duration or 0.0 for span in cells)
        jobs = sweep.attributes.get("jobs")
        workers = int(jobs) if isinstance(jobs, (int, float)) else 1
        lines.append("")
        if makespan > 0 and workers > 0:
            efficiency = busy / (workers * makespan)
            lines.append(
                f"parallel efficiency: busy {busy:.3f}s / "
                f"({workers} worker(s) x {makespan:.3f}s makespan) = "
                f"{100.0 * efficiency:.1f}%"
            )
        else:
            lines.append("parallel efficiency: undefined (zero makespan)")
    return "\n".join(lines)


# -- stack-profile hotspots and diffing --------------------------------------


def _hotspot_rollup(
    stacks: list[dict],
) -> dict[tuple[str, str], tuple[int, int]]:
    """Per-function (self, cumulative) sample counts for one stack set.

    Functions are keyed ``(file, func)`` -- line numbers vary sample to
    sample inside one hot loop, so they aggregate away here. Self counts
    the samples where the function was innermost; cumulative counts the
    samples where it appears anywhere on the stack (once per sample,
    recursion notwithstanding).
    """
    rollup: dict[tuple[str, str], list[int]] = {}
    for stack in stacks:
        frames = stack.get("frames", ())
        count = int(stack.get("count", 0))
        if not frames or count <= 0:
            continue
        on_stack = {(str(f[0]), str(f[1])) for f in frames}
        for key in on_stack:
            entry = rollup.setdefault(key, [0, 0])
            entry[1] += count
        leaf = frames[-1]
        rollup[(str(leaf[0]), str(leaf[1]))][0] += count
    return {key: (entry[0], entry[1]) for key, entry in rollup.items()}


def _stacks_by_phase(profile: dict) -> dict[str, list[dict]]:
    by_phase: dict[str, list[dict]] = {}
    for stack in profile.get("stacks", ()):
        key = "/".join(str(part) for part in stack.get("phase", ())) or "(no span)"
        by_phase.setdefault(key, []).append(stack)
    return by_phase


def format_hotspots(profile: dict, top: int = 10) -> str:
    """Top-``top`` hottest functions per span phase, self vs cumulative.

    Phases are the span paths the sampler attributed stacks to (e.g.
    ``sweep/config/evaluate/fit``), ordered by sample count; within each
    phase, functions rank by self samples (the frames actually on-CPU),
    with cumulative counts alongside so callers of hot helpers are still
    visible. Percentages are of the phase's samples.
    """
    lines = ["hotspots (stack samples per function)"]
    hz = profile.get("hz")
    samples = int(profile.get("samples", 0))
    header = f"{samples} samples"
    if hz:
        header += f" @ {hz:g} Hz"
    overhead = profile.get("overhead_ratio")
    if overhead is not None:
        header += f", sampler overhead {100.0 * float(overhead):.2f}%"
    lines.append(header)
    if not samples:
        lines.append("(no samples recorded)")
        return "\n".join(lines)

    by_phase = _stacks_by_phase(profile)
    phase_totals = {
        phase: sum(int(s.get("count", 0)) for s in stacks)
        for phase, stacks in by_phase.items()
    }
    for phase in sorted(by_phase, key=lambda p: -phase_totals[p]):
        total = phase_totals[phase]
        lines.append("")
        lines.append(f"phase {phase}  ({total} samples)")
        lines.append(f"{'function':<56}{'self':>8}{'self%':>8}{'cum':>8}{'cum%':>8}")
        rollup = _hotspot_rollup(by_phase[phase])
        ranked = sorted(rollup.items(), key=lambda kv: (-kv[1][0], -kv[1][1], kv[0]))
        for (file, func), (self_count, cum_count) in ranked[:top]:
            label = f"{func} ({file})"
            if len(label) > 55:
                label = label[:52] + "..."
            lines.append(
                f"{label:<56}{self_count:>8}"
                f"{100.0 * self_count / total:>7.1f}%"
                f"{cum_count:>8}{100.0 * cum_count / total:>7.1f}%"
            )
    return "\n".join(lines)


def diff_profiles(before: dict, after: dict) -> list[dict]:
    """Per-function self-share deltas between two profile documents.

    Sample counts are not comparable across runs (different durations,
    rates), so each function's self samples are normalised to a *share*
    of its profile's total samples; the delta is expressed in percentage
    points. Returns one record per function seen in either profile,
    sorted by absolute delta (largest movement first):
    ``{"file", "func", "before_share", "after_share", "delta"}``.
    """
    rollups = []
    for profile in (before, after):
        rollup = _hotspot_rollup(list(profile.get("stacks", ())))
        total = sum(self_count for self_count, _cum in rollup.values())
        shares = {
            key: self_count / total if total else 0.0
            for key, (self_count, _cum) in rollup.items()
        }
        rollups.append(shares)
    before_shares, after_shares = rollups
    records = []
    for key in sorted(set(before_shares) | set(after_shares)):
        b = before_shares.get(key, 0.0)
        a = after_shares.get(key, 0.0)
        records.append(
            {
                "file": key[0],
                "func": key[1],
                "before_share": b,
                "after_share": a,
                "delta": a - b,
            }
        )
    records.sort(key=lambda r: (-abs(r["delta"]), r["file"], r["func"]))
    return records


def format_profile_diff(before: dict, after: dict, top: int = 10) -> str:
    """Human-readable hotspot movement between two profiles.

    The upcoming vectorization PRs use this to *prove* where time moved:
    a successful rewrite shows the old hot function's self share falling
    and the replacement's rising.
    """
    records = diff_profiles(before, after)
    lines = [
        "profile diff (self-time share, percentage points)",
        f"before: {int(before.get('samples', 0))} samples, "
        f"after: {int(after.get('samples', 0))} samples",
    ]
    moved = [r for r in records if abs(r["delta"]) > 1e-9]
    if not moved:
        lines.append("(no hotspot movement)")
        return "\n".join(lines)
    lines.append(f"{'function':<56}{'before':>9}{'after':>9}{'delta':>9}")
    for record in moved[:top]:
        label = f"{record['func']} ({record['file']})"
        if len(label) > 55:
            label = label[:52] + "..."
        lines.append(
            f"{label:<56}"
            f"{100.0 * record['before_share']:>8.1f}%"
            f"{100.0 * record['after_share']:>8.1f}%"
            f"{100.0 * record['delta']:>+8.1f}pp"
        )
    return "\n".join(lines)
