"""Sweep runner: evaluate configuration grids over sources and user groups.

One :class:`SweepRunner` owns an
:class:`~repro.core.pipeline.ExperimentPipeline` and a user-group mapping.
``run`` decomposes the (model config x source) grid into *cells*, hands
them to a pluggable executor (serial in-process by default, or a process
pool via :class:`~repro.experiments.executors.ProcessCellExecutor`), and
assembles :class:`SweepRow` records in canonical cell order -- so row
ordering and values are identical whichever executor ran the cells. A
:class:`~repro.experiments.persistence.SweepJournal` makes runs durable:
each completed cell is appended to a JSONL journal as it finishes, and a
resumed run restores journaled cells instead of re-evaluating them.

Failure is a first-class outcome: a cell the executor quarantined (every
supervised attempt failed -- see :mod:`repro.experiments.supervision`)
lands in :attr:`SweepResult.failures` as a :class:`FailedCell` instead
of aborting the sweep, is journaled with its post-mortem, and is
*re-queued* -- not restored -- when the journal is resumed, so
``--resume`` retries exactly the quarantined cells.

The aggregation helpers then answer the paper's questions: Mean/Min/Max
MAP per (model, source, group) for Figures 3-6 and Table 6, the best
configuration per (model, source) for Table 7, and timing summaries for
Figure 7.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace

from repro.core.pipeline import ExperimentPipeline
from repro.core.sources import RepresentationSource
from repro.core.stages import canonical_params
from repro.eval.metrics import (
    MapSummary,
    map_over_users,
    mean_average_precision,
    summarize_maps,
)
from repro.eval.timing import TimingSummary, summarize_timings
from repro.experiments.configs import ModelConfig
from repro.experiments.executors import Cell, CellOutcome, SerialCellExecutor
from repro.experiments.supervision import CellFailure
from repro.obs.events import EventLog
from repro.obs.progress import (
    ProgressLineSink,
    SweepProgressTracker,
    console_progress_sink,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.twitter.entities import UserType

__all__ = ["FailedCell", "SweepRow", "SweepResult", "SweepRunner"]


@dataclass(frozen=True)
class SweepRow:
    """One evaluated (configuration, source, group) data point."""

    model: str
    params: dict
    source: RepresentationSource
    group: UserType
    map_score: float
    per_user_ap: dict[int, float]
    training_seconds: float
    testing_seconds: float
    #: Per-phase span rollup of the evaluation that produced this row
    #: (prepare/fit/profiles/rank seconds); empty for legacy rows.
    phase_seconds: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class FailedCell:
    """One quarantined (configuration, source) cell of a sweep."""

    model: str
    params: dict = field(hash=False)
    source: RepresentationSource = RepresentationSource.R
    failure: CellFailure = field(
        default_factory=lambda: CellFailure("error", "", "", 1, 0.0), hash=False
    )


@dataclass
class SweepResult:
    """All rows of a sweep plus the paper's aggregations."""

    rows: list[SweepRow]
    #: Optional provenance record (see :class:`repro.obs.manifest.RunManifest`);
    #: populated when the sweep ran under telemetry or was loaded from a
    #: manifest-bearing JSON file.
    manifest: dict | None = None
    #: Cells quarantined by executor supervision, in canonical order;
    #: empty for a clean sweep. Their rows are simply absent, and every
    #: report derived from this result says so (see
    #: :meth:`failure_annotation`).
    failures: list[FailedCell] = field(default_factory=list)

    def filtered(
        self,
        model: str | None = None,
        source: RepresentationSource | None = None,
        group: UserType | None = None,
    ) -> list[SweepRow]:
        return [
            r
            for r in self.rows
            if (model is None or r.model == model)
            and (source is None or r.source is source)
            and (group is None or r.group is group)
        ]

    def map_summary(
        self, model: str, source: RepresentationSource, group: UserType
    ) -> MapSummary:
        """Min / Mean / Max MAP across the model's configurations."""
        maps = [r.map_score for r in self.filtered(model, source, group)]
        return summarize_maps(maps)

    def source_summary(
        self, source: RepresentationSource, group: UserType
    ) -> MapSummary:
        """Table 6 cell: Min/Mean/Max MAP over *all* models' configs."""
        maps = [r.map_score for r in self.filtered(source=source, group=group)]
        return summarize_maps(maps)

    def best_configuration(
        self, model: str, source: RepresentationSource
    ) -> SweepRow:
        """Table 7 cell: the configuration with the highest MAP for a
        (model, source) pair, averaged across user groups."""
        rows = self.filtered(model=model, source=source)
        if not rows:
            raise KeyError(f"no rows for {model} on {source}")
        # Group the per-group rows of one configuration under the same
        # canonical JSON key the staged engine uses for artifacts and
        # journal cells, so key equality is exactly parameter equality.
        by_params: dict[str, list[SweepRow]] = {}
        for row in rows:
            by_params.setdefault(canonical_params(row.params), []).append(row)
        best_rows = max(
            by_params.values(),
            key=lambda rs: mean_average_precision([r.map_score for r in rs]),
        )
        return best_rows[0]

    def timing_summary(self, model: str) -> tuple[TimingSummary, TimingSummary]:
        """Figure 7 cell: (TTime, ETime) min/avg/max across all rows."""
        rows = [r for r in self.rows if r.model == model]
        if not rows:
            raise KeyError(f"no rows for model {model}")
        return (
            summarize_timings([r.training_seconds for r in rows]),
            summarize_timings([r.testing_seconds for r in rows]),
        )

    def models(self) -> tuple[str, ...]:
        return tuple(sorted({r.model for r in self.rows}))

    def cell_count(self) -> int:
        """Distinct (configuration, source) cells this result covers --
        evaluated ones plus quarantined ones."""
        evaluated = {
            (r.model, canonical_params(r.params), r.source.value) for r in self.rows
        }
        return len(evaluated) + len(self.failures)

    def failure_annotation(self) -> str:
        """One-line health warning for reports; empty when nothing failed.

        Every table and figure formatter appends this, so a rendered
        report can never silently pass off a partial sweep as complete.
        """
        if not self.failures:
            return ""
        kinds = sorted({f.failure.kind for f in self.failures})
        return (
            f"WARNING: {len(self.failures)}/{self.cell_count()} cells failed "
            f"({', '.join(kinds)}) and are missing from this report; "
            "rerun with --resume to retry quarantined cells."
        )


class SweepRunner:
    """Evaluates configuration grids over sources and user groups.

    Parameters
    ----------
    pipeline:
        The shared evaluation pipeline.
    groups:
        User-group membership (user ids per :class:`UserType`).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`. Defaults to
        the pipeline's own, so instrumenting the pipeline is enough to
        get sweep-level progress events, per-config spans and skip
        counters.
    """

    def __init__(
        self,
        pipeline: ExperimentPipeline,
        groups: dict[UserType, list[int]],
        telemetry: Telemetry | None = None,
    ):
        self.pipeline = pipeline
        self.groups = groups
        self.telemetry = telemetry

    def _fit_group(self, cell: Cell, config: ModelConfig) -> object:
        """The ``(source, fit key)`` group ``cell`` is dispatched with.

        A configuration whose model cannot be built is a group of its
        own, so the executor reports its error as for any other cell.
        """
        try:
            return self.pipeline.fit_group(cell.source, config.build())
        except Exception:
            return cell.key

    def _telemetry(self) -> Telemetry:
        if self.telemetry is not None:
            return self.telemetry
        if self.pipeline.telemetry is not None:
            return self.pipeline.telemetry
        return NULL_TELEMETRY

    def run(
        self,
        configurations: Iterable[ModelConfig],
        sources: Sequence[RepresentationSource],
        groups: Sequence[UserType] | None = None,
        progress: bool = False,
        progress_line: bool = False,
        executor=None,
        journal=None,
    ) -> SweepResult:
        """Evaluate every (configuration, source) over the user groups.

        Configurations invalid for a source (Rocchio without negative
        examples) are skipped, exactly as in the paper's protocol. The
        per-user APs are computed once per (config, source) cell on the
        union of all groups' users, then sliced per group -- the groups
        share users with the All-Users group, so this avoids
        recomputation.

        ``executor`` selects how cells run: in-process and serial by
        default, or a :class:`~repro.experiments.executors.ProcessCellExecutor`
        for parallel fan-out. Rows are assembled in canonical
        (configuration, source) order whatever the executor's completion
        order, so serial and parallel sweeps produce identical results.

        ``journal`` (a :class:`~repro.experiments.persistence.SweepJournal`)
        records each completed cell as it finishes; cells already in the
        journal are restored without re-evaluation, which is how
        ``--resume`` picks up an interrupted sweep.

        Progress is reported as a structured event stream
        (``sweep_start`` / ``cell_dispatched`` / ``cell_started`` /
        ``cell_finished`` / ``cell_joined`` / ``cell_restored`` /
        ``config_result`` / ``config_skipped`` / ``sweep_progress`` /
        ``sweep_done``). The executors attribute ``cell_started`` /
        ``cell_finished`` to a worker id and attempt, and after every
        joined cell the runner emits a ``sweep_progress`` heartbeat --
        cells done/total, per-worker occupancy, EWMA cell interval and
        ETA -- which also lands in the journal as a heartbeat line, so
        ``repro monitor`` can tail either artifact.

        ``progress=True`` attaches the verbose per-cell console sink for
        the duration of the run; ``progress_line=True`` attaches the
        minimal self-overwriting progress line instead (both may be on).
        """
        if groups is None:
            groups = list(self.groups)
        tel = self._telemetry()
        # With telemetry disabled events still flow to the progress
        # console sink through a throwaway local log.
        events = tel.events if tel.enabled else EventLog()
        # Group membership is immutable during a sweep: materialise each
        # group's member set once instead of per (config, source, group).
        membership = {g: frozenset(self.groups[g]) for g in groups}
        union_users = tuple(
            sorted({uid for members in membership.values() for uid in members})
        )
        configurations = list(configurations)
        if executor is None:
            executor = SerialCellExecutor(self.pipeline, telemetry=tel)
        elif executor.telemetry is None:
            # Caller-built executors inherit the runner's telemetry, so
            # their supervision counters, retry events and worker
            # telemetry land in the same stream as the sweep's own.
            executor.telemetry = tel
        jobs = executor.jobs

        # The tracker folds the event stream into live progress state;
        # its snapshots become the sweep_progress heartbeats below.
        tracker = events.add_sink(SweepProgressTracker())
        line_sink = ProgressLineSink() if progress_line else None
        if progress:
            events.add_sink(console_progress_sink)
        if line_sink is not None:
            events.add_sink(line_sink)
        try:
            events.emit(
                "sweep_start",
                configurations=len(configurations),
                sources=[s.value for s in sources],
                groups=[g.value for g in groups],
                users=len(union_users),
                jobs=jobs,
            )
            # Decompose the grid into cells in canonical order; restore
            # journaled ones, dispatch the rest.
            ordered: list[Cell] = []
            pending: list[tuple[Cell, ModelConfig]] = []
            outcomes: dict[str, CellOutcome] = {}
            for config in configurations:
                for source in sources:
                    if config.uses_rocchio and not source.has_negative_examples:
                        tel.count("sweep.configs.skipped_rocchio")
                        events.emit(
                            "config_skipped",
                            label=config.label(),
                            source=source.value,
                            reason="rocchio needs negative examples",
                        )
                        continue
                    cell = Cell(
                        model=config.model,
                        params=dict(config.params),
                        label=config.label(),
                        source=source.value,
                        users=union_users,
                    )
                    ordered.append(cell)
                    if journal is not None and cell.key in journal:
                        restored = journal.outcome(cell.key)
                        if restored.failure is None:
                            outcomes[cell.key] = restored
                            tel.count("sweep.cells.restored")
                            events.emit(
                                "cell_restored",
                                cell=cell.key,
                                label=cell.label,
                                source=cell.source,
                            )
                            continue
                        # Quarantined last run: re-queue instead of
                        # restoring, so --resume is the retry mechanism.
                        # The journal's last-record-wins semantics let a
                        # fresh outcome overwrite the failure record.
                        tel.count("sweep.cells.requeued")
                        events.emit(
                            "cell_requeued",
                            cell=cell.key,
                            label=cell.label,
                            source=cell.source,
                            kind=restored.failure.kind,
                            error=restored.failure.error,
                        )
                    pending.append((cell, config))

            # Run each (source, fit key) group's cells back to back, so
            # the pipeline reuses their shared representations and
            # profiles before it drops them; rows keep canonical order.
            # A group of one cell has nothing to share.
            fit_groups = [self._fit_group(cell, config) for cell, config in pending]
            sizes = Counter(fit_groups)
            first_seen: dict[object, int] = {}
            order = sorted(
                range(len(pending)),
                key=lambda i: first_seen.setdefault(fit_groups[i], len(first_seen)),
            )
            pending = [
                (replace(pending[i][0], shares_fit=sizes[fit_groups[i]] > 1), pending[i][1])
                for i in order
            ]
            with tel.span("sweep", jobs=jobs, cells=len(pending)):
                for cell, _config in pending:
                    tel.count("sweep.cells.dispatched")
                    events.emit(
                        "cell_dispatched",
                        cell=cell.key,
                        label=cell.label,
                        source=cell.source,
                    )
                for cell, outcome in executor.run_cells(pending):
                    tel.count("sweep.cells.joined")
                    events.emit(
                        "cell_joined",
                        cell=cell.key,
                        label=cell.label,
                        source=cell.source,
                    )
                    if outcome.failure is not None:
                        tel.count("sweep.cell.quarantined")
                        events.emit(
                            "cell_quarantined",
                            cell=cell.key,
                            label=cell.label,
                            source=cell.source,
                            kind=outcome.failure.kind,
                            error=outcome.failure.error,
                            message=outcome.failure.message,
                            attempts=outcome.failure.attempts,
                        )
                    elif outcome.skipped is not None:
                        tel.count("sweep.configs.skipped_invalid")
                        events.emit(
                            "config_skipped",
                            label=cell.label,
                            source=cell.source,
                            reason=outcome.skipped,
                        )
                    else:
                        tel.count("sweep.configs.evaluated")
                        events.emit(
                            "config_result",
                            label=cell.label,
                            model=cell.model,
                            source=cell.source,
                            map=map_over_users(outcome.per_user_ap),
                            training_seconds=outcome.training_seconds,
                            testing_seconds=outcome.testing_seconds,
                        )
                    if journal is not None:
                        journal.record(cell, outcome)
                    outcomes[cell.key] = outcome
                    heartbeat = events.emit("sweep_progress", **tracker.snapshot())
                    if journal is not None:
                        journal.heartbeat(heartbeat)

            # Assemble rows in canonical cell order: results are
            # position-independent of executor completion order and of
            # how many cells came back from the journal.
            rows: list[SweepRow] = []
            failures: list[FailedCell] = []
            for cell in ordered:
                outcome = outcomes.get(cell.key)
                if outcome is None or outcome.skipped is not None:
                    continue
                if outcome.failure is not None:
                    failures.append(
                        FailedCell(
                            model=cell.model,
                            params=dict(cell.params),
                            source=RepresentationSource(cell.source),
                            failure=outcome.failure,
                        )
                    )
                    continue
                source = RepresentationSource(cell.source)
                for group in groups:
                    members = membership[group]
                    # Ascending user-id order, so the float summation in
                    # MAP is identical whether the outcome came from the
                    # evaluation (already sorted), a worker, or the
                    # journal.
                    member_ap = {
                        uid: outcome.per_user_ap[uid]
                        for uid in sorted(outcome.per_user_ap)
                        if uid in members
                    }
                    if not member_ap:
                        continue
                    rows.append(
                        SweepRow(
                            model=cell.model,
                            params=dict(cell.params),
                            source=source,
                            group=group,
                            map_score=map_over_users(member_ap),
                            per_user_ap=member_ap,
                            training_seconds=outcome.training_seconds,
                            testing_seconds=outcome.testing_seconds,
                            phase_seconds=dict(outcome.phase_seconds),
                        )
                    )
            events.emit(
                "sweep_done",
                rows=len(rows),
                evaluated=len(pending),
                restored=len(ordered) - len(pending),
                failed=len(failures),
            )
            if journal is not None:
                # Final heartbeat: the journal's last word says finished.
                journal.heartbeat(
                    events.emit("sweep_progress", **tracker.snapshot())
                )
        finally:
            events.remove_sink(tracker)
            if progress:
                events.remove_sink(console_progress_sink)
            if line_sink is not None:
                events.remove_sink(line_sink)
        manifest = tel.manifest.to_dict() if tel.enabled and tel.manifest else None
        return SweepResult(rows, manifest=manifest, failures=failures)

    def baselines(
        self, groups: Sequence[UserType] | None = None, random_iterations: int = 1000
    ) -> dict[UserType, dict[str, float]]:
        """CHR and RAN MAP per user group."""
        if groups is None:
            groups = list(self.groups)
        result: dict[UserType, dict[str, float]] = {}
        for group in groups:
            users = self.groups[group]
            chr_ap = self.pipeline.evaluate_chronological(users)
            ran_ap = self.pipeline.evaluate_random(users, iterations=random_iterations)
            result[group] = {
                "CHR": map_over_users(chr_ap),
                "RAN": map_over_users(ran_ap),
            }
        return result
