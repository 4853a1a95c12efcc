"""Pluggable sweep executors: serial default, supervised process fan-out.

A sweep is a grid of *cells* -- one (configuration, source) pair
evaluated over the union of the user groups. :class:`SerialCellExecutor`
walks them in-process on the runner's own pipeline (the historical
behaviour). :class:`ProcessCellExecutor` farms them out to a supervised
pool of worker processes: each worker reconstructs an equivalent
pipeline from a picklable :class:`SweepSpec` (dataset config + split
protocol + grid scaling), evaluates its cells, and ships the result --
plus its telemetry spans, events and metric snapshots -- back to the
parent, which merges them into its own stream.

Both executors yield ``(cell, outcome)`` pairs in *submission order*
regardless of completion order, and every model is seeded through the
grid spec, so the rows a sweep produces are bit-identical whichever
executor ran them.

Both executors also *supervise* their cells (see
:mod:`repro.experiments.supervision`): a failed attempt is retried with
seeded-jitter exponential backoff, and a cell that exhausts its attempts
comes back as a quarantined outcome carrying a typed
:class:`~repro.experiments.supervision.CellFailure` instead of raising.
The process executor additionally enforces per-attempt wall-clock
timeouts and detects dead workers -- each worker has its own task and
result queues, so a crash or a terminated hang loses one cell attempt,
never the run, and the pool replaces the casualty with a fresh process.

``ModelConfig`` factories are closures and cannot cross a process
boundary; instead a cell names its configuration by (model, canonical
parameter JSON) and the worker rebuilds the grid from the
:class:`GridSpec` and looks the configuration up. The grid spec must
therefore describe the *same* grid the parent enumerated -- including
scaling knobs that do not appear in the parameters, like
``infer_iterations``.
"""

from __future__ import annotations

import heapq
import multiprocessing
import pickle
import queue
import time
from collections.abc import Iterator, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.core.pipeline import ExperimentPipeline
from repro.core.sources import RepresentationSource
from repro.core.stages import canonical_params
from repro.core.temporal import TemporalWeighting
from repro.errors import ConfigurationError
from repro.experiments.configs import ConfigGrid, ModelConfig
from repro.experiments.supervision import CellFailure, SupervisionPolicy
from repro.faults.injector import maybe_armed
from repro.faults.plan import FaultPlan
from repro.obs.events import EventLog, MemorySink
from repro.obs.profiler import StackSampler
from repro.obs.resources import ResourceSampler
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

from repro.twitter.dataset import DatasetConfig, generate_dataset

__all__ = [
    "Cell",
    "CellOutcome",
    "GridSpec",
    "PipelineSpec",
    "ProcessCellExecutor",
    "SerialCellExecutor",
    "SweepSpec",
    "evaluate_cell",
]


@dataclass(frozen=True)
class GridSpec:
    """Picklable description of a :class:`ConfigGrid`.

    ``temporal_axis`` rides along as a tuple of frozen
    :class:`~repro.core.temporal.TemporalWeighting` points, so a worker
    rebuilding the grid enumerates the same temporally crossed cells the
    parent submitted.
    """

    topic_scale: float = 1.0
    iteration_scale: float = 1.0
    infer_iterations: int = 20
    btm_max_biterms: int | None = None
    seed: int = 0
    temporal_axis: tuple[TemporalWeighting, ...] = ()

    @classmethod
    def from_grid(cls, grid: ConfigGrid) -> "GridSpec":
        return cls(
            topic_scale=grid.topic_scale,
            iteration_scale=grid.iteration_scale,
            infer_iterations=grid.infer_iterations,
            btm_max_biterms=grid.btm_max_biterms,
            seed=grid.seed,
            temporal_axis=tuple(grid.temporal_axis),
        )

    def build(self) -> ConfigGrid:
        return ConfigGrid(
            topic_scale=self.topic_scale,
            iteration_scale=self.iteration_scale,
            infer_iterations=self.infer_iterations,
            btm_max_biterms=self.btm_max_biterms,
            seed=self.seed,
            temporal_axis=self.temporal_axis,
        )


@dataclass(frozen=True)
class PipelineSpec:
    """Picklable recipe for reconstructing an equivalent pipeline."""

    dataset: DatasetConfig
    test_fraction: float = 0.2
    negatives_per_positive: int = 4
    seed: int = 0
    max_train_docs_per_user: int | None = None
    top_k_stop_words: int = 100

    def build(self, telemetry: Telemetry | None = None) -> ExperimentPipeline:
        return ExperimentPipeline(
            generate_dataset(self.dataset),
            test_fraction=self.test_fraction,
            negatives_per_positive=self.negatives_per_positive,
            seed=self.seed,
            max_train_docs_per_user=self.max_train_docs_per_user,
            top_k_stop_words=self.top_k_stop_words,
            telemetry=telemetry,
        )


@dataclass(frozen=True)
class SweepSpec:
    """Everything a worker needs to evaluate any cell of one sweep."""

    pipeline: PipelineSpec
    grid: GridSpec


@dataclass(frozen=True)
class Cell:
    """One (configuration, source) evaluation unit of a sweep."""

    model: str
    params: dict = field(hash=False)
    label: str = field(hash=False)
    source: str = field(hash=False)
    users: tuple[int, ...] = field(hash=False)
    #: Another cell of the sweep has this cell's source and fit key, so
    #: the pipeline keeps the representations it builds for that cell
    #: (``ExperimentPipeline.evaluate(share=...)``).
    shares_fit: bool = field(default=False, hash=False, compare=False)

    @property
    def params_key(self) -> str:
        return canonical_params(self.params)

    @property
    def key(self) -> str:
        """Stable cell identity: journal key and event correlation id."""
        return f"{self.model}|{self.source}|{self.params_key}"


@dataclass
class CellOutcome:
    """What one cell evaluation produced (or why it didn't produce)."""

    model: str
    params: dict
    source: str
    skipped: str | None = None
    per_user_ap: dict[int, float] = field(default_factory=dict)
    training_seconds: float = 0.0
    testing_seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Worker telemetry to merge at join time: {"spans": [...],
    #: "events": [...], "metrics": {...}}. None for in-process cells,
    #: whose telemetry flowed to the parent stream directly.
    telemetry: dict | None = None
    #: How many supervised attempts the cell took (1 = first try).
    attempts: int = 1
    #: Set when the cell was quarantined: every attempt failed, and this
    #: records the final attempt's taxonomy class and post-mortem.
    failure: CellFailure | None = None


#: One pipeline / config index per worker process, keyed by spec; a
#: worker evaluates many cells of the same sweep and must prepare each
#: source's corpus only once (the whole point of the staged engine).
#: Both are pure rebuilds from the picklable spec, identical in every
#: worker, and never flow back to the parent.
_WORKER_PIPELINES: dict[PipelineSpec, ExperimentPipeline] = {}
_WORKER_INDEXES: dict[GridSpec, dict[tuple[str, str], ModelConfig]] = {}


def _worker_pipeline(spec: PipelineSpec) -> ExperimentPipeline:
    pipeline = _WORKER_PIPELINES.get(spec)
    if pipeline is None:
        pipeline = spec.build()
        _WORKER_PIPELINES[spec] = pipeline
    return pipeline


def _worker_index(spec: GridSpec) -> dict[tuple[str, str], ModelConfig]:
    index = _WORKER_INDEXES.get(spec)
    if index is None:
        index = {
            (config.model, canonical_params(config.params)): config
            for config in spec.build().iter_all()
        }
        _WORKER_INDEXES[spec] = index
    return index


def evaluate_cell(
    spec: SweepSpec,
    cell: Cell,
    collect_telemetry: bool = False,
    sample_resources: bool = False,
    attempt: int = 1,
    fault_plan: FaultPlan | None = None,
    profile_hz: float | None = None,
) -> CellOutcome:
    """Evaluate one cell against a worker-local pipeline.

    Runs in a pool worker (but is an ordinary function: the serial
    parity tests call it in-process). The pipeline and the grid's
    configuration index are cached per process, so corpus preparation
    and preprocessing amortise across all cells a worker receives.

    With ``sample_resources`` a worker-local
    :class:`~repro.obs.resources.ResourceSampler` runs for the duration
    of the cell, so the spans shipped back in ``outcome.telemetry``
    carry this *worker process's* RSS peaks -- the parent's own sampler
    cannot see across the process boundary. ``profile_hz`` does the
    same for stack sampling: a worker-local
    :class:`~repro.obs.profiler.StackSampler` runs at that rate and the
    resulting profile document ships back under
    ``outcome.telemetry["profile"]`` for
    :meth:`~repro.obs.telemetry.Telemetry.absorb` to merge.

    ``attempt`` and ``fault_plan`` belong to supervision: the attempt
    number flows from the supervisor (it survives worker replacement, so
    ``times``-bounded flaky faults recover deterministically), and the
    plan -- explicit, or ambient via ``REPRO_FAULT_PLAN`` -- is armed
    around the evaluation so stage checkpoints can fire its faults.
    """
    if fault_plan is None:
        fault_plan = FaultPlan.from_env()
    with ExitStack() as stack:
        telemetry = None
        profiler = None
        if collect_telemetry:
            sampler = (
                stack.enter_context(ResourceSampler()) if sample_resources else None
            )
            telemetry = Telemetry(resources=sampler)
            if profile_hz is not None:
                profiler = stack.enter_context(StackSampler(hz=profile_hz))
        events = MemorySink()
        if telemetry is not None:
            telemetry.events.add_sink(events)
        pipeline = _worker_pipeline(spec.pipeline)
        pipeline.telemetry = telemetry
        config = _worker_index(spec.grid).get((cell.model, cell.params_key))
        if config is None:
            raise ConfigurationError(
                f"cell {cell.key} has no matching configuration in the worker grid; "
                "the sweep spec's GridSpec must describe the grid the parent enumerated"
            )
        tel = telemetry if telemetry is not None else NULL_TELEMETRY
        outcome = CellOutcome(
            model=cell.model,
            params=dict(cell.params),
            source=cell.source,
            attempts=attempt,
        )
        try:
            with tel.span("config", label=cell.label, source=cell.source):
                try:
                    with maybe_armed(
                        fault_plan, cell.model, cell.source, cell.params_key, attempt
                    ):
                        result = pipeline.evaluate(
                            config.build(),
                            RepresentationSource(cell.source),
                            list(cell.users),
                            share=cell.shares_fit,
                        )
                except ConfigurationError as error:
                    outcome.skipped = str(error)
                else:
                    outcome.per_user_ap = dict(result.per_user_ap)
                    outcome.training_seconds = result.training_seconds
                    outcome.testing_seconds = result.testing_seconds
                    outcome.phase_seconds = dict(result.phase_seconds)
        finally:
            pipeline.telemetry = None
    # Assembled after the ExitStack closes: the samplers' final
    # accounting (resource windows, profile wall_seconds) lands on
    # __exit__, so snapshotting earlier would under-report.
    if telemetry is not None:
        outcome.telemetry = {
            "spans": telemetry.tracer.to_payload(),
            "events": list(events.records),
            "metrics": telemetry.metrics.snapshot(),
        }
        if profiler is not None:
            outcome.telemetry["profile"] = profiler.profile.to_dict()
    return outcome


#: A unit of executor work: the picklable cell plus (for in-process
#: executors) the parent's own ModelConfig, whose factory closure cannot
#: cross a process boundary.
CellTask = tuple[Cell, ModelConfig | None]


class SerialCellExecutor:
    """Default executor: evaluates cells in-process, in order.

    Uses the runner's own pipeline, so split/document/corpus caches and
    live telemetry behave exactly as they always have. Supervision is
    retry-only: an in-process cell cannot be preempted, so the policy's
    ``timeout_seconds`` is not enforced here (run with ``--jobs`` when
    hangs are on the menu), and an injected ``crash`` fault genuinely
    takes the process down, exactly as a real crash would.
    """

    jobs = 1

    def __init__(
        self,
        pipeline: ExperimentPipeline,
        telemetry: Telemetry | None = None,
        policy: SupervisionPolicy | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        self.pipeline = pipeline
        self.telemetry = telemetry
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.fault_plan = fault_plan

    def run_cells(
        self,
        tasks: Sequence[CellTask],
        collect_telemetry: bool = False,
        sample_resources: bool = False,
        profile_hz: float | None = None,
    ) -> Iterator[tuple[Cell, CellOutcome]]:
        # ``sample_resources`` and ``profile_hz`` are accepted for
        # executor-interface parity but need no action here: in-process
        # cells record through the parent tracer, whose own resource
        # sampler / stack profiler (if any) already covers them.
        tel = self.telemetry if self.telemetry is not None else NULL_TELEMETRY
        events = tel.events if tel.enabled else EventLog()
        plan = self.fault_plan if self.fault_plan is not None else FaultPlan.from_env()
        for cell, config in tasks:
            if config is None:
                raise ConfigurationError(
                    f"serial executor needs the ModelConfig for cell {cell.key}"
                )
            yield cell, self._supervised(cell, config, tel, events, plan)

    def _supervised(
        self,
        cell: Cell,
        config: ModelConfig,
        tel: Telemetry,
        events: EventLog,
        plan: FaultPlan | None,
    ) -> CellOutcome:
        retry = self.policy.retry
        started = time.monotonic()
        for attempt in range(1, retry.max_attempts + 1):
            outcome = CellOutcome(
                model=cell.model,
                params=dict(cell.params),
                source=cell.source,
                attempts=attempt,
            )
            # Heartbeat attribution: the serial executor is its own,
            # only worker, so every attempt runs on worker 0.
            events.emit("cell_started", cell=cell.key, worker=0, attempt=attempt)
            attempt_started = time.monotonic()
            with tel.span("config", label=cell.label, source=cell.source):
                try:
                    with maybe_armed(plan, cell.model, cell.source, cell.params_key, attempt):
                        result = self.pipeline.evaluate(
                            config.build(),
                            RepresentationSource(cell.source),
                            list(cell.users),
                            share=cell.shares_fit,
                        )
                except ConfigurationError as error:
                    # Invalid (config, source) pairings are protocol
                    # skips, not faults: no retry, no quarantine.
                    outcome.skipped = str(error)
                    self._finished(events, cell, attempt, attempt_started, "skipped")
                    return outcome
                except Exception as error:
                    self._finished(events, cell, attempt, attempt_started, "error")
                    if attempt < retry.max_attempts:
                        tel.count("sweep.cell.retry")
                        events.emit(
                            "cell_retry",
                            cell=cell.key,
                            attempt=attempt,
                            kind="error",
                            error=type(error).__name__,
                            message=str(error),
                        )
                        time.sleep(retry.delay(cell.key, attempt))
                        continue
                    outcome.failure = CellFailure(
                        kind="error",
                        error=type(error).__name__,
                        message=str(error),
                        attempts=attempt,
                        elapsed_seconds=time.monotonic() - started,
                    )
                    return outcome
                else:
                    outcome.per_user_ap = dict(result.per_user_ap)
                    outcome.training_seconds = result.training_seconds
                    outcome.testing_seconds = result.testing_seconds
                    outcome.phase_seconds = dict(result.phase_seconds)
                    self._finished(events, cell, attempt, attempt_started, "ok")
                    return outcome
        raise AssertionError("unreachable: retry loop always returns")

    @staticmethod
    def _finished(
        events: EventLog, cell: Cell, attempt: int, started: float, status: str
    ) -> None:
        events.emit(
            "cell_finished",
            cell=cell.key,
            worker=0,
            attempt=attempt,
            status=status,
            seconds=time.monotonic() - started,
        )


def _pool_worker(task_queue, result_queue) -> None:
    """Worker main loop: unpickle task, evaluate, ship outcome.

    Plain function at module scope so it survives any start method. The
    loop polls with a bounded timeout (never an unbounded ``get``) and
    exits on the empty-bytes sentinel; any evaluation error is reported
    as a typed tuple, never allowed to kill the worker -- only a hard
    crash (``os._exit``, OOM kill, segfault) takes it down, and the
    supervisor detects that through ``is_alive``/``exitcode``.
    """
    while True:
        try:
            blob = task_queue.get(timeout=1.0)
        except queue.Empty:
            continue
        if blob == b"":
            break
        try:
            (
                index,
                attempt,
                spec,
                cell,
                collect_telemetry,
                sample_resources,
                plan,
                profile_hz,
            ) = pickle.loads(blob)
        except Exception as error:
            result_queue.put(("error", -1, type(error).__name__, str(error)))
            continue
        try:
            outcome = evaluate_cell(
                spec,
                cell,
                collect_telemetry,
                sample_resources,
                attempt=attempt,
                fault_plan=plan,
                profile_hz=profile_hz,
            )
        except Exception as error:
            result_queue.put(("error", index, type(error).__name__, str(error)))
        else:
            result_queue.put(("ok", index, outcome))


class _PoolWorker:
    """One supervised worker process with private task/result queues.

    Private queues are the crash-isolation boundary: terminating a
    process that shares a queue with its siblings can corrupt the
    queue's pipe mid-message, so each worker gets its own pair and a
    replacement worker gets fresh ones.
    """

    __slots__ = ("process", "tasks", "results", "current")

    def __init__(self) -> None:
        context = multiprocessing.get_context()
        self.tasks = context.Queue()
        self.results = context.Queue()
        self.process = context.Process(
            target=_pool_worker, args=(self.tasks, self.results), daemon=True
        )
        self.process.start()
        #: (cell index, attempt, monotonic start) of the in-flight task.
        self.current: tuple[int, int, float] | None = None

    def submit(self, blob: bytes, index: int, attempt: int) -> None:
        self.tasks.put(blob)
        self.current = (index, attempt, time.monotonic())

    def stop(self, grace_seconds: float = 1.0) -> None:
        """Best-effort orderly exit, escalating to terminate then kill."""
        try:
            self.tasks.put_nowait(b"")
        except (queue.Full, ValueError, OSError):
            pass
        self.process.join(timeout=grace_seconds)
        self.discard()

    def discard(self) -> None:
        """Force the process down and release its queues."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=1.0)
        for channel in (self.tasks, self.results):
            channel.close()
            channel.cancel_join_thread()


class ProcessCellExecutor:
    """Farms cells out to a supervised worker pool, preserving order.

    Workers rebuild the pipeline from ``spec`` (synthetic datasets are
    deterministic in their config, so every worker sees the same data)
    and return outcomes whose rows are bit-identical to a serial run.
    Results are joined in submission order so downstream row assembly is
    deterministic.

    Supervision: every attempt gets the policy's wall-clock budget (the
    worker is terminated and replaced on overrun), a dead worker --
    detected via ``is_alive``/``exitcode`` after its result queue drains
    empty -- costs one attempt of one cell, and failed attempts retry
    with seeded-jitter backoff until the policy's budget is exhausted,
    at which point the cell is quarantined behind a
    :class:`~repro.experiments.supervision.CellFailure` outcome.
    """

    def __init__(
        self,
        spec: SweepSpec,
        jobs: int,
        policy: SupervisionPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
    ):
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.spec = spec
        self.jobs = jobs
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.fault_plan = fault_plan
        self.telemetry = telemetry

    def run_cells(
        self,
        tasks: Sequence[CellTask],
        collect_telemetry: bool = False,
        sample_resources: bool = False,
        profile_hz: float | None = None,
    ) -> Iterator[tuple[Cell, CellOutcome]]:
        cells = [cell for cell, _config in tasks]
        if not cells:
            return
        plan = self.fault_plan if self.fault_plan is not None else FaultPlan.from_env()
        # Pickle every payload before a single worker exists: a cell
        # whose params cannot cross the process boundary fails loudly
        # here, with no pool spawned and nothing to leak.
        for cell in cells:
            try:
                pickle.dumps(cell)
            except Exception as error:
                raise ConfigurationError(
                    f"cell {cell.key} is not picklable and cannot be shipped "
                    f"to a worker process: {error}"
                ) from error
        supervisor = _Supervisor(
            executor=self,
            cells=cells,
            collect_telemetry=collect_telemetry,
            sample_resources=sample_resources,
            plan=plan,
            profile_hz=profile_hz,
        )
        workers = [_PoolWorker() for _ in range(min(self.jobs, len(cells)))]
        try:
            yield from supervisor.run(workers)
        finally:
            # The happy path, a raise, and an abandoned generator all
            # land here: no worker may outlive its sweep.
            for worker in workers:
                worker.stop()


class _Supervisor:
    """The scheduling state of one ``run_cells`` call."""

    def __init__(
        self, executor, cells, collect_telemetry, sample_resources, plan,
        profile_hz=None,
    ):
        self.executor = executor
        self.cells = cells
        self.collect_telemetry = collect_telemetry
        self.sample_resources = sample_resources
        self.plan = plan
        self.profile_hz = profile_hz
        tel = executor.telemetry if executor.telemetry is not None else NULL_TELEMETRY
        self.tel = tel
        self.events = tel.events if tel.enabled else EventLog()
        #: Min-heap of (not-before monotonic time, cell index, attempt).
        self.ready: list[tuple[float, int, int]] = [
            (0.0, index, 1) for index in range(len(cells))
        ]
        self.completed: dict[int, CellOutcome] = {}
        #: Wall-clock already spent per cell across failed attempts.
        self.elapsed: dict[int, float] = {}

    def _payload(self, index: int, attempt: int) -> bytes:
        return pickle.dumps(
            (
                index,
                attempt,
                self.executor.spec,
                self.cells[index],
                self.collect_telemetry,
                self.sample_resources,
                self.plan,
                self.profile_hz,
            )
        )

    def run(self, workers: list[_PoolWorker]) -> Iterator[tuple[Cell, CellOutcome]]:
        next_yield = 0
        while next_yield < len(self.cells):
            progress = self._assign(workers)
            for slot, worker in enumerate(workers):
                if worker.current is None:
                    continue
                if self._poll(slot, worker):
                    progress = True
                    continue
                replacement = self._check_dead(slot, worker) or self._check_timeout(
                    slot, worker
                )
                if replacement is not None:
                    workers[slot] = replacement
                    progress = True
            while next_yield in self.completed:
                yield self.cells[next_yield], self.completed.pop(next_yield)
                next_yield += 1
                progress = True
            if not progress:
                time.sleep(0.02)

    def _assign(self, workers: list[_PoolWorker]) -> bool:
        assigned = False
        now = time.monotonic()
        for slot, worker in enumerate(workers):
            if worker.current is not None or not self.ready:
                continue
            if self.ready[0][0] > now:
                break  # heap is time-ordered: nothing is due yet
            _not_before, index, attempt = heapq.heappop(self.ready)
            worker.submit(self._payload(index, attempt), index, attempt)
            self.events.emit(
                "cell_started",
                cell=self.cells[index].key,
                worker=slot,
                attempt=attempt,
            )
            assigned = True
        return assigned

    def _poll(self, slot: int, worker: _PoolWorker) -> bool:
        try:
            message = worker.results.get_nowait()
        except queue.Empty:
            return False
        self._handle(slot, worker, message)
        return True

    def _check_dead(self, slot: int, worker: _PoolWorker) -> _PoolWorker | None:
        if worker.process.is_alive():
            return None
        # The result may still be in the queue's feeder pipe; give it a
        # bounded grace period before declaring the attempt lost.
        try:
            message = worker.results.get(timeout=0.2)
        except queue.Empty:
            message = None
        if message is not None:
            self._handle(slot, worker, message)
        else:
            index, attempt, started = worker.current
            self._finished(slot, index, attempt, started, "crash")
            self._attempt_failed(
                index,
                attempt,
                time.monotonic() - started,
                kind="crash",
                error="WorkerCrashError",
                message=(
                    f"worker process died with exit code "
                    f"{worker.process.exitcode} during attempt {attempt}"
                ),
            )
        worker.discard()
        return _PoolWorker()

    def _check_timeout(self, slot: int, worker: _PoolWorker) -> _PoolWorker | None:
        budget = self.executor.policy.timeout_seconds
        if budget is None:
            return None
        index, attempt, started = worker.current
        overrun = time.monotonic() - started
        if overrun <= budget:
            return None
        self.tel.count("sweep.cell.timeout")
        worker.discard()
        self._finished(slot, index, attempt, started, "timeout")
        self._attempt_failed(
            index,
            attempt,
            overrun,
            kind="timeout",
            error="CellTimeoutError",
            message=(
                f"cell exceeded its {budget:g}s wall-clock budget on "
                f"attempt {attempt}; worker terminated"
            ),
        )
        return _PoolWorker()

    def _finished(
        self, slot: int, index: int, attempt: int, started: float, status: str
    ) -> None:
        self.events.emit(
            "cell_finished",
            cell=self.cells[index].key,
            worker=slot,
            attempt=attempt,
            status=status,
            seconds=time.monotonic() - started,
        )

    def _handle(self, slot: int, worker: _PoolWorker, message: tuple) -> None:
        index, attempt, started = worker.current
        worker.current = None
        if message[0] == "ok":
            outcome: CellOutcome = message[2]
            if outcome.telemetry is not None:
                # Join-time attribution: the worker process cannot know
                # its slot, so the supervisor stamps it here and
                # Telemetry.absorb carries it onto spans and events.
                outcome.telemetry.setdefault("worker", slot)
                outcome.telemetry.setdefault("attempt", attempt)
            status = "skipped" if outcome.skipped is not None else "ok"
            self._finished(slot, index, attempt, started, status)
            self.completed[index] = outcome
            return
        _kind, _index, error_name, error_message = message
        self._finished(slot, index, attempt, started, "error")
        self._attempt_failed(
            index,
            attempt,
            time.monotonic() - started,
            kind="error",
            error=error_name,
            message=error_message,
        )

    def _attempt_failed(
        self,
        index: int,
        attempt: int,
        attempt_seconds: float,
        kind: str,
        error: str,
        message: str,
    ) -> None:
        cell = self.cells[index]
        self.elapsed[index] = self.elapsed.get(index, 0.0) + attempt_seconds
        retry = self.executor.policy.retry
        if attempt < retry.max_attempts:
            self.tel.count("sweep.cell.retry")
            self.events.emit(
                "cell_retry",
                cell=cell.key,
                attempt=attempt,
                kind=kind,
                error=error,
                message=message,
            )
            heapq.heappush(
                self.ready,
                (time.monotonic() + retry.delay(cell.key, attempt), index, attempt + 1),
            )
            return
        self.completed[index] = CellOutcome(
            model=cell.model,
            params=dict(cell.params),
            source=cell.source,
            attempts=attempt,
            failure=CellFailure(
                kind=kind,
                error=error,
                message=message,
                attempts=attempt,
                elapsed_seconds=self.elapsed[index],
            ),
        )
