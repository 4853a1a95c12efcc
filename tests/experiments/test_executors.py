"""Tests for the pluggable sweep executors.

The load-bearing property is parity: a ``--jobs N`` sweep must produce
exactly the rows -- same values, same order -- as a serial sweep, because
the paper's tables are regenerated from saved sweep files and must not
depend on how the sweep was executed.
"""

from __future__ import annotations

import pytest

from repro.core.sources import RepresentationSource
from repro.errors import ConfigurationError
from repro.experiments.executors import (
    Cell,
    GridSpec,
    PipelineSpec,
    ProcessCellExecutor,
    SweepSpec,
    evaluate_cell,
)
from repro.experiments.runner import SweepRunner
from repro.obs.events import MemorySink
from repro.obs.telemetry import Telemetry
from repro.twitter.dataset import DatasetConfig, select_user_groups
from repro.twitter.entities import UserType

#: The whole sweep, as a picklable spec: workers rebuild dataset,
#: pipeline and grid from this and must land on identical rows.
SPEC = SweepSpec(
    pipeline=PipelineSpec(
        dataset=DatasetConfig(n_users=24, n_ticks=80, seed=11),
        seed=1,
        max_train_docs_per_user=60,
    ),
    grid=GridSpec(topic_scale=0.05, iteration_scale=0.003, infer_iterations=2, seed=0),
)

SOURCES = [RepresentationSource.R, RepresentationSource.E]


def _configs():
    # One topic configuration: its fit draws from a seeded RNG and
    # depends on the source's corpus, which bag/graph fits barely do.
    grid = SPEC.grid.build()
    configs = grid.all_configurations()
    return configs["TN"][:3] + grid.tng_configurations()[:2] + configs["LDA"][:1]


def _runner(telemetry=None):
    pipeline = SPEC.pipeline.build(telemetry=telemetry)
    groups = select_user_groups(pipeline.dataset, group_size=5, min_retweets=5)
    return SweepRunner(pipeline, groups, telemetry=telemetry)


def _row_fingerprint(row):
    """Everything about a row except wall-clock timings."""
    return (row.model, tuple(sorted(row.params.items())), row.source, row.group,
            row.map_score, tuple(sorted(row.per_user_ap.items())))


class TestSpecs:
    def test_grid_spec_round_trip(self):
        grid = SPEC.grid.build()
        assert GridSpec.from_grid(grid) == SPEC.grid

    def test_cell_key_is_canonical(self):
        a = Cell(model="TN", params={"n": 1, "weighting": "TF"}, label="l",
                 source="R", users=(1, 2))
        b = Cell(model="TN", params={"weighting": "TF", "n": 1}, label="l",
                 source="R", users=(1, 2))
        assert a.key == b.key
        # A sweep cell's key (its journal key) does not name its users.
        assert a.key == f"TN|R|{a.params_key}"


class TestParallelParity:
    @pytest.fixture(scope="class")
    def serial_and_parallel(self):
        serial = _runner().run(_configs(), SOURCES, groups=[UserType.ALL])
        parallel = _runner().run(
            _configs(), SOURCES, groups=[UserType.ALL],
            executor=ProcessCellExecutor(SPEC, jobs=2),
        )
        return serial, parallel

    def test_rows_bit_identical_and_same_order(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert len(serial.rows) == len(parallel.rows) > 0
        for left, right in zip(serial.rows, parallel.rows):
            assert _row_fingerprint(left) == _row_fingerprint(right)

    def test_per_user_ap_exactly_equal(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        for left, right in zip(serial.rows, parallel.rows):
            assert left.per_user_ap == right.per_user_ap  # floats, exact


class TestWorkerEvaluation:
    def test_unknown_configuration_raises(self):
        cell = Cell(model="TN", params={"made": "up"}, label="TN(?)",
                    source="R", users=(1,))
        with pytest.raises(ConfigurationError, match="no matching configuration"):
            evaluate_cell(SPEC, cell)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessCellExecutor(SPEC, jobs=0)

    def test_unpicklable_cell_fails_fast_and_leaks_no_workers(self):
        """Regression: a cell that cannot cross the process boundary
        used to abandon the half-started pool (shutdown(wait=False))
        and leak its workers. The supervised executor pickles every
        payload before spawning anything and tears the pool down in a
        ``finally``, so the failure is synchronous, typed, and leaves
        no stray child processes behind."""
        import multiprocessing

        poisoned = Cell(
            model="TN",
            params={"factory": lambda: 1},  # defeats pickle
            label="TN(poisoned)",
            source="R",
            users=(1,),
        )
        executor = ProcessCellExecutor(SPEC, jobs=2)
        with pytest.raises(ConfigurationError, match="not picklable"):
            list(executor.run_cells([(poisoned, None)]))
        for child in multiprocessing.active_children():
            child.join(timeout=5.0)
        assert multiprocessing.active_children() == []

    def test_abandoned_generator_tears_down_the_pool(self):
        """Closing the result generator early (the consumer raised, or
        only wanted the first cell) must still join every worker."""
        import multiprocessing

        grid = SPEC.grid.build()
        configs = grid.all_configurations()["TN"][:2]
        cells = [
            (
                Cell(model=c.model, params=dict(c.params), label=c.label(),
                     source="R", users=(1, 2, 3)),
                None,
            )
            for c in configs
        ]
        executor = ProcessCellExecutor(SPEC, jobs=2)
        results = executor.run_cells(cells)
        next(results)
        results.close()
        for child in multiprocessing.active_children():
            child.join(timeout=5.0)
        assert multiprocessing.active_children() == []


class TestTelemetryMerge:
    def test_worker_telemetry_joins_parent_stream(self):
        telemetry = Telemetry()
        sink = MemorySink()
        telemetry.events.add_sink(sink)
        runner = _runner(telemetry=telemetry)
        configs = _configs()[:2]
        result = runner.run(
            configs, [RepresentationSource.R], groups=[UserType.ALL],
            executor=ProcessCellExecutor(SPEC, jobs=2),
        )
        assert result.rows

        # Lifecycle events for every cell, in dispatch order.
        dispatched = [e["cell"] for e in sink.of("cell_dispatched")]
        joined = [e["cell"] for e in sink.of("cell_joined")]
        assert dispatched == joined and len(dispatched) == len(configs)

        # Workers' corpus-cache counters folded into the parent registry:
        # each worker prepares the source corpus once, then shares it.
        metrics = telemetry.metrics.snapshot()
        misses = metrics["corpus_cache.miss"]["value"]
        hits = metrics.get("corpus_cache.hit", {"value": 0})["value"]
        # At most one prepare per worker process; the rest are hits.
        assert 1 <= misses <= 2
        assert misses + hits == len(configs)

        # Worker span trees grafted under the parent's sweep span.
        spans = telemetry.tracer.to_payload()
        sweep_span = next(s for s in spans if s["name"] == "sweep")
        config_spans = [c for c in sweep_span["children"] if c["name"] == "config"]
        assert len(config_spans) == len(configs)
        assert all(
            any(g["name"] == "evaluate" for g in span["children"])
            for span in config_spans
        )
