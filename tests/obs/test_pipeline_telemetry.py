"""End-to-end telemetry tests over the evaluation pipeline.

The contract under test: enabling telemetry changes no result (MAP
parity with the legacy Stopwatch path), and the recorded span tree's
per-phase rollups equal the TTime/ETime fields exactly, so Figure 7
numbers can be read off a saved trace.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.pipeline import ExperimentPipeline
from repro.core.sources import RepresentationSource
from repro.experiments.configs import ConfigGrid
from repro.experiments.persistence import load_sweep, save_sweep
from repro.experiments.runner import SweepRunner
from repro.models.bag import TokenNGramModel
from repro.models.topic.btm import BitermTopicModel
from repro.models.topic.lda import LdaModel
from repro.obs import (
    MemorySink,
    RunManifest,
    Telemetry,
    format_trace_report,
    load_trace,
)
from repro.twitter.entities import UserType


@pytest.fixture()
def telemetry() -> Telemetry:
    return Telemetry(manifest=RunManifest.create(seed=11, command="test"))


@pytest.fixture()
def users(small_dataset, small_groups):
    pipeline = ExperimentPipeline(small_dataset, seed=1, max_train_docs_per_user=40)
    return pipeline.eligible_users(small_groups[UserType.ALL])


class TestTimingParity:
    # TN folds one document at a time; LDA and BTM fold in one batch per
    # stage, a ``<stage>.fold`` span charged to the per-user segments.
    @pytest.mark.parametrize(
        "make_model",
        [
            lambda: TokenNGramModel(n=1, weighting="TF"),
            lambda: LdaModel(n_topics=5, iterations=5),
            lambda: BitermTopicModel(n_topics=5, iterations=5),
        ],
        ids=["TN", "LDA", "BTM"],
    )
    def test_span_rollups_equal_legacy_ttime_etime(
        self, small_dataset, users, telemetry, make_model
    ):
        pipeline = ExperimentPipeline(
            small_dataset, seed=1, max_train_docs_per_user=40, telemetry=telemetry
        )
        model = make_model()
        result = pipeline.evaluate(model, RepresentationSource.R, users)
        tracer = telemetry.tracer
        batched = not isinstance(model, TokenNGramModel)
        assert (tracer.total("profiles.fold") > 0) == batched
        assert result.training_seconds == tracer.total("fit") + tracer.total("profiles")
        assert result.testing_seconds == tracer.total("rank")
        assert result.phase_seconds["fit"] == tracer.total("fit")
        assert result.phase_seconds["rank"] == tracer.total("rank")

    def test_telemetry_changes_no_map_values(self, small_dataset, users, telemetry):
        def evaluate(tel):
            pipeline = ExperimentPipeline(
                small_dataset, seed=1, max_train_docs_per_user=40, telemetry=tel
            )
            return pipeline.evaluate(
                TokenNGramModel(n=2, weighting="TF-IDF"),
                RepresentationSource.R,
                users,
            )

        plain = evaluate(None)
        traced = evaluate(telemetry)
        assert traced.per_user_ap == plain.per_user_ap
        assert traced.map_score == plain.map_score

    def test_evaluate_span_nests_the_phases(self, small_dataset, users, telemetry):
        pipeline = ExperimentPipeline(
            small_dataset, seed=1, max_train_docs_per_user=40, telemetry=telemetry
        )
        pipeline.evaluate(
            TokenNGramModel(n=1, weighting="TF"), RepresentationSource.R, users
        )
        (root,) = telemetry.tracer.roots
        assert root.name == "evaluate"
        child_names = {child.name for child in root.children}
        assert {"prepare", "fit", "profiles", "rank"} <= child_names


class TestMetrics:
    def test_doc_cache_hit_and_miss_counters(self, small_dataset, users, telemetry):
        pipeline = ExperimentPipeline(
            small_dataset, seed=1, max_train_docs_per_user=40, telemetry=telemetry
        )
        model = TokenNGramModel(n=1, weighting="TF")
        pipeline.evaluate(model, RepresentationSource.R, users)
        miss_after_first = telemetry.metrics.counter("doc_cache.miss").value
        assert miss_after_first > 0
        assert telemetry.metrics.counter("docs.tokenized").value == miss_after_first

        # Same source again: every document comes from the cache.
        pipeline.evaluate(model, RepresentationSource.R, users)
        assert telemetry.metrics.counter("doc_cache.miss").value == miss_after_first
        assert telemetry.metrics.counter("doc_cache.hit").value > 0

    def test_gibbs_iteration_stream(self, small_dataset, users, telemetry):
        sink = telemetry.events.add_sink(MemorySink())
        pipeline = ExperimentPipeline(
            small_dataset, seed=1, max_train_docs_per_user=40, telemetry=telemetry
        )
        model = LdaModel(n_topics=3, iterations=4, infer_iterations=2, seed=0)
        pipeline.evaluate(model, RepresentationSource.R, users)
        assert telemetry.metrics.counter("gibbs.iterations").value == 4
        events = sink.of("gibbs_iteration")
        assert [e["iteration"] for e in events] == [1, 2, 3, 4]
        assert all(e["model"] == "LDA" for e in events)
        assert all(isinstance(e["log_likelihood"], float) for e in events)
        # The hook is uninstalled after fit.
        assert model.iteration_hook is None

    def test_gibbs_steps_count_biterm_draws_and_change_no_result(
        self, small_dataset, users, telemetry
    ):
        def evaluate(tel):
            pipeline = ExperimentPipeline(
                small_dataset, seed=1, max_train_docs_per_user=40, telemetry=tel
            )
            model = BitermTopicModel(n_topics=3, iterations=4, max_biterms=300, seed=0)
            return pipeline.evaluate(model, RepresentationSource.R, users)

        traced = evaluate(telemetry)
        # Four sweeps over the 300 biterms the cap keeps.
        assert telemetry.metrics.counter("gibbs.steps").value == 4 * 300
        assert traced.per_user_ap == evaluate(None).per_user_ap

    def test_no_log_likelihood_cost_without_hook(self):
        model = LdaModel(n_topics=2, iterations=1, seed=0)
        assert model.iteration_hook is None  # default: nothing to notify


class TestTraceRoundTrip:
    def test_save_load_and_render_breakdown(
        self, small_dataset, users, telemetry, tmp_path
    ):
        pipeline = ExperimentPipeline(
            small_dataset, seed=1, max_train_docs_per_user=40, telemetry=telemetry
        )
        result = pipeline.evaluate(
            TokenNGramModel(n=1, weighting="TF"), RepresentationSource.R, users
        )
        telemetry.manifest.finish()
        path = telemetry.save_trace(tmp_path / "trace.json")

        trace = load_trace(path)
        assert trace["manifest"]["seed"] == 11
        text = format_trace_report(trace)
        assert "evaluate" in text and "fit" in text and "rank" in text
        assert f"ETime (rank)           = {result.testing_seconds:.3f}s" in text

    def test_cli_report_renders_a_saved_trace(
        self, small_dataset, users, telemetry, tmp_path, capsys
    ):
        pipeline = ExperimentPipeline(
            small_dataset, seed=1, max_train_docs_per_user=40, telemetry=telemetry
        )
        pipeline.evaluate(
            TokenNGramModel(n=1, weighting="TF"), RepresentationSource.R, users
        )
        path = telemetry.save_trace(tmp_path / "trace.json")
        assert main(["report", "--artifact", "trace", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace report" in out
        assert "TTime (fit + profiles)" in out

    def test_breakdown_requires_trace(self):
        with pytest.raises(SystemExit):
            main(["report", "--artifact", "trace"])

    def test_sweep_artifacts_still_require_sweep(self):
        with pytest.raises(SystemExit):
            main(["report", "--artifact", "figure"])


class TestSweepTelemetry:
    def test_rows_carry_phase_rollups_and_manifest_persists(
        self, small_dataset, small_groups, telemetry, tmp_path
    ):
        pipeline = ExperimentPipeline(
            small_dataset, seed=1, max_train_docs_per_user=40, telemetry=telemetry
        )
        runner = SweepRunner(pipeline, small_groups)
        configs = ConfigGrid().all_configurations()["TN"][:2]
        result = runner.run(
            configs, [RepresentationSource.R], groups=[UserType.ALL]
        )
        assert result.manifest is not None
        for row in result.rows:
            assert row.phase_seconds["fit"] + row.phase_seconds["profiles"] == (
                pytest.approx(row.training_seconds)
            )
            assert row.phase_seconds["rank"] == pytest.approx(row.testing_seconds)

        path = save_sweep(result, tmp_path / "sweep.json")
        restored = load_sweep(path)
        assert restored.manifest["seed"] == 11
        assert restored.rows[0].phase_seconds == result.rows[0].phase_seconds

    def test_progress_event_stream(self, small_dataset, small_groups, telemetry):
        sink = telemetry.events.add_sink(MemorySink())
        pipeline = ExperimentPipeline(
            small_dataset, seed=1, max_train_docs_per_user=40, telemetry=telemetry
        )
        runner = SweepRunner(pipeline, small_groups)
        configs = ConfigGrid().all_configurations()["TN"][:2]
        runner.run(configs, [RepresentationSource.R], groups=[UserType.ALL])
        assert len(sink.of("sweep_start")) == 1
        results = sink.of("config_result")
        assert len(results) == 2
        assert all(0.0 <= r["map"] <= 1.0 for r in results)
        assert sink.of("sweep_done")[0]["rows"] == 2

    def test_rocchio_skips_are_counted_and_reported(
        self, small_dataset, small_groups, telemetry
    ):
        sink = telemetry.events.add_sink(MemorySink())
        pipeline = ExperimentPipeline(
            small_dataset, seed=1, max_train_docs_per_user=40, telemetry=telemetry
        )
        runner = SweepRunner(pipeline, small_groups)
        rocchio = [c for c in ConfigGrid().tn_configurations() if c.uses_rocchio][:1]
        runner.run(rocchio, [RepresentationSource.R], groups=[UserType.ALL])
        assert telemetry.metrics.counter("sweep.configs.skipped_rocchio").value == 1
        assert len(sink.of("config_skipped")) == 1
