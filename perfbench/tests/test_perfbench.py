"""Tests of the benchmark itself (not of the program it measures).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
import run
import workloads
from spans import SpanRecorder, instrumented, layer_metrics

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def dataset_digest(setup: workloads.Setup) -> list[tuple]:
    return [
        (t.tweet_id, t.author_id, t.timestamp, t.text, t.retweet_of)
        for t in setup.dataset.tweets
    ]


def test_same_seed_same_inputs():
    first = workloads.topic_fit_setup(3)
    again = workloads.topic_fit_setup(3)
    other = workloads.topic_fit_setup(4)
    assert first.users == again.users
    assert dataset_digest(first) == dataset_digest(again)
    assert dataset_digest(first) != dataset_digest(other)


def test_stream_inputs_repeat_for_a_seed():
    first = workloads.stream_setup(5)
    again = workloads.stream_setup(5)
    for name in workloads.STREAM_MODELS:
        a = [(uid, [d.tokens for d in docs], keys)
             for _, uid, _, docs, _, keys in first.extra["streams"][name]]
        b = [(uid, [d.tokens for d in docs], keys)
             for _, uid, _, docs, _, keys in again.extra["streams"][name]]
        assert a == b
    assert first.extra["candidates"].keys() == again.extra["candidates"].keys()


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert set(w["name"] for w in BENCHMARK["workloads"]) == set(workloads.WORKLOADS)


def fake_pass(seconds: float) -> workloads.PassResult:
    return workloads.PassResult(
        segments={"a": seconds}, ttime={"c": seconds / 4}, etime={"c": seconds / 2},
        raw_wall_s=seconds, outputs={}, attempted=1,
    )


def test_emitted_metrics_are_the_declared_ones():
    passes = [fake_pass(2.0), fake_pass(1.0), fake_pass(9.0)]
    e2e = run.end_to_end_metrics([1.0, 2.0, 3.0], passes, 100.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in e2e.items()} == declared
    assert e2e["wall_s"][0] == 2.0  # each unit's median pass
    assert e2e["setup_s"][0] == 2.0

    recorder = SpanRecorder()
    spans = [recorder.open(name, count) for name, count in
             (("experiments.sweep", 0), ("core.rank", 3), ("models.represent.TN", 1))]
    for index in reversed(spans):
        recorder.close(index)
    layer = layer_metrics(recorder, 0, passes=1, overhead_ratio=0.1)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in layer.items()} == declared


def test_self_time_excludes_children():
    recorder = SpanRecorder()
    outer = recorder.open("core.rank", count=2)
    inner = recorder.open("models.score.TN")
    recorder.close(inner)
    recorder.close(outer)
    recorder.start[outer], recorder.end[outer] = 0.0, 1.0
    recorder.start[inner], recorder.end[inner] = 0.2, 0.5
    layer = layer_metrics(recorder, 0, passes=1, overhead_ratio=0.0)
    assert layer["core.rank_s"][0] == pytest.approx(1.0)
    assert layer["core.rank_self_s"][0] == pytest.approx(0.7)
    assert layer["models.score_calls.TN"][0] == 1


def test_instrumentation_is_removed_afterwards():
    from repro.core.recommender import RankingRecommender
    from repro.models.bag import TokenNGramModel

    rank = RankingRecommender.rank
    with instrumented(SpanRecorder()):
        assert "represent" in TokenNGramModel.__dict__
        assert RankingRecommender.rank is not rank
    assert RankingRecommender.rank is rank
    assert "represent" not in TokenNGramModel.__dict__


@pytest.mark.parametrize(
    "n, q, emitted",
    [(19, 0.5, False), (20, 0.5, True), (99, 0.9, False), (100, 0.9, True),
     (999, 0.99, False), (1000, 0.99, True), (0, 0.5, False)],
)
def test_percentile_needs_ten_samples_beyond(n, q, emitted):
    values = [float(i) for i in range(n)]
    assert (oracle.percentile(values, q) is not None) is emitted


def test_percentile_is_nearest_rank():
    assert oracle.percentile([float(i) for i in range(1, 101)], 0.9) == 90.0


BAG = 'TN|R|{"n":3,"similarity":"CS"}'
GJS = 'TN|R|{"n":3,"similarity":"GJS"}'
TOPIC = 'LDA|R|{"n_topics":15}'
TOLERANCE = {"topic": 0.02, "gjs": 0.01}


def test_oracle_flags_a_perturbed_map():
    expected = {BAG: 0.5, GJS: 0.5, TOPIC: 0.4}
    within = {BAG: 0.5, GJS: 0.505, TOPIC: 0.41}
    assert oracle.check_outputs(within, expected, TOLERANCE) == []
    for key, value in ((BAG, 0.5 + 1e-12), (GJS, 0.52), (TOPIC, 0.43)):
        problems = oracle.check_outputs({**within, key: value}, expected, TOLERANCE)
        assert len(problems) == 1 and problems[0].startswith(key)
    missing = oracle.check_outputs({BAG: 0.5, GJS: 0.5}, expected, TOLERANCE)
    assert missing and "missing" in missing[0]
    assert oracle.check_range({BAG: 1.5}) != []


def test_without_reference_every_cell_is_exact():
    assert oracle.check_outputs({GJS: 0.5 + 1e-12}, {GJS: 0.5}, {}) != []


def stream_setup_with(model, docs, final) -> workloads.Setup:
    fitted = SimpleNamespace(model=model)
    setup = workloads.Setup(seed=0, dataset=None, users=(1,))
    setup.extra = {
        "streams": {model.name: [(model.name, 1, fitted, docs, None, [(0, 0), (1, 1)])]},
        "finals": {(model.name, 1): final},
    }
    return setup


def test_oracle_flags_a_mismatched_streamed_profile():
    from repro.models.base import TextDoc
    from repro.models.bag import TokenNGramModel

    model = TokenNGramModel(n=1)
    docs = [TextDoc.from_tokens(["a", "b"]), TextDoc.from_tokens(["b", "c"])]
    state = model.init_profile()
    for i, doc in enumerate(docs):
        state.update([doc], keys=[(i, i)])
    assert workloads.stream_parity(stream_setup_with(model, docs, state.value())) == []
    skewed = dict(state.value())
    skewed["a"] += 1e-9
    assert len(workloads.stream_parity(stream_setup_with(model, docs, skewed))) == 1


def test_oracle_compares_topic_profiles_exactly():
    model = SimpleNamespace(name="LDA", build_user_model=lambda docs, labels=None: np.ones(3))
    assert workloads.stream_parity(stream_setup_with(model, [], np.ones(3))) == []
    assert len(workloads.stream_parity(stream_setup_with(model, [], np.ones(3) * 2))) == 1


def test_fig7_checks_report_without_failing():
    times = {"TN": [1.0, 1.0, 1], "TNG": [5.0, 1.0, 1], "LDA": [30.0, 2.0, 1],
             "HLDA": [40.0, 9.0, 1]}
    checks = {name: state for name, state, _ in oracle.fig7_checks(times)}
    assert checks == {
        "tn_fastest": "holds",
        "graph_bag_ttime_ratio": "does not hold",
        "topic_slowest_to_train": "holds",
        "hlda_slowest_to_test": "holds",
    }
    assert {s for _, s, _ in oracle.fig7_checks({"TN": [1.0, 1.0, 1]})} == {"n/a"}
