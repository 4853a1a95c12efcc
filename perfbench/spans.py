"""In-memory span recording around the calls into each layer.

The traced run wraps public entry points of the program's layers
(``DocumentFactory.to_doc``, the four ``ExperimentPipeline`` stages,
``RankingRecommender.rank``, every model family's ``fit`` /
``represent`` / ``score`` and ``ProfileState.update``, and the cell
executors) so that each call records one span: name, start, end,
parent, the workload cell it belongs to, and a work count. Spans are
kept in columnar arrays and written out once, when the run ends.

The wrappers live here, in the benchmark, and are installed only for
the traced passes; untraced passes run the program unmodified.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Models whose per-model ("◆") metrics are kept, by metric group.
TOPIC_MODELS = ("LDA", "LLDA", "BTM", "HDP", "HLDA")
BAG_GRAPH_MODELS = ("TN", "CN", "TNG", "CNG")
ALL_MODELS = BAG_GRAPH_MODELS + TOPIC_MODELS
PER_MODEL = {
    "fit": TOPIC_MODELS,
    "represent": ALL_MODELS,
    "score": BAG_GRAPH_MODELS,
    "fold": ALL_MODELS,
}


class SpanRecorder:
    """Columnar span store with a stack for parent links.

    Single-threaded by design: every workload is driven by one client
    thread.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cell_names: list[str] = [""]
        self._cell_ids: dict[str, int] = {"": 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self.count = array("q")
        self._stack: list[int] = []
        self._cell_stack: list[int] = [0]
        #: (model, document) pairs represented so far this pass, keyed by
        #: identity; the values pin both so no id is reused mid-pass.
        self.represented: dict[tuple[int, int], tuple[object, object]] = {}

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _cell_id(self, cell: str) -> int:
        ident = self._cell_ids.get(cell)
        if ident is None:
            ident = self._cell_ids[cell] = len(self.cell_names)
            self.cell_names.append(cell)
        return ident

    def open(self, name: str, count: int = 0, cell: str | None = None) -> int:
        index = len(self.start)
        if cell is not None:
            self._cell_stack.append(self._cell_id(cell))
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.cell.append(self._cell_stack[-1])
        self.count.append(count)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int, count: int | None = None, cell: bool = False) -> None:
        self.end[index] = time.perf_counter()
        if count is not None:
            self.count[index] = count
        self._stack.pop()
        if cell:
            self._cell_stack.pop()

    def write(self, path: Path, workload: str, seed: int) -> None:
        """Write every span as one JSON document of parallel columns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "workload": workload,
            "seed": seed,
            "clock": "time.perf_counter seconds",
            "names": self.names,
            "cells": self.cell_names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "cell": self.cell.tolist(),
            "count": self.count.tolist(),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


# -- instrumentation -----------------------------------------------------------


def _wrap(recorder: SpanRecorder, fn, name_of, count_of=None):
    """``fn`` wrapped in a span named ``name_of(args)``."""

    def wrapper(*args, **kwargs):
        index = recorder.open(name_of(args), count_of(args, kwargs) if count_of else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrumented(recorder: SpanRecorder):
    """Install span wrappers on the program's layer entry points."""
    from repro.core.documents import DocumentFactory
    from repro.core.pipeline import ExperimentPipeline
    from repro.core.recommender import RankingRecommender
    from repro.experiments.executors import SerialCellExecutor
    from repro.experiments.runner import SweepRunner
    from repro.models.bag import BagProfileState, CharacterNGramModel, TokenNGramModel
    from repro.models.graph import (
        CharacterNGramGraphModel,
        GraphProfileState,
        TokenNGramGraphModel,
    )
    from repro.models.topic.base import TopicProfileState
    from repro.models.topic.btm import BitermTopicModel
    from repro.models.topic.hdp import HdpModel
    from repro.models.topic.hlda import HldaModel
    from repro.models.topic.lda import LdaModel
    from repro.models.topic.llda import LabeledLdaModel
    from repro.twitter import dataset as twitter_dataset

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr] if attr in owner.__dict__ else None))
        setattr(owner, attr, replacement)

    def fixed(name):
        return lambda args: name

    # The count of a represent span is 1 when its (model, document)
    # pair is new this pass, so distinct pairs / calls is derivable.
    def represent_first(args, kwargs):
        key = (id(args[0]), id(args[1]))
        if key in recorder.represented:
            return 0
        recorder.represented[key] = (args[0], args[1])
        return 1

    def fit_token_iters(args, kwargs):
        model, corpus = args[0], args[1]
        tokens = sum(len(doc.tokens) for doc in corpus)
        return tokens * int(getattr(model, "iterations", 1))

    patch(twitter_dataset, "generate_dataset",
          _wrap(recorder, twitter_dataset.generate_dataset, fixed("twitter.generate")))
    patch(DocumentFactory, "to_doc", _wrap(recorder, DocumentFactory.to_doc, fixed("text.to_doc"),
                                           lambda a, k: 1))
    for stage, name in (
        ("prepare_corpus", "core.prepare"),
        ("fit_model", "core.fit"),
        ("build_profiles", "core.profiles"),
        ("rank_users", "core.rank_users"),
        ("evaluate", "core.evaluate"),
    ):
        patch(ExperimentPipeline, stage,
              _wrap(recorder, getattr(ExperimentPipeline, stage), fixed(name)))
    patch(RankingRecommender, "rank",
          _wrap(recorder, RankingRecommender.rank, fixed("core.rank"),
                lambda a, k: len(a[2])))

    for cls in (
        TokenNGramModel, CharacterNGramModel, TokenNGramGraphModel, CharacterNGramGraphModel,
        LdaModel, LabeledLdaModel, BitermTopicModel, HdpModel, HldaModel,
    ):
        model = cls.name
        patch(cls, "fit", _wrap(recorder, cls.fit, fixed(f"models.fit.{model}"), fit_token_iters))
        patch(cls, "represent", _wrap(recorder, cls.represent, fixed(f"models.represent.{model}"),
                                      represent_first))
        patch(cls, "score", _wrap(recorder, cls.score, fixed(f"models.score.{model}")))
    for cls in (BagProfileState, GraphProfileState, TopicProfileState):
        patch(cls, "update", _wrap(
            recorder, cls.update,
            lambda args: f"models.fold.{args[0]._model.name}",
            lambda a, k: len(a[1]),
        ))

    patch(SweepRunner, "run", _wrap(recorder, SweepRunner.run, fixed("experiments.sweep")))
    patch(SerialCellExecutor, "run_cells", _serial_cells(recorder, SerialCellExecutor.run_cells))
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _serial_cells(recorder: SpanRecorder, run_cells):
    """One ``experiments.cell`` span per cell the serial executor yields."""

    def wrapper(self, tasks, *args, **kwargs):
        cells = iter(run_cells(self, tasks, *args, **kwargs))
        for cell, _config in tasks:
            index = recorder.open("experiments.cell", cell=cell.key)
            try:
                item = next(cells)
            except StopIteration:
                recorder.close(index, cell=True)
                return
            recorder.close(index, count=item[1].attempts - 1, cell=True)
            yield item

    return wrapper


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(
    recorder: SpanRecorder,
    first: int,
    passes: int,
    overhead_ratio: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per traced pass, derived from the spans.

    Spans before index ``first`` belong to set-up and feed only
    ``twitter.generate_s`` (the mean of the set-up generations). From
    ``first`` on, durations and counts are totals over the traced
    passes divided by ``passes``; ratios are taken over the totals. A
    layer a workload never reaches reads 0.
    """
    n = len(recorder)
    names = [recorder.names[i] for i in recorder.name]
    duration = [recorder.end[i] - recorder.start[i] for i in range(n)]
    generate = [duration[i] for i in range(first) if names[i] == "twitter.generate"]
    child_time = [0.0] * n
    has_text_child = [False] * n
    for i in range(first, n):
        parent = recorder.parent[i]
        if parent >= 0:
            child_time[parent] += duration[i]
            if names[i] == "text.to_doc":
                has_text_child[parent] = True

    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    prepare_reused = 0
    for i in range(first, n):
        name = names[i]
        total[name] += duration[i]
        calls[name] += 1
        counts[name] += recorder.count[i]
        self_time[name] += duration[i] - child_time[i]
        if name == "core.prepare" and not has_text_child[i]:
            prepare_reused += 1

    def family(prefix: str, model: str | None = None):
        """(seconds, calls, count) summed over a ``models.<op>`` family."""
        keys = [f"{prefix}.{model}"] if model else [k for k in total if k.startswith(prefix + ".")]
        return (
            sum(total[k] for k in keys),
            sum(calls[k] for k in keys),
            sum(counts[k] for k in keys),
        )

    def per(value: float) -> float:
        return value / passes

    def rate(seconds: float, units: float, scale: float = 1e6) -> float:
        return seconds * scale / units if units else 0.0

    out: dict[str, tuple[float, str]] = {}
    out["twitter.generate_s"] = (sum(generate) / len(generate) if generate else 0.0, "s")
    out["text.docs"] = (per(calls["text.to_doc"]), "count")
    out["text.s"] = (per(total["text.to_doc"]), "s")
    out["text.us_per_doc"] = (rate(total["text.to_doc"], calls["text.to_doc"]), "us")
    out["core.prepare_calls"] = (per(calls["core.prepare"]), "count")
    out["core.prepare_s"] = (per(total["core.prepare"]), "s")
    out["core.prepare_reuse_ratio"] = (
        prepare_reused / calls["core.prepare"] if calls["core.prepare"] else 0.0, "ratio"
    )

    def model_metrics(op: str, model: str | None) -> None:
        suffix = f".{model}" if model else ""
        seconds, ncalls, work = family(f"models.{op}", model)
        if op == "fit":
            out[f"models.fit_s{suffix}"] = (per(seconds), "s")
            out[f"models.fit_token_iters{suffix}"] = (per(work), "count")
            out[f"models.fit_us_per_token_iter{suffix}"] = (rate(seconds, work), "us")
        elif op == "fold":
            out[f"models.fold_docs{suffix}"] = (per(work), "count")
            out[f"models.fold_s{suffix}"] = (per(seconds), "s")
            out[f"models.fold_us_per_doc{suffix}"] = (rate(seconds, work), "us")
        else:
            out[f"models.{op}_calls{suffix}"] = (per(ncalls), "count")
            out[f"models.{op}_s{suffix}"] = (per(seconds), "s")
            out[f"models.{op}_us{suffix}"] = (rate(seconds, ncalls), "us")
        if op == "represent" and model is None:
            out["models.represent_unique_ratio"] = (work / ncalls if ncalls else 0.0, "ratio")

    for op, models in PER_MODEL.items():
        model_metrics(op, None)
        for model in models:
            model_metrics(op, model)

    out["core.rank_s"] = (per(total["core.rank"]), "s")
    out["core.rank_candidates"] = (per(counts["core.rank"]), "count")
    out["core.rank_self_s"] = (per(self_time["core.rank"]), "s")

    sweep_wall = total["experiments.sweep"]
    out["experiments.cells"] = (per(calls["experiments.cell"]), "count")
    out["experiments.cell_busy_s"] = (per(total["experiments.cell"]), "s")
    out["experiments.overhead_s"] = (per(sweep_wall - total["core.evaluate"]), "s")
    out["experiments.cell_retries"] = (per(counts["experiments.cell"]), "count")
    out["obs.trace_overhead_ratio"] = (overhead_ratio, "ratio")
    return out
