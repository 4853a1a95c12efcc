"""The benchmark's three workloads, driven through the program's public API.

Every workload is a closed loop run by one client in one process. A
workload has a *set-up* (inputs generated from the seed, plus whatever
a user would pay once) and a *pass* (the measured work), and the runner
repeats passes on fresh pipelines, so no pass sees a cache another pass
warmed.

Inputs come from the workload seed alone: the seed drives the synthetic
dataset, the train/test split and every sampler. Which users a workload
evaluates is fixed by rule, not by seed: the ``users`` eligible members
of the All-Users group that have at least ``TRAIN_CAP`` training
retweets (source R) and a test set closest to ``CANDIDATES`` items. The
seed then changes the content the program sees but hardly the amount of
work, which is what keeps run-to-run spread within the bounds.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.documents import DocumentFactory
from repro.core.pipeline import ExperimentPipeline
from repro.core.sources import RepresentationSource
from repro.core.split import train_tweets
from repro.core.stages import canonical_params
from repro.eval.metrics import average_precision, map_over_users
from repro.experiments.configs import ModelConfig
from repro.experiments.runner import SweepResult, SweepRunner
from repro.experiments.standard import bench_grid, fast_grid
from repro.twitter import dataset as twitter_dataset
from repro.twitter.dataset import DatasetConfig, select_user_groups
from repro.twitter.entities import UserType
from speed import Meter

R = RepresentationSource.R

#: Dataset size shared by every workload (the seed varies its content).
N_USERS = 48
N_TICKS = 120
#: Group selection of the ``quick`` bench scale.
GROUP_SIZE = 8
MIN_RETWEETS = 8

BAG_GRAPH = ("TN", "CN", "TNG", "CNG")
BAG_GRAPH_SOURCES = (R, RepresentationSource.T, RepresentationSource.TR)
TOPIC = ("LDA", "LLDA", "BTM", "HDP", "HLDA")
STREAM_MODELS = ("TN", "CNG", "LDA")
#: A streamed user's candidates are re-ranked after every Nth update
#: (and after the user's last one).
RERANK_EVERY = 4

#: Training documents per user and source (the pipeline's cap).
TRAIN_CAP = 20
#: Test-set size per user the user choice aims at.
CANDIDATES = 50


#: Mean tweet length of the synthetic corpus, in characters and words.
TWEET_CHARS = 56
TWEET_WORDS = 9


@dataclass
class Setup:
    """Everything a pass needs; built (and timed) before measuring."""

    seed: int
    dataset: object
    users: tuple[int, ...]
    extra: dict = field(default_factory=dict)

    def pipeline(self) -> ExperimentPipeline:
        """A fresh pipeline: cold split, document and corpus caches."""
        return ExperimentPipeline(
            self.dataset, seed=self.seed, max_train_docs_per_user=TRAIN_CAP
        )


@dataclass
class PassResult:
    """What one pass measured and produced.

    Times are in reference seconds (see ``speed``), keyed by the unit
    they measure -- a segment, a cell, one update or one re-rank -- with
    keys that repeat from pass to pass, so a run can take each unit's
    median over its passes.
    """

    #: Wall time of each measured segment.
    segments: dict[str, float]
    #: TTime (fit + profiles) of each cell; for a stream, each update.
    ttime: dict[str, float]
    #: ETime (rank) of each cell; for a stream, each re-rank.
    etime: dict[str, float]
    #: Unscaled wall seconds of the whole pass, for the report.
    raw_wall_s: float
    #: The program's outputs checked by the oracle: MAP per cell key.
    outputs: dict[str, float]
    attempted: int
    #: One line per cell or stream that raised or failed its check.
    failures: list[str] = field(default_factory=list)
    #: Per-model [Σ TTime, Σ ETime, cells], for the Fig. 7 checks.
    model_times: dict[str, list[float]] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.segments.values())


def cell_key(model: str, source: str, params: dict) -> str:
    """The sweep's own cell identity (``Cell.key``)."""
    return f"{model}|{source}|{canonical_params(params)}"


def workload_users(
    pipeline: ExperimentPipeline,
    group: list[int],
    users: int,
    sources: tuple[RepresentationSource, ...],
) -> tuple[int, ...]:
    """The workload's users, chosen by the rule in the module docstring.

    Users with ``TRAIN_CAP`` training documents in the first of
    ``sources`` form the pool (all eligible users, if too few do). Among
    them the choice starts from the users whose test sets are nearest
    ``CANDIDATES`` tweets long, then swaps users in and out while that
    brings the chosen users' total test-set size, test-set characters
    and words, and training-set characters in each of ``sources`` closer
    to ``users`` times the per-user targets (``TWEET_CHARS`` and
    ``TWEET_WORDS`` per tweet).
    """
    sizes: dict[int, tuple[int, ...]] = {}
    full: list[int] = []
    for uid in pipeline.eligible_users(group):
        split = pipeline.split_for(uid)
        train = [train_tweets(pipeline.dataset, uid, source, split) for source in sources]
        sizes[uid] = (
            len(split.test_set) * TWEET_CHARS,
            sum(len(t.text) for t in split.test_set),
            sum(len(t.text.split()) for t in split.test_set) * TWEET_CHARS // TWEET_WORDS,
        ) + tuple(sum(len(t.text) for t in docs[-TRAIN_CAP:]) for docs in train)
        if len(train[0]) >= TRAIN_CAP:
            full.append(uid)
    pool = full if len(full) >= users else list(sizes)
    targets = (CANDIDATES,) * 3 + (TRAIN_CAP,) * len(sources)
    targets = tuple(users * n * TWEET_CHARS for n in targets)

    def error(chosen) -> float:
        return sum(
            abs(sum(sizes[uid][i] for uid in chosen) / target - 1.0)
            for i, target in enumerate(targets)
        )

    pool.sort(key=lambda uid: (abs(sizes[uid][0] - targets[0] / users), uid))
    chosen = pool[:users]
    rest = pool[users:]
    while True:
        best = (error(chosen), -1, -1)
        for i in range(len(chosen)):
            for j in range(len(rest)):
                trial = chosen[:i] + [rest[j]] + chosen[i + 1 :]
                best = min(best, (error(trial), i, j))
        if best[1] < 0:
            return tuple(sorted(chosen))
        i, j = best[1], best[2]
        chosen[i], rest[j] = rest[j], chosen[i]


def common_setup(seed: int, users: int, sources=(R,)) -> Setup:
    """Dataset, groups and the workload's ``users`` (see ``workload_users``)."""
    dataset = twitter_dataset.generate_dataset(
        DatasetConfig(n_users=N_USERS, n_ticks=N_TICKS, seed=seed)
    )
    groups = select_user_groups(dataset, group_size=GROUP_SIZE, min_retweets=MIN_RETWEETS)
    setup = Setup(seed=seed, dataset=dataset, users=())
    setup.users = workload_users(setup.pipeline(), groups[UserType.ALL], users, sources)
    return setup


def bag_graph_configs(seed: int) -> dict[str, list[ModelConfig]]:
    grid = bench_grid(seed=seed).all_configurations()
    return {model: grid[model] for model in BAG_GRAPH}


def sweep_pass(setup: Setup, segments) -> PassResult:
    """Run ``segments`` -- (configurations, sources) pairs -- through one
    runner and pipeline, each as one measured segment."""
    runner = SweepRunner(setup.pipeline(), {UserType.ALL: list(setup.users)})
    meter = Meter()
    result = PassResult(segments={}, ttime={}, etime={}, raw_wall_s=0.0, outputs={}, attempted=0)
    for configs, sources in segments:
        with meter.segment() as segment:
            sweep: SweepResult = runner.run(configs, sources)
        name = ",".join(sorted({c.model for c in configs})) + "/" + ",".join(s.value for s in sources)
        result.segments[name] = segment.scale(segment.raw)
        for row in sweep.rows:
            key = cell_key(row.model, row.source.value, row.params)
            result.outputs[key] = row.map_score
            result.ttime[key] = segment.scale(row.training_seconds)
            result.etime[key] = segment.scale(row.testing_seconds)
            times = result.model_times.setdefault(row.model, [0.0, 0.0, 0])
            times[0] += result.ttime[key]
            times[1] += result.etime[key]
            times[2] += 1
        result.failures += [
            f"{cell_key(f.model, f.source.value, f.params)}: {f.failure.kind} "
            f"{f.failure.error}: {f.failure.message}"
            for f in sweep.failures
        ]
        result.attempted += sweep.cell_count()
    result.raw_wall_s = meter.raw
    return result


# -- topic_fit -----------------------------------------------------------------


#: BTM's biterm cap in topic_fit (``bench_grid`` uses 30,000). The cap
#: does not shrink with the user count, so at this scale 30,000 would
#: make BTM 80% of the pass; 5,000 keeps it near the other four topic
#: models together and the pass short enough for several per run.
TOPIC_FIT_BTM_BITERMS = 5_000


def topic_fit_setup(seed: int) -> Setup:
    return common_setup(seed, users=10)


def topic_fit_configs(seed: int) -> list[ModelConfig]:
    """``fast_grid``'s nine picks, built from a grid with the lower BTM cap."""
    grid = bench_grid(seed=seed)
    grid.btm_max_biterms = TOPIC_FIT_BTM_BITERMS
    index = {(c.model, canonical_params(c.params)): c for c in grid.iter_all()}
    return [index[(c.model, canonical_params(c.params))] for c in fast_grid(seed=seed)]


def topic_fit_pass(setup: Setup) -> PassResult:
    return sweep_pass(setup, [([config], [R]) for config in topic_fit_configs(setup.seed)])


# -- bag_graph_grid --------------------------------------------------------------


def bag_graph_setup(seed: int) -> Setup:
    return common_setup(seed, users=8, sources=(R, RepresentationSource.T))


def bag_graph_pass(setup: Setup) -> PassResult:
    return sweep_pass(setup, [
        (configs, [source])
        for configs in bag_graph_configs(setup.seed).values()
        for source in BAG_GRAPH_SOURCES
    ])


# -- profile_stream --------------------------------------------------------------


def stream_setup(seed: int) -> Setup:
    """Fit TN, CNG and LDA once on R; precompute every stream's inputs.

    LDA runs with deterministic inference, so a document's topic
    mixture is a pure function of the fitted model and the document --
    streamed and batch profiles can then be compared exactly.
    """
    setup = common_setup(seed, users=18)
    pipeline = setup.pipeline()
    corpus = pipeline.prepare_corpus(R, setup.users)
    picks = {config.model: config for config in fast_grid(seed=seed)}
    factory = candidate_factory(pipeline, setup.users)
    candidates = {}
    for uid in setup.users:
        split = pipeline.split_for(uid)
        candidates[uid] = (
            [factory.to_doc(tweet) for tweet in split.test_set],
            [tweet.tweet_id in split.relevant_ids for tweet in split.test_set],
        )
    streams = {}
    for name in STREAM_MODELS:
        model = picks[name].build()
        if hasattr(model, "deterministic_inference"):
            model.deterministic_inference = True
        fitted = pipeline.fit_model(model, corpus)
        streams[name] = [
            (name, uid, fitted, *pipeline.profile_inputs(fitted, uid)) for uid in setup.users
        ]
    setup.extra = {"streams": streams, "candidates": candidates}
    return setup


def candidate_factory(pipeline: ExperimentPipeline, users) -> DocumentFactory:
    """The preprocessing the pipeline fits for this user set.

    Stop words come from every tweet in some user's training phase (the
    user's outgoing and incoming streams before the cutoff), as the
    pipeline's own preprocessing context does.
    """
    training = {}
    for uid in users:
        cutoff = pipeline.split_for(uid).cutoff
        dataset = pipeline.dataset
        for tweet in dataset.outgoing(uid) + dataset.incoming(uid):
            if tweet.timestamp < cutoff:
                training[tweet.tweet_id] = tweet
    return DocumentFactory(pipeline.top_k_stop_words).fit(training.values())


def stream_pass(setup: Setup) -> PassResult:
    """Fold each user's training docs one at a time, re-ranking as we go.

    Each (model, user) stream is one attempted unit; its output is the
    AP of the last re-rank, which ranks against the complete profile.
    Each model's streams form one measured segment. The final profiles
    are kept for the batch-parity check.
    """
    candidates = setup.extra["candidates"]
    meter = Meter()
    result = PassResult(
        segments={}, ttime={}, etime={}, raw_wall_s=0.0, outputs={},
        attempted=sum(len(streams) for streams in setup.extra["streams"].values()),
    )
    per_model_ap: dict[str, dict[int, float]] = {}
    finals = {}
    clock = time.perf_counter
    for model_name, model_streams in setup.extra["streams"].items():
        updates: dict[str, float] = {}
        reranks: dict[str, float] = {}
        with meter.segment() as segment:
            for name, uid, fitted, docs, labels, keys in model_streams:
                cand_docs, relevant = candidates[uid]
                try:
                    state = fitted.model.init_profile()
                    ranking = []
                    for i, doc in enumerate(docs):
                        label = None if labels is None else [labels[i]]
                        t0 = clock()
                        state.update([doc], labels=label, keys=[keys[i]])
                        updates[f"{name}/{uid}/{i}"] = clock() - t0
                        if (i + 1) % RERANK_EVERY == 0 or i == len(docs) - 1:
                            t0 = clock()
                            ranking = fitted.recommender.rank(state.value(), cand_docs)
                            reranks[f"{name}/{uid}/{i}"] = clock() - t0
                    per_model_ap.setdefault(name, {})[uid] = average_precision(
                        [relevant[item.position] for item in ranking]
                    )
                    finals[(name, uid)] = state.value()
                except Exception as error:  # a failed stream is counted, not fatal
                    result.failures.append(
                        f"stream {name}/user {uid}: {type(error).__name__}: {error}"
                    )
        result.segments[model_name] = segment.scale(segment.raw)
        result.ttime.update({k: segment.scale(t) for k, t in updates.items()})
        result.etime.update({k: segment.scale(t) for k, t in reranks.items()})
    setup.extra["finals"] = finals
    result.raw_wall_s = meter.raw
    result.outputs = {
        f"{name}|stream": map_over_users(dict(sorted(aps.items())))
        for name, aps in per_model_ap.items()
    }
    return result


def stream_parity(setup: Setup) -> list[str]:
    """Streamed final profiles that differ from ``build_user_model``."""
    mismatches = []
    finals = setup.extra.get("finals", {})
    streams = [stream for group in setup.extra["streams"].values() for stream in group]
    for name, uid, fitted, docs, labels, _keys in streams:
        streamed = finals.get((name, uid))
        if streamed is None:
            continue
        batch = fitted.model.build_user_model(docs, labels=labels)
        if isinstance(batch, np.ndarray):
            same = np.array_equal(streamed, batch)
        else:
            same = streamed == batch
        if not same:
            mismatches.append(f"stream {name}/user {uid}: streamed profile != batch build")
    return mismatches


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int], Setup]
    run_pass: Callable[[Setup], PassResult]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "topic_fit",
            "Gibbs-sampled fits dominate: the fast grid's nine configurations on R, "
            "five of them topic models",
            topic_fit_setup,
            topic_fit_pass,
        ),
        Workload(
            "bag_graph_grid",
            "thousands of small represent/score calls: all 75 TN/CN/TNG/CNG "
            "configurations on R, T and TR, no sampling",
            bag_graph_setup,
            bag_graph_pass,
        ),
        Workload(
            "profile_stream",
            "single-document ProfileState updates beside re-ranks, for TN, CNG and LDA",
            stream_setup,
            stream_pass,
        ),
    )
}
