"""Numerical helpers shared by the Gibbs samplers.

All the collapsed Gibbs samplers in this package need the same two
primitives: drawing from an unnormalised discrete distribution, and
sampling the number of occupied tables in a Chinese Restaurant Process
(used by HDP's table-count resampling).

A training step draws its topic in one of two ways, chosen by the
step's topic count: :func:`draw_index` on a numpy weight vector, or,
up to :data:`SCALAR_TOPICS` topics, :func:`draw_scalar` on a list of
Python floats. With a handful of topics numpy's per-call cost outweighs
its arithmetic. Both compute the same weights, the same pairwise total
(:func:`pairwise_total` repeats numpy's summation order) and the same
inverse CDF, so they draw the same index from the same uniform and a
fit does not depend on which one ran.

Training LDA and Labeled LDA is the third: :class:`LdaCounts` holds the
count tables of their collapsed Gibbs sampler and runs its sweeps.
Folding unseen documents into a fitted model is the fourth:
:func:`fold_in` runs the fold-in sampler of LDA, LLDA, HDP and HLDA.
From :data:`MIN_BATCH` documents on it samples a token position of
the whole batch in one numpy step; fewer documents are folded one at a
time, on Python floats up to :data:`SCALAR_TOPICS` topics and on numpy
above. All three give the same counts (see its docstring).

The module also defines the samplers' per-iteration progress protocol:
a training loop calls :func:`notify_iteration` once per sweep, and any
installed :data:`IterationHook` receives a :class:`GibbsIteration`
record (iteration number, total, optional corpus log-likelihood, the
sweep's sampling steps). The telemetry layer uses this to stream
sampler convergence and work without the models knowing anything
about tracing.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate
from operator import add, mul, truediv

import numpy as np

from repro.errors import SamplingWeightsError
from repro.obs.sampling import read_rss_bytes

__all__ = [
    "FoldIn",
    "GibbsIteration",
    "IterationHook",
    "LdaCounts",
    "SCALAR_TOPICS",
    "draw_index",
    "draw_scalar",
    "fold_in",
    "notify_iteration",
    "pairwise_total",
    "sample_crp_tables",
]

#: Below this many documents, :func:`fold_in` samples each document on
#: its own: the batched step's fixed cost outweighs the steps it saves.
#: Folding tweets of the benchmark corpus into a 15-topic LDA, the
#: batched step and the scalar single-document step cost the same at
#: about six documents (CPython 3.11, numpy 2.4, 2-vCPU x86 guest).
MIN_BATCH = 6

#: Most topic-word weights (a document's tokens times its topics, or
#: for BTM its biterms times its topics, summed over the batch) that
#: :meth:`TopicModel.represent_many
#: <repro.models.topic.base.TopicModel.represent_many>` infers in one
#: chunk: one :func:`fold_in` call, or one BTM array pass; a longer
#: batch is inferred in consecutive chunks of documents, which draws the
#: same stream. A fold-in chunk's weights are held twice, 0.5 MiB each:
#: the fold-ins' and the batch's. In the benchmark a stage batch takes
#: up to about 69,000 weights (LLDA's candidates, 38 topics), so most
#: stay whole; at 200 topics a chunk is about 330 tokens.
MAX_BATCH_ENTRIES = 1 << 16

#: Documents whose weights :func:`_fold_batch` copies into its array in
#: one scatter: few enough that the group's concatenated weights stay
#: small, enough that the scatters cost little beside the sampling.
SCATTER_DOCS = 32

#: Most topics a training step samples with :func:`draw_scalar`; with
#: more, :func:`draw_index`'s numpy step is faster. Measured on BTM and
#: LDA fits of the benchmark corpus, whose two steps cost the same at
#: about 17 topics (CPython 3.11, numpy 2.4, 2-vCPU x86 guest), and on
#: HDP's step (its extra division and new-topic entry included) held
#: at 8 to 48 active topics: scalar/numpy 0.7 at 8, 0.95 to 0.99 at 16
#: and 17, 1.02 to 1.08 at 18 and 1.4 to 1.9 at 32 to 48. A
#: single-document fold-in takes its scalar step up to the same limit,
#: although its two steps cost the same only at about 27 topics.
SCALAR_TOPICS = 17


@dataclass(frozen=True)
class GibbsIteration:
    """One completed training sweep of a sampler (or EM) loop."""

    model: str
    iteration: int  # 1-based
    total: int
    log_likelihood: float | None = None
    #: Draws the sweep made: a topic per biterm (BTM) or per token (the
    #: other samplers); None for EM, which draws nothing.
    steps: int | None = None
    #: Resident set size right after the sweep; None when no hook was
    #: installed (the read is skipped) or no RSS source exists.
    rss_bytes: int | None = None


#: Observer of sampler progress; see :func:`notify_iteration`.
IterationHook = Callable[[GibbsIteration], None]


def notify_iteration(
    hook: IterationHook | None,
    model: str,
    iteration: int,
    total: int,
    log_likelihood: float | None = None,
    steps: int | None = None,
) -> None:
    """Deliver one :class:`GibbsIteration` to ``hook`` if one is set.

    The RSS read happens only when a hook is installed, so untraced
    training loops pay nothing for the memory dimension.
    """
    if hook is not None:
        hook(GibbsIteration(
            model=model,
            iteration=iteration,
            total=total,
            log_likelihood=log_likelihood,
            steps=steps,
            rss_bytes=read_rss_bytes(),
        ))


def draw_index(weights: np.ndarray, uniform: float, model: str) -> int:
    """Index drawn proportionally to non-negative ``weights`` by inverse CDF.

    The index is the count of CDF entries below ``uniform`` times the
    pairwise total, found by bisecting the non-decreasing CDF. The last
    weight's CDF entry is left out: rounding can put it below the
    pairwise total, and a target above it must still land on the last
    index rather than one past it. A sampler that draws a whole sweep's
    uniforms in one ``rng.random(n)`` call uses the same stream as one
    ``rng.random()`` per draw. Weights whose total is not finite and
    positive raise :class:`SamplingWeightsError` naming ``model``.

    ``np.searchsorted`` is avoided: it drops and retakes the GIL on
    every call, and one release per token lets the sampling thread keep
    losing the GIL race to the sampler loop, so a
    :class:`~repro.obs.sampling.Sampler` watching a fit could go
    hundreds of ms without a sample.
    """
    total = _training_total(float(np.add.reduce(weights)), model)
    return bisect_left(np.add.accumulate(weights[:-1]).tolist(), uniform * total)


def draw_scalar(weights: Sequence[float], uniform: float, model: str) -> int:
    """:func:`draw_index` for weights held as Python floats.

    The total is :func:`pairwise_total`, numpy's total bit for bit, and
    the CDF is the same left-to-right running sum, so both draw the same
    index from the same uniform and raise the same error.
    """
    total = _training_total(pairwise_total(weights), model)
    return bisect_left(list(accumulate(weights[:-1])), uniform * total)


def _training_total(total: float, model: str) -> float:
    """``total``, unless it is not finite and positive."""
    if not 0.0 < total < math.inf:
        raise SamplingWeightsError(
            f"{model} training weights must have a finite, positive total"
        )
    return total


def pairwise_total(weights: Sequence[float]) -> float:
    """``float(np.add.reduce(np.array(weights)))``, summed in Python.

    numpy sums a float64 vector pairwise. Below 8 terms it adds left to
    right from 0.0. Up to 128 terms it keeps eight running sums, ``r[j]``
    over ``weights[j::8]`` of the longest prefix whose length is a
    multiple of 8, adds them as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7)), then adds the rest left to right. Longer vectors are
    split at half their length rounded down to a multiple of 8, and each
    part summed the same way. This repeats that order, so the rounding
    and the total are the same. The builtin ``sum`` would not do: from
    Python 3.12 it compensates float rounding.
    """
    n = len(weights)
    if n < 8:
        total = 0.0
        for weight in weights:
            total += weight
        return total
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_total(weights[:half]) + pairwise_total(weights[half:])
    body = n - n % 8
    r = weights[:8]
    for start in range(8, body, 8):
        r = list(map(add, r, weights[start:start + 8]))
    r0, r1, r2, r3, r4, r5, r6, r7 = r
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for weight in weights[body:]:
        total += weight
    return total


class LdaCounts:
    """Count tables of collapsed-Gibbs LDA, and the sweep that updates them.

    LDA and Labeled LDA share the update (Griffiths & Steyvers 2004)

        p(z_i = k | ...) ∝ (n_dk + α) · (n_kw + β) / (n_k + Vβ)

    with counts excluding token ``i``; Labeled LDA restricts each
    document to its ``allowed`` topics. The counts are Python lists
    (word-major: ``word_counts[w][k]``). Beside them the smoothed
    factors ``n_kw + β`` (V x K) and ``n_k + Vβ`` are kept, and when a
    count changes only its entry is recomputed, by the same float
    expression as the whole table. A token's weights are then two
    elementwise operations on one word row (plus a gather of the
    allowed topics) -- the same values as building the conditional
    from the count tables.

    The factors are lists of Python floats, sampled with
    :func:`draw_scalar`, when no document samples from more than
    :data:`SCALAR_TOPICS` topics (all ``K`` for LDA, the largest allowed
    set for Labeled LDA); otherwise they are arrays, sampled with
    :func:`draw_index`. A fit keeps one form of the tables, so a Labeled
    LDA corpus whose allowed sets straddle the constant takes the numpy
    step throughout: near the constant both steps cost about the same.

    ``topics[d]`` is document ``d``'s initial topic per token.
    """

    def __init__(
        self,
        docs: list[list[int]],
        topics: Sequence[np.ndarray],
        n_topics: int,
        vocab_size: int,
        alpha: float,
        beta: float,
        allowed: Sequence[np.ndarray] | None = None,
    ):
        self.docs = docs
        self.topics = [z.tolist() for z in topics]
        self.alpha = alpha
        self.beta = beta
        self.v_beta = vocab_size * beta
        self.allowed = allowed
        self.n_tokens = sum(map(len, docs))
        self.doc_counts = [[0] * n_topics for _ in docs]
        self.word_counts = [[0] * n_topics for _ in range(vocab_size)]
        self.topic_counts = [0] * n_topics
        for doc, z, counts in zip(docs, self.topics, self.doc_counts):
            for w, topic in zip(doc, z):
                counts[topic] += 1
                self.word_counts[w][topic] += 1
                self.topic_counts[topic] += 1
        largest = n_topics if allowed is None else max(map(len, allowed), default=0)
        self.scalar = largest <= SCALAR_TOPICS
        word_factors, denominators = self._factors()
        if self.scalar:
            self.word_rows = word_factors.tolist()
            self.denominators = denominators.tolist()
        else:
            self.word_rows = list(word_factors)
            self.denominators = denominators

    def _factors(self) -> tuple[np.ndarray, np.ndarray]:
        """``n_kw + β`` (V x K) and ``n_k + Vβ`` from the counts, as arrays."""
        word_factors = np.array(self.word_counts, dtype=float).reshape(
            -1, len(self.topic_counts)
        ) + self.beta
        return word_factors, np.array(self.topic_counts, dtype=float) + self.v_beta

    def sweep(self, rng: np.random.Generator, model: str) -> None:
        """Resample every token once, token ``i`` drawing its topic with
        the ``i``-th of ``rng.random(n_tokens)``.

        The sweep draws its own uniforms: ``random`` releases the GIL, and
        a profiler's sample taken there belongs to the sweep.
        """
        alpha, beta, v_beta = self.alpha, self.beta, self.v_beta
        word_counts, topic_counts = self.word_counts, self.topic_counts
        word_rows, denominators, scalar = self.word_rows, self.denominators, self.scalar
        buffer = np.empty(len(topic_counts))
        draws = iter(rng.random(self.n_tokens).tolist())
        allowed = self.allowed or [None] * len(self.docs)

        for doc, z, counts, choices in zip(self.docs, self.topics, self.doc_counts, allowed):
            factors = np.array(counts, dtype=float) + alpha
            if scalar:
                factors = factors.tolist()
            if choices is not None:
                choice_list = choices.tolist()
            # The count moves are written out, not called: with a few
            # topics a call per move costs a tenth of the step.
            for i, w in enumerate(doc):
                count_row, factor_row = word_counts[w], word_rows[w]
                topic = z[i]
                count = counts[topic] - 1
                counts[topic] = count
                factors[topic] = count + alpha
                count = count_row[topic] - 1
                count_row[topic] = count
                factor_row[topic] = count + beta
                count = topic_counts[topic] - 1
                topic_counts[topic] = count
                denominators[topic] = count + v_beta
                if not scalar:
                    np.multiply(factors, factor_row, buffer)
                    np.divide(buffer, denominators, buffer)
                    topic = draw_index(
                        buffer if choices is None else buffer[choices], next(draws), model
                    )
                elif choices is None:
                    weights = list(map(truediv, map(mul, factors, factor_row), denominators))
                    topic = draw_scalar(weights, next(draws), model)
                else:
                    weights = [factors[c] * factor_row[c] / denominators[c] for c in choice_list]
                    topic = draw_scalar(weights, next(draws), model)
                if choices is not None:
                    topic = choice_list[topic]
                z[i] = topic
                count = counts[topic] + 1
                counts[topic] = count
                factors[topic] = count + alpha
                count = count_row[topic] + 1
                count_row[topic] = count
                factor_row[topic] = count + beta
                count = topic_counts[topic] + 1
                topic_counts[topic] = count
                denominators[topic] = count + v_beta

    def phi(self) -> np.ndarray:
        """Topic-word distributions (K x V) under the current counts."""
        word_factors, denominators = self._factors()
        return np.ascontiguousarray((word_factors / denominators).T)

    def count_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(n_dk, n_kw, n_k)`` as float arrays (D x K, K x V, K)."""
        k = len(self.topic_counts)
        return (
            np.array(self.doc_counts, dtype=float).reshape(len(self.docs), k),
            np.array(self.word_counts, dtype=float).reshape(-1, k).T,
            np.array(self.topic_counts, dtype=float),
        )


@dataclass(frozen=True)
class FoldIn:
    """One document's Gibbs fold-in against frozen topic-word weights.

    Row ``i`` of ``columns`` (tokens x topics) holds every topic's
    weight for the document's ``i``-th token -- ``φ[:, w_i]`` for LDA.
    ``prior`` is added to the document's topic counts: a scalar ``α`` or
    one value per topic.
    """

    columns: np.ndarray
    prior: float | np.ndarray


def fold_in(
    folds: Sequence[FoldIn],
    rngs: Sequence[np.random.Generator],
    iterations: int,
    model: str,
) -> list[np.ndarray]:
    """Topic counts of each document after ``iterations`` fold-in sweeps.

    Each sweep resamples every token ``i`` in order from
    ``(n_k + prior) * columns[i]``, where ``n_k`` are the document's
    topic counts without that token: collapsed Gibbs with the
    topic-word weights frozen. Document ``d`` draws from ``rngs[d]`` (the
    same generator may repeat), up front and in document order:
    ``integers(K, n)`` for the initial topics, then
    ``random(iterations * n)``, one uniform per token and sweep. That is
    the stream a sampler drawing each uniform as it goes would use, so
    the counts do not depend on how documents are batched.

    With the weights frozen, documents are independent, so from
    :data:`MIN_BATCH` documents on, token position ``i`` of every
    document still that long is sampled in one numpy step; the weight,
    sum, cumulative-sum and compare arithmetic is the same as for a lone
    document (on numpy or, up to :data:`SCALAR_TOPICS` topics, on
    Python floats), so every path gives identical counts. A zero-weight
    row draws uniformly with its token's uniform; weights that are not
    finite and non-negative raise :class:`SamplingWeightsError` naming
    ``model``.
    """
    if len(folds) >= MIN_BATCH:
        return _fold_batch(folds, rngs, iterations, model)
    draws = [_draw(fold, rng, iterations) for fold, rng in zip(folds, rngs)]
    return [
        _fold_one(fold, topics, uniforms, iterations, model)
        for fold, (topics, uniforms) in zip(folds, draws)
    ]


def _draw(
    fold: FoldIn, rng: np.random.Generator, iterations: int
) -> tuple[np.ndarray, np.ndarray]:
    """One document's initial topics and its uniforms, one per token and sweep."""
    tokens, k = fold.columns.shape
    return rng.integers(k, size=tokens), rng.random(iterations * tokens)


def _check_weights(
    columns: np.ndarray, prior: float | np.ndarray, tokens: int, model: str
) -> None:
    """Raise unless every fold-in weight and row total is finite and >= 0.

    A weight is ``(count + prior) * column`` with ``count <= tokens``, so
    non-negative inputs with a finite bound on the row total cannot
    produce a non-finite row.
    """
    if columns.size == 0:
        return
    bound = columns.shape[-1] * (tokens + np.max(prior)) * columns.max()
    if not (columns.min() >= 0.0 and np.min(prior) >= 0.0 and bound < math.inf):
        raise SamplingWeightsError(
            f"{model} fold-in weights must be finite and non-negative"
        )


def _fold_one(
    fold: FoldIn, topics: np.ndarray, uniforms: np.ndarray, iterations: int, model: str
) -> np.ndarray:
    """:func:`fold_in` for one document, one token at a time.

    Up to :data:`SCALAR_TOPICS` topics the step runs on Python floats:
    ``counts + prior`` is kept as a list and only the entry whose count
    moved is recomputed, the total is :func:`pairwise_total` and the
    draw bisects the running sum, as :func:`draw_scalar` does. Those are
    numpy's values bit for bit, and bisecting a non-decreasing CDF
    counts the entries below the target, so both steps give the same
    counts.
    """
    columns = fold.columns
    k = columns.shape[1]
    _check_weights(columns, fold.prior, len(topics), model)
    prior = np.zeros(k) + fold.prior
    assigned = topics.tolist()
    draws = iter(uniforms.tolist())
    last = k - 1
    if k <= SCALAR_TOPICS:
        prior = prior.tolist()
        count_list = np.bincount(topics, minlength=k).tolist()
        smoothed = list(map(add, count_list, prior))
        rows = columns.tolist()
        for _ in range(iterations):
            for i, row in enumerate(rows):
                topic = assigned[i]
                count = count_list[topic] - 1
                count_list[topic] = count
                smoothed[topic] = count + prior[topic]
                weights = list(map(mul, smoothed, row))
                total = pairwise_total(weights)
                uniform = next(draws)
                if total > 0.0:
                    topic = bisect_left(list(accumulate(weights[:last])), uniform * total)
                else:
                    topic = min(int(uniform * k), last)
                assigned[i] = topic
                count = count_list[topic] + 1
                count_list[topic] = count
                smoothed[topic] = count + prior[topic]
        return np.array(count_list, dtype=float)
    counts = np.bincount(topics, minlength=k).astype(float)
    rows = list(columns)
    for _ in range(iterations):
        for i, row in enumerate(rows):
            topic = assigned[i]
            counts[topic] -= 1
            weights = (counts + prior) * row
            total = float(np.add.reduce(weights))
            uniform = next(draws)
            if total > 0.0:
                # Inverse CDF, as in draw_index; leaving the last CDF
                # entry out keeps a rounding overshoot on the last topic.
                cdf = np.add.accumulate(weights[:last])
                topic = int(np.count_nonzero(cdf < uniform * total))
            else:
                topic = min(int(uniform * k), last)
            assigned[i] = topic
            counts[topic] += 1
    return counts


def _fold_batch(
    folds: Sequence[FoldIn],
    rngs: Sequence[np.random.Generator],
    iterations: int,
    model: str,
) -> list[np.ndarray]:
    """:func:`fold_in` for a batch, one token position at a time.

    The arrays hold real tokens only, position-major: with documents
    in slots sorted longest first, the documents still sampling at
    token position ``t`` fill the first ``active[t]`` slots, and their
    tokens are rows ``starts[t]`` to ``starts[t] + active[t]``. Memory
    then grows with the batch's tokens, not with its longest document
    times its documents. Each document's draws are taken in document
    order, and each array is filled by one scatter of every document's
    values to its tokens' rows (the weights :data:`SCATTER_DOCS`
    documents at a time).
    """
    lengths = np.array([fold.columns.shape[0] for fold in folds])
    order = np.argsort(-lengths, kind="stable")
    slots = np.argsort(order)
    batch, longest, k = len(folds), int(lengths[order[0]]), folds[0].columns.shape[1]
    active = (lengths > np.arange(longest)[:, None]).sum(axis=1)
    starts = np.concatenate(([0], np.cumsum(active)))
    tokens = int(starts[-1])
    # Each document's tokens' rows, documents in input order.
    ends = np.cumsum(lengths)
    position = np.arange(tokens) - np.repeat(ends - lengths, lengths)
    rows = starts[position] + np.repeat(slots, lengths)
    draws = [_draw(fold, rng, iterations) for fold, rng in zip(folds, rngs)]
    columns = np.empty((tokens, k))
    # A group of documents at a time, so their concatenated weights are
    # the only copy beside the fold-ins' and this array.
    bounds = [0, *ends.tolist()]
    for lo in range(0, batch, SCATTER_DOCS):
        hi = min(lo + SCATTER_DOCS, batch)
        columns[rows[bounds[lo] : bounds[hi]]] = np.concatenate(
            [fold.columns for fold in folds[lo:hi]]
        )
    uniforms = np.empty((iterations, tokens, 1))
    uniforms[:, rows, 0] = np.concatenate(
        [drawn.reshape(iterations, n) for (_, drawn), n in zip(draws, lengths.tolist())],
        axis=1,
    )
    # Each token's topic, stored as its flat index into counts.
    offsets = np.arange(batch) * k
    cells = np.empty(tokens, dtype=np.intp)
    cells[rows] = np.concatenate([topics for topics, _ in draws]) + np.repeat(
        offsets[slots], lengths
    )
    counts = np.bincount(cells, minlength=batch * k).astype(float).reshape(batch, k)
    priors = np.empty((batch, k))
    for fold, slot in zip(folds, slots.tolist()):
        priors[slot] = fold.prior
    _check_weights(columns, priors, longest, model)
    flat = counts.reshape(-1)
    # The CDF's last column stays +inf, so the first entry not below the
    # uniform (argmin of the comparison) never passes the last topic.
    cdf = np.empty((batch, k))
    cdf[:, -1] = np.inf
    steps = [
        (start, start + a, a, offsets[:a], counts[:a], priors[:a],
         columns[start:start + a], cdf[:a], cells[start:start + a])
        for start, a in zip(starts.tolist(), active.tolist())
    ]
    for sweep in uniforms:
        for start, stop, a, offset, count, prior, column, cdf_a, cell in steps:
            flat[cell] -= 1
            weights = (count + prior) * column
            total = np.add.reduce(weights, 1, keepdims=True)
            np.add.accumulate(weights[:, :-1], 1, out=cdf_a[:, :-1])
            uniform = sweep[start:stop]
            topic = (cdf_a < uniform * total).argmin(1)
            if np.count_nonzero(total) < a:
                zero = total[:, 0] == 0.0
                topic[zero] = np.minimum((uniform[zero, 0] * k).astype(np.intp), k - 1)
            np.add(topic, offset, out=cell)
            flat[cell] += 1
    return [counts[slot] for slot in slots]


def sample_crp_tables(n_customers: int, concentration: float, rng: np.random.Generator) -> int:
    """Sample the table count for ``n_customers`` in a CRP.

    In a Chinese Restaurant Process with concentration ``a``, customer
    ``i`` (1-based) opens a new table with probability ``a / (a + i - 1)``.
    The sum of those Bernoulli draws is the Antoniak-distributed number of
    occupied tables; HDP resamples its per-document table counts this way.
    """
    if n_customers <= 0:
        return 0
    if concentration <= 0.0:
        return 1
    i = np.arange(n_customers, dtype=float)
    probs = concentration / (concentration + i)
    return int((rng.random(n_customers) < probs).sum())
