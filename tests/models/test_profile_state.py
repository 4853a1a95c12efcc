"""Tests for the incremental ProfileState protocol across model families.

The contract under test (``repro.models.base.ProfileState``): any
chunking of ``update`` calls yields the same ``value()`` as one batch
call, fold order is pinned to non-decreasing ``(timestamp, tweet_id)``
keys, and ``decayed`` re-weights the retained history without touching
the state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.temporal import TemporalWeighting
from repro.errors import ConfigurationError, ValidationError
from repro.models import (
    CharacterNGramGraphModel,
    CharacterNGramModel,
    HdpModel,
    HldaModel,
    LabeledLdaModel,
    LdaModel,
    TokenNGramGraphModel,
    TokenNGramModel,
)
from repro.models.base import TextDoc

CORPUS = [
    "the cat sat on the mat",
    "the dog chased the cat",
    "a bird flew over the mat",
    "the cat and the dog played",
    "rain fell on the quiet town",
    "the town woke to bird song",
    "dogs and cats share the town",
    "a quiet rain chased the birds",
]


def doc(text: str) -> TextDoc:
    return TextDoc.from_tokens(tuple(text.split()))


DOCS = [doc(t) for t in CORPUS]
KEYS = [(tick, tweet_id) for tick, tweet_id in zip(range(8), range(100, 108))]


def delta(a, b) -> float:
    """Max absolute difference between two profiles of the same family."""
    if isinstance(a, np.ndarray):
        return float(np.max(np.abs(a - b))) if a.shape == b.shape else float("inf")
    if hasattr(a, "edges"):
        a, b = dict(a.edges()), dict(b.edges())
    joint = set(a) | set(b)
    return max((abs(a.get(g, 0.0) - b.get(g, 0.0)) for g in joint), default=0.0)


def fitted_models():
    """One model per family, small enough for unit tests, fitted."""
    lda = LdaModel(
        n_topics=4, pooling="NP", iterations=15, infer_iterations=5, seed=3
    )
    lda.deterministic_inference = True
    models = [
        TokenNGramModel(n=1, weighting="TF", aggregation="sum"),
        TokenNGramModel(n=1, weighting="TF", aggregation="centroid"),
        CharacterNGramModel(n=3, weighting="TF", aggregation="sum"),
        TokenNGramGraphModel(n=2),
        CharacterNGramGraphModel(n=3),
        lda,
    ]
    return [m.fit(DOCS) for m in models]


class TestChunkingParity:
    """Any chunking == one batch call (bit-identical per family)."""

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 8])
    def test_chunked_equals_batch(self, chunk_size):
        for model in fitted_models():
            batch = model.init_profile().update(DOCS, keys=KEYS).value()
            state = model.init_profile()
            for start in range(0, len(DOCS), chunk_size):
                stop = start + chunk_size
                state.update(DOCS[start:stop], keys=KEYS[start:stop])
            assert delta(batch, state.value()) == 0.0, model.name

    def test_value_is_repeatable_and_non_destructive(self):
        for model in fitted_models():
            state = model.init_profile().update(DOCS[:4], keys=KEYS[:4])
            first = state.value()
            assert delta(first, state.value()) == 0.0
            state.update(DOCS[4:], keys=KEYS[4:])
            batch = model.init_profile().update(DOCS, keys=KEYS).value()
            assert delta(batch, state.value()) == 0.0

    def test_matches_build_user_model(self):
        for model in fitted_models():
            built = model.build_user_model(DOCS)
            folded = model.init_profile().update(DOCS, keys=KEYS).value()
            assert delta(built, folded) == 0.0, model.name

    @given(
        st.lists(
            st.integers(min_value=1, max_value=len(DOCS)),
            min_size=1,
            max_size=len(DOCS),
        )
    )
    def test_arbitrary_chunkings_bag_and_graph(self, sizes):
        """Property: every chunk-size sequence reproduces the batch fold."""
        models = [
            TokenNGramModel(n=1, weighting="TF", aggregation="centroid").fit(DOCS),
            TokenNGramGraphModel(n=2).fit(DOCS),
        ]
        for model in models:
            batch = model.init_profile().update(DOCS, keys=KEYS).value()
            state = model.init_profile()
            start = 0
            for size in sizes:
                if start >= len(DOCS):
                    break
                stop = min(start + size, len(DOCS))
                state.update(DOCS[start:stop], keys=KEYS[start:stop])
                start = stop
            state.update(DOCS[start:], keys=KEYS[start:])
            assert delta(batch, state.value()) == 0.0


WORDS = " ".join(CORPUS).split()
#: 24 documents of 1 to 9 tokens, cut from the corpus.
STREAM = [doc(" ".join(WORDS[3 * i: 3 * i + 1 + i % 9])) for i in range(24)]


class TestTopicChunkingParity:
    """A topic update folds its chunk in as one batch; N single-document
    updates must give the same profile, and under the shared RNG leave it
    in the same state."""

    STREAM_KEYS = [(tick, 200 + tick) for tick in range(len(STREAM))]
    SMALL = dict(pooling="NP", iterations=10, infer_iterations=5, seed=3)

    @pytest.mark.parametrize("deterministic", [False, True], ids=["shared-rng", "per-doc-rng"])
    @pytest.mark.parametrize("build", [
        lambda small: LdaModel(n_topics=5, **small),
        lambda small: LabeledLdaModel(n_latent_topics=3, **small),
        lambda small: HdpModel(initial_topics=4, **small),
        lambda small: HldaModel(levels=3, **small),
    ], ids=["LDA", "LLDA", "HDP", "HLDA"])
    def test_one_update_equals_single_document_updates(self, build, deterministic):
        model = build(self.SMALL).fit(DOCS)
        model.deterministic_inference = deterministic
        start = model._rng.bit_generator.state
        batch = model.init_profile().update(STREAM, keys=self.STREAM_KEYS)
        after_batch = model._rng.bit_generator.state
        model._rng.bit_generator.state = start
        state = model.init_profile()
        for d, key in zip(STREAM, self.STREAM_KEYS):
            state.update([d], keys=[key])
        assert np.array_equal(batch.value(), state.value())
        assert model._rng.bit_generator.state == after_batch


class TestFoldOrder:
    def test_chunks_are_sorted_by_key(self):
        model = TokenNGramGraphModel(n=2).fit(DOCS)
        shuffled = [3, 0, 2, 1, 5, 4, 7, 6]
        state = model.init_profile().update(
            [DOCS[i] for i in shuffled], keys=[KEYS[i] for i in shuffled]
        )
        batch = model.init_profile().update(DOCS, keys=KEYS).value()
        assert delta(batch, state.value()) == 0.0

    def test_out_of_order_chunks_rejected(self):
        for model in fitted_models():
            state = model.init_profile().update(DOCS[4:], keys=KEYS[4:])
            with pytest.raises(ValidationError):
                state.update(DOCS[:4], keys=KEYS[:4])

    def test_mismatched_keys_length_rejected(self):
        model = TokenNGramModel(n=1).fit(DOCS)
        with pytest.raises(ValidationError):
            model.init_profile().update(DOCS, keys=KEYS[:-1])

    def test_graph_merge_order_matters(self):
        """Regression: the graph update operator is not commutative.

        If this ever passes with equal graphs, the 1/i learning-factor
        sequence has changed and the canonical fold order is no longer
        load-bearing -- the out-of-order guard would be dead weight.
        """
        model = TokenNGramGraphModel(n=2).fit(DOCS)
        forward = model.init_profile().update(DOCS, keys=KEYS).value()
        backward = (
            model.init_profile()
            .update(list(reversed(DOCS)), keys=KEYS)
            .value()
        )
        assert delta(forward, backward) > 0.0

    def test_positional_order_without_keys(self):
        model = TokenNGramModel(n=1, aggregation="centroid").fit(DOCS)
        batch = model.init_profile().update(DOCS).value()
        state = model.init_profile()
        for d in DOCS:
            state.update([d])
        assert delta(batch, state.value()) == 0.0


class TestDecay:
    def test_all_ones_weights_reproduce_value(self):
        for model in fitted_models():
            state = model.init_profile().update(DOCS, keys=KEYS)
            assert delta(state.value(), state.decayed(lambda key: 1.0)) == 0.0, (
                model.name
            )

    def test_window_drops_old_documents(self):
        """A window covering only the tail equals folding only the tail."""
        model = TokenNGramModel(n=1, weighting="TF", aggregation="sum").fit(DOCS)
        state = model.init_profile().update(DOCS, keys=KEYS)
        window = TemporalWeighting(kind="window", window=3)
        tail_only = model.init_profile().update(DOCS[4:], keys=KEYS[4:]).value()
        assert delta(tail_only, state.decayed(window.weight_fn(KEYS[-1][0]))) == 0.0

    def test_window_drops_old_graph_documents(self):
        model = TokenNGramGraphModel(n=2).fit(DOCS)
        state = model.init_profile().update(DOCS, keys=KEYS)
        window = TemporalWeighting(kind="window", window=3)
        tail_only = model.init_profile().update(DOCS[4:], keys=KEYS[4:]).value()
        assert delta(tail_only, state.decayed(window.weight_fn(KEYS[-1][0]))) == 0.0

    def test_half_life_scales_sum_profiles(self):
        """For sum aggregation the decayed profile is the weighted sum."""
        model = TokenNGramModel(n=1, weighting="TF", aggregation="sum").fit(DOCS)
        state = model.init_profile().update(DOCS, keys=KEYS)
        decay = TemporalWeighting(kind="half-life", half_life=2)
        reference = KEYS[-1][0]
        expected: dict[str, float] = {}
        for (tick, _), d in zip(KEYS, DOCS):
            weight = decay.weight(reference, tick)
            for g, w in model.represent(d).items():
                expected[g] = expected.get(g, 0.0) + weight * w
        got = state.decayed(decay.weight_fn(reference))
        assert delta(expected, got) == pytest.approx(0.0, abs=1e-12)

    def test_decayed_leaves_state_unchanged(self):
        for model in fitted_models():
            state = model.init_profile().update(DOCS, keys=KEYS)
            before = state.value()
            state.decayed(TemporalWeighting(kind="half-life", half_life=1).weight_fn(99))
            assert delta(before, state.value()) == 0.0


class TestLabels:
    def test_rocchio_replays_batch_aggregation(self):
        model = TokenNGramModel(
            n=1, weighting="TF", aggregation="rocchio", similarity="CS"
        ).fit(DOCS)
        labels = [1, 1, 0, 1, 0, 1, 0, 1]
        batch = model.build_user_model(DOCS, labels=labels)
        state = model.init_profile()
        for i in range(0, len(DOCS), 3):
            state.update(DOCS[i : i + 3], labels=labels[i : i + 3], keys=KEYS[i : i + 3])
        assert delta(batch, state.value()) == 0.0

    def test_rocchio_without_labels_rejected(self):
        model = TokenNGramModel(
            n=1, weighting="TF", aggregation="rocchio", similarity="CS"
        ).fit(DOCS)
        state = model.init_profile().update(DOCS, keys=KEYS)
        with pytest.raises(ConfigurationError):
            state.value()

    def test_graph_ignores_negative_documents(self):
        model = TokenNGramGraphModel(n=2).fit(DOCS)
        labels = [1, 0, 1, 0, 1, 0, 1, 0]
        positives = [d for d, label in zip(DOCS, labels) if label == 1]
        positive_keys = [k for k, label in zip(KEYS, labels) if label == 1]
        expected = model.init_profile().update(positives, keys=positive_keys).value()
        got = model.init_profile().update(DOCS, labels=labels, keys=KEYS).value()
        assert delta(expected, got) == 0.0

    def test_labels_length_mismatch_rejected(self):
        model = TokenNGramModel(n=1).fit(DOCS)
        with pytest.raises(ValidationError):
            model.init_profile().update(DOCS, labels=[1, 0])


class TestCount:
    def test_count_tracks_folded_documents(self):
        model = TokenNGramModel(n=1).fit(DOCS)
        state = model.init_profile()
        assert state.count == 0
        state.update(DOCS[:3], keys=KEYS[:3])
        assert state.count == 3
        state.update(DOCS[3:], keys=KEYS[3:])
        assert state.count == len(DOCS)
