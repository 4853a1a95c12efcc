"""Graph parity: the packed-int n-gram graphs against the tuple-keyed ones.

The references below are ``NGramGraph``, ``_value_overlap``,
``containment_similarity`` and ``GraphProfileState`` as they were while
edges were keyed by sorted ``(str, str)`` tuples, every merge copied the
whole graph and every profile fold built a new graph. The rewrite keys
an edge by one int over interned n-gram ids and folds profiles in place;
it must give the same edges with the same weights in the same insertion
order, and therefore the same float sums, for any gram sequence:
repeated grams and self-loops, empty input, windows 1 to 5 and
non-ASCII grams.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import Any

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.models.base import Doc, ProfileState, TextDoc
from repro.models.graph import (
    GraphProfileState,
    NGramGraph,
    TokenNGramGraphModel,
    containment_similarity,
    normalized_value_similarity,
    value_similarity,
)

# -- the references: tuple-keyed graphs -----------------------------------------

Edge = tuple[str, str]


def _ref_edge(a: str, b: str) -> Edge:
    return (a, b) if a <= b else (b, a)


class RefGraph:
    def __init__(self, edges: dict[Edge, float] | None = None):
        self._edges: dict[Edge, float] = dict(edges) if edges else {}

    @classmethod
    def from_ngrams(cls, grams: Sequence[str], window: int) -> "RefGraph":
        edges: dict[Edge, float] = {}
        for i, gram in enumerate(grams):
            for j in range(i + 1, min(i + window + 1, len(grams))):
                key = _ref_edge(gram, grams[j])
                edges[key] = edges.get(key, 0.0) + 1.0
        return cls(edges)

    def __len__(self) -> int:
        return len(self._edges)

    def updated(self, other: "RefGraph", learning_factor: float) -> "RefGraph":
        if not 0.0 < learning_factor <= 1.0:
            raise ValidationError(f"learning factor must be in (0, 1], got {learning_factor}")
        merged = dict(self._edges)
        for key, w_other in other._edges.items():
            w_self = merged.get(key, 0.0)
            merged[key] = w_self + (w_other - w_self) * learning_factor
        return RefGraph(merged)

    @classmethod
    def merge_all(cls, graphs: Sequence["RefGraph"]) -> "RefGraph":
        model = cls()
        for i, graph in enumerate(graphs, start=1):
            model = model.updated(graph, 1.0 / i)
        return model


def _ref_dicts(g1: RefGraph, g2: RefGraph) -> tuple[dict[Edge, float], dict[Edge, float]]:
    return (g1._edges, g2._edges) if len(g1) <= len(g2) else (g2._edges, g1._edges)


def ref_containment(g1: RefGraph, g2: RefGraph) -> float:
    if len(g1) == 0 or len(g2) == 0:
        return 0.0
    small, large = _ref_dicts(g1, g2)
    return sum(1 for edge in small if edge in large) / len(small)


def ref_value_overlap(g1: RefGraph, g2: RefGraph) -> float:
    small, large = _ref_dicts(g1, g2)
    total = 0.0
    for edge, w_small in small.items():
        w_large = large.get(edge, 0.0)
        if w_large > 0.0 and w_small > 0.0:
            total += min(w_small, w_large) / max(w_small, w_large)
    return total


def ref_value(g1: RefGraph, g2: RefGraph) -> float:
    if len(g1) == 0 or len(g2) == 0:
        return 0.0
    return ref_value_overlap(g1, g2) / max(len(g1), len(g2))


def ref_normalized_value(g1: RefGraph, g2: RefGraph) -> float:
    if len(g1) == 0 or len(g2) == 0:
        return 0.0
    return ref_value_overlap(g1, g2) / min(len(g1), len(g2))


class RefProfileState(ProfileState):
    def __init__(self, represent: Callable[[Doc], RefGraph]) -> None:
        super().__init__()
        self._represent = represent
        self._entries: list[tuple[Any, RefGraph]] = []
        self._graph = RefGraph()

    def _fold(self, key: Any, doc: Doc, label: int | None) -> None:
        if label is not None and label != 1:
            return
        graph = self._represent(doc)
        self._entries.append((key, graph))
        self._graph = self._graph.updated(graph, 1.0 / len(self._entries))

    def value(self) -> RefGraph:
        return RefGraph(dict(self._graph._edges))

    def decayed(self, weight_fn: Callable[[Any], float]) -> RefGraph:
        merged = RefGraph()
        mass = 0.0
        for key, graph in self._entries:
            weight = weight_fn(key)
            if weight <= 0.0:
                continue
            mass += weight
            merged = merged.updated(graph, weight / mass)
        return merged


# -- helpers ---------------------------------------------------------------------


def assert_same(graph: NGramGraph, ref: RefGraph) -> None:
    """Same edges, same weights, same insertion order; same lookups."""
    assert list(graph.edges()) == list(ref._edges.items())
    assert NGramGraph(ref._edges) == graph
    for (a, b), weight in ref._edges.items():
        assert graph.weight(b, a) == weight
        assert (b, a) in graph


GRAMS = st.lists(st.text(alphabet="ab é日ß", max_size=3), max_size=24)
WINDOWS = st.integers(min_value=1, max_value=5)
DOCS = st.lists(GRAMS, min_size=1, max_size=6)


def _docs(sequences: list[list[str]]) -> list[TextDoc]:
    return [TextDoc(text="", tokens=tuple(grams)) for grams in sequences]


def _states(window: int) -> tuple[GraphProfileState, RefProfileState]:
    state = GraphProfileState(
        TokenNGramGraphModel(n=window),
        represent=lambda doc: NGramGraph.from_ngrams(list(doc.tokens), window),
    )
    ref = RefProfileState(lambda doc: RefGraph.from_ngrams(list(doc.tokens), window))
    return state, ref


# -- parity ------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(GRAMS, WINDOWS)
def test_document_graph_edges(grams, window):
    assert_same(NGramGraph.from_ngrams(grams, window), RefGraph.from_ngrams(grams, window))


@settings(max_examples=80, deadline=None)
@given(DOCS, WINDOWS, st.floats(min_value=1e-6, max_value=1.0))
def test_updated_and_merge_all(sequences, window, learning_factor):
    graphs = [NGramGraph.from_ngrams(grams, window) for grams in sequences]
    refs = [RefGraph.from_ngrams(grams, window) for grams in sequences]
    assert_same(graphs[0].updated(graphs[-1], learning_factor),
                refs[0].updated(refs[-1], learning_factor))
    assert_same(NGramGraph.merge_all(graphs), RefGraph.merge_all(refs))


@settings(max_examples=80, deadline=None)
@given(DOCS, WINDOWS, st.lists(st.sampled_from([0, 1]), min_size=6, max_size=6),
       st.integers(min_value=1, max_value=6))
def test_incremental_profile_matches_batch(sequences, window, labels, chunk):
    docs = _docs(sequences)
    labels = labels[: len(docs)]
    state, ref = _states(window)
    values = []
    for start in range(0, len(docs), chunk):
        state.update(docs[start : start + chunk], labels=labels[start : start + chunk])
        ref.update(docs[start : start + chunk], labels=labels[start : start + chunk])
        values.append((state.value(), ref.value()))
    # Later folds leave every value handed out earlier as it was.
    for value, ref_value in values:
        assert_same(value, ref_value)
    positives = [grams for grams, label in zip(sequences, labels) if label == 1]
    batch = NGramGraph.merge_all([NGramGraph.from_ngrams(g, window) for g in positives])
    assert list(state.value().edges()) == list(batch.edges())


@settings(max_examples=80, deadline=None)
@given(DOCS, WINDOWS, st.lists(st.floats(min_value=0.0, max_value=5.0, allow_subnormal=False),
                               min_size=6, max_size=6))
def test_decayed_profile(sequences, window, weights):
    state, ref = _states(window)
    state.update(_docs(sequences))
    ref.update(_docs(sequences))
    assert_same(state.decayed(lambda key: weights[key]), ref.decayed(lambda key: weights[key]))
    # Decaying folds into a fresh dict: the running profile is untouched.
    assert_same(state.value(), ref.value())


@settings(max_examples=150, deadline=None)
@given(DOCS, GRAMS, WINDOWS)
# Summing this overlap in the larger graph's order changes the last bit.
@example([["xy", "", "xy"], ["", "x", "", "y", "b"]], ["b", "b", "", "x", ""], 3)
def test_scores(sequences, grams, window):
    user = NGramGraph.merge_all([NGramGraph.from_ngrams(g, window) for g in sequences])
    ref_user = RefGraph.merge_all([RefGraph.from_ngrams(g, window) for g in sequences])
    doc = NGramGraph.from_ngrams(grams, window)
    ref_doc = RefGraph.from_ngrams(grams, window)
    for fn, ref_fn in (
        (containment_similarity, ref_containment),
        (value_similarity, ref_value),
        (normalized_value_similarity, ref_normalized_value),
    ):
        assert fn(user, doc) == ref_fn(ref_user, ref_doc)
        assert fn(doc, user) == ref_fn(ref_doc, ref_user)
