"""N-gram graph representation models: TNG and CNG.

An n-gram graph (Giannakopoulos et al., TSLP 2008) represents a document
as an undirected weighted graph: one vertex per distinct n-gram, an edge
between every pair of n-grams that co-occur within a window of ``n``
consecutive n-grams, edge weight = co-occurrence frequency. The weighted
edges capture *global* context, beyond the local context encoded inside
each n-gram.

User models are built with the *update operator* (Giannakopoulos &
Palpanas, 2010): graphs are merged one by one, and each common edge's
weight moves towards the incoming weight with a learning factor
``1 / i`` for the ``i``-th merged graph -- i.e. the user graph holds the
running average of the document edge weights, and the union of their
edge sets.

Similarity measures (paper Section 3.2): containment (CoS), value (VS)
and normalized value (NS) similarity.
"""

from __future__ import annotations

import enum
import weakref
from collections.abc import Callable, Iterator, Sequence
from typing import Any

from repro.errors import ConfigurationError, ValidationError
from repro.models.base import Doc, ProfileState, RepresentationModel
from repro.text.ngrams import char_ngrams, token_ngrams

__all__ = [
    "NGramGraph",
    "GraphProfileState",
    "GraphSimilarity",
    "containment_similarity",
    "value_similarity",
    "normalized_value_similarity",
    "TokenNGramGraphModel",
    "CharacterNGramGraphModel",
]

Edge = tuple[str, str]

_LOW = (1 << 32) - 1


def _pack(ia: int, ib: int) -> int:
    """The key of the edge between grams ``ia`` and ``ib``."""
    return ia << 32 | ib if ia <= ib else ib << 32 | ia


class _GramTable:
    """N-gram ids in first-seen order, and the grams by id.

    An edge is keyed by one int, ``lo << 32 | hi`` over its two ids
    (smaller id high), so building, merging and comparing graphs hash
    ints instead of string tuples. Ids stay inside this module: edges
    leave it as string pairs.
    """

    __slots__ = ("ids", "grams", "__weakref__")

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.grams: list[str] = []

    def intern(self, grams: Sequence[str]) -> list[int]:
        """The ids of ``grams``, numbering unseen ones in first-seen order."""
        ids = self.ids
        try:  # Most documents hold only grams seen before.
            return [ids[gram] for gram in grams]
        except KeyError:
            pass
        known = self.grams
        for gram in grams:
            if gram not in ids:
                ids[gram] = len(known)
                known.append(gram)
        return [ids[gram] for gram in grams]

    def key(self, a: str, b: str) -> int | None:
        """The key of edge ``{a, b}``, or None if either gram is unseen."""
        ia, ib = self.ids.get(a), self.ids.get(b)
        return None if ia is None or ib is None else _pack(ia, ib)

    def decode(self, key: int) -> Edge:
        """The canonical ``(a, b)``, ``a <= b``, string pair of an edge key."""
        a, b = self.grams[key >> 32], self.grams[key & _LOW]
        return (a, b) if a <= b else (b, a)


# The live table, held weakly. Every graph holds the table its keys
# index, so all live graphs share one table, and its grams are freed
# with the last graph that uses them instead of living as long as the
# process. Not thread-safe: graphs are built on one thread per process
# (parallel sweeps use worker processes). Ids never leave this module
# (edges() and pickles carry strings), so every worker's table may differ.
_live_table: weakref.ref[_GramTable] | None = None


def _table() -> _GramTable:
    global _live_table
    table = _live_table() if _live_table is not None else None
    if table is None:
        table = _GramTable()
        _live_table = weakref.ref(table)
    return table


def _merge_into(edges: dict[int, float], other: dict[int, float], learning_factor: float) -> None:
    """Apply the update operator (see :meth:`NGramGraph.updated`) to ``edges`` in place."""
    if not 0.0 < learning_factor <= 1.0:
        raise ValidationError(f"learning factor must be in (0, 1], got {learning_factor}")
    get = edges.get
    for key, w_other in other.items():
        w_self = get(key, 0.0)
        edges[key] = w_self + (w_other - w_self) * learning_factor


class NGramGraph:
    """An undirected weighted graph over n-grams.

    Stored as a ``dict`` from packed edge key to weight; vertices are
    implicit (the n-grams appearing in at least one edge). ``|G|`` --
    the graph *size* used by every similarity measure -- is the number
    of edges, as in the source papers. The public surface speaks in
    string pairs; pickles carry string pairs too, because another
    process, or a later table in this one, numbers its n-grams in its
    own order.
    """

    __slots__ = ("_edges", "_table")

    def __init__(self, edges: dict[Edge, float] | None = None):
        table = self._table = _table()
        self._edges: dict[int, float] = {}
        for (a, b), weight in (edges or {}).items():
            self._edges[_pack(*table.intern((a, b)))] = weight

    @classmethod
    def _adopt(cls, edges: dict[int, float], table: _GramTable) -> "NGramGraph":
        """Wrap an edge-key dict over ``table`` without copying it."""
        graph = cls.__new__(cls)
        graph._edges = edges
        graph._table = table
        return graph

    @classmethod
    def from_ngrams(cls, grams: Sequence[str], window: int) -> "NGramGraph":
        """Build a document graph from an n-gram sequence.

        Each n-gram is connected to the n-grams at distance 1..window in
        the sequence; every co-occurrence increments the edge weight by 1.
        Self-loops (an n-gram co-occurring with an identical n-gram) are
        kept -- they carry repetition information.
        """
        if window < 1:
            raise ValidationError(f"window must be >= 1, got {window}")
        table = _table()
        ids = table.intern(grams)
        edges: dict[int, float] = {}
        get = edges.get
        for i, a in enumerate(ids, start=1):
            for b in ids[i : i + window]:
                key = a << 32 | b if a <= b else b << 32 | a  # _pack, inlined
                edges[key] = get(key, 0.0) + 1.0
        return cls._adopt(edges, table)

    # -- mapping-ish surface -------------------------------------------------

    def weight(self, a: str, b: str) -> float:
        key = self._table.key(a, b)
        return 0.0 if key is None else self._edges.get(key, 0.0)

    def edges(self) -> Iterator[tuple[Edge, float]]:
        """``((a, b), weight)`` pairs, ``a <= b``, in insertion order."""
        decode = self._table.decode
        return ((decode(key), weight) for key, weight in self._edges.items())

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: Edge) -> bool:
        key = self._table.key(*edge)
        return key is not None and key in self._edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NGramGraph):
            return NotImplemented
        return self._edges == other._edges

    def __reduce__(self) -> tuple[Any, ...]:
        return (NGramGraph, (dict(self.edges()),))

    def __repr__(self) -> str:
        return f"NGramGraph({len(self)} edges)"

    # -- update operator -------------------------------------------------

    def updated(self, other: "NGramGraph", learning_factor: float) -> "NGramGraph":
        """Return this graph merged with ``other`` by the update operator.

        Common edges move towards the incoming weight:
        ``w = w_self + (w_other - w_self) * learning_factor``; edges only
        in ``other`` are adopted scaled by the learning factor applied to
        a zero prior, i.e. ``w = w_other * learning_factor``; edges only
        in ``self`` are kept unchanged.
        """
        merged = dict(self._edges)
        _merge_into(merged, other._edges, learning_factor)
        return NGramGraph._adopt(merged, self._table)

    @classmethod
    def merge_all(cls, graphs: Sequence["NGramGraph"]) -> "NGramGraph":
        """Merge document graphs into a user graph via the update operator.

        The ``i``-th graph (1-based) is merged with learning factor
        ``1 / i``, so the result holds running-average edge weights.
        """
        edges: dict[int, float] = {}
        for i, graph in enumerate(graphs, start=1):
            _merge_into(edges, graph._edges, 1.0 / i)
        return cls._adopt(edges, _table())


# -- similarity measures ------------------------------------------------------


class GraphSimilarity(str, enum.Enum):
    """Graph-model similarity measures."""

    CONTAINMENT = "CoS"
    VALUE = "VS"
    NORMALIZED_VALUE = "NS"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _edge_dicts(g1: NGramGraph, g2: NGramGraph) -> tuple[dict[int, float], dict[int, float]]:
    """The (smaller, larger) graph's edge dicts; keys are canonical in both."""
    return (g1._edges, g2._edges) if len(g1) <= len(g2) else (g2._edges, g1._edges)


def containment_similarity(g1: NGramGraph, g2: NGramGraph) -> float:
    """CoS: fraction of shared edges, normalised by the smaller graph."""
    if len(g1) == 0 or len(g2) == 0:
        return 0.0
    small, large = _edge_dicts(g1, g2)
    return len(small.keys() & large.keys()) / len(small)


def _value_overlap(g1: NGramGraph, g2: NGramGraph) -> float:
    """Sum of ``min/max`` weight ratios over the edges both graphs share.

    Iterates the smaller graph in insertion order: the float sum's order
    is part of the result.
    """
    small, large = _edge_dicts(g1, g2)
    get = large.get
    total = 0.0
    for edge, w_small in small.items():
        w_large = get(edge, 0.0)
        if w_large > 0.0 and w_small > 0.0:
            total += w_small / w_large if w_small < w_large else w_large / w_small
    return total


def value_similarity(g1: NGramGraph, g2: NGramGraph) -> float:
    """VS: weight-aware overlap, normalised by the larger graph."""
    if len(g1) == 0 or len(g2) == 0:
        return 0.0
    return _value_overlap(g1, g2) / max(len(g1), len(g2))


def normalized_value_similarity(g1: NGramGraph, g2: NGramGraph) -> float:
    """NS: like VS but normalised by the *smaller* graph.

    Mitigates the imbalance between a large user graph and a small tweet
    graph, which drives VS towards 0.
    """
    if len(g1) == 0 or len(g2) == 0:
        return 0.0
    return _value_overlap(g1, g2) / min(len(g1), len(g2))


_GRAPH_SIMILARITIES = {
    GraphSimilarity.CONTAINMENT: containment_similarity,
    GraphSimilarity.VALUE: value_similarity,
    GraphSimilarity.NORMALIZED_VALUE: normalized_value_similarity,
}


# -- the models ----------------------------------------------------------------


class GraphProfileState(ProfileState):
    """Incremental n-gram-graph profile for the graph family.

    The running user graph folds each positive document graph with
    learning factor ``1 / i`` for the ``i``-th contribution -- the exact
    sequence of update-operator steps that :meth:`NGramGraph.merge_all`
    performs, so the incremental profile is bit-identical to the batch
    one. The running edge dict is private and merged in place;
    :meth:`value` hands out a copy. The update operator is **not**
    commutative, which is why :class:`~repro.models.base.ProfileState`
    pins the fold order to ``(timestamp, tweet_id)``.

    :meth:`decayed` refolds the retained document graphs with learning
    factor ``w_i / (w_1 + ... + w_i)`` -- the weighted running average;
    all-ones weights reduce to ``1 / i``, i.e. the undecayed profile.

    ``represent`` replaces the model's own :meth:`GraphModel.represent`
    (a pipeline passes its shared representations); the graphs it
    returns are only read, never changed.
    """

    def __init__(
        self,
        model: "GraphModel",
        represent: Callable[[Doc], NGramGraph] | None = None,
    ) -> None:
        super().__init__()
        self._model = model
        self._represent = represent if represent is not None else model.represent
        self._entries: list[tuple[Any, NGramGraph]] = []
        self._edges: dict[int, float] = {}

    def _fold(self, key: Any, doc: Doc, label: int | None) -> None:
        if label is not None and label != 1:
            return
        graph = self._represent(doc)
        self._entries.append((key, graph))
        _merge_into(self._edges, graph._edges, 1.0 / len(self._entries))

    def value(self) -> NGramGraph:
        return NGramGraph._adopt(dict(self._edges), _table())

    def decayed(self, weight_fn: Callable[[Any], float]) -> NGramGraph:
        edges: dict[int, float] = {}
        mass = 0.0
        for key, graph in self._entries:
            weight = weight_fn(key)
            if weight <= 0.0:
                continue
            mass += weight
            _merge_into(edges, graph._edges, weight / mass)
        return NGramGraph._adopt(edges, _table())


class GraphModel(RepresentationModel):
    """Shared machinery for TNG and CNG.

    Parameters
    ----------
    n:
        N-gram size; also the co-occurrence window size, as in the paper
        ("their window size is also n").
    similarity:
        CoS, VS, or NS.
    """

    pure_represent = True

    def __init__(self, n: int, similarity: GraphSimilarity = GraphSimilarity.VALUE):
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        self.n = n
        self.similarity = GraphSimilarity(similarity)
        self._similarity_fn = _GRAPH_SIMILARITIES[self.similarity]

    def extract(self, doc: Doc) -> list[str]:
        raise NotImplementedError

    def fit(self, corpus: Sequence[Doc], user_ids: Sequence[str] | None = None) -> "GraphModel":
        """Graph models need no corpus-level statistics."""
        return self

    def represent(self, doc: Doc) -> NGramGraph:
        return NGramGraph.from_ngrams(self.extract(doc), window=self.n)

    def build_user_model(
        self,
        docs: Sequence[Doc],
        labels: Sequence[int] | None = None,
    ) -> NGramGraph:
        """Merge the (positive) document graphs with the update operator.

        Graph models have no negative-example mechanism; when labels are
        provided, only the positive documents contribute, otherwise all
        documents do.
        """
        return self.init_profile().update(docs, labels=labels).value()

    def init_profile(
        self, represent: Callable[[Doc], NGramGraph] | None = None
    ) -> GraphProfileState:
        return GraphProfileState(self, represent)

    def score(self, user_model: NGramGraph, doc_model: NGramGraph) -> float:
        return self._similarity_fn(user_model, doc_model)

    def describe(self) -> dict[str, object]:
        return {"model": self.name, "n": self.n, "similarity": self.similarity.value}

    def fit_params(self) -> dict[str, object]:
        return {"model": self.name, "n": self.n}


class TokenNGramGraphModel(GraphModel):
    """**TNG** -- token n-gram graphs."""

    name = "TNG"

    def extract(self, doc: Doc) -> list[str]:
        return token_ngrams(list(doc.tokens), self.n)


class CharacterNGramGraphModel(GraphModel):
    """**CNG** -- character n-gram graphs."""

    name = "CNG"

    def extract(self, doc: Doc) -> list[str]:
        return char_ngrams(doc.text, self.n)
