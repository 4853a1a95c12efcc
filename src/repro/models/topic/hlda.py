"""Hierarchical LDA over a nested Chinese Restaurant Process.

HLDA (Blei et al. 2003) organises topics in an ``L``-level tree: broad
topics near the root, specific ones at the leaves. Every document is a
root-to-leaf path plus a distribution over the ``L`` levels of that path;
each word is generated by the topic at its assigned level. The tree's
branching is data-driven through the nested CRP with parameter ``γ``;
the number of levels is fixed (paper: 3).

Gibbs sampling alternates two moves per document:

1. **path resampling** -- remove the document's word counts from its
   path, score every candidate path (existing leaves plus a new branch at
   every internal node) by nCRP prior x Dirichlet-multinomial marginal
   likelihood of the document's per-level word counts, sample one, and
   re-add the counts;
2. **level resampling** -- per-token Gibbs over the ``L`` levels with a
   ``Dir(α)`` prior over levels, as in the paper's plate diagram.

Document representations live in the space of *tree nodes*: a document's
distribution is supported on the ``L`` nodes of its path. At inference
time the tree is frozen (no new branches) and held-out documents pick
among existing paths.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.models.topic.base import TopicModel
from repro.models.topic.gibbs import FoldIn, notify_iteration, sample_index

__all__ = ["HldaModel"]


@dataclass
class _Node:
    """One restaurant/topic in the nCRP tree."""

    node_id: int
    level: int
    parent: "_Node | None"
    children: list["_Node"] = field(default_factory=list)
    n_docs: int = 0
    word_counts: dict[int, float] = field(default_factory=dict)
    total_count: float = 0.0

    def add_words(self, counts: dict[int, int]) -> None:
        for w, c in counts.items():
            self.word_counts[w] = self.word_counts.get(w, 0.0) + c
            self.total_count += c

    def remove_words(self, counts: dict[int, int]) -> None:
        for w, c in counts.items():
            remaining = self.word_counts.get(w, 0.0) - c
            if remaining <= 1e-9:
                self.word_counts.pop(w, None)
            else:
                self.word_counts[w] = remaining
            self.total_count -= c
        if self.total_count < 0:
            self.total_count = 0.0


@dataclass(frozen=True)
class _PathFoldIn(FoldIn):
    """A document's fold-in over the levels of its chosen tree path."""

    path: list[int]


class HldaModel(TopicModel):
    """**HLDA** -- hierarchical LDA with a fixed number of levels.

    Parameters
    ----------
    levels:
        Tree depth ``L`` (paper: 3).
    alpha:
        Dirichlet prior over the ``L`` levels (paper grid: {10, 20}).
    beta:
        Topic-word Dirichlet prior (paper grid: {0.1, 0.5}).
    gamma:
        nCRP concentration controlling branching (paper grid: {0.5, 1.0}).
    """

    name = "HLDA"

    def __init__(
        self,
        levels: int = 3,
        alpha: float = 10.0,
        beta: float = 0.1,
        gamma: float = 1.0,
        **kwargs,
    ):
        super().__init__(**kwargs)
        if levels < 1:
            raise ConfigurationError(f"levels must be >= 1, got {levels}")
        if min(alpha, beta, gamma) <= 0:
            raise ConfigurationError("alpha, beta and gamma must all be > 0")
        self.levels = levels
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self._root: _Node | None = None
        self._n_nodes = 0
        self._node_phi: np.ndarray | None = None  # nodes x V, frozen at end of fit
        self._paths_matrix: list[list[int]] = []  # node ids of each leaf path

    @property
    def n_topics(self) -> int:
        """Number of tree nodes (each node is one topic)."""
        return self._n_nodes

    # -- tree helpers --------------------------------------------------------

    def _new_node(self, level: int, parent: _Node | None) -> _Node:
        node = _Node(node_id=self._n_nodes, level=level, parent=parent)
        self._n_nodes += 1
        if parent is not None:
            parent.children.append(node)
        return node

    def _candidate_paths(self, allow_new: bool) -> Iterator[tuple[list[_Node | None], float]]:
        """Yield (path, log nCRP prior) pairs.

        A path element of ``None`` denotes "create a new node here"; once
        a path goes new it stays new below that point (a fresh branch).
        """
        assert self._root is not None

        def walk(node: _Node, level: int, log_prior: float, prefix: list[_Node | None]):
            if level == self.levels - 1:
                yield prefix + [], log_prior
                return
            denom = node.n_docs - 1 + self.gamma
            if denom <= 0:
                denom = self.gamma
            for child in node.children:
                weight = child.n_docs / denom if child.n_docs > 0 else self.gamma / denom
                if weight <= 0:
                    continue
                yield from walk(
                    child, level + 1, log_prior + math.log(weight), prefix + [child]
                )
            if allow_new:
                # One fresh branch: all remaining levels are new nodes.
                new_tail: list[_Node | None] = [None] * (self.levels - 1 - level)
                yield prefix + new_tail, log_prior + math.log(self.gamma / denom)

        for path, lp in walk(self._root, 0, 0.0, [self._root]):
            yield path, lp

    def _path_log_likelihood(
        self, path: Sequence[_Node | None], level_counts: list[dict[int, int]], vocab_size: int
    ) -> float:
        """Dirichlet-multinomial marginal likelihood of the document's
        per-level word counts under the candidate path."""
        beta = self.beta
        v_beta = vocab_size * beta
        total = 0.0
        for level, counts in enumerate(level_counts):
            if not counts:
                continue
            node = path[level]
            node_total = node.total_count if node is not None else 0.0
            node_words = node.word_counts if node is not None else {}
            doc_total = sum(counts.values())  # repro: allow[RPR002] -- integer token counts: addition is exact
            total += math.lgamma(node_total + v_beta)
            total -= math.lgamma(node_total + doc_total + v_beta)
            for w, c in counts.items():
                existing = node_words.get(w, 0.0)
                total += math.lgamma(existing + c + beta) - math.lgamma(existing + beta)
        return total

    # -- training -------------------------------------------------------------

    def _train(self, docs: list[list[int]], raw_docs: list[Sequence[str]]) -> None:
        vocab_size = len(self.vocabulary)
        rng = self._rng

        self._n_nodes = 0
        self._root = self._new_node(0, None)

        paths: list[list[_Node]] = []
        levels: list[np.ndarray] = []

        # Initialisation: every document walks the nCRP and gets random levels.
        for doc in docs:
            path = self._sample_initial_path(rng)
            z = rng.integers(self.levels, size=len(doc))
            paths.append(path)
            levels.append(z)
            for node in path:
                node.n_docs += 1
            self._add_doc_counts(path, doc, z)

        for iteration in range(self.iterations):
            for d, doc in enumerate(docs):
                if not doc:
                    continue
                path, z = paths[d], levels[d]
                level_counts = self._level_counts(doc, z)

                # 1. resample the path
                self._remove_doc_counts(path, level_counts)
                for node in path:
                    node.n_docs -= 1
                log_scores: list[float] = []
                candidates: list[list[_Node | None]] = []
                for cand, log_prior in self._candidate_paths(allow_new=True):
                    candidates.append(cand)
                    log_scores.append(
                        log_prior + self._path_log_likelihood(cand, level_counts, vocab_size)
                    )
                scores = np.exp(np.array(log_scores) - max(log_scores))
                chosen = candidates[sample_index(scores, rng)]
                path = self._materialise(chosen)
                paths[d] = path
                for node in path:
                    node.n_docs += 1
                self._add_doc_counts_from_levels(path, level_counts)

                # 2. resample the levels
                n_dl = np.zeros(self.levels)
                for level in z:
                    n_dl[level] += 1
                v_beta = vocab_size * self.beta
                for i, w in enumerate(doc):
                    level = z[i]
                    n_dl[level] -= 1
                    path[level].remove_words({w: 1})
                    weights = np.empty(self.levels)
                    for l in range(self.levels):
                        node = path[l]
                        weights[l] = (n_dl[l] + self.alpha) * (
                            (node.word_counts.get(w, 0.0) + self.beta)
                            / (node.total_count + v_beta)
                        )
                    level = sample_index(weights, rng)
                    z[i] = level
                    n_dl[level] += 1
                    path[level].add_words({w: 1})

            self._prune_empty()
            notify_iteration(
                self.iteration_hook, self.name, iteration + 1, self.iterations
            )

        self._freeze(vocab_size)

    def _sample_initial_path(self, rng: np.random.Generator) -> list[_Node]:
        assert self._root is not None
        path = [self._root]
        node = self._root
        for level in range(1, self.levels):
            denom = node.n_docs + self.gamma
            weights = [child.n_docs / denom for child in node.children]
            weights.append(self.gamma / denom)
            choice = sample_index(np.array(weights), rng)
            if choice == len(node.children):
                node = self._new_node(level, node)
            else:
                node = node.children[choice]
            path.append(node)
        return path

    def _level_counts(self, doc: list[int], z: np.ndarray) -> list[dict[int, int]]:
        counts: list[dict[int, int]] = [dict() for _ in range(self.levels)]
        for w, level in zip(doc, z):
            bucket = counts[level]
            bucket[w] = bucket.get(w, 0) + 1
        return counts

    def _add_doc_counts(self, path: list[_Node], doc: list[int], z: np.ndarray) -> None:
        self._add_doc_counts_from_levels(path, self._level_counts(doc, z))

    def _add_doc_counts_from_levels(
        self, path: list[_Node], level_counts: list[dict[int, int]]
    ) -> None:
        for level, counts in enumerate(level_counts):
            if counts:
                path[level].add_words(counts)

    def _remove_doc_counts(
        self, path: list[_Node], level_counts: list[dict[int, int]]
    ) -> None:
        for level, counts in enumerate(level_counts):
            if counts:
                path[level].remove_words(counts)

    def _materialise(self, path: list[_Node | None]) -> list[_Node]:
        """Replace ``None`` placeholders with freshly created nodes."""
        real: list[_Node] = []
        for level, node in enumerate(path):
            if node is None:
                node = self._new_node(level, real[-1])
            real.append(node)
        return real

    def _prune_empty(self) -> None:
        """Drop leaf branches that no document passes through any more."""
        assert self._root is not None

        def prune(node: _Node) -> None:
            for child in list(node.children):
                prune(child)
            node.children = [c for c in node.children if c.n_docs > 0 or c.children]

        prune(self._root)

    def _freeze(self, vocab_size: int) -> None:
        """Re-index surviving nodes densely and snapshot per-node phi."""
        assert self._root is not None
        nodes: list[_Node] = []

        def collect(node: _Node) -> None:
            nodes.append(node)
            for child in node.children:
                collect(child)

        collect(self._root)
        for new_id, node in enumerate(nodes):
            node.node_id = new_id
        self._n_nodes = len(nodes)

        v_beta = vocab_size * self.beta
        phi = np.full((len(nodes), vocab_size), self.beta)
        for node in nodes:
            for w, c in node.word_counts.items():
                phi[node.node_id, w] += c
        phi /= phi.sum(axis=1, keepdims=True)
        self._node_phi = phi

        self._paths_matrix = []

        def leaf_paths(node: _Node, prefix: list[int]) -> None:
            prefix = prefix + [node.node_id]
            if node.level == self.levels - 1 or not node.children:
                # Short branches are padded by repeating the last node so
                # every stored path has exactly `levels` entries.
                padded = prefix + [prefix[-1]] * (self.levels - len(prefix))
                self._paths_matrix.append(padded)
                return
            for child in node.children:
                leaf_paths(child, prefix)

        leaf_paths(self._root, [])

    # -- inference --------------------------------------------------------------

    def _infer(self, doc: list[int]) -> np.ndarray | FoldIn:
        if self._node_phi is None:
            raise NotFittedError("HldaModel.fit was never called")
        if not doc or not self._paths_matrix:
            return self._uniform_theta()
        phi = self._node_phi

        # Pick the path with the highest likelihood under a uniform level mix,
        # then estimate the level distribution by fold-in Gibbs on that path.
        word_ids = np.array(doc)
        best_path: list[int] | None = None
        best_score = -np.inf
        for path in self._paths_matrix:
            level_phi = phi[path][:, word_ids]  # L x N
            score = float(np.log(level_phi.mean(axis=0) + 1e-12).sum())
            if score > best_score:
                best_score = score
                best_path = path
        assert best_path is not None
        return _PathFoldIn(phi[best_path][:, doc].T, self.alpha, best_path)

    def _theta(self, fold: FoldIn, counts: np.ndarray) -> np.ndarray:
        assert isinstance(fold, _PathFoldIn)
        theta = np.zeros(self._n_nodes)
        level_mix = (counts + self.alpha) / (counts.sum() + self.levels * self.alpha)
        for level, node_id in enumerate(fold.path):
            theta[node_id] += level_mix[level]
        return theta

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info.update(levels=self.levels, alpha=self.alpha, beta=self.beta, gamma=self.gamma)
        return info
