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
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from repro.errors import ConfigurationError, NotFittedError, SamplingWeightsError
from repro.models.topic.base import TopicModel
from repro.models.topic.gibbs import (
    FoldIn,
    draw_index,
    notify_iteration,
    pairwise_total,
)

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
        if not all(math.isfinite(x) and x > 0 for x in (alpha, beta, gamma)):
            raise ConfigurationError("alpha, beta and gamma must all be finite and > 0")
        self.levels = levels
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self._root: _Node | None = None
        self._n_nodes = 0
        self._node_phi: np.ndarray | None = None  # nodes x V, frozen at end of fit
        self._paths_matrix: list[list[int]] = []  # node ids of each leaf path
        self._path_array = np.zeros((0, levels), dtype=np.intp)  # the same, as rows

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

    def _branch_weights(self, node: _Node) -> tuple[list[float], float]:
        """nCRP weights of entering each child of ``node``, and of a new branch.

        The resampled document is already out of ``n_docs``, yet the
        denominator subtracts it again (``n_docs - 1 + γ``; the initial
        path uses ``n_docs + γ``), so the weights sum to
        ``(n + γ) / (n - 1 + γ)``, not 1. Kept: fixing it changes the chain.
        """
        gamma = self.gamma
        denom = node.n_docs - 1 + gamma
        if denom <= 0:
            denom = gamma
        children = [
            child.n_docs / denom if child.n_docs > 0 else gamma / denom
            for child in node.children
        ]
        return children, gamma / denom

    def _path_scores(
        self, level_counts: list[dict[int, int]], vocab_size: int
    ) -> tuple[list[_Node], list[float]]:
        """Log nCRP prior plus log likelihood of every candidate path.

        A candidate is an existing leaf or a fresh branch below an internal
        node, given as its deepest existing node, in depth-first order with
        a node's fresh branch after its children. The likelihood is the
        Dirichlet-multinomial marginal of the document's per-level word
        counts, summed level by level, so one walk of the tree computes each
        node's terms once and hands the running total to its children. An
        empty node's terms (fresh branches, absent words) are computed once
        per level.
        """
        assert self._root is not None
        beta, last = self.beta, self.levels - 1
        v_beta = vocab_size * beta
        lgamma, log = math.lgamma, math.log
        # A level adds lgamma(node total + Vβ), minus lgamma(node total +
        # document total + Vβ), then one term per word of ``level_counts``.
        doc_totals = [
            sum(counts.values())  # repro: allow[RPR002] -- integer token counts: addition is exact
            for counts in level_counts
        ]
        empty_beta = lgamma(0.0 + beta)
        empty_terms = [
            [lgamma(0.0 + v_beta), -lgamma(0.0 + n + v_beta)]
            + [lgamma(0.0 + c + beta) - empty_beta for c in counts.values()]
            if counts else []
            for counts, n in zip(level_counts, doc_totals)
        ]
        positions = [
            {w: (i, c) for i, (w, c) in enumerate(counts.items(), 2)} for counts in level_counts
        ]
        fresh_tails = [sum(empty_terms[level:], []) for level in range(self.levels + 1)]
        nodes: list[_Node] = []
        scores: list[float] = []

        def walk(node: _Node, level: int, log_prior: float, total: float) -> None:
            if doc_totals[level]:
                node_total, node_words = node.total_count, node.word_counts
                terms = empty_terms[level].copy()
                terms[0] = lgamma(node_total + v_beta)
                terms[1] = -lgamma(node_total + doc_totals[level] + v_beta)
                where = positions[level]
                for w in where.keys() & node_words.keys():
                    i, c = where[w]
                    existing = node_words[w]
                    terms[i] = lgamma(existing + c + beta) - lgamma(existing + beta)
                # Added one at a time, in order, as a running total.
                total = reduce(add, terms, total)
            if level < last:
                children, new = self._branch_weights(node)
                for child, weight in zip(node.children, children):
                    walk(child, level + 1, log_prior + log(weight), total)
                log_prior += log(new)
                total = reduce(add, fresh_tails[level + 1], total)
            nodes.append(node)
            scores.append(log_prior + total)

        walk(self._root, 0, 0.0, 0.0)
        # Break the closure's reference to itself: this call's lists are then
        # freed on return instead of waiting for the cycle collector.
        del walk
        return nodes, scores

    # -- training -------------------------------------------------------------

    def _train(self, docs: list[list[int]], raw_docs: list[Sequence[str]]) -> None:
        vocab_size = len(self.vocabulary)
        rng = self._rng
        v_beta = vocab_size * self.beta

        self._n_nodes = 0
        self._root = self._new_node(0, None)

        paths: list[list[_Node]] = []
        levels: list[list[int]] = []

        # Initialisation: every document walks the nCRP and gets random levels.
        for doc in docs:
            path = self._sample_initial_path(rng)
            z = rng.integers(self.levels, size=len(doc)).tolist()
            paths.append(path)
            levels.append(z)
            for node in path:
                node.n_docs += 1
            self._add_doc_counts(path, doc, z)

        n_tokens = sum(map(len, docs))
        for iteration in range(self.iterations):
            for d, doc in enumerate(docs):
                if not doc:
                    continue
                path, z = paths[d], levels[d]
                level_counts = self._level_counts(doc, z)
                # The path draw's uniform, then one per token: no other
                # draw comes between them.
                uniforms = rng.random(len(doc) + 1).tolist()

                # 1. resample the path
                self._remove_doc_counts(path, level_counts)
                for node in path:
                    node.n_docs -= 1
                nodes, log_scores = self._path_scores(level_counts, vocab_size)
                scores = np.exp(np.array(log_scores) - max(log_scores))
                path = self._materialise(nodes[draw_index(scores, uniforms[0], self.name)])
                paths[d] = path
                for node in path:
                    node.n_docs += 1
                self._add_doc_counts_from_levels(path, level_counts)

                # 2. resample the levels
                self._resample_levels(doc, z, path, uniforms[1:], v_beta)

            self._prune_empty()
            notify_iteration(
                self.iteration_hook, self.name, iteration + 1, self.iterations,
                steps=n_tokens,
            )

        self._freeze(vocab_size)

    def _resample_levels(
        self, doc: list[int], z: list[int], path: list[_Node], uniforms: list[float],
        v_beta: float,
    ) -> None:
        """Gibbs-resample each token's level on ``path``, token ``i`` drawing
        with ``uniforms[i]`` by :func:`gibbs.draw_index`'s inverse CDF."""
        alpha, beta, n_levels = self.alpha, self.beta, self.levels
        last, inf = n_levels - 1, math.inf
        n_dl = [0] * n_levels
        for level in z:
            n_dl[level] += 1
        words = [node.word_counts for node in path]
        totals = [node.total_count for node in path]
        for i, (w, uniform) in enumerate(zip(doc, uniforms)):
            level = z[i]
            n_dl[level] -= 1
            counts = words[level]
            remaining = counts.get(w, 0.0) - 1
            if remaining <= 1e-9:
                counts.pop(w, None)
            else:
                counts[w] = remaining
            remaining = totals[level] - 1
            totals[level] = 0.0 if remaining < 0 else remaining
            weights = []
            cdf = []
            running = 0.0
            for n, node_words, node_total in zip(n_dl, words, totals):
                weight = (n + alpha) * ((node_words.get(w, 0.0) + beta) / (node_total + v_beta))
                weights.append(weight)
                running += weight
                cdf.append(running)
            # The CDF is the running sum; the total is numpy's pairwise one.
            total = pairwise_total(weights)
            if not 0.0 < total < inf:
                raise SamplingWeightsError(
                    f"{self.name} level weights must have a finite, positive total"
                )
            level = bisect_left(cdf, uniform * total, 0, last)
            z[i] = level
            n_dl[level] += 1
            counts = words[level]
            counts[w] = counts.get(w, 0.0) + 1
            totals[level] += 1
        for node, total in zip(path, totals):
            node.total_count = total

    def _sample_initial_path(self, rng: np.random.Generator) -> list[_Node]:
        assert self._root is not None
        path = [self._root]
        node = self._root
        for level in range(1, self.levels):
            denom = node.n_docs + self.gamma
            weights = [child.n_docs / denom for child in node.children]
            weights.append(self.gamma / denom)
            choice = draw_index(np.array(weights), rng.random(), self.name)
            if choice == len(node.children):
                node = self._new_node(level, node)
            else:
                node = node.children[choice]
            path.append(node)
        return path

    def _level_counts(self, doc: list[int], z: Sequence[int]) -> list[dict[int, int]]:
        counts: list[dict[int, int]] = [dict() for _ in range(self.levels)]
        for w, level in zip(doc, z):
            bucket = counts[level]
            bucket[w] = bucket.get(w, 0) + 1
        return counts

    def _add_doc_counts(self, path: list[_Node], doc: list[int], z: Sequence[int]) -> None:
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

    def _materialise(self, node: _Node) -> list[_Node]:
        """The path through ``node``, extended by new nodes down to the last level."""
        path: list[_Node] = []
        ancestor: _Node | None = node
        while ancestor is not None:
            path.append(ancestor)
            ancestor = ancestor.parent
        path.reverse()
        for level in range(len(path), self.levels):
            path.append(self._new_node(level, path[-1]))
        return path

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
        self._path_array = np.array(self._paths_matrix, dtype=np.intp)

    # -- inference --------------------------------------------------------------

    def _infer(self, doc: list[int]) -> np.ndarray | FoldIn:
        if self._node_phi is None:
            raise NotFittedError("HldaModel.fit was never called")
        if not doc or not self._paths_matrix:
            return self._uniform_theta()
        phi = self._node_phi

        # Pick the path with the highest likelihood under a uniform level mix,
        # then estimate the level distribution by fold-in Gibbs on that path.
        # One gather gives every path's P x N x L weights; with a path's
        # levels innermost, the level mean and the sum over words reduce in
        # the same order as for one path's (levels x words) gather, and
        # argmax keeps the first of equal scores.
        level_phi = phi[self._path_array[:, None, :], np.array(doc)[None, :, None]]
        scores = np.log(level_phi.mean(axis=2) + 1e-12).sum(axis=1)
        best = int(np.argmax(scores))
        # A copy: the row alone would keep every path's gather alive.
        return _PathFoldIn(level_phi[best].copy(), self.alpha, self._paths_matrix[best])

    def _weight_count(self, doc: list[int]) -> int:
        """A weight per token and level of the document's path."""
        return len(doc) * self.levels

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
