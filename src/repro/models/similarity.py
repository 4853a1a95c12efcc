"""Similarity measures for sparse bag-model vectors.

The paper's three measures (Section 3.2):

* **CS**  -- cosine similarity;
* **JS**  -- Jaccard similarity over the supports (presence/absence);
* **GJS** -- generalized Jaccard: ``sum(min) / sum(max)`` over weights.

All three operate on sparse ``dict[str, float]`` vectors and return a
value in ``[0, 1]`` for non-negative weights. Two empty vectors are
defined to have similarity 0, matching the "no shared evidence" reading
used throughout the evaluation.

The first argument may also be a :class:`PreparedVector`: the
profile-side quantities the measures need (L2 norm, support size,
weight total) computed at most once, on first use, so that scoring one
user profile against many tweets walks only the tweet. A plain dict is
prepared on the fly, so each measure has exactly one implementation.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Callable, Mapping

from repro.errors import ValidationError

__all__ = [
    "PreparedVector",
    "VectorSimilarity",
    "cosine_similarity",
    "jaccard_similarity",
    "generalized_jaccard_similarity",
    "prepare_vector",
    "vector_similarity_function",
]

SparseVector = Mapping[str, float]


class VectorSimilarity(str, enum.Enum):
    """Bag-model similarity measures."""

    COSINE = "CS"
    JACCARD = "JS"
    GENERALIZED_JACCARD = "GJS"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _support_size(v: SparseVector) -> int:
    """Number of non-zero weights in ``v``."""
    return len(v) - operator.countOf(v.values(), 0.0)


def _l2_norm(v: SparseVector) -> float:
    """L2 norm of ``v``, summed in ``v``'s iteration order."""
    return math.sqrt(sum(map(operator.mul, v.values(), v.values())))


class PreparedVector:
    """A sparse vector whose per-vector similarity terms are computed on
    first use and then kept.

    Each measure reads only the terms it needs (CS the L2 norm, JS the
    support size, GJS the negative-weight flag and the weight total), so
    preparing costs nothing up front and a one-off call on a plain dict
    walks the profile no more often than its measure requires. ``total``
    is an exactly rounded (``math.fsum``) weight sum, so it does not
    depend on the vector's insertion order.

    The terms are read-only properties.
    """

    __slots__ = ("vector", "_norm", "_support", "_total", "_has_negative")

    def __init__(self, vector: SparseVector) -> None:
        self.vector = vector
        self._norm: float | None = None
        self._support: int | None = None
        self._total: float | None = None
        self._has_negative: bool | None = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.vector!r})"

    @property
    def norm(self) -> float:
        """L2 norm, summed in the vector's iteration order."""
        if self._norm is None:
            self._norm = _l2_norm(self.vector)
        return self._norm

    @property
    def support(self) -> int:
        """Number of non-zero weights."""
        if self._support is None:
            self._support = _support_size(self.vector)
        return self._support

    @property
    def total(self) -> float:
        """Exactly rounded sum of the weights."""
        if self._total is None:
            self._total = math.fsum(self.vector.values())
        return self._total

    @property
    def has_negative(self) -> bool:
        """Whether any weight is negative."""
        if self._has_negative is None:
            self._has_negative = min(self.vector.values(), default=0.0) < 0.0
        return self._has_negative


def prepare_vector(u: SparseVector | PreparedVector) -> PreparedVector:
    """Wrap ``u`` so its profile-side terms are computed at most once;
    a no-op if already prepared."""
    if isinstance(u, PreparedVector):
        return u
    return PreparedVector(u)


def cosine_similarity(u: SparseVector | PreparedVector, v: SparseVector) -> float:
    """Cosine of the angle between two sparse vectors."""
    p = prepare_vector(u)
    if not p.vector or not v:
        return 0.0
    small, large = (v, p.vector) if len(v) < len(p.vector) else (p.vector, v)
    dot = sum(w * large[g] for g, w in small.items() if g in large)
    if dot == 0.0:
        return 0.0
    norm_u, norm_v = p.norm, _l2_norm(v)
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return dot / (norm_u * norm_v)


def jaccard_similarity(u: SparseVector | PreparedVector, v: SparseVector) -> float:
    """Set Jaccard over the non-zero supports of the two vectors."""
    p = prepare_vector(u)
    vector = p.vector
    shared = sum(1 for g, w in v.items() if w != 0.0 and vector.get(g, 0.0) != 0.0)
    if shared == 0:
        return 0.0
    return shared / (p.support + _support_size(v) - shared)


def generalized_jaccard_similarity(
    u: SparseVector | PreparedVector, v: SparseVector
) -> float:
    """Weighted Jaccard: ``sum_k min(u_k, v_k) / sum_k max(u_k, v_k)``.

    Computed as ``num / (total_u + total_v - num)`` with ``num`` the sum
    of minima over the shared keys; every sum is exactly rounded, so the
    result does not depend on dict order or the string hash seed.

    Defined for non-negative weights; raises ``ValueError`` on negative
    inputs, for which min/max lose their overlap semantics (the paper
    never combines GJS with signed Rocchio vectors).
    """
    p = prepare_vector(u)
    if p.has_negative or min(v.values(), default=0.0) < 0.0:
        raise ValidationError("generalized Jaccard requires non-negative weights")
    vector = p.vector
    num = math.fsum(min(w, vector[g]) for g, w in v.items() if g in vector)
    if num == 0.0:
        return 0.0
    # Non-negative weights make each total >= num, so the denominator
    # is positive here.
    return num / (p.total + math.fsum(v.values()) - num)


_FUNCTIONS: dict[VectorSimilarity, Callable[[SparseVector, SparseVector], float]] = {
    VectorSimilarity.COSINE: cosine_similarity,
    VectorSimilarity.JACCARD: jaccard_similarity,
    VectorSimilarity.GENERALIZED_JACCARD: generalized_jaccard_similarity,
}


def vector_similarity_function(
    measure: VectorSimilarity,
) -> Callable[[SparseVector, SparseVector], float]:
    """Look up the implementation of a similarity measure."""
    return _FUNCTIONS[measure]
