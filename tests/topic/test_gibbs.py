"""Tests for the shared Gibbs-sampling helpers."""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.models.topic.gibbs import sample_index


def _searchsorted_draw(weights: np.ndarray, rng: np.random.Generator) -> int:
    """The inverse-CDF draw written with ``np.searchsorted``."""
    total = float(weights.sum())
    if total <= 0.0 or not np.isfinite(total):
        return int(rng.integers(len(weights)))
    return int(np.searchsorted(np.cumsum(weights), rng.random() * total))


class TestSampleIndex:
    @given(
        arrays(float, st.integers(1, 64), elements=st.floats(0, 10)),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_searchsorted_draw(self, weights, seed):
        # Same uniform, same index: counting CDF entries below the draw
        # keeps every fitted model's random stream unchanged.
        assert sample_index(weights, np.random.default_rng(seed)) == (
            _searchsorted_draw(weights, np.random.default_rng(seed))
        )

    def test_zero_weights_never_draw(self):
        rng = np.random.default_rng(0)
        weights = np.array([0.0, 2.0, 0.0, 1.0, 0.0])
        draws = {sample_index(weights, rng) for _ in range(500)}
        assert draws == {1, 3}

    def test_all_zero_weights_fall_back_to_uniform(self):
        rng = np.random.default_rng(0)
        draws = {sample_index(np.zeros(3), rng) for _ in range(200)}
        assert draws == {0, 1, 2}
