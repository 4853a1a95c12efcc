"""Tests for the shared Gibbs-sampling helpers."""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import SamplingWeightsError
from repro.models.topic.gibbs import draw_index, draw_scalar, pairwise_total


def sample_index(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index proportionally to non-negative ``weights``.

    The draw the samplers made before they drew their uniforms up front:
    one ``rng.random()`` per call, as :func:`draw_index` uses it, but an
    all-zero or non-finite total falls back to a uniform draw instead of
    raising. The reference loops in this package's tests draw with it.
    """
    total = float(np.add.reduce(weights))
    if not 0.0 < total < math.inf:
        return int(rng.integers(len(weights)))
    return bisect_left(np.add.accumulate(weights[:-1]).tolist(), rng.random() * total)


#: The largest uniform ``Generator.random`` can return.
TOP_UNIFORM = 1.0 - 2.0**-53


class _FixedUniform:
    """Stand-in generator whose every uniform is ``value``."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value

    def integers(self, high: int) -> int:
        raise AssertionError("the uniform fallback must not fire")


def _searchsorted_draw(weights: np.ndarray, rng: np.random.Generator) -> int:
    """The inverse-CDF draw written with ``np.searchsorted``.

    The CDF leaves out the last weight's entry, so a uniform above every
    earlier entry lands on the last index even when rounding puts the
    full cumulative sum below the pairwise total.
    """
    total = float(weights.sum())
    if total <= 0.0 or not np.isfinite(total):
        return int(rng.integers(len(weights)))
    return int(np.searchsorted(np.cumsum(weights[:-1]), rng.random() * total))


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

    def test_top_uniform_stays_on_the_last_index(self):
        # np.cumsum(weights)[-1] rounds below the pairwise weights.sum()
        # here, so counting the full CDF's entries below the top uniform
        # returned 24: one past the last index.
        weights = np.full(24, 1 / 3)
        assert np.cumsum(weights)[-1] < TOP_UNIFORM * weights.sum()
        assert sample_index(weights, _FixedUniform(TOP_UNIFORM)) == 23
        assert draw_index(weights, TOP_UNIFORM, "LDA") == 23

    @given(
        arrays(float, st.integers(1, 64), elements=st.floats(0.01, 10)),
        st.sampled_from([0.0, 0.5, TOP_UNIFORM]),
    )
    def test_index_is_always_in_range(self, weights, uniform):
        assert 0 <= sample_index(weights, _FixedUniform(uniform)) < len(weights)


class TestDrawIndex:
    @given(
        arrays(float, st.integers(1, 64), elements=st.floats(0.01, 10)),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_sample_index(self, weights, seed):
        uniform = np.random.default_rng(seed).random()
        assert draw_index(weights, uniform, "LDA") == (
            sample_index(weights, np.random.default_rng(seed))
        )

    @pytest.mark.parametrize(
        "weights", [np.zeros(3), np.array([1.0, np.nan]), np.array([np.inf, 1.0])]
    )
    def test_degenerate_total_raises_naming_the_model(self, weights):
        with pytest.raises(SamplingWeightsError, match="BTM"):
            draw_index(weights, 0.5, "BTM")


#: Every length up to 300, then two past the pairwise split: the
#: left-to-right sums below 8 terms, the eight running sums up to 128,
#: and one and two levels of splitting.
LENGTHS = list(range(1, 301)) + [513, 1024]


def numpy_total(weights: list[float]) -> float:
    return float(np.add.reduce(np.array(weights)))


class TestPairwiseTotal:
    @pytest.mark.parametrize("n", LENGTHS)
    def test_equals_numpy_at_every_length(self, n):
        # Weights of one magnitude: every rounding step shows in the
        # total, so a different summation order would too.
        rng = np.random.default_rng(n)
        for _ in range(20):
            weights = rng.random(n).tolist()
            assert pairwise_total(weights) == numpy_total(weights)

    @given(
        st.sampled_from(LENGTHS),
        st.integers(-300, 300),
        st.integers(0, 600),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_numpy_from_1e_minus_300_to_1e300(self, n, low, span, seed):
        # Magnitudes drawn log-uniformly between 10**low and
        # 10**(low + span), clipped to [1e-300, 1e300].
        high = min(low + span, 300)
        exponents = np.random.default_rng(seed).uniform(low, high, n)
        weights = (10.0 ** exponents).tolist()
        assert pairwise_total(weights) == numpy_total(weights)

    def test_tuples_sum_like_lists(self):
        weights = np.random.default_rng(0).random(40).tolist()
        assert pairwise_total(tuple(weights)) == numpy_total(weights)


class TestDrawScalar:
    @given(
        arrays(float, st.integers(1, 64), elements=st.floats(0.01, 10)),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_draw_index(self, weights, seed):
        uniform = np.random.default_rng(seed).random()
        assert draw_scalar(weights.tolist(), uniform, "LDA") == (
            draw_index(weights, uniform, "LDA")
        )

    def test_top_uniform_stays_on_the_last_index(self):
        assert draw_scalar([1 / 3] * 24, TOP_UNIFORM, "LDA") == 23

    @pytest.mark.parametrize("weights", [[0.0] * 3, [1.0, math.nan], [math.inf, 1.0]])
    def test_degenerate_total_raises_naming_the_model(self, weights):
        with pytest.raises(SamplingWeightsError, match="LLDA training weights"):
            draw_scalar(weights, 0.5, "LLDA")
