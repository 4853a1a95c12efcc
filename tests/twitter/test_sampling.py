"""Cached-CDF categorical draws replay ``Generator.choice`` exactly."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.twitter.entities import UserProfile
from repro.twitter.generator import TweetComposer
from repro.twitter.sampling import categorical_cdf, draw


def padded(weights: list[float], lead: int, trail: int) -> np.ndarray:
    """``weights`` normalised, with zero-probability outcomes at both ends."""
    w = np.array([0.0] * lead + weights + [0.0] * trail)
    return w / w.sum()


def zipf(n: int, exponent: float) -> np.ndarray:
    """The inventory's within-topic word law."""
    weights = np.arange(1, n + 1, dtype=float) ** (-exponent)
    return weights / weights.sum()


positive = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False, allow_infinity=False)

distributions = st.one_of(
    st.builds(
        padded,
        st.lists(positive, min_size=1, max_size=12),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    st.just(np.array([1.0])),
    st.builds(zipf, st.integers(1, 200), st.floats(0.0, 2.0)),
    # Tiny concentrations put almost all mass on one outcome and leave
    # the rest at (or underflowed to) zero.
    st.builds(
        lambda seed, k, alpha: np.random.default_rng(seed).dirichlet(np.full(k, alpha)),
        st.integers(0, 2**32 - 1),
        st.integers(1, 16),
        st.floats(1e-3, 0.1),
    ),
)


class FixedUniform:
    """An rng stand-in whose ``random()`` returns one chosen value."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


class TestParityWithChoice:
    @settings(max_examples=200, deadline=None)
    @given(p=distributions, seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40))
    @example(p=np.array([0.0, 0.0, 1.0, 0.0]), seed=0, k=20)
    @example(p=np.array([1.0]), seed=1, k=5)
    def test_same_indices_and_final_state(self, p, seed, k):
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        cdf = categorical_cdf(p)
        got = [draw(cdf, ours) for _ in range(k)]
        want = [int(theirs.choice(len(p), p=p)) for _ in range(k)]
        assert got == want
        assert ours.bit_generator.state == theirs.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(p=distributions)
    def test_cdf_equals_numpys(self, p):
        want = p.cumsum()
        want /= want[-1]
        assert categorical_cdf(p) == want.tolist()

    @settings(max_examples=200, deadline=None)
    @given(p=distributions)
    def test_lookup_at_cdf_entries(self, p):
        # A uniform equal to a CDF entry belongs to the *next* outcome;
        # a lower-bound search would return the entry's own index.
        cdf = categorical_cdf(p)
        sorted_cdf = np.asarray(cdf)
        for u in {0.0, *cdf}:
            if u >= 1.0:
                continue  # Generator.random() is in [0, 1)
            for v in (u, math.nextafter(u, 0.0), math.nextafter(u, 1.0)):
                assert draw(cdf, FixedUniform(v)) == int(sorted_cdf.searchsorted(v, side="right"))

    def test_zero_probability_outcomes_are_never_drawn(self):
        cdf = categorical_cdf([0.0, 0.5, 0.0, 0.5, 0.0])
        assert draw(cdf, FixedUniform(0.0)) == 1
        assert draw(cdf, FixedUniform(0.5)) == 3
        assert draw(cdf, FixedUniform(math.nextafter(1.0, 0.0))) == 3


class TestValidation:
    @pytest.mark.parametrize(
        "p",
        [
            [0.5, -0.1, 0.6],
            [0.5, math.nan, 0.5],
            [0.2, 0.2, 0.2],
            [1.0 + 1e-7],
            [0.5, math.inf],
            [],
            [[0.5, 0.5]],
        ],
        ids=["negative", "nan", "unnormalised", "just-past-tolerance", "inf", "empty", "2-d"],
    )
    def test_rejected_like_choice(self, p):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(max(len(p), 1), p=p)
        with pytest.raises(ValidationError):
            categorical_cdf(p)

    def test_within_tolerance_accepted_like_choice(self):
        p = [0.5, 0.5 + 1e-9]
        assert 0 <= int(np.random.default_rng(0).choice(2, p=p)) <= 1
        assert categorical_cdf(p)[-1] == 1.0


class TestProfileCdf:
    def test_derived_from_the_profiles_own_interests(self):
        a = UserProfile(user_id=0, interests=np.array([0.9, 0.1]), language="alpha", tweet_rate=1.0)
        b = UserProfile(user_id=0, interests=np.array([0.1, 0.9]), language="alpha", tweet_rate=1.0)
        assert a.interest_cdf == categorical_cdf(a.interests)
        assert b.interest_cdf == categorical_cdf(b.interests)
        assert a.top_interest == b.top_interest == 0.9

    def test_invalid_interests_raise_on_first_draw(self):
        profile = UserProfile(
            user_id=0, interests=np.array([2.0, -1.0]), language="alpha", tweet_rate=1.0
        )
        with pytest.raises(ValidationError):
            profile.interest_cdf

    def test_ad_hoc_profiles_sharing_an_id_compose_apart(self, two_language_inventory):
        composer = TweetComposer(two_language_inventory)

        def focus_counts(interests) -> np.ndarray:
            profile = UserProfile(
                user_id=0, interests=np.array(interests), language="alpha", tweet_rate=1.0
            )
            rng = np.random.default_rng(0)
            mixes = [composer.sample_topic_mix(profile, rng) for _ in range(200)]
            return np.bincount([int(np.argmax(m)) for m in mixes], minlength=4)

        assert focus_counts([1.0, 0.0, 0.0, 0.0]).argmax() == 0
        assert focus_counts([0.0, 0.0, 0.0, 1.0]).argmax() == 3
