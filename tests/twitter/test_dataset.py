"""Tests for dataset generation and the source views."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DataGenerationError
from repro.twitter.dataset import DatasetConfig, generate_dataset, select_user_groups
from repro.twitter.entities import UserProfile, UserType
from repro.twitter.generator import NoiseChannel


def dataset_digest(dataset) -> str:
    """SHA-256 over every tweet, profile, follow edge and ``seen`` set.

    Floats enter through ``repr``, so a change in the last bit of a topic
    mix or an interest weight changes the digest.
    """
    h = hashlib.sha256()

    def put(*fields) -> None:
        h.update(repr(fields).encode())
        h.update(b"\n")

    for t in dataset.tweets:
        put("tweet", t.tweet_id, t.author_id, t.text, t.timestamp,
            t.retweet_of, t.original_author_id, repr(t.topic_mix))
    for u in dataset.users:
        put("user", u.user_id, u.language, u.tweet_rate, u.retweet_affinity,
            u.interests.tolist())
    for u in dataset.users:
        put("follows", u.user_id, sorted(dataset.graph.followees(u.user_id)))
    for uid in sorted(dataset.seen):
        put("seen", uid, sorted(dataset.seen[uid]))
    return h.hexdigest()


#: A config off every text-surface default: heavier noise on all three
#: channels and longer chain runs.
NOISY_CONFIG = DatasetConfig(
    n_users=16,
    n_ticks=40,
    seed=3,
    phrase_rate=0.85,
    noise=NoiseChannel(misspell_rate=0.2, lengthen_rate=0.15, abbreviate_rate=0.1),
)


class TestDatasetDigest:
    """The simulated corpus is pinned byte for byte.

    The literals were taken before the categorical draws moved to cached
    CDFs; any change to the random stream, the draw order or a float's
    last bit shows here.
    """

    def test_small_dataset(self, small_dataset):
        assert small_dataset.tweets  # the fixture is DatasetConfig(24, 80, seed=11)
        assert dataset_digest(small_dataset) == SMALL_DIGEST

    def test_noisy_config(self):
        assert dataset_digest(generate_dataset(NOISY_CONFIG)) == NOISY_DIGEST


SMALL_DIGEST = "fd73f4e0fa9c241f1e619d13a66b6482ef6f17cf11ef5438f34f5581700d6cc0"
NOISY_DIGEST = "95a3529bcd86d4c470121433d5646473ad71e6b7b38c5ddd6649c6da94f442d0"


class TestConfigValidation:
    def test_too_few_users(self):
        with pytest.raises(DataGenerationError):
            DatasetConfig(n_users=2)

    def test_zero_ticks(self):
        with pytest.raises(DataGenerationError):
            DatasetConfig(n_ticks=0)

    def test_fractions_must_sum_below_one(self):
        with pytest.raises(DataGenerationError):
            DatasetConfig(seeker_fraction=0.6, balanced_fraction=0.5)


class TestGeneratedDataset:
    def test_reproducible(self):
        cfg = DatasetConfig(n_users=10, n_ticks=20, seed=5)
        a = generate_dataset(cfg)
        b = generate_dataset(cfg)
        assert [t.text for t in a.tweets] == [t.text for t in b.tweets]

    def test_tweets_time_ordered(self, small_dataset):
        stamps = [t.timestamp for t in small_dataset.tweets]
        assert stamps == sorted(stamps)

    def test_retweets_reference_existing_originals(self, small_dataset):
        for tweet in small_dataset.tweets:
            if tweet.is_retweet:
                original = small_dataset.tweet(tweet.retweet_of)
                assert not original.is_retweet  # cascades are 1-hop
                assert original.author_id == tweet.original_author_id
                assert original.text == tweet.text

    def test_retweeter_follows_original_author(self, small_dataset):
        for tweet in small_dataset.tweets:
            if tweet.is_retweet:
                assert small_dataset.graph.follows(
                    tweet.author_id, tweet.original_author_id
                )

    def test_no_user_retweets_same_original_twice(self, small_dataset):
        seen = set()
        for tweet in small_dataset.tweets:
            if tweet.is_retweet:
                key = (tweet.author_id, tweet.retweet_of)
                assert key not in seen
                seen.add(key)

    def test_seen_contains_all_retweeted_originals(self, small_dataset):
        for user in small_dataset.users:
            seen = small_dataset.seen[user.user_id]
            for rt in small_dataset.retweets_of(user.user_id):
                assert rt.retweet_of in seen

    def test_inventory_topic_mismatch_rejected(self, two_language_inventory):
        with pytest.raises(DataGenerationError):
            generate_dataset(
                DatasetConfig(n_users=8, n_ticks=5, n_topics=12),
                inventory=two_language_inventory,  # has 4 topics
            )


class TestSourceViews:
    def test_outgoing_is_t_union_r(self, small_dataset):
        for user in small_dataset.users[:5]:
            uid = user.user_id
            t_ids = {t.tweet_id for t in small_dataset.tweets_of(uid)}
            r_ids = {t.tweet_id for t in small_dataset.retweets_of(uid)}
            out_ids = {t.tweet_id for t in small_dataset.outgoing(uid)}
            assert out_ids == t_ids | r_ids
            assert not t_ids & r_ids

    def test_incoming_is_followees_posts(self, small_dataset):
        uid = small_dataset.users[0].user_id
        followees = small_dataset.graph.followees(uid)
        for tweet in small_dataset.incoming(uid):
            assert tweet.author_id in followees

    def test_reciprocal_subset_of_incoming_and_followers(self, small_dataset):
        uid = small_dataset.users[0].user_id
        c_ids = {t.tweet_id for t in small_dataset.reciprocal_tweets(uid)}
        e_ids = {t.tweet_id for t in small_dataset.incoming(uid)}
        f_ids = {t.tweet_id for t in small_dataset.followers_tweets(uid)}
        assert c_ids <= e_ids
        assert c_ids <= f_ids

    def test_posting_ratio_definition(self, small_dataset):
        uid = small_dataset.users[0].user_id
        expected = len(small_dataset.outgoing(uid)) / len(small_dataset.incoming(uid))
        assert small_dataset.posting_ratio(uid) == pytest.approx(expected)

    def test_user_type_consistent_with_ratio(self, small_dataset):
        for user in small_dataset.users:
            ratio = small_dataset.posting_ratio(user.user_id)
            assert small_dataset.user_type(user.user_id) is UserType.from_posting_ratio(ratio)


class TestGroupSelection:
    def test_groups_follow_paper_structure(self, small_dataset, small_groups):
        is_users = small_groups[UserType.INFORMATION_SEEKER]
        bu_users = small_groups[UserType.BALANCED_USER]
        ip_users = small_groups[UserType.INFORMATION_PRODUCER]
        assert is_users and bu_users  # IP may be empty on tiny data
        # IS users have lower ratios than BU users.
        max_is = max(small_dataset.posting_ratio(u) for u in is_users)
        min_bu_dist = min(abs(small_dataset.posting_ratio(u) - 1.0) for u in bu_users)
        assert max_is < 1.0
        for u in ip_users:
            assert small_dataset.posting_ratio(u) > 2.0

    def test_groups_are_disjoint(self, small_groups):
        is_set = set(small_groups[UserType.INFORMATION_SEEKER])
        bu_set = set(small_groups[UserType.BALANCED_USER])
        ip_set = set(small_groups[UserType.INFORMATION_PRODUCER])
        assert not is_set & bu_set
        assert not is_set & ip_set
        assert not bu_set & ip_set

    def test_all_users_is_superset(self, small_groups):
        union = (
            set(small_groups[UserType.INFORMATION_SEEKER])
            | set(small_groups[UserType.BALANCED_USER])
            | set(small_groups[UserType.INFORMATION_PRODUCER])
        )
        assert union <= set(small_groups[UserType.ALL])

    def test_min_retweets_respected(self, small_dataset, small_groups):
        for group in small_groups.values():
            for uid in group:
                assert len(small_dataset.retweets_of(uid)) >= 5

    def test_impossible_selection_raises(self, small_dataset):
        with pytest.raises(DataGenerationError):
            select_user_groups(small_dataset, min_retweets=10**9)

    def test_ratio_counts_every_followee_post(self, small_dataset):
        for user in small_dataset.users:
            uid = user.user_id
            incoming = len(small_dataset.incoming(uid))
            want = len(small_dataset.outgoing(uid)) / incoming if incoming else float("inf")
            assert small_dataset.posting_ratio(uid) == want

    @pytest.mark.parametrize("group_size", [1, 3, 5, 20])
    @pytest.mark.parametrize("min_retweets", [0, 5, 12])
    def test_groups_equal_reference_selection(self, small_dataset, group_size, min_retweets):
        got = select_user_groups(small_dataset, group_size=group_size, min_retweets=min_retweets)
        assert got == reference_select_user_groups(small_dataset, group_size, min_retweets)

    @settings(max_examples=200, deadline=None)
    @given(
        ratios=st.lists(
            st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0, 1.1, 2.0, 2.5, 7.0, float("inf")]),
            min_size=3,
            max_size=30,
        ),
        group_size=st.integers(1, 12),
    )
    def test_groups_equal_reference_on_any_ratios(self, ratios, group_size):
        dataset = RatioStub(ratios)
        got = select_user_groups(dataset, group_size=group_size, min_retweets=0)
        assert got == reference_select_user_groups(dataset, group_size, 0)


class RatioStub:
    """Just what group selection reads, with chosen posting ratios."""

    def __init__(self, ratios):
        self.users = [UserProfile(uid, np.ones(2), "english", 1.0) for uid in range(len(ratios))]
        self.ratios = ratios

    def retweets_of(self, uid):
        return []

    def posting_ratio(self, uid):
        return self.ratios[uid]


def reference_select_user_groups(dataset, group_size, min_retweets, producer_ratio_threshold=2.0):
    """The selection as first written, with the group sets rebuilt on
    every comprehension step."""
    eligible = [
        u.user_id for u in dataset.users if len(dataset.retweets_of(u.user_id)) >= min_retweets
    ]
    ratios = {uid: dataset.posting_ratio(uid) for uid in eligible}
    by_ratio = sorted(eligible, key=lambda uid: ratios[uid])
    group_size = min(group_size, max(1, len(eligible) // 3))
    seekers = by_ratio[:group_size]
    rest = [uid for uid in by_ratio if uid not in set(seekers)]
    balanced = sorted(rest, key=lambda uid: abs(ratios[uid] - 1.0))[:group_size]
    remaining = [uid for uid in rest if uid not in set(balanced)]
    producers = [uid for uid in remaining if ratios[uid] > producer_ratio_threshold]
    producers = sorted(producers, key=lambda uid: -ratios[uid])[:group_size]
    leftovers = [uid for uid in remaining if uid not in set(producers)]
    all_users = sorted(set(seekers) | set(balanced) | set(producers) | set(leftovers))
    return {
        UserType.INFORMATION_SEEKER: seekers,
        UserType.BALANCED_USER: balanced,
        UserType.INFORMATION_PRODUCER: producers,
        UserType.ALL: all_users,
    }
