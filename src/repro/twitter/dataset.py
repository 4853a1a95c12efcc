"""Dataset assembly: simulate the network and index the result.

:func:`generate_dataset` runs the full simulation -- build user profiles,
wire the follow graph, then tick through time letting users tweet and
retweet -- and returns a :class:`MicroblogDataset` exposing the paper's
five atomic representation-source views:

* ``T(u)`` -- the user's original tweets;
* ``R(u)`` -- her retweets;
* ``E(u)`` -- all (re)tweets of her followees (her incoming stream);
* ``F(u)`` -- all (re)tweets of her followers;
* ``C(u)`` -- all (re)tweets of her reciprocal connections.

It also computes posting ratios and reproduces the paper's user-group
selection (20 IS with the lowest ratios, 20 BU closest to 1, IP with
ratio > 2, and an All-Users group padded with the remaining highest
ratios).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DataGenerationError
from repro.twitter.behavior import RetweetPolicy
from repro.twitter.entities import Tweet, UserProfile, UserType
from repro.twitter.generator import NoiseChannel, TweetComposer
from repro.twitter.graph import SocialGraph, generate_follow_graph
from repro.twitter.language import LanguageInventory, default_inventory

__all__ = ["DatasetConfig", "MicroblogDataset", "generate_dataset", "select_user_groups"]


@dataclass(frozen=True)
class DatasetConfig:
    """Knobs of the synthetic dataset.

    The defaults produce a small but structurally faithful corpus in a
    few seconds; benchmarks scale ``n_users`` and ``n_ticks`` up.
    """

    n_users: int = 30
    n_ticks: int = 120
    n_topics: int = 12
    seed: int = 0

    #: Fractions of users assigned the seeker / balanced / producer roles;
    #: the remainder become lurkers -- near-silent accounts that exist so
    #: balanced users and producers have quiet followees (see
    #: :func:`repro.twitter.graph.generate_follow_graph`).
    seeker_fraction: float = 0.30
    balanced_fraction: float = 0.25
    producer_fraction: float = 0.15

    #: Original tweets per tick by role.
    seeker_tweet_rate: float = 0.12
    balanced_tweet_rate: float = 0.9
    producer_tweet_rate: float = 4.5
    lurker_tweet_rate: float = 0.03

    #: Retweet-affinity multiplier by role (lurkers rarely repost).
    lurker_retweet_affinity: float = 0.3

    #: Interest-homophily exponent for follow wiring.
    homophily: float = 2.0

    #: Multiplier on the retweet probability when the tweet's author
    #: writes in a different language than the reader -- people rarely
    #: repost content they cannot read.
    cross_language_retweet_rate: float = 0.05

    #: How many fresh followee tweets a user considers for retweeting per
    #: tick. Users have finite attention; without this cap, seekers (who
    #: follow many prolific accounts) would retweet so much that their
    #: own outgoing stream dwarfs everyone's posting-ratio structure.
    attention_budget: int = 4

    #: Interest concentration: users draw interests from Dirichlet(k)
    #: with this concentration on a few focus topics.
    interests_per_user: int = 3

    #: Text-surface knobs forwarded to the TweetComposer. Natural
    #: language is heavily collocational, which is what the context-aware
    #: models exploit; phrase_rate encodes that property.
    phrase_rate: float = 0.55
    common_word_rate: float = 0.25
    topic_concentration: float = 8.0

    retweet_policy: RetweetPolicy = field(default_factory=RetweetPolicy)
    noise: NoiseChannel = field(default_factory=NoiseChannel)

    def __post_init__(self) -> None:
        if self.n_users < 4:
            raise DataGenerationError(f"need at least 4 users, got {self.n_users}")
        if self.n_ticks < 1:
            raise DataGenerationError(f"need at least 1 tick, got {self.n_ticks}")
        total = self.seeker_fraction + self.balanced_fraction + self.producer_fraction
        if total > 1.0:
            raise DataGenerationError("role fractions must sum to <= 1")


class MicroblogDataset:
    """The simulated corpus plus O(1) per-user source views."""

    def __init__(
        self,
        users: Sequence[UserProfile],
        tweets: Sequence[Tweet],
        graph: SocialGraph,
        inventory: LanguageInventory,
        seen: dict[int, set[int]] | None = None,
    ):
        self.users = list(users)
        self.tweets = sorted(tweets, key=lambda t: (t.timestamp, t.tweet_id))
        self.graph = graph
        self.inventory = inventory
        #: Tweets each user actually read (attention is finite; the feed
        #: is bigger than what anyone looks at). Retweet decisions only
        #: happen on seen tweets, so negative test examples are sampled
        #: from here -- a seen-but-not-retweeted tweet is a genuine
        #: implicit rejection, an unseen one is not.
        self.seen: dict[int, set[int]] = seen if seen is not None else {}

        self._originals_by_author: dict[int, list[Tweet]] = {u.user_id: [] for u in users}
        self._retweets_by_author: dict[int, list[Tweet]] = {u.user_id: [] for u in users}
        self._by_id: dict[int, Tweet] = {}
        for tweet in self.tweets:
            self._by_id[tweet.tweet_id] = tweet
            bucket = self._retweets_by_author if tweet.is_retweet else self._originals_by_author
            bucket[tweet.author_id].append(tweet)

    # -- basics ------------------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.users)

    def user(self, user_id: int) -> UserProfile:
        return self.users[user_id]

    def tweet(self, tweet_id: int) -> Tweet:
        return self._by_id[tweet_id]

    # -- the five atomic representation sources ------------------------------

    def tweets_of(self, user_id: int) -> list[Tweet]:
        """T(u): the user's original tweets (retweets excluded)."""
        return list(self._originals_by_author[user_id])

    def retweets_of(self, user_id: int) -> list[Tweet]:
        """R(u): the user's retweets."""
        return list(self._retweets_by_author[user_id])

    def outgoing(self, user_id: int) -> list[Tweet]:
        """R(u) ∪ T(u): everything the user posted, in time order."""
        merged = self._originals_by_author[user_id] + self._retweets_by_author[user_id]
        return sorted(merged, key=lambda t: (t.timestamp, t.tweet_id))

    def _posts_of_users(self, user_ids: frozenset[int]) -> list[Tweet]:
        posts: list[Tweet] = []
        for uid in user_ids:
            posts.extend(self._originals_by_author[uid])
            posts.extend(self._retweets_by_author[uid])
        return sorted(posts, key=lambda t: (t.timestamp, t.tweet_id))

    def incoming(self, user_id: int) -> list[Tweet]:
        """E(u): all (re)tweets of the user's followees."""
        return self._posts_of_users(self.graph.followees(user_id))

    def followers_tweets(self, user_id: int) -> list[Tweet]:
        """F(u): all (re)tweets of the user's followers."""
        return self._posts_of_users(self.graph.followers(user_id))

    def reciprocal_tweets(self, user_id: int) -> list[Tweet]:
        """C(u): all (re)tweets of the user's reciprocal connections."""
        return self._posts_of_users(self.graph.reciprocal(user_id))

    # -- user classification ---------------------------------------------------

    def _n_posts(self, user_id: int) -> int:
        return len(self._originals_by_author[user_id]) + len(self._retweets_by_author[user_id])

    def posting_ratio(self, user_id: int) -> float:
        """Outgoing / incoming tweet count; ``inf`` with no incoming."""
        incoming = sum(self._n_posts(uid) for uid in self.graph.followees(user_id))
        if incoming == 0:
            return float("inf")
        return self._n_posts(user_id) / incoming

    def user_type(self, user_id: int) -> UserType:
        return UserType.from_posting_ratio(self.posting_ratio(user_id))

    def __repr__(self) -> str:
        n_retweets = sum(len(v) for v in self._retweets_by_author.values())
        return (
            f"MicroblogDataset({self.n_users} users, {len(self.tweets)} tweets, "
            f"{n_retweets} retweets)"
        )


def _build_profiles(
    config: DatasetConfig, inventory: LanguageInventory, rng: np.random.Generator
) -> tuple[list[UserProfile], list[str]]:
    """User profiles and their generator roles."""
    n = config.n_users
    n_seekers = int(round(n * config.seeker_fraction))
    n_balanced = int(round(n * config.balanced_fraction))
    n_producers = int(round(n * config.producer_fraction))
    n_lurkers = n - n_seekers - n_balanced - n_producers
    roles = (
        ["seeker"] * n_seekers
        + ["balanced"] * n_balanced
        + ["producer"] * n_producers
        + ["lurker"] * n_lurkers
    )
    rng.shuffle(roles)

    rates = {
        "seeker": config.seeker_tweet_rate,
        "balanced": config.balanced_tweet_rate,
        "producer": config.producer_tweet_rate,
        "lurker": config.lurker_tweet_rate,
    }
    profiles: list[UserProfile] = []
    languages = inventory.allocate_languages(n, rng)
    for user_id, role in enumerate(roles):
        focus = rng.choice(config.n_topics, size=config.interests_per_user, replace=False)
        alpha = np.full(config.n_topics, 0.05)
        alpha[focus] += 2.0
        interests = rng.dirichlet(alpha)
        language = languages[user_id]
        # Log-normal jitter keeps rates positive while varying users.
        rate = rates[role] * float(rng.lognormal(0.0, 0.25))
        affinity = float(rng.uniform(0.8, 1.2))
        if role == "lurker":
            affinity *= config.lurker_retweet_affinity
        profiles.append(
            UserProfile(
                user_id=user_id,
                interests=interests,
                language=language.name,
                tweet_rate=rate,
                retweet_affinity=affinity,
            )
        )
    return profiles, roles


def generate_dataset(
    config: DatasetConfig = DatasetConfig(),
    inventory: LanguageInventory | None = None,
) -> MicroblogDataset:
    """Run the simulation and return the indexed dataset.

    The simulation ticks through time. Each tick every user posts a
    Poisson number of original tweets; each fresh tweet is then offered
    to the author's followers, who retweet it according to the
    content-dependent :class:`~repro.twitter.behavior.RetweetPolicy`.
    Retweet cascades are one hop deep (followers of a retweeter see the
    retweet in their E(u) stream but do not re-retweet), which keeps the
    relevance labels tied to the *original* content.
    """
    rng = np.random.default_rng(config.seed)
    if inventory is None:
        inventory = default_inventory(seed=config.seed, n_topics=config.n_topics)
    elif inventory.n_topics != config.n_topics:
        raise DataGenerationError(
            f"inventory has {inventory.n_topics} topics but config wants {config.n_topics}"
        )

    profiles, roles = _build_profiles(config, inventory, rng)
    graph = generate_follow_graph(
        roles,
        rng,
        interests=[p.interests for p in profiles],
        homophily=config.homophily,
        languages=[p.language for p in profiles],
    )
    composer = TweetComposer(
        inventory,
        noise=config.noise,
        phrase_rate=config.phrase_rate,
        common_word_rate=config.common_word_rate,
        topic_concentration=config.topic_concentration,
    )
    policy = config.retweet_policy

    tweets: list[Tweet] = []
    already_retweeted: set[tuple[int, int]] = set()  # (user, original tweet)
    seen: dict[int, set[int]] = {p.user_id: set() for p in profiles}
    next_id = 0

    for tick in range(config.n_ticks):
        fresh: list[Tweet] = []
        for profile in profiles:
            for _ in range(int(rng.poisson(profile.tweet_rate))):
                mentionable = tuple(graph.followees(profile.user_id))
                composed = composer.compose(profile, rng, mentionable=mentionable)
                tweet = Tweet(
                    tweet_id=next_id,
                    author_id=profile.user_id,
                    text=composed.text,
                    timestamp=tick,
                    topic_mix=composed.topic_mix,
                )
                next_id += 1
                fresh.append(tweet)

        tweets.extend(fresh)

        # Retweet decisions: each user reads up to attention_budget fresh
        # tweets from her followees this tick and reposts per the policy.
        # Each fresh tweet's mix as an array, built once for all readers.
        fresh_by_author: dict[int, list[tuple[Tweet, np.ndarray]]] = {}
        for tweet in fresh:
            fresh_by_author.setdefault(tweet.author_id, []).append(
                (tweet, np.array(tweet.topic_mix))
            )

        for profile in profiles:
            readable: list[tuple[Tweet, np.ndarray]] = []
            for followee in graph.followees(profile.user_id):
                readable.extend(fresh_by_author.get(followee, ()))
            if not readable:
                continue
            if len(readable) > config.attention_budget:
                picks = rng.choice(len(readable), size=config.attention_budget, replace=False)
                readable = [readable[i] for i in picks]
            for tweet, mix in readable:
                seen[profile.user_id].add(tweet.tweet_id)
                key = (profile.user_id, tweet.tweet_id)
                if key in already_retweeted:
                    continue
                p = policy.probability(profile, mix)
                if profiles[tweet.author_id].language != profile.language:
                    p *= config.cross_language_retweet_rate
                if rng.random() < p:
                    already_retweeted.add(key)
                    tweets.append(
                        Tweet(
                            tweet_id=next_id,
                            author_id=profile.user_id,
                            text=tweet.text,
                            timestamp=tick,
                            retweet_of=tweet.tweet_id,
                            original_author_id=tweet.author_id,
                            topic_mix=tweet.topic_mix,
                        )
                    )
                    next_id += 1

    return MicroblogDataset(profiles, tweets, graph, inventory, seen=seen)


def select_user_groups(
    dataset: MicroblogDataset,
    group_size: int = 20,
    min_retweets: int = 10,
    producer_ratio_threshold: float = 2.0,
) -> dict[UserType, list[int]]:
    """Reproduce the paper's user-group selection (Section 4).

    Eligible users (enough retweets for a meaningful test set) are ranked
    by posting ratio. The ``group_size`` lowest ratios form IS; the
    ``group_size`` ratios closest to 1 form BU; users with ratio above
    ``producer_ratio_threshold`` form IP (capped at ``group_size``, as the
    paper found only 9 such users); the All-Users group unites the three
    plus the remaining highest-ratio users, as in the paper.
    """
    eligible = [
        u.user_id
        for u in dataset.users
        if len(dataset.retweets_of(u.user_id)) >= min_retweets
    ]
    if len(eligible) < 3:
        raise DataGenerationError(
            f"only {len(eligible)} users have >= {min_retweets} retweets; "
            "generate a bigger dataset or lower min_retweets"
        )
    ratios = {uid: dataset.posting_ratio(uid) for uid in eligible}
    by_ratio = sorted(eligible, key=lambda uid: ratios[uid])

    group_size = min(group_size, max(1, len(eligible) // 3))
    seekers = by_ratio[:group_size]
    rest = by_ratio[group_size:]
    balanced = sorted(rest, key=lambda uid: abs(ratios[uid] - 1.0))[:group_size]
    balanced_set = set(balanced)
    remaining = [uid for uid in rest if uid not in balanced_set]
    producers = [uid for uid in remaining if ratios[uid] > producer_ratio_threshold]
    producers = sorted(producers, key=lambda uid: -ratios[uid])[:group_size]

    # Seekers, balanced users, producers and the leftovers partition the
    # eligible users, so All Users is all of them.
    all_users = sorted(eligible)

    return {
        UserType.INFORMATION_SEEKER: seekers,
        UserType.BALANCED_USER: balanced,
        UserType.INFORMATION_PRODUCER: producers,
        UserType.ALL: all_users,
    }
