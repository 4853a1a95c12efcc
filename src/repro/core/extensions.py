"""Beyond tweet ranking: followee and hashtag recommendation.

The paper closes with "we plan to expand our comparative analysis to
other recommendation tasks for microblogging platforms, such as followees
and hashtag suggestions" (Section 7). Both tasks reuse the machinery
already built: a user model in some representation space, compared
against candidate models with the same similarity function.

* :class:`FolloweeRecommender` scores candidate *accounts*: each
  candidate is represented by the model of their posted content
  (their T ∪ R stream), ranked by similarity to the target user's
  model -- the content half of Hannon et al.'s Twittomender, one of the
  paper's references [31].
* :class:`HashtagRecommender` scores candidate *hashtags*: each hashtag
  is represented by the model of the tweets that carry it (hashtag
  pooling re-used as a profile), following Kywe et al. [40].
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.documents import DocumentFactory
from repro.errors import EmptyCorpusError
from repro.models.base import RepresentationModel
from repro.twitter.dataset import MicroblogDataset
from repro.twitter.entities import Tweet

__all__ = ["ScoredCandidate", "FolloweeRecommender", "HashtagRecommender"]


@dataclass(frozen=True)
class ScoredCandidate:
    """One recommendation: a candidate id and its similarity score."""

    candidate: int | str
    score: float


class FolloweeRecommender:
    """Suggest accounts to follow by content similarity.

    Parameters
    ----------
    dataset:
        The corpus; candidate users are profiled from their outgoing
        tweets.
    model:
        Any representation model; it is fitted on the union of all
        profiled users' tweets.
    min_candidate_tweets:
        Accounts with fewer posted tweets than this are not offered
        (nothing to profile them with).
    """

    def __init__(
        self,
        dataset: MicroblogDataset,
        model: RepresentationModel,
        min_candidate_tweets: int = 5,
        top_k_stop_words: int = 100,
    ):
        self.dataset = dataset
        self.model = model
        self.min_candidate_tweets = min_candidate_tweets
        self._factory = DocumentFactory(top_k_stop_words)
        self._profiles: dict[int, object] = {}
        self._fitted = False

    def fit(self) -> "FolloweeRecommender":
        """Profile every sufficiently active account."""
        eligible: dict[int, list[Tweet]] = {}
        for user in self.dataset.users:
            outgoing = self.dataset.outgoing(user.user_id)
            if len(outgoing) >= self.min_candidate_tweets:
                eligible[user.user_id] = outgoing
        if not eligible:
            raise EmptyCorpusError(
                f"no account has >= {self.min_candidate_tweets} tweets"
            )
        all_tweets = [t for tweets in eligible.values() for t in tweets]
        self._factory.fit(all_tweets)
        corpus = [self._factory.to_doc(t) for t in all_tweets]
        authors = [str(t.author_id) for t in all_tweets]
        self.model.fit(corpus, user_ids=authors)
        self._profiles = {
            uid: self.model.build_user_model(self._factory.to_docs(tweets))
            for uid, tweets in eligible.items()
        }
        self._fitted = True
        return self

    def recommend(self, user_id: int, k: int = 10) -> list[ScoredCandidate]:
        """Top-``k`` accounts the user does not already follow.

        The user herself and her existing followees are excluded;
        candidates are ranked by the similarity of their content profile
        to hers.
        """
        if not self._fitted:
            self.fit()
        if user_id not in self._profiles:
            raise EmptyCorpusError(
                f"user {user_id} has too few tweets to be profiled"
            )
        user_model = self.model.prepare_profile(self._profiles[user_id])
        already = self.dataset.graph.followees(user_id) | {user_id}
        scored = [
            ScoredCandidate(candidate=uid, score=float(self.model.score(user_model, profile)))
            for uid, profile in self._profiles.items()
            if uid not in already
        ]
        scored.sort(key=lambda c: (-c.score, c.candidate))
        return scored[:k]


class HashtagRecommender:
    """Suggest hashtags by content similarity.

    Every hashtag is profiled from the tweets that carry it; a user (or
    a draft tweet) is matched against those profiles.
    """

    def __init__(
        self,
        dataset: MicroblogDataset,
        model: RepresentationModel,
        min_tag_count: int = 3,
        top_k_stop_words: int = 100,
    ):
        self.dataset = dataset
        self.model = model
        self.min_tag_count = min_tag_count
        self._factory = DocumentFactory(top_k_stop_words)
        self._profiles: dict[str, object] = {}
        self._fitted = False

    def _tweets_by_tag(self) -> dict[str, list[Tweet]]:
        by_tag: dict[str, list[Tweet]] = {}
        for tweet in self.dataset.tweets:
            if tweet.is_retweet:
                continue  # retweets would double-count the original text
            for token in tweet.text.lower().split():
                if token.startswith("#"):
                    by_tag.setdefault(token, []).append(tweet)
        return {
            tag: tweets
            for tag, tweets in by_tag.items()
            if len(tweets) >= self.min_tag_count
        }

    def fit(self) -> "HashtagRecommender":
        """Profile every sufficiently frequent hashtag."""
        by_tag = self._tweets_by_tag()
        if not by_tag:
            raise EmptyCorpusError(
                f"no hashtag occurs >= {self.min_tag_count} times"
            )
        all_tweets = [t for tweets in by_tag.values() for t in tweets]
        self._factory.fit(all_tweets)
        corpus = [self._factory.to_doc(t) for t in all_tweets]
        authors = [str(t.author_id) for t in all_tweets]
        self.model.fit(corpus, user_ids=authors)
        self._profiles = {
            tag: self.model.build_user_model(self._factory.to_docs(tweets))
            for tag, tweets in by_tag.items()
        }
        self._fitted = True
        return self

    @property
    def known_tags(self) -> tuple[str, ...]:
        return tuple(sorted(self._profiles))

    def recommend_for_text(self, text: str, k: int = 5) -> list[ScoredCandidate]:
        """Top-``k`` hashtags for a draft tweet's text."""
        if not self._fitted:
            self.fit()
        doc = self._factory.to_doc(
            Tweet(tweet_id=-1, author_id=-1, text=text, timestamp=0)
        )
        target = self.model.represent(doc)
        scored = [
            ScoredCandidate(candidate=tag, score=float(self.model.score(profile, target)))
            for tag, profile in self._profiles.items()
        ]
        scored.sort(key=lambda c: (-c.score, c.candidate))
        return scored[:k]

    def recommend_for_user(self, user_id: int, k: int = 5) -> list[ScoredCandidate]:
        """Top-``k`` hashtags for a user, profiled from her own posts."""
        if not self._fitted:
            self.fit()
        outgoing = self.dataset.outgoing(user_id)
        if not outgoing:
            raise EmptyCorpusError(f"user {user_id} has no tweets to profile")
        user_model = self.model.prepare_profile(
            self.model.build_user_model(self._factory.to_docs(outgoing))
        )
        scored = [
            ScoredCandidate(candidate=tag, score=float(self.model.score(user_model, profile)))
            for tag, profile in self._profiles.items()
        ]
        scored.sort(key=lambda c: (-c.score, c.candidate))
        return scored[:k]
