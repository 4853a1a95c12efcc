"""Core entities of the Twitter substrate: users, tweets, user types.

The simulator replaces the paper's 2009 Twitter corpus (see DESIGN.md,
"Substitutions"). Entities carry exactly the fields the paper's protocol
needs: authorship and timestamps (to reconstruct per-user timelines and
train/test phases), retweet provenance (to define R(u) and relevance
labels), and raw text (for the representation models).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ValidationError
from repro.twitter.sampling import categorical_cdf

__all__ = ["Tweet", "UserProfile", "UserType"]


class UserType(str, enum.Enum):
    """The paper's three user categories plus the umbrella group.

    Classified by the *posting ratio* -- outgoing tweets ``|R(u) ∪ T(u)|``
    divided by incoming tweets ``|E(u)|``:

    * IP (information producer): ratio > 2;
    * IS (information seeker):   ratio < 0.5;
    * BU (balanced user):        everything in between.
    """

    INFORMATION_PRODUCER = "IP"
    INFORMATION_SEEKER = "IS"
    BALANCED_USER = "BU"
    ALL = "All Users"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @classmethod
    def from_posting_ratio(cls, ratio: float) -> "UserType":
        """Classify a posting ratio per the paper's thresholds."""
        if ratio > 2.0:
            return cls.INFORMATION_PRODUCER
        if ratio < 0.5:
            return cls.INFORMATION_SEEKER
        return cls.BALANCED_USER


@dataclass(frozen=True)
class Tweet:
    """One (re)tweet.

    Attributes
    ----------
    tweet_id:
        Unique id, dense integers in posting order.
    author_id:
        The posting user.
    text:
        Raw text as "typed" -- including hashtags, mentions, URLs,
        emoticons and the noise channels' damage.
    timestamp:
        Simulation tick; strictly non-decreasing with ``tweet_id``.
    retweet_of:
        The original tweet's id when this is a retweet, else ``None``.
    original_author_id:
        The original author when this is a retweet, else ``None``.
    topic_mix:
        The latent topic mixture the text was generated from. This is
        *ground truth held out from every model* -- only the synthetic
        substrate and its tests may look at it.
    """

    tweet_id: int
    author_id: int
    text: str
    timestamp: int
    retweet_of: int | None = None
    original_author_id: int | None = None
    topic_mix: tuple[float, ...] = field(default=(), compare=False)

    @property
    def is_retweet(self) -> bool:
        return self.retweet_of is not None


@dataclass
class UserProfile:
    """A simulated user and her latent preferences.

    Attributes
    ----------
    user_id:
        Dense integer id.
    interests:
        Distribution over the substrate's latent topics; drives both
        what she tweets about and what she retweets.
    language:
        Name of her primary :class:`~repro.twitter.language.SyntheticLanguage`.
    tweet_rate:
        Expected number of original tweets per simulation tick.
    retweet_affinity:
        Multiplier on her base retweet propensity; higher means she
        reposts more of what matches her interests.

    ``interest_cdf`` and ``top_interest`` are derived from ``interests``
    on first use and kept, so ``interests`` must not change afterwards.
    """

    user_id: int
    interests: np.ndarray
    language: str
    tweet_rate: float
    retweet_affinity: float = 1.0

    def __post_init__(self) -> None:
        total = float(np.sum(self.interests))
        if total <= 0:
            raise ValidationError(f"user {self.user_id}: interests must have positive mass")
        self.interests = np.asarray(self.interests, dtype=float) / total

    @cached_property
    def interest_cdf(self) -> list[float]:
        """``interests`` as a CDF for :func:`repro.twitter.sampling.draw`."""
        return categorical_cdf(self.interests)

    @cached_property
    def top_interest(self) -> float:
        """The largest interest weight."""
        return float(np.max(self.interests))
