"""Retweet behaviour: the content-dependent relevance mechanism.

The paper's evaluation hinges on one assumption: *a user retweets what
she finds relevant*, so retweets are implicit relevance labels. For the
synthetic substrate to exercise the same code paths, retweet decisions
must depend on tweet **content** -- then, and only then, can a
content-based recommender out-rank chronological or random ordering.

:class:`RetweetPolicy` implements the decision: the probability that
user ``u`` retweets a tweet with topic mixture ``m`` is

    p = base · affinity_u · (⟨interests_u, m⟩ / max(interests_u))^sharpness

clipped to ``[0, max_probability]``. The normalised dot product is 1 for
a pure tweet on the user's top interest and near 0 for off-interest
content; ``sharpness`` controls how deterministic relevance is (the
ablation bench sweeps it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.twitter.entities import UserProfile

__all__ = ["RetweetPolicy"]


@dataclass(frozen=True)
class RetweetPolicy:
    """Content-driven retweet decisions.

    Parameters
    ----------
    base_probability:
        Probability of retweeting a maximally on-interest tweet for a
        user with affinity 1.
    sharpness:
        Exponent on the normalised interest/content match. Higher values
        make relevance more deterministic and widen the gap between
        content-based models and the RAN baseline.
    social_noise:
        Probability that a decision ignores content entirely (retweeting
        a friend's post out of courtesy, missing a relevant one). Real
        retweet behaviour is not purely content-driven, which is why no
        model reaches MAP = 1 in the paper; this is the knob that puts
        the same irreducible noise into the substrate.
    max_probability:
        Safety cap for users with large affinities.
    """

    base_probability: float = 0.9
    sharpness: float = 4.0
    social_noise: float = 0.1
    max_probability: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.base_probability <= 1.0:
            raise ValidationError(f"base_probability must be in (0, 1], got {self.base_probability}")
        if self.sharpness < 0.0:
            raise ValidationError(f"sharpness must be >= 0, got {self.sharpness}")
        if not 0.0 <= self.social_noise <= 1.0:
            raise ValidationError(f"social_noise must be in [0, 1], got {self.social_noise}")

    def match_score(self, profile: UserProfile, topic_mix: np.ndarray) -> float:
        """Normalised interest/content match in ``[0, 1]``."""
        top = profile.top_interest
        if top <= 0.0:
            return 0.0
        raw = float(np.dot(profile.interests, topic_mix))
        return min(1.0, raw / top)

    def probability(self, profile: UserProfile, topic_mix: np.ndarray) -> float:
        """Probability that ``profile`` retweets content with ``topic_mix``.

        A ``social_noise`` fraction of the decision mass is
        content-independent: its retweet probability is the *average*
        content-driven probability (approximated by the base probability
        scaled to a mid match), so noise changes who gets retweeted but
        not how much gets retweeted overall.
        """
        score = self.match_score(profile, topic_mix)
        content_p = self.base_probability * profile.retweet_affinity * score**self.sharpness
        noise_p = self.base_probability * profile.retweet_affinity * 0.5**self.sharpness
        p = (1.0 - self.social_noise) * content_p + self.social_noise * noise_p
        return min(self.max_probability, p)

    def decide(
        self, profile: UserProfile, topic_mix: np.ndarray, rng: np.random.Generator
    ) -> bool:
        """Sample the retweet decision."""
        return bool(rng.random() < self.probability(profile, topic_mix))
