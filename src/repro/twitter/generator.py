"""Tweet text generation with Twitter's noise channels.

Produces the surface text of tweets from a user's latent interests,
reproducing the paper's four challenges:

* **C1 sparsity** -- tweets are a handful of words long;
* **C2 noise** -- a misspelling channel swaps or drops characters;
* **C3 multilingualism** -- text is rendered in the author's language,
  including spaceless scripts;
* **C4 non-standard language** -- emphatic lengthening ("yeeees"),
  vowel-dropping abbreviations, emoticons, hashtags, mentions and URLs.

Hashtags are rendered from a *global* per-topic tag list shared across
languages (as on real Twitter, where tags like ``#worldcup`` transcend
language), which is what makes hashtag pooling (HP) meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.twitter.entities import UserProfile
from repro.twitter.language import LanguageInventory
from repro.twitter.sampling import categorical_cdf, draw

__all__ = ["NoiseChannel", "TweetComposer", "ComposedText"]

_EMOTICON_POOL = (":)", ":(", ";)", ":d", ":p", "<3", ":o", ":/", ":s")

_VOWELS = set("aeiou")


@dataclass(frozen=True)
class NoiseChannel:
    """Stochastic corruption applied to individual words.

    Rates are per-word probabilities; the channels are mutually
    exclusive per word (at most one corruption), drawn in the order
    misspell, lengthen, abbreviate.
    """

    misspell_rate: float = 0.05
    lengthen_rate: float = 0.04
    abbreviate_rate: float = 0.03

    def __post_init__(self) -> None:
        total = self.misspell_rate + self.lengthen_rate + self.abbreviate_rate
        if not 0.0 <= total <= 1.0:
            raise ValidationError(f"noise rates must sum to <= 1, got {total}")

    def corrupt(self, word: str, rng: np.random.Generator) -> str:
        """Return ``word``, possibly damaged by one noise channel."""
        if len(word) < 2:
            return word
        draw = rng.random()
        if draw < self.misspell_rate:
            return self._misspell(word, rng)
        draw -= self.misspell_rate
        if draw < self.lengthen_rate:
            return self._lengthen(word, rng)
        draw -= self.lengthen_rate
        if draw < self.abbreviate_rate:
            return self._abbreviate(word)
        return word

    @staticmethod
    def _misspell(word: str, rng: np.random.Generator) -> str:
        """Swap two adjacent characters or drop one (C2)."""
        i = int(rng.integers(len(word) - 1))
        if rng.random() < 0.5:
            return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
        return word[:i] + word[i + 1 :]

    @staticmethod
    def _lengthen(word: str, rng: np.random.Generator) -> str:
        """Repeat one character 3-5 times (C4 emphatic lengthening)."""
        i = int(rng.integers(len(word)))
        repeats = int(rng.integers(3, 6))
        return word[:i] + word[i] * repeats + word[i + 1 :]

    @staticmethod
    def _abbreviate(word: str) -> str:
        """Drop interior vowels, e.g. "goodnight" -> "gdnght" (C4)."""
        if len(word) < 4:
            return word
        inner = "".join(c for c in word[1:-1] if c not in _VOWELS)
        abbreviated = word[0] + inner + word[-1]
        return abbreviated if len(abbreviated) >= 2 else word


@dataclass(frozen=True)
class ComposedText:
    """The output of :meth:`TweetComposer.compose`."""

    text: str
    topic_mix: tuple[float, ...]


class TweetComposer:
    """Renders tweets from user interests.

    Parameters
    ----------
    inventory:
        The language/topic vocabulary inventory.
    noise:
        The corruption channels (C2/C4).
    min_words, max_words:
        Tweet length range in content words (C1 sparsity).
    common_word_rate:
        Probability that a content word is a function word instead of a
        topical one.
    hashtag_rate, mention_rate, url_rate, emoticon_rate, question_rate:
        Decoration probabilities per tweet.
    topic_concentration:
        Dirichlet concentration of the per-tweet topic mix around the
        user's sampled focus topic; higher values give purer tweets.
    phrase_rate:
        Probability that a topical word is emitted as one of the topic's
        two-word collocations instead of a single word; collocations are
        the local-context signal that bigram and graph models exploit.
    """

    def __init__(
        self,
        inventory: LanguageInventory,
        noise: NoiseChannel | None = None,
        min_words: int = 5,
        max_words: int = 12,
        common_word_rate: float = 0.25,
        hashtag_rate: float = 0.25,
        mention_rate: float = 0.12,
        url_rate: float = 0.10,
        emoticon_rate: float = 0.15,
        question_rate: float = 0.08,
        topic_concentration: float = 8.0,
        phrase_rate: float = 0.25,
    ):
        if not 1 <= min_words <= max_words:
            raise ValidationError(f"need 1 <= min_words <= max_words, got {min_words}, {max_words}")
        self.inventory = inventory
        self.noise = noise if noise is not None else NoiseChannel()
        self.min_words = min_words
        self.max_words = max_words
        self.common_word_rate = common_word_rate
        self.hashtag_rate = hashtag_rate
        self.mention_rate = mention_rate
        self.url_rate = url_rate
        self.emoticon_rate = emoticon_rate
        self.question_rate = question_rate
        self.topic_concentration = topic_concentration
        self.phrase_rate = phrase_rate
        # Global hashtags: one per topic, shared across all languages,
        # rendered in the inventory's dominant language (English on real
        # Twitter, where tags like #worldcup transcend language).
        tag_language = inventory.language_names[0]
        self._hashtags = [
            "#" + inventory.topic_words(tag_language, topic)[0]
            for topic in range(inventory.n_topics)
        ]

    def hashtag_for_topic(self, topic: int) -> str:
        return self._hashtags[topic]

    def sample_topic_mix(self, profile: UserProfile, rng: np.random.Generator) -> np.ndarray:
        """One tweet's topic mixture: the user's interests, sharpened
        around a sampled focus topic."""
        k = self.inventory.n_topics
        focus = draw(profile.interest_cdf, rng)
        alpha = np.full(k, 0.1)
        alpha[focus] += self.topic_concentration
        return rng.dirichlet(alpha)

    def compose(
        self,
        profile: UserProfile,
        rng: np.random.Generator,
        mentionable: tuple[int, ...] = (),
        topic_mix: np.ndarray | None = None,
    ) -> ComposedText:
        """Generate one tweet's text for ``profile``.

        ``mentionable`` supplies user ids eligible for @-mentions
        (typically the author's followees). A precomputed ``topic_mix``
        may be passed (used when reconstructing quote-like rewrites);
        otherwise one is sampled from the profile.
        """
        lang_name = profile.language
        language = self.inventory.language(lang_name)
        if topic_mix is None:
            topic_mix = self.sample_topic_mix(profile, rng)
        topic_cdf = categorical_cdf(topic_mix)

        n_words = int(rng.integers(self.min_words, self.max_words + 1))
        words: list[str] = []
        while len(words) < n_words:
            if rng.random() < self.common_word_rate:
                words.append(self.noise.corrupt(
                    self.inventory.sample_common_word(lang_name, rng), rng))
                continue
            # Topical content arrives as a chain run: a walk over the
            # topic's successor graph, giving text the pervasive local
            # bigram structure of natural language.
            topic = draw(topic_cdf, rng)
            chain = self.inventory.sample_chain(
                lang_name, topic, rng, continue_probability=self.phrase_rate
            )
            words.extend(self.noise.corrupt(w, rng) for w in chain)

        body = language.join(words)
        pieces: list[str] = []

        if mentionable and rng.random() < self.mention_rate:
            target = int(rng.choice(len(mentionable)))
            pieces.append(f"@user{mentionable[target]}")
        pieces.append(body)
        if rng.random() < self.hashtag_rate:
            dominant = int(np.argmax(topic_mix))
            pieces.append(self._hashtags[dominant])
        if rng.random() < self.url_rate:
            pieces.append(f"http://t.co/{rng.integers(10**6):06d}")
        if rng.random() < self.emoticon_rate:
            pieces.append(_EMOTICON_POOL[int(rng.integers(len(_EMOTICON_POOL)))])
        if rng.random() < self.question_rate:
            pieces.append("?")

        return ComposedText(" ".join(pieces), tuple(topic_mix.tolist()))
