"""Synthetic languages with topic-specific vocabularies.

The paper's corpus is highly multilingual (Table 3): ~83% English plus a
long tail led by Japanese, Chinese, Portuguese, Thai, French, Korean,
German, Indonesian and Spanish -- with three Asian scripts in the top
five. That multilingualism (Challenge C3) forbids language-specific
preprocessing and stresses tokenization, because CJK/Thai scripts do not
separate words with spaces.

This module synthesises languages that reproduce those properties:

* each language has its own **script** (a Unicode alphabet) and its own
  **syllable shapes**, so character n-gram profiles are separable (that
  is what real language detectors exploit);
* *spaceless* languages join all words of a sentence without separators,
  recreating the CJK/Thai tokenization hazard;
* each language materialises a vocabulary of **topic words** for every
  latent topic plus a shared pool of **common words** (function words) --
  the topical words are what make content-based recommendation possible,
  the common words are the noise the stop-word filter and IDF must fight.

Word frequencies inside a topic follow a Zipf law, matching natural
language and giving TF-IDF something real to do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DataGenerationError, ValidationError
from repro.twitter.sampling import categorical_cdf, draw

__all__ = ["SyntheticLanguage", "LanguageInventory", "DEFAULT_LANGUAGES", "default_inventory"]


@dataclass(frozen=True)
class SyntheticLanguage:
    """The static definition of one synthetic language.

    Attributes
    ----------
    name:
        Language name (used by the Table 3 census).
    consonants, vowels:
        Character inventories for syllable construction. For syllabic /
        ideographic scripts, ``vowels`` may be empty and ``consonants``
        act as the full symbol inventory.
    spaceless:
        Words are concatenated without spaces (CJK/Thai behaviour).
    min_syllables, max_syllables:
        Word length range in syllables.
    """

    name: str
    consonants: str
    vowels: str
    spaceless: bool = False
    min_syllables: int = 1
    max_syllables: int = 3

    def make_word(self, rng: np.random.Generator) -> str:
        """Sample one word from this language's syllable model."""
        n_syllables = int(rng.integers(self.min_syllables, self.max_syllables + 1))
        pieces: list[str] = []
        for _ in range(n_syllables):
            pieces.append(self.consonants[int(rng.integers(len(self.consonants)))])
            if self.vowels:
                pieces.append(self.vowels[int(rng.integers(len(self.vowels)))])
        return "".join(pieces)

    def join(self, words: list[str]) -> str:
        """Assemble words into running text under the script's rules."""
        separator = "" if self.spaceless else " "
        return separator.join(words)


def _script_range(start: int, count: int) -> str:
    return "".join(chr(start + i) for i in range(count))


#: Languages mirroring the paper's Table 3 top-10, with the same relative
#: frequencies. Scripts use the real Unicode blocks so that the C3
#: challenges (spaceless text, non-Latin characters) are faithfully
#: exercised.
DEFAULT_LANGUAGES: tuple[tuple[SyntheticLanguage, float], ...] = (
    (SyntheticLanguage("english", "bcdfghjklmnpqrstvwz", "aeiou"), 0.8271),
    (SyntheticLanguage("japanese", _script_range(0x3042, 40), "", spaceless=True), 0.0344),
    (SyntheticLanguage("chinese", _script_range(0x4E00, 80), "", spaceless=True,
                       min_syllables=1, max_syllables=2), 0.0171),
    (SyntheticLanguage("portuguese", "bcdfglmnprstvz", "aeiouãõ"), 0.0070),
    (SyntheticLanguage("thai", _script_range(0x0E01, 30), _script_range(0x0E30, 8),
                       spaceless=True), 0.0068),
    (SyntheticLanguage("french", "bcdfglmnprstvz", "aeiouéè"), 0.0062),
    (SyntheticLanguage("korean", _script_range(0xAC00, 60), "", spaceless=True), 0.0049),
    (SyntheticLanguage("german", "bcdfghklmnprstwz", "aeiouäöü"), 0.0024),
    (SyntheticLanguage("indonesian", "bcdghjklmnprstwy", "aeiou"), 0.0021),
    (SyntheticLanguage("spanish", "bcdfglmnprstvz", "aeiouñ"), 0.0005),
)


class LanguageInventory:
    """Materialised vocabularies for a set of languages over shared topics.

    The latent topics are language-independent concepts; every language
    renders each topic with its own words. A user tweeting about topic 3
    in Japanese and one tweeting about topic 3 in English produce
    different surface text for the same underlying interest, exactly as
    in the real multilingual corpus.

    Parameters
    ----------
    languages:
        ``(language, probability)`` pairs; probabilities are normalised.
    n_topics:
        Number of shared latent topics.
    words_per_topic:
        Vocabulary size per (language, topic) pair.
    n_common_words:
        Number of topic-independent function words per language.
    zipf_exponent:
        Exponent of the within-topic word frequency law.
    shared_word_fraction:
        Fraction of every topic's vocabulary drawn from a language-wide
        *shared* pool. Shared words are ambiguous -- they appear in
        several topics -- so unigram evidence alone cannot fully separate
        topics, exactly as in natural language.
    collocations_per_topic:
        Number of two-word collocations per topic, built from the
        topic's *unique* words. Collocations are what give the
        context-aware models (token bigrams, n-gram graphs) their edge
        over unigram evidence.
    seed:
        Reproducibility seed for vocabulary materialisation.
    """

    def __init__(
        self,
        languages: tuple[tuple[SyntheticLanguage, float], ...] = DEFAULT_LANGUAGES,
        n_topics: int = 12,
        words_per_topic: int = 120,
        n_common_words: int = 60,
        zipf_exponent: float = 0.9,
        shared_word_fraction: float = 0.5,
        collocations_per_topic: int = 20,
        seed: int = 0,
    ):
        if n_topics < 1:
            raise ValidationError(f"n_topics must be >= 1, got {n_topics}")
        if words_per_topic < 1:
            raise ValidationError(f"words_per_topic must be >= 1, got {words_per_topic}")
        if not 0.0 <= shared_word_fraction < 1.0:
            raise ValidationError(
                f"shared_word_fraction must be in [0, 1), got {shared_word_fraction}"
            )
        self.n_topics = n_topics
        self.words_per_topic = words_per_topic
        self.n_common_words = n_common_words
        self.shared_word_fraction = shared_word_fraction
        self.collocations_per_topic = collocations_per_topic
        rng = np.random.default_rng(seed)

        total = sum(p for _, p in languages)
        self._languages = [lang for lang, _ in languages]
        self._probabilities = np.array([p / total for _, p in languages])
        self._language_cdf = categorical_cdf(self._probabilities)
        self._by_name = {lang.name: lang for lang in self._languages}

        ranks = np.arange(1, words_per_topic + 1, dtype=float)
        weights = ranks ** (-zipf_exponent)
        self._zipf_cdf = categorical_cdf(weights / weights.sum())

        # topic_words[lang][topic] -> list of words; common_words[lang] -> list
        self._topic_words: dict[str, list[list[str]]] = {}
        self._common_words: dict[str, list[str]] = {}
        self._collocations: dict[str, list[list[tuple[str, str]]]] = {}
        self._successors: dict[str, list[dict[str, tuple[str, str]]]] = {}
        n_shared = int(round(words_per_topic * shared_word_fraction))
        n_unique = words_per_topic - n_shared
        for lang in self._languages:
            seen: set[str] = set()

            def fresh_word() -> str:
                # Rejection-sample until the word is new in this language,
                # so unique vocabularies do not alias each other.
                for _ in range(1000):
                    word = lang.make_word(rng)
                    if word not in seen:
                        seen.add(word)
                        return word
                raise DataGenerationError(
                    f"language {lang.name!r}: could not generate enough distinct words"
                )

            # The pool must be large enough that no single shared word is
            # frequent enough to fall to the corpus stop-word cut (the
            # pipeline removes the top-100 tokens); topics sample their
            # ambiguous slice from it and collocations reuse it.
            shared_pool = [fresh_word() for _ in range(max(n_shared, 1) * n_topics)]
            topics: list[list[str]] = []
            collocations: list[list[tuple[str, str]]] = []
            successors: list[dict[str, tuple[str, str]]] = []
            for _ in range(n_topics):
                unique = [fresh_word() for _ in range(n_unique)]
                ambiguous = (
                    [shared_pool[i] for i in rng.choice(len(shared_pool), size=n_shared,
                                                        replace=False)]
                    if n_shared
                    else []
                )
                vocab = unique + ambiguous
                # Shuffle so shared words are spread across Zipf ranks.
                rng.shuffle(vocab)
                topics.append(vocab)
                # Each topic gets a successor chain over its vocabulary:
                # every word is assigned two topic-specific successors.
                # Text generated by walking the chain has pervasive local
                # bigram structure, like natural language -- and because
                # shared words get *different* successors in different
                # topics, word order carries information that unigram
                # evidence cannot ("Bob sues Jim" vs "Jim sues Bob").
                succ: dict[str, tuple[str, str]] = {}
                for word in vocab:
                    # A single successor per word keeps the topic's edge
                    # inventory small enough that a user's training
                    # stream actually covers it (tweet-scale corpora are
                    # too small for richly branching chains).
                    a = vocab[int(rng.integers(len(vocab)))]
                    succ[word] = (a, a)
                successors.append(succ)
                # Collocations remain available as the chain's strongest
                # pairs (word -> first successor), capped per topic.
                pairs = [(w, s[0]) for w, s in succ.items()][:collocations_per_topic]
                collocations.append(pairs)
            self._topic_words[lang.name] = topics
            self._collocations[lang.name] = collocations
            self._successors[lang.name] = successors
            self._common_words[lang.name] = [fresh_word() for _ in range(n_common_words)]

    # -- lookups ---------------------------------------------------------------

    @property
    def languages(self) -> tuple[SyntheticLanguage, ...]:
        return tuple(self._languages)

    @property
    def language_names(self) -> tuple[str, ...]:
        return tuple(lang.name for lang in self._languages)

    def language(self, name: str) -> SyntheticLanguage:
        return self._by_name[name]

    def sample_language(self, rng: np.random.Generator) -> SyntheticLanguage:
        """Draw a language by its corpus frequency."""
        return self._languages[draw(self._language_cdf, rng)]

    def allocate_languages(
        self, n_users: int, rng: np.random.Generator
    ) -> list[SyntheticLanguage]:
        """Assign languages to ``n_users`` by largest-remainder quotas.

        IID sampling at small ``n`` routinely drops the long multilingual
        tail entirely; quota allocation keeps per-language counts as close
        to the configured frequencies as integers allow (so a 60-user
        corpus still reproduces the paper's Table 3 tail). The returned
        list is shuffled.
        """
        if n_users < 0:
            raise ValidationError(f"n_users must be >= 0, got {n_users}")
        quotas = self._probabilities * n_users
        counts = np.floor(quotas).astype(int)
        remainder = n_users - int(counts.sum())
        if remainder > 0:
            order = np.argsort(-(quotas - counts))
            for idx in order[:remainder]:
                counts[idx] += 1
        assigned = [
            lang
            for lang, count in zip(self._languages, counts)
            for _ in range(count)
        ]
        rng.shuffle(assigned)
        return assigned

    def topic_words(self, language: str, topic: int) -> list[str]:
        return self._topic_words[language][topic]

    def common_words(self, language: str) -> list[str]:
        return self._common_words[language]

    def sample_topic_word(self, language: str, topic: int, rng: np.random.Generator) -> str:
        """Draw a word from the (language, topic) Zipf distribution."""
        words = self._topic_words[language][topic]
        return words[draw(self._zipf_cdf, rng)]

    def sample_common_word(self, language: str, rng: np.random.Generator) -> str:
        words = self._common_words[language]
        return words[int(rng.integers(len(words)))]

    def successors(self, language: str, topic: int, word: str) -> tuple[str, str] | None:
        """The two chain successors of ``word`` in a topic, if any."""
        return self._successors[language][topic].get(word)

    def sample_chain(
        self,
        language: str,
        topic: int,
        rng: np.random.Generator,
        continue_probability: float = 0.55,
        max_length: int = 4,
    ) -> list[str]:
        """Walk the topic's successor chain from a Zipf-sampled start.

        Each step continues with ``continue_probability`` (geometric run
        lengths, as in natural phrases), picking one of the two
        topic-specific successors uniformly.
        """
        word = self.sample_topic_word(language, topic, rng)
        chain = [word]
        while len(chain) < max_length and rng.random() < continue_probability:
            nxt = self._successors[language][topic].get(chain[-1])
            if nxt is None:
                break
            chain.append(nxt[int(rng.integers(2))])
        return chain

    def collocations(self, language: str, topic: int) -> list[tuple[str, str]]:
        """The topic's fixed two-word collocations (may be empty)."""
        return list(self._collocations[language][topic])

    def sample_collocation(
        self, language: str, topic: int, rng: np.random.Generator
    ) -> tuple[str, str] | None:
        """Draw one collocation of a topic, or ``None`` if it has none."""
        pairs = self._collocations[language][topic]
        if not pairs:
            return None
        return pairs[int(rng.integers(len(pairs)))]

    def sample_texts(
        self, language: str, n_texts: int, words_per_text: int, rng: np.random.Generator
    ) -> list[str]:
        """Plain sample sentences, used to train the language detector."""
        lang = self._by_name[language]
        texts = []
        for _ in range(n_texts):
            words = [
                self.sample_topic_word(language, int(rng.integers(self.n_topics)), rng)
                if rng.random() < 0.7
                else self.sample_common_word(language, rng)
                for _ in range(words_per_text)
            ]
            texts.append(lang.join(words))
        return texts


def default_inventory(seed: int = 0, n_topics: int = 12) -> LanguageInventory:
    """The inventory used across examples and benchmarks."""
    return LanguageInventory(seed=seed, n_topics=n_topics)
