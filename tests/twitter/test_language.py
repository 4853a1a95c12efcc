"""Tests for the synthetic language inventory."""

from __future__ import annotations

import functools
import hashlib
import pickle

import numpy as np
import pytest

from repro.errors import DataGenerationError
from repro.twitter.dataset import DatasetConfig, generate_dataset
from repro.twitter.language import (
    DEFAULT_LANGUAGES,
    LanguageInventory,
    SyntheticLanguage,
    default_inventory,
)
from repro.twitter.stats import language_census


def eager_vocabularies(
    languages=DEFAULT_LANGUAGES,
    n_topics: int = 12,
    words_per_topic: int = 120,
    n_common_words: int = 60,
    shared_word_fraction: float = 0.5,
    collocations_per_topic: int = 20,
    seed: int = 0,
) -> dict[str, tuple]:
    """Every language's vocabulary, built up front in declaration order.

    The constructor loop the inventory ran before it built languages on
    first use, kept as the reference the lazy build must equal. Returns
    ``name -> (topic_words, common_words, successors, collocations)``.
    """
    rng = np.random.default_rng(seed)
    n_shared = int(round(words_per_topic * shared_word_fraction))
    n_unique = words_per_topic - n_shared
    tables = {}
    for lang, _ in languages:
        seen: set[str] = set()

        def fresh_word() -> str:
            for _ in range(1000):
                word = lang.make_word(rng)
                if word not in seen:
                    seen.add(word)
                    return word
            raise DataGenerationError(f"language {lang.name!r}: too few words")

        shared_pool = [fresh_word() for _ in range(max(n_shared, 1) * n_topics)]
        topics, collocations, successors = [], [], []
        for _ in range(n_topics):
            unique = [fresh_word() for _ in range(n_unique)]
            ambiguous = (
                [shared_pool[i] for i in rng.choice(len(shared_pool), size=n_shared,
                                                    replace=False)]
                if n_shared
                else []
            )
            vocab = unique + ambiguous
            rng.shuffle(vocab)
            topics.append(vocab)
            succ = {}
            for word in vocab:
                a = vocab[int(rng.integers(len(vocab)))]
                succ[word] = (a, a)
            successors.append(succ)
            collocations.append([(w, s[0]) for w, s in succ.items()][:collocations_per_topic])
        common = [fresh_word() for _ in range(n_common_words)]
        tables[lang.name] = (topics, common, successors, collocations)
    return tables


@functools.lru_cache(maxsize=None)
def _reference(seed: int, n_topics: int) -> dict[str, tuple]:
    return eager_vocabularies(seed=seed, n_topics=n_topics)


def vocabulary_tables(inventory: LanguageInventory, name: str) -> tuple:
    """One language's four tables, read through the public lookups."""
    topics = [inventory.topic_words(name, t) for t in range(inventory.n_topics)]
    successors = [
        {word: inventory.successors(name, t, word) for word in words}
        for t, words in enumerate(topics)
    ]
    collocations = [inventory.collocations(name, t) for t in range(inventory.n_topics)]
    return topics, inventory.common_words(name), successors, collocations


def built(inventory: LanguageInventory) -> set[str]:
    """The languages whose vocabularies the inventory has built so far."""
    return set(inventory._vocabularies)


def census_digest(dataset) -> str:
    """SHA-256 over the Table 3 census and every language's vocabulary."""
    h = hashlib.sha256()

    def put(*fields) -> None:
        h.update(repr(fields).encode())
        h.update(b"\n")

    put("census", sorted(language_census(dataset).items()))
    inventory = dataset.inventory
    for name in inventory.language_names:
        put("common", name, inventory.common_words(name))
        for t in range(inventory.n_topics):
            words = inventory.topic_words(name, t)
            put("topic", name, t, words)
            put("successors", name, t, [inventory.successors(name, t, w) for w in words])
            put("collocations", name, t, inventory.collocations(name, t))
    return h.hexdigest()


#: Taken before vocabularies were built on first use.
SMALL_CENSUS_DIGEST = "47e15ae9e96a9a8e79f04cdce420a0a91183ccc800aed66c11de50263ea1c74d"

_NAMES = [lang.name for lang, _ in DEFAULT_LANGUAGES]
_ORDERS = {
    "declaration": _NAMES,
    "last_first": _NAMES[::-1],
    "shuffled": [_NAMES[i] for i in np.random.default_rng(3).permutation(len(_NAMES))],
}


class TestSyntheticLanguage:
    def test_make_word_uses_script(self):
        lang = SyntheticLanguage("toy", "bc", "a")
        rng = np.random.default_rng(0)
        word = lang.make_word(rng)
        assert set(word) <= {"a", "b", "c"}

    def test_word_length_bounds(self):
        lang = SyntheticLanguage("toy", "bc", "a", min_syllables=2, max_syllables=2)
        rng = np.random.default_rng(0)
        assert len(lang.make_word(rng)) == 4  # 2 syllables x (C + V)

    def test_spaceless_join(self):
        spaced = SyntheticLanguage("a", "b", "a")
        spaceless = SyntheticLanguage("b", "b", "a", spaceless=True)
        assert spaced.join(["x", "y"]) == "x y"
        assert spaceless.join(["x", "y"]) == "xy"


class TestDefaults:
    def test_ten_default_languages(self):
        assert len(DEFAULT_LANGUAGES) == 10

    def test_english_dominates(self):
        by_name = {lang.name: p for lang, p in DEFAULT_LANGUAGES}
        assert by_name["english"] == max(by_name.values())

    def test_cjk_and_thai_are_spaceless(self):
        spaceless = {lang.name for lang, _ in DEFAULT_LANGUAGES if lang.spaceless}
        assert {"japanese", "chinese", "korean", "thai"} <= spaceless


class TestInventory:
    @pytest.fixture(scope="class")
    def inventory(self, two_language_inventory) -> LanguageInventory:
        return two_language_inventory

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LanguageInventory(n_topics=0)
        with pytest.raises(ValueError):
            LanguageInventory(words_per_topic=0)
        with pytest.raises(ValueError):
            LanguageInventory(shared_word_fraction=1.0)

    def test_topic_vocabularies_have_requested_size(self, inventory):
        for topic in range(inventory.n_topics):
            assert len(inventory.topic_words("alpha", topic)) == 30

    def test_unique_words_do_not_alias_across_topics(self, inventory):
        # Shared words may repeat across topics; the guarantee is that
        # every topic's vocabulary is internally distinct.
        for topic in range(inventory.n_topics):
            vocab = inventory.topic_words("alpha", topic)
            assert len(set(vocab)) == len(vocab)

    def test_languages_have_disjoint_vocabularies(self, inventory):
        words_a = {w for t in range(4) for w in inventory.topic_words("alpha", t)}
        words_b = {w for t in range(4) for w in inventory.topic_words("beta", t)}
        assert not words_a & words_b

    def test_sampling_respects_language(self, inventory):
        rng = np.random.default_rng(0)
        word = inventory.sample_topic_word("alpha", 0, rng)
        assert word in inventory.topic_words("alpha", 0)

    def test_language_frequencies_respected(self, inventory):
        rng = np.random.default_rng(0)
        names = [inventory.sample_language(rng).name for _ in range(500)]
        share_alpha = names.count("alpha") / len(names)
        assert 0.6 < share_alpha < 0.8  # configured 0.7

    def test_successor_chains_are_topic_specific(self, inventory):
        rng = np.random.default_rng(0)
        chain = inventory.sample_chain("alpha", 0, rng, continue_probability=1.0)
        vocab = set(inventory.topic_words("alpha", 0))
        assert set(chain) <= vocab
        assert len(chain) >= 2

    def test_chain_follows_successor_map(self, inventory):
        rng = np.random.default_rng(1)
        chain = inventory.sample_chain("alpha", 1, rng, continue_probability=1.0)
        for prev, nxt in zip(chain, chain[1:]):
            assert nxt in inventory.successors("alpha", 1, prev)

    def test_collocations_available(self, inventory):
        rng = np.random.default_rng(0)
        pair = inventory.sample_collocation("alpha", 0, rng)
        assert pair is not None
        assert pair in inventory.collocations("alpha", 0)

    def test_sample_texts_in_language_script(self, inventory):
        rng = np.random.default_rng(0)
        texts = inventory.sample_texts("beta", 5, 6, rng)
        assert len(texts) == 5
        allowed = set("klmnpraiu ")
        for text in texts:
            assert set(text) <= allowed

    def test_default_inventory_reproducible(self):
        a = default_inventory(seed=1, n_topics=4)
        b = default_inventory(seed=1, n_topics=4)
        assert a.topic_words("english", 0) == b.topic_words("english", 0)


class TestLazyInventory:
    """Vocabularies built on first use equal the up-front build."""

    @pytest.mark.parametrize("order", sorted(_ORDERS))
    @pytest.mark.parametrize("n_topics", [4, 12])
    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_any_lookup_order_equals_eager_build(self, seed, n_topics, order):
        inventory = LanguageInventory(seed=seed, n_topics=n_topics)
        assert built(inventory) == set()
        reference = _reference(seed, n_topics)
        for name in _ORDERS[order]:
            assert vocabulary_tables(inventory, name) == reference[name], name

    @pytest.mark.parametrize("n_topics", [4, 12])
    def test_half_built_inventory_survives_pickle(self, n_topics):
        inventory = LanguageInventory(seed=7, n_topics=n_topics)
        inventory.topic_words("portuguese", 0)
        assert built(inventory) == {"english", "japanese", "chinese", "portuguese"}
        restored = pickle.loads(pickle.dumps(inventory))
        assert built(restored) == built(inventory)
        reference = _reference(7, n_topics)
        for name in _ORDERS["shuffled"]:
            assert vocabulary_tables(restored, name) == reference[name], name
        assert built(restored) == set(_NAMES)

    def test_samplers_build_on_first_lookup(self):
        inventory = LanguageInventory(seed=0, n_topics=4)
        rng = np.random.default_rng(0)
        word = inventory.sample_chain("japanese", 1, rng)[0]
        assert built(inventory) == {"english", "japanese"}
        assert word in _reference(0, 4)["japanese"][0][1]

    def test_bench_scale_dataset_builds_its_users_languages(self):
        dataset = generate_dataset(DatasetConfig(n_users=48, n_ticks=120, seed=7))
        assert built(dataset.inventory) == {"english", "japanese", "chinese", "portuguese"}

    def test_ci_scale_dataset_builds_two_languages(self):
        dataset = generate_dataset(DatasetConfig(n_users=16, n_ticks=40, seed=4))
        assert built(dataset.inventory) == {"english", "japanese"}

    def test_census_and_vocabularies_unchanged(self, small_dataset):
        # The census trains its detector on every language, so it drives
        # the lazy build to completion.
        assert census_digest(small_dataset) == SMALL_CENSUS_DIGEST
        assert built(small_dataset.inventory) == set(small_dataset.inventory.language_names)

    def test_exhausted_alphabet_fails_on_first_lookup(self):
        roomy = SyntheticLanguage("roomy", "bcdfgh", "aeiou")
        tiny = SyntheticLanguage("tiny", "x", "", max_syllables=1)  # one word only
        languages = ((roomy, 0.5), (tiny, 0.3), (SyntheticLanguage("later", "kl", "a"), 0.2))
        inventory = LanguageInventory(
            languages=languages, n_topics=2, words_per_topic=6, n_common_words=3, seed=1
        )
        with pytest.raises(DataGenerationError, match="'tiny'"):
            inventory.topic_words("later", 0)
        assert built(inventory) == {"roomy"}
        reference = eager_vocabularies(
            languages[:1], n_topics=2, words_per_topic=6, n_common_words=3, seed=1
        )
        assert vocabulary_tables(inventory, "roomy") == reference["roomy"]
        with pytest.raises(DataGenerationError, match="'tiny'"):
            inventory.common_words("tiny")

    def test_unknown_language_raises_key_error_and_builds_nothing(self):
        inventory = LanguageInventory(seed=0, n_topics=4)
        rng = np.random.default_rng(0)
        with pytest.raises(KeyError):
            inventory.topic_words("klingon", 0)
        with pytest.raises(KeyError):
            inventory.sample_chain("klingon", 0, rng)
        assert built(inventory) == set()
