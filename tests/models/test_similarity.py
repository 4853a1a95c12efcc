"""Tests for CS / JS / GJS vector similarities."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ValidationError
from repro.models.aggregation import AggregationFunction
from repro.models.bag import CharacterNGramModel, TokenNGramModel
from repro.models.similarity import (
    PreparedVector,
    VectorSimilarity,
    cosine_similarity,
    generalized_jaccard_similarity,
    jaccard_similarity,
    prepare_vector,
    vector_similarity_function,
)
from repro.models.weighting import WeightingScheme

sparse_vectors = st.dictionaries(
    st.sampled_from("abcdef"), st.floats(0.0, 10.0, allow_nan=False), max_size=6
)


class TestCosine:
    def test_identical_vectors(self):
        v = {"a": 1.0, "b": 2.0}
        assert math.isclose(cosine_similarity(v, v), 1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_scale_invariant(self):
        u = {"a": 1.0, "b": 3.0}
        v = {"a": 10.0, "b": 30.0}
        assert math.isclose(cosine_similarity(u, v), 1.0)

    def test_known_value(self):
        # cos between (1,1) and (1,0) is 1/sqrt(2)
        assert math.isclose(
            cosine_similarity({"a": 1.0, "b": 1.0}, {"a": 1.0}), 1 / math.sqrt(2)
        )

    def test_empty_vector_scores_zero(self):
        assert cosine_similarity({}, {"a": 1.0}) == 0.0
        assert cosine_similarity({}, {}) == 0.0

    @given(sparse_vectors, sparse_vectors)
    def test_symmetric_and_bounded(self, u, v):
        s1 = cosine_similarity(u, v)
        s2 = cosine_similarity(v, u)
        assert math.isclose(s1, s2, abs_tol=1e-12)
        assert -1e-9 <= s1 <= 1.0 + 1e-9


class TestJaccard:
    def test_identical_supports(self):
        assert jaccard_similarity({"a": 1.0, "b": 1.0}, {"a": 9.0, "b": 0.5}) == 1.0

    def test_disjoint(self):
        assert jaccard_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_partial_overlap(self):
        assert math.isclose(
            jaccard_similarity({"a": 1.0, "b": 1.0}, {"b": 1.0, "c": 1.0}), 1 / 3
        )

    def test_zero_weights_do_not_count(self):
        assert jaccard_similarity({"a": 0.0}, {"a": 1.0}) == 0.0

    def test_both_empty(self):
        assert jaccard_similarity({}, {}) == 0.0


class TestGeneralizedJaccard:
    def test_identical(self):
        v = {"a": 2.0, "b": 3.0}
        assert math.isclose(generalized_jaccard_similarity(v, v), 1.0)

    def test_known_value(self):
        # min sum = 1 + 0 = 1; max sum = 2 + 1 = 3
        u = {"a": 1.0, "b": 1.0}
        v = {"a": 2.0}
        assert math.isclose(generalized_jaccard_similarity(u, v), 1 / 3)

    def test_reduces_to_jaccard_on_binary(self):
        u = {"a": 1.0, "b": 1.0}
        v = {"b": 1.0, "c": 1.0}
        assert math.isclose(
            generalized_jaccard_similarity(u, v), jaccard_similarity(u, v)
        )

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            generalized_jaccard_similarity({"a": -1.0}, {"a": 1.0})

    def test_both_empty(self):
        assert generalized_jaccard_similarity({}, {}) == 0.0

    @given(sparse_vectors, sparse_vectors)
    def test_symmetric_and_bounded(self, u, v):
        s1 = generalized_jaccard_similarity(u, v)
        assert math.isclose(s1, generalized_jaccard_similarity(v, u), abs_tol=1e-12)
        assert 0.0 <= s1 <= 1.0


class TestDispatch:
    @pytest.mark.parametrize("measure,function", [
        (VectorSimilarity.COSINE, cosine_similarity),
        (VectorSimilarity.JACCARD, jaccard_similarity),
        (VectorSimilarity.GENERALIZED_JACCARD, generalized_jaccard_similarity),
    ])
    def test_lookup(self, measure, function):
        assert vector_similarity_function(measure) is function


# -- reference formulas: the whole-profile loops before profile preparation ----


def reference_cosine(u, v):
    if not u or not v:
        return 0.0
    if len(v) < len(u):
        u, v = v, u
    dot = sum(w * v[g] for g, w in u.items() if g in v)
    if dot == 0.0:
        return 0.0
    norm_u = math.sqrt(sum(w * w for w in u.values()))
    norm_v = math.sqrt(sum(w * w for w in v.values()))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    return dot / (norm_u * norm_v)


def reference_jaccard(u, v):
    support_u = {g for g, w in u.items() if w != 0.0}
    support_v = {g for g, w in v.items() if w != 0.0}
    if not support_u and not support_v:
        return 0.0
    return len(support_u & support_v) / len(support_u | support_v)


def reference_generalized_jaccard(u, v):
    num = 0.0
    den = 0.0
    for g in u.keys() | v.keys():
        wu = u.get(g, 0.0)
        wv = v.get(g, 0.0)
        if wu < 0.0 or wv < 0.0:
            raise ValidationError("generalized Jaccard requires non-negative weights")
        num += min(wu, wv)
        den += max(wu, wv)
    if den == 0.0:
        return 0.0
    return num / den


# Realistic TF / TF-IDF / Rocchio magnitudes: exact zeros are common,
# and nothing so small that a quotient underflows.
weights = st.one_of(st.just(0.0), st.floats(1e-6, 100.0))
signed_weights = st.one_of(weights, st.floats(-100.0, -1e-6))
grams = st.text("abcdefghij", min_size=1, max_size=2)
profiles = st.dictionaries(grams, weights, max_size=40)
tweets = st.dictionaries(grams, weights, max_size=12)
signed_profiles = st.dictionaries(grams, signed_weights, max_size=40)
signed_tweets = st.dictionaries(grams, signed_weights, max_size=12)

# Edge cases the generated cases must cover.
EMPTY = ({}, {"a": 1.0})
ZERO_WEIGHTS = ({"a": 0.0, "b": 2.0}, {"a": 3.0, "b": 0.0, "c": 1.0})
SMALL_PROFILE = ({"a": 1.5}, {"a": 2.0, "b": 1.0, "c": 4.0})


class TestPreparedMatchesReference:
    @given(signed_profiles, signed_tweets)
    @example(*EMPTY)
    @example(*reversed(EMPTY))
    @example(*ZERO_WEIGHTS)
    @example(*SMALL_PROFILE)
    def test_cosine_exact(self, u, v):
        expected = reference_cosine(u, v)
        assert cosine_similarity(u, v) == expected
        assert cosine_similarity(prepare_vector(u), v) == expected

    @given(signed_profiles, signed_tweets)
    @example(*EMPTY)
    @example(*reversed(EMPTY))
    @example(*ZERO_WEIGHTS)
    @example(*SMALL_PROFILE)
    def test_jaccard_exact(self, u, v):
        expected = reference_jaccard(u, v)
        assert jaccard_similarity(u, v) == expected
        assert jaccard_similarity(prepare_vector(u), v) == expected

    @given(profiles, tweets)
    @example(*EMPTY)
    @example(*reversed(EMPTY))
    @example(*ZERO_WEIGHTS)
    @example(*SMALL_PROFILE)
    def test_generalized_jaccard_within_1e12(self, u, v):
        expected = reference_generalized_jaccard(u, v)
        for got in (generalized_jaccard_similarity(u, v),
                    generalized_jaccard_similarity(prepare_vector(u), v)):
            assert math.isclose(got, expected, rel_tol=1e-12, abs_tol=0.0)

    @given(signed_profiles, signed_tweets)
    def test_negative_weight_on_either_side_raises(self, u, v):
        if not any(w < 0.0 for w in (*u.values(), *v.values())):
            return
        with pytest.raises(ValidationError):
            reference_generalized_jaccard(u, v)
        with pytest.raises(ValidationError):
            generalized_jaccard_similarity(u, v)
        with pytest.raises(ValidationError):
            generalized_jaccard_similarity(prepare_vector(u), v)

    def test_negative_profile_raises_even_without_shared_keys(self):
        with pytest.raises(ValidationError):
            generalized_jaccard_similarity(prepare_vector({"a": -1.0}), {"b": 1.0})
        with pytest.raises(ValidationError):
            generalized_jaccard_similarity({"a": 1.0}, {"b": -1.0})


class _ValuesCounter(dict):
    """A dict that counts full passes over its weights."""

    walks = 0

    def values(self):
        self.walks += 1
        return super().values()


class TestPrepareVector:
    def test_precomputed_terms(self):
        p = prepare_vector({"a": 3.0, "b": 0.0, "c": 4.0})
        assert (p.norm, p.support, p.total, p.has_negative) == (5.0, 2, 7.0, False)
        assert prepare_vector({"a": -1.0}).has_negative

    def test_idempotent(self):
        p = prepare_vector({"a": 1.0})
        assert prepare_vector(p) is p

    @pytest.mark.parametrize("measure", list(VectorSimilarity))
    def test_profile_walked_once_across_candidates(self, measure):
        # The first candidate computes the profile terms; later ones reuse them.
        profile = _ValuesCounter({"a": 1.0, "b": 2.0, "c": 0.0})
        p = prepare_vector(profile)
        similarity = vector_similarity_function(measure)
        similarity(p, {"a": 1.0})
        walks = profile.walks
        assert walks > 0
        for v in ({"b": 3.0, "d": 1.0}, {"c": 1.0, "a": 2.0}, {"a": 5.0}):
            similarity(p, v)
        assert profile.walks == walks

    @pytest.mark.parametrize("measure", list(VectorSimilarity))
    def test_no_shared_terms_skips_the_profile_terms(self, measure):
        profile = _ValuesCounter({"a": 1.0})
        similarity = vector_similarity_function(measure)
        assert similarity(profile, {"z": 1.0}) == 0.0
        assert profile.walks == (1 if measure is VectorSimilarity.GENERALIZED_JACCARD else 0)

    def test_slotted_with_read_only_terms(self):
        p = prepare_vector({"a": 1.0})
        assert not hasattr(p, "__dict__")
        with pytest.raises(AttributeError):
            p.norm = 2.0  # type: ignore[misc]
        assert isinstance(p, PreparedVector)


def _bag_configurations():
    for cls, n, weighting, aggregation, similarity in itertools.product(
        (TokenNGramModel, CharacterNGramModel), (1, 3),
        WeightingScheme, AggregationFunction, VectorSimilarity,
    ):
        try:
            yield cls(n=n, weighting=weighting, aggregation=aggregation, similarity=similarity)
        except ConfigurationError:
            continue


BAG_CONFIGURATIONS = list(_bag_configurations())


@pytest.mark.parametrize("model", BAG_CONFIGURATIONS, ids=repr)
def test_score_unchanged_by_prepare_profile(model, tiny_corpus):
    model.fit(tiny_corpus)
    labels = [1, 0, 1, 1, 0, 1]
    user_model = model.build_user_model(tiny_corpus[:4], labels=labels[:4])
    prepared = model.prepare_profile(user_model)
    assert isinstance(prepared, PreparedVector)
    for doc in tiny_corpus:
        v = model.represent(doc)
        assert model.score(user_model, v) == model.score(prepared, v)


def test_every_bag_family_cell_is_covered():
    # 2 values of n: TN has 12 valid (weighting, aggregation,
    # similarity) triples, CN drops the 5 TF-IDF ones.
    assert len(BAG_CONFIGURATIONS) == 2 * (12 + 7)


class TestGeneralizedJaccardHashSeed:
    """GJS must not depend on dict order or on ``PYTHONHASHSEED``."""

    @staticmethod
    def _vectors(seed: int = 3, count: int = 40):
        rng = random.Random(seed)
        vocab = [f"g{i}" for i in range(60)]
        pairs = []
        for _ in range(count):
            u = {g: rng.uniform(0.0, 5.0) / 7.0 for g in rng.sample(vocab, 30)}
            v = {g: rng.uniform(0.0, 5.0) / 3.0 for g in rng.sample(vocab, 8)}
            pairs.append((u, v))
        return pairs

    def test_insertion_order_does_not_matter(self):
        rng = random.Random(1)
        for u, v in self._vectors():
            u_items, v_items = list(u.items()), list(v.items())
            rng.shuffle(u_items)
            rng.shuffle(v_items)
            assert generalized_jaccard_similarity(dict(u_items), dict(v_items)) == (
                generalized_jaccard_similarity(u, v)
            )

    def test_identical_floats_across_hash_seeds(self):
        script = (
            "import json, sys\n"
            "from repro.models.similarity import generalized_jaccard_similarity as gjs\n"
            "print(json.dumps([gjs(u, v).hex() for u, v in json.load(sys.stdin)]))\n"
        )
        pairs = json.dumps(self._vectors())
        src = Path(__file__).resolve().parents[2] / "src"
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
            result = subprocess.run(
                [sys.executable, "-c", script], input=pairs, env=env,
                capture_output=True, text=True, check=True,
            )
            outputs.append(json.loads(result.stdout))
        assert outputs[0] == outputs[1]
        assert outputs[0] == [generalized_jaccard_similarity(u, v).hex() for u, v in self._vectors()]
