"""Tests for n-gram graphs and the TNG/CNG models."""

from __future__ import annotations

import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.replay import profile_digest
from repro.models.base import TextDoc
from repro.models.graph import (
    CharacterNGramGraphModel,
    NGramGraph,
    TokenNGramGraphModel,
    containment_similarity,
    normalized_value_similarity,
    value_similarity,
)
from repro.text.ngrams import char_ngrams


def doc(text: str) -> TextDoc:
    return TextDoc.from_tokens(tuple(text.split()))


class TestGraphConstruction:
    def test_window_one_connects_adjacent(self):
        g = NGramGraph.from_ngrams(["a", "b", "c"], window=1)
        assert g.weight("a", "b") == 1.0
        assert g.weight("b", "c") == 1.0
        assert g.weight("a", "c") == 0.0

    def test_window_two_connects_skip_pairs(self):
        g = NGramGraph.from_ngrams(["a", "b", "c"], window=2)
        assert g.weight("a", "c") == 1.0

    def test_weights_count_cooccurrences(self):
        g = NGramGraph.from_ngrams(["a", "b", "a", "b"], window=1)
        assert g.weight("a", "b") == 3.0

    def test_undirected(self):
        g = NGramGraph.from_ngrams(["x", "y"], window=1)
        assert g.weight("x", "y") == g.weight("y", "x")

    def test_empty_sequence(self):
        assert len(NGramGraph.from_ngrams([], window=1)) == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            NGramGraph.from_ngrams(["a"], window=0)

    def test_size_is_edge_count(self):
        g = NGramGraph.from_ngrams(["a", "b", "c"], window=1)
        assert len(g) == 2

    def test_contains_edge(self):
        g = NGramGraph.from_ngrams(["a", "b"], window=1)
        assert ("a", "b") in g
        assert ("b", "a") in g  # canonical form
        assert ("a", "z") not in g

    def test_equality(self):
        g1 = NGramGraph.from_ngrams(["a", "b"], window=1)
        g2 = NGramGraph.from_ngrams(["a", "b"], window=1)
        assert g1 == g2


class TestInterning:
    TEXTS = ["naïve café crème", "café au lait", "crème brûlée"]

    def fixed_graph(self) -> NGramGraph:
        return NGramGraph.merge_all(
            [NGramGraph.from_ngrams(char_ngrams(t, 3), 3) for t in self.TEXTS]
        )

    @staticmethod
    def run_python(script: str, stdin: bytes = b"") -> dict:
        """Run ``script`` in a fresh interpreter; returns its JSON output."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
        result = subprocess.run(
            [sys.executable, "-c", script], input=stdin, env=env,
            capture_output=True, check=True,
        )
        return json.loads(result.stdout)

    def test_lookups_do_not_grow_the_table(self):
        g = NGramGraph.from_ngrams(["a", "b"], window=1)
        size = len(g._table.grams)
        assert g.weight("a", "never seen ∂") == 0.0
        assert ("never seen ∫", "b") not in g
        assert len(g._table.grams) == size

    def test_edges_are_canonical_string_pairs_in_insertion_order(self):
        g = NGramGraph.from_ngrams(["b", "a", "c", "a"], window=1)
        assert list(g.edges()) == [(("a", "b"), 1.0), (("a", "c"), 2.0)]

    def test_digest_matches_tuple_keyed_graphs(self):
        # Taken from the tuple-keyed graphs: ids never reach a digest.
        assert profile_digest(self.fixed_graph()) == "cd07392eb5eef358"

    def test_pickle_round_trip(self):
        g = self.fixed_graph()
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g
        assert list(copy.edges()) == list(g.edges())

    def test_pickle_crosses_a_process_numbering_grams_differently(self):
        out = self.run_python(
            "import json, pickle, sys\n"
            "from repro.experiments.replay import profile_digest\n"
            "from repro.models.graph import NGramGraph\n"
            "from repro.text.ngrams import char_ngrams\n"
            f"texts = {self.TEXTS!r}\n"
            "grams = sorted({g for t in texts for g in char_ngrams(t, 3)}, reverse=True)\n"
            "numbering = NGramGraph.from_ngrams(grams, 1)  # number the grams in another order\n"
            "received = pickle.loads(sys.stdin.buffer.read())\n"
            "built = NGramGraph.merge_all([NGramGraph.from_ngrams(char_ngrams(t, 3), 3) for t in texts])\n"
            "print(json.dumps({'equal': received == built,\n"
            "                  'edges': list(received.edges()) == list(built.edges()),\n"
            "                  'digest': profile_digest(received),\n"
            "                  'keys': list(received._edges)}))\n",
            pickle.dumps(self.fixed_graph()),
        )
        g = self.fixed_graph()
        assert out["keys"] != list(g._edges)  # the other process numbered differently
        assert out["equal"] and out["edges"]
        assert out["digest"] == profile_digest(g)

    def test_table_lives_as_long_as_its_graphs(self):
        out = self.run_python(
            "import gc, json, weakref\n"
            "from repro.models.graph import NGramGraph\n"
            "g = NGramGraph.from_ngrams(['a', 'b', 'c'], 1)\n"
            "table = weakref.ref(g._table)\n"
            "user = NGramGraph.merge_all([g])\n"
            "del g\n"
            "held = table() is not None\n"
            "del user\n"
            "gc.collect()\n"
            "freed = table() is None\n"
            "fresh = NGramGraph.from_ngrams(['c', 'd'], 1)\n"
            "print(json.dumps({'held': held, 'freed': freed, 'grams': fresh._table.grams,\n"
            "                  'edges': list(fresh.edges())}))\n"
        )
        assert out["held"] and out["freed"]
        assert out["grams"] == ["c", "d"]
        assert out["edges"] == [[["c", "d"], 1.0]]


class TestUpdateOperator:
    def test_learning_factor_one_adopts_other(self):
        g1 = NGramGraph({("a", "b"): 2.0})
        g2 = NGramGraph({("a", "b"): 4.0})
        merged = g1.updated(g2, learning_factor=1.0)
        assert merged.weight("a", "b") == 4.0

    def test_half_factor_averages(self):
        g1 = NGramGraph({("a", "b"): 2.0})
        g2 = NGramGraph({("a", "b"): 4.0})
        merged = g1.updated(g2, learning_factor=0.5)
        assert merged.weight("a", "b") == 3.0

    def test_new_edges_adopted_scaled(self):
        g1 = NGramGraph({("a", "b"): 1.0})
        g2 = NGramGraph({("c", "d"): 1.0})
        merged = g1.updated(g2, learning_factor=0.5)
        assert merged.weight("a", "b") == 1.0
        assert merged.weight("c", "d") == 0.5

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            NGramGraph().updated(NGramGraph(), learning_factor=0.0)

    def test_merge_all_running_average_identical_graphs(self):
        g = NGramGraph({("a", "b"): 3.0})
        merged = NGramGraph.merge_all([g, g, g])
        assert math.isclose(merged.weight("a", "b"), 3.0)

    def test_merge_all_empty(self):
        assert len(NGramGraph.merge_all([])) == 0

    def test_merge_preserves_edge_union(self):
        g1 = NGramGraph({("a", "b"): 1.0})
        g2 = NGramGraph({("c", "d"): 1.0})
        merged = NGramGraph.merge_all([g1, g2])
        assert ("a", "b") in merged and ("c", "d") in merged


class TestSimilarities:
    g_abc = NGramGraph.from_ngrams(["a", "b", "c"], window=1)  # edges ab, bc
    g_ab = NGramGraph.from_ngrams(["a", "b"], window=1)  # edge ab
    g_xy = NGramGraph.from_ngrams(["x", "y"], window=1)

    def test_containment_full(self):
        assert containment_similarity(self.g_ab, self.g_abc) == 1.0

    def test_containment_disjoint(self):
        assert containment_similarity(self.g_ab, self.g_xy) == 0.0

    def test_containment_ignores_weights(self):
        heavy = NGramGraph({("a", "b"): 99.0})
        assert containment_similarity(heavy, self.g_ab) == 1.0

    def test_value_similarity_weight_aware(self):
        half = NGramGraph({("a", "b"): 0.5})
        # min/max ratio = 0.5, normalised by max size (1) -> 0.5
        assert math.isclose(value_similarity(half, self.g_ab), 0.5)

    def test_value_normalised_by_larger(self):
        # shared edge ab (ratio 1), sizes 1 and 2 -> 1/2
        assert math.isclose(value_similarity(self.g_ab, self.g_abc), 0.5)

    def test_ns_normalised_by_smaller(self):
        assert math.isclose(normalized_value_similarity(self.g_ab, self.g_abc), 1.0)

    def test_identical_graphs_max_similarity(self):
        for fn in (containment_similarity, value_similarity, normalized_value_similarity):
            assert math.isclose(fn(self.g_abc, self.g_abc), 1.0)

    def test_empty_graph_scores_zero(self):
        empty = NGramGraph()
        for fn in (containment_similarity, value_similarity, normalized_value_similarity):
            assert fn(empty, self.g_ab) == 0.0

    @given(st.lists(st.sampled_from("abcd"), min_size=2, max_size=12),
           st.lists(st.sampled_from("abcd"), min_size=2, max_size=12))
    def test_similarities_symmetric_and_bounded(self, s1, s2):
        g1 = NGramGraph.from_ngrams(s1, window=2)
        g2 = NGramGraph.from_ngrams(s2, window=2)
        for fn in (containment_similarity, value_similarity, normalized_value_similarity):
            v = fn(g1, g2)
            assert math.isclose(v, fn(g2, g1), abs_tol=1e-12)
            assert 0.0 <= v <= 1.0 + 1e-9


class TestGraphModels:
    def test_tng_window_equals_n(self):
        model = TokenNGramGraphModel(n=2)
        g = model.represent(doc("a b c d"))
        # 2-grams: "a b","b c","c d"; window 2 connects all pairs within 2
        assert ("a b", "b c") in g
        assert ("a b", "c d") in g

    def test_cng_works_on_text(self):
        model = CharacterNGramGraphModel(n=2)
        g = model.represent(TextDoc(text="abcd", tokens=("abcd",)))
        assert ("ab", "bc") in g

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            TokenNGramGraphModel(n=0)

    def test_user_model_merges(self):
        model = TokenNGramGraphModel(n=1)
        um = model.build_user_model([doc("a b"), doc("c d")])
        assert ("a", "b") in um and ("c", "d") in um

    def test_labels_filter_to_positives(self):
        model = TokenNGramGraphModel(n=1)
        um = model.build_user_model([doc("a b"), doc("c d")], labels=[1, 0])
        assert ("a", "b") in um
        assert ("c", "d") not in um

    def test_scoring_separates_topics(self):
        model = TokenNGramGraphModel(n=1)
        um = model.build_user_model([doc("cats chase mice"), doc("cats chase birds")])
        on_topic = model.score(um, model.represent(doc("cats chase rabbits")))
        off_topic = model.score(um, model.represent(doc("stock market news")))
        assert on_topic > off_topic

    def test_describe(self):
        model = TokenNGramGraphModel(n=3, similarity="NS")
        assert model.describe() == {"model": "TNG", "n": 3, "similarity": "NS"}

    def test_fit_is_noop(self, tiny_corpus):
        model = CharacterNGramGraphModel(n=3)
        assert model.fit(tiny_corpus) is model
