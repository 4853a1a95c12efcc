"""Tests for the tweet-aware tokenizer."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.tokenizer import EMOTICONS, TweetTokenizer, _is_special, squeeze_repeats


@pytest.fixture()
def tokenizer() -> TweetTokenizer:
    return TweetTokenizer()


class TestBasicTokenization:
    def test_splits_on_whitespace(self, tokenizer):
        assert tokenizer("hello world") == ["hello", "world"]

    def test_lowercases(self, tokenizer):
        assert tokenizer("Hello WORLD") == ["hello", "world"]

    def test_lowercase_disabled(self):
        tok = TweetTokenizer(lowercase=False)
        assert tok("Hello") == ["Hello"]

    def test_splits_on_punctuation(self, tokenizer):
        assert tokenizer("hello,world.again") == ["hello", "world", "again"]

    def test_empty_string(self, tokenizer):
        assert tokenizer("") == []

    def test_whitespace_only(self, tokenizer):
        assert tokenizer("  \t\n ") == []

    def test_unicode_words_survive(self, tokenizer):
        # CJK-like scripts are \w in Python's re, so a spaceless sentence
        # becomes a single token -- the C3 tokenization hazard.
        tokens = tokenizer("こんにちは世界")
        assert tokens == ["こんにちは世界"]


class TestSpecialTokens:
    def test_hashtag_kept_together(self, tokenizer):
        assert tokenizer("i love #edbt conference") == ["i", "love", "#edbt", "conference"]

    def test_mention_kept_together(self, tokenizer):
        assert tokenizer("cc @alice_b hello") == ["cc", "@alice_b", "hello"]

    def test_url_kept_together(self, tokenizer):
        tokens = tokenizer("read http://t.co/abc123 now")
        assert "http://t.co/abc123" in tokens

    def test_www_url_kept_together(self, tokenizer):
        tokens = tokenizer("see www.example.com/page today")
        assert any(t.startswith("www.example.com") for t in tokens)

    @pytest.mark.parametrize("emoticon", [":)", ":(", ";)", "<3", ":/"])
    def test_emoticons_survive(self, tokenizer, emoticon):
        assert emoticon in tokenizer(f"nice day {emoticon} indeed")

    def test_question_mark_kept(self, tokenizer):
        # "?" is one of the Labeled LDA labels, so it must survive.
        assert "?" in tokenizer("really ?")

    def test_other_punctuation_dropped(self, tokenizer):
        assert tokenizer("wow !!! ...") == ["wow"]


class TestSqueezing:
    def test_emphatic_lengthening_squeezed(self, tokenizer):
        assert tokenizer("yeeeees") == ["yees"]

    def test_double_letters_kept(self, tokenizer):
        # Runs of exactly two are legitimate spelling ("good", "seen").
        assert tokenizer("good seen") == ["good", "seen"]

    def test_hashtags_not_squeezed(self, tokenizer):
        assert tokenizer("#loool") == ["#loool"]

    def test_urls_not_squeezed(self, tokenizer):
        tokens = tokenizer("http://t.co/aaa111")
        assert tokens == ["http://t.co/aaa111"]

    def test_squeeze_disabled(self):
        tok = TweetTokenizer(squeeze=False)
        assert tok("yeeeees") == ["yeeeees"]


class TestSqueezeRepeatsFunction:
    def test_caps_runs(self):
        assert squeeze_repeats("aaaa") == "aa"

    def test_max_run_one(self):
        assert squeeze_repeats("aaaa", max_run=1) == "a"

    def test_invalid_max_run(self):
        with pytest.raises(ValueError):
            squeeze_repeats("abc", max_run=0)

    @pytest.mark.parametrize("max_run", [1, 2, 3, 4])
    def test_matches_the_uncompiled_pattern(self, max_run):
        # squeeze_repeats used to run re.sub with a pattern string and a
        # backslash template; the cached squeezer must agree with it.
        def uncompiled(token: str) -> str:
            return re.sub(r"(\w)\1{%d,}" % max_run, r"\1" * max_run, token)

        tokens = [
            "yeeeees", "gooood", "ééééé", "ßßßßtraße", "日日日日本", "ддддаааа", "1111122",
            "2019", "a___b", "__init__", "x1__11__1", "aAaAaaa", "", "a", "aa", "aaa",
            ":)", ":-)))", "^_^", "xddd", "<3", "heyyy!!!", "#sooo", "@zzzz",
        ]
        for token in tokens:
            assert squeeze_repeats(token, max_run) == uncompiled(token)
        text = " ".join(tokens)
        expected = [
            tok if _is_special(tok) else uncompiled(tok)
            for tok in TweetTokenizer(squeeze=False).tokenize(text)
        ]
        assert TweetTokenizer(max_run=max_run).tokenize(text) == expected

    @given(st.text(alphabet="abc", max_size=30), st.integers(1, 3))
    def test_never_longer_and_no_long_runs(self, text, max_run):
        out = squeeze_repeats(text, max_run=max_run)
        assert len(out) <= len(text)
        for i in range(len(out) - max_run):
            run = out[i : i + max_run + 1]
            assert len(set(run)) > 1  # no run exceeds max_run

    @given(st.text(alphabet="abcde", max_size=30))
    def test_idempotent(self, text):
        once = squeeze_repeats(text)
        assert squeeze_repeats(once) == once


class TestTokenizerProperties:
    @given(st.text(max_size=200))
    def test_never_crashes_and_tokens_nonempty(self, text):
        tokens = TweetTokenizer()(text)
        assert all(isinstance(t, str) and t for t in tokens)

    @given(st.lists(st.sampled_from(list(EMOTICONS)), min_size=1, max_size=5))
    def test_all_emoticons_roundtrip(self, emoticons):
        text = " ".join(emoticons)
        assert TweetTokenizer()(text) == emoticons
