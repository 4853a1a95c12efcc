"""Tweet-aware tokenization.

The paper's protocol (Section 4, "Experimental Setup") prescribes a
language-agnostic pipeline applied to every tweet:

* lowercase the raw text;
* tokenize on white space and punctuation;
* keep URLs, hashtags, mentions and emoticons together as single tokens;
* squeeze repeated letters (emphatic lengthening, Challenge C4), e.g.
  ``"yeeees"`` becomes ``"yes"`` -- implemented as capping any run of the
  same character at two occurrences, the common Twitter-NLP convention;
* no stemming/lemmatization/POS tagging (the corpus is multilingual,
  Challenge C3).

The tokenizer in this module implements exactly that contract and nothing
more. Stop-word removal is a separate corpus-level concern handled by
:mod:`repro.text.preprocess`.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, partial

from repro.errors import ValidationError

__all__ = ["TweetTokenizer", "TOKEN_PATTERN", "squeeze_repeats", "EMOTICONS"]

#: Emoticons recognised as atomic tokens. The nine classes used for the
#: Labeled LDA labels (paper Section 4) are all covered here; the mapping
#: from emoticon to class lives in :mod:`repro.models.topic.labels`.
EMOTICONS: tuple[str, ...] = (
    ":)", ":-)", ":d", ":-d", ";)", ";-)", ":(", ":-(", ":p", ":-p",
    "<3", ":o", ":-o", ":/", ":-/", ":s", ":-s", "^_^", "xd", "=)",
)

# The alternation order matters: URLs and emoticons must win over bare
# punctuation; hashtags/mentions must win over word characters.
_EMOTICON_ALT = "|".join(re.escape(e) for e in sorted(EMOTICONS, key=len, reverse=True))
TOKEN_PATTERN = re.compile(
    r"(?:https?://\S+|www\.\S+)"      # URLs
    r"|(?:[#@][\w_]+)"                 # hashtags and mentions
    rf"|(?:{_EMOTICON_ALT})"           # emoticons
    r"|(?:\w+)"                        # word characters (unicode-aware)
    r"|(?:\?)"                         # question mark (an LLDA label)
)


@cache
def _run_squeezer(max_run: int) -> Callable[[str], str]:
    """The function capping runs of one character at ``max_run``.

    The replacement is a function rather than a ``\\1`` template, which
    ``re`` would expand afresh on every call.
    """
    if max_run < 1:
        raise ValidationError(f"max_run must be >= 1, got {max_run}")
    pattern = re.compile(r"(\w)\1{%d,}" % max_run)
    return partial(pattern.sub, lambda run: run.group(1) * max_run)


def squeeze_repeats(token: str, max_run: int = 2) -> str:
    """Cap runs of a repeated character at ``max_run`` occurrences.

    >>> squeeze_repeats("yeeees")
    'yees'
    >>> squeeze_repeats("good")
    'good'
    """
    return _run_squeezer(max_run)(token)


@dataclass(frozen=True)
class TweetTokenizer:
    """Language-agnostic tokenizer for microblog posts.

    Parameters
    ----------
    lowercase:
        Lowercase the text before tokenizing (paper default: True).
    squeeze:
        Squeeze emphatic character repetitions (paper default: True).
    max_run:
        Maximum allowed run of a repeated character when squeezing.
    """

    lowercase: bool = True
    squeeze: bool = True
    max_run: int = 2
    _pattern: re.Pattern = field(default=TOKEN_PATTERN, repr=False, compare=False)

    def tokenize(self, text: str) -> list[str]:
        """Return the list of tokens for ``text``.

        URLs, hashtags, mentions and emoticons survive as single tokens;
        everything else is split on whitespace and punctuation. The
        question mark is kept (it is one of the LLDA labels); all other
        bare punctuation is dropped.
        """
        if self.lowercase:
            text = text.lower()
        tokens = self._pattern.findall(text)
        if self.squeeze and tokens:
            squeeze = _run_squeezer(self.max_run)
            tokens = [tok if _is_special(tok) else squeeze(tok) for tok in tokens]
        return tokens

    def __call__(self, text: str) -> list[str]:
        return self.tokenize(text)


def _is_special(token: str) -> bool:
    """True for tokens whose internal characters must not be squeezed."""
    return token.startswith(("#", "@", "http", "www.")) or token in EMOTICONS
