import functools
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from botdetect import tokenizer
from botdetect.tokenizer import TAG_SET, tokenize

from golden_tokenizer import GOLDEN_CASES, REPEAT_CASES, REPEAT_OFF_CASES
from helpers import plain_words
from oracles import lookbehind_tokenize


@pytest.mark.parametrize("text,expected", GOLDEN_CASES, ids=lambda v: repr(v)[:40])
def test_golden(text, expected):
    if isinstance(text, str) and isinstance(expected, list):
        assert tokenize(text) == expected


@pytest.mark.parametrize("text,expected", REPEAT_CASES)
def test_repeat_tag_enabled(text, expected):
    assert tokenize(text, repeat_tag=True) == expected


@pytest.mark.parametrize("text,expected", REPEAT_OFF_CASES)
def test_repeat_tag_disabled_by_default(text, expected):
    assert tokenize(text) == expected


def test_golden_corpus_is_large_enough():
    assert len(GOLDEN_CASES) >= 40


@given(st.text(max_size=80))
@settings(max_examples=150, deadline=None)
def test_deterministic(text):
    assert tokenize(text) == tokenize(text)


@given(st.text(max_size=80))
@settings(max_examples=150, deadline=None)
def test_closure(text):
    for token in tokenize(text):
        if token in TAG_SET:
            continue
        assert token == token.lower()
        assert not any(ch.isspace() for ch in token)


@given(st.text(max_size=80))
@example("HHh")  # a mixed-case run: found only once the token is lowercased
@settings(max_examples=150, deadline=None)
def test_idempotent_on_plain_words(text):
    words = plain_words(tokenize(text))
    assert tokenize(" ".join(words)) == words


# Pieces of text around which the mention and hashtag lookbehinds and the
# URL pattern's branches decide: word and non-word characters, whitespace,
# letters that are unusual in case or class (ß, the long s ſ, which folds to
# s, the Arabic-Indic digit ١), a combining mark, an emoji, and URL openings
# in mixed case, whole and in parts.
_EDGE_PIECES = list("@#_09aZ.:/ \t\né١ßſ\u0301\U0001f602") + [
    "http://", "www.", "https://", "HTTP://", "httpſ://", "WwW.", "ttp", "ww.", "h", "w", "://"]


def test_literal_first_patterns_match_the_oracle_on_golden_texts():
    texts = [text for text, _ in GOLDEN_CASES + REPEAT_CASES + REPEAT_OFF_CASES
             if isinstance(text, str)]
    for repeat_tag in (False, True):
        assert [tokenize(t, repeat_tag=repeat_tag) for t in texts] == \
            [lookbehind_tokenize(t, repeat_tag) for t in texts]


@given(st.lists(st.sampled_from(_EDGE_PIECES), max_size=40).map("".join), st.booleans())
@example("a@b @c #d e#f @@g ##h _@i ١#j", False)
@settings(max_examples=500, deadline=None)
def test_literal_first_patterns_match_the_lookbehind_oracle(text, repeat_tag):
    assert tokenize(text, repeat_tag=repeat_tag) == lookbehind_tokenize(text, repeat_tag)


def test_no_code_point_but_h_and_w_folds_to_the_url_patterns_first_character():
    # The URL pattern opens case-sensitively with [hHwW] where the whole
    # pattern was once case-insensitive: that loses no match only if no
    # other code point matches h or w under IGNORECASE.
    folded = re.compile("(?i)[hw]")
    assert [chr(c) for c in range(sys.maxunicode + 1) if folded.fullmatch(chr(c))] == \
        sorted("hHwW")


def test_word_order_preserved():
    tokens = tokenize("alpha #Tag beta GAMMA delta")
    assert plain_words(tokens) == ["alpha", "tag", "beta", "gamma", "delta"]


_EMOTICONS = (":)", ":-(", "<3", ":P", ":|", "\U0001f602", "❤️", ";D")


def _raw_token(rank: int) -> str:
    """A distinct raw token per rank, cycling through the tokenizer's shapes."""
    if rank % 11 == 0:
        return _EMOTICONS[rank // 11 % len(_EMOTICONS)]
    word, r = "", rank
    while r >= 0:
        word = chr(ord("a") + r % 26) + word
        r = r // 26 - 1
    shapes = (word, word.upper(), word + word[-1] * 3, str(rank), word.capitalize() + "!",
              "#" + word, "@" + word, "http://t.co/" + word)
    return shapes[rank % len(shapes)]


def _zipf_texts(n_tweets: int, seed: int) -> list[str]:
    rng = np.random.Generator(np.random.PCG64(seed))
    ranks = rng.zipf(1.3, size=(n_tweets, 12))
    return [" ".join(_raw_token(int(r)) for r in row) for row in ranks]


def test_expand_cache_matches_uncached_on_zipf_long_tail(monkeypatch):
    texts = _zipf_texts(3000, seed=0)
    uncached = tokenizer._expand_token.__wrapped__
    small = functools.lru_cache(maxsize=256)(uncached)
    with monkeypatch.context() as patch:
        patch.setattr(tokenizer, "_expand_token", uncached)
        expected = [tokenize(text) for text in texts]
    assert [tokenize(text) for text in texts] == expected
    with monkeypatch.context() as patch:
        patch.setattr(tokenizer, "_expand_token", small)
        assert [tokenize(text) for text in texts] == expected
    # The draw has a long tail, so the small cache evicts and still agrees.
    raw = {tok for text in texts for tok in text.split()}
    assert len(raw) > 4 * 256
    info = small.cache_info()
    assert info.currsize == 256 and info.misses > len(raw)
