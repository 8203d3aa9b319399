"""Tweet tokenizer compatible with the published Twitter GloVe vocabularies.

Rule order is fixed: URL, user mention, hashtag, emoji/emoticon, number,
all-caps, lowercase, elongation. Tag tokens come from a closed set; anything
unmappable passes through as its lowercase self.
"""

from __future__ import annotations

import functools
import re

HASHTAG = "<hashtag>"
URL = "<url>"
NUMBER = "<number>"
USER = "<user>"
SMILE = "<smile>"
HEART = "<heart>"
LOLFACE = "<lolface>"
NEUTRALFACE = "<neutralface>"
ANGRYFACE = "<angryface>"
ALLCAPS = "<allcaps>"
ELONG = "<elong>"
REPEAT = "<repeat>"

TAG_SET = frozenset(
    {
        HASHTAG,
        URL,
        NUMBER,
        USER,
        SMILE,
        HEART,
        LOLFACE,
        NEUTRALFACE,
        ANGRYFACE,
        ALLCAPS,
        ELONG,
        REPEAT,
    }
)

TokenSequence = list[str]

# Each pattern opens with its literal character or a character class, so `re`
# searches for it first. In the URL pattern a lookbehind then picks the branch
# its first character opened, matched case-insensitively from there as the
# whole pattern once was; no other code point folds to h or w. In the mention
# and hashtag patterns it checks the character before the literal.
_URL_RE = re.compile(r"[hHwW](?:(?<=[hH])(?i:ttps?://)|(?<=[wW])(?i:ww\.))\S+")
_USER_RE = re.compile(r"@(?<!\w@)\w+")
_HASHTAG_RE = re.compile(r"#(?<!\S#)(\w+)")
# Repeated sentence punctuation; only applied when the <repeat> tag is enabled.
_PUNCT_REPEAT_RE = re.compile(r"([!?.])[!?.]+")

# Emoticons follow the eyes/nose/mouth pattern of the GloVe preprocessing
# script; reversed (mouth-first) variants are accepted for smiles and frowns.
_EYES = r"[8:=;]"
_NOSE = r"['`\-]?"
_SMILE_RE = re.compile(rf"(?:{_EYES}{_NOSE}[)\]dD]+|[(\[]+{_NOSE}{_EYES})$")
_LOLFACE_RE = re.compile(rf"{_EYES}{_NOSE}[pP]+$")
_ANGRYFACE_RE = re.compile(rf"(?::'\(+|{_EYES}{_NOSE}[(\[]+|[)\]]+{_NOSE}{_EYES})$")
_NEUTRALFACE_RE = re.compile(rf"{_EYES}{_NOSE}[/|l*]$")
_HEART_RE = re.compile(r"<+3+$")

_NUMBER_RE = re.compile(r"[-+]?\d+(?:[.,]\d+)*$")
# Any unicode letter repeated more than twice collapses to two occurrences.
_ELONG_RE = re.compile(r"([^\W\d_])\1{2,}", re.UNICODE)

# Common unicode emoji mapped onto the five emoticon tags; anything not
# listed passes through untouched.
_EMOJI_TAG = {}
for _c in "\U0001f600\U0001f601\U0001f603\U0001f604\U0001f60a\U0001f642☺":
    _EMOJI_TAG[_c] = SMILE
for _c in "❤♥\U0001f495\U0001f496\U0001f499\U0001f49a\U0001f49b":
    _EMOJI_TAG[_c] = HEART
for _c in "\U0001f602\U0001f923\U0001f606\U0001f60b\U0001f61b\U0001f61c\U0001f61d":
    _EMOJI_TAG[_c] = LOLFACE
for _c in "\U0001f610\U0001f611":
    _EMOJI_TAG[_c] = NEUTRALFACE
for _c in "\U0001f620\U0001f621☹\U0001f641\U0001f61e\U0001f622\U0001f62d\U0001f4a2":
    _EMOJI_TAG[_c] = ANGRYFACE

_VARIATION_SELECTOR = "️"


def _emoticon_tag(token: str) -> str | None:
    stripped = token.replace(_VARIATION_SELECTOR, "")
    if stripped and all(ch == stripped[0] for ch in stripped):
        tag = _EMOJI_TAG.get(stripped[0])
        if tag is not None:
            return tag
    if _HEART_RE.fullmatch(stripped):
        return HEART
    if _SMILE_RE.fullmatch(stripped):
        return SMILE
    if _LOLFACE_RE.fullmatch(stripped):
        return LOLFACE
    if _ANGRYFACE_RE.fullmatch(stripped):
        return ANGRYFACE
    if _NEUTRALFACE_RE.fullmatch(stripped):
        return NEUTRALFACE
    return None


# Raw whitespace tokens repeat heavily across tweets, so each one's expansion
# is computed once and kept in a bounded cache.
_EXPAND_CACHE_SIZE = 1 << 15


@functools.lru_cache(maxsize=_EXPAND_CACHE_SIZE)
def _expand_token(token: str) -> tuple[str, ...]:
    """The tokens one raw whitespace token becomes (a pure function)."""
    if token in TAG_SET:
        return (token,)
    tag = _emoticon_tag(token)
    if tag is not None:
        return (tag,)
    if _NUMBER_RE.fullmatch(token):
        return (NUMBER,)
    trailing = ()
    if len(token) >= 2 and token.isalpha() and token.isupper():
        trailing += (ALLCAPS,)
    # Runs are found in the lowercase form every plain token ends in, so a
    # token and its own output expand alike ("HHh" and "hhh" both elongate).
    lowered = token.lower()
    collapsed = _ELONG_RE.sub(r"\1\1", lowered)
    if collapsed != lowered:
        trailing += (ELONG,)
    return (collapsed, *trailing)


def tokenize(text: str, repeat_tag: bool = False) -> TokenSequence:
    """Turn raw tweet text into a token sequence.

    ``repeat_tag`` enables the optional <repeat> tag for runs of repeated
    sentence punctuation; it is off by default.
    """
    s = _URL_RE.sub(f" {URL} ", text)
    s = _USER_RE.sub(f" {USER} ", s)
    s = _HASHTAG_RE.sub(lambda m: f" {HASHTAG} {m.group(1)} ", s)
    if repeat_tag:
        s = _PUNCT_REPEAT_RE.sub(lambda m: f" {m.group(1)} {REPEAT} ", s)
    out: list[str] = []
    for raw in s.split():
        out.extend(_expand_token(raw))
    return out
