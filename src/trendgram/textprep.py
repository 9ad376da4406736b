"""Sentence splitting, tokenization, and article removal.

Sentences are the unit downstream n-gram windows never cross. The
splitter is rule-based: a terminator followed by whitespace ends a
sentence. It will occasionally over-split around abbreviations, which
only fragments n-grams; it never fabricates an n-gram across a real
sentence boundary, which is the failure mode that matters.
"""

from __future__ import annotations

import re
from collections import namedtuple

_TERMINATOR_RE = re.compile(r"[.!?;:]\s+")
# A run of word characters, apostrophes and hyphens, from its first word
# character to its last.
_TOKEN_RE = re.compile(r"\w(?:[\w'-]*\w)?")

ARTICLES = frozenset({"a", "an", "the"})


# `origin` is "title", "abstract" or "keyword".
Sentence = namedtuple("Sentence", "tokens origin entry_id year")
Sentence.__doc__ = "A tokenized fragment tied back to its entry and year."


def split_sentences(text):
    """Split at `.`, `!`, `?`, `;`, `:` when followed by whitespace.

    A terminator not followed by whitespace (as in "e.g.x") does not
    split. Fragments are stripped; empty ones are dropped.
    """
    return [frag.strip() for frag in _TERMINATOR_RE.split(text) if frag.strip()]


def tokenize(sentence):
    """Casefold and split into word tokens.

    Tokens keep internal apostrophes and hyphens ("open-source" stays
    one token); leading and trailing ones are stripped, and anything
    that was pure punctuation disappears.
    """
    return _TOKEN_RE.findall(sentence.casefold().replace("_", " "))


def remove_articles(tokens):
    """Drop every "a", "an", and "the", keeping the rest in order."""
    return [token for token in tokens if token not in ARTICLES]


def entry_sentences(entry):
    """All sentences of an entry: title first, then abstract, then one
    per keyword (keywords are never split further)."""
    sentences = []
    for origin, texts in (
        ("title", split_sentences(entry.title)),
        ("abstract", split_sentences(entry.abstract)),
        ("keyword", entry.keywords),
    ):
        for text in texts:
            tokens = remove_articles(tokenize(text))
            sentences.append(Sentence(tokens, origin, entry.id, entry.year))
    return sentences
