"""Shared builders for test fixtures."""

from __future__ import annotations

import random

from trendgram.ingest import Entry
from trendgram.textprep import Sentence

WORDS = (
    "program", "comprehension", "code", "slice", "trace", "feature",
    "location", "tool", "developer", "study", "model", "source",
)

STOPPY_WORDS = ("of", "the", "and", "in", "for", "with")


def make_entry(id="bibtex:1", title="A Title", abstract="An abstract.",
               keywords=(), year=2005, authors=("A. Author",), source="bibtex"):
    return Entry(id=id, title=title, abstract=abstract, keywords=list(keywords),
                 year=year, authors=list(authors), source=source)


def random_sentences(rng: random.Random, count, years=(2000, 2001, 2002),
                     vocab=WORDS + STOPPY_WORDS, max_tokens=8):
    """Sentences of random tokens (some of them stopwords)."""
    sentences = []
    for index in range(count):
        length = rng.randint(0, max_tokens)
        tokens = [rng.choice(vocab) for _ in range(length)]
        sentences.append(Sentence(tokens, "abstract", f"x:{index}", rng.choice(years)))
    return sentences


def random_counts(rng: random.Random, max_records=40, years=(2000, 2010)):
    """A valid random `(n, ngram, year) -> count` dict."""
    counts = {}
    for _ in range(rng.randint(0, max_records)):
        n = rng.randint(1, 4)
        ngram = " ".join(rng.choice(WORDS) for _ in range(n))
        year = rng.randint(*years)
        if (n, ngram, year) in counts:
            continue
        counts[(n, ngram, year)] = rng.randint(1, 500)
    return counts
