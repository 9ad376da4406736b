"""Naive reference implementations used as independent oracles.

Everything here favors obviousness over speed: nested loops, no
indexing, exact rational arithmetic where it matters. Tests compare the
real implementations against these.
"""

from __future__ import annotations

import re
from fractions import Fraction

_NEEDS_QUOTES = re.compile('[,"\n\r]')


def naive_ngram_counts(sentences, stopwords, n_min=1, n_max=4):
    """Count surviving n-gram occurrences with plain nested loops.

    Returns a dict keyed (n, ngram text, year). `stopwords` is any
    container supporting `in`.
    """
    counts = {}
    for sentence in sentences:
        tokens = sentence.tokens
        for n in range(n_min, n_max + 1):
            for start in range(0, len(tokens) - n + 1):
                window = tokens[start:start + n]
                stop = 0
                for token in window:
                    if token in stopwords:
                        stop += 1
                if Fraction(stop, n) >= Fraction(1, 2):
                    continue
                key = (n, " ".join(window), sentence.year)
                counts[key] = counts.get(key, 0) + 1
    return counts


def naive_records_text(counts):
    """The records CSV text of a `(n, ngram, year) -> count` dict: the
    header, then one row per key in `sorted` order. An n-gram cell in
    which a regex finds a comma, a quote, `\n` or `\r` is quoted, with
    its quotes doubled."""
    lines = ["n,ngram,year,count\n"]
    for key in sorted(counts):
        n, ngram, year = key
        if _NEEDS_QUOTES.search(ngram):
            ngram = '"' + ngram.replace('"', '""') + '"'
        lines.append(f"{n},{ngram},{year},{counts[key]}\n")
    return "".join(lines)


def naive_freq(counts, phrase, year):
    """Frequency by scanning every record; 0.0 for a dataless year."""
    n = len(phrase)
    target = " ".join(phrase)
    numerator = 0
    denominator = 0
    for (record_n, ngram, record_year), count in counts.items():
        if record_n == n and record_year == year:
            denominator += count
            if ngram == target:
                numerator += count
    if denominator == 0:
        return 0.0
    return numerator / denominator


def naive_freq_list(counts, phrases, year):
    total = 0.0
    for phrase in phrases:
        total += naive_freq(counts, phrase, year)
    return total


def exact_ols_slope(points):
    """Textbook least-squares slope in exact rational arithmetic.

    `points` is a sequence of (x, y); y floats enter as their exact
    binary values, so the result is the true rational slope of the
    given data.
    """
    n = len(points)
    sx = sum(Fraction(x) for x, _ in points)
    sy = sum(Fraction(y) for _, y in points)
    sxy = sum(Fraction(x) * Fraction(y) for x, y in points)
    sxx = sum(Fraction(x) * Fraction(x) for x, _ in points)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)
