"""N-gram extraction, stopword filtering, the count table, and the
records file format.

The tabular model is one record per (n, ngram, year) with an occurrence
count, held in memory as a `FrequencyTable`. An n-gram is discarded when
at least half of its tokens are stopwords; the comparison is exact
integer arithmetic, so a bigram with exactly one stopword is discarded.
"""

from __future__ import annotations

import csv
from collections import Counter
from functools import cached_property
from importlib import resources
from itertools import accumulate
from typing import NamedTuple

from ._io import location, open_for_read, open_for_write, read_text
from .errors import RecordsError, TrendgramError

RECORDS_HEADER = ("n", "ngram", "year", "count")

NGRAM_MAX = 4


class NgramRecord(NamedTuple):
    n: int
    ngram: str
    year: int
    count: int


class FrequencyTable:
    """N-gram counts keyed (n, ngram, year), plus the per-(n, year)
    totals used as frequency denominators and the sorted years with data.
    Both are derived from `counts` the first time they are read.

    Iterating yields one `NgramRecord` per key in (n, ngram, year)
    order; `len` is the number of such rows. Tables are equal when their
    counts are, and unhashable. Build it with `build_table`.
    """

    __hash__ = None

    def __init__(self, counts: dict[tuple[int, str, int], int]):
        self.counts = counts

    def __eq__(self, other):
        if not isinstance(other, FrequencyTable):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self):
        return f"FrequencyTable(counts={self.counts!r})"

    @cached_property
    def totals(self):
        totals: dict[tuple[int, int], int] = {}
        for (n, _, year), count in self.counts.items():
            totals[(n, year)] = totals.get((n, year), 0) + count
        return totals

    @cached_property
    def years(self):
        return sorted({year for _, year in self.totals})

    def __len__(self):
        return len(self.counts)

    def __iter__(self):
        for key in sorted(self.counts):
            yield NgramRecord(*key, self.counts[key])

    def has_data(self, n, year):
        return self.totals.get((n, year), 0) > 0

    def year_span(self):
        if not self.years:
            return None
        return self.years[0], self.years[-1]


def build_table(counts):
    """The table over a `(n, ngram, year) -> count` dict, which it keeps
    as its `counts`."""
    return FrequencyTable(counts)


class Stoplist:
    """A set of function words, matched against lowercase tokens."""

    def __init__(self, words):
        self.words = frozenset(word.casefold() for word in words)
        if not self.words:
            raise TrendgramError("stoplist is empty")

    def __contains__(self, token):
        return token in self.words

    def __len__(self):
        return len(self.words)

    @classmethod
    def from_text(cls, text):
        """One word per line; `#` starts a comment; blanks ignored."""
        words = []
        for line in text.splitlines():
            word = line.split("#", 1)[0].strip()
            if word:
                words.append(word)
        return cls(words)

    @classmethod
    def from_file(cls, path):
        return cls.from_text(read_text(path))

    @classmethod
    def default(cls):
        """The bundled English stopword list."""
        text = resources.files("trendgram").joinpath("data/stopwords.txt").read_text("utf-8")
        return cls.from_text(text)


def ngrams_of(tokens, n_min=1, n_max=NGRAM_MAX):
    """All contiguous token windows of each length in [n_min, n_max].

    A sentence of t tokens yields max(t - n + 1, 0) windows of length n.
    """
    _check_bounds(n_min, n_max)
    grams = []
    for n in range(n_min, n_max + 1):
        for start in range(len(tokens) - n + 1):
            grams.append(tuple(tokens[start:start + n]))
    return grams


def _check_bounds(n_min, n_max):
    if not 1 <= n_min <= n_max:
        raise ValueError(f"bad n-gram bounds {n_min}..{n_max}")


def passes_stopword_rule(ngram, stoplist):
    """True when strictly less than half of the tokens are stopwords."""
    stop = sum(1 for token in ngram if token in stoplist)
    return 2 * stop < len(ngram)


def count_ngrams(sentences, stoplist, n_min=1, n_max=NGRAM_MAX):
    """Count surviving n-gram occurrences per (n, ngram, year).

    Repeated occurrences within one sentence all count. Returns a
    `FrequencyTable`; counts of separately counted shards sum to the
    counts of the whole corpus.

    The windows and the rule are those of `ngrams_of` and
    `passes_stopword_rule`, applied through a prefix sum of stop flags
    per sentence: `stops[i]` is the number of stopwords among the first
    i tokens, so a window's stopword count is one subtraction, and the
    n-gram text is built only for windows that are kept.
    """
    _check_bounds(n_min, n_max)
    counts: dict[tuple[int, str, int], int] = {}
    for sentence in sentences:
        tokens = sentence.tokens
        year = sentence.year
        stops = list(accumulate((token in stoplist for token in tokens), initial=0))
        for n in range(n_min, n_max + 1):
            for start in range(len(tokens) - n + 1):
                if 2 * (stops[start + n] - stops[start]) < n:
                    key = (n, " ".join(tokens[start:start + n]), year)
                    counts[key] = counts.get(key, 0) + 1
    return FrequencyTable(counts)


def write_records(table, dest):
    """Write the table's rows as `n,ngram,year,count` in key order.

    The n-gram cell is quoted only if it contains a comma or a quote
    (token rules make both impossible, but readers must accept it).
    """
    counts = table.counts
    with open_for_write(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORDS_HEADER)
        writer.writerows((*key, counts[key]) for key in sorted(counts))


def read_records(source):
    """Read a records CSV into a `(n, ngram, year) -> count` dict,
    enforcing every record invariant.

    This file is machine-produced, so any malformed row is corruption
    and raises `RecordsError` naming the file (when `source` is a path)
    and the offending line.
    """
    with open_for_read(source) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise RecordsError(f"{location(source)}records file is empty") from None
        except csv.Error as exc:  # such as a field over the csv module's size limit
            raise RecordsError(f"{location(source, reader.line_num)}{exc}") from None
        if header != list(RECORDS_HEADER):
            raise RecordsError(f"{location(source)}unexpected records header: {header!r}")
        counts: dict[tuple[int, str, int], int] = {}
        try:
            for row in reader:
                if len(row) != len(RECORDS_HEADER):
                    raise RecordsError(f"expected {len(RECORDS_HEADER)} columns, got {len(row)}")
                n_text, ngram, year_text, count_text = row
                try:
                    n, year, count = int(n_text), int(year_text), int(count_text)
                except ValueError:
                    raise RecordsError("non-numeric n, year, or count") from None
                if not 1 <= n <= NGRAM_MAX:
                    raise RecordsError(f"n={n} outside 1..{NGRAM_MAX}")
                if count < 1:
                    raise RecordsError(f"count must be positive, got {count}")
                tokens = ngram.split(" ")
                if len(tokens) != n or not all(tokens):
                    raise RecordsError(f"ngram {ngram!r} is not {n} tokens")
                key = (n, ngram, year)
                if key in counts:
                    raise RecordsError(f"duplicate record for {ngram!r} in {year}")
                counts[key] = count
        except (RecordsError, csv.Error) as exc:
            raise RecordsError(f"{location(source, reader.line_num)}{exc}") from None
        return counts


def top_ngrams(table, n, k):
    """The k most frequent length-n n-grams summed across years.

    Sorted by total descending, ties broken lexicographically.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    totals: Counter = Counter()
    for (record_n, ngram, _), count in table.counts.items():
        if record_n == n:
            totals[ngram] += count
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]
