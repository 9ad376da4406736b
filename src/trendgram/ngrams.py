"""N-gram extraction, stopword filtering and the records writer: what
`extract` runs.

A sentence of t tokens has max(t - n + 1, 0) n-grams of length n, its
windows of n consecutive tokens, so none crosses a sentence boundary. An
n-gram is discarded when at least half of its tokens are stopwords; the
comparison is exact integer arithmetic, so a bigram with exactly one
stopword is discarded.

`count_ngrams` applies both rules to whole batches of sentences (see
`token_runs`) one n-gram length at a time in C iterator pipelines, and
`write_records` joins and writes rows in chunks the same way, so neither
runs Python code per window or per row. Each batch's stop-weight prefix
sums are built once and kept with the batches, which cannot change, so
counting the lengths one at a time builds them once for all of them. The
tests hold both against the naive oracles of `tests/oracle.py`.

The table they count into and the records reader are in
`trendgram.table`, which the commands that only read records load
without this module.
"""

import os
from array import array
from collections import _count_elements
from itertools import accumulate, compress, groupby, islice, repeat
from operator import attrgetter, sub

from ._io import csv_cell, needs_quotes, open_for_write, read_text
from ._limits import NGRAM_MAX
from .errors import TrendgramError
from .table import RECORDS_HEADER, FrequencyTable, _rows

_BATCH = 256  # sentences counted together; bounds the batch's token lists
_BOUNDARY = object()  # follows each sentence of a batch; equals no token
_WRITE_CHUNK = 1024  # records lines joined into one write


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
        """`from_text` of the file at `path`; an empty list names the file."""
        text = read_text(path)
        try:
            return cls.from_text(text)
        except TrendgramError as exc:
            raise TrendgramError(f"{path}: {exc}") from None

    @classmethod
    def default(cls):
        """The bundled English stopword list."""
        return cls.from_file(os.path.join(os.path.dirname(__file__), "data", "stopwords.txt"))


class TokenRuns(tuple):
    """The `(year, tokens)` batches `token_runs` prepares, which
    `count_ngrams` counts as they are. Neither the runs nor a batch's
    tokens, a tuple, can change, so `_stops` can describe them: the
    stop-word set they were last counted with, and each batch's
    `_stop_sums` for it, in one tuple that is replaced whole."""

    _stops = (None, ())


def token_runs(sentences):
    """The tokens of `sentences`, prepared once to be counted by
    `count_ngrams` any number of times: a `TokenRuns` tuple of batches
    of up to _BATCH consecutive sentences of one year, each a `(year,
    tokens)` tuple whose tokens are the sentences' concatenated, with
    `_BOUNDARY` after each sentence, in a tuple. Equal tokens are one
    shared string, so the batches cost a pointer per token over the
    corpus's vocabulary, and nothing else of the sentences is kept."""
    vocabulary: dict[str, str] = {}
    shared = vocabulary.setdefault
    runs = []
    for year, run in groupby(sentences, attrgetter("year")):
        while True:
            tokens = []
            for sentence in islice(run, _BATCH):
                tokens += map(shared, sentence.tokens, sentence.tokens)
                tokens.append(_BOUNDARY)
            if not tokens:
                break
            runs.append((year, tuple(tokens)))
    return TokenRuns(runs)


def count_ngrams(sentences, stoplist, n_min=1, n_max=NGRAM_MAX):
    """Count surviving n-gram occurrences per (n, ngram, year): for each
    length n from `n_min` to `n_max`, every window of n consecutive
    tokens of a sentence of which strictly fewer than half are in
    `stoplist`, a `Stoplist` or a set of words. Repeated occurrences
    within one sentence all count. Bounds outside `1 <= n_min <= n_max
    <= NGRAM_MAX` raise `ValueError`.

    Returns a `FrequencyTable` that answers for lengths `n_min` to
    `n_max` only; counts of separately counted shards sum to the counts
    of the whole corpus. `sentences` are `Sentence`s, or the batches
    `token_runs` made of them, which can be counted again, such as one
    length at a time, without being prepared again. Batches keep their
    stop-weight sums for the stop-word set they were last counted with,
    8 bytes per token, and count again with an equal set without
    building them again. Sentences are prepared first, so all of their
    tokens and these sums are held until the table is built.
    `_count_length` applies the rules.
    """
    if not 1 <= n_min <= n_max <= NGRAM_MAX:
        raise ValueError(f"bad n-gram bounds {n_min}..{n_max}")
    runs = sentences if isinstance(sentences, TokenRuns) else token_runs(sentences)
    words = frozenset(getattr(stoplist, "words", stoplist))
    counted_with, sums = runs._stops
    if counted_with != words:
        weight = dict.fromkeys(words, 1)
        weight[_BOUNDARY] = NGRAM_MAX
        sums = tuple(_stop_sums(tokens, weight.get) for _, tokens in runs)
        runs._stops = (words, sums)
    cells: dict[tuple[int, int], dict[str, int]] = {}
    for n in range(n_min, n_max + 1):
        cells.update(_count_length(runs, sums, n))
    return FrequencyTable(cells, lengths=range(n_min, n_max + 1))


def _stop_sums(tokens, weigh):
    """The stop-weight prefix sums of a batch's `tokens`: item i is the
    weight of its first i tokens, where a token weighs `weigh(token, 0)`,
    a stopword 1 and `_BOUNDARY` NGRAM_MAX."""
    return array("q", accumulate(map(weigh, tokens, repeat(0)), initial=0))


def _count_length(runs, sums, n):
    """The non-empty `{ngram: count}` cells of length `n` in `runs`, by
    `(n, year)` in ascending years. `sums` holds each batch's
    `_stop_sums`, so a window's stopword count is one subtraction, and a
    window that crosses a sentence boundary weighs too much to be kept.
    The n-gram text is built only for windows that are kept, and each is
    counted in its year's dict, all inside C iterators."""
    keep = ((n + 1) // 2).__gt__
    by_year: dict[int, dict[str, int]] = {}
    for (year, tokens), stops in zip(runs, sums):
        cell = by_year.get(year)
        if cell is None:
            cell = by_year[year] = {}
        kept = map(keep, map(sub, islice(stops, n, None), stops))
        windows = zip(*[islice(tokens, start, None) for start in range(n)])
        _count_elements(cell, map(" ".join, compress(windows, kept)))
    return {(n, year): by_year[year] for year in sorted(by_year) if by_year[year]}


def write_records(tables, dest):
    """Write the rows of `tables`, a `FrequencyTable` or an iterable of
    them in ascending n-gram lengths, as `n,ngram,year,count` in key
    order. An iterable is read one table at a time, and the writer lets
    a table go as soon as it has taken a shallow copy of its `cells`,
    before the next one is taken: tables made lazily, such as one
    `count_ngrams` per length, are then never alive together. The copy
    lets each cell go once its rows are listed, so a cell that only the
    writer holds is freed before its length's rows are sorted; a table
    the caller still holds is left unchanged. Each table's lengths must
    all follow those of the tables before it, or `ValueError` is raised
    and a file at `dest` is left as it was.

    The n-gram cell is quoted by `_io.csv_cell` (token rules make every
    character it quotes impossible, but readers must accept it).

    Each length's rows (see `_quoted_rows`) are written in chunks of
    _WRITE_CHUNK lines. A line is its `(ngram, suffix)` row joined with
    `"".join`, and a chunk is its lines joined with the length's `"n,"`
    prefix, which also goes before the first: no line is %-formatted.
    Only the joining iterator holds the rows, so they are freed before
    the next length's rows are listed.
    """
    if isinstance(tables, FrequencyTable):
        tables = (tables,)
    last = None  # the length written last
    with open_for_write(dest) as fh:
        write = fh.write
        write(",".join(RECORDS_HEADER) + "\n")
        for table in tables:
            cells = dict(table.cells)
            del table  # before its cells are let go and the next one is taken
            for n in sorted({n for n, _ in cells}):
                if last is not None and n <= last:
                    raise ValueError(f"a table of n-gram length {n} follows one of length "
                                     f"{last}; tables must come in ascending lengths")
                last = n
                prefix = f"{n},"
                lines = map("".join, _quoted_rows(cells, n))
                while chunk := prefix.join(islice(lines, _WRITE_CHUNK)):
                    write(prefix + chunk)


def _quoted_rows(cells, n):
    """The `(ngram, ",year,count\n")` rows of length `n` in (ngram, year)
    order, each suffix string shared by the rows of its cell with that
    count. Each cell of length `n` is popped from `cells` as its rows
    are listed (see `_rows`). N-grams are quoted by `_io.csv_cell`
    after the sort, since a quoted one sorts elsewhere, and only for a
    length where some cell's n-grams, joined and searched once, hold a
    character that needs it."""
    quote = any(needs_quotes(" ".join(cell)) for (length, _), cell in cells.items() if length == n)
    rows = _rows(cells, n, _suffixed)
    if quote:
        rows = [(csv_cell(ngram), suffix) for ngram, suffix in rows]
    return rows


def _suffixed(year, cell):
    suffix = {count: f",{year},{count}\n" for count in set(cell.values())}
    return zip(cell, map(suffix.__getitem__, cell.values()))
