"""N-gram extraction, stopword filtering, the count table, and the
records file format.

The tabular model is one record per (n, ngram, year) with an occurrence
count. A `FrequencyTable` holds them as one `{ngram: count}` dict per
(n, year), the unit every frequency is taken over. An n-gram is
discarded when at least half of its tokens are stopwords; the comparison
is exact integer arithmetic, so a bigram with exactly one stopword is
discarded.

`ngrams_of` and `passes_stopword_rule` define the windows and the rule.
`count_ngrams` does not call them: it counts whole batches of sentences
in C iterator pipelines, and `write_records` joins and writes rows in
chunks the same way, so neither runs Python code per window or per row.
The tests hold both against those definitions and against naive oracles.

`read_table` keeps a sidecar index beside a records file it reads by
path, `RECORDS.idx`, holding the table it built the last time it fully
validated that exact file, one section per (n, year), and loads the
sections of the lengths it is asked for again while the file's size and
crc32 still match (see `_read_index`). A missing, stale or damaged index
only means the CSV is parsed and checked again, after which the index is
rewritten; failing to write it is not an error. Streams never use an
index, and `write_records` does not write one.
"""

from __future__ import annotations

import heapq
import marshal
import os
import stat
import struct
import zlib
from collections import _count_elements
from functools import cached_property
from itertools import accumulate, compress, groupby, islice, repeat
from operator import attrgetter, itemgetter, sub
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from ._io import checked_csv, open_for_write, read_text, replacing
from ._limits import NGRAM_MAX
from .errors import RecordsError, TrendgramError

RECORDS_HEADER = ("n", "ngram", "year", "count")

_ALL_LENGTHS = frozenset(range(1, NGRAM_MAX + 1))

_BATCH = 256  # sentences counted together; bounds the batch's token lists
_BOUNDARY = object()  # follows each sentence of a batch; equals no token
_WRITE_CHUNK = 1024  # records lines joined into one write


class NgramRecord(NamedTuple):
    n: int
    ngram: str
    year: int
    count: int


class FrequencyTable:
    """N-gram counts as `cells`, one `{ngram: count}` dict per (n, year)
    that has any, plus the per-(n, year) totals used as frequency
    denominators and the sorted years with data. Unless `totals` is
    given, both are derived from `cells` the first time they are read.
    No cell is empty, so tables are equal when their cells are; they are
    unhashable.

    `lengths` are the n-gram lengths the table answers for: every length
    unless it was loaded for some only (see `read_table`). Such a table's
    `cells` hold only those lengths, while its `totals` and `years`
    still cover every length; `evaluate`, `top_ngrams` and `rank_trends`
    refuse it any other length (see `require`).

    Iterating yields one `NgramRecord` per count in (n, ngram, year)
    order; `len` is the number of such rows. Build one from a flat
    `(n, ngram, year) -> count` dict with `build_table`.
    """

    __hash__ = None

    def __init__(self, cells: dict[tuple[int, int], dict[str, int]], totals=None,
                 lengths=_ALL_LENGTHS):
        self.cells = cells
        self.lengths = frozenset(lengths)
        if totals is not None:
            self.totals = totals

    def __eq__(self, other):
        if not isinstance(other, FrequencyTable):
            return NotImplemented
        return self.cells == other.cells

    def __repr__(self):
        return f"FrequencyTable(cells={self.cells!r})"

    @cached_property
    def totals(self):
        return {key: sum(cell.values()) for key, cell in self.cells.items()}

    @cached_property
    def years(self):
        return sorted({year for _, year in self.totals})

    @property
    def counts(self):
        """A read-only snapshot of the counts as an `(n, ngram, year) ->
        count` mapping, in (n, ngram, year) order, the records file's."""
        return MappingProxyType({record[:3]: record[3] for record in _records(self.cells)})

    def __len__(self):
        return sum(map(len, self.cells.values()))

    def __iter__(self):
        return map(NgramRecord._make, _records(self.cells))

    def require(self, lengths):
        """Raise `ValueError` unless the table holds every n-gram length
        in `lengths`: counts of a length it did not load would read as
        zeros over a non-zero total."""
        missing = set(lengths) - self.lengths
        if missing:
            raise ValueError(f"n-gram length {min(missing)} was not loaded; the table holds "
                             f"{', '.join(map(str, sorted(self.lengths)))}")

    def has_data(self, n, year):
        return self.totals.get((n, year), 0) > 0

    def year_span(self):
        if not self.years:
            return None
        return self.years[0], self.years[-1]


def build_table(counts):
    """The table over a `(n, ngram, year) -> count` dict."""
    cells: dict[tuple[int, int], dict[str, int]] = {}
    for (n, ngram, year), count in counts.items():
        cell = cells.get((n, year))
        if cell is None:
            cell = cells[n, year] = {}
        cell[ngram] = count
    return FrequencyTable(cells)


def _rows(cells, n, rows_of):
    """The rows `rows_of(year, cell)` gives for each cell of length `n`,
    which start with the n-gram, in (ngram, year) order: listed a year
    at a time in ascending years, then stably sorted by n-gram alone, a
    sort that compares only strings, which is much cheaper than
    comparing tuples."""
    rows = []
    for year in sorted(year for length, year in cells if length == n):
        rows += rows_of(year, cells[n, year])
    rows.sort(key=itemgetter(0))
    return rows


def _counted(year, cell):
    return zip(cell, repeat(year), cell.values())


def _records(cells):
    """`(n, ngram, year, count)` for every count in `cells`, in (n,
    ngram, year) order; only one length's rows are alive at a time."""
    for n in sorted({n for n, _ in cells}):
        for ngram, year, count in _rows(cells, n, _counted):
            yield n, ngram, year, count


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
        return cls.from_file(Path(__file__).with_name("data") / "stopwords.txt")


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
    if not 1 <= n_min <= n_max <= NGRAM_MAX:
        raise ValueError(f"bad n-gram bounds {n_min}..{n_max}")


def passes_stopword_rule(ngram, stoplist):
    """True when strictly less than half of the tokens are stopwords."""
    stop = sum(1 for token in ngram if token in stoplist)
    return 2 * stop < len(ngram)


def count_ngrams(sentences, stoplist, n_min=1, n_max=NGRAM_MAX):
    """Count surviving n-gram occurrences per (n, ngram, year).

    Repeated occurrences within one sentence all count. Returns a
    `FrequencyTable`; counts of separately counted shards sum to the
    counts of the whole corpus. `stoplist` is a `Stoplist` or a set of
    words.

    The windows and the rule are those of `ngrams_of` and
    `passes_stopword_rule`, applied a batch at a time: up to _BATCH
    consecutive sentences of one year, their tokens concatenated with
    `_BOUNDARY` after each sentence. `stops[i]` is the weight of the
    first i tokens, a stopword weighing 1 and `_BOUNDARY` NGRAM_MAX, so
    a window's stopword count is one subtraction, and a window that
    crosses a sentence boundary weighs too much to be kept. The n-gram
    text is built only for windows that are kept, and each is counted
    in the dict of its (n, year), all inside C iterators.
    """
    _check_bounds(n_min, n_max)
    weight = dict.fromkeys(getattr(stoplist, "words", stoplist), 1)
    weight[_BOUNDARY] = NGRAM_MAX
    weigh = weight.get
    lengths = range(n_min, n_max + 1)
    by_year: dict[int, list[dict[str, int]]] = {}
    for year, run in groupby(sentences, attrgetter("year")):
        cells = by_year.get(year)
        if cells is None:
            cells = by_year[year] = [{} for _ in lengths]
        while True:
            tokens = []
            for sentence in islice(run, _BATCH):
                tokens += sentence.tokens
                tokens.append(_BOUNDARY)
            if not tokens:
                break
            stops = list(accumulate(map(weigh, tokens, repeat(0)), initial=0))
            for n, cell in zip(lengths, cells):
                kept = map(((n + 1) // 2).__gt__, map(sub, islice(stops, n, None), stops))
                windows = zip(*[islice(tokens, start, None) for start in range(n)])
                _count_elements(cell, map(" ".join, compress(windows, kept)))
    years = sorted(by_year)
    return FrequencyTable({(n, year): by_year[year][index] for index, n in enumerate(lengths)
                           for year in years if by_year[year][index]})


def write_records(table, dest):
    """Write the table's rows as `n,ngram,year,count` in key order.

    The n-gram cell is quoted, with its quotes doubled, only if it
    contains a comma, a quote, `\n` or `\r` (token rules make all four
    impossible, but readers must accept it).

    Each length's rows (see `_quoted_rows`) are written in chunks of
    _WRITE_CHUNK lines. A line is its `(ngram, suffix)` row joined with
    `"".join`, and a chunk is its lines joined with the length's `"n,"`
    prefix, which also goes before the first: no line is %-formatted.
    Only the joining iterator holds the rows, so they are freed before
    the next length's rows are listed.
    """
    cells = table.cells
    with open_for_write(dest) as fh:
        write = fh.write
        write(",".join(RECORDS_HEADER) + "\n")
        for n in sorted({n for n, _ in cells}):
            prefix = f"{n},"
            lines = map("".join, _quoted_rows(cells, n))
            while chunk := prefix.join(islice(lines, _WRITE_CHUNK)):
                write(prefix + chunk)


def _quoted_rows(cells, n):
    """The `(ngram, ",year,count\n")` rows of length `n` in (ngram, year)
    order, each suffix string shared by the rows of its cell with that
    count. N-grams are quoted after the sort, since a quoted one sorts
    elsewhere, and only for a length where some cell's n-grams, joined
    and searched once, hold a character that needs it."""
    rows = _rows(cells, n, _suffixed)
    if any(_needs_quotes(" ".join(cell)) for (length, _), cell in cells.items() if length == n):
        rows = [('"' + ngram.replace('"', '""') + '"' if _needs_quotes(ngram) else ngram, suffix)
                for ngram, suffix in rows]
    return rows


def _suffixed(year, cell):
    suffix = {count: f",{year},{count}\n" for count in set(cell.values())}
    return zip(cell, map(suffix.__getitem__, cell.values()))


def _needs_quotes(text):
    return "," in text or '"' in text or "\n" in text or "\r" in text


def read_table(source, lengths=None):
    """Read a records CSV into a `FrequencyTable` holding the cells of
    the n-gram `lengths` only (default: all), enforcing every record
    invariant on the whole file. Its `totals` and `years` are those of
    the whole file, whatever `lengths` it holds.

    This file is machine-produced, so any malformed row is corruption
    and raises `RecordsError` naming the file (when `source` is a path)
    and the offending line.

    For a path to a regular file, the table comes from the sidecar index
    `f"{source}.idx"` when that index was written for a file of the
    same size and crc32; only the sections of `lengths` are loaded.
    Otherwise the CSV is parsed, and if the file did not change while it
    was parsed, the index is (re)written.
    """
    wanted = _ALL_LENGTHS if lengths is None else frozenset(lengths)
    if not wanted or not wanted <= _ALL_LENGTHS:
        raise ValueError(f"lengths must be a non-empty subset of 1..{NGRAM_MAX}, "
                         f"got {sorted(wanted)}")
    fingerprint = None if hasattr(source, "read") else _fingerprint(source)
    if fingerprint is not None:
        table = _read_index(f"{source}.idx", fingerprint, wanted)
        if table is not None:
            return table
    table = FrequencyTable(_parse_records(source))
    if fingerprint is not None and _fingerprint(source) == fingerprint:
        _write_index(f"{source}.idx", fingerprint, table)
    if wanted == _ALL_LENGTHS:
        return table
    cells = {key: cell for key, cell in table.cells.items() if key[0] in wanted}
    return FrequencyTable(cells, table.totals, wanted)


def read_records(source):
    """`read_table(source).counts`: every record of a records CSV as a
    read-only `(n, ngram, year) -> count` mapping."""
    return read_table(source).counts


def _parse_records(source):
    """`read_table` without the index: parse and check every row into
    the cells of a table."""
    cells: dict[tuple[int, int], dict[str, int]] = {}
    with checked_csv(source, RECORDS_HEADER, RecordsError, "records") as reader:
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
            cell = cells.get((n, year))
            if cell is None:
                cell = cells[n, year] = {}
            elif ngram in cell:
                raise RecordsError(f"duplicate record for {ngram!r} in {year}")
            cell[ngram] = count
    return cells


# The sidecar index: a header; a chunk holding the per-(n, year) totals
# and the layout, one `(n, year, entries)` per cell in (n, year) order;
# then each cell's `{ngram: count}` dict in that order, in chunks of at
# most _INDEX_CHUNK entries. A chunk is a length, its crc32 and a
# `marshal` (version 2, which writes no back-references, so the bytes do
# not depend on reference counts): the `(totals, layout)` tuple, then a
# dict per chunk.
_INDEX_MAGIC = b"trendgram records index 3\n"
_INDEX_HEADER = struct.Struct(f"<{len(_INDEX_MAGIC)}sIQQ")  # magic, crc32, size, entries
_INDEX_CHUNK_HEADER = struct.Struct("<II")  # length, crc32
_INDEX_CHUNK = 4096
_BLOCK = 1 << 16


def _fingerprint(path):
    """(crc32, size) of the file at `path`, read in 64 KB blocks, or None
    when it is not a regular file (a pipe cannot be read twice)."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    crc = size = 0
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK):
            crc = zlib.crc32(block, crc)
            size += len(block)
    return crc, size


def _read_index(path, fingerprint, lengths):
    """The table stored in the index at `path` for a records file with
    this fingerprint, holding `lengths` only, or None if the index is
    missing, was written for other content, or is damaged where it was
    read: a wrong magic, a damaged chunk (see `_read_chunk`), one
    `marshal` rejects, cell sizes that disagree with the header or with
    what the cells hold, or loaded cells other than those the totals
    name. Cells of lengths after the last of
    `lengths` are not read, and other unloaded ones are passed over by
    their chunk lengths alone; only a read that reaches the last cell
    checks that nothing follows it."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(_INDEX_HEADER.size)
            if len(header) != _INDEX_HEADER.size:
                return None
            magic, crc, size, entries = _INDEX_HEADER.unpack(header)
            if magic != _INDEX_MAGIC or (crc, size) != fingerprint:
                return None
            end = os.fstat(fh.fileno()).st_size
            totals, layout = marshal.loads(_read_chunk(fh, end))
            if type(totals) is not dict or sum(size for _, _, size in layout) != entries:
                return None
            cells = {}
            last = max(lengths)
            for n, year, size in layout:
                if n > last:
                    break
                chunks = -(-size // _INDEX_CHUNK)
                if n not in lengths:
                    for _ in range(chunks):
                        _read_chunk(fh, end, skip=True)
                    continue
                cell = marshal.loads(_read_chunk(fh, end))
                if type(cell) is not dict:
                    return None
                for _ in range(chunks - 1):
                    cell.update(marshal.loads(_read_chunk(fh, end)))
                if len(cell) != size:
                    return None
                cells[n, year] = cell
            else:
                if fh.read(1):
                    return None
            if cells.keys() != {key for key in totals if key[0] in lengths}:
                return None
            return FrequencyTable(cells, totals, lengths)
    except (OSError, ValueError, EOFError, TypeError):
        return None


def _read_chunk(fh, end, skip=False):
    """The payload of the next chunk in `fh`, checked against its crc32,
    or with `skip` None, passing over the payload unread. A chunk cut
    short, a crc32 mismatch, or a length that runs past `end`, the size
    of the file (checked before anything is allocated), raise
    `ValueError`."""
    header = fh.read(_INDEX_CHUNK_HEADER.size)
    if len(header) != _INDEX_CHUNK_HEADER.size:
        raise ValueError("index chunk header cut short")
    length, crc = _INDEX_CHUNK_HEADER.unpack(header)
    if length > end - fh.tell():
        raise ValueError("index chunk runs past the end of the file")
    if skip:
        fh.seek(length, os.SEEK_CUR)
        return None
    chunk = fh.read(length)
    if len(chunk) != length or zlib.crc32(chunk) != crc:
        raise ValueError("index chunk damaged")
    return chunk


def _write_index(path, fingerprint, table):
    """Store the full `table` as the index at `path` for a records file
    with this fingerprint, replacing it atomically; an `OSError` (such
    as a read-only directory) leaves things as they were."""
    cells = table.cells
    layout = tuple((n, year, len(cells[n, year])) for n, year in sorted(cells))
    try:
        with replacing(path, binary=True) as fh:
            fh.write(_INDEX_HEADER.pack(_INDEX_MAGIC, *fingerprint, len(table)))
            _write_chunk(fh, (table.totals, layout))
            for n, year, _ in layout:
                items = iter(cells[n, year].items())
                while part := dict(islice(items, _INDEX_CHUNK)):
                    _write_chunk(fh, part)
    except OSError:
        pass


def _write_chunk(fh, value):
    chunk = marshal.dumps(value, 2)
    fh.write(_INDEX_CHUNK_HEADER.pack(len(chunk), zlib.crc32(chunk)))
    fh.write(chunk)


def _ngram_totals(cells):
    """Each n-gram's count summed over `cells`, `{ngram: count}` dicts."""
    totals: dict[str, int] = {}
    get = totals.get
    for cell in cells:
        for ngram, count in cell.items():
            totals[ngram] = get(ngram, 0) + count
    return totals


def _most_frequent(cells, k):
    """The k `(ngram, total)` pairs of `cells` with the highest totals
    (see `_ngram_totals`), sorted by total descending, ties broken
    lexicographically."""
    return heapq.nsmallest(k, _ngram_totals(cells).items(), key=lambda item: (-item[1], item[0]))


def top_ngrams(table, n, k):
    """The k most frequent length-n n-grams summed across years.

    Sorted by total descending, ties broken lexicographically.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    table.require((n,))
    return _most_frequent((cell for (length, _), cell in table.cells.items() if length == n), k)
