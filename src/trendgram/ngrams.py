"""N-gram extraction, stopword filtering, the count table, and the
records file format.

The tabular model is one record per (n, ngram, year) with an occurrence
count, held in memory as a `FrequencyTable`. An n-gram is discarded when
at least half of its tokens are stopwords; the comparison is exact
integer arithmetic, so a bigram with exactly one stopword is discarded.

`read_table` keeps a sidecar index beside a records file it reads by
path, `RECORDS.idx`, holding the table it built the last time it fully
validated that exact file, one section per n-gram length, and loads the
sections it is asked for again while the file's size and crc32 still
match (see `_read_index`). A missing, stale or damaged index only means
the CSV is parsed and checked again, after which the index is
rewritten; failing to write it is not an error. Streams never use an
index, and `write_records` does not write one.
"""

from __future__ import annotations

import marshal
import os
import stat
import struct
import zlib
from collections import Counter
from functools import cached_property
from itertools import accumulate, islice
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from ._io import checked_csv, open_for_write, read_text, replacing
from .errors import RecordsError, TrendgramError

RECORDS_HEADER = ("n", "ngram", "year", "count")

NGRAM_MAX = 4

_ALL_LENGTHS = frozenset(range(1, NGRAM_MAX + 1))


class NgramRecord(NamedTuple):
    n: int
    ngram: str
    year: int
    count: int


class FrequencyTable:
    """N-gram counts keyed (n, ngram, year), plus the per-(n, year)
    totals used as frequency denominators and the sorted years with data.
    Unless `totals` is given, both are derived from `counts` the first
    time they are read.

    `lengths` are the n-gram lengths the table answers for: every length
    unless it was loaded for some only (see `read_table`). Such a table's
    `counts` hold only those lengths' keys, while its `totals` and
    `years` still cover every length; `evaluate`, `top_ngrams` and
    `rank_trends` refuse it any other length (see `require`).

    Iterating yields one `NgramRecord` per key in (n, ngram, year)
    order; `len` is the number of such rows. Tables are equal when their
    counts are, and unhashable. Build it with `build_table`.
    """

    __hash__ = None

    def __init__(self, counts: dict[tuple[int, str, int], int], totals=None,
                 lengths=_ALL_LENGTHS):
        self.counts = counts
        self.lengths = frozenset(lengths)
        if totals is not None:
            self.totals = totals

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
        counts = self.counts
        for key in _sorted_keys(counts):
            yield NgramRecord(*key, counts[key])

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


def _sorted_keys(counts):
    """The keys of `counts` in (n, ngram, year) order, one length at a
    time. Within a length, a stable sort by year and then one by n-gram
    give exactly `sorted` order, but each pass compares only ints or
    only strings, which is much cheaper than comparing 3-tuples that
    mostly tie on n; only one length's key list is alive at a time."""
    for n in sorted({key[0] for key in counts}):
        keys = [key for key in counts if key[0] == n]
        keys.sort(key=itemgetter(2))
        keys.sort(key=itemgetter(1))
        yield from keys


def write_records(table, dest):
    """Write the table's rows as `n,ngram,year,count` in key order.

    The n-gram cell is quoted, with its quotes doubled, only if it
    contains a comma, a quote, `\n` or `\r` (token rules make all four
    impossible, but readers must accept it).
    """
    counts = table.counts
    with open_for_write(dest) as fh:
        write = fh.write
        write(",".join(RECORDS_HEADER) + "\n")
        for key in _sorted_keys(counts):
            n, ngram, year = key
            if "," in ngram or '"' in ngram or "\n" in ngram or "\r" in ngram:
                ngram = '"' + ngram.replace('"', '""') + '"'
            write(f"{n},{ngram},{year},{counts[key]}\n")


def read_table(source, lengths=None):
    """Read a records CSV into a `FrequencyTable` holding the keys of
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
    # Deleting the other lengths' keys in place, one length at a time,
    # adds only a list of one length's keys to the peak memory; a new
    # dict of the wanted keys would add more.
    totals, counts = table.totals, table.counts
    for n in _ALL_LENGTHS - wanted:
        for key in [key for key in counts if key[0] == n]:
            del counts[key]
    return FrequencyTable(counts, totals, wanted)


def read_records(source):
    """`read_table(source).counts`: every record of a records CSV as a
    `(n, ngram, year) -> count` dict."""
    return read_table(source).counts


def _parse_records(source):
    """`read_table` without the index: parse and check every row."""
    counts: dict[tuple[int, str, int], int] = {}
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
            key = (n, ngram, year)
            if key in counts:
                raise RecordsError(f"duplicate record for {ngram!r} in {year}")
            counts[key] = count
    return counts


# The sidecar index: a header; a chunk holding the per-(n, year) totals
# and the number of entries of each length; then one section per length
# n, in order, of at most _INDEX_CHUNK entries per chunk in the dict's
# order. A chunk is a length, its crc32 and a `marshal` (version 2, which
# writes no back-references, so the bytes do not depend on reference
# counts): a `(totals, entries per length)` tuple, then a dict per chunk.
_INDEX_MAGIC = b"trendgram records index 2\n"
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
    `marshal` rejects, or section sizes that disagree with the header or
    with what the sections hold. Sections after the last of `lengths`
    are not read, and other unloaded ones are passed over by their chunk
    lengths alone; only a read of the last section checks that nothing
    follows it."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(_INDEX_HEADER.size)
            if len(header) != _INDEX_HEADER.size:
                return None
            magic, crc, size, entries = _INDEX_HEADER.unpack(header)
            if magic != _INDEX_MAGIC or (crc, size) != fingerprint:
                return None
            end = os.fstat(fh.fileno()).st_size
            totals, sizes = marshal.loads(_read_chunk(fh, end))
            if type(totals) is not dict or len(sizes) != NGRAM_MAX or sum(sizes) != entries:
                return None
            counts = {}
            last = max(lengths)
            for n, size in enumerate(sizes[:last], 1):
                chunks = -(-size // _INDEX_CHUNK)
                if n not in lengths:
                    for _ in range(chunks):
                        _read_chunk(fh, end, skip=True)
                    continue
                expected = len(counts) + size
                for _ in range(chunks):
                    counts.update(marshal.loads(_read_chunk(fh, end)))
                if len(counts) != expected:
                    return None
            if last == NGRAM_MAX and fh.read(1):
                return None
            return FrequencyTable(counts, totals, lengths)
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
    as a read-only directory) leaves things as they were. Each section
    is one filtering pass over the counts, so they are never copied."""
    counts = table.counts
    sizes = Counter(map(itemgetter(0), counts))
    try:
        with replacing(path, binary=True) as fh:
            fh.write(_INDEX_HEADER.pack(_INDEX_MAGIC, *fingerprint, len(counts)))
            _write_chunk(fh, (table.totals, tuple(sizes[n] for n in range(1, NGRAM_MAX + 1))))
            for n in range(1, NGRAM_MAX + 1):
                items = (item for item in counts.items() if item[0][0] == n)
                while part := dict(islice(items, _INDEX_CHUNK)):
                    _write_chunk(fh, part)
    except OSError:
        pass


def _write_chunk(fh, value):
    chunk = marshal.dumps(value, 2)
    fh.write(_INDEX_CHUNK_HEADER.pack(len(chunk), zlib.crc32(chunk)))
    fh.write(chunk)


def top_ngrams(table, n, k):
    """The k most frequent length-n n-grams summed across years.

    Sorted by total descending, ties broken lexicographically.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    table.require((n,))
    totals: Counter = Counter()
    for (record_n, ngram, _), count in table.counts.items():
        if record_n == n:
            totals[ngram] += count
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]
