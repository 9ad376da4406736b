"""The n-gram count table and the reader of records files.

The tabular model is one record per (n, ngram, year) with an occurrence
count. A `FrequencyTable` holds them as one `{ngram: count}` dict per
(n, year), the unit every frequency is taken over. `trendgram.ngrams`
counts them and writes records files; the commands that read one back
(`query`, `top`, `trends`, `catalog` and `demo`) load this module and
not that one, and `trendgram.ngrams` still exports the names below.

`read_table` keeps a sidecar index beside a records file it reads by
path, `RECORDS.idx`, holding the table it built the last time it fully
validated that exact file, each length's n-grams once in key order and
once in ranking order, and loads again the lengths it is asked for, the
heads of their rankings, or only some n-grams, while the file's size
and crc32 still match (see `_read_index`). A missing, stale or damaged
index only means the CSV is parsed and checked again, after which the
index is rewritten; failing to write it is not an error. Streams never
use an index, and `write_records` does not write one.
"""

from __future__ import annotations

import marshal
import os
import stat
import struct
import zlib
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cached_property
from itertools import repeat
from operator import itemgetter, neg
from types import MappingProxyType

from ._limits import NGRAM_MAX

RECORDS_HEADER = ("n", "ngram", "year", "count")

_ALL_LENGTHS = frozenset(range(1, NGRAM_MAX + 1))


NgramRecord = namedtuple("NgramRecord", "n ngram year count")

Prefix = namedtuple("Prefix", "first min_total", defaults=(None, 1))
Prefix.__doc__ = """The head of each n-gram length's ranking, by total descending,
ties broken lexicographically (the order of `top_ngrams`) that
`read_table` loads, or that a question needs (see
`FrequencyTable.require`): the first `first` n-grams (with no limit when
None) of those whose total is at least `min_total`."""


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
    refuse it any other length, and `build_catalog` refuses it (see
    `require`).

    `cuts` maps each length of which the table holds only the head of
    the ranking (see `Prefix`) to `(loaded, next_total)`: it holds that
    length's first `loaded` n-grams in ranking order, each with all of
    its counts, and the next one has a total of `next_total`. It then
    refuses any question about that length that the head cannot answer
    exactly, so that an n-gram it did not load never reads as zero.

    `ngrams`, unless None, is the set of n-grams the table was loaded
    for (see `read_table`): it holds each of them with all of its
    counts, none if it has none, and nothing else, so it refuses any
    other n-gram and every ranking.

    Iterating yields one `NgramRecord` per count in (n, ngram, year)
    order; `len` is the number of such rows. Build one from a flat
    `(n, ngram, year) -> count` dict with `build_table`.
    """

    __hash__ = None

    def __init__(self, cells: dict[tuple[int, int], dict[str, int]], totals=None,
                 lengths=_ALL_LENGTHS, cuts=None, ngrams=None):
        self.cells = cells
        self.lengths = frozenset(lengths)
        self.cuts = cuts or {}
        self.ngrams = None if ngrams is None else frozenset(ngrams)
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

    def require(self, lengths, prefix=None, ngrams=()):
        """Raise `ValueError` unless the table can answer exactly about
        the n-gram `lengths`: it loaded each of them, holds the whole
        `prefix` (a `Prefix`) of each one's ranking, if one is given,
        and holds each n-gram of `ngrams`, strings of those lengths.
        Counts it did not load would read as zeros over a non-zero
        total."""
        if not self.lengths.issuperset(lengths):
            raise ValueError(f"n-gram length {min(set(lengths) - self.lengths)} was not loaded; "
                             f"the table holds {', '.join(map(str, sorted(self.lengths)))}")
        if self.ngrams is not None:
            asked = f"the table holds only the {len(self.ngrams)} n-grams it was loaded for"
            if prefix is not None:
                raise ValueError(f"{asked}: it holds no ranking, so not {prefix}")
            for ngram in ngrams:
                if ngram not in self.ngrams:
                    raise ValueError(f"n-gram {ngram!r} was not loaded: {asked}")
            return
        if not self.cuts:
            return
        for n in sorted(self.cuts.keys() & lengths) if prefix is not None else ():
            loaded, next_total = self.cuts[n]
            if (prefix.first is None or prefix.first > loaded) and prefix.min_total <= next_total:
                raise ValueError(f"{_head(n, loaded, next_total)}: too few for {prefix}")
        for ngram in ngrams:
            if ngram not in self._held and (n := _length(ngram)) in self.cuts:
                raise ValueError(f"n-gram {ngram!r} was not loaded: {_head(n, *self.cuts[n])}")

    @cached_property
    def _held(self):
        """The n-grams the table holds of the lengths in `cuts`."""
        return set().union(*(cell for (n, _), cell in self.cells.items() if n in self.cuts))

    def has_data(self, n, year):
        return self.totals.get((n, year), 0) > 0

    def year_span(self):
        if not self.years:
            return None
        return self.years[0], self.years[-1]


def _head(n, loaded, next_total):
    return (f"the table holds only the {loaded} most frequent length-{n} n-grams, "
            f"and the next has a total of {next_total}")


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


def read_table(source, lengths=None, prefix=None, ngrams=None):
    """Read a records CSV into a `FrequencyTable` holding the cells of
    the n-gram `lengths` only (default: all), enforcing every record
    invariant on the whole file. With a `prefix` (a `Prefix`), it holds
    of each of those lengths only the n-grams of that head of the
    length's ranking, each with all of its counts, and notes in its
    `cuts` where it stopped. With `ngrams`, a non-empty collection of
    n-gram strings (1 to NGRAM_MAX non-empty tokens joined by single
    spaces), it holds those n-grams only, each with all of its counts,
    and answers for nothing else (see `FrequencyTable.ngrams`); the
    lengths are then theirs, and `lengths`, if given, must be the same.
    Its `totals` and `years` are those of the whole file, whatever it
    holds. Bad arguments raise `ValueError` before the file is opened.

    This file is machine-produced, so any malformed row is corruption
    and raises `RecordsError` naming the file (when `source` is a path)
    and the offending line.

    For a path to a regular file, the table comes from the sidecar index
    `f"{source}.idx"` when that index was written for a file of the
    same size and crc32; only the sections of `lengths`, the heads of
    their rankings, or the chunks that can hold `ngrams` are loaded.
    Otherwise the CSV is parsed, and if the file did not change while
    it was parsed, the index is (re)written, and the heads are read from
    it. A stream, or a file whose index was not written, has its heads
    ranked in memory.
    """
    wanted = _ALL_LENGTHS if lengths is None else frozenset(lengths)
    if not wanted or not wanted <= _ALL_LENGTHS:
        raise ValueError(f"lengths must be a non-empty subset of 1..{NGRAM_MAX}, "
                         f"got {sorted(wanted)}")
    if prefix is not None and prefix.first is not None and prefix.first < 1:
        raise ValueError(f"a prefix must hold at least 1 n-gram, got {prefix.first}")
    if ngrams is not None:
        ngrams = _checked_ngrams(ngrams)
        if prefix is not None:
            raise ValueError("give a prefix or n-grams, not both")
        asked = frozenset(map(_length, ngrams))
        if lengths is not None and wanted != asked:
            raise ValueError(f"lengths {sorted(wanted)} are not those of the n-grams, "
                             f"{sorted(asked)}")
        wanted = asked
    fingerprint = None if hasattr(source, "read") else _fingerprint(source)
    if fingerprint is not None:
        table = _read_index(f"{source}.idx", fingerprint, wanted, prefix, ngrams)
        if table is not None:
            return table
    from ._whole import read_parsed  # only a miss loads the parser and the writer

    return read_parsed(source, fingerprint, wanted, prefix, ngrams)


def _checked_ngrams(ngrams):
    """`ngrams` as a sorted list, or `ValueError` if it is one string,
    empty, or holds other than n-gram strings."""
    if isinstance(ngrams, str):
        raise ValueError(f"n-grams must be a collection of strings, not the string {ngrams!r}")
    ngrams = list(ngrams)
    if not ngrams:
        raise ValueError("n-grams must not be empty")
    for ngram in ngrams:
        tokens = ngram.split(" ") if isinstance(ngram, str) else ()
        if not 1 <= len(tokens) <= NGRAM_MAX or not all(tokens):
            raise ValueError(f"{ngram!r} is not 1 to {NGRAM_MAX} non-empty tokens joined by "
                             f"single spaces")
    return sorted(set(ngrams))


def _length(ngram):
    """The number of tokens of an n-gram string."""
    return ngram.count(" ") + 1


def _taken(totals, prefix, taken):
    """How many n-grams of the `totals` that follow the first `taken`
    of a ranking, a sequence in descending order, the head `prefix`
    takes."""
    size = bisect_right(totals, -prefix.min_total, key=neg)
    return size if prefix.first is None else min(size, prefix.first - taken)


def read_records(source):
    """`read_table(source).counts`: every record of a records CSV as a
    read-only `(n, ngram, year) -> count` mapping."""
    return read_table(source).counts


# The sidecar index: a header; then for each length from 1 to NGRAM_MAX
# its keyed section and its ranked section; then a chunk holding the
# per-(n, year) totals and the number of records of each length. The
# header gives the offset of that chunk and of every section. A keyed
# section is a directory chunk, `(firsts, offsets)`, then the length's
# n-grams in lexicographic order, _KEYED_CHUNK consecutive ones per chunk
# (the last may hold fewer), each chunk a `{year: {ngram: count}}` dict
# in ascending years and n-grams; `firsts` holds each chunk's first
# n-gram, and `offsets` the offset of each chunk as little-endian 8-byte
# integers. A ranked section holds the length's n-grams in ranking order,
# in chunks of _RANKED_CHUNK n-grams (see `_whole.ranked_chunks`).
# A chunk is a length, its crc32 and a `marshal` (version 2, which writes
# no back-references, so the bytes do not depend on reference counts).
# Each length's sections are built from its own cells, and the totals
# chunk and the header are written last. `trendgram._whole` writes
# it.
_INDEX_MAGIC = b"trendgram records index 5\n"
# magic, crc32, size, entries, the offset of the totals chunk, then of each
# length's keyed section, then of each length's ranked section
_INDEX_HEADER = struct.Struct(f"<{len(_INDEX_MAGIC)}sIQQQ{2 * NGRAM_MAX}Q")
_INDEX_CHUNK_HEADER = struct.Struct("<II")  # length, crc32
_KEYED_CHUNK = 256  # n-grams per keyed chunk
_RANKED_CHUNK = 256  # n-grams per ranked chunk, so that a place in one fits a byte
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


def _read_index(path, fingerprint, lengths, prefix=None, ngrams=None):
    """The table stored in the index at `path` for a records file with
    this fingerprint, holding `lengths` only, the head `prefix` of each
    one's ranking, or the sorted `ngrams` only, or None if the index is
    missing, was written for other content, or is damaged where it was
    read: a wrong magic, a damaged chunk (see `_read_chunk`), one
    `marshal` rejects or that does not hold what it should, a totals
    chunk that is not the last or whose sizes disagree with the header,
    chunks or sections that are not where the header and directories
    say (see `_whole.read_lengths`), or loaded cells other than those the
    totals name. A head is read from the start of its length's ranked
    section (see `_read_head`), and n-grams from the chunks of the keyed
    sections that can hold them (see `_read_keyed`)."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(_INDEX_HEADER.size)
            if len(header) != _INDEX_HEADER.size:
                return None
            magic, crc, size, entries, totals_at, *offsets = _INDEX_HEADER.unpack(header)
            if magic != _INDEX_MAGIC or (crc, size) != fingerprint:
                return None
            end = os.fstat(fh.fileno()).st_size
            fh.seek(totals_at)
            totals, sizes = marshal.loads(_read_chunk(fh, end))
            if type(totals) is not dict or sum(sizes) != entries or fh.tell() != end:
                return None
            keyed, ranked = offsets[:NGRAM_MAX], offsets[NGRAM_MAX:]
            cuts = {}
            if prefix is not None:
                cells, cuts = _read_heads(lengths, prefix,
                                          lambda n: _chunks_at(fh, end, ranked[n - 1]))
            elif ngrams is not None:
                cells = _read_keyed(fh, end, keyed, ngrams)
            else:
                from ._whole import read_lengths  # no command loads whole lengths

                bounds = [*(at for pair in zip(keyed, ranked) for at in pair), totals_at]
                cells = read_lengths(fh, end, lengths, bounds, sizes)
            whole = () if ngrams is not None else lengths - cuts.keys()
            if not {key for key in totals if key[0] in whole} <= cells.keys() <= totals.keys():
                return None
            return FrequencyTable(cells, totals, lengths, cuts, ngrams)
    except (OSError, ValueError, EOFError, TypeError, AttributeError, LookupError, struct.error):
        return None


def _read_directory(fh, end, offset):
    """The first n-gram and the offset of each chunk of the keyed
    section at `offset`, from its directory chunk."""
    fh.seek(offset)
    firsts, offsets = marshal.loads(_read_chunk(fh, end))
    return firsts, struct.unpack(f"<{len(firsts)}Q", offsets)


def _read_keyed(fh, end, keyed, ngrams):
    """The cells of the sorted `ngrams`, from the keyed sections that
    start at the offsets `keyed`: of each of their lengths, the
    directory and then only the chunks whose key range can hold one of
    them, found by bisection, each read once."""
    cells = {}
    for n in sorted(set(map(_length, ngrams))):
        asked = [ngram for ngram in ngrams if _length(ngram) == n]
        firsts, offsets = _read_directory(fh, end, keyed[n - 1])
        for chunk in sorted({bisect_right(firsts, ngram) - 1 for ngram in asked} - {-1}):
            fh.seek(offsets[chunk])
            for year, part in marshal.loads(_read_chunk(fh, end)).items():
                if type(part) is not dict:
                    raise ValueError("keyed chunk damaged")
                if counts := {ngram: part[ngram] for ngram in asked if ngram in part}:
                    cells.setdefault((n, year), {}).update(counts)
    return cells


def _chunks_at(fh, end, offset):
    """The values of the chunks of `fh` from `offset` on, read as they
    are taken."""
    fh.seek(offset)
    return iter(lambda: marshal.loads(_read_chunk(fh, end)), None)


def _read_heads(lengths, prefix, sections):
    """The cells and cuts of a table that holds the head `prefix` of
    the ranking of each of `lengths`, read from `sections(n)`, the
    chunks of length n's ranked section."""
    cells, cuts = {}, {}
    for n in sorted(lengths):
        loaded, next_total = _read_head(sections(n), n, prefix, cells)
        if next_total:
            cuts[n] = loaded, next_total
    return cells, cuts


def _read_head(chunks, n, prefix, cells):
    """Load into `cells` the head `prefix` of length `n`'s ranking from
    `chunks`, the chunks of its ranked section, taking only those that
    hold some of it, and return `(loaded, next_total)`: how many n-grams
    it holds, and the total of the next one, 0 if there is none."""
    loaded = 0
    for ngrams, totals, by_year, next_total in chunks:
        size = _taken(totals, prefix, loaded)
        for year, (places, counts) in by_year.items():
            kept = bisect_left(places, size)
            if kept:
                cells.setdefault((n, year), {}).update(
                    zip(map(ngrams.__getitem__, places[:kept]), counts[:kept]))
        if size < len(ngrams):
            next_total = totals[size]
        loaded += size
        if (size < len(ngrams) or not next_total or loaded == prefix.first
                or next_total < prefix.min_total):
            return loaded, next_total


def _read_chunk(fh, end):
    """The payload of the next chunk in `fh`, checked against its crc32.
    A chunk cut short, a crc32 mismatch, or a length that runs past
    `end`, the size of the file (checked before anything is allocated),
    raise `ValueError`."""
    header = fh.read(_INDEX_CHUNK_HEADER.size)
    if len(header) != _INDEX_CHUNK_HEADER.size:
        raise ValueError("index chunk header cut short")
    length, crc = _INDEX_CHUNK_HEADER.unpack(header)
    if length > end - fh.tell():
        raise ValueError("index chunk runs past the end of the file")
    chunk = fh.read(length)
    if len(chunk) != length or zlib.crc32(chunk) != crc:
        raise ValueError("index chunk damaged")
    return chunk


def _ngram_totals(cells):
    """Each n-gram's count summed over `cells`, `{ngram: count}` dicts."""
    totals: dict[str, int] = {}
    get = totals.get
    for cell in cells:
        for ngram, count in cell.items():
            totals[ngram] = get(ngram, 0) + count
    return totals


def _ranked(cells):
    """The n-grams of `cells` sorted by total (see `_ngram_totals`)
    descending, ties broken lexicographically, and the totals."""
    totals = _ngram_totals(cells)
    return _by_total(sorted(totals), totals), totals


def _by_total(ngrams, totals):
    """The list `ngrams`, sorted lexicographically, sorted in place by
    their `totals` descending: a stable sort keyed in C, so ties stay in
    lexicographic order."""
    ngrams.sort(key=totals.__getitem__, reverse=True)
    return ngrams


def _most_frequent(cells, k):
    """The k `(ngram, total)` pairs of `cells` with the highest totals,
    in `_ranked` order."""
    ranked, totals = _ranked(cells)
    return [(ngram, totals[ngram]) for ngram in ranked[:k]]


def top_ngrams(table, n, k):
    """The k most frequent length-n n-grams summed across years.

    Sorted by total descending, ties broken lexicographically.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    table.require((n,), Prefix(first=k))
    return _most_frequent((cell for (length, _), cell in table.cells.items() if length == n), k)
