"""The n-gram count table and the reader of records files.

The tabular model is one record per (n, ngram, year) with an occurrence
count. A `FrequencyTable` holds them as one `{ngram: count}` dict per
(n, year), the unit every frequency is taken over. `trendgram.ngrams`
counts them, writes records files and lists a table's records in their
row order; the commands that read one back (`query`, `top`, `trends`,
`catalog` and `demo`) load this module and not that one.

`read_table` keeps a sidecar index beside a records file it reads by
path, `RECORDS.idx`, holding the table it built the last time it fully
validated that exact file, each length's n-grams once in key order and
once in ranking order, and loads again the lengths it is asked for, the
heads of their rankings, or only some n-grams, while the file still has
the same inode, size, mtime and ctime, changed before the index was
written, or else the same size and crc32 (see `_read_index`). A
missing, stale or damaged index only means the CSV is parsed and checked
again, after which the index is rewritten; failing to write it is not
an error. Streams never use an index, and `write_records` does not write
one.
"""

import marshal
import os
import stat
import struct
import zlib
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cache, cached_property, partial
from itertools import chain, repeat
from operator import neg
from types import MappingProxyType

from ._limits import NGRAM_MAX

RECORDS_HEADER = ("n", "ngram", "year", "count")

_ALL_LENGTHS = frozenset(range(1, NGRAM_MAX + 1))

Prefix = namedtuple("Prefix", "first min_total", defaults=(None, 1))
Prefix.__doc__ = """The head of a ranking of n-grams by total descending, ties
broken lexicographically (the order of `top_ngrams` and `build_catalog`),
that `read_table` loads, or that a question needs (see
`FrequencyTable.require`): the first `first` n-grams (with no limit when
None) of those whose total is at least `min_total`. Over several n-gram
lengths the ranking is their combined one, so `Prefix(first=k)` is the
k most frequent n-grams of all of those lengths together, not k of
each."""


class FrequencyTable:
    """N-gram counts as `cells`, one `{ngram: count}` dict per (n, year)
    that has any, plus the per-(n, year) totals used as frequency
    denominators and the sorted years with data. Unless `totals` is
    given, both are derived from `cells` the first time they are read,
    and so is each length's view in `_views` (see `evaluate`). No cell
    is empty, so tables are equal when their cells are; they are
    unhashable.

    `lengths` are the n-gram lengths the table answers for: every length
    unless it was counted or loaded for some only (see `count_ngrams` and
    `read_table`). Such a table's `cells` hold only those lengths, while
    a loaded table's `totals` and `years` still cover every length;
    `evaluate`, `top_ngrams` and `rank_trends` refuse it any other
    length, and `build_catalog` refuses it (see `require`).

    `cuts` maps each length of which the table holds only part to
    `(loaded, next_total)`: it holds that length's first `loaded`
    n-grams in ranking order (see `Prefix`), each with all of its
    counts, and the next one has a total of `next_total`. It then
    refuses any question about that length that what it holds cannot
    answer exactly, so that an n-gram it did not load never reads as
    zero.

    `ngrams`, unless None, is the set of n-grams the table was loaded
    for (see `read_table`): it holds each of them with all of its
    counts, none if it has none, and nothing else, so it refuses any
    other n-gram and every ranking.

    Iterating yields one `NgramRecord` per count in (n, ngram, year)
    order; `len` is the number of such rows. Build one from a flat
    `(n, ngram, year) -> count` dict with `trendgram.ngrams.build_table`.
    """

    def __init__(self, cells, totals=None, lengths=_ALL_LENGTHS, cuts=None, ngrams=None):
        self.cells = cells
        self.lengths = frozenset(lengths)
        self.cuts = cuts or {}
        self.ngrams = None if ngrams is None else frozenset(ngrams)
        self._views = {}
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
        from .ngrams import _records  # which owns the row order; no read command asks

        return MappingProxyType({record[:3]: record[3] for record in _records(self.cells)})

    def __len__(self):
        return sum(map(len, self.cells.values()))

    def __iter__(self):
        from .ngrams import NgramRecord, _records

        return map(NgramRecord._make, _records(self.cells))

    def require(self, lengths, prefix=None, ngrams=()):
        """Raise `ValueError` unless the table can answer exactly about
        the n-gram `lengths`: it loaded each of them, holds the whole
        `prefix` (a `Prefix`) of their combined ranking, if one is
        given, and holds each n-gram of `ngrams`, strings of those
        lengths. Counts it did not load would read as zeros over a
        non-zero total.

        The head is proved from what the table holds: it is the head
        of the ranking of the n-grams it holds of `lengths`, unless an
        n-gram it did not load could rank in it. Call the first-th of
        those it holds, if it holds as many, the head's last. For each
        length of `cuts`, either the table holds an n-gram of that
        length that ranks at or after the head's last, which every
        n-gram of that length it did not load then ranks after, or the
        next n-gram's total is below `min_total` and below the head's
        last total."""
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
        if prefix is not None and (cut := sorted(self.cuts.keys() & lengths)):
            # the n-grams it holds from the head's last on, if it holds that many:
            # their lengths, and the total no n-gram it did not load may reach
            first, floor = prefix
            tail = () if first is None else _most_frequent(
                (cell for (n, _), cell in self.cells.items() if n in lengths), None)[first - 1:]
            past = {_length(ngram) for ngram, _ in tail}
            if tail:
                floor = max(floor, tail[0][1])
            for n in cut:
                loaded, next_total = self.cuts[n]
                if n not in past and next_total >= floor:
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
        return (self.years[0], self.years[-1]) if self.years else None


def _head(n, loaded, next_total):
    return (f"the table holds only the {loaded} most frequent length-{n} n-grams, "
            f"and the next has a total of {next_total}")


def read_table(source, lengths=None, prefix=None, ngrams=None):
    """Read a records CSV into a `FrequencyTable` holding the cells of
    the n-gram `lengths` only (default: all), enforcing every record
    invariant on the whole file. With a `prefix` (a `Prefix`), it holds
    only the n-grams of that head of the combined ranking of those
    lengths, each with all of its counts, and of a length whose next
    n-gram ties the head's last total and ranks after it, that one too,
    and notes in its `cuts` where each length stopped. For one length,
    that is the head of its ranking. With `ngrams`, a non-empty collection of
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
    `f"{source}.idx"` when that index was written for this file: one
    `os.stat` tells when it is unchanged since before the index was
    written, and a crc32 of the whole file otherwise (see `_read_index`).
    Only the sections of `lengths`, the ranked chunks the head reaches
    (see `_read_heads`), or the chunks that can hold `ngrams` are
    loaded. Otherwise the CSV is parsed, and if the file did not change
    while it was parsed, the index is (re)written, and the head is read
    from it. A stream, or a file whose index was not written, has its
    lengths ranked in memory.
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
    stamp = None if hasattr(source, "read") else _stamp(source)
    if stamp is not None:
        crc = cache(partial(_fingerprint, source))  # only if the stamp cannot tell, and once
        table = _read_index(f"{source}.idx", stamp, crc, wanted, prefix, ngrams)
        if table is not None:
            return table
    from ._whole import read_parsed  # only a miss loads the parser and the writer

    fingerprint = None if stamp is None else (crc(), *stamp)
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
_INDEX_MAGIC = b"trendgram records index 6\n"
# magic; the records file's crc32, then its stamp (see `_stamp`); entries;
# the offset of the totals chunk, then of each length's keyed section, then
# of each length's ranked section; and the crc32 of the header before it
_INDEX_HEADER = struct.Struct(f"<{len(_INDEX_MAGIC)}sIQQqqQQ{2 * NGRAM_MAX}QI")
_INDEX_CHUNK_HEADER = struct.Struct("<II")  # length, crc32
_KEYED_CHUNK = 256  # n-grams per keyed chunk
_RANKED_CHUNK = 256  # n-grams per ranked chunk, so that a place in one fits a byte
_BLOCK = 1 << 16


def _stamp(path):
    """(size, inode, mtime, ctime) of the file at `path`, the times in
    nanoseconds, or None when it is not a regular file (a pipe cannot be
    read twice)."""
    status = os.stat(path)
    if not stat.S_ISREG(status.st_mode):
        return None
    return status.st_size, status.st_ino, status.st_mtime_ns, status.st_ctime_ns


def _fingerprint(path):
    """The crc32 of the file at `path`, read in 64 KB blocks."""
    crc = 0
    with open(path, "rb") as fh:
        while block := fh.read(_BLOCK):
            crc = zlib.crc32(block, crc)
    return crc


def _read_index(path, stamp, crc, lengths, prefix=None, ngrams=None):
    """The table stored in the index at `path` for a records file with
    this `stamp` (see `_stamp`) and the crc32 `crc()` gives, holding
    `lengths` only, the head `prefix` of each one's ranking, or the
    sorted `ngrams` only, or None if the index is missing, was written
    for other content, or is damaged where it was read: a wrong magic or
    header crc32, a damaged chunk (see `_read_chunk`), one `marshal`
    rejects or that does not hold what it should, a totals chunk that is
    not the last or whose sizes disagree with the header, chunks or
    sections that are not where the header and directories say (see
    `_whole.read_lengths`), or loaded cells other than those the totals
    name. A head is read from the start of its lengths' ranked sections
    (see `_read_heads`), and n-grams from the chunks of the keyed
    sections that can hold them (see `_read_keyed`).

    The index was written for this content, without calling `crc`, when
    its stamp is `stamp` and that mtime and ctime are older than the
    index's own mtime: git's racy-timestamp rule. A change made to the
    file after the index was written gives it an mtime and ctime no
    older than the index's, so the stamp either differs or is not older.
    Otherwise `crc()` and the size must be those the index was written
    for."""
    try:
        with open(path, "rb") as fh:
            header = fh.read(_INDEX_HEADER.size)
            if len(header) != _INDEX_HEADER.size:
                return None
            (magic, records_crc, size, inode, mtime, ctime, entries, totals_at, *offsets,
             header_crc) = _INDEX_HEADER.unpack(header)
            if magic != _INDEX_MAGIC or zlib.crc32(header[:-4]) != header_crc:
                return None
            status = os.fstat(fh.fileno())
            end = status.st_size
            if (((size, inode, mtime, ctime) != stamp or max(mtime, ctime) >= status.st_mtime_ns)
                    and (records_crc, size) != (crc(), stamp[0])):
                return None
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
    """The values of the chunks of `fh` from `offset` on, each read as
    it is taken, also when chunks of other sections are read between."""
    while True:
        fh.seek(offset)
        value = marshal.loads(_read_chunk(fh, end))
        offset = fh.tell()
        yield value


def _read_heads(lengths, prefix, sections):
    """The cells and cuts of a table that holds the head `prefix` of
    the combined ranking of `lengths` (see `Prefix`), read from
    `sections(n)`, the chunks of length n's ranked section.

    Each length keeps the places `(-total, ngram, n)` of the n-grams it
    read, in ranking order, and, while it has more of total at least
    `min_total`, a place in `unread` that each of them ranks after: at
    first one before every n-gram, then the total of the next one, with
    the last n-gram read if it has that total too, else "", which every
    n-gram follows. The length whose place ranks first in `unread` reads
    its next chunk until as many n-grams read as the head holds rank at
    or before that place, and so in the order of the whole ranking; for
    one length, those are the first chunks that hold the head. Each
    length holds its n-grams in the head; and when the head is full, a
    length whose next n-gram has the total of the head's last, and so
    ranks after it, holds that one too, so that the table can prove its
    head (see `FrequencyTable.require`). That n-gram was read: its place
    in `unread` ranked before the head's last."""
    first, floor = prefix
    streams = {n: sections(n) for n in sorted(lengths)}
    read, places = {}, {}  # each length's chunks read, and the places of their n-grams
    unread = {n: (float("-inf"), "", n) for n in streams}
    while True:  # of each length, how many n-grams rank at or before `bound`
        bound = min(unread.values(), default=(1 - floor,))
        known = [bisect_right(mine, bound) for mine in places.values()]
        if first is not None and sum(known) >= first:
            last = sorted(chain.from_iterable(
                mine[:size] for mine, size in zip(places.values(), known)))[first - 1]
            # up to the head's last, and one more of another length at its total
            known = [min(bisect_right(mine, last) + (n != last[2]),
                         bisect_left(mine, (last[0] + 1,))) for n, mine in places.items()]
            break
        if not unread:
            break
        n = bound[2]
        ngrams, totals, _, next_total = chunk = next(streams[n])
        read.setdefault(n, []).append(chunk)
        places.setdefault(n, []).extend(zip(map(neg, totals), ngrams, repeat(n)))
        del unread[n]
        if next_total >= max(floor, 1):
            unread[n] = -next_total, ngrams[-1] if totals[-1] == next_total else "", n
    cells, cuts = {}, {}
    for (n, mine), size in zip(places.items(), known):
        if next_total := -mine[size][0] if size < len(mine) else read[n][-1][3]:
            cuts[n] = size, next_total
        for ngrams, _, by_year, _ in read[n]:
            for year, (at, counts) in by_year.items():
                if kept := bisect_left(at, size):
                    cells.setdefault((n, year), {}).update(
                        zip(map(ngrams.__getitem__, at[:kept]), counts[:kept]))
            size -= len(ngrams)
    return cells, cuts


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
    totals = {}
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
