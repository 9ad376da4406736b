"""Writing the sidecar index of a records file, whose format and reader
are in `trendgram.ngrams`. `read_table` imports this module only when it
has parsed a records file, so that a command that finds a valid index
does not load it."""

from __future__ import annotations

import marshal
import zlib
from bisect import bisect_left
from itertools import islice, repeat
from operator import sub

from ._io import replacing
from ._limits import NGRAM_MAX
from .ngrams import (_INDEX_CHUNK, _INDEX_CHUNK_HEADER, _INDEX_HEADER, _INDEX_MAGIC,
                     _RANKED_CHUNK, _ranked)


def write_index(path, fingerprint, table):
    """Store the full `table` as the index at `path` for a records file
    with this fingerprint, replacing it atomically; an `OSError` (such
    as a read-only directory) leaves things as they were. The header,
    which holds the offsets of the ranked sections, is written last;
    only one length's ranking is alive at a time."""
    cells = table.cells
    layout = tuple((n, year, len(cells[n, year])) for n, year in sorted(cells))
    try:
        with replacing(path, binary=True) as fh:
            fh.write(bytes(_INDEX_HEADER.size))
            _write_chunk(fh, (table.totals, layout))
            for n, year, _ in layout:
                items = iter(cells[n, year].items())
                while part := dict(islice(items, _INDEX_CHUNK)):
                    _write_chunk(fh, part)
            offsets = []
            for n in range(1, NGRAM_MAX + 1):
                offsets.append(fh.tell())
                for chunk in ranked_chunks(cells, n):
                    _write_chunk(fh, chunk)
            fh.seek(0)
            fh.write(_INDEX_HEADER.pack(_INDEX_MAGIC, *fingerprint, len(table), *offsets))
    except OSError:
        pass


def ranked_chunks(cells, n):
    """The chunks of the ranked section of length `n` of `cells`: its
    n-grams in ranking order (see `_ranked`), _RANKED_CHUNK at a time,
    each chunk a tuple `(ngrams, totals, by_year, next_total)` of the
    n-grams, their totals, their counts, and the total of the next
    chunk's first n-gram, 0 for the last chunk. `by_year` maps each year
    in ascending order to `(places, counts)`: the places in `ngrams` of
    the chunk's n-grams that have counts that year, ascending, as bytes
    (a chunk holds 256 n-grams at most), and their counts. A length with
    no n-grams has one chunk that holds none.

    Each year's places in the ranking are sorted once, so that a
    chunk's counts of that year are one slice of them, found by
    bisection; no Python code runs per n-gram."""
    years = sorted(year for length, year in cells if length == n)
    length_cells = [cells[n, year] for year in years]
    ranked, totals = _ranked(length_cells)
    ranked_totals = list(map(totals.__getitem__, ranked))
    place = totals  # each n-gram's place in the ranking, reusing the dict
    place.update(zip(ranked, range(len(ranked))))
    del totals
    places = [sorted(map(place.__getitem__, cell)) for cell in length_cells]
    starts = [0] * len(years)
    for at in range(0, max(len(ranked), 1), _RANKED_CHUNK):
        stop = at + _RANKED_CHUNK
        by_year = {}
        for index, year in enumerate(years):
            start, starts[index] = starts[index], bisect_left(places[index], stop, starts[index])
            if starts[index] > start:
                held = places[index][start:starts[index]]
                by_year[year] = (bytes(map(sub, held, repeat(at))), tuple(map(
                    length_cells[index].__getitem__, map(ranked.__getitem__, held))))
        yield (tuple(ranked[at:stop]), tuple(ranked_totals[at:stop]), by_year,
               ranked_totals[stop] if stop < len(ranked) else 0)


def _write_chunk(fh, value):
    chunk = marshal.dumps(value, 2)
    fh.write(_INDEX_CHUNK_HEADER.pack(len(chunk), zlib.crc32(chunk)))
    fh.write(chunk)
