"""The work on a records file that no command does while the file's
index is valid: parsing and checking the whole CSV, writing the whole
sidecar index, whose format and reader are in `trendgram.table`, and
loading whole n-gram lengths from the index, which only the library's
`read_table(path, lengths)` asks for. `read_table` imports this module
only then, so that a command that finds a valid index compiles none of
it."""

import marshal
import struct
import zlib
from bisect import bisect_left
from itertools import repeat
from operator import sub

from ._io import checked_csv, replacing
from ._limits import NGRAM_MAX
from .errors import RecordsError
from .table import (_ALL_LENGTHS, _INDEX_CHUNK_HEADER, _INDEX_HEADER, _INDEX_MAGIC, _KEYED_CHUNK,
                    _RANKED_CHUNK, RECORDS_HEADER, FrequencyTable, _by_total, _fingerprint,
                    _ngram_totals, _ranked, _read_chunk, _read_directory, _read_heads, _read_index,
                    _stamp)


def read_parsed(source, fingerprint, lengths, prefix=None, ngrams=None):
    """`read_table(source, lengths, prefix, ngrams)` by parsing the CSV,
    with the arguments checked and `lengths` those of `ngrams`, if
    given. `fingerprint` is `(crc32, *stamp)` of the file `source`
    names, the stamp (see `table._stamp`) taken before the crc32, or
    None for a stream. If the crc32 and then the stamp are the same once
    the file is parsed, the index is (re)written for that fingerprint,
    and heads are read back from it. Otherwise heads are ranked in
    memory."""
    table = FrequencyTable(_parse_records(source))
    if fingerprint is not None and (_fingerprint(source), _stamp(source)) == (
            fingerprint[0], fingerprint[1:]):
        write_index(f"{source}.idx", fingerprint, table)
        # reading heads back from the index costs less than ranking again
        head = None if prefix is None else _read_index(
            f"{source}.idx", fingerprint[1:], lambda: fingerprint[0], lengths, prefix)
        if head is not None:
            return head
    if prefix is not None:
        cells, cuts = _read_heads(lengths, prefix, lambda n: ranked_chunks(table.cells, n))
        return FrequencyTable(cells, table.totals, lengths, cuts)
    if ngrams is not None:
        cells = {}
        for key, cell in table.cells.items():
            if key[0] in lengths and (counts := {ngram: cell[ngram] for ngram in ngrams
                                                 if ngram in cell}):
                cells[key] = counts
        return FrequencyTable(cells, table.totals, lengths, ngrams=ngrams)
    if lengths == _ALL_LENGTHS:
        return table
    cells = {key: cell for key, cell in table.cells.items() if key[0] in lengths}
    return FrequencyTable(cells, table.totals, lengths)


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


def read_lengths(fh, end, lengths, bounds, sizes):
    """The cells of `lengths`, read from every chunk of their keyed
    sections. `bounds` are the offsets of the sections in file order,
    each length's keyed and then ranked one, and of the totals chunk;
    `sizes` the number of records of each length. Raises `ValueError`
    if a chunk is not where its directory says, a keyed section does
    not end where its ranked section starts, a part of a chunk is not a
    dict, or a length holds other than its size. Only a read of every
    length, which loads the whole table, also checks every ranked chunk
    and that each section starts where the one before it ends."""
    cells = {}
    everything = lengths == _ALL_LENGTHS
    if everything and bounds[0] != _INDEX_HEADER.size:
        raise ValueError("index sections do not follow the header")
    for n in sorted(lengths):
        ranked_at, stop = bounds[2 * n - 1], bounds[2 * n]
        for at in _read_directory(fh, end, bounds[2 * n - 2])[1]:
            if fh.tell() != at:
                raise ValueError("keyed chunk out of place")
            for year, part in marshal.loads(_read_chunk(fh, end)).items():
                if type(part) is not dict:
                    raise ValueError("keyed chunk damaged")
                cell = cells.get((n, year))
                if cell is None:
                    cells[n, year] = part
                else:
                    cell.update(part)
        if fh.tell() != ranked_at:
            raise ValueError("keyed section does not end where its ranked section starts")
        if sum(len(cell) for (length, _), cell in cells.items() if length == n) != sizes[n - 1]:
            raise ValueError(f"length {n} holds other than its size")
        if everything:
            while fh.tell() < stop:
                _read_chunk(fh, end)
            if fh.tell() != stop:
                raise ValueError("ranked section runs past the next section")
    return cells


def write_index(path, fingerprint, table):
    """Store the full `table` as the index at `path` for a records file
    with this fingerprint, `(crc32, *stamp)` (see `read_parsed`),
    replacing it atomically; an `OSError` (such as a read-only
    directory) leaves things as they were. Each length's keyed and
    ranked sections are built from that length's cells alone, one length
    at a time, from one lexicographic sort of its n-grams; the totals
    chunk and then the header, which gives the offsets and ends with its
    own crc32, are written last."""
    cells = table.cells
    keyed, ranked, sizes = [], [], []
    try:
        with replacing(path, binary=True) as fh:
            fh.write(bytes(_INDEX_HEADER.size))
            for n in range(1, NGRAM_MAX + 1):
                years, length_cells = _length_cells(cells, n)
                sizes.append(sum(map(len, length_cells)))
                totals = _ngram_totals(length_cells)
                order = sorted(totals)
                keyed.append(fh.tell())
                _write_keyed_section(fh, years, length_cells, order)
                ranked.append(fh.tell())
                for chunk in _ranked_chunks(years, length_cells, _by_total(order, totals), totals):
                    _write_chunk(fh, chunk)
                del order, totals
            totals_at = fh.tell()
            _write_chunk(fh, (table.totals, tuple(sizes)))
            fh.seek(0)
            header = _INDEX_HEADER.pack(_INDEX_MAGIC, *fingerprint, sum(sizes), totals_at,
                                        *keyed, *ranked, 0)[:-4]
            fh.write(header + zlib.crc32(header).to_bytes(4, "little"))
    except OSError:
        pass


def _length_cells(cells, n):
    """The years of length `n` in `cells`, ascending, and its cells in that order."""
    years = sorted(year for length, year in cells if length == n)
    return years, [cells[n, year] for year in years]


def _write_keyed_section(fh, years, length_cells, keys):
    """Write the keyed section of a length with these `years` and
    `length_cells`, whose n-grams are `keys`, sorted: the directory,
    then _KEYED_CHUNK consecutive keys per chunk. Each year's n-grams
    are sorted once and sliced at the chunks' first keys, found by
    bisection. The directory is written first with its offsets zeroed,
    which does not change its size, and written again once they are
    known."""
    firsts = tuple(keys[::_KEYED_CHUNK])
    slices = []  # (year, cell, its n-grams sorted, where each chunk's start in them)
    for year, cell in zip(years, length_cells):
        held = sorted(cell)
        slices.append((year, cell, held, [*map(bisect_left, repeat(held), firsts), len(held)]))
    start = fh.tell()
    _write_chunk(fh, (firsts, bytes(8 * len(firsts))))
    offsets = []
    for index in range(len(firsts)):
        chunk = {}
        for year, cell, held, starts in slices:
            if starts[index + 1] > starts[index]:
                part = held[starts[index]:starts[index + 1]]
                chunk[year] = dict(zip(part, map(cell.__getitem__, part)))
        offsets.append(fh.tell())
        _write_chunk(fh, chunk)
    stop = fh.tell()
    fh.seek(start)
    _write_chunk(fh, (firsts, struct.pack(f"<{len(offsets)}Q", *offsets)))
    fh.seek(stop)


def ranked_chunks(cells, n):
    """The chunks of the ranked section of length `n` of `cells`: its
    n-grams in ranking order (see `_ranked`), _RANKED_CHUNK at a time,
    each chunk a tuple `(ngrams, totals, by_year, next_total)` of the
    n-grams, their totals, their counts, and the total of the next
    chunk's first n-gram, 0 for the last chunk. `by_year` maps each year
    in ascending order to `(places, counts)`: the places in `ngrams` of
    the chunk's n-grams that have counts that year, ascending, as bytes
    (a chunk holds 256 n-grams at most), and their counts. A length with
    no n-grams has one chunk that holds none."""
    years, length_cells = _length_cells(cells, n)
    return _ranked_chunks(years, length_cells, *_ranked(length_cells))


def _ranked_chunks(years, length_cells, ranked, totals):
    """`ranked_chunks` of a length with these `years` and `length_cells`,
    whose n-grams in ranking order are `ranked` and whose totals are
    `totals`, a dict it takes over. Each year's places in the ranking
    are sorted once, so that a chunk's counts of that year are one slice
    of them, found by bisection; no Python code runs per n-gram."""
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
