from __future__ import annotations

import contextlib
import io
import itertools
import marshal
import os
import random
import struct
import subprocess
import sys
import threading
import zlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trendgram
from oracle import naive_ngram_counts, naive_records_text
from support import STOPPY_WORDS, WORDS, random_counts, random_sentences
from trendgram import ngrams
from trendgram.cli import run
from trendgram.errors import RecordsError, TrendgramError
from trendgram.ngrams import (NgramRecord, Stoplist, build_table,
                              count_ngrams, ngrams_of, passes_stopword_rule,
                              read_records, read_table, top_ngrams, write_records)
from trendgram.textprep import Sentence


def sentence(tokens, year=2008):
    return Sentence(list(tokens), "abstract", "x:1", year)


# ---------------------------------------------------------------------------
# Window enumeration


def test_ngrams_of_three_tokens():
    assert ngrams_of(["here", "you", "are"], 1, 3) == [
        ("here",), ("you",), ("are",),
        ("here", "you"), ("you", "are"),
        ("here", "you", "are"),
    ]


def test_ngrams_of_empty():
    assert ngrams_of([], 1, 4) == []


def test_ngrams_of_window_arithmetic():
    grams = ngrams_of(list("abcde"), 1, 4)
    assert len(grams) == 5 + 4 + 3 + 2


def test_ngrams_of_rejects_bad_bounds():
    with pytest.raises(ValueError):
        ngrams_of(["x"], 0, 2)
    with pytest.raises(ValueError):
        ngrams_of(["x"], 3, 2)


# ---------------------------------------------------------------------------
# Stopword rule


def test_stopword_rule_excludes_majority_stopwords(stoplist):
    assert not passes_stopword_rule(("any", "of", "programs"), stoplist)


def test_stopword_rule_retains_minority_stopwords(stoplist):
    assert passes_stopword_rule(("comprehension", "of", "programs"), stoplist)


def test_stopword_rule_single_stopword_unigram(stoplist):
    assert not passes_stopword_rule(("of",), stoplist)


def test_stopword_rule_half_is_excluded(stoplist):
    # exactly 50% stopwords meets the "at least 50%" bar
    assert not passes_stopword_rule(("of", "programs"), stoplist)
    assert not passes_stopword_rule(("comprehension", "of"), stoplist)


def test_stopword_rule_every_one_stopword_bigram_excluded(stoplist):
    for stop in ("of", "the", "with", "very"):
        assert not passes_stopword_rule((stop, "program"), stoplist)
        assert not passes_stopword_rule(("program", stop), stoplist)


def test_stoplist_parsing():
    text = "# comment\nof\n\nThe  \nwith # trailing note\n"
    stoplist = Stoplist.from_text(text)
    assert "of" in stoplist and "the" in stoplist and "with" in stoplist
    assert len(stoplist) == 3


def test_stoplist_empty_rejected():
    with pytest.raises(TrendgramError):
        Stoplist.from_text("# only comments\n")


def test_default_stoplist_contents(stoplist):
    assert "of" in stoplist
    assert "any" in stoplist
    assert "program" not in stoplist
    assert len(stoplist) == 174


# ---------------------------------------------------------------------------
# Counting


def test_count_ngrams_single_sentence(stoplist):
    records = count_ngrams([sentence(["program", "comprehension"], 2010)], stoplist)
    assert list(records) == [
        NgramRecord(1, "comprehension", 2010, 1),
        NgramRecord(1, "program", 2010, 1),
        NgramRecord(2, "program comprehension", 2010, 1),
    ]


def test_count_ngrams_empty_stream(stoplist):
    assert list(count_ngrams([], stoplist)) == []


def test_count_ngrams_repeats_within_sentence_count_each(stoplist):
    records = count_ngrams([sentence(["code", "code", "code"])], stoplist, 1, 2)
    by_key = {(r.n, r.ngram): r.count for r in records}
    assert by_key[(1, "code")] == 3
    assert by_key[(2, "code code")] == 2


def test_count_ngrams_respects_year_keys(stoplist):
    records = count_ngrams(
        [sentence(["code"], 2001), sentence(["code"], 2002), sentence(["code"], 2001)],
        stoplist)
    assert list(records) == [
        NgramRecord(1, "code", 2001, 2),
        NgramRecord(1, "code", 2002, 1),
    ]


def test_count_ngrams_agrees_with_naive_oracle(stoplist):
    rng = random.Random(11)
    for round_ in range(40):
        # the second half is stopword-dense, so most windows are dropped
        vocab = WORDS + STOPPY_WORDS if round_ < 20 else STOPPY_WORDS + WORDS[:2]
        sentences = random_sentences(rng, rng.randint(0, 30), vocab=vocab)
        n_min = rng.randint(1, 4)
        n_max = rng.randint(n_min, 4)
        expected = naive_ngram_counts(sentences, stoplist, n_min, n_max)
        table = count_ngrams(sentences, stoplist, n_min, n_max)
        got = {(r.n, r.ngram, r.year): r.count for r in table}
        assert got == expected
        assert table.counts == expected
        # Any container of stopwords serves, as it does `passes_stopword_rule`.
        assert count_ngrams(sentences, set(stoplist.words), n_min, n_max) == table

        totals = {}
        for (n, _, year), count in expected.items():
            totals[(n, year)] = totals.get((n, year), 0) + count
        assert table.totals == totals
        assert table.years == sorted({year for _, _, year in expected})

        rows = list(table)
        assert len(table) == len(rows) == len(expected)
        assert [(r.n, r.ngram, r.year) for r in rows] == sorted(expected)
        assert_table_contract(table, expected)

        buffer = io.StringIO()
        write_records(table, buffer)
        assert build_table(read_records(io.StringIO(buffer.getvalue()))) == table
        streamed = read_table(io.StringIO(buffer.getvalue()))
        assert streamed == table
        assert_table_contract(streamed, expected)


def assert_table_contract(table, expected):
    """What a table promises its readers, `bench/tracing.py` among them,
    for a table whose counts are the `(n, ngram, year) -> count` dict
    `expected`: no empty cell; a flat `counts` view equal to `expected`,
    read-only and iterated in `sorted` key order; one row per count; and
    `NgramRecord`s in (n, ngram, year) order."""
    assert all(table.cells.values())
    view = table.counts
    assert view == expected
    assert not hasattr(view, "__setitem__") and not hasattr(view, "__delitem__")
    with pytest.raises(TypeError):
        view[(1, "x", 2000)] = 1
    assert list(view) == sorted(view) == sorted(expected)
    # Lookups answer as the flat dict did, for keys of any shape.
    for key in ((1, "x"), (1, "x", 2000, 1), "abc", None, (None, "x", 2000), (9, "x", 2000)):
        assert key not in view
        assert view.get(key, "absent") == "absent"
        with pytest.raises(KeyError):
            view[key]
    assert all(key in view and view.get(key) == count for key, count in expected.items())
    assert len(table) == len(view) == len(expected)
    assert list(table) == [NgramRecord(*key, expected[key]) for key in sorted(expected)]
    assert build_table(dict(view.items())) == table
    assert table.totals == {key: sum(cell.values()) for key, cell in table.cells.items()}


def test_counted_table_equals_its_view_and_its_records_read_back(stoplist, tmp_path):
    sentences = random_sentences(random.Random(17), 80)
    expected = naive_ngram_counts(sentences, stoplist)
    table = count_ngrams(sentences, stoplist)
    path = tmp_path / "records.csv"
    write_records(table, path)
    parsed, parses = read_counting_parses(path)
    assert parses == 1 and index_of(path).exists()
    indexed = table_from_index(path, None)
    assert table == build_table(dict(table.counts.items())) == parsed == indexed
    for each in (table, parsed, indexed):
        assert_table_contract(each, expected)
    assert parsed.totals == indexed.totals == table.totals


def test_count_ngrams_rejects_bad_bounds_without_sentences(stoplist):
    with pytest.raises(ValueError, match="bad n-gram bounds 0..2"):
        count_ngrams([], stoplist, 0, 2)
    with pytest.raises(ValueError, match="bad n-gram bounds 3..2"):
        count_ngrams([], stoplist, 3, 2)


def test_ngram_lengths_stop_at_ngram_max(stoplist):
    with pytest.raises(ValueError, match="bad n-gram bounds 1..5"):
        count_ngrams([sentence(["a", "b", "c", "d", "e"])], stoplist, 1, 5)
    with pytest.raises(ValueError, match="bad n-gram bounds 5..5"):
        ngrams_of(["a", "b", "c", "d", "e"], 5, 5)


def test_count_ngrams_stored_ngrams_pass_their_own_rule(stoplist):
    rng = random.Random(3)
    records = count_ngrams(random_sentences(rng, 40), stoplist)
    for record in records:
        assert passes_stopword_rule(tuple(record.ngram.split(" ")), stoplist)
        assert record.count >= 1
        assert len(record.ngram.split(" ")) == record.n


def test_records_from_entries_never_contain_articles(stoplist):
    from support import make_entry
    from trendgram.textprep import entry_sentences
    entry = make_entry(title="The A-Team of an Analysis",
                       abstract="The program helps. A tool emerges in the end.",
                       keywords=["the slicing", "an experiment"])
    records = count_ngrams(entry_sentences(entry), stoplist)
    for record in records:
        assert not {"a", "an", "the"}.intersection(record.ngram.split(" "))


def test_sentence_boundaries_block_ngrams_property(stoplist):
    # for any text "X. Y", no n-gram spans the final token of X and the
    # first token of Y; unique markers at the seam make spans detectable
    rng = random.Random(29)
    from trendgram.textprep import remove_articles, split_sentences, tokenize
    fillers = ["program", "code", "study", "the", "of"]
    for _ in range(50):
        left = [rng.choice(fillers) for _ in range(rng.randint(0, 4))] + ["zzzleft"]
        right = ["qqqright"] + [rng.choice(fillers) for _ in range(rng.randint(0, 4))]
        text = " ".join(left) + ". " + " ".join(right)
        sentences = [sentence(remove_articles(tokenize(frag)))
                     for frag in split_sentences(text)]
        for record in count_ngrams(sentences, stoplist):
            tokens = record.ngram.split(" ")
            for a, b in zip(tokens, tokens[1:]):
                assert (a, b) != ("zzzleft", "qqqright")


def test_count_ngrams_shard_counts_sum_to_whole_corpus(stoplist):
    rng = random.Random(5)
    sentences = random_sentences(rng, 60)
    whole = count_ngrams(sentences, stoplist)
    shards = [sentences[0:17], sentences[17:40], sentences[40:]]
    merged = Counter()
    for shard in shards:
        merged.update(count_ngrams(shard, stoplist).counts)
    assert build_table(dict(merged)) == whole


# ---------------------------------------------------------------------------
# Records file


def test_frequency_table_equality_compares_counts():
    counts = {(1, "code", 2005): 2, (2, "code review", 2006): 1}
    table = build_table(dict(counts))
    assert table.totals == {(1, 2005): 2, (2, 2006): 1}  # derived state is not compared
    assert table == build_table(dict(counts))
    assert table != build_table({**counts, (1, "code", 2005): 3})
    assert table != counts


def test_frequency_table_is_unhashable():
    with pytest.raises(TypeError):
        hash(build_table({}))


def test_write_records_exact_line():
    buffer = io.StringIO()
    write_records(build_table({(2, "dynamic analysis", 2008): 33}), buffer)
    assert buffer.getvalue() == "n,ngram,year,count\n2,dynamic analysis,2008,33\n"


def test_write_records_empty_set_is_header_only():
    buffer = io.StringIO()
    write_records(build_table({}), buffer)
    assert buffer.getvalue() == "n,ngram,year,count\n"


def test_write_records_sorted_and_roundtrips():
    counts = {
        (2, "b b", 2001): 4,
        (1, "z", 2000): 1,
        (1, "a", 2005): 2,
        (1, "a", 2003): 9,
    }
    buffer = io.StringIO()
    write_records(build_table(counts), buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[1:] == ["1,a,2003,9", "1,a,2005,2", "1,z,2000,1", "2,b b,2001,4"]
    assert read_records(io.StringIO(buffer.getvalue())) == counts


# N-gram texts for the writer, which checks neither lengths nor tokens:
# prefixes of one another, separators and non-ASCII text.
WRITER_CHARACTERS = st.sampled_from(list('ab -,"\n\ré漢')) | st.characters(exclude_categories=("Cs",))
WRITER_KEYS = st.tuples(st.integers(-2, 12), st.text(WRITER_CHARACTERS, min_size=1, max_size=6),
                        st.integers(-10**5, 10**5))


@settings(max_examples=200, deadline=None)
@given(counts=st.dictionaries(WRITER_KEYS, st.integers(1, 10**12), max_size=40))
@example(counts={(1, "ab", 2000): 1, (1, "a-b", 2000): 2, (1, "a b", 2000): 3, (1, "a", 2000): 4,
                 (1, "a", 10000): 5, (1, "a", 999): 6, (1, "a", -1): 7, (1, "a", -20): 8,
                 (2, "a b", 2000): 9, (7, "x,y", 0): 10, (3, 'say "x"', 7): 11,
                 (2, "line\nfeed", 7): 12, (2, "carriage\rreturn", 7): 13, (2, "naïve café", 7): 14,
                 (12, "漢字", 7): 15})
def test_write_records_matches_oracle_writer(tmp_path_factory, counts):
    expected = naive_records_text(counts)
    buffer = io.StringIO()
    write_records(build_table(counts), buffer)
    assert buffer.getvalue() == expected
    path = tmp_path_factory.mktemp("oracle") / "records.csv"
    write_records(build_table(counts), path)
    assert path.read_bytes() == expected.encode("utf-8")


def assert_iterates_in_key_order(table):
    counts = table.counts
    assert list(counts) == sorted(counts)
    assert list(table) == [NgramRecord(*key, counts[key]) for key in sorted(counts)]


def stored_keys(table):
    """The table's `(n, ngram, year)` keys in the order its cells hold them."""
    return [(n, ngram, year) for (n, year), cell in table.cells.items() for ngram in cell]


def test_tables_iterate_in_key_order(stoplist, tmp_path):
    table = count_ngrams(random_sentences(random.Random(5), 60), stoplist)
    assert stored_keys(table) != sorted(stored_keys(table))
    assert_iterates_in_key_order(table)
    path = tmp_path / "records.csv"
    write_records(table, path)
    parsed = read_table(path, (2, 4))
    assert index_of(path).exists()
    indexed = read_table(path, (2, 4))
    assert parsed.lengths == indexed.lengths == {2, 4}
    assert parsed == indexed
    assert_iterates_in_key_order(parsed)
    assert_iterates_in_key_order(indexed)


def test_read_records_accepts_quoted_ngrams():
    text = 'n,ngram,year,count\n2,"dynamic analysis",2008,33\n'
    assert read_records(io.StringIO(text)) == {(2, "dynamic analysis", 2008): 33}


@pytest.mark.parametrize("row, complaint", [
    ("2,dynamic analysis,2008", "4 columns"),
    ("two,dynamic analysis,2008,33", "non-numeric"),
    ("5,a b c d e,2008,33", "outside"),
    ("2,dynamic analysis,2008,0", "positive"),
    ("3,dynamic analysis,2008,33", "not 3 tokens"),
    ("2,dynamic  analysis,2008,33", "not 2 tokens"),
])
def test_read_records_rejects_malformed_rows(row, complaint):
    text = f"n,ngram,year,count\n{row}\n"
    with pytest.raises(RecordsError, match="line 2") as err:
        read_records(io.StringIO(text))
    assert complaint in str(err.value)


def test_read_records_rejects_duplicates():
    text = "n,ngram,year,count\n1,a,2000,1\n1,a,2000,2\n"
    with pytest.raises(RecordsError, match="duplicate"):
        read_records(io.StringIO(text))


def test_read_records_rejects_bad_header():
    with pytest.raises(RecordsError, match="header"):
        read_records(io.StringIO("n,gram,year,count\n"))


def test_records_roundtrip_random_sets():
    rng = random.Random(42)
    for _ in range(100):
        counts = random_counts(rng)
        buffer = io.StringIO()
        write_records(build_table(counts), buffer)
        assert read_records(io.StringIO(buffer.getvalue())) == counts


# Any text but the token separator, surrogates (which UTF-8 cannot encode)
# and NUL (which the csv module of Python 3.10 refuses to read).
ANY_TOKEN = st.text(st.characters(exclude_categories=("Cs",), exclude_characters=" \x00"),
                    min_size=1, max_size=6)
ANY_NGRAM = st.lists(ANY_TOKEN, min_size=1, max_size=4).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(ngrams=st.lists(ANY_NGRAM, max_size=8))
@example(ngrams=["a\rb", 'say "x, y"', "\r\n line\n"])
def test_records_round_trip_any_ngram_text(tmp_path_factory, ngrams):
    counts = {(len(ngram.split(" ")), ngram, 2000 + i): i + 1 for i, ngram in enumerate(ngrams)}
    path = tmp_path_factory.mktemp("any") / "records.csv"
    table = build_table(counts)
    write_records(table, path)
    assert read_records(path) == counts
    assert read_stream(path) == counts
    assert read_table(path) == table_from_index(path, None) == table


# ---------------------------------------------------------------------------
# The records index (RECORDS.idx)


def index_of(path):
    return Path(f"{path}.idx")


def read_stream(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return read_records(fh)


def read_from_index(path):
    """`read_records(path)` with CSV parsing made to fail, so that the
    counts must come from the index."""
    def refuse(source):
        raise AssertionError(f"{source} was parsed")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ngrams, "_parse_records", refuse)
        return read_records(path)


def write_indexed(path, counts):
    """Write `counts` as a records file and read it once, which indexes it."""
    write_records(build_table(counts), path)
    assert read_records(path) == counts
    assert index_of(path).exists()


TOKENS = st.text(st.characters(exclude_categories=("Cs", "Cc", "Zs"),
                               include_characters="\n\t"), min_size=1, max_size=5)
KEYS = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(TOKENS, min_size=n, max_size=n).map(" ".join),
    st.integers(-10**6, 10**6)))
TABLES = st.dictionaries(KEYS, st.integers(1, 10**30), max_size=30)


@settings(max_examples=60, deadline=None)
@given(counts=TABLES)
def test_records_index_round_trip(tmp_path_factory, counts):
    path = tmp_path_factory.mktemp("index") / "records.csv"
    write_records(build_table(counts), path)
    first = read_records(path)
    second = read_from_index(path)
    stream = read_stream(path)
    assert first == second == stream == counts
    assert list(first) == list(second) == list(stream) == sorted(counts)
    parsed, indexed = read_table(io.StringIO(path.read_text())), table_from_index(path, None)
    assert parsed.cells == indexed.cells and parsed.totals == indexed.totals
    assert_table_contract(indexed, counts)
    layout = [(n, year, len(cell)) for (n, year), cell in sorted(parsed.cells.items())]
    data = index_of(path).read_bytes()
    assert index_chunk(data, 0) == (parsed.totals, tuple(layout))
    assert len(chunk_starts(data)) == 1 + sum(-(-size // ngrams._INDEX_CHUNK)
                                              for _, _, size in layout)


# Cells of more entries than fit in one chunk of the index, one of exactly
# a chunk and one of a chunk and one entry.
MANY = {**{(1, f"w{index}", 2000 + index % 2): index + 1 for index in range(10_000)},
        **{(2, f"w{index} x", 2000): 1 for index in range(4096)},
        **{(2, f"w{index} y", 2001): 2 for index in range(4097)}}


def test_records_index_spans_several_chunks(tmp_path):
    counts = MANY
    path = tmp_path / "records.csv"
    write_indexed(path, counts)
    indexed = read_from_index(path)
    assert indexed == counts
    assert list(indexed) == list(read_stream(path)) == sorted(counts)
    data = index_of(path).read_bytes()
    # the totals; 2 + 2 chunks of the unigram cells; 1 + 2 of the bigram ones
    assert len(chunk_starts(data)) == 1 + 2 + 2 + 1 + 2
    assert [len(index_chunk(data, chunk)) for chunk in range(1, 8)] == [
        4096, 904, 4096, 904, 4096, 4096, 1]
    assert table_from_index(path, {2}) == build_table(restrict(counts, {2}))


@pytest.mark.parametrize("count", ["5", "30"], ids=["same-size", "other-size"])
def test_rewritten_records_are_read_anew(tmp_path, count):
    path = tmp_path / "records.csv"
    write_indexed(path, {(1, "code", 2000): 3, (2, "code tools", 2001): 4})
    path.write_text(f"n,ngram,year,count\n1,code,2000,{count}\n2,code tools,2001,4\n")
    assert read_records(path) == {(1, "code", 2000): int(count), (2, "code tools", 2001): 4}


HEADER_SIZE = ngrams._INDEX_HEADER.size
CRC_AT = len(ngrams._INDEX_MAGIC)  # the records file's crc32, then its size and the entry count


def flip(at):
    return lambda data: data[:at] + bytes([data[at] ^ 0x40]) + data[at + 1:]


def crc_valid_chunk(payload):
    """An index whose one chunk holds `payload` under a matching crc32."""
    return lambda data: (data[:HEADER_SIZE] + ngrams._INDEX_CHUNK_HEADER.pack(
        len(payload), zlib.crc32(payload)) + payload)


def with_first_chunk(change):
    """The index with its first chunk, `(totals, layout)`, replaced by
    `change(totals, layout)` under a matching crc32."""
    def damage(data):
        rest = chunk_starts(data)[1]
        payload = marshal.dumps(change(*index_chunk(data, 0)), 2)
        return (data[:HEADER_SIZE] + ngrams._INDEX_CHUNK_HEADER.pack(
            len(payload), zlib.crc32(payload)) + payload + data[rest:])
    return damage


def moved_size(to, away):
    """A change of the first chunk that moves one entry of the size of
    cell number `away` in the layout to cell number `to`: the sizes
    still add up to the header's entry count."""
    def change(totals, layout):
        layout = [list(cell) for cell in layout]
        layout[to][2] += 1
        layout[away][2] -= 1
        return totals, tuple(map(tuple, layout))
    return change


def index_chunk(data, chunk):
    """The value of chunk number `chunk` of the index `data`."""
    start = chunk_starts(data)[chunk] + ngrams._INDEX_CHUNK_HEADER.size
    return marshal.loads(data[start:start + ngrams._INDEX_CHUNK_HEADER.unpack_from(
        data, start - ngrams._INDEX_CHUNK_HEADER.size)[0]])


DAMAGE = {
    "empty": lambda data: b"",
    "truncated-header": lambda data: data[:HEADER_SIZE - 1],
    "truncated-payload": lambda data: data[:-1],
    "half": lambda data: data[:len(data) // 2],
    "appended": lambda data: data + b"\0",
    "garbage": lambda data: os.urandom(len(data)),
    "flipped-magic": flip(0),
    "flipped-crc": flip(CRC_AT),
    "flipped-size": flip(CRC_AT + 4),
    "flipped-entries": flip(CRC_AT + 12),
    "flipped-chunk-length": flip(HEADER_SIZE),
    "huge-chunk-length": lambda data: (data[:HEADER_SIZE] + b"\xff\xff\xff\xff"
                                       + data[HEADER_SIZE + 4:]),
    "flipped-chunk-crc": flip(HEADER_SIZE + 4),
    "flipped-payload": flip(-3),
    "bad-marshal": crc_valid_chunk(b"\xff" * 16),
    "not-a-dict": crc_valid_chunk(marshal.dumps(5, 2)),
    "cell-not-a-dict": lambda data: data[:chunk_starts(data)[1]] + crc_valid_chunk(
        marshal.dumps([1], 2))(b"\0" * HEADER_SIZE)[HEADER_SIZE:],
    "cell-size-moved": with_first_chunk(moved_size(0, -1)),
    "totals-of-a-missing-cell": with_first_chunk(
        lambda totals, layout: ({**totals, (1, 1999): 5}, layout)),
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE.keys())
def test_damaged_index_is_ignored_and_rewritten(tmp_path, damage):
    counts = {(1, f"w{index}", 2000 + index % 2): index + 1 for index in range(50)}
    path = tmp_path / "records.csv"
    write_indexed(path, counts)
    good = index_of(path).read_bytes()
    index_of(path).write_bytes(damage(good))
    assert read_records(path) == counts
    assert index_of(path).read_bytes() == good


def test_corrupt_records_error_is_unchanged_by_a_stale_index(tmp_path, capsys):
    bad = tmp_path / "records.csv"
    write_indexed(bad, {(1, "code", 2000): 3})
    bad.write_text("n,ngram,year,count\n1,two words,2000,3\n")
    assert run(["top", "-i", str(bad), "-n", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}:2: ngram 'two words' is not 1 tokens"]
    assert run(["top", "-i", str(bad), "-n", "1"]) == 2


def test_index_that_cannot_be_written_is_no_error(tmp_path):
    path = tmp_path / "records.csv"
    write_records(build_table({(1, "code", 2000): 3}), path)
    index_of(path).mkdir()  # os.replace cannot put a file there, even for root
    assert read_records(path) == {(1, "code", 2000): 3}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["records.csv", "records.csv.idx"]


def test_read_only_directory_is_no_error(tmp_path):
    path = tmp_path / "records.csv"
    write_records(build_table({(1, "code", 2000): 3}), path)
    tmp_path.chmod(0o555)
    try:
        assert read_records(path) == {(1, "code", 2000): 3}
        assert read_records(path) == {(1, "code", 2000): 3}
    finally:
        tmp_path.chmod(0o755)
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_stream_and_pipe_reads_write_no_index(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = "n,ngram,year,count\n1,code,2000,3\n"
    assert read_records(io.StringIO(text)) == {(1, "code", 2000): 3}
    pipe = tmp_path / "records.csv"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
    writer.start()
    assert read_records(pipe) == {(1, "code", 2000): 3}
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]


def test_extract_writes_no_index(tmp_path, demo_dir):
    corpus, records = tmp_path / "corpus.csv", tmp_path / "records.csv"
    assert run(["ingest", "--bibtex", str(demo_dir / "demo.bib"), "-o", str(corpus)]) == 0
    assert run(["extract", "-i", str(corpus), "-o", str(records)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.csv", "records.csv"]


def test_index_bytes_do_not_depend_on_hash_seed(tmp_path):
    path = tmp_path / "records.csv"
    write_records(build_table(MANY), path)
    src = str(Path(trendgram.__file__).resolve().parent.parent)
    written = []
    for seed in ("1", "2"):
        index_of(path).unlink(missing_ok=True)
        subprocess.run([sys.executable, "-c", f"from trendgram.ngrams import read_records; "
                        f"read_records({str(path)!r})"], check=True,
                       env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        written.append(index_of(path).read_bytes())
    assert written[0] == written[1]
    index_of(path).unlink()
    read_records(path)
    assert index_of(path).read_bytes() == written[0]


# ---------------------------------------------------------------------------
# Partial loads: read_table(path, lengths) and index sections


def table_from_index(path, lengths):
    """`read_table(path, lengths)` with CSV parsing made to fail, so that
    the table must come from the index."""
    def refuse(source):
        raise AssertionError(f"{source} was parsed")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ngrams, "_parse_records", refuse)
        return read_table(path, lengths)


def read_counting_parses(path, lengths=None):
    """`read_table(path, lengths)` and the number of times it parsed the CSV."""
    parses = []
    parse = ngrams._parse_records

    def counting(source):
        parses.append(source)
        return parse(source)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ngrams, "_parse_records", counting)
        return read_table(path, lengths), len(parses)


def restrict(counts, lengths):
    return {key: count for key, count in counts.items() if key[0] in lengths}


SUBSETS = [frozenset(subset) for size in range(1, 5)
           for subset in itertools.combinations(range(1, 5), size)]


@settings(max_examples=40, deadline=None)
@given(counts=TABLES)
def test_partial_loads_from_the_index(tmp_path_factory, counts):
    path = tmp_path_factory.mktemp("partial") / "records.csv"
    write_indexed(path, counts)
    full = build_table(counts)
    for lengths in SUBSETS:
        table = table_from_index(path, lengths)
        assert table == build_table(restrict(counts, lengths))
        assert table.lengths == lengths
        assert table.totals == full.totals
        assert table.years == full.years


def test_partial_load_from_the_csv_path_equals_one_from_the_index(tmp_path):
    counts = {(1, "code", 2000): 3, (2, "code tools", 2001): 4, (3, "a b c", 2002): 1}
    path = tmp_path / "records.csv"
    write_records(build_table(counts), path)
    parsed, parses = read_counting_parses(path, [2])
    assert parses == 1 and index_of(path).exists()
    indexed = table_from_index(path, [2])
    assert parsed == indexed == build_table({(2, "code tools", 2001): 4})
    assert parsed.totals == indexed.totals == build_table(counts).totals
    assert parsed.lengths == indexed.lengths == {2}
    with io.StringIO(path.read_text()) as stream:
        streamed = read_table(stream, [2])
    assert streamed == parsed and streamed.totals == parsed.totals


def test_partial_table_keeps_the_years_of_every_length(tmp_path, capsys):
    counts = {(1, "code", 1999): 2, (1, "code", 2001): 1,
              (2, "source code", 2001): 3, (2, "source code", 2003): 1}
    path = tmp_path / "records.csv"
    write_indexed(path, counts)
    table = table_from_index(path, {2})
    assert table.years == [1999, 2001, 2003]
    assert table.year_span() == (1999, 2003)
    assert run(["query", "-i", str(path), "source code"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "label,year,frequency,has_data",
        "source code,1999,0,false",
        "source code,2000,0,false",
        "source code,2001,1,true",
        "source code,2002,0,false",
        "source code,2003,1,true",
    ]


@pytest.mark.parametrize("lengths", [[], [0], [5], [1, 5]])
def test_read_table_rejects_lengths_outside_one_to_four(tmp_path, lengths):
    path = tmp_path / "records.csv"
    write_records(build_table({(1, "code", 2000): 3}), path)
    with pytest.raises(ValueError, match="lengths must be"):
        read_table(path, lengths)


def test_top_ngrams_refuses_a_length_the_table_did_not_load(tmp_path):
    path = tmp_path / "records.csv"
    write_indexed(path, {(1, "code", 2000): 5, (2, "source code", 2000): 3})
    table = table_from_index(path, {2})
    assert top_ngrams(table, 2, 5) == [("source code", 3)]
    with pytest.raises(ValueError, match="length 1 was not loaded; the table holds 2"):
        top_ngrams(table, 1, 5)


# One chunk per cell: chunk 0 holds the totals and the layout, then come
# the cells of length 1 to 4, three years each.
SECTIONED = {(n, " ".join(f"w{i}" for i in range(n)), 2000 + year): n + year
             for n in range(1, 5) for year in range(3)}


def cell_chunk(n, year):
    """The number of the chunk that holds SECTIONED's cell (n, year)."""
    return 1 + 3 * (n - 1) + year - 2000


def chunk_starts(data):
    """The offset of each chunk's header in the index `data`."""
    starts, at = [], HEADER_SIZE
    while at < len(data):
        starts.append(at)
        at += ngrams._INDEX_CHUNK_HEADER.size + ngrams._INDEX_CHUNK_HEADER.unpack_from(data, at)[0]
    return starts


def in_chunk(chunk, damage):
    """`damage(data, offset of chunk's header)`."""
    return lambda data: damage(data, chunk_starts(data)[chunk])


def flip_payload(data, start):
    return flip(start + ngrams._INDEX_CHUNK_HEADER.size + 1)(data)


def flip_length(data, start):
    return flip(start)(data)


def cut_before_end(data, start):
    return data[:start + ngrams._INDEX_CHUNK_HEADER.size + 1]


# Damage that a load of length 2 alone must notice: it falls back to the CSV.
SEEN_BY_A_BIGRAM_LOAD = {
    "flipped-entries": flip(CRC_AT + 12),
    "totals-chunk-payload": in_chunk(0, flip_payload),
    "totals-chunk-length": in_chunk(0, flip_length),
    "loaded-section-payload": in_chunk(cell_chunk(2, 2001), flip_payload),
    "loaded-section-cut-short": in_chunk(cell_chunk(2, 2002), cut_before_end),
    "skipped-section-length": in_chunk(cell_chunk(1, 2000), flip_length),
    "loaded-cell-size-moved": with_first_chunk(
        moved_size(cell_chunk(2, 2000) - 1, cell_chunk(2, 2001) - 1)),
}

# Damage only in sections a load of length 2 does not read.
UNSEEN_BY_A_BIGRAM_LOAD = {
    "skipped-section-payload": in_chunk(cell_chunk(1, 2001), flip_payload),
    "later-section-payload": in_chunk(cell_chunk(3, 2000), flip_payload),
    "later-section-length": in_chunk(cell_chunk(4, 2002), flip_length),
    "unloaded-cell-size-moved": with_first_chunk(
        moved_size(cell_chunk(1, 2000) - 1, cell_chunk(4, 2002) - 1)),
    "truncated-payload": lambda data: data[:-1],
    "appended": lambda data: data + b"\0",
}


def test_sectioned_table_has_one_chunk_per_section(tmp_path):
    path = tmp_path / "records.csv"
    write_indexed(path, SECTIONED)
    data = index_of(path).read_bytes()
    assert len(chunk_starts(data)) == 1 + 4 * 3
    totals, layout = index_chunk(data, 0)
    assert totals == build_table(SECTIONED).totals
    assert layout == tuple((n, year, 1) for n in range(1, 5) for year in range(2000, 2003))
    for (n, ngram, year), count in SECTIONED.items():
        assert index_chunk(data, cell_chunk(n, year)) == {ngram: count}


def test_a_unigram_top_reads_no_chunk_past_length_1(tmp_path, capsys):
    path = tmp_path / "records.csv"
    write_indexed(path, SECTIONED)
    read = []
    read_chunk = ngrams._read_chunk

    def recording(fh, end, skip=False):
        read.append(fh.tell())
        return read_chunk(fh, end, skip)
    data = index_of(path).read_bytes()
    # everything past the unigram cells cut off, which a load must not notice
    index_of(path).write_bytes(data[:chunk_starts(data)[cell_chunk(2, 2000)]])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ngrams, "_parse_records", None)
        patch.setattr(ngrams, "_read_chunk", recording)
        assert run(["top", "-i", str(path), "-n", "1"]) == 0
    assert read == chunk_starts(data)[:cell_chunk(2, 2000)]
    assert capsys.readouterr().out == "1. w0 6\n"


@pytest.mark.parametrize("damage", SEEN_BY_A_BIGRAM_LOAD.values(),
                         ids=SEEN_BY_A_BIGRAM_LOAD.keys())
def test_damage_a_partial_load_reads_falls_back_to_the_csv(tmp_path, damage):
    path = tmp_path / "records.csv"
    write_indexed(path, SECTIONED)
    good = index_of(path).read_bytes()
    index_of(path).write_bytes(damage(good))
    table, parses = read_counting_parses(path, {2})
    assert parses == 1
    assert table == build_table(restrict(SECTIONED, {2}))
    assert table.totals == build_table(SECTIONED).totals
    assert index_of(path).read_bytes() == good


@pytest.mark.parametrize("damage", UNSEEN_BY_A_BIGRAM_LOAD.values(),
                         ids=UNSEEN_BY_A_BIGRAM_LOAD.keys())
def test_damage_outside_the_loaded_sections_waits_for_a_full_read(tmp_path, damage):
    path = tmp_path / "records.csv"
    write_indexed(path, SECTIONED)
    good = index_of(path).read_bytes()
    index_of(path).write_bytes(damage(good))
    table = table_from_index(path, {2})
    assert table == build_table(restrict(SECTIONED, {2}))
    assert table.totals == build_table(SECTIONED).totals
    assert index_of(path).read_bytes() == damage(good)
    table, parses = read_counting_parses(path)
    assert parses == 1
    assert table == build_table(SECTIONED)
    assert index_of(path).read_bytes() == good


def version_2_index(path):
    """The index the previous version wrote for the records file at
    `path`: a header; a chunk with the totals and the entries of each
    length; then each length's `(n, ngram, year) -> count` dict in
    chunks of 4096 entries."""
    counts = dict(read_stream(path))
    data = path.read_bytes()
    magic = b"trendgram records index 2\n"
    sizes = tuple(sum(1 for key in counts if key[0] == n) for n in range(1, 5))
    totals = {}
    for (n, _, year), count in counts.items():
        totals[n, year] = totals.get((n, year), 0) + count
    chunks = [(totals, sizes)]
    for n in range(1, 5):
        items = [item for item in counts.items() if item[0][0] == n]
        chunks += [dict(items[at:at + 4096]) for at in range(0, len(items), 4096)]
    out = struct.pack(f"<{len(magic)}sIQQ", magic, zlib.crc32(data), len(data), len(counts))
    for chunk in chunks:
        payload = marshal.dumps(chunk, 2)
        out += struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    return out


def command_outputs(records, out_dir):
    """stdout and files of the commands that read `records`, run in turn."""
    outputs = []
    for argv in (["top", "-n", "1"], ["top", "-n", "2", "-k", "40"],
                 ["trends", "-n", "1", "--min-support", "2", "--min-years", "2"],
                 ["query", "code, program+tool"], ["demo", "-o", str(out_dir / "demo")],
                 ["catalog", "-o", str(out_dir / "catalog"), "--limit", "30"]):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            assert run([argv[0], "-i", str(records), *argv[1:]]) == 0
        outputs.append(stdout.getvalue())
    outputs.append({p.relative_to(out_dir).as_posix(): p.read_bytes()
                    for p in sorted(out_dir.rglob("*")) if p.is_file()})
    return outputs


def test_version_2_index_is_ignored_and_rewritten_once(stoplist, tmp_path):
    table = count_ngrams(random_sentences(random.Random(23), 300), stoplist)
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    for where in (fresh, old):
        where.mkdir()
        write_records(table, where / "records.csv")
    index_of(old / "records.csv").write_bytes(version_2_index(old / "records.csv"))
    assert read_counting_parses(old / "records.csv", {2})[1] == 1
    assert index_of(old / "records.csv").read_bytes().startswith(ngrams._INDEX_MAGIC)
    assert read_counting_parses(old / "records.csv")[1] == 0
    assert command_outputs(old / "records.csv", old / "out") == command_outputs(
        fresh / "records.csv", fresh / "out")
    assert (index_of(old / "records.csv").read_bytes()
            == index_of(fresh / "records.csv").read_bytes())


def test_version_1_index_is_replaced_on_first_read(tmp_path):
    counts = {(1, "code", 2000): 3, (2, "code tools", 2001): 4}
    path = tmp_path / "records.csv"
    write_records(build_table(counts), path)
    data = path.read_bytes()
    magic = b"trendgram records index 1\n"
    chunk = marshal.dumps(counts, 2)
    index_of(path).write_bytes(
        struct.pack(f"<{len(magic)}sIQQ", magic, zlib.crc32(data), len(data), len(counts))
        + struct.pack("<II", len(chunk), zlib.crc32(chunk)) + chunk)
    table, parses = read_counting_parses(path, {2})
    assert parses == 1
    assert table == build_table({(2, "code tools", 2001): 4})
    assert index_of(path).read_bytes().startswith(ngrams._INDEX_MAGIC)
    assert ngrams._INDEX_MAGIC != magic
    assert read_from_index(path) == counts


# ---------------------------------------------------------------------------
# Top-k


def test_top_ngrams_sums_across_years():
    table = build_table({
        (2, "source code", 2000): 3,
        (2, "source code", 2001): 4,
        (1, "code", 2000): 99,
    })
    assert top_ngrams(table, 2, 5) == [("source code", 7)]


def test_top_ngrams_tie_breaks_lexicographically():
    table = build_table({
        (1, "bb", 2000): 3,
        (1, "aa", 2001): 3,
        (1, "cc", 2000): 1,
    })
    assert top_ngrams(table, 1, 2) == [("aa", 3), ("bb", 3)]


_TOP_KEYS = st.integers(1, 2).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sampled_from(WORDS[:4]), min_size=n, max_size=n).map(" ".join),
    st.integers(2000, 2003)))


@settings(max_examples=200, deadline=None)
@given(counts=st.dictionaries(_TOP_KEYS, st.integers(1, 3), max_size=40),
       n=st.integers(1, 2), k=st.integers(1, 20))
def test_top_ngrams_matches_its_definition(counts, n, k):
    # Few distinct n-grams (4 unigrams, 16 bigrams) with small counts: many
    # tied totals, and k both above and below the number of n-grams.
    totals = Counter()
    for (record_n, ngram, _), count in counts.items():
        if record_n == n:
            totals[ngram] += count
    expected = sorted(totals.items(), key=lambda item: (-item[1], item[0]))[:k]
    assert top_ngrams(build_table(counts), n, k) == expected


def test_top_ngrams_single_record():
    assert top_ngrams(build_table({(1, "x", 2000): 5}), 1, 3) == [("x", 5)]


def test_top_ngrams_rejects_bad_k():
    with pytest.raises(ValueError):
        top_ngrams(build_table({}), 1, 0)
