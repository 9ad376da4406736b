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
from trendgram.frequency import Query, QuerySeries, evaluate
from trendgram.ngrams import (NgramRecord, Prefix, Stoplist, build_table, count_ngrams,
                              read_records, read_table, token_runs, top_ngrams, write_records)
from trendgram.textprep import Sentence
from trendgram.trends import build_catalog, rank_trends


def sentence(tokens, year=2008):
    return Sentence(list(tokens), "abstract", "x:1", year)


def kept(tokens, stoplist):
    """The n-grams `count_ngrams` keeps of a sentence of `tokens` at their
    full length: the sentence's one window, or nothing."""
    n = len(tokens)
    return [record.ngram for record in count_ngrams([sentence(tokens)], stoplist, n, n)]


# ---------------------------------------------------------------------------
# Window enumeration


def test_count_ngrams_windows_of_three_tokens():
    assert list(count_ngrams([sentence(["here", "you", "are"], 2010)], set(), 1, 3)) == [
        NgramRecord(1, "are", 2010, 1),
        NgramRecord(1, "here", 2010, 1),
        NgramRecord(1, "you", 2010, 1),
        NgramRecord(2, "here you", 2010, 1),
        NgramRecord(2, "you are", 2010, 1),
        NgramRecord(3, "here you are", 2010, 1),
    ]


def test_count_ngrams_over_an_empty_sentence():
    table = count_ngrams([sentence([])], set(), 1, 4)
    assert table.cells == {} and list(table) == []


def test_count_ngrams_window_arithmetic():
    table = count_ngrams([sentence(list("abcde"))], set(), 1, 4)
    assert len(table) == 5 + 4 + 3 + 2
    assert {n: sum(cell.values()) for (n, _), cell in table.cells.items()} == {
        1: 5, 2: 4, 3: 3, 4: 2}


def test_count_ngrams_rejects_bad_bounds_for_prepared_runs(stoplist):
    runs = token_runs([sentence(["x"])])
    with pytest.raises(ValueError, match="bad n-gram bounds 0..2"):
        count_ngrams(runs, stoplist, 0, 2)
    with pytest.raises(ValueError, match="bad n-gram bounds 3..2"):
        count_ngrams(runs, stoplist, 3, 2)


# ---------------------------------------------------------------------------
# Stopword rule


def test_stopword_rule_excludes_majority_stopwords(stoplist):
    assert kept(("any", "of", "programs"), stoplist) == []


def test_stopword_rule_retains_minority_stopwords(stoplist):
    assert kept(("comprehension", "of", "programs"), stoplist) == ["comprehension of programs"]


def test_stopword_rule_single_stopword_unigram(stoplist):
    assert kept(("of",), stoplist) == []


def test_stopword_rule_half_is_excluded(stoplist):
    # exactly 50% stopwords meets the "at least 50%" bar
    assert kept(("of", "programs"), stoplist) == []
    assert kept(("comprehension", "of"), stoplist) == []


def test_stopword_rule_every_one_stopword_bigram_excluded(stoplist):
    for stop in ("of", "the", "with", "very"):
        assert kept((stop, "program"), stoplist) == []
        assert kept(("program", stop), stoplist) == []


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
        # A plain set of stopwords serves as a `Stoplist` does.
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


def year_runs(rng, runs):
    """Sentences in consecutive same-year runs, `runs` being (year, size)
    pairs. A sentence is often empty, one token, all stopwords, or made
    of the tokens "" and " "; otherwise random."""
    vocab = WORDS[:4] + STOPPY_WORDS[:3] + ("", " ")
    shapes = ([], ["code"], ["of"], ["of", "the", "and"], ["", " "], [" ", "code", ""])
    sentences = []
    for year, size in runs:
        for _ in range(size):
            if rng.random() < 0.4:
                tokens = list(rng.choice(shapes))
            else:
                tokens = [rng.choice(vocab) for _ in range(rng.randint(2, 9))]
            sentences.append(Sentence(tokens, "abstract", f"x:{len(sentences)}", year))
    return sentences


@pytest.mark.parametrize("runs", [
    [(2000, 600), (2001, 257), (2002, 1)],  # years sorted, runs beyond one batch
    [(2001, 300), (2000, 2), (2001, 513), (2000, 256), (2001, 1)],  # interleaved
], ids=["sorted", "interleaved"])
def test_count_ngrams_agrees_with_naive_oracle_across_batches(stoplist, runs):
    sentences = year_runs(random.Random(len(runs)), runs)
    words = set(stoplist.words) | {" "}
    for n_min in range(1, 5):
        for n_max in range(n_min, 5):
            table = count_ngrams(iter(sentences), stoplist, n_min, n_max)
            assert table.counts == naive_ngram_counts(sentences, stoplist, n_min, n_max)
            assert all(table.cells.values())
            table = count_ngrams(iter(sentences), words, n_min, n_max)
            assert table.counts == naive_ngram_counts(sentences, words, n_min, n_max)


@pytest.mark.parametrize("runs", [
    [(2000, 600), (2001, 257), (2002, 1)],
    [(2001, 300), (2000, 2), (2001, 513), (2000, 256), (2001, 1)],
], ids=["sorted", "interleaved"])
def test_counting_prepared_runs_equals_counting_sentences(stoplist, runs):
    sentences = year_runs(random.Random(len(runs)), runs)
    prepared = token_runs(iter(sentences))
    assert len(prepared) > len({year for year, _ in runs})  # some year spans batches
    tokens = [token for _, batch in prepared for token in batch if isinstance(token, str)]
    assert tokens == [token for sentence in sentences for token in sentence.tokens]
    shared = {}
    assert all(shared.setdefault(token, token) is token for token in tokens)
    for n_min in range(1, 5):
        for n_max in range(n_min, 5):
            table = count_ngrams(prepared, stoplist, n_min, n_max)
            assert table == count_ngrams(iter(sentences), stoplist, n_min, n_max)
            assert table.counts == naive_ngram_counts(sentences, stoplist, n_min, n_max)
            assert all(table.cells.values())
    per_length = [count_ngrams(prepared, stoplist, n, n) for n in range(1, 5)]
    assert build_table({key: count for table in per_length
                        for key, count in table.counts.items()}) == count_ngrams(sentences, stoplist)


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
        count_ngrams([sentence(["a", "b", "c", "d", "e"])], stoplist, 5, 5)


def test_count_ngrams_stored_ngrams_pass_their_own_rule(stoplist):
    rng = random.Random(3)
    records = count_ngrams(random_sentences(rng, 40), stoplist)
    for record in records:
        tokens = record.ngram.split(" ")
        assert 2 * sum(token in stoplist for token in tokens) < len(tokens)
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


@settings(max_examples=100, deadline=None)
@given(counts=st.dictionaries(WRITER_KEYS, st.integers(1, 10**12), max_size=40))
def test_write_records_of_one_table_per_length_equals_the_whole_table(counts):
    whole = io.StringIO()
    write_records(build_table(counts), whole)
    # Lazily made, ascending, with tables holding no counts among them.
    tables = (build_table({key: count for key, count in counts.items() if key[0] == n})
              for n in [None, *sorted({n for n, _, _ in counts}), None])
    per_length = io.StringIO()
    write_records(tables, per_length)
    assert per_length.getvalue() == whole.getvalue()


@pytest.mark.parametrize("lengths", [[2, 1], [2, 2], [1, 3, 2]], ids=["descending", "repeated", "late"])
def test_write_records_refuses_tables_out_of_length_order(tmp_path, lengths):
    dest = tmp_path / "records.csv"
    write_records(build_table({(1, "code", 2000): 3}), dest)
    old = dest.read_bytes()
    tables = (build_table({(n, " ".join(["x"] * n), 2000): 1}) for n in lengths)
    with pytest.raises(ValueError, match="ascending lengths"):
        write_records(tables, dest)
    assert dest.read_bytes() == old
    assert sorted(path.name for path in tmp_path.iterdir()) == ["records.csv"]


@pytest.mark.parametrize("counts", [
    # only one year's cell of length 1 and of length 2 needs quoting
    {(1, "alpha", 2000): 1, (1, "alpha", 2001): 2, (1, "a,b", 2001): 3, (1, 'say "x"', 2001): 4,
     (1, "zeta", 2000): 5, (2, "line\nfeed", 2003): 6, (2, "carriage\rreturn", 2003): 7,
     (2, "a b", 2002): 8, (3, "a b c", 2003): 9},
    # "zeta," quoted sorts before "alpha", but its row must stay after it
    {(1, "alpha", 2000): 1, (1, "zeta,", 2000): 2, (1, "zeta,", 1999): 3, (1, "beta", 2001): 4},
    # more than one chunk of lines for a length, with quoting across chunks
    {**{(1, f"w{index}", 2000 + index % 3): index + 1 for index in range(2600)},
     **{(1, f"w{index},", 2001): 7 for index in range(0, 2600, 97)},
     (2, "a b", 2000): 1},
], ids=["one-cell-quotes", "quote-after-sort", "many-chunks"])
def test_write_records_quoting_and_chunks_match_oracle_writer(counts):
    buffer = io.StringIO()
    write_records(build_table(counts), buffer)
    assert buffer.getvalue() == naive_records_text(counts)
    if (1, "zeta,", 2000) in counts:
        assert buffer.getvalue().index("1,alpha,") < buffer.getvalue().index('1,"zeta,",')


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
    cell_chunks = sum(-(-size // ngrams._INDEX_CHUNK) for _, _, size in layout)
    sections = [ranked_section(counts, n) for n in range(1, 5)]
    starts = chunk_starts(data)
    assert len(starts) == 1 + cell_chunks + sum(map(len, sections))
    assert ranked_offsets(data) == tuple(starts[1 + cell_chunks + sum(map(len, sections[:n]))]
                                         for n in range(4))
    assert [in_order(index_chunk(data, chunk)) for chunk in range(1 + cell_chunks, len(starts))] \
        == [in_order(chunk) for section in sections for chunk in section]


def ranked_section(counts, n):
    """The chunks of the ranked section of length `n` of the index of
    `counts`, an `(n, ngram, year) -> count` dict, by their definition:
    the n-grams by total descending, then n-gram, 256 at a time, with
    their totals; for each year with counts, in ascending years, the
    places in the chunk of the n-grams counted that year, as bytes, and
    their counts; and the total of the n-gram after the chunk, or 0. A
    length without n-grams has one empty chunk."""
    totals = Counter()
    for (length, ngram, _), count in counts.items():
        if length == n:
            totals[ngram] += count
    ranked = sorted(totals, key=lambda ngram: (-totals[ngram], ngram))
    years = sorted({year for length, _, year in counts if length == n})
    chunks = []
    for at in range(0, max(len(ranked), 1), 256):
        names = ranked[at:at + 256]
        by_year = {}
        for year in years:
            places = [place for place, ngram in enumerate(names) if (n, ngram, year) in counts]
            if places:
                by_year[year] = (bytes(places),
                                 tuple(counts[n, names[place], year] for place in places))
        chunks.append((tuple(names), tuple(totals[ngram] for ngram in names), by_year,
                       totals[ranked[at + 256]] if at + 256 < len(ranked) else 0))
    return chunks


def in_order(chunk):
    """A ranked chunk with its dict as a list of items, so that comparing
    two compares their order too."""
    ngrams_, totals, by_year, next_total = chunk
    return ngrams_, totals, list(by_year.items()), next_total


def ranked_offsets(data):
    """The offsets of the ranked sections that the header of the index
    `data` gives."""
    return ngrams._INDEX_HEADER.unpack_from(data)[4:]


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
    # the totals; 2 + 2 chunks of the unigram cells; 1 + 2 of the bigram ones;
    # then the ranked sections: 10,000 unigrams in 40 chunks, 8,193 bigrams
    # in 33, and one empty chunk for each of lengths 3 and 4
    starts = chunk_starts(data)
    assert len(starts) == 1 + 2 + 2 + 1 + 2 + 40 + 33 + 1 + 1
    assert [len(index_chunk(data, chunk)) for chunk in range(1, 8)] == [
        4096, 904, 4096, 904, 4096, 4096, 1]
    assert ranked_offsets(data) == (starts[8], starts[48], starts[81], starts[82])
    ranked = [index_chunk(data, chunk) for chunk in range(8, 83)]
    assert [len(chunk[0]) for chunk in ranked] == [256] * 39 + [16] + [256] * 32 + [1, 0, 0]
    assert [in_order(chunk) for chunk in ranked] == [
        in_order(chunk) for n in range(1, 5) for chunk in ranked_section(counts, n)]
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


# Many n-grams of each length with equal totals, spread over the years in
# different ways, so that their ranking is decided by the n-grams alone.
TIED = {(n, f"t{index}" + " x" * (n - 1), 2000 + (index + year) % 4):
        (1 + (index + year) % 2) * (1 + index % 2)
        for n in range(1, 5) for index in range(600) for year in range(2)}


def test_index_bytes_do_not_depend_on_hash_seed(tmp_path):
    src = str(Path(trendgram.__file__).resolve().parent.parent)
    for name, counts in (("many", MANY), ("tied", TIED)):
        path = tmp_path / name / "records.csv"
        path.parent.mkdir()
        write_records(build_table(counts), path)
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


def table_from_index(path, lengths, prefix=None):
    """`read_table(path, lengths, prefix)` with CSV parsing made to fail,
    so that the table must come from the index."""
    def refuse(source):
        raise AssertionError(f"{source} was parsed")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ngrams, "_parse_records", refuse)
        return read_table(path, lengths, prefix)


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
# the cells of length 1 to 4, three years each, then one ranked chunk per
# length.
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


def ranked_chunk(n):
    """The number of the chunk that holds SECTIONED's ranked section of length n."""
    return 1 + 4 * 3 + n - 1


def test_sectioned_table_has_one_chunk_per_section(tmp_path):
    path = tmp_path / "records.csv"
    write_indexed(path, SECTIONED)
    data = index_of(path).read_bytes()
    starts = chunk_starts(data)
    assert len(starts) == 1 + 4 * 3 + 4
    totals, layout = index_chunk(data, 0)
    assert totals == build_table(SECTIONED).totals
    assert layout == tuple((n, year, 1) for n in range(1, 5) for year in range(2000, 2003))
    for (n, ngram, year), count in SECTIONED.items():
        assert index_chunk(data, cell_chunk(n, year)) == {ngram: count}
    assert ranked_offsets(data) == tuple(starts[ranked_chunk(n)] for n in range(1, 5))
    for n in range(1, 5):
        ngram = " ".join(f"w{i}" for i in range(n))
        assert in_order(index_chunk(data, ranked_chunk(n))) == in_order(
            ((ngram,), (3 * n + 3,), {2000 + year: (b"\0", (n + year,)) for year in range(3)}, 0))


def test_a_unigram_top_reads_no_chunk_past_length_1(tmp_path, capsys):
    path = tmp_path / "records.csv"
    write_indexed(path, SECTIONED)
    read = []
    read_chunk = ngrams._read_chunk

    def recording(fh, end, skip=False):
        read.append(fh.tell())
        return read_chunk(fh, end, skip)
    data = index_of(path).read_bytes()
    starts = chunk_starts(data)
    # every cell's payload damaged and everything past the unigram ranked
    # chunk cut off, which a load must not notice
    for chunk in range(1, ranked_chunk(1)):
        data = flip_payload(data, starts[chunk])
    index_of(path).write_bytes(data[:starts[ranked_chunk(2)]])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ngrams, "_parse_records", None)
        patch.setattr(ngrams, "_read_chunk", recording)
        assert run(["top", "-i", str(path), "-n", "1"]) == 0
    assert read == [starts[0], starts[ranked_chunk(1)]]
    assert capsys.readouterr().out == "1. w0 6\n"


@pytest.mark.parametrize("lengths, prefix, chunks, cut", [
    ({1}, Prefix(first=1), 1, (1, 9999)),
    ({1}, Prefix(first=256), 1, (256, 9744)),
    ({1}, Prefix(first=257), 2, (257, 9743)),
    ({1}, Prefix(min_total=9745), 1, (256, 9744)),
    ({1}, Prefix(min_total=9744), 2, (257, 9743)),
    ({1}, Prefix(min_total=10_001), 1, (0, 10_000)),
    ({2}, Prefix(min_total=2), 17, (4097, 1)),
    ({2}, Prefix(min_total=3), 1, (0, 2)),
    ({2}, Prefix(first=4097, min_total=2), 17, (4097, 1)),
    ({2}, Prefix(min_total=1), 33, None),
])
def test_a_prefix_reads_only_the_ranked_chunks_that_hold_it(tmp_path, lengths, prefix, chunks,
                                                            cut):
    path = tmp_path / "records.csv"
    write_indexed(path, MANY)
    data = index_of(path).read_bytes()
    starts = chunk_starts(data)
    first = starts.index(ranked_offsets(data)[min(lengths) - 1])
    read = []
    read_chunk = ngrams._read_chunk

    def recording(fh, end, skip=False):
        read.append(fh.tell())
        return read_chunk(fh, end, skip)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ngrams, "_read_chunk", recording)
        table = table_from_index(path, lengths, prefix)
    assert read == [starts[0], *starts[first:first + chunks]]
    assert table.cuts == ({} if cut is None else {min(lengths): cut})


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


def version_3_index(path):
    """The index the previous version wrote for the records file at
    `path`: a header without section offsets; a chunk with the totals
    and the layout; then each (n, year)'s `{ngram: count}` dict, in
    chunks of 4096 entries, and no ranked sections."""
    cells = {}
    for (n, ngram, year), count in read_stream(path).items():
        cells.setdefault((n, year), {})[ngram] = count
    data = path.read_bytes()
    magic = b"trendgram records index 3\n"
    layout = tuple((n, year, len(cells[n, year])) for n, year in sorted(cells))
    totals = {key: sum(cell.values()) for key, cell in sorted(cells.items())}
    chunks = [(totals, layout)]
    for n, year, _ in layout:
        items = list(cells[n, year].items())
        chunks += [dict(items[at:at + 4096]) for at in range(0, len(items), 4096)]
    out = struct.pack(f"<{len(magic)}sIQQ", magic, zlib.crc32(data), len(data),
                      sum(size for _, _, size in layout))
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


def test_version_3_index_is_ignored_and_rewritten_once(stoplist, tmp_path):
    table = count_ngrams(random_sentences(random.Random(29), 300), stoplist)
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    for where in (fresh, old):
        where.mkdir()
        write_records(table, where / "records.csv")
    index_of(old / "records.csv").write_bytes(version_3_index(old / "records.csv"))
    assert ngrams._read_index(f"{old / 'records.csv'}.idx", ngrams._fingerprint(
        old / "records.csv"), frozenset({2}), None) is None
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
# Prefix loads: read_table(path, lengths, prefix) and the ranked sections


# Damage that `top -n 2` must notice: it falls back to the CSV.
SEEN_BY_A_BIGRAM_TOP = {
    "ranked-section-payload": in_chunk(ranked_chunk(2), flip_payload),
    "ranked-section-length": in_chunk(ranked_chunk(2), flip_length),
    "ranked-section-cut-short": in_chunk(ranked_chunk(2), cut_before_end),
    "ranked-section-offset": flip(CRC_AT + 20 + 8),
    "totals-chunk-payload": in_chunk(0, flip_payload),
}

# Damage only in chunks `top -n 2` does not read.
UNSEEN_BY_A_BIGRAM_TOP = {
    "cell-payload": in_chunk(cell_chunk(2, 2001), flip_payload),
    "cell-length": in_chunk(cell_chunk(1, 2000), flip_length),
    "unigram-ranked-payload": in_chunk(ranked_chunk(1), flip_payload),
    "trigram-ranked-length": in_chunk(ranked_chunk(3), flip_length),
    "unigram-section-offset": flip(CRC_AT + 20),
    "truncated-payload": lambda data: data[:-1],
    "appended": lambda data: data + b"\0",
}


def top_counting_parses(path, capsys):
    """The output of `top -n 2` on `path` and the number of times it parsed the CSV."""
    parses = []
    parse = ngrams._parse_records

    def counting(source):
        parses.append(source)
        return parse(source)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ngrams, "_parse_records", counting)
        assert run(["top", "-i", str(path), "-n", "2"]) == 0
    return capsys.readouterr().out, len(parses)


@pytest.mark.parametrize("damage", SEEN_BY_A_BIGRAM_TOP.values(), ids=SEEN_BY_A_BIGRAM_TOP.keys())
def test_damage_a_bigram_top_reads_falls_back_to_the_csv(tmp_path, capsys, damage):
    path = tmp_path / "records.csv"
    write_indexed(path, SECTIONED)
    good = index_of(path).read_bytes()
    index_of(path).write_bytes(damage(good))
    assert top_counting_parses(path, capsys) == ("1. w0 w1 9\n", 1)
    assert index_of(path).read_bytes() == good


@pytest.mark.parametrize("damage", UNSEEN_BY_A_BIGRAM_TOP.values(),
                         ids=UNSEEN_BY_A_BIGRAM_TOP.keys())
def test_damage_outside_a_bigram_top_waits_for_a_read_of_it(tmp_path, capsys, damage):
    path = tmp_path / "records.csv"
    write_indexed(path, SECTIONED)
    good = index_of(path).read_bytes()
    index_of(path).write_bytes(damage(good))
    assert top_counting_parses(path, capsys) == ("1. w0 w1 9\n", 0)
    assert index_of(path).read_bytes() == damage(good)
    table, parses = read_counting_parses(path)
    assert parses == 1
    assert table == build_table(SECTIONED)
    assert index_of(path).read_bytes() == good


def heads(counts):
    """Each length's `(ngram, total)` pairs, in ranking order."""
    full = build_table(counts)
    return {n: top_ngrams(full, n, len(counts)) if any(key[0] == n for key in counts) else []
            for n in range(1, 5)}


def prefixes(ranked):
    """The first k n-grams for k from 1 to one past their number, and
    thresholds at and around each of their totals."""
    totals = {total for _, total in ranked}
    return ([Prefix(first=k) for k in range(1, len(ranked) + 2)]
            + [Prefix(min_total=m) for m in sorted({t + d for t in totals for d in (-1, 0, 1)})])


def taken(ranked, prefix):
    """How many n-grams of a ranking the head `prefix` holds, by its definition."""
    size = sum(1 for _, total in ranked if total >= prefix.min_total)
    return size if prefix.first is None else min(size, prefix.first)


def single(ngram):
    return Query([QuerySeries(ngram, [tuple(ngram.split(" "))])])


# Few tokens, few years and small counts: many n-grams share a total.
TIED_KEYS = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sampled_from(["a", "b", "c", "dé"]), min_size=n, max_size=n)
    .map(" ".join), st.integers(2000, 2003)))


@settings(max_examples=25, deadline=None)
@given(counts=st.dictionaries(TIED_KEYS, st.integers(1, 3), min_size=8, max_size=40))
def test_prefix_tables_answer_as_the_full_table_or_refuse(tmp_path_factory, counts):
    path = tmp_path_factory.mktemp("prefix") / "records.csv"
    write_indexed(path, counts)
    text = path.read_text(encoding="utf-8")
    full = build_table(counts)
    span = full.year_span()
    trends = {}  # (n, direction, min_support) -> the full table's ranking
    for n, ranked in heads(counts).items():
        for prefix in prefixes(ranked):
            size = taken(ranked, prefix)
            held = {ngram for ngram, _ in ranked[:size]}
            expected = build_table({key: count for key, count in counts.items()
                                    if key[0] == n and key[1] in held})
            cut = {n: (size, ranked[size][1])} if size < len(ranked) else {}
            with io.StringIO(text) as stream:
                tables = (table_from_index(path, {n}, prefix), read_table(stream, {n}, prefix))
            for table in tables:
                assert table == expected and table.cuts == cut and table.lengths == {n}
                assert table.totals == full.totals and table.years == full.years
                for k in range(1, size + 1):
                    assert top_ngrams(table, n, k) == top_ngrams(full, n, k)
                floor = cut[n][1] + 1 if cut else 0
                for key in itertools.product([n], ("rising", "falling"), (floor, floor + 1)):
                    if key not in trends:
                        trends[key] = rank_trends(full, *key[:2], 50, key[2], 1)
                    assert rank_trends(table, *key[:2], 50, key[2], 1) == trends[key]
                for ngram in held:
                    assert evaluate(table, single(ngram), span) == evaluate(full, single(ngram),
                                                                            span)
                if cut:
                    with pytest.raises(ValueError, match="most frequent"):
                        top_ngrams(table, n, size + 1)
                    with pytest.raises(ValueError, match="most frequent"):
                        rank_trends(table, n, "rising", 50, cut[n][1], 1)
                    with pytest.raises(ValueError, match="was not loaded"):
                        evaluate(table, single(ranked[size][0]), span)
    # A catalog's page i does not depend on its limit, so each catalog of a
    # prefix table is compared with the pages of one catalog of the full table.
    out = tmp_path_factory.mktemp("catalog")
    most = max(map(len, heads(counts).values())) + 1
    index = build_catalog(full, most, out / "full")
    for k in range(1, most + 1):
        table = table_from_index(path, None, Prefix(first=k))
        assert build_catalog(table, k, out / f"{k}") == index[:k]
        for _, _, page in index[:k]:
            assert (out / f"{k}" / page).read_bytes() == (out / "full" / page).read_bytes()
        if table.cuts:
            with pytest.raises(ValueError, match="most frequent"):
                build_catalog(table, k + 1, out / "refused")


def test_read_table_rejects_an_empty_prefix(tmp_path):
    path = tmp_path / "records.csv"
    write_records(build_table({(1, "code", 2000): 3}), path)
    with pytest.raises(ValueError, match="at least 1 n-gram"):
        read_table(path, [1], Prefix(first=0))


def test_build_catalog_refuses_a_table_without_every_length(tmp_path):
    path = tmp_path / "records.csv"
    write_indexed(path, {(1, "code", 2000): 5, (2, "source code", 2000): 3})
    with pytest.raises(ValueError, match="length 1 was not loaded; the table holds 2"):
        build_catalog(table_from_index(path, {2}), 5, tmp_path / "catalog")


# Every command shape the benchmark's explore and render workloads run,
# and some with more permissive thresholds.
COMMAND_SHAPES = (
    ["query", "static analysis, dynamic analysis"],
    ["query", "review+survey, case study+experiment", "-o", "series.json"],
    ["query", "program comprehension, code", "-o", "planted.csv", "--svg", "planted.svg"],
    *(["top", "-n", str(n), "-k", "20"] for n in range(1, 5)),
    ["top", "-n", "2"],
    *(["trends", "-n", "2", "--direction", direction, "-k", "10"]
      for direction in ("rising", "falling")),
    ["trends", "-n", "1", "--min-support", "3", "--min-years", "2"],
    ["trends", "-n", "2", "--min-support", "8", "--min-years", "3"],
    ["trends", "-n", "3", "--min-support", "0", "--min-years", "1", "--direction", "falling"],
    ["demo", "-o", "demo"],
    ["catalog", "-o", "catalog", "--limit", "60"],
    ["catalog", "-o", "catalog-all", "--limit", "100000"],
)


def shape_outputs(records, out_dir, index):
    """stdout, stderr and files of each of COMMAND_SHAPES run on
    `records` in `out_dir`, with the records' index "kept", "deleted"
    before each command, or "unwritable" (a directory in its place)."""
    outputs = []
    out_dir.mkdir()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(out_dir)
        for argv in COMMAND_SHAPES:
            if index == "kept":
                assert index_of(records).is_file()
            elif index == "deleted":
                index_of(records).unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                status = run([argv[0], "-i", str(records), *argv[1:]])
            outputs.append((argv, status, stdout.getvalue(), stderr.getvalue()))
    outputs.append({p.relative_to(out_dir).as_posix(): p.read_bytes()
                    for p in sorted(out_dir.rglob("*")) if p.is_file()})
    return outputs


def test_commands_answer_alike_with_and_without_the_index(stoplist, tmp_path):
    rng = random.Random(31)
    vocabulary = WORDS + STOPPY_WORDS + ("static", "analysis", "case", "study", "survey")
    sentences = random_sentences(rng, 400, years=tuple(range(2000, 2008)),
                                 vocab=vocabulary, max_tokens=10)
    records = tmp_path / "records.csv"
    write_records(count_ngrams(sentences, stoplist), records)
    read_records(records)
    kept = shape_outputs(records, tmp_path / "kept", "kept")
    assert all(status == 0 for _, status, _, _ in kept[:-1])
    assert shape_outputs(records, tmp_path / "deleted", "deleted") == kept
    index_of(records).unlink()
    index_of(records).mkdir()  # heads are then ranked in memory
    assert shape_outputs(records, tmp_path / "unwritable", "unwritable") == kept


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


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.dictionaries(st.text("ab", min_size=1, max_size=3), st.integers(1, 3),
                                      max_size=12), max_size=5),
       k=st.integers(1, 20))
def test_most_frequent_matches_its_definition(cells, k):
    # 14 possible n-grams with small counts over several cells: totals tie
    # often, and k falls both below and above the number of n-grams.
    totals = Counter()
    for cell in cells:
        totals.update(cell)
    expected = sorted(totals.items(), key=lambda item: (-item[1], item[0]))[:k]
    assert ngrams._most_frequent(cells, k) == expected


def test_top_ngrams_single_record():
    assert top_ngrams(build_table({(1, "x", 2000): 5}), 1, 3) == [("x", 5)]


def test_top_ngrams_rejects_bad_k():
    with pytest.raises(ValueError):
        top_ngrams(build_table({}), 1, 0)
