from __future__ import annotations

import contextlib
import copy
import io
import itertools
import marshal
import os
import random
import struct
import subprocess
import sys
import threading
import time
import weakref
import zlib
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trendgram
import trendgram.ngrams
import trendgram.table
from oracle import naive_ngram_counts, naive_records_text
from support import STOPPY_WORDS, WORDS, random_counts, random_sentences
from trendgram import _whole
from trendgram.cli import run
from trendgram.errors import RecordsError, TrendgramError
from trendgram.frequency import Query, QuerySeries, evaluate, parse_query, write_series_csv
from trendgram.ngrams import (NgramRecord, Stoplist, build_table, count_ngrams, read_records,
                              token_runs, write_records)
from trendgram.table import (_INDEX_CHUNK_HEADER, _INDEX_HEADER, _INDEX_MAGIC, FrequencyTable,
                             Prefix, _fingerprint, _most_frequent, _read_index, _stamp, read_table,
                             top_ngrams)
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


def test_a_counted_table_answers_only_for_the_lengths_it_counted(stoplist):
    # Unigrams it did not count would read as zeros over the bigrams' totals.
    table = count_ngrams([sentence(["program", "comprehension"], 2000),
                          sentence(["program", "slicing"], 2001)], stoplist, 2, 2)
    assert table.lengths == {2}
    with pytest.raises(ValueError, match="^n-gram length 1 was not loaded; the table holds 2$"):
        top_ngrams(table, 1, 5)
    with pytest.raises(ValueError, match="^n-gram length 1 was not loaded; the table holds 2$"):
        evaluate(table, parse_query("program"), (2000, 2001))


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


def test_stop_sums_are_built_once_per_batch_for_every_length(stoplist, monkeypatch):
    sentences = year_runs(random.Random(3), [(2000, 600), (2001, 257)])
    runs = token_runs(iter(sentences))
    built = []
    stop_sums = trendgram.ngrams._stop_sums

    def counted(tokens, weigh):
        built.append(tokens)
        return stop_sums(tokens, weigh)

    monkeypatch.setattr(trendgram.ngrams, "_stop_sums", counted)
    for n in range(1, 5):
        table = count_ngrams(runs, stoplist, n, n)
        assert table.counts == naive_ngram_counts(sentences, stoplist, n, n)
    assert len(runs) > 2 and built == [tokens for _, tokens in runs]


def test_runs_counted_with_other_stopwords_are_counted_with_those(stoplist):
    sentences = year_runs(random.Random(4), [(2001, 300), (2000, 2), (2001, 300)])
    runs = token_runs(iter(sentences))
    other = Stoplist(["code", " ", "of"])
    for words in (stoplist, other, stoplist, other.words):
        assert count_ngrams(runs, words, 1, 4).counts == naive_ngram_counts(sentences, words)
    # A plain set changed between two counts is counted as it is at each.
    words = set()
    for word in ("code", "of"):
        words.add(word)
        assert count_ngrams(runs, words, 1, 4).counts == naive_ngram_counts(sentences, words)
    words.clear()
    assert count_ngrams(runs, words, 1, 4).counts == naive_ngram_counts(sentences, words)


def test_token_runs_cannot_be_changed_in_place():
    runs = token_runs([sentence(["program", "code"], 2000), sentence(["code"], 2001)])
    year, tokens = runs[0]
    assert isinstance(runs, tuple) and isinstance(runs[0], tuple) and isinstance(tokens, tuple)
    assert (year, tokens[:2]) == (2000, ("program", "code"))
    with pytest.raises(TypeError):
        runs[0] = (2000, ())
    with pytest.raises(TypeError):
        del runs[0]
    with pytest.raises(TypeError):
        runs[0][1] = ()
    with pytest.raises(TypeError):
        tokens[0] = "x"
    assert not hasattr(runs, "append") and not hasattr(runs, "extend")


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


@settings(max_examples=100, deadline=None)
@given(counts=st.dictionaries(WRITER_KEYS, st.integers(1, 10**12), max_size=40))
def test_write_records_leaves_the_callers_tables_unchanged(counts):
    expected = naive_records_text(counts)
    whole = build_table(counts)
    per_length = [build_table({key: count for key, count in counts.items() if key[0] == n})
                  for n in sorted({n for n, _, _ in counts})]
    for tables, held in ((whole, [whole]), (per_length, per_length)):
        before = [(copy.deepcopy(table.cells), len(table)) for table in held]
        buffer = io.StringIO()
        write_records(tables, buffer)
        assert buffer.getvalue() == expected
        for table in held:
            list(table)  # lists its records from a copy of its cells
        assert [(table.cells, len(table)) for table in held] == before
        assert all(table == FrequencyTable(cells) for table, (cells, _) in zip(held, before))


class WeakCell(dict):
    """A cell a `weakref` can follow."""


def test_write_records_frees_a_lazy_tables_cells_before_its_sort(monkeypatch):
    # `table._rows` sorts each length's rows by `itemgetter(0)`; by then
    # every cell of a table that only the writer held must be gone.
    counts = random_counts(random.Random(8), max_records=200)
    lengths = sorted({n for n, _, _ in counts})
    refs = {}  # n -> weak references to the cells of its table

    def cells_of(n):
        cells = {}
        for (length, ngram, year), count in counts.items():
            if length == n:
                cells.setdefault((n, year), WeakCell())[ngram] = count
        refs[n] = [weakref.ref(cell) for cell in cells.values()]
        return cells

    freed = []
    itemgetter = trendgram.ngrams.itemgetter

    def itemgetter_at_sort(index):
        freed.append(all(ref() is None for ref in refs[max(refs)]))
        return itemgetter(index)

    monkeypatch.setattr(trendgram.ngrams, "itemgetter", itemgetter_at_sort)
    buffer = io.StringIO()
    write_records((FrequencyTable(cells_of(n)) for n in lengths), buffer)
    assert buffer.getvalue() == naive_records_text(counts)
    assert len(lengths) == 4 and freed == [True] * 4


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
        patch.setattr(_whole, "_parse_records", refuse)
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
    assert_index_layout(index_of(path).read_bytes(), counts)


def assert_index_layout(data, counts):
    """The index `data` of `counts` holds exactly, chunk by chunk and in
    order, what the format defines: each length's keyed section (see
    `keyed_section`) and ranked section (see `ranked_section`) at the
    offsets its header gives, then the totals chunk, where the header
    says, holding the totals of `build_table(counts)` and the number of
    records of each length."""
    starts = chunk_starts(data)
    totals_at, keyed, ranked = header_offsets(data)
    chunk = 0
    for n in range(1, 5):
        chunks = keyed_section(counts, n)
        held = range(chunk + 1, chunk + 1 + len(chunks))  # the keyed chunks after the directory
        assert keyed[n - 1] == starts[chunk]
        assert index_chunk(data, chunk) == directory(counts, n, [starts[at] for at in held])
        assert [keyed_in_order(index_chunk(data, at)) for at in held] == list(
            map(keyed_in_order, chunks))
        chunk += 1 + len(chunks)
        section = ranked_section(counts, n)
        assert ranked[n - 1] == starts[chunk]
        assert [in_order(index_chunk(data, at)) for at in range(chunk, chunk + len(section))] \
            == list(map(in_order, section))
        chunk += len(section)
    assert totals_at == starts[chunk] and len(starts) == chunk + 1
    sizes = tuple(sum(1 for key in counts if key[0] == n) for n in range(1, 5))
    assert index_chunk(data, chunk) == (build_table(counts).totals, sizes)
    assert _INDEX_HEADER.unpack_from(data)[6] == len(counts)


def keyed_section(counts, n, size=256):
    """The chunks after the directory of the keyed section of length `n`
    of the index of `counts`, an `(n, ngram, year) -> count` dict, by
    their definition: the n-grams in lexicographic order, `size` at a
    time, each chunk mapping each year, ascending, in which some of
    them have counts to those counts, in n-gram order."""
    names = sorted({ngram for length, ngram, _ in counts if length == n})
    years = sorted({year for length, _, year in counts if length == n})
    chunks = []
    for at in range(0, len(names), size):
        chunk = {}
        for year in years:
            part = {ngram: counts[n, ngram, year] for ngram in names[at:at + size]
                    if (n, ngram, year) in counts}
            if part:
                chunk[year] = part
        chunks.append(chunk)
    return chunks


def directory(counts, n, offsets, size=256):
    """The directory chunk of the keyed section of length `n` of the
    index of `counts` whose chunks start at `offsets`: the first n-gram
    of each chunk, and the offsets as little-endian 8-byte integers."""
    names = sorted({ngram for length, ngram, _ in counts if length == n})
    return tuple(names[::size]), struct.pack(f"<{len(offsets)}Q", *offsets)


def keyed_in_order(chunk):
    """A keyed chunk with its dicts as lists of items, so that comparing
    two compares their order too."""
    return [(year, list(part.items())) for year, part in chunk.items()]


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


def header_offsets(data):
    """The offsets that the header of the index `data` gives: of the
    totals chunk, of each length's keyed section and of each length's
    ranked section."""
    fields = _INDEX_HEADER.unpack_from(data)[7:-1]
    return fields[0], fields[1:5], fields[5:9]


def ranked_offsets(data):
    """The offsets of the ranked sections that the header of the index
    `data` gives."""
    return header_offsets(data)[2]


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
    # 10,000 unigrams: a directory and 40 keyed chunks, then 40 ranked ones;
    # 8,193 bigrams: a directory and 33 keyed chunks, then 33 ranked ones;
    # lengths 3 and 4: an empty directory and one empty ranked chunk each;
    # then the totals
    starts = chunk_starts(data)
    assert len(starts) == 1 + 40 + 40 + 1 + 33 + 33 + 2 + 2 + 1
    assert header_offsets(data) == (starts[-1], (starts[0], starts[81], starts[148], starts[150]),
                                    (starts[41], starts[115], starts[149], starts[151]))
    assert [sum(map(len, index_chunk(data, chunk).values())) for chunk in range(1, 41)] == (
        [256] * 39 + [16])
    assert [len({ngram for part in index_chunk(data, chunk).values() for ngram in part})
            for chunk in range(82, 115)] == [256] * 32 + [1]
    assert [index_chunk(data, chunk) for chunk in (148, 150)] == [((), b"")] * 2
    ranked = [index_chunk(data, chunk) for chunk in [*range(41, 81), *range(115, 148), 149, 151]]
    assert [len(chunk[0]) for chunk in ranked] == [256] * 39 + [16] + [256] * 32 + [1, 0, 0]
    assert_index_layout(data, counts)
    assert table_from_index(path, {2}) == build_table(restrict(counts, {2}))


@pytest.mark.parametrize("count", ["5", "30"], ids=["same-size", "other-size"])
def test_rewritten_records_are_read_anew(tmp_path, count):
    path = tmp_path / "records.csv"
    write_indexed(path, {(1, "code", 2000): 3, (2, "code tools", 2001): 4})
    path.write_text(f"n,ngram,year,count\n1,code,2000,{count}\n2,code tools,2001,4\n")
    assert read_records(path) == {(1, "code", 2000): int(count), (2, "code tools", 2001): 4}


def wait_for_the_clock(path):
    """Return once a file made beside `path` gets an mtime past `path`'s
    mtime and ctime: an index written from then on is not racy, and a
    change to `path` moves its ctime."""
    status = path.stat()
    probe = path.parent / "clock-probe"
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        probe.unlink(missing_ok=True)
        probe.touch()
        if probe.stat().st_mtime_ns > max(status.st_mtime_ns, status.st_ctime_ns):
            probe.unlink()
            return
        time.sleep(0.001)
    raise AssertionError("the filesystem clock did not move in 10 s")


def read_counting_crcs(path):
    """`read_table(path)`, the number of crc32s of the records file it
    computed and the number of times it parsed the CSV."""
    crcs = []
    fingerprint = trendgram.table._fingerprint

    def counting(source):
        crcs.append(source)
        return fingerprint(source)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trendgram.table, "_fingerprint", counting)
        patch.setattr(_whole, "_fingerprint", counting)
        table, parses = read_counting_parses(path)
    return table, len(crcs), parses


STAMPED = {(1, "code", 2000): 3, (2, "code tools", 2001): 4}


def test_an_index_written_after_the_last_change_is_read_without_a_crc32(tmp_path):
    path = tmp_path / "records.csv"
    write_records(build_table(STAMPED), path)
    wait_for_the_clock(path)
    # the first read computes a crc32 before the parse and one after it
    assert read_counting_crcs(path) == (build_table(STAMPED), 2, 1)
    fields = _INDEX_HEADER.unpack_from(index_of(path).read_bytes())
    status = path.stat()
    assert fields[1:6] == (zlib.crc32(path.read_bytes()), status.st_size, status.st_ino,
                           status.st_mtime_ns, status.st_ctime_ns)
    for _ in range(2):
        assert read_counting_crcs(path) == (build_table(STAMPED), 0, 0)


def test_a_racy_index_is_read_with_one_crc32_and_left_as_it_is(tmp_path):
    path = tmp_path / "records.csv"
    write_indexed(path, STAMPED)
    status = path.stat()
    # the index's mtime is not past the records file's times: a change in the
    # same clock tick as the index write would have left them as they are
    os.utime(index_of(path), ns=(status.st_atime_ns, max(status.st_mtime_ns, status.st_ctime_ns)))
    written = index_of(path).read_bytes(), index_of(path).stat().st_mtime_ns
    for _ in range(2):
        assert read_counting_crcs(path) == (build_table(STAMPED), 1, 0)
    assert (index_of(path).read_bytes(), index_of(path).stat().st_mtime_ns) == written


def test_a_same_size_rewrite_with_its_mtime_put_back_is_read_anew(tmp_path):
    path = tmp_path / "records.csv"
    write_records(build_table(STAMPED), path)
    wait_for_the_clock(path)
    read_records(path)
    assert read_counting_crcs(path)[1:] == (0, 0)
    before = path.stat()
    wait_for_the_clock(path)
    path.write_text("n,ngram,year,count\n1,code,2000,5\n2,code tools,2001,4\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns)
    # only the ctime tells: then the crc32, which differs, and the parse;
    # and the crc32 once more after it, before the index is rewritten
    assert read_counting_crcs(path) == (
        build_table({(1, "code", 2000): 5, (2, "code tools", 2001): 4}), 2, 1)


@pytest.mark.parametrize("change", [
    lambda path: path.write_text("n,ngram,year,count\n1,code,2000,5\n2,code tools,2001,4\n"),
    lambda path: os.utime(path, ns=(0, path.stat().st_mtime_ns + 10**9)),
    lambda path: path.chmod(0o600),
], ids=["rewritten", "touched", "chmod"])
def test_a_file_that_changes_while_it_is_parsed_gets_no_index(tmp_path, change):
    # The crc32 and the stat taken before the parse must both hold after it.
    path = tmp_path / "records.csv"
    write_records(build_table(STAMPED), path)
    wait_for_the_clock(path)
    parse = _whole._parse_records

    def changing(source):
        change(path)
        return parse(source)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_whole, "_parse_records", changing)
        assert read_records(path) == read_stream(path)
    assert not index_of(path).exists()


def test_a_byte_identical_copy_put_in_its_place_keeps_the_index(tmp_path):
    path = tmp_path / "records.csv"
    write_records(build_table(STAMPED), path)
    wait_for_the_clock(path)
    read_records(path)
    good = index_of(path).read_bytes()
    inode = path.stat().st_ino
    copy = tmp_path / "copy.csv"
    copy.write_bytes(path.read_bytes())
    os.replace(copy, path)
    assert path.stat().st_ino != inode
    assert read_counting_crcs(path) == (build_table(STAMPED), 1, 0)
    assert index_of(path).read_bytes() == good


HEADER_SIZE = _INDEX_HEADER.size
CRC_AT = len(_INDEX_MAGIC)  # the records file's crc32, then its size
STAMP_AT = CRC_AT + 12  # the records file's inode, mtime and ctime
ENTRIES_AT = STAMP_AT + 24  # the entry count
TOTALS_AT = ENTRIES_AT + 8  # the offset of the totals chunk, then those of the sections
HEADER_CRC_AT = HEADER_SIZE - 4  # the crc32 of the header before it


def keyed_field(n):
    """Where the header gives the offset of length n's keyed section."""
    return TOTALS_AT + 8 * n


def ranked_field(n):
    """Where the header gives the offset of length n's ranked section."""
    return TOTALS_AT + 8 * (4 + n)


def flip(at):
    return lambda data: data[:at] + bytes([data[at] ^ 0x40]) + data[at + 1:]


def resealed(data):
    """The index `data` with its header's crc32 made to match the header."""
    return (data[:HEADER_CRC_AT] + zlib.crc32(data[:HEADER_CRC_AT]).to_bytes(4, "little")
            + data[HEADER_SIZE:])


def sealed(damage):
    """`damage` to the header under a matching header crc32, so that only
    the checks of what the header says can notice it."""
    return lambda data: resealed(damage(data))


def unstamped(data):
    """The index `data` with the records file's inode, mtime and ctime and
    the header's crc32 zeroed: all that may differ between the indexes
    of two byte-identical records files."""
    return (data[:STAMP_AT] + bytes(ENTRIES_AT - STAMP_AT) + data[ENTRIES_AT:HEADER_CRC_AT]
            + bytes(4) + data[HEADER_SIZE:])


def crc_valid_chunk(payload):
    """An index whose one chunk holds `payload` under a matching crc32."""
    return lambda data: (data[:HEADER_SIZE] + _INDEX_CHUNK_HEADER.pack(
        len(payload), zlib.crc32(payload)) + payload)


def with_chunk(chunk, change):
    """The index with chunk number `chunk` replaced by `change(value)` of
    its value, under a matching crc32. Chunks after it move unless the
    new payload has the old one's size."""
    def damage(data):
        starts = chunk_starts(data)
        rest = starts[chunk + 1] if chunk + 1 < len(starts) and chunk != -1 else len(data)
        payload = marshal.dumps(change(index_chunk(data, chunk)), 2)
        return (data[:starts[chunk]] + _INDEX_CHUNK_HEADER.pack(
            len(payload), zlib.crc32(payload)) + payload + data[rest:])
    return damage


def with_totals_chunk(change):
    """The index with its last chunk, `(totals, sizes)`, replaced by
    `change(totals, sizes)` under a matching crc32."""
    return with_chunk(-1, lambda value: change(*value))


def moved_size(to, away):
    """A change of the totals chunk that moves one record of the size of
    length `away + 1` to length `to + 1`: the sizes still add up to the
    header's entry count."""
    def change(totals, sizes):
        sizes = list(sizes)
        sizes[to] += 1
        sizes[away] -= 1
        return totals, tuple(sizes)
    return change


def same_size(make):
    """A change of a chunk to `make(size)`, a value whose payload is
    `size` bytes long, where `size` is the old payload's: nothing after
    the chunk moves."""
    return lambda value: make(len(marshal.dumps(value, 2)))


def moved_chunks(by, chunks=slice(None)):
    """A change of a directory that moves its `chunks` by `by` bytes."""
    def change(value):
        firsts, offsets = value
        moved = list(struct.unpack(f"<{len(firsts)}Q", offsets))
        moved[chunks] = [at + by for at in moved[chunks]]
        return firsts, struct.pack(f"<{len(firsts)}Q", *moved)
    return change


moved_chunk = moved_chunks(1, slice(1))  # a directory's first chunk moved by one byte


def part_not_a_dict(chunk):
    """A keyed chunk whose first year's dict is a tuple of as many items,
    with a payload of the same size: nothing after the chunk moves, and
    the number of records holds."""
    (year, part), *rest = chunk.items()
    items = [b""] * len(part)
    items[-1] = b"\0" * (len(marshal.dumps(part, 2)) - len(marshal.dumps(tuple(items), 2)))
    return {year: tuple(items), **dict(rest)}


def junk_after_header(data):
    """The index with 8 zero bytes, which read as an empty chunk, after
    its header, and every offset moved past them: only a read that
    checks that the sections follow the header notices."""
    fields = list(_INDEX_HEADER.unpack_from(data))
    fields[7:-1] = [at + 8 for at in fields[7:-1]]
    data = resealed(_INDEX_HEADER.pack(*fields) + bytes(8) + data[HEADER_SIZE:])
    for at in header_offsets(data)[1]:
        data = with_chunk(chunk_starts(data).index(at), moved_chunks(8))(data)
    return data


def index_chunk(data, chunk):
    """The value of chunk number `chunk` of the index `data`."""
    start = chunk_starts(data)[chunk] + _INDEX_CHUNK_HEADER.size
    return marshal.loads(data[start:start + _INDEX_CHUNK_HEADER.unpack_from(
        data, start - _INDEX_CHUNK_HEADER.size)[0]])


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
    "flipped-inode": flip(STAMP_AT),
    "flipped-mtime": flip(STAMP_AT + 8),
    "flipped-ctime": flip(STAMP_AT + 16),
    "flipped-entries": flip(ENTRIES_AT),
    "flipped-totals-offset": flip(TOTALS_AT),
    "flipped-section-offset": flip(keyed_field(1)),
    "flipped-header-crc": flip(HEADER_CRC_AT),
    "sealed-size": sealed(flip(CRC_AT + 4)),
    "sealed-entries": sealed(flip(ENTRIES_AT)),
    "sealed-totals-offset": sealed(flip(TOTALS_AT)),
    "sealed-section-offset": sealed(flip(keyed_field(1))),
    "flipped-chunk-length": flip(HEADER_SIZE),
    "huge-chunk-length": lambda data: (data[:HEADER_SIZE] + b"\xff\xff\xff\xff"
                                       + data[HEADER_SIZE + 4:]),
    "flipped-chunk-crc": flip(HEADER_SIZE + 4),
    "flipped-payload": flip(-3),
    "bad-marshal": crc_valid_chunk(b"\xff" * 16),
    "not-a-dict": crc_valid_chunk(marshal.dumps(5, 2)),
    "keyed-chunk-not-a-dict": with_chunk(1, same_size(lambda size: b"\0" * (size - 5))),
    "cell-not-a-dict": with_chunk(1, part_not_a_dict),
    "keyed-chunk-out-of-place": with_chunk(0, moved_chunk),
    "junk-after-header": junk_after_header,
    "cell-size-moved": with_totals_chunk(moved_size(0, -1)),
    "totals-of-a-missing-cell": with_totals_chunk(
        lambda totals, sizes: ({**totals, (1, 1999): 5}, sizes)),
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
        # n-grams spread over the keyed chunks of every length, and absent ones
        asked = sorted({ngram for _, ngram, _ in counts})[::97] + ["zz", "zz zz"]
        written, loaded = [], []
        for seed in ("1", "2"):
            index_of(path).unlink(missing_ok=True)
            subprocess.run([sys.executable, "-c", f"from trendgram.ngrams import read_records; "
                            f"read_records({str(path)!r})"], check=True,
                           env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
            written.append(index_of(path).read_bytes())
            loaded.append(subprocess.run(
                [sys.executable, "-c", f"from trendgram.table import read_table; "
                 f"print(read_table({str(path)!r}, ngrams={asked!r}).cells)"],
                check=True, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout)
        assert written[0] == written[1]
        assert loaded[0] == loaded[1]
        assert_index_layout(written[0], counts)
        assert len(index_chunk(written[0], 0)[0]) > 1  # several keyed chunks of unigrams
        index_of(path).unlink()
        read_records(path)
        assert index_of(path).read_bytes() == written[0]


# ---------------------------------------------------------------------------
# Partial loads: read_table(path, lengths) and index sections


def table_from_index(path, lengths, prefix=None, ngrams=None):
    """`read_table(path, lengths, prefix, ngrams)` with CSV parsing made
    to fail, so that the table must come from the index."""
    def refuse(source):
        raise AssertionError(f"{source} was parsed")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_whole, "_parse_records", refuse)
        return read_table(path, lengths, prefix, ngrams)


def read_counting_parses(path, lengths=None, ngrams=None, prefix=None):
    """`read_table(path, lengths, prefix, ngrams)` and the number of times
    it parsed the CSV."""
    parses = []
    parse = _whole._parse_records

    def counting(source):
        parses.append(source)
        return parse(source)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_whole, "_parse_records", counting)
        return read_table(path, lengths, prefix, ngrams), len(parses)


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


# One n-gram per length, counted in three years: each length's keyed section
# is a directory and one chunk, and its ranked section one chunk; the
# totals chunk comes last.
SECTIONED = {(n, " ".join(f"w{i}" for i in range(n)), 2000 + year): n + year
             for n in range(1, 5) for year in range(3)}
TOTALS_CHUNK = 12  # the number of SECTIONED's totals chunk


def directory_chunk(n):
    """The number of the chunk that holds SECTIONED's keyed directory of length n."""
    return 3 * (n - 1)


def keyed_chunk(n):
    """The number of the chunk that holds SECTIONED's keyed counts of length n."""
    return 3 * (n - 1) + 1


def ranked_chunk(n):
    """The number of the chunk that holds SECTIONED's ranked section of length n."""
    return 3 * (n - 1) + 2


def chunk_starts(data):
    """The offset of each chunk's header in the index `data`."""
    starts, at = [], HEADER_SIZE
    while at < len(data):
        starts.append(at)
        at += _INDEX_CHUNK_HEADER.size + _INDEX_CHUNK_HEADER.unpack_from(data, at)[0]
    return starts


def in_chunk(chunk, damage):
    """`damage(data, offset of chunk's header)`."""
    return lambda data: damage(data, chunk_starts(data)[chunk])


def flip_payload(data, start):
    return flip(start + _INDEX_CHUNK_HEADER.size + 1)(data)


def flip_length(data, start):
    return flip(start)(data)


def cut_before_end(data, start):
    return data[:start + _INDEX_CHUNK_HEADER.size + 1]


# Damage that a load of length 2 alone must notice: it falls back to the CSV.
# The totals chunk is the last, so any change at the end of the file is seen.
SEEN_BY_A_BIGRAM_LOAD = {
    "flipped-entries": sealed(flip(ENTRIES_AT)),
    "totals-chunk-payload": in_chunk(TOTALS_CHUNK, flip_payload),
    "totals-chunk-length": in_chunk(TOTALS_CHUNK, flip_length),
    "totals-offset": sealed(flip(TOTALS_AT)),
    "loaded-section-payload": in_chunk(keyed_chunk(2), flip_payload),
    "loaded-section-cut-short": in_chunk(keyed_chunk(2), cut_before_end),
    "loaded-directory-length": in_chunk(directory_chunk(2), flip_length),
    "loaded-section-offset": sealed(flip(keyed_field(2))),
    "loaded-chunk-out-of-place": with_chunk(directory_chunk(2), moved_chunk),
    "loaded-cell-size-moved": with_totals_chunk(moved_size(1, 0)),
    "truncated-payload": lambda data: data[:-1],
    "appended": lambda data: data + b"\0",
}

# Damage only in sections a load of length 2 does not read.
UNSEEN_BY_A_BIGRAM_LOAD = {
    "skipped-section-payload": in_chunk(keyed_chunk(1), flip_payload),
    "skipped-section-offset": sealed(flip(keyed_field(1))),
    "skipped-section-length": in_chunk(keyed_chunk(1), flip_length),
    "later-section-payload": in_chunk(keyed_chunk(3), flip_payload),
    "later-section-length": in_chunk(keyed_chunk(4), flip_length),
    "later-directory-length": in_chunk(directory_chunk(3), flip_length),
    "ranked-section-payload": in_chunk(ranked_chunk(2), flip_payload),
    "unloaded-cell-size-moved": with_totals_chunk(moved_size(0, 3)),
    "junk-after-header": junk_after_header,
}


def test_sectioned_table_has_one_chunk_per_section(tmp_path):
    path = tmp_path / "records.csv"
    write_indexed(path, SECTIONED)
    data = index_of(path).read_bytes()
    starts = chunk_starts(data)
    assert len(starts) == 4 * 3 + 1
    assert index_chunk(data, TOTALS_CHUNK) == (build_table(SECTIONED).totals, (3, 3, 3, 3))
    assert header_offsets(data) == (starts[TOTALS_CHUNK],
                                    tuple(starts[directory_chunk(n)] for n in range(1, 5)),
                                    tuple(starts[ranked_chunk(n)] for n in range(1, 5)))
    for n in range(1, 5):
        ngram = " ".join(f"w{i}" for i in range(n))
        assert index_chunk(data, directory_chunk(n)) == (
            (ngram,), struct.pack("<Q", starts[keyed_chunk(n)]))
        assert keyed_in_order(index_chunk(data, keyed_chunk(n))) == [
            (2000 + year, [(ngram, n + year)]) for year in range(3)]
        assert in_order(index_chunk(data, ranked_chunk(n))) == in_order(
            ((ngram,), (3 * n + 3,), {2000 + year: (b"\0", (n + year,)) for year in range(3)}, 0))


def recording_reads(read):
    """A `_read_chunk` that appends to `read` the offset of each chunk it reads."""
    read_chunk = trendgram.table._read_chunk

    def recording(fh, end):
        read.append(fh.tell())
        return read_chunk(fh, end)
    return recording


def test_a_unigram_top_reads_no_chunk_past_length_1(tmp_path, capsys):
    path = tmp_path / "records.csv"
    write_indexed(path, SECTIONED)
    read = []
    data = index_of(path).read_bytes()
    starts = chunk_starts(data)
    # every chunk but the unigram ranked one and the totals damaged, which a
    # load must not notice
    for chunk in set(range(TOTALS_CHUNK)) - {ranked_chunk(1)}:
        data = flip_payload(data, starts[chunk])
    index_of(path).write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_whole, "_parse_records", None)
        patch.setattr(trendgram.table, "_read_chunk", recording_reads(read))
        assert run(["top", "-i", str(path), "-n", "1"]) == 0
    assert read == [starts[TOTALS_CHUNK], starts[ranked_chunk(1)]]
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
    # Several lengths: the head of their combined ranking, and the chunks
    # read, in order, as (n, i), the i-th chunk of length n's ranked
    # section. MANY's unigram totals run from 10,000 down to 1, one each;
    # its bigrams have totals 2 and 1. The run of total 2 starts "w0 y",
    # "w1", "w1 y", "w10 y", and that of total 1 "w0", "w0 x".
    ({1, 2}, Prefix(first=257), [(1, 0), (2, 0), (1, 1)], {1: (257, 9743), 2: (0, 2)}),
    ({1, 2, 3, 4}, Prefix(first=1), [(1, 0), (2, 0), (3, 0), (4, 0)],
     {1: (1, 9999), 2: (0, 2)}),
    # the head ends at "w1", and the bigrams hold "w1 y" too
    ({1, 2}, Prefix(first=10_000), [(1, 0), (2, 0), *((1, i) for i in range(1, 40))],
     {1: (9999, 1), 2: (2, 2)}),
    # it ends at the last n-gram of the first bigram chunk, then past it
    ({1, 2}, Prefix(first=10_255), [(1, 0), (2, 0), *((1, i) for i in range(1, 40))],
     {1: (9999, 1), 2: (256, 2)}),
    ({1, 2}, Prefix(first=10_256), [(1, 0), (2, 0), *((1, i) for i in range(1, 40)), (2, 1)],
     {1: (9999, 1), 2: (257, 2)}),
    # it ends at "w0", and the bigrams hold "w0 x" too
    ({1, 2}, Prefix(first=14_097),
     [(1, 0), (2, 0), *((1, i) for i in range(1, 40)), *((2, i) for i in range(1, 17))],
     {2: (4098, 1)}),
    ({1, 2}, Prefix(min_total=2),
     [(1, 0), (2, 0), *((1, i) for i in range(1, 40)), *((2, i) for i in range(1, 17))],
     {1: (9999, 1), 2: (4097, 1)}),
])
def test_a_prefix_reads_only_the_ranked_chunks_that_hold_it(tmp_path, lengths, prefix, chunks,
                                                            cut):
    path = tmp_path / "records.csv"
    write_indexed(path, MANY)
    data = index_of(path).read_bytes()
    starts = chunk_starts(data)
    ranked = [starts.index(at) for at in ranked_offsets(data)]
    if isinstance(chunks, int):  # one length: its first chunks
        chunks = [(min(lengths), i) for i in range(chunks)]
        cut = {} if cut is None else {min(lengths): cut}
    read = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trendgram.table, "_read_chunk", recording_reads(read))
        table = table_from_index(path, lengths, prefix)
    assert read == [starts[-1], *(starts[ranked[n - 1] + i] for n, i in chunks)]
    assert table.cuts == cut


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
    """The index version 3 wrote for the records file at `path`: a header
    without section offsets; a chunk with the totals and the layout;
    then each (n, year)'s `{ngram: count}` dict, in chunks of 4096
    entries, and no ranked sections."""
    return cells_index(path, 3)


def version_4_index(path):
    """The index version 4 wrote for the records file at `path`: version
    3's chunks, then each length's ranked section (see `ranked_section`),
    whose offsets the header gives."""
    return cells_index(path, 4)


def cells_index(path, version):
    """The index of `version` 3 or 4 for the records file at `path`."""
    counts = dict(read_stream(path))
    cells = {}
    for (n, ngram, year), count in counts.items():
        cells.setdefault((n, year), {})[ngram] = count
    data = path.read_bytes()
    magic = f"trendgram records index {version}\n".encode()
    layout = tuple((n, year, len(cells[n, year])) for n, year in sorted(cells))
    totals = {key: sum(cell.values()) for key, cell in cells.items()}  # in the file's order
    chunks = [(totals, layout)]
    for n, year, _ in layout:
        items = list(cells[n, year].items())
        chunks += [dict(items[at:at + 4096]) for at in range(0, len(items), 4096)]
    header = struct.pack(f"<{len(magic)}sIQQ", magic, zlib.crc32(data), len(data),
                         sum(size for _, _, size in layout))
    out = b"".join(map(framed, chunks))
    if version == 3:
        return header + out
    offsets = []
    for n in range(1, 5):
        offsets.append(len(header) + 32 + len(out))
        out += b"".join(map(framed, ranked_section(counts, n)))
    return header + struct.pack("<4Q", *offsets) + out


def read_index_of(path, lengths, prefix=None, ngrams=None):
    """`_read_index` of the index of the records file at `path`."""
    return _read_index(f"{path}.idx", _stamp(path), partial(_fingerprint, path), lengths, prefix,
                       ngrams)


def framed(chunk):
    """`chunk` as an index chunk: its length, crc32 and `marshal` payload."""
    payload = marshal.dumps(chunk, 2)
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


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
    assert index_of(old / "records.csv").read_bytes().startswith(_INDEX_MAGIC)
    assert read_counting_parses(old / "records.csv")[1] == 0
    assert command_outputs(old / "records.csv", old / "out") == command_outputs(
        fresh / "records.csv", fresh / "out")
    assert (unstamped(index_of(old / "records.csv").read_bytes())
            == unstamped(index_of(fresh / "records.csv").read_bytes()))


def test_version_3_index_is_ignored_and_rewritten_once(stoplist, tmp_path):
    table = count_ngrams(random_sentences(random.Random(29), 300), stoplist)
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    for where in (fresh, old):
        where.mkdir()
        write_records(table, where / "records.csv")
    index_of(old / "records.csv").write_bytes(version_3_index(old / "records.csv"))
    assert read_index_of(old / "records.csv", frozenset({2})) is None
    assert read_counting_parses(old / "records.csv", {2})[1] == 1
    assert index_of(old / "records.csv").read_bytes().startswith(_INDEX_MAGIC)
    assert read_counting_parses(old / "records.csv")[1] == 0
    assert command_outputs(old / "records.csv", old / "out") == command_outputs(
        fresh / "records.csv", fresh / "out")
    assert (unstamped(index_of(old / "records.csv").read_bytes())
            == unstamped(index_of(fresh / "records.csv").read_bytes()))


def test_version_4_index_is_ignored_and_rewritten_once(stoplist, tmp_path):
    table = count_ngrams(random_sentences(random.Random(37), 300), stoplist)
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    for where in (fresh, old):
        where.mkdir()
        write_records(table, where / "records.csv")
    index_of(old / "records.csv").write_bytes(version_4_index(old / "records.csv"))
    for lengths, prefix, asked in (({2}, None, None), ({2}, Prefix(first=5), None),
                                   (None, None, ["code"])):
        assert read_index_of(old / "records.csv", frozenset(lengths or {1}), prefix,
                             asked) is None
    assert read_counting_parses(old / "records.csv", {2})[1] == 1
    assert index_of(old / "records.csv").read_bytes().startswith(_INDEX_MAGIC)
    assert read_counting_parses(old / "records.csv")[1] == 0
    assert command_outputs(old / "records.csv", old / "out") == command_outputs(
        fresh / "records.csv", fresh / "out")
    assert (unstamped(index_of(old / "records.csv").read_bytes())
            == unstamped(index_of(fresh / "records.csv").read_bytes()))


def version_5_index(path):
    """The index version 5 wrote for the records file at `path`: the
    current version's chunks after a header without the records file's
    inode, mtime and ctime or a crc32 of its own, so that every offset is
    that much less."""
    read_records(path)  # writes the current index
    data = index_of(path).read_bytes()
    magic = b"trendgram records index 5\n"
    header = struct.Struct(f"<{len(magic)}sIQQQ8Q")  # crc32, size, entries, then the offsets
    shift = HEADER_SIZE - header.size
    for at in header_offsets(data)[1]:
        data = with_chunk(chunk_starts(data).index(at), moved_chunks(-shift))(data)
    fields = _INDEX_HEADER.unpack_from(data)
    return header.pack(magic, *fields[1:3], fields[6],
                       *(at - shift for at in fields[7:-1])) + data[HEADER_SIZE:]


def test_version_5_index_is_ignored_and_rewritten_once(stoplist, tmp_path):
    table = count_ngrams(random_sentences(random.Random(41), 300), stoplist)
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    for where in (fresh, old):
        where.mkdir()
        write_records(table, where / "records.csv")
    index_of(old / "records.csv").write_bytes(version_5_index(old / "records.csv"))
    for lengths, prefix, asked in (({2}, None, None), ({2}, Prefix(first=5), None),
                                   (None, None, ["code"])):
        assert read_index_of(old / "records.csv", frozenset(lengths or {1}), prefix,
                             asked) is None
    assert read_counting_parses(old / "records.csv", {2})[1] == 1
    assert index_of(old / "records.csv").read_bytes().startswith(_INDEX_MAGIC)
    assert read_counting_parses(old / "records.csv")[1] == 0
    assert command_outputs(old / "records.csv", old / "out") == command_outputs(
        fresh / "records.csv", fresh / "out")
    assert (unstamped(index_of(old / "records.csv").read_bytes())
            == unstamped(index_of(fresh / "records.csv").read_bytes()))


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
    assert index_of(path).read_bytes().startswith(_INDEX_MAGIC)
    assert _INDEX_MAGIC != magic
    assert read_from_index(path) == counts


# ---------------------------------------------------------------------------
# Prefix loads: read_table(path, lengths, prefix) and the ranked sections


# Damage that `top -n 2` must notice: it falls back to the CSV.
SEEN_BY_A_BIGRAM_TOP = {
    "ranked-section-payload": in_chunk(ranked_chunk(2), flip_payload),
    "ranked-section-length": in_chunk(ranked_chunk(2), flip_length),
    "ranked-section-cut-short": in_chunk(ranked_chunk(2), cut_before_end),
    "ranked-section-offset": sealed(flip(ranked_field(2))),
    "totals-chunk-payload": in_chunk(TOTALS_CHUNK, flip_payload),
    "truncated-payload": lambda data: data[:-1],
    "appended": lambda data: data + b"\0",
}

# Damage only in chunks `top -n 2` does not read.
UNSEEN_BY_A_BIGRAM_TOP = {
    "cell-payload": in_chunk(keyed_chunk(2), flip_payload),
    "cell-length": in_chunk(keyed_chunk(1), flip_length),
    "directory-payload": in_chunk(directory_chunk(2), flip_payload),
    "unigram-ranked-payload": in_chunk(ranked_chunk(1), flip_payload),
    "trigram-ranked-length": in_chunk(ranked_chunk(3), flip_length),
    "unigram-section-offset": sealed(flip(ranked_field(1))),
    "keyed-section-offset": sealed(flip(keyed_field(2))),
}


def top_counting_parses(path, capsys):
    """The output of `top -n 2` on `path` and the number of times it parsed the CSV."""
    parses = []
    parse = _whole._parse_records

    def counting(source):
        parses.append(source)
        return parse(source)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_whole, "_parse_records", counting)
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


# Damage to one ranked chunk of MANY, and the chunks, as (n, i), the i-th of
# length n's ranked section, that the 257 most frequent n-grams of every
# length reach: each length's first chunk and the second unigram chunk.
RANKED_DAMAGE = {"payload": flip_payload, "length": flip_length}
REACHED_BY_A_COMBINED_HEAD = [(1, 0), (1, 1), (2, 0), (3, 0), (4, 0)]
PAST_A_COMBINED_HEAD = [(1, 2), (1, 39), (2, 1)]


def damaged_many(path, n, i, damage):
    """Write MANY and its index at `path`, then `damage` the i-th chunk of
    length n's ranked section. Returns the index as it was written."""
    write_indexed(path, MANY)
    good = index_of(path).read_bytes()
    chunk = chunk_starts(good).index(ranked_offsets(good)[n - 1]) + i
    index_of(path).write_bytes(in_chunk(chunk, damage)(good))
    return good


@pytest.mark.parametrize("damage", RANKED_DAMAGE.values(), ids=RANKED_DAMAGE.keys())
@pytest.mark.parametrize("n, i", REACHED_BY_A_COMBINED_HEAD)
def test_damage_a_combined_head_reaches_falls_back_to_the_csv(tmp_path, n, i, damage):
    path = tmp_path / "records.csv"
    good = damaged_many(path, n, i, damage)
    table, parses = read_counting_parses(path, prefix=Prefix(first=257))
    assert parses == 1
    assert table.cuts == {1: (257, 9743), 2: (0, 2)}
    assert table == build_table({key: count for key, count in MANY.items()
                                 if key[0] == 1 and int(key[1][1:]) >= 10_000 - 257})
    assert index_of(path).read_bytes() == good


@pytest.mark.parametrize("damage", RANKED_DAMAGE.values(), ids=RANKED_DAMAGE.keys())
@pytest.mark.parametrize("n, i", PAST_A_COMBINED_HEAD)
def test_damage_past_a_combined_head_waits_for_a_read_of_it(tmp_path, n, i, damage):
    path = tmp_path / "records.csv"
    good = damaged_many(path, n, i, damage)
    damaged = index_of(path).read_bytes()
    table, parses = read_counting_parses(path, prefix=Prefix(first=257))
    assert parses == 0
    assert table.cuts == {1: (257, 9743), 2: (0, 2)}
    assert index_of(path).read_bytes() == damaged
    table, parses = read_counting_parses(path)
    assert parses == 1
    assert table == build_table(MANY)
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
    # A prefix over every length is the head of their combined ranking. A
    # catalog's page i does not depend on its limit, so each catalog of a
    # prefix table is compared with the pages of one catalog of the full table.
    out = tmp_path_factory.mktemp("catalog")
    most = len({ngram for _, ngram, _ in counts}) + 1
    index = build_catalog(full, most, out / "full")
    for k in range(1, most + 1):
        with io.StringIO(text) as stream:
            tables = (table_from_index(path, None, Prefix(first=k)),
                      read_table(stream, None, Prefix(first=k)))
        for table in tables:
            # the head, and of each other length at most its next n-gram
            assert len(set().union(*table.cells.values())) <= k + 4
            assert build_catalog(table, k, out / f"{k}") == index[:k]
            for _, _, page in index[:k]:
                assert (out / f"{k}" / page).read_bytes() == (out / "full" / page).read_bytes()
            if not table.cuts:
                assert table == full
                continue
            # every longer head the table proves is the full ranking's; the
            # first it cannot prove is refused
            limit = k + 1
            while refusal(table, limit) is None:
                assert _most_frequent(table.cells.values(), limit) == [
                    (ngram, total) for ngram, total, _ in index[:limit]]
                limit += 1
            assert "most frequent" in refusal(table, limit)
            with pytest.raises(ValueError, match="most frequent"):
                build_catalog(table, limit, out / "refused")
            assert not (out / "refused").exists()


def refusal(table, limit):
    """The message of the `ValueError` `table` raises when asked for the
    `limit` most frequent n-grams of every length, or None."""
    try:
        table.require(range(1, 5), Prefix(first=limit))
    except ValueError as exc:
        return str(exc)
    return None


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


# "a" has a total of 3, and the run of total 2 spans three lengths: "a a",
# "a a a", "b", "c c", "d". The head of three ends inside it, at "a a a".
TIED_ACROSS = {(1, "a", 2000): 2, (1, "a", 2001): 1, (1, "b", 2001): 2, (1, "d", 2000): 2,
               (2, "a a", 2000): 2, (2, "c c", 2001): 2, (3, "a a a", 2000): 1,
               (3, "a a a", 2001): 1}


def without(table, ngram, cut):
    """`table` without `ngram`, holding one n-gram fewer of its length, as
    `cut` says."""
    cells = {key: {other: count for other, count in cell.items() if other != ngram}
             for key, cell in table.cells.items()}
    return FrequencyTable({key: cell for key, cell in cells.items() if cell}, table.totals,
                          cuts={**table.cuts, **cut})


def test_a_head_that_ends_in_a_tie_across_lengths_holds_the_next_of_each(tmp_path):
    path = tmp_path / "records.csv"
    write_indexed(path, TIED_ACROSS)
    index = build_catalog(build_table(TIED_ACROSS), 5, tmp_path / "full")
    with io.StringIO(path.read_text(encoding="utf-8")) as stream:
        tables = (table_from_index(path, None, Prefix(first=3)),
                  read_table(stream, None, Prefix(first=3)))
    for table in tables:
        # the head, then "b" and "c c", which follow it at its last total; of
        # the unigrams "d" is left, and of the trigrams there is no other
        assert set().union(*table.cells.values()) == {"a", "a a", "a a a", "b", "c c"}
        assert table.cuts == {1: (2, 2)}
        assert build_catalog(table, 3, tmp_path / "head") == index[:3]
        assert build_catalog(table, 4, tmp_path / "head") == index[:4]
        with pytest.raises(ValueError, match="the 2 most frequent length-1 n-grams, and the "
                                             "next has a total of 2: too few for"):
            build_catalog(table, 5, tmp_path / "refused")
        # Without a length's next n-gram, one of that length the table did
        # not load could rank before "a a a": it is refused.
        for ngram, n in (("b", 1), ("c c", 2)):
            with pytest.raises(ValueError, match=f"the 1 most frequent length-{n} n-grams, and "
                                                 f"the next has a total of 2: too few for"):
                build_catalog(without(table, ngram, {n: (1, 2)}), 3, tmp_path / "refused")
    assert not (tmp_path / "refused").exists()


# ---------------------------------------------------------------------------
# Keyed loads: read_table(path, ngrams=...) and the keyed sections


def series_text(table, query):
    """The series CSV of `query` (text) over `table`'s years."""
    out = io.StringIO()
    write_series_csv(evaluate(table, parse_query(query), table.year_span()), out)
    return out.getvalue()


# Damage that a keyed load of SECTIONED's bigram must notice: it falls back
# to the CSV.
SEEN_BY_A_KEYED_LOAD = {
    "keyed-part-not-a-dict": with_chunk(keyed_chunk(2), part_not_a_dict),
    "keyed-payload": in_chunk(keyed_chunk(2), flip_payload),
    "keyed-chunk-out-of-place": with_chunk(directory_chunk(2), moved_chunk),
    "directory-payload": in_chunk(directory_chunk(2), flip_payload),
    "directory-not-a-directory": with_chunk(directory_chunk(2), lambda value: value[0]),
    "keyed-section-offset": sealed(flip(keyed_field(2))),
    "totals-chunk-payload": in_chunk(TOTALS_CHUNK, flip_payload),
    "appended": lambda data: data + b"\0",
}


@pytest.mark.parametrize("damage", SEEN_BY_A_KEYED_LOAD.values(), ids=SEEN_BY_A_KEYED_LOAD.keys())
def test_damage_a_keyed_load_reads_falls_back_to_the_csv(tmp_path, damage):
    path = tmp_path / "records.csv"
    write_indexed(path, SECTIONED)
    good = index_of(path).read_bytes()
    index_of(path).write_bytes(damage(good))
    table, parses = read_counting_parses(path, ngrams=["w0 w1", "w0 w2"])
    assert parses == 1
    assert table == build_table(restrict(SECTIONED, {2}))
    assert index_of(path).read_bytes() == good


def test_a_two_bigram_query_reads_only_their_chunks(tmp_path, capsys):
    path = tmp_path / "records.csv"
    write_indexed(path, MANY)
    query = "w0 x, w999 y"
    data = index_of(path).read_bytes()
    starts = chunk_starts(data)
    bigrams = starts.index(header_offsets(data)[1][1])  # the bigram directory
    names = sorted({ngram for n, ngram, _ in MANY if n == 2})
    held = [bigrams + 1 + names.index(ngram) // 256 for ngram in ("w0 x", "w999 y")]
    assert held[0] < held[1] < bigrams + 34
    # every other chunk damaged, which the query must not notice
    for chunk in set(range(len(starts) - 1)) - {bigrams, *held}:
        data = flip_payload(data, starts[chunk])
    index_of(path).write_bytes(data)
    read = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_whole, "_parse_records", None)
        patch.setattr(trendgram.table, "_read_chunk", recording_reads(read))
        assert run(["query", "-i", str(path), query]) == 0
    assert read == [starts[-1], starts[bigrams], starts[held[0]], starts[held[1]]]
    assert capsys.readouterr().out == series_text(build_table(MANY), query)


def test_demo_reads_nothing_of_lengths_3_and_4(golden_dir, tmp_path, capsys):
    path = tmp_path / "records.csv"
    path.write_bytes((golden_dir / "demo" / "records.csv").read_bytes())
    read_records(path)
    data = index_of(path).read_bytes()
    starts = chunk_starts(data)
    trigrams = starts.index(header_offsets(data)[1][2])
    unread = range(trigrams, len(starts) - 1)  # lengths 3 and 4, keyed and ranked
    assert len(unread) >= 4
    for chunk in unread:
        data = flip_payload(data, starts[chunk])
    index_of(path).write_bytes(data)
    read = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_whole, "_parse_records", None)
        patch.setattr(trendgram.table, "_read_chunk", recording_reads(read))
        assert run(["demo", "-i", str(path), "-o", str(tmp_path / "demo")]) == 0
    capsys.readouterr()
    assert read[0] == starts[-1] and all(at < starts[trigrams] for at in read[1:])
    for svg in sorted((golden_dir / "demo").glob("demo-*.svg")):
        assert (tmp_path / "demo" / svg.name).read_bytes() == svg.read_bytes()


@pytest.mark.parametrize("arguments, complaint", [
    ({"ngrams": []}, "must not be empty"),
    ({"ngrams": set()}, "must not be empty"),
    ({"ngrams": "code"}, "not the string 'code'"),
    ({"ngrams": [""]}, "'' is not 1 to 4 non-empty tokens"),
    ({"ngrams": ["code  tools"]}, "'code  tools' is not"),
    ({"ngrams": [" code"]}, "' code' is not"),
    ({"ngrams": ["code", "tools "]}, "'tools ' is not"),
    ({"ngrams": ["a b c d e"]}, "'a b c d e' is not"),
    ({"ngrams": [("code",)]}, r"\('code',\) is not"),
    ({"ngrams": [["code"]]}, r"\['code'\] is not"),
    ({"ngrams": [5]}, "5 is not"),
    ({"ngrams": ["code"], "prefix": Prefix(first=3)}, "a prefix or n-grams, not both"),
    ({"ngrams": ["code tools"], "lengths": [1]}, r"lengths \[1\] are not those of the n-grams"),
    ({"ngrams": ["code", "code tools"], "lengths": [2]}, r"\[2\] are not those"),
    ({"ngrams": ["code"], "lengths": [1, 2]}, r"\[1, 2\] are not those"),
], ids=lambda value: repr(value) if isinstance(value, dict) else None)
def test_read_table_checks_ngrams_before_opening_the_file(tmp_path, arguments, complaint):
    with pytest.raises(ValueError, match=complaint):
        read_table(tmp_path / "missing.csv", **arguments)


def test_read_table_takes_lengths_that_agree_with_the_ngrams(tmp_path):
    counts = {(1, "code", 2000): 3, (2, "code tools", 2001): 4, (3, "a b c", 2002): 1}
    path = tmp_path / "records.csv"
    write_indexed(path, counts)
    table = table_from_index(path, [2, 1], ngrams=["code tools", "code", "code"])
    assert table == build_table(restrict(counts, {1, 2}))
    assert table.lengths == {1, 2} and table.ngrams == {"code", "code tools"}


def keyed_chunk_edges(names, size):
    """The first and last n-gram of each chunk of `size` of `names`, sorted."""
    return ({names[at] for at in range(0, len(names), size)}
            | {names[min(at + size, len(names)) - 1] for at in range(0, len(names), size)})


def absent(n, token):
    return " ".join([token] * n)


# Keyed chunks of 3 n-grams, so that small tables span several of them.
SMALL_KEYED_CHUNK = 3


@settings(max_examples=40, deadline=None)
@given(counts=st.dictionaries(TIED_KEYS, st.integers(1, 3), min_size=1, max_size=40),
       data=st.data())
def test_keyed_tables_answer_as_the_full_table_or_refuse(tmp_path_factory, counts, data):
    path = tmp_path_factory.mktemp("keyed") / "records.csv"
    full = build_table(counts)
    span = full.year_span()
    names = {n: sorted({ngram for length, ngram, _ in counts if length == n}) for n in range(1, 5)}
    # each chunk's first and last n-gram, and absent ones: before the first
    # key ("0" sorts before every token), between keys ("b0") and after the
    # last ("z" sorts after "dé")
    candidates = {n: sorted(keyed_chunk_edges(names[n], SMALL_KEYED_CHUNK)
                            | {absent(n, token) for token in ("0", "b0", "z")})
                  for n in range(1, 5)}
    drawn = data.draw(st.integers(1, 4), label="length")
    asked_sets = [
        set().union(*candidates.values()),
        set(candidates[drawn]),
        data.draw(st.sets(st.sampled_from(sorted(set().union(*candidates.values()))),
                          min_size=1), label="asked"),
    ]
    out = tmp_path_factory.mktemp("catalog")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_whole, "_KEYED_CHUNK", SMALL_KEYED_CHUNK)
        write_indexed(path, counts)
        index = index_of(path).read_bytes()
        for n, at in enumerate(header_offsets(index)[1], 1):
            firsts = index_chunk(index, chunk_starts(index).index(at))[0]
            assert firsts == tuple(names[n][::SMALL_KEYED_CHUNK])
        for asked in asked_sets:
            lengths = {ngram.count(" ") + 1 for ngram in asked}
            expected = build_table({key: count for key, count in counts.items()
                                    if key[1] in asked and key[0] in lengths})
            phrases = [tuple(ngram.split(" ")) for ngram in sorted(asked)]
            query = Query([QuerySeries(" ".join(phrase), [phrase]) for phrase in phrases]
                          + [QuerySeries("all", phrases), QuerySeries("twice", phrases * 2)])
            index_of(path).unlink()
            parsed, parses = read_counting_parses(path, ngrams=asked)
            assert parses == 1
            with io.StringIO(path.read_text(encoding="utf-8")) as stream:
                tables = (table_from_index(path, None, ngrams=asked), parsed,
                          read_table(stream, ngrams=asked))
            for table in tables:
                assert table == expected and table.lengths == lengths and table.ngrams == asked
                assert table.totals == full.totals and table.years == full.years
                assert not table.cuts
                assert evaluate(table, query, span) == evaluate(full, query, span)
                for length in lengths:
                    unasked = [ngram for ngram in names[length] if ngram not in asked]
                    for ngram in [*unasked[:1], absent(length, "q0")]:
                        with pytest.raises(ValueError, match=f"{ngram!r} was not loaded"):
                            evaluate(table, single(ngram), span)
                    with pytest.raises(ValueError, match="holds no ranking"):
                        top_ngrams(table, length, 1)
                    with pytest.raises(ValueError, match="holds no ranking"):
                        rank_trends(table, length, "rising", 5, 1, 1)
                with pytest.raises(ValueError):
                    build_catalog(table, 1, out / "refused")
    assert not (out / "refused").exists()


# Every command shape the benchmark's explore and render workloads run,
# and some with more permissive thresholds.
COMMAND_SHAPES = (
    ["query", "static analysis, dynamic analysis"],
    ["query", "zzzz, nothing at all, static zzzz"],
    ["query", "case study, case study+case study, static analysis+static analysis"],
    ["query", "analysis+static analysis, case+case study+survey", "-o", "union.csv"],
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
    assert _most_frequent(cells, k) == expected


def test_top_ngrams_single_record():
    assert top_ngrams(build_table({(1, "x", 2000): 5}), 1, 3) == [("x", 5)]


def test_top_ngrams_rejects_bad_k():
    with pytest.raises(ValueError):
        top_ngrams(build_table({}), 1, 0)
