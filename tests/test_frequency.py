from __future__ import annotations

import csv
import io
import json
import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import naive_freq, naive_freq_list, naive_ngram_counts, naive_series_text
from support import random_sentences
from trendgram.cli import run
from trendgram.errors import QueryError
from trendgram.frequency import (FrequencySeries, Query, QuerySeries, SeriesPoint, evaluate, freq,
                                 freq_list, parse_query, query_ngrams, write_series_csv,
                                 write_series_json)
from trendgram.ngrams import count_ngrams, write_records
from trendgram.table import Prefix, build_table, read_table


def table_of(*records):
    return build_table({(n, ngram, year): count for n, ngram, year, count in records})


# ---------------------------------------------------------------------------
# Table construction


def test_build_table_totals_per_length_and_year():
    table = table_of((1, "x", 2000, 2), (1, "y", 2000, 2))
    assert table.totals[(1, 2000)] == 4
    assert table.years == [2000]


def test_build_table_empty():
    table = build_table({})
    assert table.counts == {} and table.totals == {} and table.years == []
    assert table.year_span() is None


def test_build_table_mixed_lengths_keyed_separately():
    table = table_of((1, "x", 2000, 3), (2, "x y", 2000, 5), (2, "y z", 2001, 7))
    assert table.totals == {(1, 2000): 3, (2, 2000): 5, (2, 2001): 7}
    assert table.years == [2000, 2001]
    assert table.year_span() == (2000, 2001)


# ---------------------------------------------------------------------------
# Frequencies


def test_freq_absent_phrase_is_zero():
    table = table_of((2, "a b", 2005, 7))
    assert freq(table, ("c", "d"), 2005) == 0.0


def test_freq_self_normalizes_to_one():
    table = table_of((2, "a b", 2005, 7))
    assert freq(table, ("a", "b"), 2005) == 1.0


def test_freq_design_pattern_ratio():
    # 5 occurrences among 500 bigram occurrences -> 0.01
    table = table_of((2, "design pattern", 2001, 5), (2, "other stuff", 2001, 495))
    assert freq(table, ("design", "pattern"), 2001) == 0.01


def test_freq_dataless_year_is_zero_but_flagged():
    table = table_of((2, "a b", 2005, 7))
    assert freq(table, ("a", "b"), 2004) == 0.0
    assert not table.has_data(2, 2004)
    assert table.has_data(2, 2005)


def test_true_zero_differs_from_no_data():
    table = table_of((1, "x", 2005, 3))
    # "y" in 2005 is a real zero; unigrams in 2006 are no-data
    assert freq(table, ("y",), 2005) == 0.0 and table.has_data(1, 2005)
    assert freq(table, ("y",), 2006) == 0.0 and not table.has_data(1, 2006)


def test_freq_list_sums_members():
    table = table_of((1, "slice", 2001, 1), (1, "slices", 2001, 2),
                     (1, "slicing", 2001, 3), (1, "code", 2001, 4))
    phrases = [("slice",), ("slices",), ("slicing",)]
    expected = math.fsum(freq(table, p, 2001) for p in phrases)
    assert freq_list(table, phrases, 2001) == expected
    assert freq_list(table, [("slice",)], 2001) == freq(table, ("slice",), 2001)


def test_naive_freq_list_rounds_the_sum_once():
    # 1/10 + 2/10 + 3/10, added left to right, gives 0.6000000000000001
    counts = {(1, "slice", 2001): 1, (1, "slices", 2001): 2, (1, "slicing", 2001): 3,
              (1, "code", 2001): 4}
    phrases = [("slice",), ("slices",), ("slicing",)]
    assert naive_freq_list(counts, phrases, 2001) == 0.6
    assert freq_list(build_table(counts), phrases, 2001) == 0.6


def test_query_writes_a_correctly_rounded_union(tmp_path):
    # 1/10 + 2/10 + 3/10: 0.6 correctly rounded, where `sum` on Python
    # 3.10 and 3.11 gives 0.6000000000000001.
    records = tmp_path / "records.csv"
    write_records(table_of((1, "slice", 2001, 1), (1, "slices", 2001, 2),
                           (1, "slicing", 2001, 3), (1, "code", 2001, 4)), records)
    series = tmp_path / "x.json"
    assert run(["query", "-i", str(records), "slice+slices+slicing", "-o", str(series)]) == 0
    (payload,) = json.loads(series.read_text(encoding="utf-8"))
    assert payload["points"] == [{"year": 2001, "frequency": 0.6, "has_data": True}]


def test_freq_list_duplicate_phrase_double_counts():
    table = table_of((1, "x", 2000, 1), (1, "y", 2000, 1))
    assert freq_list(table, [("x",), ("x",)], 2000) == 2 * freq(table, ("x",), 2000)


def test_freq_agrees_with_naive_oracle(stoplist):
    rng = random.Random(23)
    sentences = random_sentences(rng, 40)
    counts = naive_ngram_counts(sentences, stoplist)
    table = count_ngrams(sentences, stoplist)
    probes = [("program",), ("of",), ("program", "comprehension"), ("no", "such", "gram")]
    for year in (2000, 2001, 2002, 2009):
        for phrase in probes:
            assert freq(table, phrase, year) == naive_freq(counts, phrase, year)
        assert freq_list(table, probes, year) == naive_freq_list(counts, probes, year)


def test_normalization_sums_to_one(stoplist):
    rng = random.Random(31)
    table = count_ngrams(random_sentences(rng, 120), stoplist)
    checked = 0
    for (n, year), total in table.totals.items():
        if total == 0:
            continue
        sigma = sum(freq(table, tuple(ngram.split(" ")), year)
                    for (record_n, ngram, record_year) in table.counts
                    if record_n == n and record_year == year)
        assert abs(sigma - 1.0) <= 1e-9
        checked += 1
    assert checked > 0


def test_monotone_scaling_leaves_frequencies_unchanged():
    counts = {(1, "x", 2000): 3, (1, "y", 2000): 11, (2, "x y", 2000): 2}
    for factor in (2, 7, 1000):
        scaled = {key: count * factor for key, count in counts.items()}
        base, big = build_table(counts), build_table(scaled)
        for phrase in (("x",), ("y",), ("x", "y"), ("z",)):
            assert freq(base, phrase, 2000) == freq(big, phrase, 2000)


# ---------------------------------------------------------------------------
# Query language


def test_parse_query_competing_series():
    query = parse_query("case study, experiment, review+survey")
    assert len(query.series) == 3
    assert query.series[0].label == "case study"
    assert query.series[0].phrases == [("case", "study")]
    assert query.series[1].phrases == [("experiment",)]
    assert query.series[2].label == "review+survey"
    assert query.series[2].phrases == [("review",), ("survey",)]


def test_parse_query_plus_union():
    query = parse_query("slice+slices+slicing")
    assert len(query.series) == 1
    assert query.series[0].phrases == [("slice",), ("slices",), ("slicing",)]


def test_parse_query_strips_articles():
    query = parse_query("the program")
    assert query.series[0].phrases == [("program",)]
    assert query.series[0].label == "the program"


def test_parse_query_uses_extraction_tokenization():
    query = parse_query("Open-Source Systems")
    assert query.series[0].phrases == [("open-source", "systems")]
    assert parse_query("Café Analysis").series[0].phrases == [("café", "analysis")]


@pytest.mark.parametrize("bad, fragment", [
    ("", "empty query"),
    ("   ", "empty query"),
    ("x,,y", "empty series"),
    ("x++y", "empty phrase"),
    ("the", "no searchable tokens"),
    ("one two three four five", "longer than 4"),
    # undecodable argument bytes arrive as lone surrogates
    ("program\udcff", "query is not UTF-8 text (byte 0xff)"),
    ("static analysis, caf\udce9", "query is not UTF-8 text (byte 0xe9)"),
    # lone surrogates no undecodable byte gives (outside U+DC80-U+DCFF)
    ("program\ud800", "query is not UTF-8 text (character U+D800)"),
    ("program\udc41", "query is not UTF-8 text (character U+DC41)"),
])
def test_parse_query_errors_name_offender(bad, fragment):
    with pytest.raises(QueryError) as err:
        parse_query(bad)
    assert fragment in str(err.value)


def test_parse_query_article_only_series_rejected():
    # "a,,b" fails on the article-only first series before the empty one
    with pytest.raises(QueryError):
        parse_query("a,,b")


def test_parse_query_roundtrip():
    text = "case study, experiment, review+survey"
    query = parse_query(text)
    again = parse_query(", ".join(series.label for series in query.series))
    assert [s.phrases for s in again.series] == [s.phrases for s in query.series]


# ---------------------------------------------------------------------------
# Evaluation


def test_evaluate_empty_table_yields_no_data_points():
    series = evaluate(build_table({}), parse_query("x"), (2000, 2002))
    assert len(series) == 1
    assert sorted(series[0].points) == [2000, 2001, 2002]
    for point in series[0].points.values():
        assert point.frequency == 0.0
        assert not point.has_data


def test_evaluate_single_year_range():
    table = table_of((1, "x", 2005, 2))
    series = evaluate(table, parse_query("x"), (2005, 2005))
    assert list(series[0].points) == [2005]
    assert series[0].points[2005].frequency == 1.0


def test_evaluate_rejects_empty_range():
    with pytest.raises(ValueError):
        evaluate(build_table({}), parse_query("x"), (2005, 2004))


def test_evaluate_refuses_a_length_the_table_did_not_load(tmp_path):
    path = tmp_path / "records.csv"
    write_records(table_of((1, "x", 2000, 1), (2, "x y", 2000, 3)), path)
    table = read_table(path, [1])
    assert evaluate(table, parse_query("x"), (2000, 2000))[0].points[2000].frequency == 1.0
    with pytest.raises(ValueError, match="length 2 was not loaded; the table holds 1"):
        evaluate(table, parse_query("x, x y"), (2000, 2000))


def test_evaluate_order_matches_query():
    table = table_of((1, "x", 2000, 1), (1, "y", 2000, 3))
    series = evaluate(table, parse_query("y, x"), (2000, 2000))
    assert [s.label for s in series] == ["y", "x"]
    assert series[0].points[2000].frequency == 0.75
    assert series[1].points[2000].frequency == 0.25


def test_evaluate_two_series_fixture_against_oracle(stoplist):
    rng = random.Random(47)
    sentences = random_sentences(rng, 50)
    counts = naive_ngram_counts(sentences, stoplist)
    table = count_ngrams(sentences, stoplist)
    series = evaluate(table, parse_query("program code, slice+trace"), (2000, 2002))
    for year in (2000, 2001, 2002):
        assert series[0].points[year].frequency == naive_freq(counts, ("program", "code"), year)
        assert series[1].points[year].frequency == naive_freq_list(
            counts, [("slice",), ("trace",)], year)


def test_query_algebra_union_equals_sum_of_parts():
    table = table_of((1, "p", 2000, 3), (1, "q", 2000, 5), (1, "r", 2000, 2),
                     (1, "p", 2001, 1), (1, "r", 2001, 9))
    union = evaluate(table, parse_query("p+q"), (2000, 2001))[0]
    p = evaluate(table, parse_query("p"), (2000, 2001))[0]
    q = evaluate(table, parse_query("q"), (2000, 2001))[0]
    for year in (2000, 2001):
        assert union.points[year].frequency == p.points[year].frequency + q.points[year].frequency


def test_mixed_length_union_normalizes_per_length():
    table = table_of((1, "slicing", 2000, 2), (1, "other", 2000, 2),
                     (2, "program slicing", 2000, 1), (2, "source code", 2000, 3))
    series = evaluate(table, parse_query("slicing+program slicing"), (2000, 2000))[0]
    assert series.points[2000].frequency == 2 / 4 + 1 / 4


PHRASES = st.lists(st.sampled_from(("code", "model", "test")), min_size=1, max_size=4).map(tuple)
COUNTS = st.dictionaries(
    st.tuples(PHRASES, st.integers(2000, 2004)).map(
        lambda key: (len(key[0]), " ".join(key[0]), key[1])),
    st.integers(1, 10**6), max_size=40)


@settings(max_examples=150, deadline=None)
@given(counts=COUNTS, series=st.lists(st.lists(PHRASES, min_size=1, max_size=4),
                                      min_size=1, max_size=3),
       lo=st.integers(1998, 2006), width=st.integers(0, 8), first=st.integers(1, 4))
@example(counts={(1, "code", 2000): 3, (1, "test", 2000): 1, (2, "code test", 2001): 5,
                 (2, "model test", 2001): 2, (3, "code test model", 2002): 7},
         series=[[("code",), ("code", "test"), ("code",)], [("test",), ("model", "test")]],
         lo=1999, width=4, first=1)
@example(counts={(1, "code", 2001): 3, (1, "test", 2001): 1, (1, "model", 2002): 4,
                 (1, "code", 2003): 2, (2, "code test", 2002): 5},
         series=[[("code",)]], lo=2000, width=4, first=1)
def test_evaluate_is_freq_list_and_has_data_per_year(tmp_path_factory, counts, series, lo,
                                                     width, first):
    # Mixed lengths, repeated phrases, years where one length has no
    # data, ranges past the table's years, full and partial tables: of
    # some lengths, of the head of each ranking, as `catalog` reads one,
    # and of the query's n-grams, as `query` and `demo` do. A partial
    # table's totals cover more than its cells; it is asked only what it
    # holds, and answers as the full table does.
    query = Query([QuerySeries(f"s{i}", phrases) for i, phrases in enumerate(series)])
    full = build_table(counts)
    path = tmp_path_factory.mktemp("evaluate") / "records.csv"
    write_records(full, path)
    lengths = {len(phrase) for qs in query.series for phrase in qs.phrases}
    head = read_table(path, prefix=Prefix(first=first))
    for table, asked in ((full, query), (read_table(path, lengths), query),
                         (read_table(path, ngrams=query_ngrams(query)), query),
                         (head, _held_only(head, query))):
        got = evaluate(table, asked, (lo, lo + width))
        assert [s.label for s in got] == [qs.label for qs in asked.series]
        for result, qs in zip(got, asked.series):
            assert result.points == {
                year: SeriesPoint(freq_list(full, qs.phrases, year),
                                  any(full.has_data(len(p), year) for p in qs.phrases))
                for year in range(lo, lo + width + 1)}
            assert all(type(point.frequency) is float for point in result.points.values())


def _held_only(table, query):
    """`query` less the phrases `table` cannot answer for, and less the
    series left with none."""
    def held(phrase):
        try:
            table.require((len(phrase),), ngrams=(" ".join(phrase),))
        except ValueError:
            return False
        return True

    kept = (QuerySeries(qs.label, [p for p in qs.phrases if held(p)]) for qs in query.series)
    return Query([qs for qs in kept if qs.phrases])


def test_evaluate_builds_each_lengths_view_once():
    table = table_of((1, "code", 2000, 3), (1, "test", 2001, 1), (2, "code test", 2001, 2),
                     (2, "test code", 2003, 4))
    query = parse_query("code, code test, test, tools+code")
    first = evaluate(table, query, (1999, 2004))
    views = dict(table._views)
    assert views.keys() == {1, 2}
    assert evaluate(table, query, (1999, 2004)) == first
    assert table._views.keys() == views.keys()
    assert all(table._views[n] is views[n] for n in views)


# ---------------------------------------------------------------------------
# Series output


def test_series_csv_format():
    table = table_of((1, "x", 2000, 1), (1, "y", 2000, 2))
    series = evaluate(table, parse_query("x"), (2000, 2001))
    buffer = io.StringIO()
    write_series_csv(series, buffer)
    assert buffer.getvalue() == (
        "label,year,frequency,has_data\n"
        "x,2000,0.3333333333,true\n"
        "x,2001,0,false\n"
    )


def test_series_csv_ten_significant_digits():
    table = table_of((1, "x", 2000, 1), (1, "y", 2000, 6))
    buffer = io.StringIO()
    write_series_csv(evaluate(table, parse_query("x"), (2000, 2000)), buffer)
    assert "0.1428571429" in buffer.getvalue()


# Python 3.10's csv module can neither write nor read a NUL, so no label holds one there.
_LABELS = st.text(st.sampled_from(',"\n\r\x00ab é漢') | st.characters(), max_size=8).filter(
    lambda label: "\x00" not in label or sys.version_info >= (3, 11))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(
    FrequencySeries,
    _LABELS,
    st.dictionaries(st.integers(1900, 2100),
                    st.builds(SeriesPoint, st.floats(0, 1), st.booleans()), max_size=3),
), max_size=4))
@example([FrequencySeries("source\rcode", {2000: SeriesPoint(0.5, True)}),
          FrequencySeries('a,"b"\nc', {2001: SeriesPoint(0.0, False)})])
def test_series_csv_labels_read_back_and_match_the_csv_module(series_list):
    buffer = io.StringIO()
    write_series_csv(series_list, buffer)
    rows = list(csv.reader(io.StringIO(buffer.getvalue(), newline="")))
    assert rows == [["label", "year", "frequency", "has_data"]] + [
        [series.label, str(year), format(point.frequency, ".10g"), str(point.has_data).lower()]
        for series in series_list for year, point in sorted(series.points.items())]
    plain = [series for series in series_list if "\r" not in series.label]
    buffer = io.StringIO()
    write_series_csv(plain, buffer)
    assert buffer.getvalue() == naive_series_text(plain)


def test_series_json_shape():
    table = table_of((1, "x", 2000, 1))
    buffer = io.StringIO()
    write_series_json(evaluate(table, parse_query("x, y"), (2000, 2000)), buffer)
    payload = json.loads(buffer.getvalue())
    assert [series["label"] for series in payload] == ["x", "y"]
    assert payload[0]["points"] == [{"year": 2000, "frequency": 1.0, "has_data": True}]
    assert payload[1]["points"][0]["has_data"] is True
    assert payload[1]["points"][0]["frequency"] == 0.0
