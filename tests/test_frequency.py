from __future__ import annotations

import io
import json
import random

import pytest

from oracle import naive_freq, naive_freq_list, naive_ngram_counts
from support import random_sentences
from trendgram.errors import QueryError
from trendgram.frequency import (evaluate, freq, freq_list, parse_query,
                                 write_series_csv, write_series_json)
from trendgram.ngrams import build_table, count_ngrams, read_table, write_records


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
    expected = sum(freq(table, p, 2001) for p in phrases)
    assert freq_list(table, phrases, 2001) == expected
    assert freq_list(table, [("slice",)], 2001) == freq(table, ("slice",), 2001)


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


@pytest.mark.parametrize("bad, fragment", [
    ("", "empty query"),
    ("   ", "empty query"),
    ("x,,y", "empty series"),
    ("x++y", "empty phrase"),
    ("the", "no searchable tokens"),
    ("one two three four five", "longer than 4"),
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


def test_series_json_shape():
    table = table_of((1, "x", 2000, 1))
    buffer = io.StringIO()
    write_series_json(evaluate(table, parse_query("x, y"), (2000, 2000)), buffer)
    payload = json.loads(buffer.getvalue())
    assert [series["label"] for series in payload] == ["x", "y"]
    assert payload[0]["points"] == [{"year": 2000, "frequency": 1.0, "has_data": True}]
    assert payload[1]["points"][0]["has_data"] is True
    assert payload[1]["points"][0]["frequency"] == 0.0
