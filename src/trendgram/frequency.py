"""Per-year normalized frequencies and the trend-query language.

The frequency of an n-gram in a year is its count divided by the total
count of all n-grams of the same length in that year. A year with no
data for a length is distinguishable from a true zero: the point value
is 0.0 and its `has_data` flag is False.

Queries separate competing series with `,` and union closely related
phrases with `+`; the frequency of a union is the sum of its members'
frequencies. Phrases go through the same tokenization and article
removal as extraction did, so a query matches exactly what was stored.
"""

from __future__ import annotations

from collections import namedtuple

from ._io import open_for_write
from ._limits import NGRAM_MAX
from .errors import QueryError
from .textprep import remove_articles, tokenize

SERIES_HEADER = ("label", "year", "frequency", "has_data")


SeriesPoint = namedtuple("SeriesPoint", "frequency has_data")
# `phrases`: a list of token tuples, whose frequencies are summed.
QuerySeries = namedtuple("QuerySeries", "label phrases")
# `series`: a list of `QuerySeries`.
Query = namedtuple("Query", "series")
# `points`: a `SeriesPoint` per year.
FrequencySeries = namedtuple("FrequencySeries", "label points")


def freq(table, phrase, year):
    """Count of `phrase` in `year` over the total count of all n-grams
    of the same length that year; 0.0 when absent or when the year has
    no data for that length (see `FrequencyTable.has_data`)."""
    n = len(phrase)
    total = table.totals.get((n, year), 0)
    if total == 0:
        return 0.0
    return table.cells.get((n, year), {}).get(" ".join(phrase), 0) / total


def freq_list(table, phrases, year):
    """Sum of the members' frequencies; a phrase listed twice counts twice."""
    return sum(freq(table, phrase, year) for phrase in phrases)


def parse_query(text):
    """Parse `series, series, ...` where a series is `phrase+phrase+...`.

    Each phrase is tokenized and article-stripped with the extraction
    rules; the series label is the original comma-separated fragment,
    trimmed. Empty fragments and phrases longer than four tokens are
    errors, as is text that is not UTF-8: a lone surrogate, from an
    undecodable argv byte or not.
    """
    try:
        text.encode("utf-8", "surrogateescape").decode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate that stands for no byte
        raise QueryError(f"query is not UTF-8 text "
                         f"(character U+{ord(exc.object[exc.start]):04X})") from None
    except UnicodeDecodeError as exc:
        raise QueryError(f"query is not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from None
    if not text.strip():
        raise QueryError("empty query")
    series = []
    for fragment in text.split(","):
        label = fragment.strip()
        if not label:
            raise QueryError(f"empty series in query {text.strip()!r}")
        phrases = []
        for part in fragment.split("+"):
            part = part.strip()
            if not part:
                raise QueryError(f"empty phrase in series {label!r}")
            tokens = remove_articles(tokenize(part))
            if not tokens:
                raise QueryError(f"phrase {part!r} has no searchable tokens")
            if len(tokens) > NGRAM_MAX:
                raise QueryError(f"phrase {part!r} is longer than {NGRAM_MAX} tokens")
            phrases.append(tuple(tokens))
        series.append(QuerySeries(label, phrases))
    return Query(series)


def query_ngrams(query):
    """The set of the query's phrases as records hold them: each
    phrase's tokens joined by single spaces. `read_table(path,
    ngrams=query_ngrams(query))` loads only what `evaluate` needs."""
    return {" ".join(phrase) for qs in query.series for phrase in qs.phrases}


# The points of zero frequency, with and without data, shared by every
# series: they are most of a catalog's points.
_ZERO_POINTS = {True: SeriesPoint(0.0, True), False: SeriesPoint(0.0, False)}


def evaluate(table, query, year_range):
    """One FrequencySeries per query series over every year in the
    inclusive range, in query order. A table that did not load one of
    the phrases, or the length of one, raises `ValueError` (see
    `FrequencyTable.require`).

    A year's point is `freq_list` of the series' phrases, flagged as
    data when any phrase's length has data that year (`has_data`). A
    series of one phrase, such as every catalog page, inlines both in
    one comprehension over the years that looks up the phrase's count
    and its length's total per year, with no `sum`: the sum of one float
    is that float on every Python, 3.12's compensated `sum` included, so
    the values are `freq_list`'s.

    Points are equal to `SeriesPoint(value, has_data)`; zero points are
    shared objects, and which object a point is belongs to no API."""
    lo, hi = year_range
    if lo > hi:
        raise ValueError(f"empty year range {lo}..{hi}")
    phrases = [phrase for qs in query.series for phrase in qs.phrases]
    table.require({len(phrase) for phrase in phrases}, ngrams=map(" ".join, phrases))
    years = range(lo, hi + 1)
    cell_of, totals, no_counts = table.cells.get, table.totals, {}
    no_data, zero = _ZERO_POINTS[False], _ZERO_POINTS[True]
    result = []
    for qs in query.series:
        if len(qs.phrases) == 1:
            (phrase,) = qs.phrases
            n, ngram = len(phrase), " ".join(phrase)
            points = {year: (SeriesPoint(count / total, True)
                             if (count := cell_of((n, year), no_counts).get(ngram, 0)) else zero)
                      if (total := totals.get((n, year))) else no_data
                      for year in years}
        else:
            points = {}
            for year in years:
                value = freq_list(table, qs.phrases, year)
                data = any(table.has_data(len(phrase), year) for phrase in qs.phrases)
                points[year] = SeriesPoint(value, data) if value else _ZERO_POINTS[data]
        result.append(FrequencySeries(qs.label, points))
    return result


def write_series_csv(series_list, dest):
    """`label,year,frequency,has_data` rows, frequencies at 10
    significant digits."""
    import csv  # here, so that `catalog` and `demo`, which write no series file, do not load it

    with open_for_write(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SERIES_HEADER)
        for series in series_list:
            for year in sorted(series.points):
                point = series.points[year]
                writer.writerow([
                    series.label,
                    year,
                    format(point.frequency, ".10g"),
                    "true" if point.has_data else "false",
                ])


def write_series_json(series_list, dest):
    """Same content as the CSV form, as a JSON array of series."""
    import json  # here, so that no other command loads it

    payload = [
        {
            "label": series.label,
            "points": [
                {
                    "year": year,
                    "frequency": series.points[year].frequency,
                    "has_data": series.points[year].has_data,
                }
                for year in sorted(series.points)
            ],
        }
        for series in series_list
    ]
    with open_for_write(dest) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
