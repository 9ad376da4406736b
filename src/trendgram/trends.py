"""Trend ranking by fitted slope and the browsable plot catalog.

The trend statistic is the ordinary least-squares slope of an n-gram's
frequency against the year, fitted over the years that actually have
data for that length. Support thresholds (minimum total occurrences,
minimum years with data) keep noise out of the rankings: a handful of
articles in a single year can otherwise look like a steep trend.
"""

from __future__ import annotations

import heapq
from pathlib import Path
from typing import NamedTuple

from ._limits import DEFAULT_CATALOG_LIMIT, DEFAULT_MIN_SUPPORT, DEFAULT_MIN_YEARS
from .errors import SlopeError
from .frequency import Query, QuerySeries, evaluate
from .ngrams import _ngram_totals
from .plotting import escape, render_plot


class TrendEntry(NamedTuple):
    """One ranked n-gram with its fitted slope and total count."""

    ngram: str
    n: int
    slope: float
    total_count: int


def trend_slope(series):
    """OLS slope of frequency against year over the has-data points.

    Fewer than two data points raise `SlopeError`.
    """
    years = [year for year, point in sorted(series.points.items()) if point.has_data]
    if len(years) < 2:
        raise SlopeError(f"series {series.label!r} has {len(years)} data points; need at least 2")
    return _slope(years, [series.points[year].frequency for year in years])


def _slope(years, values):
    """OLS slope of `values` against `years`, two or more distinct years
    in ascending order. Years are centered at their mean before fitting,
    which keeps the sums small."""
    mean_year = sum(years) / len(years)
    numerator = sum((year - mean_year) * value for year, value in zip(years, values))
    denominator = sum((year - mean_year) ** 2 for year in years)
    return numerator / denominator


def rank_trends(table, n, direction, k, min_support=DEFAULT_MIN_SUPPORT,
                min_years=DEFAULT_MIN_YEARS):
    """The k steepest rising or falling length-n n-grams.

    Candidates need `total_count >= min_support` and at least
    `min_years` years with length-n data. Sorting is by slope
    (descending for rising, ascending for falling); ties go to the
    higher total count, then lexicographic order.
    """
    if direction not in ("rising", "falling"):
        raise ValueError(f"direction must be 'rising' or 'falling', got {direction!r}")
    if k < 1:
        raise ValueError("k must be at least 1")
    table.require((n,))
    data_years = [year for year in table.years if table.has_data(n, year)]
    if len(data_years) < max(min_years, 2):
        return []

    cells = [table.cells[n, year] for year in data_years]
    year_totals = [table.totals[(n, year)] for year in data_years]
    entries = []
    for ngram, total in _ngram_totals(cells).items():
        if total < min_support:
            continue
        values = [cell.get(ngram, 0) / year_total for cell, year_total in zip(cells, year_totals)]
        entries.append(TrendEntry(ngram, n, _slope(data_years, values), total))

    reverse = direction == "rising"
    entries.sort(key=lambda e: (-e.slope if reverse else e.slope, -e.total_count, e.ngram))
    return entries[:k]


def build_catalog(table, limit, out_dir, year_range=None):
    """Write one year-frequency SVG per top n-gram plus an HTML index.

    The `limit` most frequent n-grams across all lengths are selected by
    total count, ties broken lexicographically; pages are numbered in
    that order. Plots span `year_range`, by default the table's own
    years. Returns the index as a list of (ngram, total, filename).
    """
    if limit < 1:
        raise ValueError("catalog limit must be at least 1")
    if not table.cells:
        raise ValueError("cannot build a catalog from an empty table")
    year_range = year_range or table.year_span()

    totals = _ngram_totals(table.cells.values())
    ranked = heapq.nsmallest(limit, totals.items(), key=lambda item: (-item[1], item[0]))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    index = []
    for page, (ngram, total) in enumerate(ranked, 1):
        phrase = tuple(ngram.split(" "))
        series = evaluate(table, Query([QuerySeries(ngram, [phrase])]), year_range)
        filename = f"{page:04d}.svg"
        with open(out_dir / filename, "wb") as fh:
            fh.write(render_plot(series, ngram).encode("utf-8"))
        index.append((ngram, total, filename))

    (out_dir / "index.html").write_text(_index_html(index), encoding="utf-8")
    return index


def _index_html(index):
    rows = "\n".join(
        f'<tr><td>{escape(ngram)}</td><td>{total}</td>'
        f'<td><a href="{filename}">{filename}</a></td></tr>'
        for ngram, total, filename in index)
    return (
        "<!DOCTYPE html>\n"
        '<html><head><meta charset="utf-8"><title>Trend catalog</title></head>\n'
        "<body>\n<h1>Trend catalog</h1>\n"
        "<table>\n<tr><th>ngram</th><th>total</th><th>plot</th></tr>\n"
        f"{rows}\n</table>\n</body></html>\n"
    )
