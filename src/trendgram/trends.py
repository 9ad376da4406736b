"""Trend ranking by fitted slope and the browsable plot catalog.

The trend statistic is the ordinary least-squares slope of an n-gram's
frequency against the year, fitted over the years that actually have
data for that length. Support thresholds (minimum total occurrences,
minimum years with data) keep noise out of the rankings: a handful of
articles in a single year can otherwise look like a steep trend.
"""

import os
from collections import namedtuple
from math import fsum

from . import _bind, _module_getattr
from ._limits import DEFAULT_MIN_SUPPORT, DEFAULT_MIN_YEARS, NGRAM_MAX
from .table import Prefix, _most_frequent, _ngram_totals

# A catalog page is opened for writing without truncating it, created
# with the mode `open(path, "wb")` gives a new file.
_PAGE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


# `build_catalog` binds here the names of the stages only it uses, so
# ranking trends loads neither. They resolve as `trendgram.trends.<name>`
# before any catalog is built: bench/tracing.py wraps `evaluate` and
# `render_plot` here, and a wrapper patched in is kept.
__getattr__ = _module_getattr(globals())


TrendEntry = namedtuple("TrendEntry", "ngram n slope total_count")
TrendEntry.__doc__ = "One ranked n-gram with its fitted slope and total count."


def _slope(years, values):
    """OLS slope of `values` against `years`, two or more distinct years
    in ascending order. Years are centered at their mean before fitting,
    which keeps the sums small; `math.fsum` rounds each sum correctly, so
    the slope is the same on every Python."""
    mean_year = fsum(years) / len(years)
    numerator = fsum((year - mean_year) * value for year, value in zip(years, values))
    denominator = fsum((year - mean_year) ** 2 for year in years)
    return numerator / denominator


def rank_trends(table, n, direction, k, min_support=DEFAULT_MIN_SUPPORT,
                min_years=DEFAULT_MIN_YEARS):
    """The k steepest rising or falling length-n n-grams.

    Candidates need `total_count >= min_support` and at least
    `min_years` years with length-n data. Sorting is by slope
    (descending for rising, ascending for falling); ties go to the
    higher total count, then lexicographic order. A table that holds
    only a head of the length's ranking must hold every candidate.
    """
    if direction not in ("rising", "falling"):
        raise ValueError(f"direction must be 'rising' or 'falling', got {direction!r}")
    if k < 1:
        raise ValueError("k must be at least 1")
    table.require((n,), Prefix(min_total=min_support))
    data_years = [year for year in table.years if table.has_data(n, year)]
    if len(data_years) < max(min_years, 2):
        return []

    cells = [table.cells.get((n, year), {}) for year in data_years]
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
    years. Returns the index as a list of (ngram, total, filename). The
    table must hold every length, and of a length it holds only a head
    of, the `limit` most frequent n-grams at least.
    """
    if limit < 1:
        raise ValueError("catalog limit must be at least 1")
    if not table.cells:
        raise ValueError("cannot build a catalog from an empty table")
    table.require(range(1, NGRAM_MAX + 1), Prefix(first=limit))
    year_range = year_range or table.year_span()
    _bind(globals(), "frequency", "plotting")

    ranked = _most_frequent(table.cells.values(), limit)

    from pathlib import Path  # here, so that ranking trends does not load it
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prefix = os.path.join(out_dir, "")
    index = []
    for page, (ngram, total) in enumerate(ranked, 1):
        phrase = tuple(ngram.split(" "))
        series = evaluate(table, Query([QuerySeries(ngram, [phrase])]), year_range)
        filename = f"{page:04d}.svg"
        _write_page(prefix + filename, render_plot(series, ngram).encode("utf-8"))
        index.append((ngram, total, filename))

    _write_page(prefix + "index.html", _index_html(index))
    return index


def _write_page(path, data):
    """Write `data` over the file at `path`, in place, through one file
    descriptor: no `Path` or file object per page.

    An existing page is overwritten from its start and then cut to
    `len(data)` if it was longer, never truncated to zero first: on ext4
    that would free its blocks and make `close` start writing the new
    page back to disk. A device or pipe, which has no size, is not cut.
    An `OSError` names the page."""
    fd = os.open(path, _PAGE_FLAGS, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, data[written:])
        if os.fstat(fd).st_size > written:
            os.ftruncate(fd, written)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)


def _index_html(index):
    """The index page as UTF-8 bytes, each row encoded into one buffer
    as it is formatted. Held whole as a string, then as its encoding,
    the page would be the largest thing a catalog allocates, and set
    the command's peak memory."""
    from .plotting import escape

    page = bytearray(b"<!DOCTYPE html>\n"
                     b'<html><head><meta charset="utf-8"><title>Trend catalog</title></head>\n'
                     b"<body>\n<h1>Trend catalog</h1>\n"
                     b"<table>\n<tr><th>ngram</th><th>total</th><th>plot</th></tr>\n")
    for ngram, total, filename in index:
        page += (f'<tr><td>{escape(ngram)}</td><td>{total}</td>'
                 f'<td><a href="{filename}">{filename}</a></td></tr>\n').encode("utf-8")
    if not index:
        page += b"\n"
    page += b"</table>\n</body></html>\n"
    return page
