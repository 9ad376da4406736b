"""Deterministic SVG line plots of year-frequency series.

Output is a plain-text SVG built from the inputs alone: no timestamps,
no randomness, no font metrics. Identical input renders byte-identical
output, which makes golden-file tests and diffable artifacts possible.

Series are distinguished by stroke pattern (solid, dashed, dotted,
dash-dot), not color, so plots survive monochrome printing. Points
flagged as having no data break the line; an isolated data point is
drawn as a small circle so it stays visible.

The axes depend on little of a plot: the x axis only on its years, the
y gridlines and tick labels only on the top of its scale. Each is built
once per distinct value and shared by every plot with that value (see
`_x_axis` and `_y_axis`), so a catalog of thousands of pages over a few
hundred scales formats each scale's axis once.

The rest of a plot is laid out in one pass over each series' sorted
years, which writes each data point as its "x y" text and ends a run at
each no-data point (see `_data_runs`). The legend heads of the first
four series, one per stroke pattern, are formatted once, at import.
"""

import math
from functools import lru_cache
from types import MappingProxyType

WIDTH, HEIGHT = 640, 400
MARGIN_LEFT, MARGIN_RIGHT = 58, 14
MARGIN_TOP, MARGIN_BOTTOM = 34, 42

_PLOT_LEFT = MARGIN_LEFT
_PLOT_RIGHT = WIDTH - MARGIN_RIGHT
_PLOT_TOP = MARGIN_TOP
_PLOT_BOTTOM = HEIGHT - MARGIN_BOTTOM

# stroke-dasharray per series index: solid, dashed, dotted, dash-dot
STROKE_PATTERNS = ("", "8 4", "2 3", "8 3 2 3")
# the stroke-dasharray attribute of each pattern, none for solid
_DASHES = tuple(f' stroke-dasharray="{pattern}"' if pattern else "" for pattern in STROKE_PATTERNS)

_HEADROOM = 1.1

# Every plot starts with these lines, up to its escaped title.
_HEAD = "\n".join([
    '<?xml version="1.0" encoding="UTF-8"?>',
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
    f'viewBox="0 0 {WIDTH} {HEIGHT}">',
    f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    f'<text x="{WIDTH / 2:g}" y="20" font-family="sans-serif" font-size="14" '
    'text-anchor="middle">',
])


def _num(value):
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return "0" if text in ("", "-0") else text


def _nice_step(span):
    """Smallest 1/2/5 x 10^k step giving at most 5 intervals."""
    raw = span / 5
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for multiplier in (1, 2, 5, 10):
        step = multiplier * magnitude
        if step >= raw:
            return step
    return 10 * magnitude


def escape(text, quote=True):
    """`html.escape` without importing `html`, whose `html.entities`
    table costs every command its load: `&`, `<` and `>` become
    entities, and so do `"` and `'` when `quote` is true."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if quote:
        text = text.replace('"', "&quot;").replace("'", "&#x27;")
    return text


@lru_cache(maxsize=32)
def _x_axis(years):
    """For a sorted tuple of distinct years: a read-only map from each
    year to its formatted x, and the SVG lines of the x ticks and both
    axes. Every plot over the same years shares them. Ticks label at
    most eight years, which need not be years of the tuple."""
    def x_at(year):
        if len(years) < 2:
            return (_PLOT_LEFT + _PLOT_RIGHT) / 2
        frac = (year - years[0]) / (years[-1] - years[0])
        return _PLOT_LEFT + frac * (_PLOT_RIGHT - _PLOT_LEFT)

    parts = []
    if years:
        year_step = max(1, math.ceil((years[-1] - years[0]) / 7))
        year = years[0]
        while year <= years[-1]:
            x = _num(x_at(year))
            parts.append(
                f'<line x1="{x}" y1="{_PLOT_BOTTOM}" x2="{x}" '
                f'y2="{_PLOT_BOTTOM + 5}" stroke="black" stroke-width="1"/>')
            parts.append(
                f'<text x="{x}" y="{_PLOT_BOTTOM + 19}" font-family="sans-serif" '
                f'font-size="11" text-anchor="middle">{year}</text>')
            year += year_step
    parts.append(
        f'<line x1="{_PLOT_LEFT}" y1="{_PLOT_TOP}" x2="{_PLOT_LEFT}" '
        f'y2="{_PLOT_BOTTOM}" stroke="black" stroke-width="1"/>')
    parts.append(
        f'<line x1="{_PLOT_LEFT}" y1="{_PLOT_BOTTOM}" x2="{_PLOT_RIGHT}" '
        f'y2="{_PLOT_BOTTOM}" stroke="black" stroke-width="1"/>')
    return MappingProxyType({year: _num(x_at(year)) for year in years}), "\n".join(parts)


def _y_at(value, top):
    return _PLOT_BOTTOM - (value / top) * (_PLOT_BOTTOM - _PLOT_TOP)


@lru_cache(maxsize=256)
def _y_axis(top):
    """The SVG lines of the horizontal gridlines and y tick labels of a
    plot whose y axis runs from zero to `top`. Every plot of the same
    scale shares them."""
    step = _nice_step(top)
    parts = []
    tick = 0
    while tick * step <= top + 1e-12:
        value = tick * step
        y = _y_at(value, top)
        y_text = _num(y)
        parts.append(
            f'<line x1="{_PLOT_LEFT}" y1="{y_text}" x2="{_PLOT_RIGHT}" y2="{y_text}" '
            f'stroke="#cccccc" stroke-width="0.5"/>')
        parts.append(
            f'<text x="{_PLOT_LEFT - 6}" y="{_num(y + 3.5)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{value:g}</text>')
        tick += 1
    return "\n".join(parts)


def _legend_head(index):
    """The legend line of the series at `index`, top right, and the
    start of the text element of its label."""
    x, y = _PLOT_RIGHT - 196, _PLOT_TOP + 10 + 16 * index
    return (f'<line x1="{x}" y1="{y}" x2="{x + 26}" y2="{y}" stroke="black" '
            f'stroke-width="1.5"{_DASHES[index % len(_DASHES)]}/>\n'
            f'<text x="{x + 32}" y="{y + 4}" font-family="sans-serif" font-size="11">')


# the legend heads of the first series, one per stroke pattern
_LEGEND_HEADS = tuple(map(_legend_head, range(len(STROKE_PATTERNS))))


def render_plot(series_list, title):
    """Render FrequencySeries as a standalone 640x400 SVG string.

    The y axis runs from zero to the highest data point plus 10%
    headroom (unit scale when there is no data at all); the x axis
    covers the union of the series' years. When every point of every
    series is flagged no-data, the axes render with a "no data" placard
    instead of lines.

    Each distinct value's y is formatted once per plot, and each
    series' runs come from one pass over its sorted years. A legend
    entry is its head (see `_legend_head`), formatted at import for the
    first four series and per plot for the others, and its escaped
    label.
    """
    if not series_list:
        raise ValueError("render_plot needs at least one series")

    years = tuple(sorted({year for series in series_list for year in series.points}))
    x_of, x_axis = _x_axis(years)
    values = {point.frequency
              for series in series_list
              for point in series.points.values()
              if point.has_data}
    peak = max(values, default=0.0)
    top = peak * _HEADROOM if peak > 0 else 1.0

    parts = [f"{_HEAD}{escape(title, quote=False)}</text>", _y_axis(top), x_axis]

    if values:
        # each distinct value's formatted y, once per plot
        y_of = {value: _num(_y_at(value, top)) for value in values}
        for index, series in enumerate(series_list):
            dash = _DASHES[index % len(_DASHES)]
            for run in _data_runs(series.points, x_of, y_of):
                if len(run) == 1:
                    x, y = run[0].split(" ")
                    parts.append(f'<circle cx="{x}" cy="{y}" r="2.5" fill="black"/>')
                else:
                    parts.append(f'<path d="M {" L ".join(run)}" fill="none" '
                                 f'stroke="black" stroke-width="1.5"{dash}/>')
    else:
        parts.append(
            f'<text x="{(_PLOT_LEFT + _PLOT_RIGHT) / 2:g}" '
            f'y="{(_PLOT_TOP + _PLOT_BOTTOM) / 2:g}" font-family="sans-serif" '
            f'font-size="16" text-anchor="middle" fill="#888888">no data</text>')

    for index, series in enumerate(series_list):
        head = _LEGEND_HEADS[index] if index < len(_LEGEND_HEADS) else _legend_head(index)
        parts.append(f"{head}{escape(series.label, quote=False)}</text>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _data_runs(points, x_of, y_of):
    """The runs of consecutive has-data points of `points`, in one pass
    over its sorted years, as lists of formatted "x y" strings; a
    no-data point ends a run."""
    runs, run = [], []
    for year in sorted(points):
        point = points[year]
        if point.has_data:
            run.append(f"{x_of[year]} {y_of[point.frequency]}")
        elif run:
            runs.append(run)
            run = []
    if run:
        runs.append(run)
    return runs

