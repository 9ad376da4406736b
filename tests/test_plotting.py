from __future__ import annotations

import html
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import naive_render_plot
from trendgram.frequency import FrequencySeries, SeriesPoint
from trendgram.plotting import _y_axis, escape, render_plot


def series_of(points, label="s", gaps=()):
    return FrequencySeries(label, {
        year: SeriesPoint(value, year not in gaps)
        for year, value in points.items()
    })


def two_series_fixture():
    rising = series_of({2000 + i: 0.01 * i for i in range(6)}, label="rising")
    bumpy = series_of({2000: 0.02, 2001: 0.05, 2002: 0.01, 2003: 0.0,
                       2004: 0.03, 2005: 0.02}, label="bumpy & odd")
    return [rising, bumpy]


def gapped_fixture():
    """Two series over 2000-2014 whose years skip most tick years
    (2002, 2004, 2006, 2008, 2012), one of them with a no-data year."""
    early = series_of({2000: 0.03, 2001: 0.04, 2005: 0.02, 2009: 0.05, 2014: 0.01},
                      label="early", gaps=(2005,))
    late = series_of({2001: 0.01, 2003: 0.06, 2010: 0.02, 2011: 0.03}, label="late")
    return [early, late]


def test_render_requires_a_series():
    with pytest.raises(ValueError):
        render_plot([], "empty")


def test_render_is_deterministic():
    first = render_plot(two_series_fixture(), "fixture")
    second = render_plot(two_series_fixture(), "fixture")
    assert first == second


def test_render_matches_golden(golden_dir):
    got = render_plot(two_series_fixture(), "two series fixture")
    assert got == (golden_dir / "two_series.svg").read_text()


def test_gapped_years_match_golden(golden_dir):
    got = render_plot(gapped_fixture(), "gapped years")
    assert got == (golden_dir / "gapped_years.svg").read_text()


def test_plots_over_other_years_leave_a_plot_unchanged(golden_dir):
    golden = (golden_dir / "gapped_years.svg").read_text()
    assert render_plot(gapped_fixture(), "gapped years") == golden
    other = render_plot([series_of({1990 + i: 0.1 * i for i in range(4)})], "other")
    assert ">1990</text>" in other and ">1993</text>" in other and ">2000</text>" not in other
    assert render_plot(gapped_fixture(), "gapped years") == golden


def test_plots_over_other_scales_leave_a_plot_unchanged():
    # Plots of one scale share their gridlines and y tick labels.
    first = [series_of({2000: 0.02, 2001: 0.05, 2002: 0.01})]
    before = render_plot(first, "first")
    render_plot([series_of({2000: 0.3, 2001: 0.1})], "higher")
    hits = _y_axis.cache_info().hits
    equal = render_plot([series_of({2003: 0.05, 2004: 0.0, 2005: 0.04})], "equal top")
    assert _y_axis.cache_info().hits == hits + 1
    render_plot([series_of({2000: 0.0}, gaps=(2000,))], "no data")
    again = render_plot(first, "first")
    _y_axis.cache_clear()
    assert before == again == render_plot(first, "first")

    def gridlines(svg):
        return [line for line in svg.splitlines() if 'stroke="#cccccc"' in line]

    assert gridlines(equal) == gridlines(before) != gridlines(render_plot(
        [series_of({2000: 0.3, 2001: 0.1})], "higher"))


def test_constant_series_draws_horizontal_line():
    svg = render_plot([series_of({2000: 0.2, 2001: 0.2, 2002: 0.2})], "flat")
    path = re.search(r'<path d="([^"]+)"', svg).group(1)
    ys = {chunk.split()[-1] for chunk in path.replace("M", "L").split("L") if chunk.strip()}
    assert len(ys) == 1


def test_all_no_data_renders_placard():
    empty = series_of({2000: 0.0, 2001: 0.0}, gaps=(2000, 2001))
    svg = render_plot([empty], "nothing")
    assert "no data" in svg
    assert "<path" not in svg


def test_no_data_point_breaks_the_line():
    broken = series_of({2000: 0.1, 2001: 0.1, 2002: 0.1, 2003: 0.1, 2004: 0.1},
                       gaps=(2002,))
    svg = render_plot([broken], "gap")
    assert svg.count("<path") == 2


def test_isolated_point_becomes_marker():
    lonely = series_of({2000: 0.1, 2001: 0.2, 2002: 0.3}, gaps=(2001,))
    svg = render_plot([lonely], "dots")
    assert svg.count("<circle") == 2
    assert "<path" not in svg


def test_series_get_distinct_stroke_patterns():
    series = [series_of({2000: 0.1, 2001: 0.2}, label=f"s{i}") for i in range(4)]
    svg = render_plot(series, "four")
    for pattern in ("8 4", "2 3", "8 3 2 3"):
        assert f'stroke-dasharray="{pattern}"' in svg


def test_canvas_and_title_and_legend():
    quoted = series_of({2000: 0.1, 2001: 0.2}, label="say \"hi\" & it's")
    svg = render_plot(two_series_fixture() + [quoted], "A & B <title> \"q\" 'r'")
    assert 'width="640" height="400"' in svg
    assert ">A &amp; B &lt;title&gt; \"q\" 'r'</text>" in svg
    assert "rising" in svg
    assert ">say \"hi\" &amp; it's</text>" in svg
    assert "bumpy &amp; odd" in svg


def test_single_year_series_renders():
    svg = render_plot([series_of({2005: 0.4})], "one year")
    assert "2005" in svg
    assert "<circle" in svg


def test_headroom_scales_axis():
    svg = render_plot([series_of({2000: 1.0, 2001: 0.5})], "head")
    # top gridline label reflects the nice step above max*1.1
    assert re.search(r">1</text>", svg)


@settings(deadline=None)
@given(st.text())
def test_escape_matches_html_escape(text):
    assert escape(text, quote=False) == html.escape(text, quote=False)
    assert escape(text) == html.escape(text)


_TEXT = st.text(alphabet=st.sampled_from("ab &<>\"'é"), max_size=12)
# A few fixed values, so that points repeat and zeros are common, beside
# arbitrary ones.
_VALUE = st.one_of(st.sampled_from((0.0, 0.0, 0.25, 1e-4, 0.3333333333333333)),
                   st.floats(min_value=1e-9, max_value=5.0))


@st.composite
def _plot_inputs(draw):
    """1-6 series over years drawn from 1995-2014, with gaps (no-data
    points), isolated points, and the all-no-data and all-zero cases.
    Past four series, stroke patterns wrap around and legend rows go on
    below the fourth."""
    shape = draw(st.sampled_from(("mixed", "no data", "all zero")))
    series_list = []
    for _ in range(draw(st.integers(1, 6))):
        years = draw(st.lists(st.integers(1995, 2014), min_size=1, max_size=12, unique=True))
        points = {}
        for year in years:
            if shape == "no data":
                points[year] = SeriesPoint(0.0, False)
            elif shape == "all zero":
                points[year] = SeriesPoint(0.0, True)
            else:
                points[year] = SeriesPoint(draw(_VALUE), draw(st.booleans()))
        series_list.append(FrequencySeries(draw(_TEXT), points))
    return series_list, draw(_TEXT)


@settings(max_examples=300, deadline=None)
@given(_plot_inputs())
def test_render_plot_matches_naive_oracle(inputs):
    series_list, title = inputs
    assert render_plot(series_list, title) == naive_render_plot(series_list, title)
