from __future__ import annotations

import errno
import os
import random
import stat

import pytest

from oracle import exact_ols_slope
from trendgram.cli import run
from trendgram.errors import SlopeError
from trendgram.frequency import FrequencySeries, Query, QuerySeries, SeriesPoint, evaluate
from trendgram.ngrams import build_table, read_table, write_records
from trendgram.plotting import render_plot
from trendgram.trends import build_catalog, rank_trends, trend_slope


def series_of(points, label="s"):
    return FrequencySeries(label, {year: SeriesPoint(value, True)
                                   for year, value in points.items()})


# ---------------------------------------------------------------------------
# Slope


def test_slope_of_constant_series_is_zero():
    assert trend_slope(series_of({2000: 0.1, 2001: 0.1, 2002: 0.1})) == 0.0


def test_slope_of_exact_line():
    slope = trend_slope(series_of({2000: 0.0, 2001: 0.1, 2002: 0.2}))
    assert slope == pytest.approx(0.1, abs=1e-15)


def test_slope_needs_two_data_points():
    with pytest.raises(SlopeError):
        trend_slope(series_of({2000: 0.5}))
    sparse = FrequencySeries("s", {
        2000: SeriesPoint(0.5, True),
        2001: SeriesPoint(0.0, False),
    })
    with pytest.raises(SlopeError):
        trend_slope(sparse)


def test_slope_ignores_no_data_points():
    gappy = FrequencySeries("s", {
        2000: SeriesPoint(0.0, True),
        2001: SeriesPoint(9.9, False),
        2002: SeriesPoint(0.2, True),
    })
    assert trend_slope(gappy) == pytest.approx(0.1, abs=1e-15)


def test_slope_matches_exact_rational_oracle():
    rng = random.Random(17)
    for _ in range(50):
        points = {2000 + i: rng.random() for i in range(rng.randint(2, 12))}
        got = trend_slope(series_of(points))
        want = float(exact_ols_slope(sorted(points.items())))
        assert got == pytest.approx(want, abs=1e-12)


def test_slope_invariance_under_shift_and_scale():
    rng = random.Random(19)
    points = {2000 + i: rng.random() for i in range(8)}
    base = trend_slope(series_of(points))
    shifted = trend_slope(series_of({y: v + 0.37 for y, v in points.items()}))
    scaled = trend_slope(series_of({y: v * 5.0 for y, v in points.items()}))
    assert abs(shifted - base) <= 1e-12
    assert abs(scaled - 5.0 * base) <= 1e-12


# ---------------------------------------------------------------------------
# Ranking


def planted_table():
    """Ten years; one growing bigram, one fading, two steady ones."""
    counts = {}
    for i in range(10):
        year = 2000 + i
        counts[(2, "feature location", year)] = 2 ** i
        counts[(2, "program slicing", year)] = 2 ** (9 - i)
        counts[(2, "source code", year)] = 50
        counts[(2, "case study", year)] = 40
    return build_table(counts)


def test_rank_trends_finds_planted_trends():
    table = planted_table()
    rising = rank_trends(table, 2, "rising", 1)
    falling = rank_trends(table, 2, "falling", 1)
    assert rising[0].ngram == "feature location"
    assert falling[0].ngram == "program slicing"
    assert rising[0].slope > 0 > falling[0].slope
    assert rising[0].total_count == 1023


def test_rank_trends_short_growth_with_loose_thresholds():
    counts = {}
    for i, count in enumerate((1, 2, 4, 8)):
        year = 2004 + i
        counts[(2, "feature location", year)] = count
        counts[(2, "source code", year)] = 30
    table = build_table(counts)
    top = rank_trends(table, 2, "rising", 1, min_support=1, min_years=2)
    assert top[0].ngram == "feature location"


def test_rank_trends_slopes_match_oracle():
    table = planted_table()
    for entry in rank_trends(table, 2, "rising", 10, min_support=1):
        points = [(year, table.counts.get((2, entry.ngram, year), 0) / table.totals[(2, year)])
                  for year in table.years]
        assert entry.slope == pytest.approx(float(exact_ols_slope(points)), abs=1e-12)


def test_rank_trends_tie_breaks_on_count_then_name():
    counts = {}
    for year in (2000, 2001):
        counts[(1, "aa", year)] = 10
        counts[(1, "bb", year)] = 10
        counts[(1, "cc", year)] = 20
    table = build_table(counts)
    ranked = rank_trends(table, 1, "rising", 3, min_support=1, min_years=2)
    assert [entry.ngram for entry in ranked] == ["cc", "aa", "bb"]
    assert all(entry.slope == 0.0 for entry in ranked)


def test_rank_trends_refuses_a_length_the_table_did_not_load(tmp_path):
    path = tmp_path / "records.csv"
    write_records(build_table({(1, "aa", 2000): 5, (2, "aa bb", 2000): 5}), path)
    table = read_table(path, [1])
    assert rank_trends(table, 1, "rising", 3, min_support=1, min_years=2) == []
    with pytest.raises(ValueError, match="length 2 was not loaded; the table holds 1"):
        rank_trends(table, 2, "rising", 3, min_support=1, min_years=2)


def test_rank_trends_prefix_containment():
    table = planted_table()
    shorter = rank_trends(table, 2, "rising", 2, min_support=1)
    longer = rank_trends(table, 2, "rising", 3, min_support=1)
    assert longer[:2] == shorter


def test_rank_trends_rising_reversed_equals_falling():
    table = planted_table()
    rising = rank_trends(table, 2, "rising", 10, min_support=1)
    falling = rank_trends(table, 2, "falling", 10, min_support=1)
    assert [e.ngram for e in reversed(rising)] == [e.ngram for e in falling]


def test_rank_trends_min_support_filters():
    table = planted_table()
    ranked = rank_trends(table, 2, "rising", 10, min_support=600)
    assert [entry.ngram for entry in ranked] == ["feature location", "program slicing"]


def test_rank_trends_too_few_years_is_empty():
    table = build_table({(1, "x", 2000): 100, (1, "x", 2001): 100})
    assert rank_trends(table, 1, "rising", 5) == []


def test_rank_trends_rejects_bad_arguments():
    table = planted_table()
    with pytest.raises(ValueError):
        rank_trends(table, 2, "sideways", 1)
    with pytest.raises(ValueError):
        rank_trends(table, 2, "rising", 0)


# ---------------------------------------------------------------------------
# Catalog


def catalog_table():
    counts = {}
    for year in (2000, 2001, 2002):
        for index in range(10):
            counts[(1, f"word{index:02d}", year)] = index + 1
    return build_table(counts)


def test_build_catalog_single_ngram(tmp_path):
    table = build_table({(1, "only", 2000): 3, (1, "only", 2001): 4})
    index = build_catalog(table, 1, tmp_path)
    assert index == [("only", 7, "0001.svg")]
    assert (tmp_path / "0001.svg").exists()
    assert (tmp_path / "index.html").exists()


def test_build_catalog_limit_clamps(tmp_path):
    index = build_catalog(catalog_table(), 999, tmp_path)
    assert len(index) == 10


def test_build_catalog_picks_highest_totals(tmp_path):
    index = build_catalog(catalog_table(), 3, tmp_path)
    assert [item[0] for item in index] == ["word09", "word08", "word07"]
    assert [item[1] for item in index] == [30, 27, 24]


def test_build_catalog_index_html_lists_all(tmp_path):
    index = build_catalog(catalog_table(), 4, tmp_path)
    html_text = (tmp_path / "index.html").read_text()
    for ngram, total, filename in index:
        assert ngram in html_text
        assert f">{total}<" in html_text
        assert f'href="{filename}"' in html_text


def test_build_catalog_index_html_escapes_ngrams(tmp_path):
    build_catalog(build_table({(1, "o'brien", 2000): 2, (1, "o'brien", 2001): 1}), 1, tmp_path)
    html_text = (tmp_path / "index.html").read_text()
    assert "<td>o&#x27;brien</td>" in html_text
    assert "o'brien" not in html_text


def test_build_catalog_deterministic(tmp_path):
    table = catalog_table()
    build_catalog(table, 2, tmp_path / "one")
    build_catalog(table, 2, tmp_path / "two")
    for name in ("0001.svg", "0002.svg", "index.html"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_build_catalog_pages_are_the_rendered_plots(tmp_path):
    table = build_table({(1, "café", 2000): 5, (1, "café", 2002): 1, (2, "naïve code", 2001): 2})
    (tmp_path / "0001.svg").write_text("x" * 100_000)  # an older, longer page
    index = build_catalog(table, 2, tmp_path)
    assert [item[0] for item in index] == ["café", "naïve code"]
    for ngram, _, filename in index:
        series = evaluate(table, Query([QuerySeries(ngram, [tuple(ngram.split(" "))])]),
                          (2000, 2002))
        assert (tmp_path / filename).read_bytes() == render_plot(series, ngram).encode("utf-8")


def test_build_catalog_pages_get_the_mode_open_gives(tmp_path):
    old_umask = os.umask(0o027)
    try:
        build_catalog(catalog_table(), 1, tmp_path / "catalog")
        with open(tmp_path / "opened", "wb"):
            pass
    finally:
        os.umask(old_umask)
    mode = stat.S_IMODE((tmp_path / "catalog" / "0001.svg").stat().st_mode)
    assert mode == 0o666 & ~0o027
    assert mode == stat.S_IMODE((tmp_path / "opened").stat().st_mode)


def test_build_catalog_finishes_short_writes(tmp_path, monkeypatch):
    real_write = os.write
    calls = []

    def short_write(fd, data):
        calls.append(len(data))
        return real_write(fd, data[:1000])

    monkeypatch.setattr(os, "write", short_write)
    table = catalog_table()
    index = build_catalog(table, 3, tmp_path)
    monkeypatch.undo()
    assert max(calls) > 1000  # a page needed more than one write
    for ngram, _, filename in index:
        series = evaluate(table, Query([QuerySeries(ngram, [(ngram,)])]), (2000, 2002))
        assert (tmp_path / filename).read_bytes() == render_plot(series, ngram).encode("utf-8")


def test_catalog_page_that_cannot_be_written_names_its_path(tmp_path, capsys):
    records, out = tmp_path / "records.csv", tmp_path / "catalog"
    write_records(catalog_table(), records)
    (out / "0002.svg").mkdir(parents=True)
    assert run(["catalog", "-i", str(records), "-o", str(out), "--limit", "3"]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{out / '0002.svg'}'\n")


@pytest.mark.parametrize("call, code", [("write", errno.ENOSPC), ("ftruncate", errno.EIO)])
def test_catalog_page_write_error_names_its_path(tmp_path, capsys, monkeypatch, call, code):
    records, out = tmp_path / "records.csv", tmp_path / "catalog"
    write_records(catalog_table(), records)
    out.mkdir()
    (out / "0001.svg").write_bytes(b"x" * 100_000)  # longer than the page, so it is cut

    def fail(*args):
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, call, fail)
    assert run(["catalog", "-i", str(records), "-o", str(out), "--limit", "3"]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno {code}] {os.strerror(code)}: '{out / '0001.svg'}'\n")


def test_build_catalog_keeps_an_existing_page_and_its_mode(tmp_path):
    page = tmp_path / "0001.svg"
    page.write_bytes(b"x" * 100_000)
    page.chmod(0o600)
    inode = page.stat().st_ino
    build_catalog(catalog_table(), 1, tmp_path)
    assert stat.S_IMODE(page.stat().st_mode) == 0o600
    assert page.stat().st_ino == inode
    assert page.read_bytes().startswith(b"<?xml") and page.read_bytes().endswith(b"</svg>\n")


def test_build_catalog_writes_through_a_page_symlink(tmp_path):
    target = tmp_path / "elsewhere.svg"
    target.write_bytes(b"x" * 100_000)
    out = tmp_path / "catalog"
    out.mkdir()
    (out / "0001.svg").symlink_to(target)
    build_catalog(catalog_table(), 1, tmp_path / "fresh")
    build_catalog(catalog_table(), 1, out)
    assert (out / "0001.svg").is_symlink()
    assert target.read_bytes() == (tmp_path / "fresh" / "0001.svg").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_build_catalog_writes_a_page_linked_to_a_device(tmp_path):
    (tmp_path / "0001.svg").symlink_to("/dev/null")  # has no size, so it is not cut
    build_catalog(catalog_table(), 2, tmp_path)
    assert (tmp_path / "0002.svg").read_bytes().endswith(b"</svg>\n")


def test_build_catalog_rejects_empty_table(tmp_path):
    with pytest.raises(ValueError):
        build_catalog(build_table({}), 1, tmp_path)
