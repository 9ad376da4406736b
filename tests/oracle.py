"""Naive reference implementations used as independent oracles.

Everything here favors obviousness over speed: nested loops, no
indexing, exact rational arithmetic where it matters. Tests compare the
real implementations against these.
"""

from __future__ import annotations

import csv
import html
import io
import math
import re
from fractions import Fraction

from trendgram.frequency import SERIES_HEADER
from trendgram.ingest import (_AUTHOR_SEP_RE, _KEYWORD_SEP_RE, _SKIPPED_RECORD_TYPES,
                              CORPUS_HEADER, Diagnostic, Entry, _clean_value, _make_entry,
                              _resync, _split_on)
from trendgram.plotting import (HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP,
                                STROKE_PATTERNS, WIDTH)

_NEEDS_QUOTES = re.compile('[,"\n\r]')


def naive_ngram_counts(sentences, stopwords, n_min=1, n_max=4):
    """Count surviving n-gram occurrences with plain nested loops.

    Returns a dict keyed (n, ngram text, year). `stopwords` is any
    container supporting `in`.
    """
    counts = {}
    for sentence in sentences:
        tokens = sentence.tokens
        for n in range(n_min, n_max + 1):
            for start in range(0, len(tokens) - n + 1):
                window = tokens[start:start + n]
                stop = 0
                for token in window:
                    if token in stopwords:
                        stop += 1
                if Fraction(stop, n) >= Fraction(1, 2):
                    continue
                key = (n, " ".join(window), sentence.year)
                counts[key] = counts.get(key, 0) + 1
    return counts


def naive_records_text(counts):
    """The records CSV text of a `(n, ngram, year) -> count` dict: the
    header, then one row per key in `sorted` order. An n-gram cell in
    which a regex finds a comma, a quote, `\n` or `\r` is quoted, with
    its quotes doubled."""
    lines = ["n,ngram,year,count\n"]
    for key in sorted(counts):
        n, ngram, year = key
        if _NEEDS_QUOTES.search(ngram):
            ngram = '"' + ngram.replace('"', '""') + '"'
        lines.append(f"{n},{ngram},{year},{counts[key]}\n")
    return "".join(lines)


def _csv_row(row, quoting=csv.QUOTE_MINIMAL):
    """`row` as a `csv` writer with `quoting` and `\n` line ends writes
    it. Python 3.10's writer refuses a NUL, which later versions write
    as it is: each NUL goes to the writer as a private-use character that
    `row` does not hold, which no version quotes, and is put back."""
    stand_in = next(chr(code) for code in range(0xE000, 0xF900) if chr(code) not in "".join(row))
    fh = io.StringIO()
    csv.writer(fh, lineterminator="\n", quoting=quoting).writerow(
        [cell.replace("\x00", stand_in) for cell in row])
    return fh.getvalue().replace(stand_in, "\x00")


def naive_corpus_text(entries):
    """The corpus CSV text of `entries` as `write_corpus` wrote it with
    two `csv` writers: quoting only where needed, and every cell of a
    row with a `\r` in any cell."""
    lines = [_csv_row(CORPUS_HEADER)]
    for entry in entries:
        row = [
            entry.id,
            entry.source,
            str(entry.year),
            entry.title,
            entry.abstract,
            ";".join(entry.keywords),
            ";".join(entry.authors),
        ]
        lines.append(_csv_row(row, csv.QUOTE_ALL if any("\r" in cell for cell in row)
                              else csv.QUOTE_MINIMAL))
    return "".join(lines)


def naive_series_text(series_list):
    """The series CSV text of `series_list` as `write_series_csv` wrote it
    with a `csv` writer, which on Python 3.10 to 3.12 leaves a label
    holding a `\r` unquoted."""
    fh = io.StringIO()
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
    return fh.getvalue()


def naive_freq(counts, phrase, year):
    """Frequency by scanning every record; 0.0 for a dataless year."""
    n = len(phrase)
    target = " ".join(phrase)
    numerator = 0
    denominator = 0
    for (record_n, ngram, record_year), count in counts.items():
        if record_n == n and record_year == year:
            denominator += count
            if ngram == target:
                numerator += count
    if denominator == 0:
        return 0.0
    return numerator / denominator


def naive_freq_list(counts, phrases, year):
    """The sum of the phrases' frequencies, taken exactly and rounded once."""
    return float(sum(Fraction(naive_freq(counts, phrase, year)) for phrase in phrases))


def exact_ols_slope(points):
    """Textbook least-squares slope in exact rational arithmetic.

    `points` is a sequence of (x, y); y floats enter as their exact
    binary values, so the result is the true rational slope of the
    given data.
    """
    n = len(points)
    sx = sum(Fraction(x) for x, _ in points)
    sy = sum(Fraction(y) for _, y in points)
    sxy = sum(Fraction(x) * Fraction(y) for x, y in points)
    sxx = sum(Fraction(x) * Fraction(x) for x, _ in points)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def naive_tokenize(sentence):
    """`tokenize` as it was defined before it became one regex: casefold,
    turn `_` into a space, take each run of word characters, apostrophes
    and hyphens, strip the apostrophes and hyphens at both of its ends,
    and keep it if anything is left."""
    tokens = []
    for run in re.findall(r"[\w'-]+", sentence.casefold().replace("_", " ")):
        token = run.strip("'-")
        if token:
            tokens.append(token)
    return tokens


def naive_parse_bibtex(text, year_range=None, start_ordinal=1):
    """`parse_bibtex` as it was before its scanners became regexes: it
    finds each `@` with `str.find` and walks records and fields one
    character at a time."""
    entries: list[Entry] = []
    diagnostics: list[Diagnostic] = []
    ordinal = start_ordinal
    pos = 0
    line, line_start = 1, 0  # the line number of text[line_start]
    while True:
        at = text.find("@", pos)
        if at == -1:
            break
        if at > 0 and (text[at - 1].isalnum() or text[at - 1] in "._-+"):
            pos = at + 1  # an e-mail address in free text, not a record
            continue
        line += text.count("\n", line_start, at)
        line_start = at
        record_type, body, end = _scan_record(text, at)
        if body is None:
            diagnostics.append(Diagnostic(line, "unbalanced braces in record"))
            pos = _resync(text, at)
            continue
        pos = end
        if record_type in _SKIPPED_RECORD_TYPES:
            continue
        fields = _record_fields(body)
        entry, problem = _make_entry(
            "bibtex",
            ordinal,
            title=fields.get("title", ""),
            abstract=fields.get("abstract", ""),
            keywords=_split_on(fields.get("keywords", ""), _KEYWORD_SEP_RE),
            authors=_split_on(fields.get("author", ""), _AUTHOR_SEP_RE),
            year_text=fields.get("year", ""),
            year_range=year_range,
        )
        if problem:
            key = body.partition(",")[0].strip() or "?"
            diagnostics.append(Diagnostic(line, f"record '{key}': {problem}"))
            continue
        entries.append(entry)
        ordinal += 1
    return entries, diagnostics


def _scan_record(text, at):
    """Find the extent of the record starting at `text[at] == '@'`.

    Returns `(type, body, end)`; `body` is None when the record has no
    opening brace or its braces never balance before end of input.
    """
    idx = at + 1
    type_start = idx
    while idx < len(text) and (text[idx].isalnum() or text[idx] in "_-"):
        idx += 1
    record_type = text[type_start:idx].lower()
    while idx < len(text) and text[idx].isspace():
        idx += 1
    if idx >= len(text) or text[idx] != "{":
        return record_type, None, idx
    depth = 1
    idx += 1
    body_start = idx
    while idx < len(text) and depth > 0:
        ch = text[idx]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        idx += 1
    if depth != 0:
        return record_type, None, idx
    return record_type, text[body_start:idx - 1], idx


def _record_fields(body):
    fields: dict[str, str] = {}
    rest = body.partition(",")[2]
    for chunk in _split_top_level(rest):
        name, eq, raw = chunk.partition("=")
        if not eq:
            continue
        fields[name.strip().lower()] = _clean_value(raw)
    return fields


def _split_top_level(text):
    """Split on commas that are outside braces and quotes."""
    chunks: list[list[str]] = [[]]
    depth = 0
    in_quotes = False
    for ch in text:
        if ch == '"' and depth == 0:
            in_quotes = not in_quotes
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth = max(depth - 1, 0)
        if ch == "," and depth == 0 and not in_quotes:
            chunks.append([])
        else:
            chunks[-1].append(ch)
    return [c for c in ("".join(chunk).strip() for chunk in chunks) if c]


def naive_index_html(index):
    """The catalog's index page of `index`, `(ngram, total, filename)`
    rows, formatted whole as one string and encoded at the end."""
    rows = "\n".join(
        f'<tr><td>{html.escape(ngram)}</td><td>{total}</td>'
        f'<td><a href="{filename}">{filename}</a></td></tr>'
        for ngram, total, filename in index)
    return (
        "<!DOCTYPE html>\n"
        '<html><head><meta charset="utf-8"><title>Trend catalog</title></head>\n'
        "<body>\n<h1>Trend catalog</h1>\n"
        "<table>\n<tr><th>ngram</th><th>total</th><th>plot</th></tr>\n"
        f"{rows}\n</table>\n</body></html>\n"
    ).encode("utf-8")


def naive_render_plot(series_list, title):
    """`render_plot` as it was before its per-plot caches: every
    coordinate goes through `_num` where it is written, and the x axis
    is laid out again for each plot."""
    if not series_list:
        raise ValueError("render_plot needs at least one series")
    left, right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    top_edge, bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

    years = sorted({year for series in series_list for year in series.points})
    values = [point.frequency
              for series in series_list
              for point in series.points.values()
              if point.has_data]
    top = max(values) * 1.1 if values and max(values) > 0 else 1.0

    def x_at(year):
        if len(years) < 2:
            return (left + right) / 2
        return left + (year - years[0]) / (years[-1] - years[0]) * (right - left)

    def y_at(value):
        return bottom - (value / top) * (bottom - top_edge)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:g}" y="20" font-family="sans-serif" font-size="14" '
        f'text-anchor="middle">{html.escape(title, quote=False)}</text>',
    ]

    step = _naive_nice_step(top)
    tick = 0
    while tick * step <= top + 1e-12:
        value = tick * step
        y = y_at(value)
        parts.append(
            f'<line x1="{left}" y1="{_naive_num(y)}" x2="{right}" y2="{_naive_num(y)}" '
            f'stroke="#cccccc" stroke-width="0.5"/>')
        parts.append(
            f'<text x="{left - 6}" y="{_naive_num(y + 3.5)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{value:g}</text>')
        tick += 1

    if years:
        year_step = max(1, math.ceil((years[-1] - years[0]) / 7))
        year = years[0]
        while year <= years[-1]:
            x = _naive_num(x_at(year))
            parts.append(
                f'<line x1="{x}" y1="{bottom}" x2="{x}" '
                f'y2="{bottom + 5}" stroke="black" stroke-width="1"/>')
            parts.append(
                f'<text x="{x}" y="{bottom + 19}" font-family="sans-serif" '
                f'font-size="11" text-anchor="middle">{year}</text>')
            year += year_step
    parts.append(
        f'<line x1="{left}" y1="{top_edge}" x2="{left}" '
        f'y2="{bottom}" stroke="black" stroke-width="1"/>')
    parts.append(
        f'<line x1="{left}" y1="{bottom}" x2="{right}" '
        f'y2="{bottom}" stroke="black" stroke-width="1"/>')

    if values:
        for index, series in enumerate(series_list):
            pattern = STROKE_PATTERNS[index % len(STROKE_PATTERNS)]
            dash = f' stroke-dasharray="{pattern}"' if pattern else ""
            for run in _naive_data_runs(series):
                if len(run) == 1:
                    year, value = run[0]
                    parts.append(
                        f'<circle cx="{_naive_num(x_at(year))}" cy="{_naive_num(y_at(value))}" '
                        f'r="2.5" fill="black"/>')
                else:
                    coords = " ".join(
                        f"{'M' if i == 0 else 'L'} {_naive_num(x_at(year))} "
                        f"{_naive_num(y_at(value))}"
                        for i, (year, value) in enumerate(run))
                    parts.append(
                        f'<path d="{coords}" fill="none" stroke="black" '
                        f'stroke-width="1.5"{dash}/>')
    else:
        parts.append(
            f'<text x="{(left + right) / 2:g}" '
            f'y="{(top_edge + bottom) / 2:g}" font-family="sans-serif" '
            f'font-size="16" text-anchor="middle" fill="#888888">no data</text>')

    legend_x = right - 196
    for index, series in enumerate(series_list):
        pattern = STROKE_PATTERNS[index % len(STROKE_PATTERNS)]
        dash = f' stroke-dasharray="{pattern}"' if pattern else ""
        y = top_edge + 10 + 16 * index
        parts.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 26}" y2="{y}" '
            f'stroke="black" stroke-width="1.5"{dash}/>')
        parts.append(
            f'<text x="{legend_x + 32}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11">{html.escape(series.label, quote=False)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _naive_num(value):
    text = f"{value:.2f}".rstrip("0").rstrip(".")
    return "0" if text in ("", "-0") else text


def _naive_nice_step(span, divisions=5):
    raw = span / divisions
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for multiplier in (1, 2, 5, 10):
        step = multiplier * magnitude
        if step >= raw:
            return step
    return 10 * magnitude


def _naive_data_runs(series):
    """Consecutive has-data points; a no-data point ends the run."""
    runs = []
    current = []
    for year in sorted(series.points):
        point = series.points[year]
        if point.has_data:
            current.append((year, point.frequency))
        elif current:
            runs.append(current)
            current = []
    if current:
        runs.append(current)
    return runs
