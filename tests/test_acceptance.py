"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a `criterion N (...): PASS` line on success (visible
with `pytest -s` or `-v` via the test names); a failing assertion is
the FAIL line.
"""

from __future__ import annotations

import io
import random
import time

from oracle import (exact_ols_slope, naive_freq, naive_freq_list,
                    naive_ngram_counts)
from support import make_entry, random_counts, random_sentences
from trendgram.cli import DEMO_QUERIES, run
from trendgram.frequency import evaluate, freq, parse_query
from trendgram.ingest import merge_dedup
from trendgram.ngrams import count_ngrams, write_records
from trendgram.table import NgramRecord, build_table, read_records
from trendgram.textprep import Sentence, entry_sentences
from trendgram.trends import rank_trends


def _pipeline_records(entries, stoplist):
    sentences = [s for e in entries for s in entry_sentences(e)]
    return count_ngrams(sentences, stoplist)


def test_criterion_01_sentence_boundary_guard(stoplist):
    started = time.perf_counter()
    entry = make_entry(abstract="to program. Comprehension of")
    records = _pipeline_records([entry], stoplist)
    ngrams = {r.ngram for r in records}
    assert "program comprehension" not in ngrams
    assert "program" in ngrams and "comprehension" in ngrams
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1 (sentence-boundary guard, {elapsed:.3f}s): PASS")


def _counted(tokens, stoplist, n_min, n_max, year=2000):
    """`count_ngrams` of one sentence of `tokens`."""
    return count_ngrams([Sentence(list(tokens), "abstract", "x:1", year)], stoplist, n_min, n_max)


def _kept(tokens, stoplist):
    """The n-grams kept of `tokens` at their full length: all of them, or none."""
    return [record.ngram for record in _counted(tokens, stoplist, len(tokens), len(tokens))]


def test_criterion_02_stopword_rule(stoplist):
    assert _kept(("any", "of", "programs"), stoplist) == []
    assert _kept(("comprehension", "of", "programs"), stoplist) == ["comprehension of programs"]
    # boundary: every bigram with exactly one stopword is excluded
    for stop in sorted(stoplist.words):
        assert _kept((stop, "program"), stoplist) == []
        assert _kept(("comprehension", stop), stoplist) == []
    print("criterion 2 (stopword rule): PASS")


def test_criterion_03_record_format(stoplist):
    entries = [
        make_entry(
            id=f"bibtex:{i}",
            title="A tool",
            abstract="Dynamic analysis helps. We apply dynamic analysis. Dynamic analysis scales.",
            year=2008,
        )
        for i in range(11)
    ]
    records = _pipeline_records(entries, stoplist)
    buffer = io.StringIO()
    write_records(records, buffer)
    assert "2,dynamic analysis,2008,33\n" in buffer.getvalue()

    rng = random.Random(1234)
    for _ in range(1000):
        counts = random_counts(rng)
        buffer = io.StringIO()
        write_records(build_table(counts), buffer)
        assert read_records(io.StringIO(buffer.getvalue())) == counts
    print("criterion 3 (record format and round-trip): PASS")


def test_criterion_04_frequency_normalization(stoplist):
    rng = random.Random(99)
    sentences = random_sentences(rng, 200, years=(2000, 2001, 2002, 2003))
    table = count_ngrams(sentences, stoplist)
    checked = 0
    for (n, year), total in table.totals.items():
        if total == 0:
            continue
        sigma = sum(count / total
                    for (record_n, _, record_year), count in table.counts.items()
                    if record_n == n and record_year == year)
        assert abs(sigma - 1.0) <= 1e-9
        checked += 1
    assert checked >= 4
    print(f"criterion 4 (frequency normalization, {checked} groups): PASS")


def test_criterion_05_oracle_equivalence(stoplist):
    started = time.perf_counter()
    rng = random.Random(2024)
    for round_number in range(100):
        sentences = random_sentences(rng, rng.randint(0, 50))
        expected = naive_ngram_counts(sentences, stoplist)
        table = count_ngrams(sentences, stoplist)
        got = {(r.n, r.ngram, r.year): r.count for r in table}
        assert got == expected

        probes = [("program",), ("of",), ("slice", "trace"),
                  ("program", "comprehension", "tool"), ("absent", "gram")]
        for year in (2000, 2001, 2002, 2005):
            for phrase in probes:
                assert freq(table, phrase, year) == naive_freq(expected, phrase, year)
            assert (sum(freq(table, p, year) for p in probes)
                    == naive_freq_list(expected, probes, year))
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"criterion 5 (oracle equivalence, {elapsed:.2f}s): PASS")


def test_criterion_06_query_algebra():
    query = parse_query("case study, experiment, review+survey")
    assert len(query.series) == 3
    assert len(query.series[2].phrases) == 2

    counts = {(1, word, year): count
              for year in (2000, 2001, 2002)
              for word, count in (("p", 3), ("q", 5), ("r", 2))}
    counts[(1, "p", 2003)] = 7
    table = build_table(counts)
    union = evaluate(table, parse_query("p+q"), (2000, 2003))[0]
    left = evaluate(table, parse_query("p"), (2000, 2003))[0]
    right = evaluate(table, parse_query("q"), (2000, 2003))[0]
    for year in range(2000, 2004):
        assert union.points[year].frequency == (
            left.points[year].frequency + right.points[year].frequency)
    print("criterion 6 (query algebra): PASS")


def test_criterion_07_ngram_enumeration():
    table = _counted(("here", "you", "are"), set(), 1, 3, year=2005)
    assert list(table) == [
        NgramRecord(1, "are", 2005, 1),
        NgramRecord(1, "here", 2005, 1),
        NgramRecord(1, "you", 2005, 1),
        NgramRecord(2, "here you", 2005, 1),
        NgramRecord(2, "you are", 2005, 1),
        NgramRecord(3, "here you are", 2005, 1),
    ]
    assert len(table) == 6
    print("criterion 7 (n-gram enumeration): PASS")


def test_criterion_08_trend_ranking():
    counts = {}
    for i in range(10):
        year = 2000 + i
        counts[(2, "growing term", year)] = 2 ** i
        counts[(2, "fading term", year)] = 2 ** (9 - i)
        counts[(2, "steady one", year)] = 50
        counts[(2, "steady two", year)] = 40
    table = build_table(counts)

    rising = rank_trends(table, 2, "rising", 4)
    falling = rank_trends(table, 2, "falling", 4)
    assert rising[0].ngram == "growing term"
    assert falling[0].ngram == "fading term"

    for entry in rising:
        points = [(year, table.counts.get((2, entry.ngram, year), 0) / table.totals[(2, year)])
                  for year in table.years]
        oracle_slope = float(exact_ols_slope(points))
        assert abs(entry.slope - oracle_slope) <= 1e-12
    print("criterion 8 (trend ranking): PASS")


def test_criterion_09_determinism(demo_dir, tmp_path, capsys):
    outputs = []
    for name in ("one", "two"):
        base = tmp_path / name
        base.mkdir()
        corpus = base / "corpus.csv"
        records = base / "records.csv"
        assert run(["ingest",
                    "--bibtex", str(demo_dir / "demo.bib"),
                    "--csv", str(demo_dir / "demo.csv"),
                    "--endnote", str(demo_dir / "demo.enw"),
                    "-o", str(corpus)]) == 0
        assert run(["extract", "-i", str(corpus), "-o", str(records)]) == 0
        assert run(["query", "-i", str(records), DEMO_QUERIES[1],
                    "-o", str(base / "series.csv"), "--svg", str(base / "series.svg")]) == 0
        assert run(["query", "-i", str(records), DEMO_QUERIES[1],
                    "-o", str(base / "series.json")]) == 0
        assert run(["demo", "-i", str(records), "-o", str(base)]) == 0
        outputs.append(base)
    capsys.readouterr()

    first, second = outputs
    names = ["corpus.csv", "records.csv", "series.csv", "series.json", "series.svg"]
    names += sorted(p.name for p in first.glob("demo-*.svg"))
    assert len(names) == 10
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    print("criterion 9 (pipeline determinism): PASS")


def test_criterion_10_dedup_bookkeeping():
    entries = [
        make_entry(id="e1", title="Alpha Study", year=2005, keywords=["k"]),
        make_entry(id="e2", title="alpha study!", year=2005),
        make_entry(id="e3", title="ALPHA STUDY", year=2005),
        make_entry(id="e4", title="Beta Review", year=2007),
        make_entry(id="e5", title="beta review", year=2007),
        make_entry(id="e6", title="Gamma Tool", year=2008),
        make_entry(id="e7", title="Delta Method", year=2009),
        make_entry(id="e8", title="Epsilon Model", year=2010),
        make_entry(id="e9", title="No Abstract Here", abstract=""),
        make_entry(id="e10", title="No Authors Here", authors=[]),
    ]
    merged, report = merge_dedup([entries])
    assert report.total_in == 10
    assert report.incomplete_removed == 2
    assert report.duplicates_removed == 3
    assert report.total_out == 5
    assert len(merged) == 5
    assert report.total_out == report.total_in - report.incomplete_removed - report.duplicates_removed
    print("criterion 10 (dedup bookkeeping): PASS")
